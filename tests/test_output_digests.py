import importlib.util
from pathlib import Path

from ltt.cli import CLI_MODES

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
spec = importlib.util.spec_from_file_location("output_digests", TOOL)
output_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_digests)


def test_digests_cover_every_cli_mode():
    assert output_digests.MODES == tuple(CLI_MODES)


def test_report_digest_ignores_only_the_timing(tmp_path):
    a, b, c = (tmp_path / name for name in "abc")
    a.write_text('{\n  "mode": "lora_ttt",\n  "median_episode_ms": 1.5,\n  "top1": 0.5\n}\n')
    b.write_text('{\n  "mode": "lora_ttt",\n  "median_episode_ms": 9.0,\n  "top1": 0.5\n}\n')
    c.write_text('{\n  "top1": 0.5,\n  "median_episode_ms": 1.5,\n  "mode": "lora_ttt"\n}\n')
    assert output_digests.report_sha256(a) == output_digests.report_sha256(b)
    assert output_digests.report_sha256(a) != output_digests.report_sha256(c)
