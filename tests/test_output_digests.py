import importlib.util
from pathlib import Path

from ltt.cli import CLI_MODES

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
spec = importlib.util.spec_from_file_location("output_digests", TOOL)
output_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_digests)


def test_digests_cover_every_cli_mode():
    assert output_digests.MODES == tuple(CLI_MODES)
