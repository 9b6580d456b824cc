import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
spec = importlib.util.spec_from_file_location("output_digests", TOOL)
output_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_digests)


def test_report_digest_ignores_only_the_timing(tmp_path):
    a, b, c = (tmp_path / name for name in "abc")
    a.write_text('{\n  "mode": "lora_ttt",\n  "median_episode_ms": 1.5,\n  "top1": 0.5\n}\n')
    b.write_text('{\n  "mode": "lora_ttt",\n  "median_episode_ms": 9.0,\n  "top1": 0.5\n}\n')
    c.write_text('{\n  "top1": 0.5,\n  "median_episode_ms": 1.5,\n  "mode": "lora_ttt"\n}\n')
    assert output_digests.report_sha256(a) == output_digests.report_sha256(b)
    assert output_digests.report_sha256(a) != output_digests.report_sha256(c)


def test_differing_names_changed_and_one_sided_digests():
    ours = {"a.lttw": "1", "b/report.json": "2", "c/episodes.jsonl": "3", "new": "4"}
    theirs = {"a.lttw": "1", "b/report.json": "9", "c/episodes.jsonl": "3", "gone": "5"}
    assert output_digests.differing(ours, theirs) == ["b/report.json", "gone", "new"]
    assert output_digests.differing(ours, dict(ours)) == []


def test_against_prints_the_differing_names_and_exits_1_if_any(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(output_digests, "digests", lambda work: {"a": "1", "b": "2"})
    saved = tmp_path / "other.json"
    saved.write_text('{"a": "1", "b": "3"}')
    assert output_digests.main(["--against", str(saved)]) == 1
    assert capsys.readouterr().out == "b\n1 of 2 digests differ\n"
    saved.write_text('{"a": "1", "b": "2"}')
    assert output_digests.main(["--against", str(saved)]) == 0
    assert capsys.readouterr().out == "0 of 2 digests differ\n"
