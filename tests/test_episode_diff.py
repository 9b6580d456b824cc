import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "episode_diff.py"
spec = importlib.util.spec_from_file_location("episode_diff", TOOL)
episode_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(episode_diff)

RECORD = {"instance_id": "x0", "predicted": 2, "probs": [0.25, 0.75], "label": 1,
          "mem_loss": 0.5, "step_losses": [1.0, 0.5], "selected": [0, 3],
          "peak_tape_nodes": 174, "recorded_tokens": 54}


def write(path: Path, records) -> Path:
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def test_float_differences_are_measured_and_tape_nodes_exempt(tmp_path, capsys):
    other = dict(RECORD, probs=[0.25, 0.75 * (1 + 4e-6)], peak_tape_nodes=164)
    a = write(tmp_path / "a.jsonl", [RECORD, RECORD])
    b = write(tmp_path / "b.jsonl", [RECORD, other])
    assert episode_diff.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "174 -> 164" in out and "probs: max rel diff 4.000e-06" in out
    assert "largest float rel diff 4.000e-06" in out


@pytest.mark.parametrize("edit", [{"predicted": 1}, {"selected": [0, 4]}, {"label": None},
                                  {"recorded_tokens": 53}, {"mem_loss": None},
                                  {"step_losses": [1.0]}])
def test_discrete_mismatch_exits_1(tmp_path, capsys, edit):
    a = write(tmp_path / "a.jsonl", [RECORD])
    b = write(tmp_path / "b.jsonl", [dict(RECORD, **edit)])
    assert episode_diff.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.startswith("discrete mismatch: record 0")


def test_nan_against_a_number_is_an_infinite_difference():
    worst, _ = episode_diff.diff([dict(RECORD, mem_loss=float("nan"))], [RECORD])
    assert worst["mem_loss"] == float("inf")


def test_record_count_must_match(tmp_path):
    with pytest.raises(episode_diff.Mismatch, match="2 vs 1 records"):
        episode_diff.diff([RECORD, RECORD], [RECORD])
