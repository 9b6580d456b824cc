"""perfbench finds its unit and step boundaries in `ltt` by name, so a
rename shows up only when the benchmark runs. These tests pin each name."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))  # perfbench is a package at the repo root
from perfbench import probe  # noqa: E402

# the unit openers and closers that perfbench/workloads.py passes to its Recorders
WORKLOAD_BOUNDARIES = ("ttt.run_episode", "ttt.run_stream", "views.random_resized_crop",
                       "encoder.ClipModel.clamp_logit_scale")


def test_workloads_name_these_boundaries():
    text = (ROOT / "perfbench" / "workloads.py").read_text()
    for name in WORKLOAD_BOUNDARIES:
        assert f'"{name}"' in text, name


@pytest.mark.parametrize("name", [probe.STEP_OPENER, probe.STEP_CLOSER, probe.TAPE_EXIT,
                                  *WORKLOAD_BOUNDARIES])
def test_probe_resolves_boundary(name):
    targets, _ = probe._targets()
    assert name in {target[0] for target in targets}
