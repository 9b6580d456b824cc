"""Benchmark of the ltt episode engine.

    python3 perfbench/run.py --workload ttt-lora --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all      # every workload, untraced and traced

Run from anywhere; it measures the source tree it sits in (`src/ltt`). With
`--trace 0` it prints the end-to-end metrics, with `--trace 1` the per-layer
split. Every metric is printed by name with its unit, then the environment,
then, as the last line, one JSON object: correct, attempted, failed, metrics.
Scratch files go to `.perfbench_work/` at the root of the tree.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# One client, one BLAS thread: the loop is closed and single-threaded, and a
# second BLAS thread would wait on the busier of the two cores.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("ttt-lora", "ttt-entropy", "pretrain")


def _format(result: dict) -> list[str]:
    units_of = result["units_of"]
    lines = [f"{result['workload']} seed={result['seed']} trace={result['trace']}: "
             f"{result['units']} {result['unit']} over {result['invocations']} invocations"
             + ("" if result["trace"] else
                f"; each p90 is the median of the p90s of {result['tail_blocks']} blocks "
                f"of 100, each with 10 samples beyond it")]
    for name, value in result["metrics"].items():
        lines.append(f"  {name:<40} {value:>14.6g} {units_of[name]}")
    lines.append(f"  {'failed_frac':<40} {result['failed_frac']:>14.6g} ratio "
                 f"({result['failed']} of {result['attempted']} failed)")
    for problem in result["problems"]:
        lines.append(f"  CHECK FAILED: {problem}")
    env = result["environment"]
    lines.append("  environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    return lines


def _summary(result: dict) -> dict:
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": value, "unit": result["units_of"][name]}
                        for name, value in result["metrics"].items()}}


def run_one(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import run

    result = run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    record = ROOT / ".perfbench_work" / f"result-{args.workload}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1) + "\n")
    print("\n".join(_format(result)))
    print(json.dumps(_summary(result)))
    return 0


def run_all(args) -> int:
    """Each workload and trace setting in its own process, one after another,
    so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            part = json.loads(lines[-1])
            combined["correct"] &= part["correct"]
            combined["attempted"] += part["attempted"]
            combined["failed"] += part["failed"]
            for name, metric in part["metrics"].items():
                combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ltt" / "__init__.py").is_file():
        print(f"error: no ltt sources under {ROOT / 'src'}; run from a full source tree",
              file=sys.stderr)
        return 2
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
