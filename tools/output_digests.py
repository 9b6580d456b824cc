"""sha256 of every file the `ltt` commands write, as one JSON object.

Drives `ltt.cli.main` in-process on a small generated workspace and hashes:
a tiny and a default-size pretrained checkpoint with their text tables, the
`lora-pretrain` `adapters.lttw`, and the outputs of every `run`: every
mode x recon target x steps {1, 2} on the tiny model, a lora-ttt run that
loads the adapters, and three modes at the default episode settings on the
default-size model. A run contributes `episodes.jsonl` and `report.json`,
the latter without `median_episode_ms`, its one timing.
Two source trees that print the same JSON write the same bytes, up to that
timing.

    python tools/output_digests.py                   # this tree's src/
    python tools/output_digests.py --src OTHER/src   # another checkout
    python tools/output_digests.py --keep DIR        # leave the outputs in DIR

Two `episodes.jsonl` files kept this way can be compared field by field
with `tools/episode_diff.py`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

TINY_MODEL = {"embed_dim": 32, "num_layers": 2, "num_heads": 4, "mlp_ratio": 2.0,
              "out_dim": 32}
TINY_LORA = {"rank": 2, "scale": 2.0}
SPEC = {"num_classes": 4, "train_per_class": 16, "test_per_class": 3,
        "shift_kinds": ["gaussian_noise"], "severity": 3, "seed": 9}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def report_sha256(path: Path) -> str:
    """sha256 of `report.json` as written, less its wall-clock field."""
    report = json.loads(path.read_text())
    del report["median_episode_ms"]
    return hashlib.sha256((json.dumps(report, indent=2) + "\n").encode()).hexdigest()


def digests(work: Path) -> dict:
    from ltt.cli import CLI_MODES, main

    def cli(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main([str(a) for a in argv])
        if rc != 0:
            raise SystemExit(f"ltt {' '.join(map(str, argv))} exited {rc}")

    def write_json(name: str, obj) -> Path:
        path = work / name
        path.write_text(json.dumps(obj))
        return path

    data = work / "data"
    cli("gen-data", "--spec", write_json("spec.json", SPEC), "--out", data)
    class_names = json.loads((data / "manifest.json").read_text())["class_names"]
    out: dict[str, str] = {}

    def pretrain(tag: str, model_cfg: dict, epochs: int) -> tuple[Path, Path]:
        model, table = work / f"{tag}.lttw", work / f"{tag}.lttc"
        cli("pretrain", "--data", data, "--config", write_json(f"{tag}.json", model_cfg),
            "--epochs", epochs, "--seed", 0, "--out", model)
        cli("embed-text", "--ckpt", model, "--classes", *class_names, "--out", table)
        out[f"{tag}.lttw"], out[f"{tag}.lttc"] = sha256(model), sha256(table)
        return model, table

    def run(name: str, model: Path, table: Path, mode: str, ttt_cfg: dict, *extra):
        run_dir = work / "runs" / name
        cli("run", "--ckpt", model, "--table", table, "--data", data, "--mode", mode,
            "--config", write_json(f"{name}.json", ttt_cfg), "--seed", 0,
            "--split", "test_gaussian_noise", "--out", run_dir, *extra)
        out[f"{name}/episodes.jsonl"] = sha256(run_dir / "episodes.jsonl")
        out[f"{name}/report.json"] = report_sha256(run_dir / "report.json")

    model, table = pretrain("tiny", TINY_MODEL, 2)
    adapters = work / "adapters.lttw"
    cli("lora-pretrain", "--ckpt", model, "--data", data,
        "--lora", write_json("lora.json", TINY_LORA), "--out", adapters)
    out["adapters.lttw"] = sha256(adapters)
    for mode in CLI_MODES:  # every mode `ltt run` takes, in the --src tree's order
        for target in ("class_token", "visual_tokens"):
            for steps in (1, 2):
                run(f"tiny-{mode}-{target}-{steps}", model, table, mode,
                    {"num_views": 8, "cutoff": 0.25, "recon_target": target,
                     "steps": steps, "lora": TINY_LORA})
    run("tiny-lora-ttt-adapters", model, table, "lora-ttt",
        {"num_views": 8, "cutoff": 0.25, "lora": TINY_LORA}, "--adapters", adapters)

    model, table = pretrain("default", {}, 1)
    for mode in ("lora-ttt", "lora-ttt-a", "full-tune"):
        run(f"default-{mode}", model, table, mode, {})
    return dict(sorted(out.items()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                    help="directory holding the ltt package (default: this tree's src/)")
    ap.add_argument("--keep", type=Path, default=None,
                    help="write the workspace to this new directory and leave it there")
    args = ap.parse_args(argv)
    if not (args.src / "ltt" / "__init__.py").is_file():
        ap.error(f"no ltt package under {args.src}")
    sys.path.insert(0, str(args.src.resolve()))
    if args.keep is not None:
        args.keep.mkdir(parents=True)
    work = (contextlib.nullcontext(args.keep) if args.keep is not None
            else tempfile.TemporaryDirectory(prefix="ltt-digests-"))
    with work as path:
        print(json.dumps(digests(Path(path)), indent=1))
    return 0


if __name__ == "__main__":
    # one BLAS thread: the digests then do not depend on the core count
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    sys.exit(main())
