"""Command line entry point: gen-data, pretrain, embed-text, lora-pretrain,
run, report. Exit codes: 0 ok, 1 validation error, 2 I/O error."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .data import DatasetManifest, SyntheticShiftSpec, generate, load_pairs, load_split
from .encoder import ClipModel, TextFeatureTable, VitConfig
from .lora import LoraConfig
from .metrics import report_csv_rows
from .pretrain import embed_text, keep_freed_memory, lora_pretrain, pretrain
from .serial import config_from_json
from .ttt import MODES, TttConfig, run_stream

CLI_MODES = {mode.replace("_", "-"): mode for mode in MODES}


def _load_json(path) -> dict:
    with open(path) as f:
        try:
            obj = json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"invalid JSON in {path}: {e}") from e
    if not isinstance(obj, dict):
        raise ValueError(f"{path} must hold a JSON object")
    return obj


def cmd_gen_data(args) -> int:
    spec = config_from_json(SyntheticShiftSpec, _load_json(args.spec)) if args.spec \
        else SyntheticShiftSpec()
    manifest = generate(spec, args.out)
    print(f"wrote {len(manifest.items)} items across splits {manifest.splits()} "
          f"to {args.out}")
    return 0


def cmd_pretrain(args) -> int:
    vit_cfg = config_from_json(VitConfig, _load_json(args.config)) if args.config else VitConfig()
    model, losses = pretrain(args.data, vit_cfg, epochs=args.epochs, seed=args.seed)
    if not losses:
        raise ValueError(f"no training step ran in {args.epochs} epoch(s); nothing saved")
    model.save(args.out)
    print(f"pretrained {args.epochs} epochs, final loss {losses[-1]:.4f}, "
          f"saved to {args.out}")
    return 0


def cmd_embed_text(args) -> int:
    table = embed_text(args.ckpt, args.classes, args.template, args.out)
    print(f"wrote table with K={table.num_classes} to {args.out}")
    return 0


def cmd_lora_pretrain(args) -> int:
    model = ClipModel.load(args.ckpt)
    pairs = load_pairs(args.data)
    lora_cfg = config_from_json(LoraConfig, _load_json(args.lora)) if args.lora else LoraConfig()
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 0x10AD]))
    encoder, losses = lora_pretrain(model, pairs, args.epochs, rng, lora_cfg,
                                    lr=args.lr)
    if not losses:
        raise ValueError(f"no training step ran in {args.epochs} epoch(s); nothing saved")
    encoder.save_adapters(args.out)
    print(f"adapter pretraining: {len(losses)} steps, "
          f"loss {losses[0]:.4f} -> {losses[-1]:.4f}, saved to {args.out}")
    return 0


def cmd_run(args) -> int:
    model = ClipModel.load(args.ckpt)
    table = TextFeatureTable.load(args.table)
    cfg_obj = _load_json(args.config) if args.config else {}
    if "mode" in cfg_obj:
        raise ValueError(f"{args.config} sets 'mode'; the mode comes from --mode alone")
    cfg_obj["mode"] = CLI_MODES[args.mode]
    if args.seed is not None:
        if "seed" in cfg_obj:
            raise ValueError(f"{args.config} sets 'seed'; give the seed there or with --seed, "
                             "not both")
        cfg_obj["seed"] = args.seed
    cfg = config_from_json(TttConfig, cfg_obj)
    manifest = DatasetManifest.load(Path(args.data) / "manifest.json")
    if table.class_names != manifest.class_names:
        raise ValueError(f"table classes {table.class_names} differ from the data's "
                         f"{manifest.class_names}, order included")
    if table.features.shape[1] != model.vit.out_dim:
        raise ValueError(f"table {args.table} holds rows of width {table.features.shape[1]}, "
                         f"the model embeds to {model.vit.out_dim}")
    items = load_split(args.data, args.split, manifest)
    report = run_stream(items, model, table, cfg, dataset_name=args.split,
                        adapters_path=args.adapters)
    report.write_outputs(args.out)
    print(f"{cfg.mode} on {args.split}: top1={report.top1:.4f} ece={report.ece:.4f} "
          f"({len(report.episodes)} instances) -> {args.out}")
    return 0


def cmd_report(args) -> int:
    records = []
    for run_dir in args.runs:
        path = Path(run_dir) / "report.json"
        records.append(_load_json(path))
    csv_text = report_csv_rows(records)
    if args.out:
        Path(args.out).write_text(csv_text)
        print(f"wrote {len(records)} rows to {args.out}")
    else:
        sys.stdout.write(csv_text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ltt", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="render the synthetic benchmark")
    g.add_argument("--spec", help="JSON generation spec")
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("pretrain", help="contrastive pretraining of the dual encoder")
    p.add_argument("--data", required=True)
    p.add_argument("--config", help="model config JSON")
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_pretrain)

    e = sub.add_parser("embed-text", help="precompute the class text table")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--classes", nargs="+", required=True)
    e.add_argument("--template", nargs="+", default=["a photo of a {class}"])
    e.add_argument("--out", required=True)
    e.set_defaults(fn=cmd_embed_text)

    l = sub.add_parser("lora-pretrain", help="contrastive pre-init of adapter weights")
    l.add_argument("--ckpt", required=True)
    l.add_argument("--data", required=True)
    l.add_argument("--epochs", type=int, default=1)
    l.add_argument("--lr", type=float, default=1e-4)
    l.add_argument("--seed", type=int, default=0)
    l.add_argument("--lora", help="adapter config JSON")
    l.add_argument("--out", required=True)
    l.set_defaults(fn=cmd_lora_pretrain)

    r = sub.add_parser("run", help="episodic test-time run over a split")
    r.add_argument("--ckpt", required=True)
    r.add_argument("--table", required=True)
    r.add_argument("--data", required=True)
    r.add_argument("--mode", choices=sorted(CLI_MODES), required=True)
    r.add_argument("--config", help="ttt config JSON")
    r.add_argument("--seed", type=int, default=None)
    r.add_argument("--split", default="test")
    r.add_argument("--adapters", help="pretrained adapter checkpoint")
    r.add_argument("--out", required=True)
    r.set_defaults(fn=cmd_run)

    m = sub.add_parser("report", help="merge run reports into one CSV")
    m.add_argument("--runs", nargs="+", required=True)
    m.add_argument("--out")
    m.set_defaults(fn=cmd_report)
    return ap


def main(argv=None) -> int:
    keep_freed_memory()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # bad usage counts as a validation error; --help stays 0
        return 0 if not e.code else 1
    try:  # a non-finite result ends in an error: line, not in numpy's warnings
        with np.errstate(all="ignore"):
            return args.fn(args)
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
