import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ltt.cli import main
from ltt.encoder import TextFeatureTable
from ltt.serial import read_checkpoint, read_tensor, write_checkpoint, write_tensor

from helpers import BROKEN_CHECKPOINTS, break_checkpoint

PKG = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Tiny end-to-end workspace: data, checkpoint, table."""
    root = tmp_path_factory.mktemp("cli_ws")
    spec = {"num_classes": 4, "train_per_class": 16, "test_per_class": 3,
            "shift_kinds": ["gaussian_noise"], "severity": 3, "seed": 9}
    (root / "spec.json").write_text(json.dumps(spec))
    assert main(["gen-data", "--spec", str(root / "spec.json"),
                 "--out", str(root / "data")]) == 0
    model_cfg = {"embed_dim": 32, "num_layers": 2, "num_heads": 4,
                 "mlp_ratio": 2.0, "out_dim": 32}
    (root / "model.json").write_text(json.dumps(model_cfg))
    assert main(["pretrain", "--data", str(root / "data"),
                 "--config", str(root / "model.json"),
                 "--epochs", "2", "--seed", "0",
                 "--out", str(root / "model.lttw")]) == 0
    manifest = json.loads((root / "data" / "manifest.json").read_text())
    assert main(["embed-text", "--ckpt", str(root / "model.lttw"),
                 "--classes", *manifest["class_names"],
                 "--template", "a photo of a {class}",
                 "--out", str(root / "table.lttc")]) == 0
    ttt_cfg = {"num_views": 8, "cutoff": 0.25, "lora": {"rank": 2, "scale": 2.0}}
    (root / "ttt.json").write_text(json.dumps(ttt_cfg))
    return root


def test_gen_data_created_files(workspace):
    manifest = json.loads((workspace / "data" / "manifest.json").read_text())
    assert len(manifest["class_names"]) == 4
    assert (workspace / "data" / "tensors").is_dir()


def test_run_zero_shot_and_report(workspace):
    out = workspace / "run_zs"
    assert main(["run", "--ckpt", str(workspace / "model.lttw"),
                 "--table", str(workspace / "table.lttc"),
                 "--data", str(workspace / "data"),
                 "--mode", "zero-shot", "--seed", "0",
                 "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["mode"] == "zero_shot"
    assert rep["trainable_params"] == 0
    assert (out / "episodes.jsonl").exists()
    assert (out / "report.csv").read_text().startswith("mode,")


def test_run_lora_ttt_deterministic(workspace):
    outs = []
    for tag in ("a", "b"):
        out = workspace / f"run_{tag}"
        assert main(["run", "--ckpt", str(workspace / "model.lttw"),
                     "--table", str(workspace / "table.lttc"),
                     "--data", str(workspace / "data"),
                     "--mode", "lora-ttt", "--seed", "3",
                     "--config", str(workspace / "ttt.json"),
                     "--split", "test_gaussian_noise",
                     "--out", str(out)]) == 0
        outs.append((out / "episodes.jsonl").read_bytes())
    assert outs[0] == outs[1]


def test_run_with_adapters(workspace):
    lora_cfg = {"rank": 2, "scale": 2.0, "matrices": ["q", "v"], "layers": [1, 2]}
    (workspace / "lora.json").write_text(json.dumps(lora_cfg))
    assert main(["lora-pretrain", "--ckpt", str(workspace / "model.lttw"),
                 "--data", str(workspace / "data"), "--epochs", "1",
                 "--lr", "0.001", "--seed", "1",
                 "--lora", str(workspace / "lora.json"),
                 "--out", str(workspace / "adapters.lttw")]) == 0
    out = workspace / "run_pre"
    # run config must match the adapter checkpoint layout
    assert main(["run", "--ckpt", str(workspace / "model.lttw"),
                 "--table", str(workspace / "table.lttc"),
                 "--data", str(workspace / "data"),
                 "--mode", "lora-ttt", "--seed", "0",
                 "--adapters", str(workspace / "adapters.lttw"),
                 "--out", str(out)]) == 1
    run_cfg = {"num_views": 8, "cutoff": 0.25, "lora": lora_cfg}
    (workspace / "run_cfg.json").write_text(json.dumps(run_cfg))
    assert main(["run", "--ckpt", str(workspace / "model.lttw"),
                 "--table", str(workspace / "table.lttc"),
                 "--data", str(workspace / "data"),
                 "--mode", "lora-ttt", "--seed", "0",
                 "--config", str(workspace / "run_cfg.json"),
                 "--adapters", str(workspace / "adapters.lttw"),
                 "--out", str(out)]) == 0


def test_report_merges_runs(workspace, capsys):
    for split, tag in (("test", "r1"), ("test_gaussian_noise", "r2")):
        main(["run", "--ckpt", str(workspace / "model.lttw"),
              "--table", str(workspace / "table.lttc"),
              "--data", str(workspace / "data"), "--mode", "zero-shot",
              "--seed", "0", "--split", split,
              "--out", str(workspace / tag)])
    out_csv = workspace / "merged.csv"
    assert main(["report", "--runs", str(workspace / "r1"), str(workspace / "r2"),
                 "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().strip().split("\n")
    assert len(lines) == 3
    assert "zero_shot" in lines[1]


def test_exit_codes(workspace, tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{ not json")
    assert main(["gen-data", "--spec", str(bad_json), "--out", str(tmp_path / "d")]) == 1
    missing = tmp_path / "missing.json"
    assert main(["gen-data", "--spec", str(missing), "--out", str(tmp_path / "d")]) == 2
    bad_model = tmp_path / "model.json"
    bad_model.write_text(json.dumps({"embed_dims": 32}))
    assert main(["pretrain", "--data", str(workspace / "data"), "--config", str(bad_model),
                 "--out", str(tmp_path / "model.lttw")]) == 1
    # bad usage is a validation error, not an I/O error
    assert main(["run", "--mode", "bogus"]) == 1
    assert main(["--help"]) == 0


@pytest.mark.parametrize("bad", [{"num_views": 0}, {"mask_ratio": 1.5}, {"lr": -1},
                                 {"num_view": 8}, {"lora": {"rnk": 4}},
                                 {"num_views": "8"}, {"detach_target": True},
                                 {"lora": {"layers": ["a"]}}, {"lora": {"layers": [True]}},
                                 {"lam_mem": float("nan")}, {"lora": {"scale": float("nan")}},
                                 {"lr": float("inf")},
                                 {"lora": {"matrices": ["q", "q"], "rank": 2}}])
def test_run_rejects_bad_ttt_config(workspace, tmp_path, capsys, bad):
    (tmp_path / "ttt.json").write_text(json.dumps(bad))
    out = tmp_path / "run"
    assert main(["run", "--ckpt", str(workspace / "model.lttw"),
                 "--table", str(workspace / "table.lttc"),
                 "--data", str(workspace / "data"), "--mode", "lora-ttt",
                 "--config", str(tmp_path / "ttt.json"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (out / "episodes.jsonl").exists()


def test_run_rejects_non_finite_image(workspace, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    manifest = json.loads((data / "manifest.json").read_text())
    item = next(it for it in manifest["items"] if it["split"] == "test")
    img = read_tensor(data / item["path"])
    img[1, 2, 3] = np.nan
    write_tensor(data / item["path"], img)
    out = tmp_path / "run"
    assert main(["run", "--ckpt", str(workspace / "model.lttw"),
                 "--table", str(workspace / "table.lttc"),
                 "--data", str(data), "--mode", "zero-shot", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and item["id"] in err
    assert not (out / "report.json").exists()


def run_with_config(workspace, out, config, mode="lora-ttt"):
    (out.parent / "ttt.json").write_text(json.dumps(config))
    return main(["run", "--ckpt", str(workspace / "model.lttw"),
                 "--table", str(workspace / "table.lttc"), "--data", str(workspace / "data"),
                 "--mode", mode, "--config", str(out.parent / "ttt.json"), "--out", str(out)])


def test_run_with_a_diverging_step_exits_1(workspace, tmp_path, capsys):
    out = tmp_path / "run"
    assert run_with_config(workspace, out, {"lr": 1e30, "num_views": 8}) == 1
    assert_one_error(capsys, "non-finite probabilities")
    assert not out.exists()


def test_run_with_a_size_too_large_to_allocate_exits_1(workspace, tmp_path, capsys):
    # numpy refuses the 10.9 PiB view stack at once, so nothing is allocated
    out = tmp_path / "run"
    assert run_with_config(workspace, out, {"num_views": 10**12}) == 1
    assert_one_error(capsys, "error: out of memory: ")
    assert not out.exists()


def test_lora_pretrain_that_diverges_exits_1(workspace, tmp_path, capsys):
    out = tmp_path / "adapters.lttw"
    assert main(["lora-pretrain", "--ckpt", str(workspace / "model.lttw"),
                 "--data", str(workspace / "data"), "--epochs", "2", "--lr", "1e30",
                 "--out", str(out)]) == 1
    assert_one_error(capsys, "non-finite loss at adapter pretraining step 2")
    assert not out.exists()


def test_embed_text_rejects_oversized_checkpoint_tensor(tmp_path, capsys):
    # 32 bytes: one record whose tensor declares (2**32-1)**3 float32 elements
    ckpt = tmp_path / "huge.lttw"
    ckpt.write_bytes(b"LTTW" + (1).to_bytes(4, "little") + (3).to_bytes(2, "little") + b"abc"
                     + b"LTTF" + bytes([1, 0, 3]) + b"\xff" * 12)
    assert ckpt.stat().st_size == 32
    assert main(["embed-text", "--ckpt", str(ckpt), "--classes", "a", "b",
                 "--out", str(tmp_path / "t.lttc")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: truncated") and err.count("\n") == 1


def assert_one_error(capsys, needle):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and needle in err


@pytest.mark.parametrize("lr", ["nan", "-1"])
def test_lora_pretrain_rejects_bad_lr(workspace, tmp_path, capsys, lr):
    out = tmp_path / "adapters.lttw"
    assert main(["lora-pretrain", "--ckpt", str(workspace / "model.lttw"),
                 "--data", str(workspace / "data"), "--lr", lr, "--out", str(out)]) == 1
    assert_one_error(capsys, "lr must be finite and >= 0")
    assert not out.exists()


def test_run_rejects_adapters_of_another_config(workspace, tmp_path, capsys):
    (tmp_path / "lora.json").write_text(json.dumps({"scale": 2.0, "rank": 2}))
    assert main(["lora-pretrain", "--ckpt", str(workspace / "model.lttw"),
                 "--data", str(workspace / "data"), "--lora", str(tmp_path / "lora.json"),
                 "--out", str(tmp_path / "adapters.lttw")]) == 0
    capsys.readouterr()
    (tmp_path / "ttt.json").write_text(json.dumps({"lora": {"scale": 12.0, "rank": 2}}))
    out = tmp_path / "run"
    assert main(["run", "--ckpt", str(workspace / "model.lttw"),
                 "--table", str(workspace / "table.lttc"), "--data", str(workspace / "data"),
                 "--mode", "lora-ttt", "--config", str(tmp_path / "ttt.json"),
                 "--adapters", str(tmp_path / "adapters.lttw"), "--out", str(out)]) == 1
    assert_one_error(capsys, "[2.0, 2.0, 4.0, 8.0]")
    assert not (out / "episodes.jsonl").exists()


def test_run_rejects_short_model_meta(workspace, tmp_path, capsys):
    arrays = read_checkpoint(workspace / "model.lttw")
    arrays["meta.config"] = arrays["meta.config"][:5]
    write_checkpoint(tmp_path / "model.lttw", arrays)
    out = tmp_path / "run"
    assert main(["run", "--ckpt", str(tmp_path / "model.lttw"),
                 "--table", str(workspace / "table.lttc"), "--data", str(workspace / "data"),
                 "--mode", "zero-shot", "--out", str(out)]) == 1
    assert_one_error(capsys, "meta.config")


@pytest.mark.parametrize("bad", [{"patch_size": 0}, {"num_heads": 0}, {"embed_dim": -32},
                                 {"mlp_ratio": 0.0}, {"mlp_ratio": float("inf")},
                                 {"mlp_ratio": 1e308}])
def test_pretrain_rejects_non_positive_model_sizes(workspace, tmp_path, capsys, bad):
    (tmp_path / "model.json").write_text(json.dumps(bad))
    assert main(["pretrain", "--data", str(workspace / "data"),
                 "--config", str(tmp_path / "model.json"),
                 "--out", str(tmp_path / "model.lttw")]) == 1
    key, value = next(iter(bad.items()))
    assert_one_error(capsys, f"{key} must be {'finite' if value >= 1e308 else '> 0'}")
    assert not (tmp_path / "model.lttw").exists()


HUGE_SIZES = [({"embed_dim": 10**400}, "embed_dim * mlp_ratio must be finite"),
              ({"mlp_ratio": 10**400}, "mlp_ratio must be finite, got inf"),
              ({"embed_dim": 2**40, "num_heads": 1}, "embed_dim=1099511627776, num_layers=4, "
                                                     "num_heads=1"),
              ({"image_size": 2**70, "patch_size": 2**35}, f"image_size={2**70}, "
                                                           f"patch_size={2**35}")]


@pytest.mark.parametrize("config, needle", HUGE_SIZES,
                         ids=[f"{next(iter(c))}-{n}" for c, n in HUGE_SIZES])
def test_pretrain_rejects_an_integer_size_beyond_float(workspace, tmp_path, capsys, config,
                                                       needle):
    (tmp_path / "model.json").write_text(json.dumps(config))
    assert main(["pretrain", "--data", str(workspace / "data"),
                 "--config", str(tmp_path / "model.json"),
                 "--out", str(tmp_path / "model.lttw")]) == 1
    assert_one_error(capsys, needle)
    assert not (tmp_path / "model.lttw").exists()


@pytest.mark.parametrize("command", ["pretrain", "lora-pretrain"])
def test_training_without_a_step_exits_1(workspace, tmp_path, capsys, command):
    source = ["--ckpt", str(workspace / "model.lttw")] if command == "lora-pretrain" else []
    out = tmp_path / "out.lttw"
    assert main([command, *source, "--data", str(workspace / "data"), "--epochs", "0",
                 "--out", str(out)]) == 1
    assert_one_error(capsys, "no training step")
    assert not out.exists()


def test_lora_pretrain_resizes_images_to_the_model(workspace, tmp_path, capsys):
    # 48-px data on the 32-px workspace model
    spec = {"num_classes": 4, "train_per_class": 4, "test_per_class": 1, "image_size": 48,
            "shift_kinds": ["gaussian_noise"], "seed": 9}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    assert main(["gen-data", "--spec", str(tmp_path / "spec.json"),
                 "--out", str(tmp_path / "data")]) == 0
    (tmp_path / "lora.json").write_text(json.dumps({"rank": 2, "scale": 2.0}))
    assert main(["lora-pretrain", "--ckpt", str(workspace / "model.lttw"),
                 "--data", str(tmp_path / "data"), "--lora", str(tmp_path / "lora.json"),
                 "--out", str(tmp_path / "adapters.lttw")]) == 0
    assert "adapter pretraining: 1 steps" in capsys.readouterr().out
    assert main(["run", "--ckpt", str(workspace / "model.lttw"),
                 "--table", str(workspace / "table.lttc"), "--data", str(tmp_path / "data"),
                 "--mode", "lora-ttt", "--config", str(workspace / "ttt.json"),
                 "--adapters", str(tmp_path / "adapters.lttw"),
                 "--out", str(tmp_path / "run")]) == 0


def test_run_rejects_table_of_other_class_order(workspace, tmp_path, capsys):
    manifest = json.loads((workspace / "data" / "manifest.json").read_text())
    assert main(["embed-text", "--ckpt", str(workspace / "model.lttw"),
                 "--classes", *reversed(manifest["class_names"]),
                 "--out", str(tmp_path / "table.lttc")]) == 0
    capsys.readouterr()
    out = tmp_path / "run"
    assert main(["run", "--ckpt", str(workspace / "model.lttw"),
                 "--table", str(tmp_path / "table.lttc"), "--data", str(workspace / "data"),
                 "--mode", "zero-shot", "--out", str(out)]) == 1
    assert_one_error(capsys, "order included")
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("mode", ["zero-shot", "lora-ttt"])
def test_run_rejects_table_of_other_width(workspace, tmp_path, capsys, mode):
    # the workspace model embeds to 32; this table was built for 16
    names = json.loads((workspace / "data" / "manifest.json").read_text())["class_names"]
    table = tmp_path / "table16.lttc"
    TextFeatureTable(names, np.eye(len(names), 16, dtype=np.float32)).save(table)
    out = tmp_path / "run"
    assert main(["run", "--ckpt", str(workspace / "model.lttw"), "--table", str(table),
                 "--data", str(workspace / "data"), "--mode", mode,
                 "--config", str(workspace / "ttt.json"), "--out", str(out)]) == 1
    assert_one_error(capsys, f"table {table} holds rows of width 16, the model embeds to 32")
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("case", sorted(BROKEN_CHECKPOINTS))
def test_run_rejects_checkpoint_off_its_layout_before_the_table(workspace, tmp_path, capsys,
                                                                case):
    ckpt = tmp_path / "model.lttw"
    name = break_checkpoint(workspace / "model.lttw", ckpt, case)
    # a missing table is an I/O error (exit 2), so exit 1 shows the checkpoint failed first
    assert main(["run", "--ckpt", str(ckpt), "--table", str(tmp_path / "absent.lttc"),
                 "--data", str(workspace / "data"), "--mode", "zero-shot",
                 "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint {ckpt}: ") and err.count("\n") == 1
    assert repr(name) in err


HALVES = [0.5, 0.5, 0.5]
NORMALIZATIONS = {
    "zero-std": ({"mean": HALVES, "std": [0.2, 0.0, 0.2]}, "std"),
    "nan-mean": ({"mean": [0.5, float("nan"), 0.5], "std": HALVES}, "mean"),
    "short-mean": ({"mean": [0.5, 0.5], "std": HALVES}, "mean"),
    "std-zero-as-float32": ({"mean": HALVES, "std": [1e-50, 0.2, 0.2]}, "std"),
    "not-an-object": ([0.5, 0.2], "mean"),
}


@pytest.mark.parametrize("case", list(NORMALIZATIONS))
def test_pretrain_rejects_bad_manifest_normalization(workspace, tmp_path, capsys, case):
    norm, key = NORMALIZATIONS[case]
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["normalization"] = norm
    (data / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "model.lttw"
    assert main(["pretrain", "--data", str(data), "--config", str(workspace / "model.json"),
                 "--epochs", "1", "--out", str(out)]) == 1
    assert_one_error(capsys, f"manifest normalization.{key} must hold 3 finite numbers")
    assert not out.exists()


DROP = object()
# (where, value, needle): see edit_json
MANIFESTS = {
    "item-is-a-number": (("items", 5), 7, "manifest item 5 must be an object, got 7"),
    "items-is-an-object": (("items",), {"a": {}}, "manifest items must be a list, got dict"),
    "label-is-a-string": (("items", 5, "label"), "1", "manifest item 5 'label' must be int"),
    "label-is-a-bool": (("items", 5, "label"), True, "manifest item 5 'label' must be int"),
    "id-is-a-number": (("items", 5, "id"), 5, "manifest item 5 'id' must be str"),
    "path-missing": (("items", 5, "path"), DROP, "manifest item 5 'path' must be str, got None"),
    "split-missing": (("items", 5, "split"), DROP,
                      "manifest item 5 'split' must be str, got None"),
    "class-names-missing": (("class_names",), DROP, "manifest class_names must be a list"),
    "one-class": (("class_names",), ["red circle"],
                  "manifest class_names must be a list of >= 2 strings"),
    "class-name-not-a-string": (("class_names", 1), 3,
                                "manifest class_names must be a list of >= 2 strings"),
    "not-an-object": ((), "[]", "manifest must hold a JSON object"),
    "not-json": ((), "{", "Expecting property name"),
}


def edit_json(path, where, value):
    """Set `value` at key path `where` of the JSON file, or delete that key
    when `value` is DROP; with no path, `value` is the file's new text."""
    if not where:
        path.write_text(value)
        return
    obj = root = json.loads(path.read_text())
    *keys, last = where
    for key in keys:
        obj = obj[key]
    if value is DROP:
        del obj[last]
    else:
        obj[last] = value
    path.write_text(json.dumps(root))


@pytest.mark.parametrize("command", ["pretrain", "run"])
@pytest.mark.parametrize("case", list(MANIFESTS))
def test_commands_reject_manifest_of_bad_structure(workspace, tmp_path, capsys, case, command):
    where, value, needle = MANIFESTS[case]
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    edit_json(data / "manifest.json", where, value)
    out = tmp_path / "out"
    if command == "pretrain":
        argv = ["pretrain", "--config", str(workspace / "model.json"), "--epochs", "1"]
    else:
        argv = ["run", "--ckpt", str(workspace / "model.lttw"), "--mode", "zero-shot",
                "--table", str(workspace / "table.lttc")]
    assert main([*argv, "--data", str(data), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data / 'manifest.json'}: ") and err.count("\n") == 1
    assert needle in err
    assert not out.exists()


@pytest.mark.parametrize("caption", [None, 5])
def test_pretrain_names_the_item_without_a_caption_and_run_needs_none(workspace, tmp_path,
                                                                       capsys, caption):
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    manifest = json.loads((data / "manifest.json").read_text())
    for it in manifest["items"]:
        if caption is None:
            del it["caption"]
        else:
            it["caption"] = caption
    (data / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "model.lttw"
    assert main(["pretrain", "--data", str(data), "--config", str(workspace / "model.json"),
                 "--epochs", "1", "--out", str(out)]) == 1
    assert_one_error(capsys, f"item {manifest['items'][0]['id']!r} has no string caption")
    assert not out.exists()
    assert main(["run", "--ckpt", str(workspace / "model.lttw"),
                 "--table", str(workspace / "table.lttc"), "--data", str(data),
                 "--mode", "zero-shot", "--out", str(tmp_path / "run")]) == 0


# 1e300 is finite in a float64 file but not once cast to the model's float32
@pytest.mark.parametrize("bad,dtype", [(float("nan"), np.float32), (float("inf"), np.float32),
                                       (-float("inf"), np.float32), (1e300, np.float64)])
def test_run_rejects_non_finite_adapters(workspace, tmp_path, capsys, bad, dtype):
    (tmp_path / "lora.json").write_text(json.dumps({"rank": 2, "scale": 2.0}))
    adapters = tmp_path / "adapters.lttw"
    assert main(["lora-pretrain", "--ckpt", str(workspace / "model.lttw"),
                 "--data", str(workspace / "data"), "--lora", str(tmp_path / "lora.json"),
                 "--out", str(adapters)]) == 0
    run = ["run", "--ckpt", str(workspace / "model.lttw"), "--table", str(workspace / "table.lttc"),
           "--data", str(workspace / "data"), "--mode", "lora-ttt",
           "--config", str(workspace / "ttt.json"), "--adapters", str(adapters)]
    assert main([*run, "--out", str(tmp_path / "clean")]) == 0
    capsys.readouterr()
    arrays = read_checkpoint(adapters)
    name = "img.layers.1.attn.wv.lora_b"
    arrays[name] = arrays[name].astype(dtype)
    arrays[name][3, 1] = bad
    write_checkpoint(adapters, arrays)
    out = tmp_path / "run"
    assert main([*run, "--out", str(out)]) == 1
    assert_one_error(capsys, f"adapter {name!r} in {adapters} holds a non-finite value")
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_run_rejects_a_model_checkpoint_with_a_non_finite_weight(workspace, tmp_path, capsys,
                                                                 bad):
    ckpt = tmp_path / "model.lttw"
    arrays = read_checkpoint(workspace / "model.lttw")
    name = "img.layers.1.attn.wq"
    arrays[name][0, 0] = bad
    write_checkpoint(ckpt, arrays)
    out = tmp_path / "run"
    assert main(["run", "--ckpt", str(ckpt), "--table", str(workspace / "table.lttc"),
                 "--data", str(workspace / "data"), "--mode", "zero-shot",
                 "--out", str(out)]) == 1
    assert_one_error(capsys, f"checkpoint {ckpt}: weight {name!r} holds a non-finite value")
    assert not (out / "report.json").exists()


def test_console_entry_point(workspace):
    proc = subprocess.run(
        [sys.executable, "-m", "ltt.cli", "report",
         "--runs", str(workspace / "run_zs")],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(PKG), "PATH": "/usr/bin:/bin:/usr/local/bin"})
    assert proc.returncode == 0
    assert proc.stdout.startswith("mode,")
