import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ltt.data import (DEFAULT_SHIFTS, DatasetManifest, SyntheticShiftSpec,
                      apply_shift, class_definitions, generate, load_pairs,
                      load_split, render_instance, vocabulary_words)
from ltt.serial import config_from_json, read_tensor, write_tensor


def small_spec(**kw):
    base = dict(num_classes=10, train_per_class=4, test_per_class=2, seed=3)
    base.update(kw)
    return SyntheticShiftSpec(**base)


def test_class_definitions_distinct_and_shared_attributes():
    defs = class_definitions(10)
    assert len(set(defs)) == 10
    shapes = [s for _, s in defs]
    colors = [c for c, _ in defs]
    # shapes and colors both repeat, so neither alone separates the classes
    assert len(set(shapes)) < 10
    assert len(set(colors)) < 10


def test_generate_counts_and_classes(tmp_path):
    spec = small_spec()
    manifest = generate(spec, tmp_path)
    train = manifest.items_for_split("train")
    test = manifest.items_for_split("test")
    assert len(train) == 40
    assert len(test) == 20
    assert {it["label"] for it in test} == set(range(10))
    for kind in DEFAULT_SHIFTS:
        assert len(manifest.items_for_split(f"test_{kind}")) == 20
    assert all(it["caption"].startswith("a photo of a ") for it in train)


def test_generate_deterministic(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    generate(small_spec(), a_dir)
    generate(small_spec(), b_dir)
    man_a = (a_dir / "manifest.json").read_bytes()
    man_b = (b_dir / "manifest.json").read_bytes()
    assert man_a == man_b
    for rel in sorted(p.relative_to(a_dir) for p in (a_dir / "tensors").iterdir()):
        assert (a_dir / rel).read_bytes() == (b_dir / rel).read_bytes()


def test_all_tensors_validate(tmp_path):
    generate(small_spec(num_classes=4), tmp_path)
    files = list((tmp_path / "tensors").iterdir())
    assert files
    for f in files:
        assert read_tensor(f).shape == (3, 32, 32)


def test_manifest_round_trip_bytes(tmp_path):
    generate(small_spec(num_classes=3), tmp_path)
    first = (tmp_path / "manifest.json").read_bytes()
    man = DatasetManifest.load(tmp_path / "manifest.json")
    man.save(tmp_path / "manifest2.json")
    assert (tmp_path / "manifest2.json").read_bytes() == first


def test_identity_shift():
    rng = np.random.default_rng(1)
    img = render_instance("red", "circle", 32, rng)
    assert np.array_equal(apply_shift(img, "none", 3, np.random.default_rng(0)), img)
    assert np.array_equal(apply_shift(img, "blur", 0, np.random.default_rng(0)), img)


@pytest.mark.parametrize("kind", DEFAULT_SHIFTS)
def test_shifts_change_pixels_but_stay_valid(kind):
    img = render_instance("blue", "square", 32, np.random.default_rng(2))
    out = apply_shift(img, kind, 3, np.random.default_rng(3))
    assert out.shape == img.shape
    assert out.dtype == np.float32
    assert not np.array_equal(out, img)
    assert out.min() >= 0.0 and out.max() <= 1.0
    again = apply_shift(img, kind, 3, np.random.default_rng(3))
    assert np.array_equal(out, again)


def test_shift_severity_scales_distortion():
    img = render_instance("green", "triangle", 32, np.random.default_rng(4))
    deltas = []
    for sev in (1, 3, 5):
        out = apply_shift(img, "gaussian_noise", sev, np.random.default_rng(5))
        deltas.append(float(np.abs(out - img).mean()))
    assert deltas[0] < deltas[1] < deltas[2]


def test_vocabulary_covers_captions_and_templates(tmp_path):
    manifest = generate(small_spec(num_classes=6), tmp_path)
    words = set(vocabulary_words(manifest.class_names))
    for it in manifest.items:
        assert set(it["caption"].split()) <= words
    assert {"sketch", "photo", "a", "of"} <= words


def test_load_split_and_pairs(tmp_path):
    generate(small_spec(num_classes=4), tmp_path)
    items = load_split(tmp_path, "test")
    assert len(items) == 8
    assert items[0].image.shape == (3, 32, 32)
    assert items[0].image.dtype == np.float32
    pairs = load_pairs(tmp_path)
    assert len(pairs) == 16
    with pytest.raises(ValueError, match="no items"):
        load_split(tmp_path, "missing_split")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_load_rejects_non_finite_images(tmp_path, bad):
    manifest = generate(small_spec(num_classes=2), tmp_path)
    for split, load in (("test", lambda d: load_split(d, "test")), ("train", load_pairs)):
        item = manifest.items_for_split(split)[1]
        img = read_tensor(tmp_path / item["path"])
        img[0, 3, 4] = bad
        write_tensor(tmp_path / item["path"], img)
        with pytest.raises(ValueError, match=item["id"]):
            load(tmp_path)


def test_spec_validation():
    with pytest.raises(ValueError, match="K >= 2"):
        SyntheticShiftSpec(num_classes=1)
    with pytest.raises(ValueError, match="shift kind"):
        SyntheticShiftSpec(shift_kinds=("fog",))
    with pytest.raises(ValueError, match="severity"):
        SyntheticShiftSpec(severity=9)
    for field, value in (("train_per_class", 0), ("test_per_class", -1), ("image_size", 0)):
        with pytest.raises(ValueError, match=f"{field} must be > 0, got {value}"):
            config_from_json(SyntheticShiftSpec, {field: value})
    spec = config_from_json(SyntheticShiftSpec, {"num_classes": 4, "severity": 2,
                                                 "shift_kinds": ["blur"]})
    assert spec.shift_kinds == ("blur",)
    obj = json.loads(json.dumps(dataclasses.asdict(spec)))
    assert config_from_json(SyntheticShiftSpec, obj) == spec


def test_manifest_validation_catches_duplicates():
    man = DatasetManifest(["a b", "c d"], {"mean": [0] * 3, "std": [1] * 3},
                          [{"id": "x", "path": "p", "label": 0, "caption": "", "split": "t"},
                           {"id": "x", "path": "q", "label": 0, "caption": "", "split": "t"}])
    with pytest.raises(ValueError, match="duplicate"):
        man.validate()
    man2 = DatasetManifest(["a b", "c d"], {"mean": [0] * 3, "std": [1] * 3},
                           [{"id": "x", "path": "p", "label": 5, "caption": "", "split": "t"}])
    with pytest.raises(ValueError, match="label"):
        man2.validate()


def test_importing_data_loads_no_episode_module():
    # a fresh interpreter: the package's own __init__ must not pull the episode stack in
    code = "import sys, ltt.data; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")})
    loaded = set(proc.stdout.split())
    assert "ltt.data" in loaded
    assert not {"ltt.ttt", "ltt.lora", "ltt.optim"} & loaded
