import shutil
import tracemalloc

import numpy as np
import pytest

import ltt.pretrain
from ltt.data import SyntheticShiftSpec, generate, load_split
from ltt.encoder import ClipModel, TextFeatureTable, VitConfig
from ltt.pretrain import embed_text, pretrain
from ltt.serial import write_tensor
from ltt.ttt import TttConfig, run_stream


@pytest.fixture(scope="module")
def mini_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("mini_data")
    spec = SyntheticShiftSpec(num_classes=4, train_per_class=16, test_per_class=4,
                              shift_kinds=("gaussian_noise",), seed=5)
    manifest = generate(spec, out)
    return out, manifest


def test_pretrain_smoke_and_save(mini_data, tmp_path):
    data_dir, manifest = mini_data
    vit = VitConfig(embed_dim=32, num_layers=2, num_heads=4, mlp_ratio=2.0, out_dim=32)
    model, losses = pretrain(data_dir, vit, epochs=3, seed=1, batch_size=16)
    assert losses, "no training steps ran"
    assert np.mean(losses[-4:]) < np.mean(losses[:4])
    assert all(np.isfinite(l) for l in losses)
    assert 1.0 / model.tau <= 100.0 + 1e-5

    path = tmp_path / "mini.lttw"
    model.save(path)
    back = ClipModel.load(path)
    assert np.array_equal(back.norm_mean, model.norm_mean)
    # frozen after training
    assert not any(t.requires_grad or t.grad is not None for t in model.params.values())
    assert not any(t.requires_grad for t in back.params.values())
    table = embed_text(path, manifest.class_names, ["a photo of a {class}"],
                       tmp_path / "mini.lttc")
    items = load_split(data_dir, "test")
    acc = run_stream(items, back, table, TttConfig(mode="zero_shot")).top1
    assert 0.0 <= acc <= 1.0


def test_pretrain_crops_each_batch_in_one_call_before_its_forward(mini_data, monkeypatch):
    # perfbench's pretrain workload opens a unit of work at this crop call
    events = []
    crop, encode = ltt.pretrain.random_resized_crop, ClipModel.encode_image_batch

    def counted_crop(imgs, *args):
        events.append(("crop", len(imgs)))
        return crop(imgs, *args)

    def counted_encode(self, images, *args, **kwargs):
        events.append(("encode", len(images)))
        return encode(self, images, *args, **kwargs)

    monkeypatch.setattr(ltt.pretrain, "random_resized_crop", counted_crop)
    monkeypatch.setattr(ClipModel, "encode_image_batch", counted_encode)
    vit = VitConfig(embed_dim=32, num_layers=2, num_heads=4, mlp_ratio=2.0, out_dim=32)
    _, losses = pretrain(mini_data[0], vit, epochs=2, seed=4, batch_size=16)
    assert len(losses) == 8
    assert events == [("crop", 16), ("encode", 16)] * 8


def test_pretrain_batch_larger_than_dataset(mini_data):
    data_dir, _ = mini_data
    with pytest.raises(ValueError, match="batch size"):
        pretrain(data_dir, VitConfig(embed_dim=32, num_layers=2, out_dim=32),
                 epochs=1, batch_size=10_000)


def test_pretrain_rejects_training_images_of_two_sizes(mini_data, tmp_path):
    data_dir, manifest = mini_data
    shutil.copytree(data_dir, tmp_path / "data")
    item = next(it for it in manifest.items if it["split"] == "train")
    write_tensor(tmp_path / "data" / item["path"], np.zeros((3, 48, 48), dtype=np.float32))
    with pytest.raises(ValueError, match="differ in size"):
        pretrain(tmp_path / "data", VitConfig(embed_dim=32, num_layers=2, out_dim=32), epochs=1)


def test_embed_text_deterministic(mini_data, tmp_path):
    data_dir, manifest = mini_data
    vit = VitConfig(embed_dim=32, num_layers=2, num_heads=4, mlp_ratio=2.0, out_dim=32)
    model, _ = pretrain(data_dir, vit, epochs=1, seed=2, batch_size=16)
    path = tmp_path / "m.lttw"
    model.save(path)
    embed_text(path, manifest.class_names, ["a photo of a {class}"], tmp_path / "a.lttc")
    embed_text(path, manifest.class_names, ["a photo of a {class}"], tmp_path / "b.lttc")
    assert (tmp_path / "a.lttc").read_bytes() == (tmp_path / "b.lttc").read_bytes()
    table = TextFeatureTable.load(tmp_path / "a.lttc")
    assert np.allclose(np.linalg.norm(table.features, axis=1), 1.0, atol=1e-5)


def test_embed_text_rejects_oov(mini_data, tmp_path):
    data_dir, manifest = mini_data
    vit = VitConfig(embed_dim=32, num_layers=2, num_heads=4, mlp_ratio=2.0, out_dim=32)
    model, _ = pretrain(data_dir, vit, epochs=1, seed=3, batch_size=16)
    path = tmp_path / "m.lttw"
    model.save(path)
    with pytest.raises(ValueError, match="unknown token"):
        embed_text(path, ["flying saucer"], ["a photo of a {class}"],
                   tmp_path / "x.lttc")


def test_a_default_pretraining_batch_allocates_at_most_30_mb(mini_data, monkeypatch):
    # traced from the batch's crop to its logit-scale clamp, as perfbench's unit;
    # 41.8 MB while every recorded tensor kept its parents' arrays until backward
    peaks = []
    crop, clamp = ltt.pretrain.random_resized_crop, ClipModel.clamp_logit_scale

    def traced_crop(*args):
        tracemalloc.start()
        return crop(*args)

    def traced_clamp(self):
        clamp(self)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()

    monkeypatch.setattr(ltt.pretrain, "random_resized_crop", traced_crop)
    monkeypatch.setattr(ClipModel, "clamp_logit_scale", traced_clamp)
    try:
        _, losses = pretrain(mini_data[0], VitConfig(), epochs=1, seed=0, batch_size=64)
    finally:
        tracemalloc.stop()
    assert len(losses) == len(peaks) == 1
    assert peaks[0] <= 30e6, peaks
