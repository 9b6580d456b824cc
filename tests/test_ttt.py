import dataclasses
import json

import numpy as np
import pytest

from ltt import tensor as T
from ltt import ttt
from ltt.data import Instance
from ltt.encoder import build_text_table, classify_batch
from ltt.lora import AdaptedEncoder, LoraConfig, base_weight_hash
from ltt.pretrain import lora_pretrain
from ltt.serial import config_from_json
from ltt.tensor import Tape, Tensor, backward, no_grad
from ltt.ttt import (EpisodeResult, TttConfig,
                     build_encoder_for_mode, entropy_np, episode_rng,
                     mae_loss, mem_loss, run_episode, run_stream, select_confident,
                     total_loss)
from ltt.views import make_views, normalize, sample_mask

from conftest import build_tiny_model
from helpers import keep_rows

CLASSES = ["red circle", "blue square", "green triangle"]


@pytest.fixture
def setup():
    model = build_tiny_model(seed=3)
    table = build_text_table(model, CLASSES, ["a photo of a {class}"])
    rng = np.random.default_rng(40)
    items = [Instance(f"inst_{i:03d}",
                      rng.uniform(0, 1, size=(3, 32, 32)).astype(np.float32),
                      label=i % 3)
             for i in range(10)]
    return model, table, items


def small_cfg(**kw):
    base = dict(mode="lora_ttt", num_views=16, cutoff=0.25, steps=1,
                lora=LoraConfig(rank=2, scale=2.0), seed=7)
    base.update(kw)
    return TttConfig(**base)


def result_key(ep: EpisodeResult) -> dict:
    d = dataclasses.asdict(ep)
    d.pop("wall_ms")
    return d


# ---------------------------------------------------------------------------
# selection


def test_select_counts():
    probs = np.full((64, 4), 0.25)
    assert select_confident(probs, 0.1) == [0, 1, 2, 3, 4, 5]  # floor(6.4), tie-break
    assert select_confident(probs, 1.0) == list(range(64))


def test_select_orders_by_entropy():
    probs = np.array([[0.25, 0.75], [0.5, 0.5], [0.99, 0.01], [0.6, 0.4]])
    assert select_confident(probs, 0.5) == [2, 0]


def test_select_matches_full_sort_oracle():
    rng = np.random.default_rng(50)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        k_classes = int(rng.integers(2, 6))
        raw = rng.uniform(0.01, 1, size=(n, k_classes))
        probs = raw / raw.sum(axis=1, keepdims=True)
        rho = float(rng.uniform(0.05, 1.0))
        got = select_confident(probs, rho)
        ents = [entropy_np(row) for row in probs]
        oracle = sorted(range(n), key=lambda i: (ents[i], i))
        k = max(1, int(np.floor(rho * n)))
        assert got == oracle[:k]


# ---------------------------------------------------------------------------
# losses


def test_mem_loss_one_hot_is_zero():
    probs = Tensor(np.array([[1.0, 0.0, 0.0]]))
    assert mem_loss(probs).item() == 0.0


def test_mem_loss_uniform_is_log_k():
    probs = Tensor(np.full((3, 4), 0.25))
    assert mem_loss(probs).item() == pytest.approx(np.log(4), abs=1e-12)


def test_mem_loss_hand_value():
    probs = Tensor(np.array([[0.6, 0.4], [0.2, 0.8]]))
    # mean row [0.4, 0.6]
    expected = -(0.4 * np.log(0.4) + 0.6 * np.log(0.6))
    assert mem_loss(probs).item() == pytest.approx(expected, abs=1e-12)
    assert mem_loss(probs).item() == pytest.approx(0.67301, abs=1e-5)


def test_mem_loss_matches_direct_entropy():
    rng = np.random.default_rng(51)
    for _ in range(200):
        raw = rng.uniform(0.001, 1, size=(6, 5))
        probs = raw / raw.sum(axis=1, keepdims=True)
        val = mem_loss(Tensor(probs)).item()
        assert abs(val - entropy_np(probs.mean(axis=0))) < 1e-12


def test_mem_loss_empty_selection():
    with pytest.raises(ValueError, match="empty"):
        mem_loss(Tensor(np.zeros((0, 3))))


def test_total_loss_values():
    for l_mem, l_mae, lam1, lam2, want in [(0.5, 0.01, 1.0, 16.0, 0.66),
                                           (0.5, 0.99, 1.0, 0.0, 0.5),
                                           (0.7, 0.01, 0.0, 16.0, 0.16)]:
        out = total_loss(Tensor(np.asarray(l_mem)), Tensor(np.asarray(l_mae)), lam1, lam2)
        assert out.dtype == np.float64 and out.shape == ()
        assert out.item() == pytest.approx(want, abs=1e-12)


def test_mae_loss_zero_ratio_is_zero(setup):
    model, _, items = setup
    adapted = AdaptedEncoder(model, LoraConfig(rank=2), np.random.default_rng(0))
    views = np.stack([normalize(items[0].image, model.norm_mean, model.norm_std)])
    loss = mae_loss(adapted, views, 0.0, "class_token", np.random.default_rng(1))
    assert loss.item() == pytest.approx(0.0, abs=1e-7)
    loss_v = mae_loss(adapted, views, 0.0, "visual_tokens", np.random.default_rng(1))
    assert loss_v.item() == pytest.approx(0.0, abs=1e-7)


def test_mae_loss_mse_hand_value():
    # embeddings c and c + e1 in 64 dims differ by MSE 1/64
    c = np.random.default_rng(2).normal(size=64)
    d = c.copy()
    d[0] += 1.0
    assert T.mse(Tensor(c), Tensor(d)).item() == pytest.approx(1 / 64, abs=1e-12)


def test_mae_loss_deterministic_given_seed(setup):
    model, _, items = setup
    adapted = AdaptedEncoder(model, LoraConfig(rank=2), np.random.default_rng(0))
    views = np.stack([normalize(it.image, model.norm_mean, model.norm_std)
                      for it in items[:3]])
    a = mae_loss(adapted, views, 0.5, "class_token", np.random.default_rng(9)).item()
    b = mae_loss(adapted, views, 0.5, "class_token", np.random.default_rng(9)).item()
    assert a == b
    c = mae_loss(adapted, views, 0.5, "visual_tokens", np.random.default_rng(9)).item()
    d = mae_loss(adapted, views, 0.5, "visual_tokens", np.random.default_rng(9)).item()
    assert c == d


def nonzero_adapters(model):
    adapted = AdaptedEncoder(model, LoraConfig(rank=2), np.random.default_rng(0))
    rng = np.random.default_rng(1)
    for ad in adapted.adapters.values():
        ad.b.data = rng.normal(0, 0.1, ad.b.data.shape).astype(np.float32)
    return adapted


def test_mae_loss_draws_one_mask_per_view(setup):
    model, _, items = setup
    views = np.stack([normalize(it.image, model.norm_mean, model.norm_std)
                      for it in items[:3]])
    rng, ref = np.random.default_rng(9), np.random.default_rng(9)
    mae_loss(nonzero_adapters(model), views, 0.5, "class_token", rng)
    for _ in range(3):
        sample_mask(model.vit.num_patches, 0.5, ref)
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("target", ["class_token", "visual_tokens"])
def test_mae_loss_is_mean_of_per_view_mses(setup, target):
    model, _, items = setup
    adapted = nonzero_adapters(model)
    views = np.stack([normalize(it.image, model.norm_mean, model.norm_std)
                      for it in items[:4]])
    loss = mae_loss(adapted, views, 0.5, target, np.random.default_rng(9)).item()
    rng = np.random.default_rng(9)
    p_total = model.vit.num_patches
    cls_u, tok_u = adapted.encode_image_batch(views)
    terms = []
    for j in range(len(views)):
        masked = sample_mask(p_total, 0.5, rng)
        cls_m, tok_m = adapted.encode_image_batch(views[j][None],
                                                  keep=keep_rows(p_total, [masked]))
        if target == "class_token":
            diff = cls_m.data[0] - cls_u.data[j]
        else:
            diff = tok_m.data[0] - tok_u.data[j][np.setdiff1d(np.arange(p_total), masked)]
        terms.append(np.mean(diff.astype(np.float64) ** 2))
    assert loss == pytest.approx(np.mean(terms), rel=1e-6)


@pytest.mark.parametrize("target", ["class_token", "visual_tokens"])
def test_mae_loss_stops_the_gradient_at_a_handed_in_target(setup, target):
    model, _, items = setup
    adapted = nonzero_adapters(model)
    views = np.stack([normalize(it.image, model.norm_mean, model.norm_std)
                      for it in items[:3]])
    with Tape():
        cls, tok = (Tensor(t.data.copy(), requires_grad=True)
                    for t in adapted.encode_image_batch(views))
        backward(mae_loss(adapted, views, 0.5, target, np.random.default_rng(9),
                          unmasked=(cls, tok)))
    assert cls.grad is None and tok.grad is None
    assert any(np.any(t.grad != 0) for t in adapted.trainables.values() if t.grad is not None)


def test_mae_loss_empty_selection(setup):
    model, _, _ = setup
    adapted = AdaptedEncoder(model, LoraConfig(rank=2), np.random.default_rng(0))
    with pytest.raises(ValueError, match="empty"):
        mae_loss(adapted, np.zeros((0, 3, 32, 32), np.float32), 0.5, "class_token",
                 np.random.default_rng(0))


# ---------------------------------------------------------------------------
# episodes


def zero_shot_prediction(model, table, image):
    view0 = normalize(image, model.norm_mean, model.norm_std)
    with no_grad():
        cls, _ = model.encode_image_batch(view0[None])
        probs = classify_batch(cls, table, model.tau).data[0]
    return int(np.argmax(probs)), probs


def test_zero_weights_episode_equals_zero_shot(setup):
    model, table, items = setup
    cfg = small_cfg(lam_mem=0.0, lam_mae=0.0)
    encoder = build_encoder_for_mode(model, cfg)
    ep = run_episode(items[0], encoder, table, cfg, episode_rng(cfg.seed, items[0].id))
    pred, probs = zero_shot_prediction(model, table, items[0].image)
    assert ep.predicted == pred
    assert np.array_equal(np.asarray(ep.probs, dtype=np.float32), probs)


def test_zero_lr_episode_equals_zero_shot(setup):
    model, table, items = setup
    cfg = small_cfg(lr=0.0, wd=0.0)
    encoder = build_encoder_for_mode(model, cfg)
    ep = run_episode(items[0], encoder, table, cfg, episode_rng(cfg.seed, items[0].id))
    pred, _ = zero_shot_prediction(model, table, items[0].image)
    assert ep.predicted == pred


def test_episode_bit_identical_across_reruns_and_positions(setup):
    model, table, items = setup
    cfg = small_cfg()
    encoder = build_encoder_for_mode(model, cfg)
    target = items[4]
    solo = run_episode(target, encoder, table, cfg, episode_rng(cfg.seed, target.id))
    # replay after a different episode has used the same encoder
    run_episode(items[0], encoder, table, cfg, episode_rng(cfg.seed, items[0].id))
    replay = run_episode(target, encoder, table, cfg, episode_rng(cfg.seed, target.id))
    assert result_key(solo) == result_key(replay)


def test_adapters_update_then_reset(setup):
    model, table, items = setup
    cfg = small_cfg()
    encoder = build_encoder_for_mode(model, cfg)
    before = base_weight_hash(model)
    zs_before, _ = zero_shot_prediction(model, table, items[1].image)
    ep = run_episode(items[1], encoder, table, cfg, episode_rng(cfg.seed, items[1].id))
    assert ep.mem_loss is not None and ep.total_loss is not None
    # after the episode the adapters are back to identity
    zs_after, probs_after = zero_shot_prediction(model, table, items[1].image)
    view0 = normalize(items[1].image, model.norm_mean, model.norm_std)[None]
    adapted_cls, _ = encoder.encode_image_batch(view0)
    base_cls, _ = model.encode_image_batch(view0)
    assert np.array_equal(adapted_cls.data, base_cls.data)
    assert zs_before == zs_after
    assert base_weight_hash(model) == before


def test_episode_b_becomes_nonzero_during_step(setup):
    model, table, items = setup
    cfg = small_cfg()
    encoder = build_encoder_for_mode(model, cfg)
    rng = episode_rng(cfg.seed, items[2].id)
    encoder.reset(rng)
    # drive one manual step to observe B after the update
    from ltt.optim import AdamW
    from ltt.tensor import Tape, backward
    from ltt.views import make_views
    views = make_views(items[2].image, cfg.num_views, rng, model.norm_mean,
                       model.norm_std, 32)
    opt = AdamW(encoder.trainables, cfg.lr, cfg.wd)
    opt.zero_grad()
    with Tape():
        cls_all, _ = encoder.encode_image_batch(views)
        probs_t = classify_batch(cls_all, table, model.tau)
        sel = select_confident(probs_t.data, cfg.cutoff)
        loss = mem_loss(T.index_select(probs_t, sel, axis=0))
        backward(loss)
    opt.step()
    assert any(np.any(ad.b.data != 0) for ad in encoder.adapters.values())


@pytest.mark.parametrize("mode", ["lora_ttt", "lora_ttt_m", "lora_ttt_a", "full_tune"])
def test_all_adapt_modes_run_and_reset(setup, mode):
    model, table, items = setup
    cfg = small_cfg(mode=mode)
    before = base_weight_hash(model)
    encoder = build_encoder_for_mode(model, cfg)
    assert not any(t.requires_grad or t.grad is not None for t in model.params.values())
    ep = run_episode(items[3], encoder, table, cfg, episode_rng(cfg.seed, items[3].id))
    assert not any(t.requires_grad or t.grad is not None for t in model.params.values())
    assert 0 <= ep.predicted < 3
    assert len(ep.selected) == max(1, int(0.25 * 16))
    if mode == "lora_ttt_m":
        assert ep.mae_loss is None
    if mode == "lora_ttt_a":
        assert ep.mem_loss is None
        # loss-branch forwards touch only the selected views
        assert ep.recorded_full_views == len(ep.selected)
    assert base_weight_hash(model) == before


def test_tape_nodes_do_not_grow_with_selected_views(setup):
    model, table, items = setup
    nodes = []
    for cutoff in (2 / 16, 6 / 16):  # k = 2 and k = 6 of 16 views
        cfg = small_cfg(cutoff=cutoff)
        encoder = build_encoder_for_mode(model, cfg)
        ep = run_episode(items[3], encoder, table, cfg, episode_rng(cfg.seed, items[3].id))
        assert ep.recorded_masked_views == len(ep.selected)
        nodes.append(ep.peak_tape_nodes)
    assert nodes[0] == nodes[1]


def post_step_b(model, table, item, cfg):
    """The adapters' B matrices after the step, read at the closing reset."""
    encoder = build_encoder_for_mode(model, cfg)
    seen = []
    reset = encoder.reset

    def spy(rng=None):
        seen.append([ad.b.data.copy() for ad in encoder.adapters.values()])
        reset(rng)

    encoder.reset = spy
    run_episode(item, encoder, table, cfg, episode_rng(cfg.seed, item.id))
    return seen[-1]


def test_combined_path_detaches_target(setup, monkeypatch):
    model, table, items = setup
    default = post_step_b(model, table, items[4], small_cfg())
    assert any(np.any(b != 0) for b in default)

    def tracked_mae_loss(*args, **kw):  # no target handed in: mae_loss encodes its own
        return mae_loss(*args, **{**kw, "unmasked": None})

    monkeypatch.setattr(ttt, "mae_loss", tracked_mae_loss)
    tracked = post_step_b(model, table, items[4], small_cfg())
    assert not all(np.array_equal(x, y) for x, y in zip(default, tracked))


def test_lora_ttt_a_keeps_target_on_tape(setup, monkeypatch):
    model, table, items = setup
    cfg = small_cfg(mode="lora_ttt_a")
    default = post_step_b(model, table, items[4], cfg)
    assert any(np.any(b != 0) for b in default)

    def detached_mae_loss(encoder, views, *args, **kw):  # hand in the views' own encodings
        return mae_loss(encoder, views, *args,
                        **{**kw, "unmasked": encoder.encode_image_batch(views)})

    monkeypatch.setattr(ttt, "mae_loss", detached_mae_loss)
    detached = post_step_b(model, table, items[4], cfg)
    assert not all(np.array_equal(x, y) for x, y in zip(default, detached))


@pytest.mark.parametrize("target", ["class_token", "visual_tokens"])
@pytest.mark.parametrize("mode, handed", [("lora_ttt", True), ("full_tune", True),
                                          ("lora_ttt_a", False)])
def test_run_episode_hands_mae_loss_the_tracked_rows_as_target(setup, monkeypatch, mode,
                                                               handed, target):
    model, table, items = setup
    seen = []

    def spy(*args, **kw):
        seen.append(kw["unmasked"])
        return mae_loss(*args, **kw)

    monkeypatch.setattr(ttt, "mae_loss", spy)
    cfg = small_cfg(mode=mode, recon_target=target)
    run_episode(items[4], build_encoder_for_mode(model, cfg), table, cfg,
                episode_rng(cfg.seed, items[4].id))
    assert len(seen) == 1 and (seen[0] is not None) == handed
    if handed:
        cls, tok = seen[0]
        assert cls.shape[0] == max(1, int(cfg.cutoff * cfg.num_views))
        assert (tok is None) == (target == "class_token")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the step overflows
def test_diverged_episode_raises_naming_the_instance_and_resets(setup):
    model, table, items = setup
    cfg = small_cfg(lr=1e30)
    encoder = build_encoder_for_mode(model, cfg)
    with pytest.raises(ValueError, match=f"{items[0].id}.*non-finite"):
        run_episode(items[0], encoder, table, cfg, episode_rng(cfg.seed, items[0].id))
    assert all(np.all(ad.b.data == 0) for ad in encoder.adapters.values())


def test_visual_tokens_target_episode(setup):
    model, table, items = setup
    cfg = small_cfg(recon_target="visual_tokens")
    encoder = build_encoder_for_mode(model, cfg)
    ep = run_episode(items[6], encoder, table, cfg, episode_rng(cfg.seed, items[6].id))
    assert ep.mae_loss is not None and np.isfinite(ep.mae_loss)


def test_full_tune_has_more_trainables_than_lora(setup):
    model, _, _ = setup
    cfg = small_cfg(mode="full_tune")
    ft = build_encoder_for_mode(model, cfg)
    lora_enc = build_encoder_for_mode(model, small_cfg(
        lora=LoraConfig(rank=2, layers=(1, 2))))
    assert ft.trainable_count() > lora_enc.trainable_count()


def test_full_tune_trainable_count():
    ft = build_encoder_for_mode(build_tiny_model(embed_dim=64, num_layers=4),
                                TttConfig(mode="full_tune"))
    # the last two layers' 4 attention matrices of 64x64 plus their biases
    assert ft.trainable_count() == 8 * 64 * 64 + 8 * 64


def test_zero_shot_resizes_view0_like_adapting_modes(setup):
    model, table, _ = setup
    image = np.random.default_rng(41).uniform(0, 1, size=(3, 48, 48)).astype(np.float32)
    item = Instance("big", image, label=0)
    cfg = TttConfig(mode="zero_shot")
    ep = run_episode(item, build_encoder_for_mode(model, cfg), table, cfg, episode_rng(0, item.id))
    view0 = make_views(image, 1, np.random.default_rng(0), model.norm_mean, model.norm_std,
                       model.vit.image_size)
    with no_grad():
        probs = classify_batch(model.encode_image_batch(view0)[0], table, model.tau).data[0]
    assert np.array_equal(np.asarray(ep.probs, dtype=np.float32), probs)


@pytest.mark.parametrize("steps", [1, 2])
@pytest.mark.parametrize("mode", ["lora_ttt", "lora_ttt_m", "lora_ttt_a", "full_tune"])
def test_episode_at_zero_lr_predicts_as_the_zero_step_episode(setup, mode, steps):
    model, table, items = setup
    item = items[5]

    def episode(cfg):
        encoder = build_encoder_for_mode(model, cfg)
        return run_episode(item, encoder, table, cfg, episode_rng(cfg.seed, item.id))

    zs = episode(small_cfg(mode="zero_shot"))
    assert zs.step_losses == [] and zs.trainable_params == 0 and zs.peak_tape_nodes == 0
    ep = episode(small_cfg(mode=mode, steps=steps, lr=0.0, wd=0.0))
    assert len(ep.step_losses) == steps
    assert ep.probs == zs.probs


# ---------------------------------------------------------------------------
# streams


def test_zero_shot_stream_matches_direct_oracle(setup):
    model, table, items = setup
    cfg = TttConfig(mode="zero_shot", seed=1)
    report = run_stream(items, model, table, cfg)
    hits = 0
    for it in items:
        pred, _ = zero_shot_prediction(model, table, it.image)
        hits += int(pred == it.label)
    assert report.top1 == pytest.approx(hits / len(items), abs=1e-12)
    assert report.trainable_params == 0
    assert report.reset_events == 0


def test_permuted_stream_identical_predictions(setup):
    model, table, items = setup
    cfg = small_cfg()
    fwd = run_stream(items, model, table, cfg)
    perm = list(reversed(items))
    bwd = run_stream(perm, model, table, cfg)
    by_id_fwd = {ep.instance_id: result_key(ep) for ep in fwd.episodes}
    by_id_bwd = {ep.instance_id: result_key(ep) for ep in bwd.episodes}
    assert by_id_fwd == by_id_bwd


def test_stream_counts_reset_events(setup):
    model, table, items = setup
    report = run_stream(items, model, table, small_cfg())
    assert report.reset_events == 10
    assert len(report.episodes) == 10


def test_full_tune_stream_leaves_every_weight_frozen(setup):
    model, table, items = setup
    run_stream(items[:2], model, table, small_cfg(mode="full_tune"))
    assert [name for name, t in model.params.items()
            if t.requires_grad or t.grad is not None] == []


def test_stream_rejects_empty_split(setup):
    model, table, _ = setup
    with pytest.raises(ValueError, match="empty"):
        run_stream([], model, table, small_cfg())


REPORT_KEYS = ["mode", "dataset", "seed", "top1", "ece", "mean_mem_loss", "mean_mae_loss",
               "trainable_params", "median_episode_ms", "num_instances", "reset_events"]


def test_report_json_lists_every_field_but_the_episodes(setup, tmp_path):
    model, table, items = setup
    report = run_stream(items[:3], model, table, small_cfg())
    assert list(report.report_json()) == REPORT_KEYS
    assert report.report_json()["num_instances"] == 3
    report.write_outputs(tmp_path)
    assert list(json.loads((tmp_path / "report.json").read_text())) == REPORT_KEYS


def test_stream_outputs_files(setup, tmp_path):
    model, table, items = setup
    report = run_stream(items[:4], model, table, small_cfg())
    report.write_outputs(tmp_path / "run")
    assert (tmp_path / "run" / "report.json").exists()
    assert (tmp_path / "run" / "report.csv").exists()
    lines = (tmp_path / "run" / "episodes.jsonl").read_text().strip().split("\n")
    assert len(lines) == 4
    import json
    rec = json.loads(lines[0])
    assert "wall_ms" not in rec
    assert rec["instance_id"] == items[0].id


def test_monotone_loss_step_smoke(setup):
    model, table, _ = setup
    cfg = small_cfg(steps=2)
    encoder = build_encoder_for_mode(model, cfg)
    rng = np.random.default_rng(60)
    improved = 0
    total = 100
    for i in range(total):
        inst = Instance(f"mono_{i}", rng.uniform(0, 1, (3, 32, 32)).astype(np.float32), 0)
        ep = run_episode(inst, encoder, table, cfg, episode_rng(cfg.seed, inst.id))
        if ep.step_losses[1][2] <= ep.step_losses[0][2]:
            improved += 1
    assert improved >= 80


# ---------------------------------------------------------------------------
# adapter pre-initialization


def test_lora_pretrain_zero_epochs_keeps_identity(setup):
    model, _, items = setup
    pairs = [(it.image, "a photo of a red circle") for it in items[:4]]
    encoder, losses = lora_pretrain(model, pairs, 0, np.random.default_rng(0),
                                    LoraConfig(rank=2))
    assert losses == []
    assert all(np.all(ad.b.data == 0) for ad in encoder.adapters.values())


def test_lora_pretrain_reduces_loss_and_freezes_base(setup):
    model, _, items = setup
    before = base_weight_hash(model)
    captions = ["a photo of a red circle", "a photo of a blue square",
                "a photo of a green triangle"]
    rng = np.random.default_rng(61)
    pairs = [(rng.uniform(0, 1, (3, 32, 32)).astype(np.float32), captions[i % 3])
             for i in range(24)]
    encoder, losses = lora_pretrain(model, pairs, 2, np.random.default_rng(1),
                                    LoraConfig(rank=2), lr=1e-3, batch_size=8)
    assert base_weight_hash(model) == before
    # same batch count per epoch; compare first-epoch mean to second-epoch mean
    per_epoch = len(losses) // 2
    assert np.mean(losses[per_epoch:]) <= np.mean(losses[:per_epoch])
    assert any(np.any(ad.b.data != 0) for ad in encoder.adapters.values())


def test_lora_pretrain_checkpoint_usable_in_stream(setup, tmp_path):
    model, table, items = setup
    captions = ["a photo of a red circle", "a photo of a blue square",
                "a photo of a green triangle"]
    pairs = [(it.image, captions[it.label]) for it in items]
    encoder, _ = lora_pretrain(model, pairs, 1, np.random.default_rng(2),
                               small_cfg().lora, lr=1e-3, batch_size=5)
    path = tmp_path / "adapters.lttw"
    encoder.save_adapters(path)
    report = run_stream(items[:3], model, table, small_cfg(), adapters_path=path)
    assert len(report.episodes) == 3
    with pytest.raises(ValueError, match="lora mode"):
        run_stream(items[:2], model, table, TttConfig(mode="zero_shot"),
                   adapters_path=path)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the step overflows
def test_lora_pretrain_raises_at_the_first_non_finite_loss(setup):
    model, _, items = setup
    pairs = [(it.image, ["a photo of a red circle", "a photo of a blue square"][i % 2])
             for i, it in enumerate(items[:8])]
    with pytest.raises(ValueError, match="non-finite loss at adapter pretraining step 2$"):
        lora_pretrain(model, pairs, 2, np.random.default_rng(0), LoraConfig(rank=2),
                      lr=1e30, batch_size=8)


def test_lora_pretrain_empty_pairs(setup):
    model, _, _ = setup
    with pytest.raises(ValueError, match="empty"):
        lora_pretrain(model, [], 1, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# config plumbing


def test_config_mode_forcing():
    cfg = TttConfig(mode="lora_ttt_m", lam_mae=16.0)
    assert cfg.lam_mae == 0.0
    cfg = TttConfig(mode="lora_ttt_a", lam_mem=1.0)
    assert cfg.lam_mem == 0.0


def test_lora_ttt_a_without_reconstruction_weight_is_rejected():
    with pytest.raises(ValueError, match="lam_mae must be > 0"):
        TttConfig(mode="lora_ttt_a", lam_mae=0.0)
    # the combined path still tracks the entropy loss at weight 0
    TttConfig(mode="lora_ttt", lam_mem=0.0, lam_mae=0.0)


def test_zero_shot_config_is_one_view_and_no_step():
    cfg = config_from_json(TttConfig, {"mode": "zero_shot", "steps": 3, "num_views": 64})
    assert (cfg.num_views, cfg.steps) == (1, 0)
    assert config_from_json(TttConfig, json.loads(json.dumps(dataclasses.asdict(cfg)))) == cfg


def test_config_json_round_trip():
    cfg = TttConfig(mode="lora_ttt", num_views=32, lora=LoraConfig(rank=8))
    obj = json.loads(json.dumps(dataclasses.asdict(cfg)))
    assert config_from_json(TttConfig, obj) == cfg


def test_config_validation_errors():
    with pytest.raises(ValueError, match="mode"):
        TttConfig(mode="bogus")
    with pytest.raises(ValueError, match="cutoff"):
        TttConfig(cutoff=0.0)
    with pytest.raises(ValueError, match="steps"):
        TttConfig(steps=0)
    with pytest.raises(ValueError, match="recon"):
        TttConfig(recon_target="pixels")
    with pytest.raises(ValueError, match="num_views"):
        TttConfig(num_views=0)
    for ratio in (-0.1, 1.0, 1.5, float("nan")):
        with pytest.raises(ValueError, match="mask_ratio"):
            TttConfig(mask_ratio=ratio)
    for name in ("lr", "wd", "lam_mem", "lam_mae"):
        for value in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
                TttConfig(**{name: value})
    # zero lr and zero masking stay valid
    TttConfig(lr=0.0, wd=0.0, mask_ratio=0.0, num_views=1)
