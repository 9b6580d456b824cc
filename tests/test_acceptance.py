"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines. The heavy fixtures (synthetic benchmark, pretrained model, the
5-seed directional runs) are session-scoped and shared across criteria.
"""

import json
import shutil
import time

import numpy as np
import pytest

import ltt.tensor as T
from ltt.cli import main as cli_main
from ltt.data import DatasetManifest, SyntheticShiftSpec, generate, load_split
from ltt.encoder import (ClipModel, TextConfig, TextFeatureTable, VitConfig, Vocab,
                         classify_batch, build_text_table)
from ltt.lora import AdaptedEncoder, LoraConfig, base_weight_hash, trainable_parameter_count
from ltt.metrics import ece
from ltt.optim import AdamW
from ltt.pretrain import pretrain
from ltt.tensor import Tensor
from ltt.ttt import (TttConfig, build_encoder_for_mode, entropy_np, episode_rng,
                     mem_loss, mae_loss, run_episode, run_stream, select_confident)
from ltt.views import normalize, sample_mask

from helpers import check_gradients
from test_metrics import brute_force_ece
from test_optim import adamw_reference

SHIFT_KINDS = ("gaussian_noise", "blur", "color_shift", "occlusion")
SEEDS = (100, 101, 102, 103, 104)
INSTANCES_PER_RUN = 60
PRETRAIN_EPOCHS = 30


def report(num: int, ok: bool, detail: str):
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------
# session fixtures


@pytest.fixture(scope="session")
def bench(tmp_path_factory):
    """Synthetic benchmark + pretrained model + text table."""
    root = tmp_path_factory.mktemp("bench")
    data_dir = root / "data"
    spec = SyntheticShiftSpec(num_classes=10, train_per_class=250,
                              test_per_class=15, severity=3, seed=0)
    manifest = generate(spec, data_dir)
    t0 = time.time()
    model, losses = pretrain(data_dir, VitConfig(), epochs=PRETRAIN_EPOCHS, seed=0)
    pretrain_s = time.time() - t0
    ckpt = root / "model.lttw"
    model.save(ckpt)
    table = build_text_table(model, manifest.class_names, ["a photo of a {class}"])
    table_path = root / "table.lttc"
    table.save(table_path)
    clean_acc = run_stream(load_split(data_dir, "test"), model, table,
                           TttConfig(mode="zero_shot")).top1
    return {
        "root": root, "data_dir": data_dir, "manifest": manifest, "model": model,
        "table": table, "ckpt": ckpt, "table_path": table_path,
        "clean_acc": clean_acc, "losses": losses, "pretrain_s": pretrain_s,
    }


@pytest.fixture(scope="session")
def directional(bench):
    """5-seed runs of every mode on every shifted split (severity 3)."""
    model, table = bench["model"], bench["table"]
    records = {}
    t0 = time.time()
    for kind in SHIFT_KINDS:
        items = load_split(bench["data_dir"], f"test_{kind}")[:INSTANCES_PER_RUN]
        for mode in ("zero_shot", "lora_ttt", "lora_ttt_m", "lora_ttt_a"):
            for seed in SEEDS:
                rep = run_stream(items, model, table, TttConfig(mode=mode, seed=seed),
                                 dataset_name=kind)
                records[(kind, mode, seed)] = rep
    elapsed = time.time() - t0
    return {"records": records, "elapsed_s": elapsed}


def med_top1(directional, kind, mode):
    return float(np.median([directional["records"][(kind, mode, s)].top1
                            for s in SEEDS]))


# ---------------------------------------------------------------------------
# criterion 1: gradient integrity through the full loss stack


def test_criterion_1_gradient_integrity():
    t0 = time.time()
    vocab = Vocab(["a", "b", "c"])
    vit = VitConfig(image_size=32, patch_size=16, embed_dim=16, num_layers=2,
                    num_heads=2, mlp_ratio=2.0, out_dim=16)
    txt = TextConfig(vocab_size=len(vocab), context=4, width=16, num_heads=2,
                     out_dim=16)
    model = ClipModel.create(vit, txt, vocab, seed=2, dtype=np.float64)
    rows = np.random.default_rng(3).normal(size=(3, 16))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    table = TextFeatureTable(["a", "b", "c"], rows)

    worst = 0.0
    for episode in range(5):
        rng = np.random.default_rng(1000 + episode)
        adapted = AdaptedEncoder(model, LoraConfig(rank=2, scale=2.0), rng)
        # nonzero A and B so gradients flow to both matrices
        for ad in adapted.adapters.values():
            ad.a.data = rng.normal(0, 0.1, ad.a.data.shape)
            ad.b.data = rng.normal(0, 0.1, ad.b.data.shape)
        views = rng.normal(0, 1, size=(4, 3, 32, 32))
        leaves = list(adapted.trainables.values())
        mask_seed = int(rng.integers(0, 2**31))

        def loss_mem():
            cls, _ = adapted.encode_image_batch(views)
            probs = classify_batch(cls, table, tau=0.5)
            sel = select_confident(probs.data, 0.5)
            return mem_loss(T.index_select(probs, sel, axis=0))

        def loss_mae_cls():
            return mae_loss(adapted, views[:2], 0.5, "class_token",
                            np.random.default_rng(mask_seed))

        def loss_mae_vis():
            return mae_loss(adapted, views[:2], 0.5, "visual_tokens",
                            np.random.default_rng(mask_seed))

        for builder in (loss_mem, loss_mae_cls, loss_mae_vis):
            worst = max(worst, check_gradients(builder, leaves))
    elapsed = time.time() - t0
    report(1, worst < 1e-4 and elapsed < 60,
           f"max rel err {worst:.2e} over 5 episodes x 3 losses in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: LoRA identity at init


def test_criterion_2_identity_at_init(bench):
    model, table = bench["model"], bench["table"]
    adapted = AdaptedEncoder(model, LoraConfig(), np.random.default_rng(7))
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        img = rng.uniform(0, 1, size=(3, 32, 32)).astype(np.float32)
        base_cls, _ = model.encode_image_batch(img[None])
        ad_cls, _ = adapted.encode_image_batch(img[None])
        worst = max(worst, float(np.max(np.abs(ad_cls.data - base_cls.data))))
        pb = classify_batch(T.reshape(base_cls, (1, 64)), table, model.tau).data
        pa = classify_batch(T.reshape(ad_cls, (1, 64)), table, model.tau).data
        worst = max(worst, float(np.max(np.abs(pb - pa))))
    report(2, worst == 0.0, f"max |adapted - base| = {worst} over 100 images")


# ---------------------------------------------------------------------------
# criterion 3: episodic reset


def test_criterion_3_episodic_reset(bench):
    model, table = bench["model"], bench["table"]
    items = load_split(bench["data_dir"], "test")[:100]
    h0 = base_weight_hash(model)

    def zero_shot_probs(img):
        view0 = normalize(img, model.norm_mean, model.norm_std)
        cls, _ = model.encode_image_batch(view0[None])
        return classify_batch(T.reshape(cls, (1, 64)), table, model.tau).data[0]

    before = zero_shot_probs(items[0].image)
    cfg = TttConfig(mode="lora_ttt", seed=5)
    encoder = build_encoder_for_mode(model, cfg)
    run_episode(items[0], encoder, table, cfg, episode_rng(cfg.seed, items[0].id))
    after = zero_shot_probs(items[0].image)
    bit_identical = np.array_equal(before, after)

    run_stream(items, model, table, cfg)  # 100 episodes
    hash_ok = base_weight_hash(model) == h0
    report(3, bit_identical and hash_ok,
           f"pre/post zero-shot bit-identical={bit_identical}, "
           f"base hash constant over 100 episodes={hash_ok}")


# ---------------------------------------------------------------------------
# criterion 4: order invariance


def test_criterion_4_order_invariance(bench):
    model, table = bench["model"], bench["table"]
    items = load_split(bench["data_dir"], "test_occlusion")[:50]
    cfg = TttConfig(mode="lora_ttt", seed=11)
    fwd = run_stream(items, model, table, cfg)
    rng = np.random.default_rng(12)
    perm = [items[i] for i in rng.permutation(50)]
    bwd = run_stream(perm, model, table, cfg)
    a = {ep.instance_id: (ep.predicted, tuple(ep.probs)) for ep in fwd.episodes}
    b = {ep.instance_id: (ep.predicted, tuple(ep.probs)) for ep in bwd.episodes}
    report(4, a == b, f"50-instance stream permutation: {sum(a[k] == b[k] for k in a)}"
           f"/50 per-instance predictions bit-identical")


# ---------------------------------------------------------------------------
# criterion 5: oracle equivalences at 1e-12


def test_criterion_5_oracle_equivalences():
    rng = np.random.default_rng(13)
    worst_mem = 0.0
    for _ in range(300):
        raw = rng.uniform(1e-4, 1, size=(int(rng.integers(1, 10)), 6))
        probs = raw / raw.sum(axis=1, keepdims=True)
        direct = entropy_np(np.mean(probs, axis=0))
        worst_mem = max(worst_mem, abs(mem_loss(Tensor(probs)).item() - direct))

    select_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        raw = rng.uniform(0.01, 1, size=(n, 5))
        probs = raw / raw.sum(axis=1, keepdims=True)
        rho = float(rng.uniform(0.02, 1.0))
        ents = [entropy_np(r) for r in probs]
        oracle = sorted(range(n), key=lambda i: (ents[i], i))[:max(1, int(np.floor(rho * n)))]
        if select_confident(probs, rho) != oracle:
            select_ok = False
            break

    confs = rng.uniform(0, 1, size=1000)
    correct = rng.random(1000) < confs
    ece_diff = abs(ece(confs, correct, 20).ece - brute_force_ece(confs, correct, 20))

    worst_adamw = 0.0
    for _ in range(20):
        w0 = float(rng.normal())
        grads = rng.normal(size=10)
        p = Tensor(np.asarray(w0), requires_grad=True)
        opt = AdamW({"w": p}, lr=0.004, wd=0.3)
        for g in grads:
            p.grad = np.asarray(g)
            opt.step()
        worst_adamw = max(worst_adamw,
                          abs(float(p.data) - adamw_reference(w0, grads, 0.004, 0.3)))

    ok = worst_mem < 1e-12 and select_ok and ece_diff < 1e-12 and worst_adamw < 1e-12
    report(5, ok, f"mem {worst_mem:.2e}, select oracle {select_ok}, "
           f"ece {ece_diff:.2e}, adamw {worst_adamw:.2e}")


# ---------------------------------------------------------------------------
# criterion 6: mask and selection cardinalities


def test_criterion_6_cardinalities():
    rng = np.random.default_rng(14)
    masks_ok = all(
        sample_mask(p, ratio, rng).size == int(np.floor(ratio * p))
        for p in range(1, 257) for ratio in (0.25, 0.5, 0.75))
    sel_ok = True
    for n in (1, 3, 10, 64, 100):
        for rho in (0.05, 0.1, 0.5, 1.0):
            probs = rng.uniform(0.01, 1, size=(n, 4))
            probs /= probs.sum(axis=1, keepdims=True)
            if len(select_confident(probs, rho)) != max(1, int(np.floor(rho * n))):
                sel_ok = False
    tpt_convention = len(select_confident(np.full((64, 10), 0.1), 0.1)) == 6
    report(6, masks_ok and sel_ok and tpt_convention,
           f"mask floor(ratio*P) for P<=256 ok={masks_ok}, "
           f"k=max(1,floor(rho*N)) ok={sel_ok}, N=64 rho=0.1 -> 6: {tpt_convention}")


# ---------------------------------------------------------------------------
# criterion 7: parameter accounting over the ablation grid


def test_criterion_7_parameter_accounting():
    vocab = Vocab(["a"])
    vit = VitConfig(image_size=32, patch_size=8, embed_dim=768, num_layers=4,
                    num_heads=4, mlp_ratio=1.0, out_dim=64)
    txt = TextConfig(vocab_size=len(vocab), context=4, width=16, num_heads=2,
                     out_dim=64)
    model = ClipModel.create(vit, txt, vocab, seed=1)
    grid_layers = {"last": (4,), "last-2": (3, 4), "all": (1, 2, 3, 4)}
    grid_mats = {"v": ("v",), "vq": ("v", "q"), "kq": ("k", "q"),
                 "kvqo": ("k", "v", "q", "o")}
    checked = 0
    ok = True
    for layers in grid_layers.values():
        for r in (4, 16, 64):
            for mats in grid_mats.values():
                cfg = LoraConfig(rank=r, matrices=mats, layers=layers)
                formula = trainable_parameter_count(cfg, 768, 4)
                runtime = AdaptedEncoder(model, cfg, np.random.default_rng(0)).trainable_count()
                ok &= formula == runtime
                checked += 1
    ref = trainable_parameter_count(
        LoraConfig(rank=16, matrices=("k", "v", "q", "o"), layers=(3, 4)), 768, 4)
    ok &= ref == 196_608
    report(7, ok, f"{checked} grid configs formula==enumeration, "
           f"reference d=768 r=16 kvqo 2 layers = {ref}")


# ---------------------------------------------------------------------------
# criteria 8-10: desk-scale directional experiments


def test_criterion_8_directional_efficacy(bench, directional):
    gate = bench["clean_acc"]
    lines = []
    geq = 0
    strict = 0
    for kind in SHIFT_KINDS:
        zs = med_top1(directional, kind, "zero_shot")
        tt = med_top1(directional, kind, "lora_ttt")
        geq += tt >= zs
        strict += tt > zs
        lines.append(f"{kind}: zs {zs:.3f} -> ttt {tt:.3f}")
    elapsed = directional["elapsed_s"]
    ok = gate >= 0.7 and geq == 4 and strict >= 2 and elapsed < 15 * 60
    report(8, ok, f"gate {gate:.3f}>=0.7, median ttt>=zs on {geq}/4 splits, "
           f"strict on {strict} (need >=2), runs took {elapsed:.0f}s; " + "; ".join(lines))


def test_criterion_9_calibration_trend(bench, directional):
    def per_seed_ece(mode):
        return [float(np.mean([directional["records"][(k, mode, s)].ece
                               for k in SHIFT_KINDS])) for s in SEEDS]

    zs = float(np.median(per_seed_ece("zero_shot")))
    m = float(np.median(per_seed_ece("lora_ttt_m")))
    a = float(np.median(per_seed_ece("lora_ttt_a")))
    ok = a <= m and abs(a - zs) <= abs(m - zs)
    report(9, ok, f"median ECE: zero-shot {zs:.3f}, mae-only {a:.3f}, "
           f"mem-only {m:.3f}; a<=m and |a-zs|<=|m-zs|")


def test_criterion_10_efficiency_trend(bench, directional):
    model, table = bench["model"], bench["table"]
    recs = directional["records"]

    def med_ms(mode):
        return float(np.median([recs[(k, mode, s)].median_episode_ms
                                for k in SHIFT_KINDS for s in SEEDS]))

    params = {mode: recs[(SHIFT_KINDS[0], mode, SEEDS[0])].trainable_params
              for mode in ("zero_shot", "lora_ttt", "lora_ttt_a")}
    items = load_split(bench["data_dir"], "test")[:20]
    ft = run_stream(items, model, table, TttConfig(mode="full_tune", seed=200))
    wall = {m: med_ms(m) for m in ("zero_shot", "lora_ttt", "lora_ttt_a")}

    params_ok = params["zero_shot"] < params["lora_ttt_a"] <= params["lora_ttt"]
    params_ft_ok = params["lora_ttt"] < ft.trainable_params
    wall_ok = wall["zero_shot"] < wall["lora_ttt_a"] <= wall["lora_ttt"]

    # token accounting on the mae-only loss branch
    ep = recs[(SHIFT_KINDS[0], "lora_ttt_a", SEEDS[0])].episodes[0]
    p_total = model.vit.num_patches
    kept_tokens = 1 + p_total - int(np.floor(0.5 * p_total))
    k_sel = max(1, int(np.floor(0.1 * 64)))
    views_ok = (ep.recorded_full_views == k_sel
                and ep.recorded_masked_views == k_sel
                and len(ep.selected) == k_sel)
    masked_ok = ep.masked_pass_tokens == k_sel * kept_tokens
    ratio = ep.masked_pass_tokens / (k_sel * (1 + p_total))
    ratio_ok = 0.4 <= ratio <= 0.6

    ok = params_ok and params_ft_ok and wall_ok and views_ok and masked_ok and ratio_ok
    report(10, ok,
           f"params zs {params['zero_shot']} < a {params['lora_ttt_a']} <= "
           f"ttt {params['lora_ttt']} < full-tune {ft.trainable_params}; "
           f"wall ms zs {wall['zero_shot']:.1f} < a {wall['lora_ttt_a']:.1f} <= "
           f"ttt {wall['lora_ttt']:.1f}; loss branch {ep.recorded_full_views}+"
           f"{ep.recorded_masked_views} of 64 views, masked tokens/view ratio {ratio:.2f}")


# ---------------------------------------------------------------------------
# supplemental benchmark invariants (not numbered criteria)


def test_shifted_splits_degrade_zero_shot(bench):
    clean = bench["clean_acc"]
    accs = {kind: run_stream(load_split(bench["data_dir"], f"test_{kind}"), bench["model"],
                             bench["table"], TttConfig(mode="zero_shot")).top1
            for kind in SHIFT_KINDS}
    print(f"\nclean {clean:.3f} vs shifted {accs}")
    assert all(acc < clean for acc in accs.values()), \
        f"expected every shifted split strictly below clean {clean:.3f}: {accs}"


def test_pretrain_loss_beats_uniform_batch_bound(bench):
    losses = bench["losses"]
    steps = len(losses) // PRETRAIN_EPOCHS
    epoch2 = losses[steps:2 * steps]
    bound = float(np.log(64))
    print(f"\nepoch-2 contrastive loss mean {np.mean(epoch2):.3f} vs ln(64)={bound:.3f}")
    assert np.mean(epoch2) < bound
    assert np.mean(losses[-steps:]) < bound


# ---------------------------------------------------------------------------
# criterion 11: byte-identical CLI runs


def test_criterion_11_run_determinism(bench, tmp_path):
    # trim the benchmark to 12 instances so two CLI runs stay quick
    mini = tmp_path / "mini_data"
    (mini / "tensors").mkdir(parents=True)
    manifest = DatasetManifest.load(bench["data_dir"] / "manifest.json")
    keep = manifest.items_for_split("test_gaussian_noise")[:12]
    for it in keep:
        shutil.copy(bench["data_dir"] / it["path"], mini / it["path"])
    DatasetManifest(manifest.class_names, manifest.normalization, keep).save(
        mini / "manifest.json")

    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / f"run_{tag}"
        code = cli_main(["run", "--ckpt", str(bench["ckpt"]),
                         "--table", str(bench["table_path"]),
                         "--data", str(mini), "--mode", "lora-ttt",
                         "--seed", "21", "--split", "test_gaussian_noise",
                         "--out", str(out)])
        assert code == 0
        blobs.append((out / "episodes.jsonl").read_bytes())
    ok = blobs[0] == blobs[1] and len(blobs[0]) > 0
    report(11, ok, f"two CLI runs produced byte-identical episodes.jsonl "
           f"({len(blobs[0])} bytes)")
