"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Criteria (tolerances pinned here, nothing deferred):
  1. Cost-model values at (L=2048, d=32, K=4): exact integers.
  2. Parameter identities 12D^2+13D / 12K^2d^2+13Kd plus exact enumeration.
  3. KV-cache equivalence over 1000 (user, candidate) pairs at <= 1e-9 and
     per-candidate incremental cost < 10% of a full forward at C=100.
  4. Finite-difference gradient checks: ops <= 1e-4, end-to-end <= 1e-3,
     three seeds.
  5. Mask and causality properties, exact equality where stated.
  6. Trained-model properties on the planted long-range dataset:
     (a) beats the pooling baseline by >= 0.05 AUC, (b) AUC non-decreasing
     over the {32, 64, 128, 256} window sweep, (c) 40% queries retain >= 90%
     of the full-query AUC gain.
  7. Scaling fitter: noiseless recovery <= 1e-6, r^2 > 0.99 at 1% noise, and
     a positive-direction fit of the window sweep.
  8. Rank AUC equals the O(n^2) pairwise oracle within 1e-12.
"""

import numpy as np
import pytest

from conftest import (bayes_window_scores, counted_muladds, fd_check, mean_scalars,
                      n_params, readout)
from longrec import analysis
from longrec import tensors as T
from longrec.attention import BlockParams, attention_block, build_mask
from longrec.config import GeneratorConfig, ModelConfig
from longrec.inputs import Candidate, Sample, generate_dataset
from longrec.model import LongRecModel, OptConfig, SumPoolingModel, train
from longrec.serving import build_cache, score_with_cache
from longrec.tensors import Tensor


def self_block(x, visible, params):
    return attention_block(x, x, visible, params)[0]


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# ----------------------------- criterion 1 -----------------------------


def test_criterion_1_cost_model():
    fv = analysis.flops_vanilla(2048, 32)
    fm = analysis.flops_merged(2048, 32, 4)
    red = float(analysis.reduction_ratio(2048, 32, 4))
    ok = (fv == 587_202_560 and fm == 335_544_320
          and abs(red - 0.42857142857142855) < 1e-15)
    report("criterion 1 (cost model)",
           ok, f"vanilla={fv:,} merged={fm:,} reduction={red:.5%}")


# ----------------------------- criterion 2 -----------------------------


ACCEPT_CFGS = [
    dict(L=8, d=2, K=2, k=3, N=1, m=3, vocab=11, n_users=5, d_item=3,
         d_act=2, d_time=2, n_time_buckets=6, n_profiles=3, head_hidden=4),
    dict(L=12, d=3, K=3, k=2, N=2, m=4, vocab=9, n_users=4, d_item=2,
         d_act=3, d_time=4, n_time_buckets=5, n_profiles=2, head_hidden=6,
         merge_mode="inner", inner_layers=2),
    dict(L=10, d=4, K=2, k=4, N=1, m=3, heads=2, vocab=7, n_users=3,
         d_item=4, d_act=1, d_time=2, n_time_buckets=4, n_profiles=5,
         head_hidden=4, query_strategy="learnable"),
    dict(L=16, d=2, K=4, k=4, N=3, m=3, heads=2, vocab=20, n_users=7,
         d_item=5, d_act=2, d_time=3, n_time_buckets=8, n_profiles=4,
         head_hidden=8, merge_mode="inner"),
    dict(L=6, d=5, K=1, k=6, N=2, m=5, vocab=13, n_users=2, d_item=3,
         d_act=3, d_time=3, n_time_buckets=7, n_profiles=2, head_hidden=5,
         query_strategy="uniform"),
]


def test_criterion_2_parameter_identities():
    assert analysis.params_block(32) == 12 * 32 * 32 + 13 * 32
    assert analysis.params_merged_block(32, 4) == 12 * 16 * 1024 + 13 * 128
    checked = 0
    for payload in ACCEPT_CFGS:
        cfg = ModelConfig(**payload)
        model = LongRecModel(cfg, seed=checked)
        assert n_params(model.cross_block) == analysis.params_block(cfg.D)
        assert (analysis.params_merged_block(cfg.d, cfg.K)
                == analysis.params_block(cfg.D))
        assert model.flat.size == n_params(model) == analysis.count_params(cfg)["total"]
        checked += 1
    report("criterion 2 (parameter identities)",
           checked == len(ACCEPT_CFGS),
           f"exact enumeration match on {checked} configs")


# ----------------------------- criterion 3 -----------------------------


def desk_users(cfg, n_users, seed):
    gen = GeneratorConfig(n_users=n_users, vocab=cfg.vocab, L_max=cfg.L,
                          L_min=cfg.L // 2, n_interests=8,
                          n_actions=cfg.n_actions, n_profiles=cfg.n_profiles)
    return generate_dataset(gen, seed).samples


def test_criterion_3_kv_cache_equivalence():
    cfg = ModelConfig(n_users=60)        # the default desk configuration
    model = LongRecModel(cfg, seed=11)
    users = desk_users(cfg, 50, seed=12)
    rng = np.random.default_rng(13)
    worst = 0.0
    pairs = 0
    for base in users:
        cache = build_cache(model, base.events, base.user_features,
                            base.candidate.timestamp)
        for _ in range(20):
            cand = Candidate(int(rng.integers(cfg.vocab)),
                             base.candidate.timestamp)
            full = model.score(Sample(base.events, base.user_features, cand, 0))
            fast = score_with_cache(model, cache, [cand])[0]
            worst = max(worst, abs(full - fast))
            pairs += 1
    ok_eq = pairs == 1000 and worst <= 1e-9

    # Counted-cost side at C=100: counted_muladds asserts that the counted
    # naive and cached MACs equal the analytic model, so the ratio below is
    # measured, not assumed.
    counted_muladds(model, users[:2], 100, seed=14)
    n_events = min(len(users[0].events), cfg.L)
    ratio = (analysis.muladds_incremental(cfg)
             / analysis.muladds_full_forward(cfg, n_events))
    ok_cost = ratio < 0.10
    report("criterion 3 (KV-cache)", ok_eq and ok_cost,
           f"max|dp|={worst:.2e} over {pairs} pairs; "
           f"incremental/full mul-adds={ratio:.4f}")


# ----------------------------- criterion 4 -----------------------------


def scalar_loss(y_tensor, w):
    return T.bce(T.sigmoid(readout(T.mean_rows(y_tensor), w)), 1.0)


def test_criterion_4_gradients():
    worst_ops = 0.0
    for seed in range(3):
        rng = np.random.default_rng(100 + seed)
        w6 = rng.normal(size=(6, 1)) * 0.3
        qkv = [Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True) for _ in "qkv"]
        vis = rng.random((2, 3, 3)) >= 0.3
        vis[..., 0] = True
        for heads in (1, 2):
            worst_ops = max(worst_ops, fd_check(
                lambda heads=heads: scalar_loss(
                    T.reshape(T.attention(*qkv, vis, heads), (6, 6)), w6),
                [(f"attention.{n}", t) for n, t in zip("qkv", qkv)],
                tol=1e-4, seed=seed))
        own = [Tensor(rng.normal(size=(3, 6)), requires_grad=True) for _ in "qkv"]
        prefix = (rng.normal(size=(4, 6)), rng.normal(size=(4, 6)))
        pvis = rng.random((3, 5)) >= 0.3
        pvis[:, -1] = True
        worst_ops = max(worst_ops, fd_check(
            lambda: scalar_loss(T.attention(*own, pvis, 2, prefix), w6),
            [(f"prefix.{n}", t) for n, t in zip("qkv", own)], tol=1e-4, seed=seed))

        g = Tensor(rng.normal(size=4) + 1.0, requires_grad=True)
        bb = Tensor(rng.normal(size=4), requires_grad=True)
        xx = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w4 = rng.normal(size=(4, 1)) * 0.3
        worst_ops = max(worst_ops, fd_check(
            lambda: scalar_loss(T.layer_norm(xx, g, bb), w4),
            [("ln.x", xx), ("ln.g", g), ("ln.b", bb)], tol=1e-4, seed=seed))

        D = 3
        f = [Tensor(rng.normal(size=s) * 0.5, requires_grad=True)
             for s in ((2, D), (D, 4 * D), (4 * D,), (4 * D, D), (D,))]
        w3 = rng.normal(size=(3, 1)) * 0.3
        worst_ops = max(worst_ops, fd_check(
            lambda: scalar_loss(T.mlp(*f), w3),
            [(f"ffn.{i}", t) for i, t in enumerate(f)], tol=1e-4, seed=seed))

        blk = BlockParams.create(4, rng)
        xb = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        cmask = np.tril(np.ones((5, 5))) > 0
        worst_ops = max(worst_ops, fd_check(
            lambda: scalar_loss(self_block(xb, cmask, blk), w4),
            [("block.x", xb)] + [(f"block.{n}", t) for n, t in blk.params()],
            tol=1e-4, max_coords=3, seed=seed))

    worst_e2e = 0.0
    tiny = ModelConfig(L=8, d=2, K=2, m=3, k=3, N=2, d_item=3, d_act=2,
                       d_time=2, n_time_buckets=8, vocab=12, n_actions=3,
                       n_users=6, n_profiles=4, head_hidden=5)
    for seed in range(3):
        model = LongRecModel(tiny, seed=200 + seed)
        rng = np.random.default_rng(300 + seed)
        samples = []
        for si in range(2):
            t0 = 1000
            events = []
            for _ in range(6 if si == 0 else 3):
                t0 += int(rng.integers(5, 50))
                events.append((int(rng.integers(tiny.vocab)),
                               int(rng.integers(tiny.n_actions)), t0))
            from longrec.inputs import Events, UserFeatures
            samples.append(Sample(
                Events(*zip(*events)),
                UserFeatures(int(rng.integers(tiny.n_users)),
                             int(rng.integers(tiny.n_profiles))),
                Candidate(int(rng.integers(tiny.vocab)), t0 + 60),
                int(rng.integers(2))))

        def loss():
            return mean_scalars([T.bce(model.forward_tensor([s]), s.label)
                                 for s in samples])

        worst_e2e = max(worst_e2e, fd_check(
            loss, model.params(), tol=1e-3, max_coords=2, seed=seed))
    report("criterion 4 (gradients)", True,
           f"ops worst rel err {worst_ops:.2e} (<=1e-4), "
           f"end-to-end worst {worst_e2e:.2e} (<=1e-3), 3 seeds")


# ----------------------------- criterion 5 -----------------------------


def test_criterion_5_mask_and_causality():
    rng = np.random.default_rng(40)
    k, m, D = 3, 3, 4
    blk = BlockParams.create(D, rng)
    order = np.arange(k + m)             # k sequence rows, then m globals
    mask = build_mask(order, order, 0)
    x = rng.normal(size=(k + m, D))
    x2 = x.copy()
    x2[-1] = rng.normal(size=D) * 10
    a = self_block(Tensor(x), mask, blk).data
    b = self_block(Tensor(x2), mask, blk).data
    target_inv = (a[:-1] == b[:-1]).all()

    n = 6
    causal = np.tril(np.ones((n, n))) > 0
    y = rng.normal(size=(n, D))
    y2 = y.copy()
    y2[3] += 1.0
    ca = self_block(Tensor(y), causal, blk).data
    cb = self_block(Tensor(y2), causal, blk).data
    prefix_inv = (ca[:3] == cb[:3]).all()

    full = build_mask(np.arange(n), np.arange(n), 0)
    cx = attention_block(Tensor(y), Tensor(y), full, blk)[0].data
    sx = self_block(Tensor(y), full, blk).data
    reduction = np.abs(cx - sx).max()
    np.testing.assert_array_equal(full, np.tril(np.ones((n, n))) > 0)
    ok = bool(target_inv and prefix_inv and reduction <= 1e-12)
    report("criterion 5 (mask/causality)", ok,
           f"target invariance exact={bool(target_inv)}, causal prefix "
           f"exact={bool(prefix_inv)}, m=0 reduction delta={reduction:.1e}")


# ----------------------------- criterion 6 -----------------------------

GEN_SEED, MODEL_SEED, SHUFFLE_SEED = 123, 7, 1
EPOCHS = 3
SWEEP_LENGTHS = (32, 64, 128, 256)


@pytest.fixture(scope="module")
def trained_runs():
    gen = GeneratorConfig(n_users=1000, vocab=48, L_max=256, L_min=192,
                          n_interests=8, interests_per_user=3, noise_rate=0.0,
                          plant_gap=16, plant_min=24, plant_max=48,
                          p_hit=0.97, p_miss=0.03)
    ds = generate_dataset(gen, GEN_SEED)

    def fit(cfg_kwargs, seed=MODEL_SEED, shuffle=SHUFFLE_SEED):
        cfg = ModelConfig(vocab=48, n_users=1000, d=8, K=4, N=2,
                          lr=1e-3, batch_size=8, **cfg_kwargs)
        model = LongRecModel(cfg, seed=seed)
        return train(model, ds, EPOCHS, OptConfig(seed=shuffle)).final.auc

    bayes_auc = analysis.auc(bayes_window_scores(ds, gen), ds.labels())
    sweep = {L: fit(dict(L=L, k=L // 4)) for L in SWEEP_LENGTHS}
    auc_k40 = fit(dict(L=256, k=26))     # 40% of the 64 merged tokens
    base = SumPoolingModel(ModelConfig(L=256, vocab=48, n_users=1000,
                                       lr=1e-3, batch_size=8), seed=8)
    base_auc = train(base, ds, EPOCHS, OptConfig(seed=2)).final.auc
    return {"sweep": sweep, "k40": auc_k40, "baseline": base_auc,
            "bayes": bayes_auc}


@pytest.mark.slow
def test_criterion_6a_beats_baseline(trained_runs):
    gap = trained_runs["sweep"][256] - trained_runs["baseline"]
    # The generative-state oracle bounds what is achievable; the trained
    # model must clear 0.75 where the oracle clears 0.9.
    ok = (gap >= 0.05 and trained_runs["bayes"] > 0.9
          and trained_runs["sweep"][256] > 0.75)
    report("criterion 6a (vs baseline)", ok,
           f"model={trained_runs['sweep'][256]:.4f} "
           f"baseline={trained_runs['baseline']:.4f} gap={gap:.4f} (>=0.05); "
           f"oracle={trained_runs['bayes']:.4f}")


@pytest.mark.slow
def test_criterion_6b_monotone_in_window(trained_runs):
    sweep = trained_runs["sweep"]
    pairs = list(zip(SWEEP_LENGTHS, SWEEP_LENGTHS[1:]))
    ok = all(sweep[a] <= sweep[b] + 1e-12 for a, b in pairs)
    report("criterion 6b (window sweep)", ok,
           " -> ".join(f"{L}:{sweep[L]:.4f}" for L in SWEEP_LENGTHS))


@pytest.mark.slow
def test_criterion_6c_query_subsampling(trained_runs):
    base = trained_runs["baseline"]
    gain_full = trained_runs["sweep"][256] - base
    gain_40 = trained_runs["k40"] - base
    retention = gain_40 / gain_full
    report("criterion 6c (40% queries)", retention >= 0.90,
           f"gain at k=40%: {gain_40:.4f}, at k=100%: {gain_full:.4f}, "
           f"retention={retention:.3f} (>=0.90)")


# ----------------------------- criterion 7 -----------------------------


@pytest.mark.slow
def test_criterion_7_scaling_fitter(trained_runs):
    xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    fit = analysis.fit_power_law(xs, 2.0 * xs ** 0.5 + 1.0)
    exact = max(abs(fit.alpha - 2), abs(fit.beta - 0.5), abs(fit.gamma - 1))

    rng = np.random.default_rng(20)
    xs2 = np.array([1, 2, 4, 8, 16, 32, 64, 128], dtype=float)
    clean = 5.0 * xs2 ** 0.35 + 2.0
    noisy = clean + rng.normal(0, 0.01 * (clean.max() - clean.min()), xs2.size)
    fit2 = analysis.fit_power_law(xs2, noisy)

    sweep = trained_runs["sweep"]
    fit3 = analysis.fit_power_law([float(L) for L in SWEEP_LENGTHS],
                                  [sweep[L] for L in SWEEP_LENGTHS])
    ok = exact <= 1e-6 and fit2.r_squared > 0.99 and fit3.beta > 0
    report("criterion 7 (scaling fitter)", ok,
           f"noiseless max err={exact:.2e} (<=1e-6), noisy r2="
           f"{fit2.r_squared:.5f} (>0.99), sweep fit beta={fit3.beta:.3f}>0 "
           f"with r2={fit3.r_squared:.4f}")


# ----------------------------- criterion 8 -----------------------------


def test_criterion_8_auc_oracle():
    rng = np.random.default_rng(50)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 201))
        scores = rng.random(n)
        if rng.random() < 0.5:
            scores = np.round(scores, 1)     # force tie groups
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 0, 1
        fast = analysis.auc(scores, labels)
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        brute = sum(1.0 if p > q else 0.5 if p == q else 0.0
                    for p in pos for q in neg) / (pos.size * neg.size)
        worst = max(worst, abs(fast - brute))
    report("criterion 8 (AUC oracle)", worst <= 1e-12,
           f"max |rank - pairwise| = {worst:.2e} over 100 vectors (<=1e-12)")
