"""Cost model, metrics, and fitter against brute-force oracles."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import n_params
from longrec import analysis
from longrec.attention import BlockParams, attention_block
from longrec.config import ModelConfig
from longrec.errors import ConfigError, UndefinedMetricError
from longrec.model import LongRecModel
from longrec import tensors as T


# ----------------------------- FLOPs -----------------------------


def test_flops_vanilla_values():
    assert analysis.flops_vanilla(2048, 32) == 587_202_560
    assert analysis.flops_vanilla(1, 1) == 28


def test_flops_merged_values():
    assert analysis.flops_merged(2048, 32, 4) == 335_544_320
    assert analysis.flops_merged(100, 7, 1) == analysis.flops_vanilla(100, 7)
    red = analysis.reduction_ratio(2048, 32, 4)
    assert red == Fraction(3, 7)                     # exactly 42.857142...%
    assert abs(float(red) - 0.42857142857) < 1e-9


def test_flops_merged_requires_divisibility():
    with pytest.raises(ConfigError):
        analysis.flops_merged(10, 4, 3)


def test_reduction_ratio_identity():
    r = analysis.cost_report(64, 4, 2)
    assert Fraction(*r["reduction_ratio_exact"]) == \
        1 - Fraction(r["flops_merged"], r["flops_vanilla"])


@settings(max_examples=20, deadline=None)
@given(dk=st.integers(1, 8), d=st.integers(1, 64), q=st.integers(1, 64))
def test_ratio_formula_exact_rationals(dk, d, q):
    K = dk
    L = K * q
    lhs = Fraction(6 * d * K + Fraction(L, K), 6 * d + L)
    rhs = Fraction(analysis.flops_merged(L, d, K), analysis.flops_vanilla(L, d))
    assert lhs == rhs


def test_inner_flops_formula():
    # L/K groups x (24Kd^2 + 4K^2 d) per inner layer
    assert analysis.flops_inner(16, 3, 4, 2) == 2 * 4 * (24 * 4 * 9 + 4 * 16 * 3)
    for layers in (0, -2):
        with pytest.raises(ConfigError):
            analysis.flops_inner(16, 3, 4, layers)
    for K in (0, -1):              # checked before L % K divides by it
        with pytest.raises(ConfigError):
            analysis.flops_inner(16, 3, K)


def test_block_counter_matches_formula():
    # One all-visible self block at (n=64, D=8): MACs are half the FLOPs.
    n, D = 64, 8
    rng = np.random.default_rng(0)
    params = BlockParams.create(D, rng)
    x = T.Tensor(rng.normal(size=(n, D)))
    mask = np.ones((n, n), dtype=bool)
    with T.count_muladds() as w:
        attention_block(x, x, mask, params)
    assert 2 * w.mul_adds == analysis.flops_vanilla(n, D)


def test_merged_block_counter_reproduces_reduction_ratio():
    # Running the block on L/K merged rows at width K*d matches the merged
    # FLOPs formula, so the instrumented reduction equals the analytic one.
    L, d, K = 32, 4, 4
    rng = np.random.default_rng(1)
    blk_v = BlockParams.create(d, rng)
    x_v = T.Tensor(rng.normal(size=(L, d)))
    with T.count_muladds() as w_v:
        attention_block(x_v, x_v, np.ones((L, L), dtype=bool), blk_v)
    blk_m = BlockParams.create(K * d, rng)
    x_m = T.Tensor(rng.normal(size=(L // K, K * d)))
    with T.count_muladds() as w_m:
        attention_block(x_m, x_m, np.ones((L // K, L // K), dtype=bool),
                        blk_m)
    assert 2 * w_v.mul_adds == analysis.flops_vanilla(L, d)
    assert 2 * w_m.mul_adds == analysis.flops_merged(L, d, K)
    assert Fraction(w_m.mul_adds, w_v.mul_adds) == \
        1 - analysis.reduction_ratio(L, d, K)


# ----------------------------- parameters -----------------------------


def test_params_block_values():
    assert analysis.params_block(32) == 12_704
    assert analysis.params_merged_block(32, 4) == 198_272
    assert analysis.params_merged_block(32, 4) == analysis.params_block(128)


RANDOM_CFGS = [
    dict(L=8, d=2, K=2, k=3, N=1, m=3, heads=1, vocab=11, n_users=5,
         d_item=3, d_act=2, d_time=2, n_time_buckets=6, n_profiles=3,
         head_hidden=4),
    dict(L=12, d=3, K=3, k=2, N=2, m=4, heads=1, vocab=9, n_users=4,
         d_item=2, d_act=3, d_time=4, n_time_buckets=5, n_profiles=2,
         head_hidden=6, merge_mode="inner", inner_layers=2),
    dict(L=10, d=4, K=2, k=4, N=1, m=3, heads=2, vocab=7, n_users=3,
         d_item=4, d_act=1, d_time=2, n_time_buckets=4, n_profiles=5,
         head_hidden=3, query_strategy="learnable"),
    dict(L=16, d=2, K=4, k=4, N=3, m=3, heads=2, vocab=20, n_users=7,
         d_item=5, d_act=2, d_time=3, n_time_buckets=8, n_profiles=4,
         head_hidden=8, merge_mode="inner"),
    dict(L=6, d=5, K=1, k=6, N=2, m=5, heads=1, vocab=13, n_users=2,
         d_item=3, d_act=3, d_time=3, n_time_buckets=7, n_profiles=2,
         head_hidden=5, query_strategy="uniform"),
]


@pytest.mark.parametrize("payload", RANDOM_CFGS)
def test_count_params_matches_enumeration(payload):
    cfg = ModelConfig(**payload)
    model = LongRecModel(cfg, seed=1)
    breakdown = analysis.count_params(cfg)
    assert model.flat.size == n_params(model) == breakdown["total"]
    block_sizes = {n_params(model.cross_block)}
    block_sizes.update(n_params(b) for b in model.self_blocks)
    assert block_sizes == {analysis.params_block(cfg.D)}
    for blk in model.inner_blocks:
        assert n_params(blk) == analysis.params_block(cfg.d)


# ----------------------------- AUC / logloss -----------------------------


def pairwise_auc(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def test_auc_perfect_and_ties():
    assert analysis.auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    assert analysis.auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5


def test_auc_single_class_raises():
    with pytest.raises(UndefinedMetricError):
        analysis.auc([0.1, 0.9], [1, 1])


def test_auc_matches_pairwise_oracle_50():
    rng = np.random.default_rng(1)
    scores = np.round(rng.random(50), 2)    # force ties
    labels = rng.integers(0, 2, size=50)
    labels[0], labels[1] = 0, 1
    assert abs(analysis.auc(scores, labels) - pairwise_auc(scores, labels)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(n=st.integers(5, 200), seed=st.integers(0, 99999), ties=st.booleans())
def test_auc_pairwise_property(n, seed, ties):
    rng = np.random.default_rng(seed)
    scores = rng.random(n)
    if ties:
        scores = np.round(scores, 1)
    labels = rng.integers(0, 2, size=n)
    labels[0], labels[1] = 0, 1
    assert abs(analysis.auc(scores, labels) - pairwise_auc(scores, labels)) <= 1e-12


def test_logloss_matches_bce_mean():
    p = np.array([0.9, 0.2, 0.5])
    y = np.array([1, 0, 1])
    expected = -(np.log(0.9) + np.log(0.8) + np.log(0.5)) / 3
    assert abs(analysis.logloss(p, y) - expected) <= 1e-12


# ----------------------------- power-law fit -----------------------------


def test_fit_recovers_noiseless_curve():
    xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    ys = 2.0 * xs ** 0.5 + 1.0
    fit = analysis.fit_power_law(xs, ys)
    assert abs(fit.alpha - 2.0) <= 1e-6
    assert abs(fit.beta - 0.5) <= 1e-6
    assert abs(fit.gamma - 1.0) <= 1e-6
    assert fit.r_squared > 1 - 1e-12
    assert fit.converged and not fit.degenerate


def test_fit_decreasing_curve():
    xs = np.array([1.0, 2.0, 3.0, 5.0, 9.0, 17.0])
    ys = 3.0 * xs ** -0.7 + 0.25
    fit = analysis.fit_power_law(xs, ys)
    assert abs(fit.alpha - 3.0) <= 1e-5
    assert abs(fit.beta + 0.7) <= 1e-5
    assert abs(fit.gamma - 0.25) <= 1e-5


def test_fit_constant_data_degenerate():
    fit = analysis.fit_power_law([1, 2, 3, 4], [5.0, 5.0, 5.0, 5.0])
    assert fit.degenerate
    assert fit.gamma == 5.0
    assert abs(fit.alpha) <= 1e-9


def test_fit_noisy_recovery():
    rng = np.random.default_rng(20)
    xs = np.array([1, 2, 4, 8, 16, 32, 64, 128], dtype=float)
    clean = 5.0 * xs ** 0.35 + 2.0
    noise = rng.normal(0.0, 0.01 * (clean.max() - clean.min()), size=xs.size)
    fit = analysis.fit_power_law(xs, clean + noise)
    assert abs(fit.alpha - 5.0) / 5.0 <= 0.10
    assert abs(fit.beta - 0.35) / 0.35 <= 0.10
    assert abs(fit.gamma - 2.0) / 2.0 <= 0.10
    assert fit.r_squared > 0.99


def test_fit_scale_equivariance_in_x():
    xs = np.array([1.0, 3.0, 9.0, 27.0, 81.0])
    ys = 1.5 * xs ** 0.4 + 0.8
    c = 10.0
    fit = analysis.fit_power_law(c * xs, ys)
    assert abs(fit.beta - 0.4) <= 1e-6
    assert abs(fit.alpha - 1.5 * c ** -0.4) <= 1e-6
    assert abs(fit.gamma - 0.8) <= 1e-6


def test_fit_preconditions():
    with pytest.raises(ConfigError):
        analysis.fit_power_law([1, 2, 3], [1, 2, 3])
    with pytest.raises(ConfigError):
        analysis.fit_power_law([0.0, 1, 2, 3], [1, 2, 3, 4])
    with pytest.raises(ConfigError):
        analysis.fit_power_law([1, 1, 2, 3], [1, 2, 3, 4])
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError):
            analysis.fit_power_law([1, 2, 3, 4], [1, 2, 3, bad])
        with pytest.raises(ConfigError):
            analysis.fit_power_law([1, 2, 3, bad], [1, 2, 3, 4])


def test_cost_report_dict_roundtrip():
    payload = analysis.cost_report(2048, 32, 4)
    assert set(payload) == {
        "L", "d", "K", "inner_layers", "flops_vanilla", "flops_merged",
        "flops_inner_trans", "reduction_ratio", "reduction_ratio_exact",
        "params_per_block", "params_merged_block"}
    assert json.loads(json.dumps(payload)) == payload
    assert payload["flops_vanilla"] == 587_202_560
    assert payload["flops_merged"] == 335_544_320
    assert payload["reduction_ratio_exact"] == [3, 7]
    assert math.isclose(payload["reduction_ratio"], 3 / 7)
    assert payload["params_per_block"] == 12_704
    assert payload["params_merged_block"] == 198_272


def fit_battery(count=300, seed=14):
    """Seeded (x, y) sets of 4-9 distinct points with x from 1e-3 to 1e9:
    noisy increasing and decreasing power laws, and pure noise."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(4, 10))
        x = np.sort(rng.choice(np.arange(1, 1001), n, replace=False)) \
            * 10.0 ** int(rng.integers(-3, 7))
        size = 10.0 ** rng.uniform(-2, 3)
        if i % 3 == 2:
            yield x, size * rng.normal(size=n)
            continue
        beta = rng.uniform(0.1, 1.5) * (1 if i % 3 == 0 else -1)
        curve = (x / x[0]) ** beta
        curve = (curve - curve.min()) / (curve.max() - curve.min())
        noise = 10.0 ** rng.uniform(-4, -1) * rng.normal(size=n)
        yield x, size * (curve + noise + rng.uniform(-1, 1))


def grid_lstsq_sse(x, y):
    """The least SSE of y on [x^beta, 1] over beta in [-50, 50] in steps of
    0.01, skipping betas at which some x^beta overflows. ``np.linalg.pinv``
    gives the least-squares solution for the whole stack of designs at once,
    where ``np.linalg.lstsq`` takes one design per call."""
    with np.errstate(over="ignore", under="ignore"):
        cols = x ** (np.arange(-5000, 5001) / 100.0)[:, None]
    cols = cols[np.isfinite(cols).all(axis=1)]
    design = np.stack([cols, np.ones_like(cols)], axis=2)
    coef = np.linalg.pinv(design) @ y
    resid = np.einsum("bij,bj->bi", design, coef) - y
    return float((resid * resid).sum(axis=1).min())


def test_fit_battery_reaches_grid_optimum():
    for x, y in fit_battery():
        fit = analysis.fit_power_law(x, y)
        assert np.isfinite([fit.alpha, fit.beta, fit.gamma, fit.r_squared]).all()
        best = grid_lstsq_sse(x, y)
        assert fit.sse <= (1 + 1e-9) * best + 1e-15, (x, y, fit.sse, best)
