"""Analytic cost model, ranking metrics, and the power-law curve fitter.

Cost formulas are exact integer arithmetic (Python ints never overflow).
The FLOPs convention is forward-only with one multiply-accumulate counted
as two FLOPs: QKV/output projections plus the 4x FFN give 24*L*d^2 per
layer and the two attention products give 4*L^2*d. The instrumented
counter in the tensors module records MACs, so instrumented counts match
these formulas after multiplying by two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .config import ModelConfig
from .errors import ConfigError, UndefinedMetricError

# ----------------------------- FLOPs / parameters -----------------------------


def flops_vanilla(L: int, d: int) -> int:
    """Forward FLOPs of one standard transformer layer: 24*L*d^2 + 4*L^2*d."""
    if L < 1 or d < 1:
        raise ConfigError("L and d must be >= 1")
    return 24 * L * d * d + 4 * L * L * d


def flops_merged(L: int, d: int, K: int) -> int:
    """Forward FLOPs of one layer after merging K-token groups.

    The layer runs at width K*d over L/K tokens: 24*L*K*d^2 + 4*L^2*d/K.
    K must divide L.
    """
    if K < 1:
        raise ConfigError("K must be >= 1")
    if L % K:
        raise ConfigError(f"K={K} does not divide L={L}")
    return 24 * L * K * d * d + (4 * L * L * d) // K


def flops_inner(L: int, d: int, K: int, inner_layers: int = 1) -> int:
    """Forward FLOPs of the per-group transformers run before merging.

    L/K groups, each a width-d layer over K tokens: (L/K) * (24*K*d^2 + 4*K^2*d)
    per inner layer. Reported separately from the merged-layer headline cost.
    """
    if L % K:
        raise ConfigError(f"K={K} does not divide L={L}")
    if inner_layers < 1:
        raise ConfigError("inner_layers must be >= 1")
    return inner_layers * (L // K) * (24 * K * d * d + 4 * K * K * d)


def reduction_ratio(L: int, d: int, K: int) -> Fraction:
    """Exact fractional FLOPs reduction 1 - merged/vanilla."""
    return 1 - Fraction(flops_merged(L, d, K), flops_vanilla(L, d))


def params_block(width: int) -> int:
    """Parameters of one transformer block at a given width: 12*w^2 + 13*w.

    Decomposition: four w x w projections with biases (4w^2 + 4w), the
    4x FFN with biases (8w^2 + 5w), and two layer norms (4w).
    """
    return 12 * width * width + 13 * width


def params_merged_block(d: int, K: int) -> int:
    """Block parameters after merging: 12*K^2*d^2 + 13*K*d (= params_block(K*d))."""
    return 12 * K * K * d * d + 13 * K * d


@dataclass
class CostReport:
    """Exact per-layer cost comparison for a (L, d, K) working point."""

    L: int
    d: int
    K: int
    inner_layers: int
    flops_vanilla: int
    flops_merged: int
    flops_inner_trans: int
    reduction_ratio: Fraction
    params_per_block: int
    params_merged_block: int

    def to_dict(self) -> dict:
        out = {
            "L": self.L, "d": self.d, "K": self.K, "inner_layers": self.inner_layers,
            "flops_vanilla": self.flops_vanilla,
            "flops_merged": self.flops_merged,
            "flops_inner_trans": self.flops_inner_trans,
            "reduction_ratio": float(self.reduction_ratio),
            "reduction_ratio_exact": [self.reduction_ratio.numerator,
                                      self.reduction_ratio.denominator],
            "params_per_block": self.params_per_block,
            "params_merged_block": self.params_merged_block,
        }
        return out


def cost_report(L: int, d: int, K: int, inner_layers: int = 1) -> CostReport:
    return CostReport(
        L=L, d=d, K=K, inner_layers=inner_layers,
        flops_vanilla=flops_vanilla(L, d),
        flops_merged=flops_merged(L, d, K),
        flops_inner_trans=flops_inner(L, d, K, inner_layers),
        reduction_ratio=reduction_ratio(L, d, K),
        params_per_block=params_block(d),
        params_merged_block=params_merged_block(d, K),
    )


def count_params(cfg: ModelConfig) -> dict:
    """Itemized exact parameter counts for a model built from ``cfg``.

    Mirrors the model's parameter inventory one-for-one; the test suite
    asserts equality against the enumerated arrays for random configs.
    """
    d, D = cfg.d, cfg.D
    F = cfg.feat_width
    emb = (cfg.vocab * cfg.d_item + cfg.n_actions * cfg.d_act
           + cfg.n_time_buckets * cfg.d_time + cfg.n_users * d
           + cfg.n_profiles * d + cfg.L * d + (cfg.m - 2) * D)
    input_mlp = ((F * d + d)                # concat-feature projection to d
                 + (d * 2 * D + 2 * D) + (2 * D * d + d)   # per-token MLP
                 + (d * D + D)              # lift of d-wide globals to D
                 + (D * 2 * D + 2 * D) + (2 * D * D + D))  # global-token MLP
    merge = cfg.inner_layers * params_block(d) if cfg.merge_mode == "inner" else 0
    blocks = (cfg.N + 1) * params_block(D)
    bank = cfg.k * D if cfg.query_strategy == "learnable" else 0
    head_in = 4 * D + 2 * d      # target, CLS, two products, user side
    head = head_in * cfg.head_hidden + cfg.head_hidden + cfg.head_hidden + 1
    breakdown = {
        "embeddings": emb,
        "input_mlp": input_mlp,
        "merge": merge,
        "blocks": blocks,
        "query_bank": bank,
        "head": head,
    }
    breakdown["total"] = sum(breakdown.values())
    return breakdown


# ----------------------------- instrumented MAC model -----------------------------


def muladds_full_forward(cfg: ModelConfig, n_events: int) -> int:
    """Exact MACs of one full forward pass with ``n_events`` real events.

    Enumerates every matmul the implementation executes: the per-event
    featurizer (real events only), global-token assembly, the per-group
    transformers (batched over the padded grid when enabled), the cross
    layer, N self layers, and the head. The last self layer projects keys
    and values for all q = k + m rows but computes only the CLS and target
    rows the head reads: 2*q*D^2 + 2*(10*D^2 + 2*q*D).
    """
    d, D, F = cfg.d, cfg.D, cfg.feat_width
    q = cfg.k + cfg.m
    v = cfg.merged_len + cfg.m
    total = n_events * (F * d + 4 * d * D)            # featurizer + token MLP
    total += F * d + 2 * d * D + cfg.m * 4 * D * D    # globals: target feat, lifts, MLP
    if cfg.merge_mode == "inner":
        Lp = cfg.L_padded
        total += cfg.inner_layers * (12 * Lp * d * d + 2 * Lp * cfg.K * d)
    total += _block_muladds(D, v, q)                  # cross layer
    total += (cfg.N - 1) * _block_muladds(D, q, q) + _block_muladds(D, q, 2)
    total += _head_muladds(cfg)
    return total


def muladds_cache_build(cfg: ModelConfig, n_events: int) -> int:
    """MACs to precompute the candidate-independent rows of every layer.

    As the full forward without the target row, whose last self layer
    computes only the CLS row: 2*q*D^2 + (10*D^2 + 2*q*D) for q = k + m - 1.
    """
    d, D, F = cfg.d, cfg.D, cfg.feat_width
    q = cfg.k + cfg.m - 1             # everything except the target row
    v = cfg.merged_len + cfg.m - 1
    total = n_events * (F * d + 4 * d * D)
    total += d * D + (cfg.m - 1) * 4 * D * D          # UID lift + global MLP (no target)
    if cfg.merge_mode == "inner":
        Lp = cfg.L_padded
        total += cfg.inner_layers * (12 * Lp * d * d + 2 * Lp * cfg.K * d)
    total += _block_muladds(D, v, q)
    total += (cfg.N - 1) * _block_muladds(D, q, q) + _block_muladds(D, q, 1)
    return total


def _block_muladds(D: int, keys: int, queries: int) -> int:
    """One block at width D whose ``queries`` rows attend over ``keys`` rows:
    key and value projections 2*keys*D^2, then per query row the query and
    output projections and the 4x FFN (10*D^2) and its scores and context
    (2*keys*D)."""
    return 2 * keys * D * D + queries * (10 * D * D + 2 * keys * D)


def muladds_incremental(cfg: ModelConfig) -> int:
    """MACs to score one candidate against a built cache (target row only)."""
    d, D, F = cfg.d, cfg.D, cfg.feat_width
    v1 = cfg.merged_len + cfg.m       # cached keys + the candidate's own row
    vs = cfg.k + cfg.m
    total = F * d + d * D + 4 * D * D                 # candidate featurizer + MLP
    total += 12 * D * D + 2 * v1 * D                  # cross layer, single query
    total += cfg.N * (12 * D * D + 2 * vs * D)
    total += _head_muladds(cfg)
    return total


def _head_muladds(cfg: ModelConfig) -> int:
    head_in = 4 * cfg.D + 2 * cfg.d
    return head_in * cfg.head_hidden + cfg.head_hidden


# ----------------------------- metrics -----------------------------


def auc(scores, labels) -> float:
    """Area under the ROC curve via the rank (Mann-Whitney) formulation.

    Ties contribute one half through average ranks. Raises when only one
    class is present.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise UndefinedMetricError("scores and labels must be equal-length vectors")
    pos = int((y == 1).sum())
    neg = int((y == 0).sum())
    if pos + neg != y.size:
        raise UndefinedMetricError("labels must be 0/1")
    if pos == 0 or neg == 0:
        raise UndefinedMetricError("AUC undefined with a single class")
    order = np.argsort(s, kind="mergesort")
    ranks = np.empty(s.size, dtype=np.float64)
    sorted_s = s[order]
    i = 0
    while i < s.size:
        j = i
        while j + 1 < s.size and sorted_s[j + 1] == sorted_s[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0   # average 1-based rank
        i = j + 1
    rank_sum_pos = float(ranks[y == 1].sum())
    return (rank_sum_pos - pos * (pos + 1) / 2.0) / (pos * neg)


def logloss(scores, labels, eps: float = 1e-12) -> float:
    """Mean binary cross-entropy with probabilities clamped away from {0, 1}."""
    p = np.clip(np.asarray(scores, dtype=np.float64), eps, 1.0 - eps)
    y = np.asarray(labels, dtype=np.float64)
    return float(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).mean())


# ----------------------------- power-law fitting -----------------------------


@dataclass
class FitResult:
    """Fit of y = alpha * x^beta + gamma by damped Gauss-Newton."""

    alpha: float
    beta: float
    gamma: float
    r_squared: float
    residuals: np.ndarray = field(repr=False)
    sse: float = 0.0
    converged: bool = True
    degenerate: bool = False

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha, "beta": self.beta, "gamma": self.gamma,
            "r_squared": self.r_squared, "sse": self.sse,
            "converged": self.converged, "degenerate": self.degenerate,
            "residuals": [float(r) for r in self.residuals],
        }


_BETA_STARTS = (-1.0, -0.5, -0.1, 0.1, 0.5, 1.0)
_MAX_ITERS = 200


def fit_power_law(xs, ys) -> FitResult:
    """Nonlinear least squares for y = alpha * x^beta + gamma.

    Damped Gauss-Newton (Levenberg-Marquardt style): solve
    (J^T J + lam * diag(J^T J)) * step = -J^T r, accept the step when SSE
    drops (lam /= 3) and reject otherwise (lam *= 10, retry). Multi-start
    over beta in {-1, -0.5, -0.1, 0.1, 0.5, 1} with gamma seeded at min(ys)
    for increasing data (max(ys) for decreasing) and alpha from the closed
    1-D least squares given (beta, gamma). Best start by SSE wins. The fit
    runs in untransformed space because a nonzero gamma breaks log-log
    linearity.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ConfigError("xs and ys must be equal-length vectors")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ConfigError("xs and ys must be finite")
    if x.size < 4:
        raise ConfigError("need at least 4 points to fit a 3-parameter curve")
    if np.any(x <= 0):
        raise ConfigError("xs must be strictly positive")
    if np.unique(x).size != x.size:
        raise ConfigError("xs must be distinct")

    mean_y = float(y.mean())
    sst = float(((y - mean_y) ** 2).sum())
    if sst < 1e-30:
        # Constant data: beta indeterminate, report the flat curve.
        return FitResult(alpha=0.0, beta=0.0, gamma=mean_y, r_squared=1.0,
                         residuals=np.zeros_like(y), sse=0.0,
                         converged=True, degenerate=True)

    increasing = float(np.corrcoef(x, y)[0, 1]) >= 0.0
    gamma0 = float(y.min()) if increasing else float(y.max())

    best = None
    for beta0 in _BETA_STARTS:
        theta0 = np.array([_alpha_ls(x, y, beta0, gamma0), beta0, gamma0])
        theta, sse, converged = _lm_minimize(x, y, theta0)
        if best is None or sse < best[1] - 1e-18:
            best = (theta, sse, converged)

    theta, sse, converged = best
    resid = _residuals(x, y, theta)
    r2 = 1.0 - sse / sst
    return FitResult(alpha=float(theta[0]), beta=float(theta[1]),
                     gamma=float(theta[2]), r_squared=float(r2),
                     residuals=resid, sse=float(sse), converged=converged)


def _alpha_ls(x, y, beta, gamma) -> float:
    xb = x ** beta
    denom = float((xb * xb).sum())
    if denom <= 0:
        return 0.0
    return float(((y - gamma) * xb).sum() / denom)


def _residuals(x, y, theta):
    a, b, c = theta
    with np.errstate(over="ignore", invalid="ignore"):
        model = a * np.power(x, b) + c
    return model - y


def _lm_minimize(x, y, theta0):
    theta = theta0.copy()
    r = _residuals(x, y, theta)
    if not np.all(np.isfinite(r)):
        return theta, math.inf, False
    sse = float(r @ r)
    lam = 1e-3
    for _ in range(_MAX_ITERS):
        a, b, _ = theta
        with np.errstate(over="ignore", invalid="ignore"):
            xb = np.power(x, b)
        J = np.stack([xb, a * xb * np.log(x), np.ones_like(x)], axis=1)
        if not np.all(np.isfinite(J)):
            return theta, sse, False
        jtj = J.T @ J
        jtr = J.T @ r
        accepted = False
        for _ in range(50):
            damped = jtj + lam * np.diag(np.diag(jtj).clip(min=1e-12))
            try:
                step = np.linalg.solve(damped, -jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = theta + step
            trial[1] = float(np.clip(trial[1], -50.0, 50.0))
            r_trial = _residuals(x, y, trial)
            if np.all(np.isfinite(r_trial)):
                sse_trial = float(r_trial @ r_trial)
                if sse_trial <= sse:
                    improvement = sse - sse_trial
                    theta, r, sse = trial, r_trial, sse_trial
                    lam = max(lam / 3.0, 1e-14)
                    accepted = True
                    if improvement <= 1e-15 * max(sse, 1.0):
                        return theta, sse, True
                    break
            lam *= 10.0
        if not accepted:
            return theta, sse, True   # damping exhausted: local optimum reached
        if float(np.abs(step).max()) <= 1e-14 * (1.0 + float(np.abs(theta).max())):
            return theta, sse, True
    return theta, sse, False
