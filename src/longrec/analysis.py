"""Analytic cost model, ranking metrics, and the power-law curve fitter.

Cost formulas are exact integer arithmetic (Python ints never overflow).
The FLOPs convention is forward-only with one multiply-accumulate counted
as two FLOPs: QKV/output projections plus the 4x FFN give 24*L*d^2 per
layer and the two attention products give 4*L^2*d. The instrumented
counter in the tensors module records MACs, so instrumented counts match
these formulas after multiplying by two. ``cost_report`` gathers one working
point's figures into the plain dict that ``longrec cost --json`` prints.
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
    return 2 * _block_muladds(d, L, L)


def flops_merged(L: int, d: int, K: int) -> int:
    """Forward FLOPs of one layer after merging K-token groups.

    The layer runs at width K*d over L/K tokens: 24*L*K*d^2 + 4*L^2*d/K.
    K must divide L.
    """
    if K < 1:
        raise ConfigError("K must be >= 1")
    if L % K:
        raise ConfigError(f"K={K} does not divide L={L}")
    return flops_vanilla(L // K, K * d)


def flops_inner(L: int, d: int, K: int, inner_layers: int = 1) -> int:
    """Forward FLOPs of the per-group transformers run before merging.

    L/K groups, each a width-d layer over K tokens: (L/K) * (24*K*d^2 + 4*K^2*d)
    per inner layer. Reported separately from the merged-layer headline cost.
    """
    if K < 1:
        raise ConfigError("K must be >= 1")
    if L % K:
        raise ConfigError(f"K={K} does not divide L={L}")
    if inner_layers < 1:
        raise ConfigError("inner_layers must be >= 1")
    return inner_layers * (L // K) * flops_vanilla(K, d)


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
    return params_block(K * d)


def cost_report(L: int, d: int, K: int, inner_layers: int = 1) -> dict:
    """The exact per-layer cost comparison at (L, d, K), as ``longrec cost
    --json`` prints it: the reduction ratio as a float and as its exact
    [numerator, denominator]."""
    ratio = reduction_ratio(L, d, K)
    return {
        "L": L, "d": d, "K": K, "inner_layers": inner_layers,
        "flops_vanilla": flops_vanilla(L, d),
        "flops_merged": flops_merged(L, d, K),
        "flops_inner_trans": flops_inner(L, d, K, inner_layers),
        "reduction_ratio": float(ratio),
        "reduction_ratio_exact": [ratio.numerator, ratio.denominator],
        "params_per_block": params_block(d),
        "params_merged_block": params_merged_block(d, K),
    }


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

    Enumerates every matrix product the implementation executes: the per-event
    featurizer (real events only), global-token assembly, the per-group
    transformers (when enabled; over the history's whole groups, K*ceil(n/K)
    rows, never over a group without an event), the cross
    layer, N self layers, and the head. The last self layer projects keys
    and values for all q = k + m rows but computes only the CLS and target
    rows the head reads: 2*q*D^2 + 2*(10*D^2 + 2*q*D).
    """
    return _stack_muladds(cfg, n_events, targets=1) + _head_muladds(cfg)


def muladds_cache_build(cfg: ModelConfig, n_events: int) -> int:
    """MACs to precompute the candidate-independent rows of every layer.

    As the full forward without the target row, whose last self layer
    computes only the CLS row: 2*q*D^2 + (10*D^2 + 2*q*D) for q = k + m - 1.
    """
    return _stack_muladds(cfg, n_events, targets=0)


def _stack_muladds(cfg: ModelConfig, n_events: int, targets: int) -> int:
    """The candidate-free tokens and ``targets`` (0 or 1) target tokens
    through every layer; the last self layer computes the CLS row and the
    target rows."""
    d, D, F = cfg.d, cfg.D, cfg.feat_width
    q = cfg.k + cfg.m - 1 + targets
    v = cfg.merged_len + cfg.m - 1 + targets
    total = n_events * (F * d + 4 * d * D)            # featurizer + token MLP
    total += d * D + (cfg.m - 1) * 4 * D * D          # UID lift + global MLP
    total += targets * (F * d + d * D + 4 * D * D)    # target featurizer + MLP
    if cfg.merge_mode == "inner":
        rows = -(-n_events // cfg.K) * cfg.K          # the history's whole groups
        total += cfg.inner_layers * (12 * rows * d * d + 2 * rows * cfg.K * d)
    total += _block_muladds(D, v, q)                  # cross layer
    total += (cfg.N - 1) * _block_muladds(D, q, q) + _block_muladds(D, q, 1 + targets)
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
    _, group, counts = np.unique(s, return_inverse=True, return_counts=True,
                                 equal_nan=False)
    last = np.cumsum(counts)               # 1-based rank of each group's last
    ranks = (last - 0.5 * (counts - 1))[group]   # average 1-based rank
    rank_sum_pos = float(ranks[y == 1].sum())
    return (rank_sum_pos - pos * (pos + 1) / 2.0) / (pos * neg)


def logloss(scores, labels) -> float:
    """Mean binary cross-entropy with probabilities clamped to
    [1e-12, 1 - 1e-12]."""
    p = np.clip(np.asarray(scores, dtype=np.float64), 1e-12, 1.0 - 1e-12)
    y = np.asarray(labels, dtype=np.float64)
    return float(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).mean())


# ----------------------------- power-law fitting -----------------------------


@dataclass
class FitResult:
    """Least-squares fit of y = alpha * x^beta + gamma by variable projection.
    ``converged`` means a finite SSE at the optimum."""

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


_BETA_GRID = np.arange(-1000, 1001) / 20.0      # [-50, 50] in steps of 0.05
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_REFINE_ITERS = 60


def fit_power_law(xs, ys) -> FitResult:
    """Least squares for y = alpha * x^beta + gamma by variable projection.

    For a fixed beta the best alpha and gamma are the linear regression of
    y on x^beta (Golub and Pereyra 1973), so only beta is searched: a grid
    of step 0.05 on [-50, 50] where x^beta and alpha are finite, then
    golden-section search between the best grid point's neighbours. The
    regression runs on x / geometric_mean(x), which keeps its powers near
    1. The fit runs in untransformed space because a nonzero gamma breaks
    log-log linearity.
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

    scale = math.exp(float(np.log(x).mean()))
    u = x / scale
    yc = y - mean_y

    def profile(betas):
        """Per beta, the regression of y on x^beta: alpha, gamma and the SSE
        (inf where x^beta or alpha is not finite)."""
        with np.errstate(all="ignore"):
            ub = u ** betas[:, None]
            uc = ub - ub.mean(axis=1, keepdims=True)
            sxx = (uc * uc).sum(axis=1)
            a = np.where(sxx > 0, (uc @ yc) / sxx, 0.0)
            r = yc - a[:, None] * uc
            sse = (r * r).sum(axis=1)
            alpha = a * scale ** -betas
            ok = (np.isfinite(x ** betas[:, None]).all(axis=1)
                  & np.isfinite(alpha) & np.isfinite(sse))
        return alpha, mean_y - a * ub.mean(axis=1), np.where(ok, sse, np.inf)

    grid_sse = profile(_BETA_GRID)[2]
    i = int(np.argmin(grid_sse))
    lo, hi = _BETA_GRID[np.clip([i - 1, i + 1], 0, _BETA_GRID.size - 1)]
    for _ in range(_REFINE_ITERS):
        c, d = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
        sse_c, sse_d = profile(np.array([c, d]))[2]
        lo, hi = (lo, d) if sse_c < sse_d else (c, hi)
    betas = np.array([_BETA_GRID[i], 0.5 * (lo + hi)])
    alphas, gammas, sses = profile(betas)
    j = int(np.argmin(sses))
    alpha, beta, gamma = float(alphas[j]), float(betas[j]), float(gammas[j])
    resid = alpha * x ** beta + gamma - y
    sse = float(resid @ resid)
    return FitResult(alpha=alpha, beta=beta, gamma=gamma,
                     r_squared=1.0 - sse / sst, residuals=resid, sse=sse,
                     converged=math.isfinite(sse))
