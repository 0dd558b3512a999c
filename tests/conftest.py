"""Shared fixtures, the central finite-difference gradient checker, the
constant readout that turns a tensor into a loss, the per-sample mean loss
that batched tapes are checked against, the counted-vs-analytic MAC check
of naive and cached scoring, and the generator's windowed oracle."""

import numpy as np
import pytest

from longrec import analysis
from longrec import tensors as T
from longrec.config import GeneratorConfig, ModelConfig
from longrec.inputs import Candidate, Sample, interest_of
from longrec.serving import build_cache, score_with_cache


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def fd_check(build_loss, named_tensors, tol=1e-4, h=1e-5, max_coords=6, seed=0):
    """Central finite differences against recorded backward passes.

    ``build_loss`` must construct a fresh scalar loss from the live tensors
    each call; only the first call runs inside a tape. For every tensor a
    deterministic sample of coordinates is perturbed; relative error must
    stay within ``tol``.
    """
    rng = np.random.default_rng(seed)
    for _, t in named_tensors:
        t.zero_grad()
    with T.tape():
        build_loss().backward()
    worst = 0.0
    for name, t in named_tensors:
        grad = np.zeros_like(t.data) if t.grad is None else t.grad.copy()
        flat = t.data.reshape(-1)
        gflat = grad.reshape(-1)
        n = flat.size
        coords = rng.choice(n, size=min(max_coords, n), replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + h
            up = float(build_loss().data)
            flat[c] = orig - h
            down = float(build_loss().data)
            flat[c] = orig
            fd = (up - down) / (2 * h)
            err = rel_err(gflat[c], fd)
            worst = max(worst, err)
            assert err <= tol, (
                f"{name}[{c}]: analytic {gflat[c]:.8g} vs fd {fd:.8g} "
                f"(rel {err:.3g} > {tol})")
    for _, t in named_tensors:
        t.zero_grad()
    return worst


def bayes_window_scores(dataset, gen_config, window=None) -> np.ndarray:
    """Oracle scores from the generative rule restricted to a visible window.

    Scores ``gen_config.p_hit`` when any of the last ``window`` events shares
    the candidate's interest and ``p_miss`` otherwise; with ``window=None``
    the whole history is visible. On noise-free planted data the full-window
    oracle recovers the latent hit flag exactly.
    """
    out = np.empty(len(dataset.samples))
    for i, s in enumerate(dataset.samples):
        items = s.events.item_id if window is None else s.events.item_id[-window:]
        c = interest_of(s.candidate.item_id, gen_config.n_interests)
        seen = (interest_of(items, gen_config.n_interests) == c).any()
        out[i] = gen_config.p_hit if seen else gen_config.p_miss
    return out


def n_params(obj) -> int:
    """The values of the parameters that ``obj.params()`` lists."""
    return sum(t.size for _, t in obj.params())


def readout(y, w) -> T.Tensor:
    """``y @ w`` for a constant (p, q) ``w``: ``T.linear`` with a zero bias,
    the tests' way to read a tensor out into a scalar loss."""
    w = np.asarray(w, dtype=np.float64)
    return T.linear(y, w, np.zeros(w.shape[1]))


def mean_scalars(parts) -> T.Tensor:
    """Mean of scalar tensors (batch loss reduction)."""
    parts = [T.as_tensor(p) for p in parts]
    n = len(parts)
    out = T.Tensor(np.asarray(sum(float(p.data.reshape(-1)[0]) for p in parts) / n))
    if T._track(*parts):
        shares = [(p.node, p.shape) for p in parts]
        def bw(g):
            share = float(g) / n
            for node, shape in shares:
                if node is not None:
                    node.accumulate(np.full(shape, share), owned=True)
        T._attach(out, bw)
    return out


def counted_muladds(model, users, n_candidates, seed=0):
    """Counted MACs of scoring ``n_candidates`` per user naively (one full
    forward each) and cached (one cache build, then one batched pass over
    the candidates' target rows).

    Each user's two ``count_muladds`` windows must equal the analytic model
    exactly; returns the (naive, cached) totals over all users.
    """
    cfg = model.cfg
    rng = np.random.default_rng(seed)
    naive = cached = 0
    for base in users:
        t = base.candidate.timestamp
        cands = [Candidate(int(rng.integers(cfg.vocab)), t)
                 for _ in range(n_candidates)]
        n_events = min(len(base.events), cfg.L)
        with T.count_muladds() as w:
            for cand in cands:
                model.score(Sample(base.events, base.user_features, cand, 0))
        assert w.mul_adds == n_candidates * analysis.muladds_full_forward(cfg, n_events)
        naive += w.mul_adds
        with T.count_muladds() as w:
            cache = build_cache(model, base.events, base.user_features, t)
            score_with_cache(model, cache, cands)
        assert w.mul_adds == (analysis.muladds_cache_build(cfg, n_events)
                              + n_candidates * analysis.muladds_incremental(cfg))
        cached += w.mul_adds
    return naive, cached


@pytest.fixture
def tiny_cfg():
    return ModelConfig(L=8, d=2, K=2, m=3, k=3, N=2, heads=1,
                       d_item=3, d_act=2, d_time=2, n_time_buckets=8,
                       vocab=12, n_actions=3, n_users=6, n_profiles=4,
                       head_hidden=5)


@pytest.fixture
def tiny_gen_cfg():
    return GeneratorConfig(n_users=6, vocab=12, L_max=8, L_min=4,
                           n_interests=4, interests_per_user=2,
                           n_actions=3, n_profiles=4)
