"""Two-stage inference: build a per-user cache once, score candidates cheaply.

Stage 1 runs ``LongRecModel.user_rows`` and every layer over the rows that
do not depend on the candidate item, and keeps each layer's projected
key/value rows, those rows' activations, the CLS output and the user-side
head features. Stage 2 pushes only the candidate's target-global row
through the same ``attention_block`` with the cached rows as its key
prefix, then through the model's ``_head``. Because the visibility rule
forbids every other row from attending to the target row, stage 2
reproduces the full forward pass for that row; agreement is asserted at
1e-9 (the single-row path may round differently from the batched path).

The cache is keyed by ``LongRecModel.fingerprint()``, a digest of the
config and the parameter bytes; scoring against a model with any other
weights raises StaleCacheError. Time-difference features are measured from
``scoring_time`` (one per user session), so the cache is a pure function
of (user events, user features, scoring time, parameters) — never of any
candidate.

Caches are immutable after build; one cache may serve concurrent score
calls over frozen parameters. MAC counting is process-wide, so a
``count_muladds`` window (and ``bench_serving``'s exact check) needs one
thread scoring at a time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import analysis
from . import tensors as T
from .attention import attention_block
from .errors import ConfigError, StaleCacheError
from .inputs import Candidate, Sample, UserFeatures, target_global_token
from .model import LongRecModel
from .tensors import Tensor


@dataclass
class LayerCache:
    keys: np.ndarray             # candidate-independent key rows, forward order
    values: np.ndarray
    activations: np.ndarray      # the same rows after the block


@dataclass
class KVCache:
    user_id: int
    scoring_time: int
    fingerprint: str
    layers: list                 # one LayerCache per block (cross + N self)
    target_visible_cross: np.ndarray   # (1, G+m) bool: the target's key row
    target_visible_self: np.ndarray    # (1, k+m) bool
    cls_final: np.ndarray        # (1, D) CLS output of the last layer
    user_side: np.ndarray        # (1, 2d) head features

    def size_floats(self) -> int:
        total = self.cls_final.size + self.user_side.size
        for layer in self.layers:
            total += layer.keys.size + layer.values.size + layer.activations.size
        return total


def cache_size_floats(cfg) -> int:
    """Analytic cache footprint in float64 values, asserted against builds.

    Key/value pairs: the cross layer caches merged_len + m - 1 rows and each
    self layer k + m - 1 rows, all at width D, giving
    2*D*((merged_len + m - 1) + N*(k + m - 1)). Activations add D per cached
    query row per block, (N+1)*D*(k + m - 1). Plus the CLS output (D) and
    the user-side features (2d).
    """
    D = cfg.D
    cross_rows = cfg.merged_len + cfg.m - 1
    self_rows = cfg.k + cfg.m - 1
    kv = 2 * D * (cross_rows + cfg.N * self_rows)
    act = D * (cfg.N + 1) * self_rows
    return kv + act + D + 2 * cfg.d


def build_cache(model: LongRecModel, user_events, user_features: UserFeatures,
                scoring_time: int) -> KVCache:
    """Run the candidate-independent part of the forward pass and store it.

    The construction takes no candidate; all candidates later scored against
    this cache must carry ``scoring_time`` as their timestamp, because the
    time-difference features are measured from it.
    """
    cfg = model.cfg
    with T.no_grad():
        u = model.user_rows(user_events, user_features, scoring_time)
        o = T.concat_rows([u.selected.tokens, u.globals])
        r = T.concat_rows([u.merged, u.globals])
        x, k, v = attention_block(o, r, u.visible_cross[:-1, :-1],
                                  model.cross_block, cfg.heads)
        layers = [LayerCache(k.data, v.data, x.data)]
        for blk in model.self_blocks:
            x, k, v = attention_block(x, x, u.visible_self[:-1, :-1], blk, cfg.heads)
            layers.append(LayerCache(k.data, v.data, x.data))
    return KVCache(user_id=user_features.uid, scoring_time=int(scoring_time),
                   fingerprint=model.fingerprint(), layers=layers,
                   target_visible_cross=u.visible_cross[-1:],
                   target_visible_self=u.visible_self[-1:],
                   cls_final=x.data[cfg.k + 1:cfg.k + 2],
                   user_side=u.user_side.data)


def score_with_cache(model: LongRecModel, cache: KVCache,
                     candidate: Candidate) -> float:
    """Score one candidate against a prebuilt cache (target row only)."""
    fingerprint = model.fingerprint()
    if cache.fingerprint != fingerprint:
        raise StaleCacheError(
            f"cache fingerprint {cache.fingerprint} != model {fingerprint}; "
            "rebuild after parameter updates")
    if candidate.timestamp != cache.scoring_time:
        raise StaleCacheError(
            f"candidate timestamp {candidate.timestamp} != cache scoring time "
            f"{cache.scoring_time}")
    cfg = model.cfg
    first = cache.layers[0]
    with T.no_grad():
        g = target_global_token(candidate, model.tables, cfg)
        g, _, _ = attention_block(g, g, cache.target_visible_cross,
                                  model.cross_block, cfg.heads,
                                  prefix_kv=(first.keys, first.values))
        for blk, layer in zip(model.self_blocks, cache.layers[1:]):
            g, _, _ = attention_block(g, g, cache.target_visible_self, blk,
                                      cfg.heads, prefix_kv=(layer.keys, layer.values))
        p = model._head(g, Tensor(cache.cls_final), Tensor(cache.user_side))
    return float(p.data.reshape(-1)[0])


# ----------------------------- batch scoring -----------------------------


@dataclass
class ScoreRequest:
    user_id: int
    candidates: list             # of Candidate; all share one timestamp


@dataclass
class ScoreResponse:
    user_id: int
    probabilities: list
    cache_build_ns: int
    per_candidate_ns: list

    def to_json_dict(self) -> dict:
        return {"user_id": self.user_id,
                "probabilities": self.probabilities,
                "cache_build_ns": self.cache_build_ns,
                "per_candidate_ns": self.per_candidate_ns}


def score_request(model: LongRecModel, sample_store: dict,
                  request: ScoreRequest) -> ScoreResponse:
    """Serve one request with a per-user cache; response order = request order.

    ``sample_store`` maps user_id to the user's base sample (events and
    features). All candidates in one request must share one timestamp, which
    becomes the cache's scoring time.
    """
    if request.user_id not in sample_store:
        raise ConfigError(f"unknown user_id {request.user_id}")
    base = sample_store[request.user_id]
    if request.candidates:
        stamps = {c.timestamp for c in request.candidates}
        if len(stamps) > 1:
            raise ConfigError("candidates in one request must share a timestamp")
        scoring_time = request.candidates[0].timestamp
    else:
        scoring_time = base.candidate.timestamp
    if base.events and base.events[-1].timestamp > scoring_time:
        raise ConfigError("scoring time precedes the last user event")
    t0 = time.perf_counter_ns()
    cache = build_cache(model, base.events, base.user_features, scoring_time)
    build_ns = time.perf_counter_ns() - t0
    probs, times = [], []
    for cand in request.candidates:
        t1 = time.perf_counter_ns()
        probs.append(score_with_cache(model, cache, cand))
        times.append(time.perf_counter_ns() - t1)
    return ScoreResponse(request.user_id, probs, build_ns, times)


# ----------------------------- micro-benchmark -----------------------------


@dataclass
class BenchRow:
    config_fingerprint: str
    n_candidates: int
    naive_muladds: int
    cached_muladds: int
    naive_ns: int
    cached_ns: int
    incremental_muladds_per_candidate: int
    analytic_naive_muladds: int
    analytic_cached_muladds: int


@dataclass
class BenchReport:
    rows: list = field(default_factory=list)

    CSV_HEADER = ("config,candidates,naive_muladds,cached_muladds,naive_ns,"
                  "cached_ns,incremental_muladds_per_candidate,"
                  "analytic_naive_muladds,analytic_cached_muladds")

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.config_fingerprint},{r.n_candidates},{r.naive_muladds},"
                f"{r.cached_muladds},{r.naive_ns},{r.cached_ns},"
                f"{r.incremental_muladds_per_candidate},"
                f"{r.analytic_naive_muladds},{r.analytic_cached_muladds}")
        return "\n".join(lines) + "\n"


def bench_serving(model: LongRecModel, users, candidates_per_user: int,
                  repetitions: int = 1, seed: int = 0) -> BenchReport:
    """Compare naive per-candidate recomputation against cached scoring.

    ``users`` are samples whose events and features define the per-user
    state; candidates are drawn deterministically from ``seed`` and share
    the user's scoring time. Counted MACs must match the analytic model
    exactly or the benchmark aborts. Wall times take the best of
    ``repetitions`` runs; zero repetitions (or no users) returns an empty
    report without error.
    """
    report = BenchReport()
    if repetitions <= 0 or not users or candidates_per_user <= 0:
        return report
    rng = np.random.default_rng(seed)
    cfg = model.cfg
    jobs = []
    for base in users:
        cands = [Candidate(int(rng.integers(cfg.vocab)), base.candidate.timestamp)
                 for _ in range(candidates_per_user)]
        jobs.append((base, cands))

    def naive_run():
        for base, cands in jobs:
            for cand in cands:
                model.score(Sample(base.events, base.user_features, cand, 0))

    def cached_run():
        for base, cands in jobs:
            cache = build_cache(model, base.events, base.user_features,
                                base.candidate.timestamp)
            for cand in cands:
                score_with_cache(model, cache, cand)

    with T.count_muladds() as w:
        naive_run()
    naive_muladds = w.mul_adds
    naive_ns = _timed(naive_run, repetitions)

    with T.count_muladds() as w:
        cached_run()
    cached_muladds = w.mul_adds
    cached_ns = _timed(cached_run, repetitions)

    analytic_naive = sum(
        analysis.muladds_full_forward(cfg, min(len(base.events), cfg.L))
        * candidates_per_user for base, _ in jobs)
    analytic_cached = sum(
        analysis.muladds_cache_build(cfg, min(len(base.events), cfg.L))
        + candidates_per_user * analysis.muladds_incremental(cfg)
        for base, _ in jobs)
    if naive_muladds != analytic_naive or cached_muladds != analytic_cached:
        raise AssertionError(
            "instrumented counts diverge from the analytic model: "
            f"naive {naive_muladds} vs {analytic_naive}, "
            f"cached {cached_muladds} vs {analytic_cached}")

    report.rows.append(BenchRow(
        config_fingerprint=model.fingerprint(),
        n_candidates=candidates_per_user,
        naive_muladds=naive_muladds,
        cached_muladds=cached_muladds,
        naive_ns=naive_ns,
        cached_ns=cached_ns,
        incremental_muladds_per_candidate=analysis.muladds_incremental(cfg),
        analytic_naive_muladds=analytic_naive,
        analytic_cached_muladds=analytic_cached,
    ))
    return report


def _timed(fn, repetitions: int) -> int:
    best = None
    for _ in range(repetitions):
        t0 = time.perf_counter_ns()
        fn()
        dt = time.perf_counter_ns() - t0
        best = dt if best is None else min(best, dt)
    return int(best)
