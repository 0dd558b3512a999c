"""Two-stage inference: build a per-user cache once, score candidates cheaply.

Stage 1 runs ``LongRecModel.user_rows`` and every layer over the rows that
do not depend on the candidate item, and keeps each layer's projected
key/value rows as a (keys, values) pair of arrays, the CLS output and the
user-side head features; its last layer computes the CLS output row alone,
since no other output row is kept. Stage 2 scores all of a request's C
candidates at once: their target-global rows form one (C, D) block that
goes through the same layers (``LongRecModel._layers``) with the cached
rows as each block's key prefix, then through the model's ``_head``, which
reads every one of those rows.
Each row is an independent target: it sees the cached rows through the
target's visibility row and its own key only, so no row sees another
candidate and no C x C score is formed. Because the visibility rule
forbids every other row from attending to the target row, stage 2
reproduces the full forward pass for each candidate; agreement is asserted
at 1e-9 (the products are summed in another order than in the full pass),
and against scoring each candidate alone at 1e-12.

The cache is keyed by ``LongRecModel.fingerprint()``, a digest of the
config and the parameter bytes; scoring against a model with any other
weights raises StaleCacheError. Time-difference features are measured from
``scoring_time`` (one per user session), so the cache is a pure function
of (user events, user features, scoring time, parameters) — never of any
candidate.

Caches are immutable after build; one cache may serve concurrent score
calls over frozen parameters. Scoring runs outside any tape, and tapes are
per thread, so it records nothing even beside a training step in another
thread. MAC counting is process-wide, so a
``count_muladds`` window needs one thread scoring at a time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import tensors as T
from .errors import ConfigError, StaleCacheError
from .inputs import UserFeatures, target_global_token
from .model import LongRecModel
from .tensors import Tensor


@dataclass
class KVCache:
    scoring_time: int
    fingerprint: str
    layers: list                 # (keys, values) per block: cross, then N self
    target_visible_cross: np.ndarray   # (1, G+m) bool: the target's key row
    target_visible_self: np.ndarray    # (1, k+m) bool
    cls_final: np.ndarray        # (1, D) CLS output of the last layer
    user_side: np.ndarray        # (1, 2d) head features


def cache_size_floats(cfg) -> int:
    """Analytic cache footprint in float64 values, asserted against builds.

    Key/value pairs: the cross layer caches merged_len + m - 1 rows and each
    self layer k + m - 1 rows, all at width D, giving
    2*D*((merged_len + m - 1) + N*(k + m - 1)). Plus the CLS output (D) and
    the user-side features (2d).
    """
    rows = cfg.merged_len + cfg.m - 1 + cfg.N * (cfg.k + cfg.m - 1)
    return 2 * cfg.D * rows + cfg.D + 2 * cfg.d


def build_cache(model: LongRecModel, user_events, user_features: UserFeatures,
                scoring_time: int) -> KVCache:
    """Run the candidate-independent part of the forward pass and store it.

    The construction takes no candidate; all candidates later scored against
    this cache must carry ``scoring_time`` as their timestamp, because the
    time-difference features are measured from it.
    """
    u = model.user_rows([user_events], [user_features], [scoring_time])
    layers = model._layers(T.concat([u.queries, u.globals], -2),
                           T.concat([u.merged, u.globals], -2),
                           u.visible_cross[:-1, :-1], u.visible_self[:-1, :-1],
                           rows=[model.cfg.k + 1])
    return KVCache(scoring_time=int(scoring_time),
                   fingerprint=model.fingerprint(),
                   layers=[(keys.data, values.data) for _, keys, values in layers],
                   target_visible_cross=u.visible_cross[-1:],
                   target_visible_self=u.visible_self[-1:],
                   cls_final=layers[-1][0].data,
                   user_side=u.user_side.data)


def score_with_cache(model: LongRecModel, cache: KVCache, candidates) -> list:
    """Score a list of candidates against a prebuilt cache in one batched
    pass over their target rows; returns their probabilities in list order."""
    fingerprint = model.fingerprint()
    if cache.fingerprint != fingerprint:
        raise StaleCacheError(
            f"cache fingerprint {cache.fingerprint} != model {fingerprint}; "
            "rebuild after parameter updates")
    for candidate in candidates:
        if candidate.timestamp != cache.scoring_time:
            raise StaleCacheError(
                f"candidate timestamp {candidate.timestamp} != cache scoring "
                f"time {cache.scoring_time}")
    if not candidates:
        return []
    n = len(candidates)
    g = target_global_token(candidates, model.tables, model.cfg)
    layers = model._layers(g, g, cache.target_visible_cross,
                           cache.target_visible_self, prefix=cache.layers)
    p = model._head(layers[-1][0], Tensor(np.repeat(cache.cls_final, n, axis=0)),
                    Tensor(np.repeat(cache.user_side, n, axis=0)))
    return p.data[:, 0].tolist()


# ----------------------------- requests -----------------------------


@dataclass
class ScoreRequest:
    user_id: int
    candidates: list             # of Candidate; all share one timestamp


@dataclass
class ScoreResponse:
    user_id: int
    probabilities: list
    cache_build_ns: int
    score_ns: int                # the one batched pass over all candidates

    def to_json_dict(self) -> dict:
        return {"user_id": self.user_id,
                "probabilities": self.probabilities,
                "cache_build_ns": self.cache_build_ns,
                "score_ns": self.score_ns}


def score_request(model: LongRecModel, sample_store: dict,
                  request: ScoreRequest) -> ScoreResponse:
    """Serve one request with a per-user cache; response order = request order.

    ``sample_store`` maps user_id to the user's base sample (events and
    features). All candidates in one request must share one timestamp, which
    becomes the cache's scoring time. A request without candidates builds no
    cache and gets ``[]`` with zero timings.
    """
    if request.user_id not in sample_store:
        raise ConfigError(f"unknown user_id {request.user_id}")
    if not request.candidates:
        return ScoreResponse(request.user_id, [], 0, 0)
    base = sample_store[request.user_id]
    if len({c.timestamp for c in request.candidates}) > 1:
        raise ConfigError("candidates in one request must share a timestamp")
    scoring_time = request.candidates[0].timestamp
    ts = base.events.timestamp
    if ts.size and ts[-1] > scoring_time:
        raise ConfigError("scoring time precedes the last user event")
    t0 = time.perf_counter_ns()
    cache = build_cache(model, base.events, base.user_features, scoring_time)
    t1 = time.perf_counter_ns()
    probs = score_with_cache(model, cache, request.candidates)
    t2 = time.perf_counter_ns()
    return ScoreResponse(request.user_id, probs, t1 - t0, t2 - t1)
