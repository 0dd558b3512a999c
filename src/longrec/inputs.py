"""Synthetic behavior data, embedding tables, and input-token assembly.

The generator is a pure function of (config, seed). Each sample is one
(behavior sequence, user features, candidate, label) record whose label is
Bernoulli with a mean that depends on whether the candidate's latent
interest ever occurred in the user's history, so longer visible context
strictly increases achievable ranking quality. Items map to interests by
``item_id % n_interests``.

Encoding turns events into width-d tokens: concat(item, action, time-bucket
embeddings) -> linear projection to d -> plus a learned positional embedding
indexed by recency (0 = most recent) -> a small GELU MLP. Recency indexing
keeps real-token representations unchanged when extra left padding is
prepended. Global tokens (UID, CLS..., target) are built at the full model
width D.
"""

from __future__ import annotations

import gzip
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensors as T
from .config import GeneratorConfig, ModelConfig
from .errors import ConfigError, EmbeddingLookupError
from .tensors import Tensor

# ----------------------------- samples -----------------------------


@dataclass(frozen=True)
class Event:
    item_id: int
    action_type: int
    timestamp: int


@dataclass(frozen=True)
class UserFeatures:
    uid: int
    profile_bucket: int


@dataclass(frozen=True)
class Candidate:
    item_id: int
    timestamp: int


@dataclass(frozen=True)
class Sample:
    """One training record: ordered events, user features, candidate, label."""

    events: tuple
    user_features: UserFeatures
    candidate: Candidate
    label: int

    def validate(self, L_max: Optional[int] = None) -> "Sample":
        ts = [e.timestamp for e in self.events]
        if any(a > b for a, b in zip(ts, ts[1:])):
            raise ConfigError("events must be sorted non-decreasing by timestamp")
        if ts and ts[-1] > self.candidate.timestamp:
            raise ConfigError("event timestamps must not exceed the candidate timestamp")
        if L_max is not None and len(self.events) > L_max:
            raise ConfigError(f"sample has {len(self.events)} events > L_max={L_max}")
        if self.label not in (0, 1):
            raise ConfigError("label must be 0 or 1")
        return self

    def to_json_dict(self) -> dict:
        return {
            "events": [
                {"item_id": e.item_id, "action_type": e.action_type,
                 "timestamp": e.timestamp}
                for e in self.events
            ],
            "user_features": {"uid": self.user_features.uid,
                              "profile_bucket": self.user_features.profile_bucket},
            "candidate": {"item_id": self.candidate.item_id,
                          "timestamp": self.candidate.timestamp},
            "label": self.label,
        }

    @classmethod
    def from_json_dict(cls, rec: dict) -> "Sample":
        return cls(
            events=tuple(Event(e["item_id"], e["action_type"], e["timestamp"])
                         for e in rec["events"]),
            user_features=UserFeatures(rec["user_features"]["uid"],
                                       rec["user_features"]["profile_bucket"]),
            candidate=Candidate(rec["candidate"]["item_id"],
                                rec["candidate"]["timestamp"]),
            label=int(rec["label"]),
        )


@dataclass
class Dataset:
    """Samples plus (when generated in-process) the latent hit flags.

    ``latent_hits`` records whether the candidate's interest truly occurred
    for each sample; it exists for test oracles only and is never written
    to the JSONL file.
    """

    samples: list
    latent_hits: Optional[np.ndarray] = None
    gen_config: Optional[GeneratorConfig] = None

    def __len__(self) -> int:
        return len(self.samples)

    def labels(self) -> np.ndarray:
        return np.array([s.label for s in self.samples], dtype=np.int64)


def interest_of(item_id: int, n_interests: int) -> int:
    return item_id % n_interests


# ----------------------------- generation -----------------------------


def generate_dataset(gen_config: GeneratorConfig, seed: int) -> Dataset:
    """Deterministically synthesize one sample per user.

    Natural regime: a per-user interest set drifts slowly; events draw from
    the current set except for uniform noise at ``noise_rate``; the candidate
    comes from the historical interest union at ``candidate_from_history_rate``
    and uniformly otherwise. Planted regime (``plant_gap`` set): the candidate
    interest appears only as 2-4 events planted at depths greater than
    ``plant_gap`` from the end, and only for hit samples.

    The label is Bernoulli(p_hit) when the candidate interest occurred and
    Bernoulli(p_miss) otherwise, keeping class balance near one half.
    """
    cfg = gen_config.validate()
    rng = np.random.default_rng(seed)
    samples, hits = [], []
    for uid in range(cfg.n_users):
        if cfg.plant_gap is None:
            sample, hit = _natural_sample(cfg, rng, uid)
            samples.append(sample)
            hits.append(hit)
        else:
            for sample, hit in _planted_samples(cfg, rng, uid):
                samples.append(sample)
                hits.append(hit)
    if len(samples) >= 200:
        balance = float(np.mean([s.label for s in samples]))
        if not 0.2 <= balance <= 0.8:
            raise ConfigError(f"degenerate label balance {balance:.3f}")
    return Dataset(samples, np.array(hits, dtype=bool), cfg)


def _item_of_interest(cfg: GeneratorConfig, rng, interest: int) -> int:
    interest = int(interest)
    per = (cfg.vocab - interest + cfg.n_interests - 1) // cfg.n_interests
    return interest + cfg.n_interests * int(rng.integers(per))


def _natural_sample(cfg, rng, uid):
    ipu = cfg.interests_per_user
    current = [int(v) for v in rng.choice(cfg.n_interests, size=ipu, replace=False)]
    union = set(current)
    t = cfg.base_time + int(rng.integers(0, 10_000_000))
    n = int(rng.integers(cfg.effective_L_min, cfg.L_max + 1))
    events = []
    for _ in range(n):
        if rng.random() < cfg.drift_rate:
            slot = int(rng.integers(ipu))
            current[slot] = int(rng.integers(cfg.n_interests))
            union.add(current[slot])
        if rng.random() < cfg.noise_rate:
            item = int(rng.integers(cfg.vocab))
        else:
            item = _item_of_interest(cfg, rng, current[int(rng.integers(ipu))])
        t += int(rng.integers(cfg.gap_min, cfg.gap_max + 1))
        events.append(Event(item, int(rng.integers(cfg.n_actions)), t))
    cand_ts = t + int(rng.integers(cfg.gap_min, cfg.gap_max + 1))
    if rng.random() < cfg.candidate_from_history_rate:
        cand_item = _item_of_interest(cfg, rng, int(rng.choice(sorted(union))))
    else:
        cand_item = int(rng.integers(cfg.vocab))
    hit = interest_of(cand_item, cfg.n_interests) in union
    label = int(rng.random() < (cfg.p_hit if hit else cfg.p_miss))
    feats = UserFeatures(uid, int(rng.integers(cfg.n_profiles)))
    return Sample(tuple(events), feats, Candidate(cand_item, cand_ts), label), hit


def _planted_samples(cfg, rng, uid):
    """One history, ``candidates_per_history`` alternating hit/miss candidates.

    The hit candidate's interest is planted on one side of the plant_gap
    boundary: depths greater than plant_gap ("deep", the long-range case) or
    within the last plant_gap events ("recent"). With ``plant_exact_item``
    the planted events carry the candidate item itself. The miss candidate's
    interest never occurs at all. Pairing both outcomes on one user keeps the
    UID feature uninformative about any single label, mirroring production
    data where one user contributes many impressions.
    """
    ipu = cfg.interests_per_user
    base = rng.choice(cfg.n_interests, size=ipu, replace=False)
    others = np.setdiff1d(np.arange(cfg.n_interests), base)
    picks = rng.choice(others.size, size=2, replace=False)
    hit_interest = int(others[picks[0]])
    miss_interest = int(others[picks[1]])
    hit_item = _item_of_interest(cfg, rng, hit_interest)
    lo = max(cfg.effective_L_min, cfg.plant_gap + cfg.plant_max + 1)
    n = int(rng.integers(min(lo, cfg.L_max), cfg.L_max + 1))
    count = int(rng.integers(cfg.plant_min, cfg.plant_max + 1))
    if cfg.plant_side == "deep":
        region_len = n - cfg.plant_gap
        offset = 0
    else:
        region_len = min(cfg.plant_gap, n)
        offset = n - region_len
    plant_positions = set(
        offset + int(p) for p in rng.choice(region_len,
                                            size=min(count, region_len),
                                            replace=False))
    t = cfg.base_time + int(rng.integers(0, 10_000_000))
    events = []
    for pos in range(n):
        if pos in plant_positions:
            item = hit_item if cfg.plant_exact_item \
                else _item_of_interest(cfg, rng, hit_interest)
        elif rng.random() < cfg.noise_rate:
            item = int(rng.integers(cfg.vocab))
        else:
            item = _item_of_interest(cfg, rng, int(base[int(rng.integers(ipu))]))
        t += int(rng.integers(cfg.gap_min, cfg.gap_max + 1))
        events.append(Event(item, int(rng.integers(cfg.n_actions)), t))
    cand_ts = t + int(rng.integers(cfg.gap_min, cfg.gap_max + 1))
    events = tuple(events)
    feats = UserFeatures(uid, int(rng.integers(cfg.n_profiles)))
    out = []
    for j in range(cfg.candidates_per_history):
        hit = j % 2 == 0
        if hit:
            cand_item = hit_item if cfg.plant_exact_item \
                else _item_of_interest(cfg, rng, hit_interest)
        else:
            cand_item = _item_of_interest(cfg, rng, miss_interest)
        label = int(rng.random() < (cfg.p_hit if hit else cfg.p_miss))
        out.append((Sample(events, feats, Candidate(cand_item, cand_ts), label),
                    hit))
    return out


def bayes_window_scores(dataset: Dataset, window: Optional[int] = None) -> np.ndarray:
    """Oracle scores from the generative rule restricted to a visible window.

    Scores p_hit when any of the last ``window`` events shares the
    candidate's interest and p_miss otherwise; with ``window=None`` the whole
    history is visible. On noise-free planted data the full-window oracle
    recovers the latent hit flag exactly.
    """
    cfg = dataset.gen_config
    if cfg is None:
        raise ConfigError("oracle scoring needs the generating config")
    out = np.empty(len(dataset.samples))
    for i, s in enumerate(dataset.samples):
        events = s.events if window is None else s.events[-window:]
        c = interest_of(s.candidate.item_id, cfg.n_interests)
        seen = any(interest_of(e.item_id, cfg.n_interests) == c for e in events)
        out[i] = cfg.p_hit if seen else cfg.p_miss
    return out


# ----------------------------- JSONL I/O -----------------------------


def save_dataset(dataset: Dataset, path: str) -> None:
    """Write newline-delimited JSON, one sample per line; .gz compresses."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wt", encoding="utf-8") as fh:
        for s in dataset.samples:
            fh.write(json.dumps(s.to_json_dict(), separators=(",", ":")))
            fh.write("\n")


def load_dataset(path: str, L_max: Optional[int] = None) -> Dataset:
    opener = gzip.open if str(path).endswith(".gz") else open
    samples = []
    with opener(path, "rt", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                samples.append(Sample.from_json_dict(rec).validate(L_max))
            except (KeyError, TypeError, json.JSONDecodeError) as exc:
                raise ConfigError(f"malformed dataset record: {exc}") from exc
    return Dataset(samples)


# ----------------------------- embedding tables & input params -----------------------------


def time_bucket(delta_seconds: int, n_buckets: int) -> int:
    """Log-2 bucket of (candidate_ts - event_ts + 1) seconds.

    Bucket b covers deltas in [2^(b-1), 2^b); delta 0 maps to bucket 0.
    Integer-exact via bit_length, clamped to the last bucket.
    """
    if delta_seconds < 0:
        raise ConfigError("future event: negative time delta")
    return min(int(delta_seconds).bit_length(), n_buckets - 1)


@dataclass
class InputMLP:
    """Projection and MLP parameters shared by sequence and global tokens."""

    tok_proj_w: Tensor
    tok_proj_b: Tensor
    seq_w1: Tensor
    seq_b1: Tensor
    seq_w2: Tensor
    seq_b2: Tensor
    lift_w: Tensor
    lift_b: Tensor
    glob_w1: Tensor
    glob_b1: Tensor
    glob_w2: Tensor
    glob_b2: Tensor

    @classmethod
    def create(cls, cfg: ModelConfig, rng) -> "InputMLP":
        d, D, F = cfg.d, cfg.D, cfg.feat_width
        return cls(
            tok_proj_w=_w(rng, F, d), tok_proj_b=_b(d),
            seq_w1=_w(rng, d, 2 * D), seq_b1=_b(2 * D),
            seq_w2=_w(rng, 2 * D, d), seq_b2=_b(d),
            lift_w=_w(rng, d, D), lift_b=_b(D),
            glob_w1=_w(rng, D, 2 * D), glob_b1=_b(2 * D),
            glob_w2=_w(rng, 2 * D, D), glob_b2=_b(D),
        )

    def params(self):
        return [(name, getattr(self, name)) for name in (
            "tok_proj_w", "tok_proj_b", "seq_w1", "seq_b1", "seq_w2", "seq_b2",
            "lift_w", "lift_b", "glob_w1", "glob_b1", "glob_w2", "glob_b2")]


@dataclass
class EmbeddingTables:
    """Learnable lookup tables plus the shared input projections.

    Out-of-range ids raise EmbeddingLookupError; there is no clamping.
    The absolute positional table is indexed by recency (0 = most recent
    event) so that extra left padding leaves real tokens untouched.
    """

    item_table: Tensor
    action_table: Tensor
    time_bucket_table: Tensor
    uid_table: Tensor
    profile_table: Tensor
    abs_pos_table: Tensor
    cls_vector: Tensor
    mlp: InputMLP

    @classmethod
    def create(cls, cfg: ModelConfig, rng) -> "EmbeddingTables":
        return cls(
            item_table=_emb(rng, cfg.vocab, cfg.d_item),
            action_table=_emb(rng, cfg.n_actions, cfg.d_act),
            time_bucket_table=_emb(rng, cfg.n_time_buckets, cfg.d_time),
            uid_table=_emb(rng, cfg.n_users, cfg.d),
            profile_table=_emb(rng, cfg.n_profiles, cfg.d),
            abs_pos_table=_emb(rng, cfg.L, cfg.d),
            cls_vector=_emb(rng, cfg.m - 2, cfg.D),
            mlp=InputMLP.create(cfg, rng),
        )

    def params(self):
        out = [("item_table", self.item_table), ("action_table", self.action_table),
               ("time_bucket_table", self.time_bucket_table),
               ("uid_table", self.uid_table), ("profile_table", self.profile_table),
               ("abs_pos_table", self.abs_pos_table), ("cls_vector", self.cls_vector)]
        out.extend((f"mlp.{n}", t) for n, t in self.mlp.params())
        return out


def _w(rng, fan_in, fan_out) -> Tensor:
    return Tensor(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out)),
                  requires_grad=True)


def _b(n) -> Tensor:
    return Tensor(np.zeros(n), requires_grad=True)


def _emb(rng, rows, width) -> Tensor:
    return Tensor(rng.normal(0.0, 0.3, size=(rows, width)), requires_grad=True)


def _checked_ids(name: str, ids, table: Tensor) -> np.ndarray:
    arr = np.asarray(ids, dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= table.shape[0]):
        raise EmbeddingLookupError(
            f"{name} id out of range [0, {table.shape[0]}): {arr.min()}..{arr.max()}")
    return arr


# ----------------------------- encoding -----------------------------


def _event_features(tables: EmbeddingTables, cfg: ModelConfig, items, actions, deltas):
    item_ids = _checked_ids("item", items, tables.item_table)
    act_ids = _checked_ids("action", actions, tables.action_table)
    buckets = np.array([time_bucket(dt, cfg.n_time_buckets) for dt in deltas],
                       dtype=np.int64)
    feats = T.concat_cols([
        T.gather_rows(tables.item_table, item_ids),
        T.gather_rows(tables.action_table, act_ids),
        T.gather_rows(tables.time_bucket_table, buckets),
    ])
    return T.linear(feats, tables.mlp.tok_proj_w, tables.mlp.tok_proj_b)


def _seq_mlp(tables: EmbeddingTables, x: Tensor) -> Tensor:
    h = T.gelu(T.linear(x, tables.mlp.seq_w1, tables.mlp.seq_b1))
    return T.linear(h, tables.mlp.seq_w2, tables.mlp.seq_b2)


def _global_mlp(tables: EmbeddingTables, rows: Tensor) -> Tensor:
    h = T.gelu(T.linear(rows, tables.mlp.glob_w1, tables.mlp.glob_b1))
    return T.linear(h, tables.mlp.glob_w2, tables.mlp.glob_b2)


def encode_events(events, reference_ts: int, tables: EmbeddingTables,
                  cfg: ModelConfig):
    """Sequence tokens only: (seq Tensor[L, d], pad_mask, n_real).

    Events beyond the most recent cfg.L fall outside the visible window and
    are dropped. Remaining events become width-d tokens, right-aligned and
    left-padded with zeros; time deltas are measured from ``reference_ts``.
    """
    events = tuple(events)[-cfg.L:]
    n = len(events)
    pad_mask = np.ones(cfg.L, dtype=bool)
    pad_mask[cfg.L - n:] = False
    if n == 0:
        return T.zeros((cfg.L, cfg.d)), pad_mask, 0
    items = [e.item_id for e in events]
    actions = [e.action_type for e in events]
    deltas = [reference_ts - e.timestamp for e in events]
    x = _event_features(tables, cfg, items, actions, deltas)
    recency = np.arange(n - 1, -1, -1, dtype=np.int64)   # 0 = most recent
    x = T.add(x, T.gather_rows(tables.abs_pos_table, recency))
    h_real = _seq_mlp(tables, x)
    if n < cfg.L:
        h = T.concat_rows([T.zeros((cfg.L - n, cfg.d)), h_real])
    else:
        h = h_real
    return h, pad_mask, n


def target_global_token(candidates, tables: EmbeddingTables,
                        cfg: ModelConfig) -> Tensor:
    """The (C, D) global rows of a list of candidates, in list order: event
    featurizer with a zero action slot and zero time delta, lifted to width
    D, through the global MLP."""
    n = len(candidates)
    item_ids = _checked_ids("item", [c.item_id for c in candidates],
                            tables.item_table)
    feat = T.concat_cols([
        T.gather_rows(tables.item_table, item_ids),
        T.zeros((n, cfg.d_act)),
        T.gather_rows(tables.time_bucket_table, np.zeros(n, dtype=np.int64)),
    ])
    row_d = T.linear(feat, tables.mlp.tok_proj_w, tables.mlp.tok_proj_b)
    row = T.linear(row_d, tables.mlp.lift_w, tables.mlp.lift_b)
    return _global_mlp(tables, row)


def nontarget_global_tokens(user_features: UserFeatures, tables: EmbeddingTables,
                            cfg: ModelConfig) -> Tensor:
    """Global rows of rank 0..m-2 (UID then CLS vectors): candidate-free.

    UID passes through the shared d-to-D lift, CLS vectors are learned
    directly at width D, and every row goes through the global-token MLP
    row-wise, so the rows stay independent of the target row (rank m-1).
    """
    uid = _checked_ids("uid", [user_features.uid], tables.uid_table)
    uid_row = T.linear(T.gather_rows(tables.uid_table, uid),
                       tables.mlp.lift_w, tables.mlp.lift_b)
    raw = T.concat_rows([uid_row, tables.cls_vector])
    return _global_mlp(tables, raw)


def user_side_features(user_features: UserFeatures,
                       tables: EmbeddingTables) -> Tensor:
    """Candidate-independent user vector for the head: [uid_emb, profile_emb]."""
    uid = _checked_ids("uid", [user_features.uid], tables.uid_table)
    prof = _checked_ids("profile", [user_features.profile_bucket],
                        tables.profile_table)
    return T.concat_cols([T.gather_rows(tables.uid_table, uid),
                          T.gather_rows(tables.profile_table, prof)])
