"""Synthetic behavior data, embedding tables, and input-token assembly.

The generator is a pure function of (config, seed). Each sample is one
(behavior sequence, user features, candidate, label) record whose label is
Bernoulli with a mean that depends on whether the candidate's latent
interest ever occurred in the user's history, so longer visible context
strictly increases achievable ranking quality. Items map to interests by
``item_id % n_interests``.

A user's history is an ``Events``, the one history type: three read-only
int64 columns (``item_id``, ``action_type``, ``timestamp``) rather than one
object per event, so a stored history costs about 24 bytes per event.
Slices are views; there are no per-event records, so a history is read by
its columns, never by event. The generators and the JSONL reader fill the
columns directly, and the encoder reads them whole: time deltas are one
int64 subtraction (``time_deltas``, which refuses a wrapped difference) and
their log-2 buckets one ``searchsorted``.

Encoding turns events into width-d tokens: concat(item, action, time-bucket
embeddings) -> linear projection to d -> plus a learned positional embedding
indexed by recency (0 = most recent) -> a small GELU MLP. Recency indexing
keeps real-token representations unchanged when extra left padding is
prepended. Global tokens (UID, CLS..., target) are built at the full model
width D. Encoding takes a batch: the real events of all its histories are
encoded as one block of real rows, with no padding (the merge lays them out
in whole groups), and the global rows of all its users are built at once.
"""

from __future__ import annotations

import gzip
import json
import zlib
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from . import tensors as T
from .config import INT64_MAX, INT64_MIN, GeneratorConfig, ModelConfig
from .errors import ConfigError, EmbeddingLookupError
from .tensors import Tensor

# ----------------------------- samples -----------------------------


_EVENT_FIELDS = ("item_id", "action_type", "timestamp")


def _frozen_int64(values) -> np.ndarray:
    """A read-only int64 array of ``values``: a read-only int64 array as is
    (a view of another history), anything else copied."""
    if (isinstance(values, np.ndarray) and values.dtype == np.int64
            and not values.flags.writeable):
        return values
    out = np.array(values, dtype=np.int64)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False, slots=True)
class Events:
    """An immutable event history as three read-only int64 columns.

    ``len()`` counts events and a slice is an ``Events`` view of the same
    columns; an integer index or iteration raises TypeError. Two histories
    are equal when their columns are.
    """

    item_id: np.ndarray
    action_type: np.ndarray
    timestamp: np.ndarray

    def __post_init__(self) -> None:
        cols = [_frozen_int64(getattr(self, f)) for f in _EVENT_FIELDS]
        if cols[0].ndim != 1 or any(c.shape != cols[0].shape for c in cols):
            raise ConfigError("event columns must be 1-d and of one length")
        for f, c in zip(_EVENT_FIELDS, cols):
            object.__setattr__(self, f, c)

    def __len__(self) -> int:
        return self.item_id.shape[0]

    def __getitem__(self, i: slice) -> "Events":
        if not isinstance(i, slice):
            raise TypeError("an Events takes slices only; read its columns")
        return Events(self.item_id[i], self.action_type[i], self.timestamp[i])

    __iter__ = None              # no per-event iteration: iter() raises TypeError

    def __eq__(self, other) -> bool:
        if not isinstance(other, Events):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f))
                   for f in _EVENT_FIELDS)

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, f).tobytes() for f in _EVENT_FIELDS))


def checked_int64s(values: list, name: str) -> list:
    """``values`` as given when each is an integer within int64 (not a bool,
    float or string); ConfigError naming ``name`` otherwise."""
    if not all(type(v) is int for v in values) or (
            values and not INT64_MIN <= min(values) <= max(values) <= INT64_MAX):
        raise ConfigError(f"{name} must be integers within int64")
    return values


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
    """One training record: ordered events, user features, candidate, label.

    ``events`` must be an ``Events`` (ConfigError otherwise).
    """

    events: Events
    user_features: UserFeatures
    candidate: Candidate
    label: int

    def __post_init__(self) -> None:
        if not isinstance(self.events, Events):
            raise ConfigError("a sample's history must be an Events")

    def validate(self) -> "Sample":
        ts = self.events.timestamp
        if (ts[1:] < ts[:-1]).any():
            raise ConfigError("events must be sorted non-decreasing by timestamp")
        if ts.size and ts[-1] > self.candidate.timestamp:
            raise ConfigError("event timestamps must not exceed the candidate timestamp")
        if self.label not in (0, 1):
            raise ConfigError("label must be 0 or 1")
        return self

    def to_json_dict(self) -> dict:
        cols = [getattr(self.events, f).tolist() for f in _EVENT_FIELDS]
        return {
            "events": [{"item_id": i, "action_type": a, "timestamp": t}
                       for i, a, t in zip(*cols)],
            "user_features": {"uid": self.user_features.uid,
                              "profile_bucket": self.user_features.profile_bucket},
            "candidate": {"item_id": self.candidate.item_id,
                          "timestamp": self.candidate.timestamp},
            "label": self.label,
        }

    @classmethod
    def from_json_dict(cls, rec: dict) -> "Sample":
        """Build a sample from its JSON record; every id, time and the label
        must be an integer within int64 (ConfigError otherwise)."""
        events = rec["events"]
        user, cand = rec["user_features"], rec["candidate"]
        return cls(
            events=Events(*(checked_int64s([e[f] for e in events], f"event {f}")
                            for f in _EVENT_FIELDS)),
            user_features=UserFeatures(*checked_int64s(
                [user["uid"], user["profile_bucket"]], "uid/profile_bucket")),
            candidate=Candidate(*checked_int64s(
                [cand["item_id"], cand["timestamp"]], "candidate item_id/timestamp")),
            label=checked_int64s([rec["label"]], "label")[0],
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
    return Dataset(samples, np.array(hits, dtype=bool))


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
    items, actions, times = [], [], []
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
        items.append(item)
        actions.append(int(rng.integers(cfg.n_actions)))
        times.append(t)
    cand_ts = t + int(rng.integers(cfg.gap_min, cfg.gap_max + 1))
    if rng.random() < cfg.candidate_from_history_rate:
        cand_item = _item_of_interest(cfg, rng, int(rng.choice(sorted(union))))
    else:
        cand_item = int(rng.integers(cfg.vocab))
    hit = interest_of(cand_item, cfg.n_interests) in union
    label = int(rng.random() < (cfg.p_hit if hit else cfg.p_miss))
    feats = UserFeatures(uid, int(rng.integers(cfg.n_profiles)))
    return (Sample(Events(items, actions, times), feats,
                   Candidate(cand_item, cand_ts), label), hit)


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
    items, actions, times = [], [], []
    for pos in range(n):
        if pos in plant_positions:
            item = hit_item if cfg.plant_exact_item \
                else _item_of_interest(cfg, rng, hit_interest)
        elif rng.random() < cfg.noise_rate:
            item = int(rng.integers(cfg.vocab))
        else:
            item = _item_of_interest(cfg, rng, int(base[int(rng.integers(ipu))]))
        t += int(rng.integers(cfg.gap_min, cfg.gap_max + 1))
        items.append(item)
        actions.append(int(rng.integers(cfg.n_actions)))
        times.append(t)
    cand_ts = t + int(rng.integers(cfg.gap_min, cfg.gap_max + 1))
    events = Events(items, actions, times)
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


# ----------------------------- JSONL I/O -----------------------------


def save_dataset(dataset: Dataset, path: str) -> None:
    """Write newline-delimited JSON, one sample per line; .gz compresses."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wt", encoding="utf-8") as fh:
        for s in dataset.samples:
            fh.write(json.dumps(s.to_json_dict(), separators=(",", ":")))
            fh.write("\n")


def read_lines(path: str):
    """Yield the lines of UTF-8 text file ``path``, gunzipped if it ends in
    .gz. A file that cannot be opened, decompressed or decoded raises
    ConfigError; an error the caller raises between lines passes through."""
    opener = gzip.open if str(path).endswith(".gz") else open
    try:
        with opener(path, "rt", encoding="utf-8") as fh:
            yield from fh
    except (OSError, EOFError, UnicodeDecodeError, zlib.error) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def read_jsonl(path: str, parse, what: str):
    """Yield ``parse(record)`` for the JSON record on each non-blank line of
    ``path`` (read by ``read_lines``), one line at a time. A line that is not
    JSON, or whose record ``parse`` refuses with a KeyError, TypeError or
    ValueError, raises ConfigError naming ``what`` and the line number."""
    for number, line in enumerate(read_lines(path), 1):
        line = line.strip()
        if line:
            try:
                yield parse(json.loads(line))
            except (KeyError, TypeError, ValueError, RecursionError) as exc:
                raise ConfigError(
                    f"malformed {what} on line {number}: {exc}") from exc


def load_dataset(path: str) -> Dataset:
    return Dataset(list(read_jsonl(
        path, lambda rec: Sample.from_json_dict(rec).validate(), "dataset record")))


# ----------------------------- embedding tables & input params -----------------------------


_POWERS_OF_TWO = 2 ** np.arange(63, dtype=np.int64)     # 2^0 .. 2^62


def time_deltas(reference_ts: int, timestamps: np.ndarray) -> np.ndarray:
    """``reference_ts - timestamps`` in int64 seconds. A difference that
    int64 cannot hold would wrap to the wrong sign, so it raises ConfigError."""
    deltas = reference_ts - timestamps
    if ((deltas < 0) != (timestamps > reference_ts)).any():
        raise ConfigError("time delta outside int64")
    return deltas


def time_buckets(deltas, n_buckets: int) -> np.ndarray:
    """Log-2 buckets of time deltas in seconds (candidate_ts - event_ts).

    Bucket b covers deltas in [2^(b-1), 2^b); delta 0 maps to bucket 0, so a
    delta's bucket is its integer bit length, clamped to the last bucket.
    Exact for every int64 delta: it counts the powers of two not above it.
    """
    deltas = np.asarray(deltas, dtype=np.int64)
    if deltas.size and deltas.min() < 0:
        raise ConfigError("future event: negative time delta")
    return np.minimum(np.searchsorted(_POWERS_OF_TWO, deltas, side="right"),
                      n_buckets - 1)


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
            tok_proj_w=T.weight(rng, F, d), tok_proj_b=T.filled(d),
            seq_w1=T.weight(rng, d, 2 * D), seq_b1=T.filled(2 * D),
            seq_w2=T.weight(rng, 2 * D, d), seq_b2=T.filled(d),
            lift_w=T.weight(rng, d, D), lift_b=T.filled(D),
            glob_w1=T.weight(rng, D, 2 * D), glob_b1=T.filled(2 * D),
            glob_w2=T.weight(rng, 2 * D, D), glob_b2=T.filled(D),
        )


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
            item_table=T.table(rng, cfg.vocab, cfg.d_item),
            action_table=T.table(rng, cfg.n_actions, cfg.d_act),
            time_bucket_table=T.table(rng, cfg.n_time_buckets, cfg.d_time),
            uid_table=T.table(rng, cfg.n_users, cfg.d),
            profile_table=T.table(rng, cfg.n_profiles, cfg.d),
            abs_pos_table=T.table(rng, cfg.L, cfg.d),
            cls_vector=T.table(rng, cfg.m - 2, cfg.D),
            mlp=InputMLP.create(cfg, rng),
        )

    def params(self):
        """(name, Tensor) in field order, the ``mlp`` ones as ``mlp.name``."""
        return T.named_fields(self)


def _lookup(name: str, table: Tensor, ids) -> Tensor:
    """The rows ``ids`` of an embedding table. ``gather_rows`` makes the one
    range check; an id outside the table raises EmbeddingLookupError."""
    try:
        return T.gather_rows(table, ids)
    except IndexError:
        arr = np.asarray(ids, dtype=np.int64)
        raise EmbeddingLookupError(
            f"{name} id out of range [0, {table.shape[0]}): "
            f"{arr.min()}..{arr.max()}") from None


# ----------------------------- encoding -----------------------------


def event_feature_rows(item_table: Tensor, action_table: Tensor,
                       time_table: Tensor, items, actions, buckets) -> Tensor:
    """The [item | action | time-bucket] embedding row of each event: one
    row per id in ``items``. ``actions`` None gives a zero action slot, as a
    candidate has no action. An item or action id outside its table raises
    EmbeddingLookupError; the buckets are in range by construction."""
    return T.concat([
        _lookup("item", item_table, items),
        T.zeros((len(items), action_table.shape[1])) if actions is None
        else _lookup("action", action_table, actions),
        T.gather_rows(time_table, buckets),
    ], -1)


def _event_features(tables: EmbeddingTables, cfg: ModelConfig, items, actions, deltas):
    feats = event_feature_rows(tables.item_table, tables.action_table,
                               tables.time_bucket_table, items, actions,
                               time_buckets(deltas, cfg.n_time_buckets))
    return T.linear(feats, tables.mlp.tok_proj_w, tables.mlp.tok_proj_b)


def _seq_mlp(tables: EmbeddingTables, x: Tensor) -> Tensor:
    """Per event, d -> 2D -> d: the widest activations of a training tape
    per sample, so its backward recomputes them from the width-d input."""
    m = tables.mlp
    return T.mlp(x, m.seq_w1, m.seq_b1, m.seq_w2, m.seq_b2, keep_hidden=False)


def _global_mlp(tables: EmbeddingTables, rows: Tensor) -> Tensor:
    m = tables.mlp
    return T.mlp(rows, m.glob_w1, m.glob_b1, m.glob_w2, m.glob_b2)


def encode_events(histories, reference_times, tables: EmbeddingTables,
                  cfg: ModelConfig):
    """Sequence tokens of B ``Events`` histories: (rows Tensor[sum(n_real), d],
    n_real (B,) int64), history b's n_real[b] real tokens in chronological
    order after those of histories 0..b-1.

    History b's events beyond the most recent cfg.L fall outside the visible
    window and are dropped; the rest become width-d tokens with time deltas
    measured from ``reference_times[b]``. The real events of all histories
    are encoded as one block and no pad row is ever computed or laid out
    here: the merge (``LongRecModel._merge``) left-pads them into whole
    groups. On a tape the featurizer (lookups and projection) is a
    ``T.checkpoint`` and the sequence MLP keeps only its input, so backward
    recomputes both rather than keep the largest per-sample activations of
    the tape.
    """
    hists = [h[-cfg.L:] for h in histories]
    n_real = np.array([len(h) for h in hists], dtype=np.int64)
    if not n_real.any():
        return T.zeros((0, cfg.d)), n_real
    x = T.checkpoint(partial(
        _event_features, tables, cfg, np.concatenate([h.item_id for h in hists]),
        np.concatenate([h.action_type for h in hists]),
        np.concatenate([time_deltas(t, h.timestamp)
                        for h, t in zip(hists, reference_times)])))
    recency = np.concatenate([np.arange(n - 1, -1, -1) for n in n_real])  # 0 = newest
    x = T.add(x, T.gather_rows(tables.abs_pos_table, recency))
    return _seq_mlp(tables, x), n_real


def target_global_token(candidates, tables: EmbeddingTables,
                        cfg: ModelConfig) -> Tensor:
    """The (C, D) global rows of a list of candidates, in list order: event
    featurizer with a zero action slot and zero time delta, lifted to width
    D, through the global MLP."""
    feat = event_feature_rows(
        tables.item_table, tables.action_table, tables.time_bucket_table,
        [c.item_id for c in candidates], None,
        np.zeros(len(candidates), dtype=np.int64))
    row_d = T.linear(feat, tables.mlp.tok_proj_w, tables.mlp.tok_proj_b)
    row = T.linear(row_d, tables.mlp.lift_w, tables.mlp.lift_b)
    return _global_mlp(tables, row)


def nontarget_global_tokens(users, tables: EmbeddingTables,
                            cfg: ModelConfig) -> Tensor:
    """The global rows of rank 0..m-2 (UID then CLS vectors) of a list of B
    users' features: (B*(m-1), D), user by user; candidate-free.

    UID passes through the shared d-to-D lift, CLS vectors are learned
    directly at width D, and every row goes through the global-token MLP
    row-wise, so the rows stay independent of the target row (rank m-1).
    Each user gets its own copy of the CLS rows.
    """
    B, n_cls = len(users), cfg.m - 2
    uid_rows = T.linear(_lookup("uid", tables.uid_table, [u.uid for u in users]),
                        tables.mlp.lift_w, tables.mlp.lift_b)
    order = np.empty((B, 1 + n_cls), dtype=np.int64)    # user b: UID row b,
    order[:, 0] = np.arange(B)                          # then the CLS rows
    order[:, 1:] = B + np.arange(n_cls)
    raw = T.gather_rows(T.concat([uid_rows, tables.cls_vector], -2), order.ravel())
    return _global_mlp(tables, raw)


def user_side_features(users, tables: EmbeddingTables) -> Tensor:
    """Candidate-independent (B, 2d) head features of a list of B users'
    features: [uid_emb, profile_emb] per row."""
    return T.concat([
        _lookup("uid", tables.uid_table, [u.uid for u in users]),
        _lookup("profile", tables.profile_table,
                [u.profile_bucket for u in users])], -1)
