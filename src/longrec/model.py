"""End-to-end model assembly, training, and the order-invariant baseline.

Pipeline per sample: encode events to width-d tokens -> merge adjacent
groups to width D -> select k query tokens -> one cross-attention layer
over the full merged sequence plus globals -> N self-attention layers over
the retained rows, the last of which computes only the CLS and target rows
(its keys and values still cover every row) -> prediction head on the
target-global and CLS outputs concatenated with projected user features ->
sigmoid.

The forward pass runs a list of samples as one batch, each sample with its
own rows and masks, so only the per-op cost is shared: ``evaluate`` runs
each chunk of ``cfg.batch_size`` samples as one pass, ``score`` one sample.

Training is plain Adam (beta1=0.9, beta2=0.999, eps=1e-8) at a fixed
learning rate on mean batch BCE, with a temporal held-out split: the last
fraction of samples by candidate timestamp is never trained on. No weight
decay and no schedule, to keep scaling sweeps unconfounded. Each group of
``SAMPLES_PER_TAPE`` (four) training samples runs as one batched pass on a
gradient tape of its own (a shorter last group alone), so only one group's
tape is alive at a time. A tape keeps only what its backward reads, and its
backward recomputes the cheapest large activations (the event featurizer,
the sequence MLP's hidden layer and every GELU output) rather than keep
them, as LONGER does for long sequences.

Both models keep their parameters in one float64 vector ``flat``, each
parameter's ``data`` a C-contiguous view of it in ``params()`` order, so
checkpoints, ``fingerprint`` and Adam handle one buffer. Code that changes a
parameter writes into its ``data`` in place and bumps ``param_version``. The
vector is allocated before any parameter is made, so a config whose
parameters do not fit in memory raises ConfigError naming their count.

A training step exclusively owns the parameters it updates; inference over
read-shared parameters is thread-safe, and tapes are per thread. MAC
counting is process-wide: a ``count_muladds`` window counts every thread.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensors as T
from .attention import BlockParams, attention_block, build_mask
from .config import ModelConfig
from .errors import ConfigError, NumericalError, UndefinedMetricError
from .inputs import (EmbeddingTables, Sample, checked_int64s, encode_events,
                     event_feature_rows, nontarget_global_tokens,
                     target_global_token, time_buckets, time_deltas,
                     user_side_features)
from .merge import merge_concat, merge_inner_trans
from .tensors import Tensor
from . import analysis

CHECKPOINT_MAGIC = b"LRCKPT01"

# ----------------------------- query selection -----------------------------


@dataclass
class SelectedQueries:
    tokens: Tensor               # (B*k, D) selected rows, sample by sample
    order: np.ndarray            # their orders: merged-row index, or G if learned


def _spread(n, k: int) -> np.ndarray:
    """k indices evenly spread over range(n): ceil((j+1) * n / k) - 1; an
    (s, 1) array of n gives s rows of them."""
    return (np.arange(1, k + 1) * n + k - 1) // k - 1


def select_queries(h_merged: Tensor, strategy: str, k: int,
                   learnable_bank: Optional[Tensor], groups) -> SelectedQueries:
    """Pick the k merged tokens that act as attention queries.

    ``h_merged`` stacks the G merged rows of each of B samples, and sample
    b's ``groups[b]`` = g rows with an event are its last g, from first =
    G - g on. recent: the last k rows. uniform: rows first + idx_j, evenly
    spaced over the g by idx_j = ceil((j+1) * g / k) - 1. learnable: k
    learned vectors of order G, above every merged row (full sequence
    visibility). recent_uniform: floor(k/2) uniform, by the same formula,
    over the g - ceil(k/2) rows before the most recent ceil(k/2), then those
    recent ones; the picks are distinct and in order. When g <= k every
    strategy but learnable takes the last k rows, the leading k - g of them
    pad queries masked downstream.

    ``groups`` is (B,), or a scalar for one sample; ``order`` is then
    (B, k) or (k,), each pick's merged-row index, and ``tokens`` the B*k
    picked rows (for one sample and learnable queries, the bank itself).
    """
    if k < 1:
        raise ConfigError("query count k must be >= 1")
    g = np.asarray(groups, dtype=np.int64).reshape(-1, 1)
    B = g.shape[0]
    G = h_merged.shape[0] // B
    shape = np.shape(groups) + (k,)

    if strategy == "learnable":
        if learnable_bank is None or learnable_bank.shape[0] != k:
            raise ConfigError("learnable strategy needs a (k, D) query bank")
        return SelectedQueries(
            tokens=learnable_bank if B == 1 else
            T.gather_rows(learnable_bank, np.arange(B * k) % k),
            order=np.full(shape, G, dtype=np.int64))

    if k > G:
        raise ConfigError(f"k={k} exceeds merged length {G}")
    last = G - k + np.arange(k)
    if strategy == "recent":
        idx = last
    elif strategy == "uniform":
        idx = G - g + _spread(g, k)
    elif strategy == "recent_uniform":
        # Where g > k the g - ceil(k/2) rows before the recent ones number
        # more than floor(k/2): the uniform picks strictly increase and
        # precede them.
        r = (k + 1) // 2
        idx = np.concatenate([G - g + _spread(g - r, k - r),
                              np.broadcast_to(last[k - r:], (B, r))], axis=1)
    else:
        raise ConfigError(f"unknown query strategy {strategy!r}")
    idx = np.where(g <= k, last, idx)
    return SelectedQueries(
        tokens=T.gather_rows(h_merged, (idx + G * np.arange(B)[:, None]).ravel()),
        order=idx.reshape(shape))


@dataclass
class UserRows:
    """The candidate-free part of the forward pass of B users.

    User b's first-layer query rows are [queries[b]; globals[b]; target]
    and its key rows [merged[b]; globals[b]; target], where ``globals`` are
    the UID and CLS rows (ranks 0..m-2) and the target row is the one piece
    that depends on the candidate. ``visible_cross`` (B, k+m, G+m), for G
    merged rows, and ``visible_self`` (B, k+m, k+m) are ``build_mask`` over
    the rows' orders and each user's first = G - g, the order of its first
    event group (see ``LongRecModel.user_rows``), and cover every row,
    target last, so the target's visibility is their last row and every
    other row's is the rest. No row of one user sees a row of another. For
    one user every field lacks the leading B axis.
    """

    queries: Tensor              # (B, k, D) selected query rows
    merged: Tensor               # (B, G, D)
    globals: Tensor              # (B, m-1, D)
    visible_cross: np.ndarray
    visible_self: np.ndarray
    user_side: Tensor            # (B, 2d) head features


def _batch_axis(B: int) -> tuple:
    """The leading shape of B samples' row blocks; none for one sample. One
    sample in the 3-D (1, rows, width) layout made ``score_request`` slower:
    x1.032 serve-wide, x1.024 serve-long, x1.015 train-planted (medians of 20
    interleaved in-process rounds each, slower in 48 of 60; 2-vCPU VM, one
    BLAS thread)."""
    return (B,) if B > 1 else ()


# ----------------------------- the model -----------------------------


# Identity-biased initialization constants. At desk scale the retrieval
# circuit (target token attends to matching history, the head reads the
# second-order match features) cannot be discovered from scratch within a
# few thousand optimizer steps, so the model starts wired for it: input
# MLPs begin as exact identities (GELU(x) - GELU(-x) = x), token projection
# passes the item block through, the d-to-D lift tiles its input across the
# merge slots, item embeddings start unit-norm, attention starts with tied
# scaled query/key maps and identity value paths, and the head starts as a
# reader of the quadratic features. Everything remains freely trainable.
_QK_GAIN = 1.5
_WO_SCALE_CROSS = 0.3
_WO_SCALE_SELF = 0.1
_FFN_OUT_DAMP = 0.05
_SIDE_EMB_STD = 0.05
_HEAD_DAMP = 0.05
_HEAD_PRIME_IN = 0.5
_HEAD_PRIME_OUT = 0.15


def _identity_mlp_init(w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
                       width: int) -> None:
    """Make a GELU MLP compute the identity: GELU(x) - GELU(-x) == x."""
    w1.data[:] = 0.0
    b1.data[:] = 0.0
    w2.data[:] = 0.0
    b2.data[:] = 0.0
    for i in range(width):
        w1.data[i, i] = 1.0
        w1.data[i, width + i] = -1.0
        w2.data[i, i] = 1.0
        w2.data[width + i, i] = -1.0


def _parameter_vector(n: int) -> np.ndarray:
    """The unwritten vector ``flat`` of ``n`` parameters, made before any
    parameter is, so a config too large for memory raises ConfigError."""
    try:
        return np.empty(n)
    except (MemoryError, ValueError):       # ValueError: beyond the address space
        raise ConfigError(f"cannot allocate the {n:,} parameters of this config") from None


def _lay_out(named, flat: np.ndarray, values=None) -> None:
    """Rebind each parameter's ``data`` to its C-contiguous view of ``flat``,
    in ``named`` order, after writing ``values`` into ``flat``: a vector, or
    by default the parameters' own values."""
    if values is None:
        np.concatenate([t.data.reshape(-1) for _, t in named], out=flat)
    else:
        flat[...] = values
    start = 0
    for _, t in named:
        t.data = flat[start:start + t.size].reshape(t.shape)
        start += t.size


class _NoDraws:
    """``load``'s generator: its draws are unwritten arrays, not random numbers."""
    normal = staticmethod(lambda loc, scale, size: np.empty(size))


class LongRecModel:
    """Long-sequence recommender transformer (see module docstring)."""

    def __init__(self, cfg: ModelConfig, seed: int = 0) -> None:
        self._create(cfg, np.random.default_rng(seed))
        _lay_out(self.params(), self.flat)
        self._identity_biased_init()

    def _create(self, cfg: ModelConfig, rng) -> None:
        """Make the unwritten vector ``flat`` and then the parameters from
        ``rng``'s draws, in ``params()`` order."""
        cfg.validate()
        self.cfg = cfg
        self.flat = _parameter_vector(analysis.count_params(cfg)["total"])
        self.tables = EmbeddingTables.create(cfg, rng)
        self.inner_blocks = ([BlockParams.create(cfg.d, rng)
                              for _ in range(cfg.inner_layers)]
                             if cfg.merge_mode == "inner" else [])
        self.cross_block = BlockParams.create(cfg.D, rng)
        self.self_blocks = [BlockParams.create(cfg.D, rng) for _ in range(cfg.N)]
        self.query_bank = (T.table(rng, cfg.k, cfg.D)
                           if cfg.query_strategy == "learnable" else None)
        self.head_w1 = T.weight(rng, 4 * cfg.D + 2 * cfg.d, cfg.head_hidden)
        self.head_b1 = T.filled(cfg.head_hidden)
        self.head_w2 = T.weight(rng, cfg.head_hidden, 1)
        self.head_b2 = T.filled(1)
        self.param_version = 0
        self._fingerprint = None     # (param_version, digest) memo

    def _identity_biased_init(self) -> None:
        cfg = self.cfg
        t = self.tables
        for table in (t.item_table, t.cls_vector):
            norms = np.linalg.norm(table.data, axis=1, keepdims=True)
            table.data /= np.maximum(norms, 1e-12)
        for side in (t.action_table, t.time_bucket_table, t.abs_pos_table):
            side.data *= _SIDE_EMB_STD / 0.3
        t.mlp.tok_proj_w.data *= 0.1
        for i in range(min(cfg.d_item, cfg.d)):
            t.mlp.tok_proj_w.data[i, i] = 1.0
        _identity_mlp_init(t.mlp.seq_w1, t.mlp.seq_b1,
                           t.mlp.seq_w2, t.mlp.seq_b2, cfg.d)
        _identity_mlp_init(t.mlp.glob_w1, t.mlp.glob_b1,
                           t.mlp.glob_w2, t.mlp.glob_b2, cfg.D)
        t.mlp.lift_w.data *= 0.1
        for s in range(cfg.K):
            for i in range(cfg.d):
                t.mlp.lift_w.data[i, s * cfg.d + i] = 1.0
        for blk in [self.cross_block] + self.self_blocks:
            blk.w_k.data[...] = blk.w_q.data * _QK_GAIN
            blk.w_q.data *= _QK_GAIN
            blk.w_v.data[...] = np.eye(cfg.D)
            scale = _WO_SCALE_CROSS if blk is self.cross_block else _WO_SCALE_SELF
            blk.w_o.data[...] = np.eye(cfg.D) * scale
            blk.w2.data *= _FFN_OUT_DAMP
        D = cfg.D
        self.head_w1.data *= _HEAD_DAMP
        self.head_w2.data *= _HEAD_DAMP
        readers = (((2 * D, 0, 1.0), (2 * D, 1, -1.0),       # +/- of tgt*cls
                    (3 * D, 2, 1.0), (3 * D, 3, -1.0)))      # +/- of tgt*tgt
        for offset, col, sign in readers:
            if col >= cfg.head_hidden:
                break
            for j in range(D):
                self.head_w1.data[offset + j, col] += sign * _HEAD_PRIME_IN
            self.head_w2.data[col, 0] = sign * _HEAD_PRIME_OUT

    def params(self):
        out = [(f"tables.{n}", t) for n, t in self.tables.params()]
        for i, blk in enumerate(self.inner_blocks):
            out.extend((f"inner.{i}.{n}", t) for n, t in blk.params())
        out.extend((f"cross.{n}", t) for n, t in self.cross_block.params())
        for i, blk in enumerate(self.self_blocks):
            out.extend((f"self.{i}.{n}", t) for n, t in blk.params())
        if self.query_bank is not None:
            out.append(("query_bank", self.query_bank))
        out.extend([("head.w1", self.head_w1), ("head.b1", self.head_b1),
                    ("head.w2", self.head_w2), ("head.b2", self.head_b2)])
        return out

    def fingerprint(self) -> str:
        """sha256 of the config and the parameter vector ``flat``.

        Memoized per ``param_version``: every mutation path (``train``'s
        Adam steps, ``load``) moves the version, and code that writes into a
        parameter's ``.data`` in place must bump ``param_version`` too, or
        caches built before the write stay accepted.
        """
        memo = self._fingerprint
        if memo is None or memo[0] != self.param_version:
            h = hashlib.sha256(json.dumps(self.cfg.to_dict(), sort_keys=True).encode())
            h.update(self.flat.astype("<f8", copy=False))
            memo = self._fingerprint = (self.param_version, h.hexdigest()[:16])
        return memo[1]

    # ------------------------- forward -------------------------

    def _merge(self, rows: Tensor, n_real: np.ndarray) -> Tensor:
        """Merge B samples' real token rows, ``n_real[b]`` of sample b, into
        their (B*G, D) merged rows. Each history is left-padded with zero
        rows to its g = ceil(n/K) whole groups, which alone are merged, and
        its merged rows are then left-padded with zero rows to G: a group
        without an event costs no merge work."""
        cfg = self.cfg
        groups = -(-n_real // cfg.K)
        grouped = T.left_pad_rows(rows, n_real, cfg.K * groups)
        merged = (merge_inner_trans(grouped, cfg.K, self.inner_blocks)
                  if cfg.merge_mode == "inner" else merge_concat(grouped, cfg.K))
        return T.left_pad_rows(merged, groups, cfg.merged_len)

    def user_rows(self, histories, users, times) -> UserRows:
        """Encode, merge and select queries for B users, user b with history
        ``histories[b]`` and features ``users[b]`` at scoring time
        ``times[b]``, and build their UID/CLS globals, the head's user
        features and the visibility of all k+m query rows.

        Every row has an order for ``build_mask``: merged row i has order i,
        a learnable query G and global rank r G + 1 + r. A history that
        fills g = ceil(n/K) groups gives ``build_mask`` its user's first =
        G - g, below which every row is padding: only merged rows can be.
        """
        cfg = self.cfg
        G, lead = cfg.merged_len, _batch_axis(len(histories))
        rows, n_real = encode_events(histories, times, self.tables, cfg)
        merged = self._merge(rows, n_real)
        groups = -(-n_real // cfg.K)
        sel = select_queries(merged, cfg.query_strategy, cfg.k, self.query_bank,
                             groups.reshape(lead))
        glob = G + 1 + np.arange(cfg.m)
        q_order = np.concatenate([sel.order, np.broadcast_to(glob, lead + (cfg.m,))],
                                 axis=-1)
        k_order = np.concatenate([np.arange(G), glob])
        first = (G - groups).reshape(lead)
        return UserRows(
            queries=T.reshape(sel.tokens, lead + (cfg.k, cfg.D)),
            merged=T.reshape(merged, lead + (G, cfg.D)),
            globals=T.reshape(nontarget_global_tokens(users, self.tables, cfg),
                              lead + (cfg.m - 1, cfg.D)),
            visible_cross=build_mask(q_order, k_order, first),
            visible_self=build_mask(q_order, q_order, first),
            user_side=user_side_features(users, self.tables))

    def _layers(self, x: Tensor, keys: Tensor, visible: np.ndarray,
                visible_self: np.ndarray, prefix=None, rows=None) -> list:
        """Run the cross block over queries ``x`` and key rows ``keys`` with
        visibility ``visible``, then each self block over the previous
        block's output with ``visible_self``; returns every block's
        (output, K, V). The loop rebinds its arguments, so no reference here
        keeps the first block's inputs alive once it has run.

        ``prefix``, one (keys, values) pair per block, puts cached key rows
        ahead of each block's own (see ``attention_block``). ``rows`` makes
        the last block compute only those rows of each sample, the rows the
        caller reads; its keys and values still cover every row.
        """
        out = []
        blocks = [self.cross_block] + self.self_blocks
        for i, blk in enumerate(blocks):
            take = rows if i == len(blocks) - 1 else None
            if take is not None:
                visible = visible[..., take, :]
            x, k, v = attention_block(x, keys, visible, blk, self.cfg.heads,
                                      prefix_kv=None if prefix is None else prefix[i],
                                      rows=take)
            out.append((x, k, v))
            keys, visible = x, visible_self
        return out

    def _head(self, target_row: Tensor, cls_row: Tensor, user_side: Tensor) -> Tensor:
        # Second-order features: target*CLS reads candidate-vs-pooled-history
        # interactions, target*target reads how strongly the target's own
        # attention returned content aligned with the candidate. Both are
        # standard ranking-head constructions; without them a plain MLP has
        # to discover bilinear readouts, which desk-scale budgets do not allow.
        head_in = T.concat([target_row, cls_row, T.mul(target_row, cls_row),
                            T.mul(target_row, target_row), user_side], -1)
        return T.sigmoid(T.mlp(head_in, self.head_w1, self.head_b1,
                               self.head_w2, self.head_b2))

    def forward_tensor(self, samples) -> Tensor:
        """The (B, 1) probabilities of a list of B samples, in one pass.

        Each sample gets its own complete forward: its candidate-free rows
        come from ``user_rows``, its candidate's target row is appended last
        to its first layer's queries and keys, and no row sees another
        sample's. Only the per-op cost is shared. ``score`` is the batch of
        one; a training tape is a group of samples (see ``batch_backward``).
        """
        cfg = self.cfg
        B, q = len(samples), cfg.k + cfg.m
        u = self.user_rows([s.events for s in samples],
                           [s.user_features for s in samples],
                           [s.candidate.timestamp for s in samples])
        target = T.reshape(target_global_token([s.candidate for s in samples],
                                               self.tables, cfg),
                           _batch_axis(B) + (1, cfg.D))
        layers = self._layers(T.concat([u.queries, u.globals, target], -2),
                              T.concat([u.merged, u.globals, target], -2),
                              u.visible_cross, u.visible_self,
                              rows=[cfg.k + 1, q - 1])
        x = T.reshape(layers[-1][0], (2 * B, cfg.D))     # CLS, target per sample
        first = 2 * np.arange(B)
        target_row = T.gather_rows(x, first + 1)
        cls_row = T.gather_rows(x, first)
        return self._head(target_row, cls_row, u.user_side)

    def score(self, sample: Sample) -> float:
        return float(self.forward_tensor([sample]).data[0, 0])

    # ------------------------- checkpointing -------------------------

    def save(self, path: str) -> None:
        """Binary checkpoint: magic, JSON header, raw little-endian float64.

        Layout: 8-byte magic ``LRCKPT01``; uint64 little-endian header
        length; UTF-8 JSON header {format_version, config, param_version,
        arrays: [{name, shape}]}; then each array's float64 little-endian
        bytes concatenated in header order: the vector ``flat``.
        """
        header = {
            "format_version": 1,
            "config": self.cfg.to_dict(),
            "param_version": self.param_version,
            "arrays": [{"name": n, "shape": list(t.shape)} for n, t in self.params()],
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            fh.write(self.flat.astype("<f8", copy=False))

    @classmethod
    def load(cls, path: str) -> "LongRecModel":
        """Read a ``save`` file; any deviation from its layout is a ConfigError.

        The header's ``param_version`` must be an integer, its config's
        parameter count must match the payload's length (checked before the
        model is built), the header must list exactly the names and shapes
        of ``params()`` for that config, and the file must end exactly after
        their bytes. Its vector is one copy of the payload, with no random init.
        """
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read checkpoint {path}: {exc}") from exc
        magic = blob[:8]
        if magic != CHECKPOINT_MAGIC:
            raise ConfigError(f"not a checkpoint file: bad magic {magic!r}")
        if len(blob) < 16:
            raise ConfigError("truncated checkpoint: no header length")
        (hlen,) = struct.unpack_from("<Q", blob, 8)
        start = 16 + hlen
        if len(blob) < start:
            raise ConfigError("truncated checkpoint header")
        try:
            header = json.loads(blob[16:start].decode("utf-8"))
            version = header.get("format_version")
            cfg_payload, arrays = header["config"], header["arrays"]
            param_version = header["param_version"]
        except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ConfigError(f"malformed checkpoint header: {exc}") from exc
        if version != 1:
            raise ConfigError("unsupported checkpoint format version")
        checked_int64s([param_version], "checkpoint param_version")
        cfg = ModelConfig.from_dict(cfg_payload)
        size = 8 * analysis.count_params(cfg)["total"]
        if len(blob) - start != size:       # checked before any allocation
            raise ConfigError(f"checkpoint payload is {len(blob) - start} bytes, "
                              f"its config needs {size}")
        model = cls.__new__(cls)
        model._create(cfg, _NoDraws)
        named = model.params()
        if arrays != [{"name": n, "shape": list(t.shape)} for n, t in named]:
            raise ConfigError("checkpoint arrays differ from the model's parameters")
        _lay_out(named, model.flat, np.frombuffer(blob, dtype="<f8", offset=start))
        model.param_version = param_version
        return model


# ----------------------------- optimizer / training -----------------------------


@dataclass
class OptConfig:
    """Shuffle seed and held-out fraction; the learning rate and batch size
    are the model config's ``lr`` and ``batch_size``."""

    seed: int = 0
    eval_fraction: float = 0.1


class Adam:
    """Adam with fixed hyperparameters (beta1=0.9, beta2=0.999, eps=1e-8),
    one update of the model's vector ``flat`` per step, with moment vectors
    ``m`` and ``v``; a parameter rebound rather than written in place would
    leave the vector."""

    def __init__(self, model, lr: float) -> None:
        self.named = model.params()
        self.flat = model.flat
        self.lr = float(lr)
        self.t = 0
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)

    def zero_grads(self) -> None:
        for _, t in self.named:
            t.zero_grad()

    def step(self) -> None:
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        m, v, flat = self.m, self.v, self.flat
        # A parameter no gradient reached (e.g. only empty histories) is left as it is.
        lost = [t.grad is None for _, t in self.named]
        have = np.repeat(np.logical_not(lost), [t.size for _, t in self.named]) \
            if any(lost) else True
        g = np.concatenate([np.zeros(t.size) if t.grad is None else t.grad.reshape(-1)
                            for _, t in self.named])
        # With the operation order of m += (1 - b1) * g; v += (1 - b2) * g * g;
        # flat -= lr * (m / c1) / (sqrt(v / c2) + eps), in g and one scratch vector.
        work = g * (1 - b2)
        work *= g
        np.multiply(v, b2, out=v, where=have)
        np.add(v, work, out=v, where=have)
        g *= 1 - b1
        np.multiply(m, b1, out=m, where=have)
        np.add(m, g, out=m, where=have)
        np.divide(m, c1, out=g)
        g *= self.lr
        np.divide(v, c2, out=work)
        np.sqrt(work, out=work)
        work += eps
        g /= work
        np.subtract(flat, g, out=flat, where=have)


@dataclass
class EpochStats:
    epoch: int
    loss: float
    auc: float
    logloss: float


@dataclass
class TrainingReport:
    epochs: list

    @property
    def final(self) -> EpochStats:
        return self.epochs[-1]


def temporal_split(samples, eval_fraction: float):
    """Order by candidate timestamp; hold out the trailing fraction.

    ``eval_fraction`` must lie in [0, 1) (NaN does not); ConfigError otherwise.
    """
    if not 0.0 <= eval_fraction < 1.0:
        raise ConfigError(f"eval_fraction must be in [0, 1), got {eval_fraction!r}")
    order = np.argsort([s.candidate.timestamp for s in samples], kind="mergesort")
    n_eval = int(round(eval_fraction * len(samples)))
    if n_eval == 0:
        return order, np.array([], dtype=np.int64)
    return order[:-n_eval], order[-n_eval:]


def evaluate(model, samples) -> tuple:
    """(scores, labels) of ``samples``, in sample order. Each chunk of
    ``cfg.batch_size`` samples is one ``forward_tensor`` pass; each sample
    still gets its own complete forward and no cache, so the scores are an
    independent reference for cached serving."""
    step = model.cfg.batch_size
    chunks = [model.forward_tensor(samples[i:i + step]).data[:, 0]
              for i in range(0, len(samples), step)]
    scores = np.concatenate(chunks) if chunks else np.zeros(0)
    labels = np.array([s.label for s in samples])
    return scores, labels


def eval_metrics(model, samples) -> tuple:
    scores, labels = evaluate(model, samples)
    try:
        a = analysis.auc(scores, labels)
    except UndefinedMetricError:
        a = float("nan")
    return a, analysis.logloss(scores, labels)


SAMPLES_PER_TAPE = 4
"""Training samples per gradient tape. One tape runs consecutive samples as
one batched forward and backward, so they share the per-op cost, and holds
what their backward reads until it runs. At the config of
``test_training_peak_memory_does_not_grow_with_batch``, the traced peak of
an epoch at batch 8 over one at batch 1, measured in a run of the whole
``test_model.py``, is 1.42 with two samples per tape, 1.65 with three and
1.88 with four, within that test's bound of 2 (2.15 with four before tapes
kept only what backward reads and recomputed the featurizer, the sequence
MLP's hidden layer and the GELU outputs)."""


def batch_backward(model, samples) -> float:
    """Accumulate the gradient of the batch's mean BCE into the parameters'
    ``.grad`` and return that mean loss.

    Consecutive groups of ``SAMPLES_PER_TAPE`` samples (the last group
    holding what is left) each run as one ``forward_tensor`` pass on a tape
    of their own, and each group's mean loss backpropagates seeded with its
    share of the batch, so only one group's tape is alive at a time. Stops
    before the backward of the first group whose loss is non-finite, a
    non-finite loss of any of its samples, and returns that loss.
    """
    total = 0.0
    for start in range(0, len(samples), SAMPLES_PER_TAPE):
        group = samples[start:start + SAMPLES_PER_TAPE]
        with T.tape():
            loss = T.bce(model.forward_tensor(group), [s.label for s in group])
            value = float(loss.data)
            if not math.isfinite(value):
                return value
            loss.backward(np.full((), len(group) / len(samples)))
        total += value * len(group)
    return total / len(samples)


def train(model, dataset, epochs: int, opt: Optional[OptConfig] = None) -> TrainingReport:
    """Fit the model on the temporal-train split; returns per-epoch stats.

    Bit-reproducible given (model seed, opt.seed) at one BLAS build and
    thread count, which ``manifest.json`` records under ``runtime`` (the
    trained bits can differ between thread counts): shuffling uses a
    dedicated generator and batch reduction order is fixed. Aborts with a
    diagnostic on the first non-finite loss.
    """
    if epochs < 1:
        raise ConfigError(f"epochs must be >= 1, got {epochs}")
    if not dataset.samples:
        raise ConfigError("cannot train on an empty dataset")
    opt = opt or OptConfig()
    batch = model.cfg.batch_size
    train_idx, eval_idx = temporal_split(dataset.samples, opt.eval_fraction)
    if train_idx.size == 0:
        raise ConfigError("temporal split left no training samples")
    adam = Adam(model, model.cfg.lr)
    rng = np.random.default_rng(opt.seed)
    rows = []
    for epoch in range(1, epochs + 1):
        perm = rng.permutation(train_idx)
        losses = []
        for start in range(0, perm.size, batch):
            adam.zero_grads()
            value = batch_backward(model, [dataset.samples[int(i)]
                                           for i in perm[start:start + batch]])
            if not math.isfinite(value):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch}, batch offset {start}")
            adam.step()
            model.param_version += 1
            losses.append(value)
        if eval_idx.size:
            auc_val, ll_val = eval_metrics(
                model, [dataset.samples[int(i)] for i in eval_idx])
        else:
            auc_val, ll_val = float("nan"), float("nan")
        rows.append(EpochStats(epoch, float(np.mean(losses)), auc_val, ll_val))
    return TrainingReport(rows)


# ----------------------------- sum-pooling baseline -----------------------------


class SumPoolingModel:
    """Order-invariant reference: mean of event features, candidate-aware head.

    Events are embedded exactly like the main model's featurizer input, by
    the same ``inputs.event_feature_rows`` (item, action, time-bucket
    concat; a zero action slot for the candidate), but never see positions,
    so any permutation of the event list scores identically. An item or
    action id outside its table raises EmbeddingLookupError, as in the main
    model. Its head is a width-32 GELU MLP whose parameters, ``head_w1`` ..
    ``head_b2``, are attributes of the model, as in the main model.
    """

    def __init__(self, cfg: ModelConfig, seed: int = 0) -> None:
        cfg.validate()
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        F, hidden = cfg.feat_width, 32
        self.flat = _parameter_vector(
            cfg.vocab * cfg.d_item + cfg.n_actions * cfg.d_act
            + cfg.n_time_buckets * cfg.d_time + 2 * F * hidden + 2 * hidden + 1)
        self.item_table = T.table(rng, cfg.vocab, cfg.d_item)
        self.action_table = T.table(rng, cfg.n_actions, cfg.d_act)
        self.time_table = T.table(rng, cfg.n_time_buckets, cfg.d_time)
        self.head_w1 = T.weight(rng, 2 * F, hidden)
        self.head_b1 = T.filled(hidden)
        self.head_w2 = T.weight(rng, hidden, 1)
        self.head_b2 = T.filled(1)
        _lay_out(self.params(), self.flat)
        self.param_version = 0

    def params(self):
        return [("item_table", self.item_table), ("action_table", self.action_table),
                ("time_table", self.time_table),
                ("head.w1", self.head_w1), ("head.b1", self.head_b1),
                ("head.w2", self.head_w2), ("head.b2", self.head_b2)]

    def _pooled(self, sample: Sample) -> Tensor:
        """The (1, F) mean feature row of the sample's visible events."""
        events = sample.events[-self.cfg.L:]
        if not len(events):
            return T.zeros((1, self.cfg.feat_width))
        deltas = time_deltas(sample.candidate.timestamp, events.timestamp)
        return T.mean_rows(event_feature_rows(
            self.item_table, self.action_table, self.time_table, events.item_id,
            events.action_type, time_buckets(deltas, self.cfg.n_time_buckets)))

    def forward_tensor(self, samples) -> Tensor:
        """The (B, 1) probabilities of a list of B samples; each sample's
        events are pooled on their own."""
        pooled = T.concat([self._pooled(s) for s in samples], -2)
        target = event_feature_rows(
            self.item_table, self.action_table, self.time_table,
            [s.candidate.item_id for s in samples], None,
            np.zeros(len(samples), dtype=np.int64))
        head_in = T.concat([pooled, target], -1)
        return T.sigmoid(T.mlp(head_in, self.head_w1, self.head_b1,
                               self.head_w2, self.head_b2))

    def score(self, sample: Sample) -> float:
        return float(self.forward_tensor([sample]).data[0, 0])
