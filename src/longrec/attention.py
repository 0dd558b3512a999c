"""Boolean visibility and the one attention block.

Token ordering everywhere is sequence rows first, global rows last. The
visibility rule:

  (a) a sequence query at chronological position p sees sequence keys at
      positions <= p and no global keys;
  (b) a global query sees every non-pad sequence key plus the global keys
      whose rank is <= its own rank;
  (c) pad rows are never visible as keys, and pad query rows see nothing.

Rule (a) keeps temporal causality; rule (b) gives the last-ranked global
(the candidate target) a full receptive field while making every other row
independent of it — the exact property that lets the serving module cache
all candidate-independent rows. Visibility is a boolean array that the
softmax uses to select logits, never added to them, so a hidden logit can
never perturb visible probabilities.

The same block serves the cross layer (queries over a different key set),
the self layers (``x_kv is x_q``) and cached scoring (a target row against
precomputed key/value rows passed as ``prefix_kv``). Blocks are pre-norm:
LN -> multi-head attention -> residual, then LN -> FFN -> residual, with
per-head scaling 1/sqrt(D/heads). One block at width w holds exactly
12*w^2 + 13*w parameters (four projections with biases, the 4x FFN with
biases, two layer norms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensors as T
from .errors import ConfigError, DimensionError
from .tensors import Tensor


def build_mask(query_positions, key_positions, is_global_query, is_global_key,
               global_rank_query=None, global_rank_key=None,
               is_pad_query=None, is_pad_key=None) -> np.ndarray:
    """The boolean (query, key) visibility for one query set and key set.

    ``*_positions`` carry chronological indices for sequence rows and are
    ignored for global rows, which use ``global_rank_*`` instead. Pad flags
    default to all-False.
    """
    qp = np.asarray(query_positions, dtype=np.int64)
    kp = np.asarray(key_positions, dtype=np.int64)
    gq = np.asarray(is_global_query, dtype=bool)
    gk = np.asarray(is_global_key, dtype=bool)
    nq, nk = qp.size, kp.size
    rq = np.zeros(nq, dtype=np.int64) if global_rank_query is None \
        else np.asarray(global_rank_query, dtype=np.int64)
    rk = np.zeros(nk, dtype=np.int64) if global_rank_key is None \
        else np.asarray(global_rank_key, dtype=np.int64)
    pq = np.zeros(nq, dtype=bool) if is_pad_query is None \
        else np.asarray(is_pad_query, dtype=bool)
    pk = np.zeros(nk, dtype=bool) if is_pad_key is None \
        else np.asarray(is_pad_key, dtype=bool)
    if not (qp.size == gq.size == rq.size == pq.size):
        raise DimensionError("query metadata arrays differ in length")
    if not (kp.size == gk.size == rk.size == pk.size):
        raise DimensionError("key metadata arrays differ in length")

    seq_sees_seq = (~gq[:, None]) & (~gk[None, :]) & (kp[None, :] <= qp[:, None])
    glob_sees_seq = gq[:, None] & (~gk[None, :])
    glob_sees_glob = gq[:, None] & gk[None, :] & (rk[None, :] <= rq[:, None])
    vis = seq_sees_seq | glob_sees_seq | glob_sees_glob
    vis[:, pk] = False
    vis[pq, :] = False

    bad = gq & ~pq & ~vis.any(axis=1)
    if bad.any():
        raise ConfigError("a global query row has no visible key")
    return vis


@dataclass
class BlockParams:
    """One attention block's parameters: 12*w^2 + 13*w values at width w."""

    w_q: Tensor
    b_q: Tensor
    w_k: Tensor
    b_k: Tensor
    w_v: Tensor
    b_v: Tensor
    w_o: Tensor
    b_o: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    ln1_g: Tensor
    ln1_b: Tensor
    ln2_g: Tensor
    ln2_b: Tensor

    @classmethod
    def create(cls, width: int, rng) -> "BlockParams":
        def w(fan_in, fan_out):
            return Tensor(rng.normal(0.0, 1.0 / math.sqrt(fan_in),
                                     size=(fan_in, fan_out)), requires_grad=True)

        def b(n):
            return Tensor(np.zeros(n), requires_grad=True)

        return cls(
            w_q=w(width, width), b_q=b(width),
            w_k=w(width, width), b_k=b(width),
            w_v=w(width, width), b_v=b(width),
            w_o=w(width, width), b_o=b(width),
            w1=w(width, 4 * width), b1=b(4 * width),
            w2=w(4 * width, width), b2=b(width),
            ln1_g=Tensor(np.ones(width), requires_grad=True), ln1_b=b(width),
            ln2_g=Tensor(np.ones(width), requires_grad=True), ln2_b=b(width),
        )

    _ORDER = ("w_q", "b_q", "w_k", "b_k", "w_v", "b_v", "w_o", "b_o",
              "w1", "b1", "w2", "b2", "ln1_g", "ln1_b", "ln2_g", "ln2_b")

    def params(self):
        return [(name, getattr(self, name)) for name in self._ORDER]

    def param_count(self) -> int:
        return sum(t.size for _, t in self.params())

    @property
    def width(self) -> int:
        return self.w_q.shape[0]


def _multi_head_attention(q: Tensor, k: Tensor, v: Tensor, visible: np.ndarray,
                          heads: int) -> Tensor:
    width = q.shape[1]
    dh = width // heads
    scale = 1.0 / math.sqrt(dh)
    parts = []
    for h in range(heads):
        qh = T.slice_cols(q, h * dh, (h + 1) * dh) if heads > 1 else q
        kh = T.slice_cols(k, h * dh, (h + 1) * dh) if heads > 1 else k
        vh = T.slice_cols(v, h * dh, (h + 1) * dh) if heads > 1 else v
        scores = T.matmul_t(T.mul(qh, scale), kh)
        probs = T.masked_softmax(scores, visible)
        parts.append(T.matmul(probs, vh))
    return T.concat_cols(parts) if heads > 1 else parts[0]


def attention_block(x_q: Tensor, x_kv: Tensor, visible: np.ndarray,
                    params: BlockParams, heads: int = 1, prefix_kv=None):
    """The pre-norm block: returns (output rows, key rows, value rows).

    Self-attention when ``x_kv`` is ``x_q``. ``prefix_kv``, a pair of
    already-projected (keys, values) arrays, puts those rows ahead of the
    block's own key rows: a cached prefix first, the own rows last, the key
    order of the full forward pass, so results agree with it to rounding.
    ``visible`` is the boolean (queries, keys) visibility over that order.
    """
    width = params.width
    if x_q.shape[1] != width or x_kv.shape[1] != width:
        raise DimensionError(
            f"block width {width} does not match inputs {x_q.shape}, {x_kv.shape}")
    if width % heads:
        raise DimensionError(f"width {width} not divisible by heads={heads}")
    n_keys = x_kv.shape[0] + (0 if prefix_kv is None else prefix_kv[0].shape[0])
    if np.shape(visible) != (x_q.shape[0], n_keys):
        raise DimensionError(
            f"visibility shape {np.shape(visible)} != ({x_q.shape[0]}, {n_keys})")
    qn = T.layer_norm(x_q, params.ln1_g, params.ln1_b)
    kn = qn if x_kv is x_q else T.layer_norm(x_kv, params.ln1_g, params.ln1_b)
    q = T.linear(qn, params.w_q, params.b_q)
    k = T.linear(kn, params.w_k, params.b_k)
    v = T.linear(kn, params.w_v, params.b_v)
    if prefix_kv is not None:
        k = T.concat_rows([Tensor(prefix_kv[0]), k])
        v = T.concat_rows([Tensor(prefix_kv[1]), v])
    ctx = _multi_head_attention(q, k, v, visible, heads)
    x1 = T.add(x_q, T.linear(ctx, params.w_o, params.b_o))
    x1n = T.layer_norm(x1, params.ln2_g, params.ln2_b)
    return T.add(x1, T.ffn(x1n, params.w1, params.b1, params.w2, params.b2)), k, v
