"""Token merge: compress L adjacent width-d tokens into L/K width-Kd tokens.

Two modes. ``concat`` groups K consecutive rows by pure reshaping (zero
parameters, bijective). ``inner`` first runs one or more small width-d
transformer blocks with full bidirectional attention inside each group,
then concatenates; parameters are shared across groups and no positional
information is injected here (positions are applied upstream), so the
per-group blocks are permutation-equivariant.

The merged token standing for group i inherits the chronological position
of its last (most recent) constituent: a query may see a merged token only
when it may see every constituent. Groups made entirely of padding are
zeroed after the inner blocks so pad rows stay inert downstream; groups
mixing pad and real tokens rely on pad rows entering as zero vectors.

A batch of samples merges as one stack of rows: each sample's rows are
padded to a multiple of K, so no group spans two samples.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensors as T
from .errors import ConfigError
from .tensors import Tensor


def pad_to_group_multiple(h: Tensor, K: int, pad_mask: np.ndarray):
    """Left-pad each sample's rows (and its pad mask) so their count divides
    K. ``h`` stacks the (rows, d) blocks of the samples whose pad masks are
    the rows of ``pad_mask`` (B, rows), or is one sample's with a 1-D mask."""
    L = pad_mask.shape[-1]
    extra = (-L) % K
    if extra == 0:
        return h, pad_mask
    lead, d = pad_mask.shape[:-1], h.shape[-1]
    padded = T.concat_rows([T.zeros(lead + (extra, d)), T.reshape(h, lead + (L, d))])
    return (T.reshape(padded, (-1, d)),
            np.concatenate([np.ones(lead + (extra,), dtype=bool), pad_mask], axis=-1))


def merged_positions(L_padded: int, K: int) -> np.ndarray:
    """Chronological position of each merged token: its last constituent."""
    return np.arange(L_padded // K, dtype=np.int64) * K + (K - 1)


def merged_pad_flags(pad_mask: np.ndarray, K: int) -> np.ndarray:
    """True where a group consists entirely of padding."""
    return pad_mask.reshape(-1, K).all(axis=1)


def merge_concat(h: Tensor, K: int) -> Tensor:
    """Concatenate each group of K consecutive rows; a pure reshape."""
    L, d = h.shape
    if K < 1 or L % K:
        raise ConfigError(f"K={K} does not divide padded length {L}")
    return T.reshape(h, (L // K, K * d))


def merge_inner_trans(h: Tensor, K: int, params: list,
                      pad_mask: np.ndarray | None = None) -> Tensor:
    """Run the shared per-group transformer blocks, then concatenate.

    ``params`` holds one width-d BlockParams per inner layer. Attention is
    full (non-causal) inside each K-row group, single head at width d with
    1/sqrt(d) scaling, realized as batched per-group products over a
    (L/K, K, d) view so no cross-group work is spent. All-pad groups are
    zeroed afterwards.
    """
    L, d = h.shape
    if K < 1 or L % K:
        raise ConfigError(f"K={K} does not divide padded length {L}")
    groups = (L // K, K, d)
    visible = np.ones((L // K, K, K), dtype=bool)
    scale = 1.0 / math.sqrt(d)
    x = h
    for blk in params:
        xn = T.layer_norm(x, blk.ln1_g, blk.ln1_b)
        q = T.reshape(T.linear(xn, blk.w_q, blk.b_q), groups)
        k = T.reshape(T.linear(xn, blk.w_k, blk.b_k), groups)
        v = T.reshape(T.linear(xn, blk.w_v, blk.b_v), groups)
        probs = T.masked_softmax(T.matmul(T.mul(q, scale), k, transpose_b=True),
                                 visible)
        ctx = T.reshape(T.matmul(probs, v), (L, d))
        x = T.add(x, T.linear(ctx, blk.w_o, blk.b_o))
        x = T.add(x, T.ffn(T.layer_norm(x, blk.ln2_g, blk.ln2_b),
                           blk.w1, blk.b1, blk.w2, blk.b2))
    if pad_mask is not None:
        dead = merged_pad_flags(pad_mask, K)
        if dead.any():
            keep = np.repeat(~dead, K).astype(np.float64).reshape(L, 1)
            x = T.mul(x, keep)
    return T.reshape(x, (L // K, K * d))
