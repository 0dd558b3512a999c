"""Token merge: compress L adjacent width-d tokens into L/K width-Kd tokens.

Two modes. ``concat`` groups K consecutive rows by pure reshaping (zero
parameters, bijective). ``inner`` first runs one or more small width-d
transformer blocks with full bidirectional attention inside each group,
then concatenates; parameters are shared across groups and no positional
information is injected here (positions are applied upstream), so the
per-group blocks are permutation-equivariant. Each inner block is the
model's one ``attention_block``, run on the groups as independent samples.

The merged token standing for group i inherits the chronological position
of its last (most recent) constituent: a query may see a merged token only
when it may see every constituent. A group made entirely of padding is a
pad row downstream, which the boolean visibility hides whatever its value;
groups mixing pad and real tokens rely on pad rows entering as zero vectors.

A batch of samples merges as one stack of rows: each sample's row count is
a multiple of K, so no group spans two samples. Each sample's history ends
a grid of merged_len = L_padded/K groups, the ones before it all padding;
``LongRecModel._merge`` lays the grid out and runs the inner blocks only on
the groups that hold events.
"""

from __future__ import annotations

import numpy as np

from . import tensors as T
from .attention import attention_block
from .errors import ConfigError
from .tensors import Tensor


def merged_positions(L_padded: int, K: int) -> np.ndarray:
    """Chronological position of each merged token: its last constituent."""
    return np.arange(L_padded // K, dtype=np.int64) * K + (K - 1)


def merged_pad_flags(n_real: np.ndarray, K: int, G: int) -> np.ndarray:
    """(B, G): True where a merged row of a grid of G groups holds no event,
    the leading G - ceil(n/K) rows of a sample with n events."""
    return np.arange(G) < G - -(-np.asarray(n_real)[:, None] // K)


def merge_concat(h: Tensor, K: int) -> Tensor:
    """Concatenate each group of K consecutive rows; a pure reshape."""
    L, d = h.shape
    if K < 1 or L % K:
        raise ConfigError(f"K={K} does not divide padded length {L}")
    return T.reshape(h, (L // K, K * d))


def merge_inner_trans(h: Tensor, K: int, params: list) -> Tensor:
    """Run the shared per-group transformer blocks, then concatenate.

    ``h`` stacks whole groups of K rows, L in all. ``params`` holds one
    width-d BlockParams per inner layer. Each layer is a one-head
    ``attention_block`` over the (L/K, K, d) group view: the groups run as
    independent samples with full (non-causal) visibility inside each, so no
    cross-group work is spent.
    """
    L, d = h.shape
    if K < 1 or L % K:
        raise ConfigError(f"K={K} does not divide padded length {L}")
    visible = np.ones((L // K, K, K), dtype=bool)
    x = T.reshape(h, (L // K, K, d))
    for blk in params:
        x = attention_block(x, x, visible, blk)[0]
    return T.reshape(x, (L // K, K * d))
