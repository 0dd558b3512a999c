"""Token merge: compress L adjacent width-d tokens into L/K width-Kd tokens.

Two modes. ``concat`` groups K consecutive rows by pure reshaping (zero
parameters, bijective). ``inner`` first runs one or more small width-d
transformer blocks with full bidirectional attention inside each group,
then concatenates; parameters are shared across groups and no positional
information is injected here (positions are applied upstream), so the
per-group blocks are permutation-equivariant. Each inner block is the
model's one ``attention_block``, run on the groups as independent samples.

A history of n events fills g = ceil(n/K) whole groups, its oldest group
led by zero rows when K does not divide n; ``LongRecModel._merge`` merges
those g groups alone (concat or inner) and then puts the G - g all-pad rows
of its merged_len = G = ceil(L/K) grid ahead of them. So one count per
sample, g, states all of its padding: merged row i holds an event exactly
when i >= G - g. A merged row's order downstream is its group index, so a
query sees a merged row only when it may see every constituent; the boolean
visibility hides the all-pad rows whatever they hold, and a group mixing
pad and real tokens relies on its pad rows entering as zero vectors. A
batch of samples merges as one stack of rows: each sample's row count is a
multiple of K, so no group spans two samples.
"""

from __future__ import annotations

import numpy as np

from . import tensors as T
from .attention import attention_block
from .errors import ConfigError
from .tensors import Tensor


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
