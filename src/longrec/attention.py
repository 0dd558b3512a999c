"""Boolean visibility and the one attention block.

Token ordering everywhere is sequence rows first, global rows last. Every
row has one integer order: a merged sequence row's is its group index i in
the G merged rows, a learnable query's G, global rank r's G + 1 + r, above
both. Padding is on the left: a sample's pad rows are exactly those whose
order is below ``first``, the order of its first event group. The one
visibility rule: a query sees every key whose order lies in [first, its
own order].

So sequence rows keep temporal causality and never see a global; the
last-ranked global (the candidate target), alone at the top of the order,
sees every non-pad key while no other row sees it, the exact property that
lets the serving module cache all candidate-independent rows; and a pad
query row, below first itself, sees nothing. Visibility is a boolean array,
built by ``build_mask`` from the query orders, the key orders and each
sample's ``first``, that ``T.attention`` uses to select scores, never added
to them, so a hidden score can never perturb visible probabilities.

The same block serves the inner merge's per-group layers (width d, each
group of K rows one sample with all-True visibility), the cross layer
(queries over a different key set), the self layers (``x_kv is x_q``), the
last self layer of a full pass or a cache build (``rows``: keys and values
from every row, output only for the CLS and target rows that a later stage
reads) and cached scoring (a block of target rows, each against
precomputed key/value rows passed as ``prefix_kv`` and its own key), all
through the one op ``T.attention``. Blocks are pre-norm: LN -> multi-head
attention -> residual, then LN -> FFN (``T.mlp`` at hidden width 4x) ->
residual, with per-head scaling 1/sqrt(width/heads). One block at width w
holds exactly 12*w^2 + 13*w parameters (four projections with biases, the
4x FFN with biases, two layer norms), listed in ``BlockParams`` field order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensors as T
from .errors import DimensionError
from .tensors import Tensor


def build_mask(query_order, key_order, first) -> np.ndarray:
    """The boolean (query, key) visibility: key j is visible to query i
    exactly when ``first <= key_order[j] <= query_order[i]``.

    The orders list their rows along the last axis; an order with a leading
    batch axis (B, rows) is one per sample, one without is shared. ``first``
    is each sample's lowest non-pad order, (B,) or one int for one sample
    (0: no padding). With a batch axis on any argument the visibility is
    (B, query, key), one per sample.
    """
    qo = np.asarray(query_order, dtype=np.int64)
    ko = np.asarray(key_order, dtype=np.int64)[..., None, :]
    lo = np.asarray(first, dtype=np.int64)[..., None, None]
    return (ko <= qo[..., :, None]) & (ko >= lo)


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
        w, h = width, 4 * width
        return cls(
            w_q=T.weight(rng, w, w), b_q=T.filled(w),
            w_k=T.weight(rng, w, w), b_k=T.filled(w),
            w_v=T.weight(rng, w, w), b_v=T.filled(w),
            w_o=T.weight(rng, w, w), b_o=T.filled(w),
            w1=T.weight(rng, w, h), b1=T.filled(h),
            w2=T.weight(rng, h, w), b2=T.filled(w),
            ln1_g=T.filled(w, 1.0), ln1_b=T.filled(w),
            ln2_g=T.filled(w, 1.0), ln2_b=T.filled(w),
        )

    def params(self):
        return T.named_fields(self)


def attention_block(x_q: Tensor, x_kv: Tensor, visible: np.ndarray,
                    params: BlockParams, heads: int = 1, prefix_kv=None,
                    rows=None):
    """The pre-norm block: returns (output rows, key rows, value rows), the
    keys and values being the projections of ``x_kv``.

    Rows are the second to last axis and the width the last: ``x_q`` and
    ``x_kv`` are (rows, width), or (B, rows, width) for B independent
    samples run as one batch. Self-attention when ``x_kv`` is ``x_q``;
    ``visible`` is the boolean (queries, keys) visibility, with the same
    leading B axis as the rows (``T.attention`` checks it and that the
    heads divide the width; the first ``T.layer_norm`` checks that both
    inputs have the block's width). ``prefix_kv``, a pair of already-projected
    (keys, values) arrays, makes every row of a 2-D ``x_q`` an independent
    target (so ``x_kv`` must be ``x_q``): row i sees the prefix rows and its
    own key row only, through ``visible``, the one (1, prefix + 1) row all
    targets share, which ``T.attention`` broadcasts in its masked fill. Its
    scores are [q_i K_prefix^T | q_i k_i] and its context P_prefix V_prefix
    + p_i v_i, with no score between two query rows, so each row agrees to
    rounding with a full pass over prefix + that row.

    ``rows``, a 1-D list of row indices (``T.gather_rows`` checks them),
    computes only those output rows of each sample in a self-attention
    block without ``prefix_kv``: keys and values still come from every
    row, while the queries (taken from the block's one layer norm of
    ``x_q``), the residual rows, the output projection and the FFN use only
    ``rows``. ``visible`` is then the (len(rows), keys) visibility of those
    rows and the output is (len(rows), width) per sample, equal to rounding
    to those rows of the full block.
    """
    if rows is not None and (x_kv is not x_q or prefix_kv is not None):
        raise DimensionError("rows takes a self-attention block without prefix_kv")
    if prefix_kv is not None:
        want = (1, len(prefix_kv[0]) + 1)
        if x_kv is not x_q or np.shape(visible) != want:
            raise DimensionError(f"prefix_kv scoring takes a block of rows, each its "
                                 f"own key, and a {want} visibility row")
    qn = T.layer_norm(x_q, params.ln1_g, params.ln1_b)
    kn = qn if x_kv is x_q else T.layer_norm(x_kv, params.ln1_g, params.ln1_b)
    if rows is not None:
        x_q, qn = T.gather_rows(x_q, rows), T.gather_rows(qn, rows)
    q = T.linear(qn, params.w_q, params.b_q)
    k = T.linear(kn, params.w_k, params.b_k)
    v = T.linear(kn, params.w_v, params.b_v)
    ctx = T.attention(q, k, v, visible, heads, prefix_kv)
    x1 = T.add(x_q, T.linear(ctx, params.w_o, params.b_o))
    x1n = T.layer_norm(x1, params.ln2_g, params.ln2_b)
    return T.add(x1, T.mlp(x1n, params.w1, params.b1, params.w2, params.b2)), k, v
