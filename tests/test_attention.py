"""Visibility rules, block numerics, candidate invisibility, causality."""

import math

import numpy as np
import pytest

from conftest import fd_check, n_params, readout
from test_model import sample_for
from longrec import analysis
from longrec import tensors as T
from longrec.attention import BlockParams, attention_block, build_mask
from longrec.errors import DimensionError
from longrec.model import LongRecModel
from longrec.tensors import Tensor


def block(x_q, visible, params, heads=1, x_kv=None):
    """Block output only; self-attention unless ``x_kv`` is given."""
    x_kv = x_q if x_kv is None else x_kv
    return attention_block(x_q, x_kv, visible, params, heads)[0]


# ----------------------------- masks -----------------------------


def test_mask_reduces_to_lower_triangular():
    L = 5
    mask = build_mask(np.arange(L), np.arange(L), 0)
    expected = np.tril(np.ones((L, L))) > 0
    np.testing.assert_array_equal(mask, expected)


def mask_for_layout(n_seq_q, n_seq_k, m, first=0):
    """Sequence rows at positions 0, 1, ..., then m globals whose orders
    (rank r at top + r) lie above every position; the rows below ``first``
    are pads."""
    top = max(n_seq_q, n_seq_k)
    return build_mask(np.concatenate([np.arange(n_seq_q), top + np.arange(m)]),
                      np.concatenate([np.arange(n_seq_k), top + np.arange(m)]),
                      first)


def test_target_global_sees_all_nonpad_keys():
    mask = mask_for_layout(3, 4, 3, first=1)
    target_row = mask[-1]
    assert target_row[1:].all()
    assert not target_row[0]                   # the pad key stays hidden


def test_sequence_query_never_sees_globals():
    mask = mask_for_layout(3, 4, 3)
    seq_rows = mask[:3]
    assert not seq_rows[:, 4:].any()


def test_global_rank_ordering():
    mask = mask_for_layout(2, 2, 3)
    g = mask[2:, 2:]
    # UID (rank 0) sees only itself; CLS sees UID+CLS; target sees all three.
    np.testing.assert_array_equal(g, np.tril(np.ones((3, 3))) > 0)


def test_pad_keys_hidden():
    mask = build_mask([2, 2], [0, 1, 2], [2, 0])      # two pads, then none
    assert mask.shape == (2, 2, 3)
    np.testing.assert_array_equal(mask[0], [[False, False, True]] * 2)
    assert mask[1].all()


def test_pad_queries_see_nothing(tiny_cfg):
    """One event fills one of the k merged groups a query may take, so the
    other k-1 query rows are pads: they see no key in the cross or the self
    layers, while the real query row sees its own group and itself."""
    model = LongRecModel(tiny_cfg, seed=0)
    s = sample_for(tiny_cfg, 1)
    u = model.user_rows([s.events], [s.user_features], [s.candidate.timestamp])
    k = tiny_cfg.k
    assert not u.visible_cross[:k - 1].any()
    assert not u.visible_self[:k - 1].any()
    assert u.visible_cross[k - 1, tiny_cfg.merged_len - 1]
    assert u.visible_self[k - 1, k - 1]


# ----------------------------- blocks -----------------------------


def make_block(width, seed=0):
    return BlockParams.create(width, np.random.default_rng(seed))


def test_block_param_count():
    blk = make_block(6)
    assert n_params(blk) == analysis.params_block(6)


def test_cross_equals_self_when_sources_coincide():
    rng = np.random.default_rng(1)
    n, D = 5, 4
    x = Tensor(rng.normal(size=(n, D)))
    blk = make_block(D, 2)
    mask = np.tril(np.ones((n, n))) > 0
    a = block(x, mask, blk, x_kv=Tensor(x.data)).data
    b = block(x, mask, blk).data
    assert np.abs(a - b).max() <= 1e-12


def test_single_visible_key_returns_its_value():
    rng = np.random.default_rng(3)
    q, v, D = 3, 4, 4
    queries = Tensor(rng.normal(size=(q, D)))
    keys = Tensor(rng.normal(size=(v, D)))
    values = Tensor(rng.normal(size=(v, D)))
    mask = np.zeros((q, v), dtype=bool)
    visible = [2, 0, 3]
    for i, j in enumerate(visible):
        mask[i, j] = True
    context = T.attention(queries, keys, values, mask).data
    for i, j in enumerate(visible):
        np.testing.assert_allclose(context[i], values.data[j], atol=1e-12)


def test_cross_block_matches_per_query_loop_oracle():
    """L/K=6 merged keys, k=3 sequence queries, m=2 globals, D=4."""
    rng = np.random.default_rng(5)
    n_keys, k, m, D = 6, 3, 2, 4
    o = rng.normal(size=(k + m, D))
    r = rng.normal(size=(n_keys + m, D))
    blk = make_block(D, 6)
    # Keys at positions 0..5, queries at 1, 3, 5, globals of rank r at 6 + r.
    mask = build_mask(np.array([1, 3, 5, 6, 7]), np.arange(n_keys + m), 0)

    def ln(x, g, b):
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-12) * g + b

    def gelu(u):
        c = math.sqrt(2.0 / math.pi)
        return 0.5 * u * (1.0 + np.tanh(c * (u + 0.044715 * u ** 3)))

    on = ln(o, blk.ln1_g.data, blk.ln1_b.data)
    rn = ln(r, blk.ln1_g.data, blk.ln1_b.data)
    expected = np.zeros((k + m, D))
    for i in range(k + m):
        qi = on[i] @ blk.w_q.data + blk.b_q.data
        ctx = np.zeros(D)
        weights = []
        idx = []
        for j in range(n_keys + m):
            if not mask[i, j]:
                continue
            kj = rn[j] @ blk.w_k.data + blk.b_k.data
            weights.append(float(qi @ kj) / math.sqrt(D))
            idx.append(j)
        w = np.exp(np.array(weights) - max(weights))
        w /= w.sum()
        for wj, j in zip(w, idx):
            vj = rn[j] @ blk.w_v.data + blk.b_v.data
            ctx += wj * vj
        x1 = o[i] + ctx @ blk.w_o.data + blk.b_o.data
        x1n = ln(x1, blk.ln2_g.data, blk.ln2_b.data)
        expected[i] = x1 + gelu(x1n @ blk.w1.data + blk.b1.data) @ blk.w2.data \
            + blk.b2.data

    out = block(Tensor(o), mask, blk, x_kv=Tensor(r)).data
    assert np.abs(out - expected).max() <= 1e-10


def test_zeroed_attention_out_leaves_residual_ffn():
    rng = np.random.default_rng(7)
    n, D = 4, 4
    x = rng.normal(size=(n, D))
    blk = make_block(D, 8)
    blk.w_o.data[:] = 0.0
    blk.b_o.data[:] = 0.0
    out = block(Tensor(x), np.ones((n, n), dtype=bool), blk).data
    ffn_branch = T.mlp(T.layer_norm(Tensor(x), blk.ln2_g, blk.ln2_b),
                       blk.w1, blk.b1, blk.w2, blk.b2).data
    np.testing.assert_allclose(out, x + ffn_branch, atol=1e-12)


def test_block_gradient_check():
    """Every parameter, with all rows and with ``rows`` (whose unread rows
    still reach the loss through the keys and values)."""
    rng = np.random.default_rng(9)
    n, D = 5, 4
    x = Tensor(rng.normal(size=(n, D)), requires_grad=True)
    blk = make_block(D, 10)
    mask = np.tril(np.ones((n, n))) > 0
    w = rng.normal(size=(D, 1)) * 0.3
    named = [("x", x)] + [(n_, t) for n_, t in blk.params()]
    for rows in (None, [1, 4]):
        visible = mask if rows is None else mask[rows]

        def loss():
            y = attention_block(x, x, visible, blk, rows=rows)[0]
            return T.bce(T.sigmoid(readout(T.mean_rows(y), w)), 1.0)

        fd_check(loss, named, tol=1e-4)


def test_multi_head_gradient_check():
    """Three heads, 2-D, and a batch of two through ``rows``."""
    rng = np.random.default_rng(11)
    n, D, heads = 4, 6, 3
    mask = np.tril(np.ones((n, n))) > 0
    blk = make_block(D, 12)
    w = rng.normal(size=(D, 1)) * 0.3
    for lead, rows in (((), None), ((2,), [0, 3])):
        x = Tensor(rng.normal(size=lead + (n, D)), requires_grad=True)
        visible = np.broadcast_to(mask if rows is None else mask[rows],
                                  lead + (n if rows is None else len(rows), n))

        def loss():
            y = attention_block(x, x, visible, blk, heads, rows=rows)[0]
            y = T.reshape(y, (-1, D))
            return T.bce(T.sigmoid(readout(T.mean_rows(y), w)), 0.0)

        fd_check(loss, [("x", x), ("w_q", blk.w_q), ("w_k", blk.w_k),
                        ("w_o", blk.w_o)], tol=1e-4)


def test_sequence_rows_exactly_ignore_target_row():
    """Rows that cannot see the target are bit-identical under its changes."""
    rng = np.random.default_rng(13)
    k, m, D = 3, 3, 4
    n = k + m
    blk = make_block(D, 14)
    mask = build_mask(np.arange(n), np.arange(n), 0)  # k sequence rows, m globals
    x = rng.normal(size=(n, D))
    x2 = x.copy()
    x2[-1] = rng.normal(size=D) * 50.0
    a = block(Tensor(x), mask, blk).data
    b = block(Tensor(x2), mask, blk).data
    np.testing.assert_array_equal(a[:-1], b[:-1])
    assert np.abs(a[-1] - b[-1]).max() > 0


def test_causal_prefix_invariance():
    rng = np.random.default_rng(15)
    n, D = 6, 4
    blk = make_block(D, 16)
    mask = np.tril(np.ones((n, n))) > 0
    x = rng.normal(size=(n, D))
    x2 = x.copy()
    x2[4] += 3.0
    a = block(Tensor(x), mask, blk).data
    b = block(Tensor(x2), mask, blk).data
    np.testing.assert_array_equal(a[:4], b[:4])
    assert np.abs(a[4:] - b[4:]).max() > 0


def test_block_shape_validation():
    blk = make_block(4)
    with pytest.raises(DimensionError):
        attention_block(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 4))),
                        np.ones((2, 2), dtype=bool), blk)
    with pytest.raises(DimensionError):
        attention_block(Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 4))),
                        np.ones((2, 2), dtype=bool), blk, heads=3)
    x5 = Tensor(np.zeros((2, 5)))         # a width that is not the block's
    with pytest.raises(DimensionError):
        attention_block(x5, x5, np.ones((2, 2), dtype=bool), blk)
    with pytest.raises(DimensionError):
        attention_block(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 5))),
                        np.ones((2, 3), dtype=bool), blk)
    for gain, bias in ((np.ones(4), np.zeros(3)), (np.ones(5), np.zeros(4))):
        with pytest.raises(DimensionError):
            T.layer_norm(np.zeros((2, 4)), gain, bias)


def test_batched_block_matches_each_sample():
    """A (B, rows, D) stack through one block equals each sample through the
    2-D block, cross and self; the width is the last axis, not the rows."""
    rng = np.random.default_rng(21)
    B, q, v, D = 3, 3, 5, 4
    xq, xkv = rng.normal(size=(B, q, D)), rng.normal(size=(B, v, D))
    vis_cross = rng.random((B, q, v)) < 0.7
    vis_cross[..., 0] = True
    vis_self = np.broadcast_to(np.tril(np.ones((q, q), dtype=bool)), (B, q, q)).copy()
    vis_self[1, 2, 0] = False
    for heads in (1, 2):
        blk = make_block(D, 22)
        x = Tensor(xq)
        for x_kv, kv, visible in ((Tensor(xkv), xkv, vis_cross), (x, xq, vis_self)):
            out = attention_block(x, x_kv, visible, blk, heads)
            for b in range(B):
                xb = Tensor(xq[b])
                want = attention_block(xb, xb if x_kv is x else Tensor(kv[b]),
                                       visible[b], blk, heads)
                for got, ref in zip(out, want):
                    assert np.abs(got.data[b] - ref.data).max() <= 1e-12
    for visible in (vis_cross[:, :, :-1], vis_cross[0]):
        with pytest.raises(DimensionError):
            attention_block(Tensor(xq), Tensor(xkv), visible, blk)
    with pytest.raises(DimensionError):
        attention_block(x, x, vis_self[0, -1:], blk, prefix_kv=(xq[0], xq[0]))


def test_rows_match_full_block_rows():
    """A self block with ``rows`` gives those rows of the full block and the
    same keys and values, for one sample and a batch, at one and two heads."""
    rng = np.random.default_rng(25)
    n, D, rows = 6, 4, [2, 5]
    for lead in ((), (3,)):
        x = Tensor(rng.normal(size=lead + (n, D)))
        visible = rng.random(lead + (n, n)) < 0.6
        visible[..., 0] = True
        for heads in (1, 2):
            blk = make_block(D, 26)
            full = attention_block(x, x, visible, blk, heads)
            part = attention_block(x, x, visible[..., rows, :], blk, heads,
                                   rows=rows)
            assert part[0].shape == lead + (len(rows), D)
            assert np.abs(part[0].data - full[0].data[..., rows, :]).max() <= 1e-12
            for got, ref in zip(part[1:], full[1:]):
                np.testing.assert_array_equal(got.data, ref.data)
    x2 = Tensor(x.data[0])
    bad = [(x2, Tensor(x2.data), visible[0, rows], {"rows": rows}),   # cross
           (x2, x2, visible[0, [2]], {"rows": [[2]]}),                # not 1-D
           (x2, x2, visible[0], {"rows": rows}),                      # all-rows mask
           (x2, x2, visible[0, -1:], {"rows": [5],
                                      "prefix_kv": (x2.data, x2.data)})]
    for x_q, x_kv, vis, kwargs in bad:
        with pytest.raises(DimensionError):
            attention_block(x_q, x_kv, vis, make_block(D), **kwargs)
    with pytest.raises(IndexError):
        attention_block(x2, x2, visible[0, rows], make_block(D), rows=[2, n])


def test_build_mask_is_boolean():
    mask = build_mask([0, 1], [0, 1], 0)
    assert mask.dtype == bool
    assert mask[1, 0] and not mask[0, 1]


def test_prefix_kv_row_matches_full_block():
    """Each of C rows scored as its own target against cached key/value rows
    equals the last row of a full block over the prefix rows plus that row."""
    rng = np.random.default_rng(17)
    n, D, C = 5, 4, 3
    prefix = rng.normal(size=(n - 1, D))
    targets = Tensor(rng.normal(size=(C, D)))
    visible = np.tril(np.ones((n, n))) > 0
    visible[-1, 1] = False               # a prefix key the target may not see
    for heads in (1, 2):
        blk = make_block(D, 18)
        want = []
        for c in range(C):
            x = Tensor(np.vstack([prefix, targets.data[c:c + 1]]))
            full, k, v = attention_block(x, x, visible, blk, heads)
            want.append(full.data[-1])
        rows, k_rows, _ = attention_block(targets, targets, visible[-1:], blk,
                                          heads, prefix_kv=(k.data[:-1], v.data[:-1]))
        assert np.abs(rows.data - np.array(want)).max() <= 1e-12
        assert k_rows.shape == (C, D)
    with pytest.raises(DimensionError):
        attention_block(targets, Tensor(targets.data), visible[-1:], blk,
                        prefix_kv=(k.data[:-1], v.data[:-1]))
    with pytest.raises(DimensionError):
        attention_block(targets, targets, visible[-2:], blk,
                        prefix_kv=(k.data[:-1], v.data[:-1]))


def test_prefix_kv_gradient_check():
    """Cached scoring passes gradients to every target row's query, key and
    value through the op's prefix case."""
    rng = np.random.default_rng(19)
    n, D, C, heads = 4, 6, 3, 3
    targets = Tensor(rng.normal(size=(C, D)), requires_grad=True)
    prefix_kv = (rng.normal(size=(n, D)), rng.normal(size=(n, D)))
    visible = np.array([[True, False, True, True, True]])
    blk = make_block(D, 20)
    w = rng.normal(size=(D, 1)) * 0.3

    def loss():
        y = attention_block(targets, targets, visible, blk, heads,
                            prefix_kv=prefix_kv)[0]
        return T.bce(T.sigmoid(readout(T.mean_rows(y), w)), 1.0)

    fd_check(loss, [("targets", targets), ("w_q", blk.w_q), ("w_k", blk.w_k),
                    ("w_v", blk.w_v)], tol=1e-4)
