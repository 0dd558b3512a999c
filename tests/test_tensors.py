"""Kernel ops against independent oracles and finite differences."""

import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import fd_check, readout
from longrec import tensors as T
from longrec.config import ModelConfig
from longrec.errors import DimensionError
from longrec.tensors import Tensor


def triple_loop_matmul(a, b):
    m, p = a.shape
    p2, n = b.shape
    assert p == p2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for k in range(p):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def scalar_gelu(u):
    return 0.5 * u * (1.0 + math.tanh(math.sqrt(2.0 / math.pi)
                                      * (u + 0.044715 * u ** 3)))


def gelu_and_slope(x):
    """The straight-line tanh GELU of an array and its derivative."""
    c, a = math.sqrt(2.0 / math.pi), 0.044715
    t = np.tanh(c * (x + a * (x * x * x)))
    du = c * (1.0 + 3.0 * a * (x * x))
    return 0.5 * x * (1.0 + t), 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du


# ----------------------------- linear -----------------------------


def test_linear_matches_triple_loop_plus_bias():
    rng = np.random.default_rng(20)
    x, w, b = rng.normal(size=(5, 3)), rng.normal(size=(3, 4)), rng.normal(size=4)
    want = triple_loop_matmul(x, w) + b
    assert np.abs(T.linear(x, w, b).data - want).max() <= 1e-12


def test_linear_fd():
    rng = np.random.default_rng(21)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=2), requires_grad=True)
    fd_check(lambda: _weighted_sum_loss(T.linear(x, w, b), 21),
             [("x", x), ("w", w), ("b", b)])


def test_linear_counts_like_matmul():
    with T.count_muladds() as w:
        T.linear(np.zeros((3, 4)), np.zeros((4, 5)), np.zeros(5))
        T.linear(np.zeros((0, 2)), np.zeros((2, 7)), np.zeros(7))
        T.linear(np.zeros((6, 1)), np.zeros((1, 2)), np.zeros(2))
    assert w.mul_adds == 3 * 4 * 5 + 0 + 6 * 1 * 2


def test_linear_leading_axes_equal_the_2d_view_bitwise():
    """A 3-D x runs as the one product of its (rows, p) view: forward and
    x-gradient are bitwise those of the 2-D call."""
    rng = np.random.default_rng(22)
    x = rng.normal(size=(100, 1, 32))
    w, b, g = rng.normal(size=(32, 32)), rng.normal(size=32), rng.normal(size=(100, 32))
    outs, grads = [], []
    for shape in ((100, 1, 32), (100, 32)):
        xt = Tensor(x.reshape(shape), requires_grad=True)
        with T.tape():
            y = T.linear(xt, w, b)
            y.backward(g.reshape(y.shape))
        outs.append(y.data.reshape(100, 32))
        grads.append(xt.grad.reshape(100, 32))
    np.testing.assert_array_equal(outs[0], outs[1])
    np.testing.assert_array_equal(grads[0], grads[1])


def test_linear_shape_mismatch():
    for x, w, b in [
            (np.zeros((2, 3)), np.zeros((4, 5)), np.zeros(5)),        # inner
            (np.zeros((2, 3)), np.zeros((3, 5)), np.zeros(4)),        # bias width
            (np.zeros((2, 3)), np.zeros((3, 5)), np.zeros((1, 5))),   # 2-D bias
            (np.zeros((2, 2, 3)), np.zeros((4, 5)), np.zeros(5)),     # 3-D inner
            (np.zeros(3), np.zeros((3, 5)), np.zeros(5)),             # 1-D x
            (np.zeros((2, 3)), np.zeros((2, 3, 5)), np.zeros(5))]:    # 3-D w
        with pytest.raises(DimensionError):
            T.linear(x, w, b)


def _weighted_sum_loss(y, seed):
    """A scalar loss reading every entry of ``y`` through fixed random weights."""
    w = np.random.default_rng(seed).normal(size=(y.size, 1)) * 0.3
    return T.bce(T.sigmoid(readout(T.reshape(y, (1, y.size)), w)), 1.0)


def test_leading_axes_match_each_sample():
    """On a (B, rows, width) stack, linear, layer_norm, concat (on the rows
    and on the last axis) and gather_rows equal the 2-D op on each sample,
    and linear counts every leading axis as rows."""
    rng = np.random.default_rng(30)
    x, y = rng.normal(size=(3, 4, 5)), rng.normal(size=(3, 2, 5))
    w, b = rng.normal(size=(5, 2)), rng.normal(size=2)
    gain, bias = rng.normal(size=5), rng.normal(size=5)
    with T.count_muladds() as count:
        lin = T.linear(x, w, b).data
    assert lin.shape == (3, 4, 2) and count.mul_adds == 3 * 4 * 5 * 2
    norm = T.layer_norm(x, gain, bias).data
    rows = T.concat([x, y], -2).data
    cols = T.concat([x, lin], -1).data
    picked = T.gather_rows(x, [3, 1, 3]).data
    for i in range(3):
        np.testing.assert_array_equal(picked[i], T.gather_rows(x[i], [3, 1, 3]).data)
        assert np.abs(lin[i] - T.linear(x[i], w, b).data).max() <= 1e-12
        assert np.abs(norm[i] - T.layer_norm(x[i], gain, bias).data).max() <= 1e-12
        np.testing.assert_array_equal(rows[i], T.concat([x[i], y[i]], -2).data)
        np.testing.assert_array_equal(cols[i], T.concat([x[i], lin[i]], -1).data)


def test_leading_axes_fd():
    rng = np.random.default_rng(31)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    z = Tensor(rng.normal(size=(2, 1, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(8, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    gain = Tensor(rng.normal(size=4) + 1.0, requires_grad=True)
    bias = Tensor(rng.normal(size=4), requires_grad=True)

    def loss():
        h = T.concat([T.layer_norm(x, gain, bias), z], -2)          # (2, 4, 4)
        h = T.concat([h, T.gather_rows(h, [3, 0, 3])], -2)          # (2, 7, 4)
        return _weighted_sum_loss(T.linear(T.concat([h, h], -1), w, b), 32)

    fd_check(loss, [("x", x), ("z", z), ("w", w), ("b", b), ("gain", gain),
                    ("bias", bias)])


def test_left_pad_rows_blocks_and_fd():
    rng = np.random.default_rng(33)
    x = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
    grid = T.left_pad_rows(x, [2, 0, 3], 4).data
    assert grid.shape == (12, 2)
    np.testing.assert_array_equal(grid[2:4], x.data[:2])
    np.testing.assert_array_equal(grid[9:12], x.data[2:])
    np.testing.assert_array_equal(np.delete(grid, [2, 3, 9, 10, 11], axis=0), 0.0)
    fd_check(lambda: _weighted_sum_loss(T.left_pad_rows(x, [2, 0, 3], 4), 34),
             [("x", x)])
    # Per-sample widths: block b is left-padded to widths[b] rows.
    grid = T.left_pad_rows(x, [2, 0, 3], [3, 1, 4]).data
    assert grid.shape == (8, 2)
    np.testing.assert_array_equal(grid[1:3], x.data[:2])
    np.testing.assert_array_equal(grid[5:8], x.data[2:])
    np.testing.assert_array_equal(grid[[0, 3, 4]], 0.0)
    fd_check(lambda: _weighted_sum_loss(T.left_pad_rows(x, [2, 0, 3], [3, 1, 4]), 35),
             [("x", x)])


def test_left_pad_rows_rejects_bad_counts():
    x = np.zeros((3, 2))
    for counts in ([1, 1], [4, -1], [3]):
        with pytest.raises(DimensionError):
            T.left_pad_rows(x, counts, 2)
    for widths in ([2, 0], [1, 3], [2, 2, 2]):     # a count above its width, or
        with pytest.raises(DimensionError):          # not one width per block
            T.left_pad_rows(x, [2, 1], widths)
    with pytest.raises(DimensionError):
        T.left_pad_rows(np.zeros((1, 3, 2)), [3], 4)


def test_add_needs_equal_shapes():
    with pytest.raises(DimensionError):
        T.add(np.zeros((2, 3)), np.zeros(3))
    with pytest.raises(DimensionError):
        T.add(np.zeros((2, 3)), np.zeros((1, 3)))


def test_mul_takes_equal_shapes_only():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    np.testing.assert_array_equal(T.mul(a, a).data, a.data * a.data)
    for b in (0.5, np.ones(3), np.ones((1, 3)),
              Tensor(np.array(0.5), requires_grad=True)):
        with pytest.raises(DimensionError):
            T.mul(a, b)


# ----------------------------- tape -----------------------------


def test_nothing_recorded_outside_a_tape():
    """Only an op inside a tape with an input that requires gradients gets
    a node, and the tape holds that node, not the tensor."""
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    y = T.sigmoid(T.linear(x, np.ones((3, 3)), np.zeros(3)))
    assert not y.requires_grad and y.node is None
    with T.tape() as recorded:
        z = T.sigmoid(x)
        assert z.requires_grad and recorded == [z.node]
        T.sigmoid(Tensor(np.ones((2, 3))))    # no input requires gradients
        assert recorded == [z.node]


def test_backward_outside_a_tape_raises():
    x = Tensor(np.ones((1, 1)), requires_grad=True)
    with T.tape():
        loss = T.bce(T.sigmoid(x), 1.0)
    with pytest.raises(RuntimeError):
        loss.backward()
    assert x.grad is None


def test_tape_frees_intermediates_on_scope_exit():
    """An intermediate's buffer lives until its tape scope exits and no
    longer; after a backward, not even while the loss built from it is
    still held."""
    x = Tensor(np.random.default_rng(22).normal(size=(2, 3)), requires_grad=True)
    with T.tape():
        h = T.sigmoid(x)
        ref = weakref.ref(h.data)     # freed with h
        loss = T.bce(T.sigmoid(T.reshape(
            readout(T.reshape(T.mul(h, h), (1, 6)), np.ones((6, 1))), (1, 1))), 1.0)
        del h, loss
        assert ref() is not None      # the tape still holds it
    assert ref() is None
    with T.tape():
        h = T.sigmoid(x)
        ref = weakref.ref(h.data)     # freed with h
        loss = T.bce(T.sigmoid(T.reshape(
            readout(T.reshape(h, (1, 6)), np.ones((6, 1))), (1, 1))), 1.0)
        del h
        loss.backward()
    assert ref() is None              # backward dropped loss's closures
    assert x.grad is not None


def test_tape_keeps_only_what_backward_reads():
    """A lookup output that only a concat consumes is freed inside the tape
    before backward; a linear's input lives until backward passes it."""
    rng = np.random.default_rng(30)
    table = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
    with T.tape():
        rows = T.gather_rows(table, [0, 2, 4])
        lookup = weakref.ref(rows.data)
        feats = T.concat([rows, Tensor(rng.normal(size=(3, 3)))], -1)
        del rows
        assert lookup() is None
        h = T.linear(feats, w, np.zeros(2))
        linear_input = weakref.ref(feats.data)
        del feats
        assert linear_input() is not None
        _weighted_sum_loss(h, 31).backward()
        assert linear_input() is None
    assert table.grad is not None and w.grad is not None


def test_add_gradients_are_separate_buffers():
    rng = np.random.default_rng(23)
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    y = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    g = rng.normal(size=(2, 3))
    with T.tape():
        T.add(x, y).backward(g)
    assert x.grad is not y.grad
    np.testing.assert_array_equal(x.grad, g)
    np.testing.assert_array_equal(y.grad, g)
    x.grad += 1.0
    np.testing.assert_array_equal(y.grad, g)
    x.zero_grad()
    with T.tape():
        T.add(x, x).backward(g)
    np.testing.assert_array_equal(x.grad, 2.0 * g)


def test_handed_over_gradients_are_separate_buffers():
    """Closures hand their fresh buffers to ``_accumulate`` uncopied: a
    parameter used by two ops, and an op given one tensor twice, still end
    with correct gradients in buffers no other tensor shares."""
    rng = np.random.default_rng(29)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=4), requires_grad=True)
    g = rng.normal(size=(3, 4))
    with T.tape():
        h = T.linear(x, w, b)
        T.add(T.linear(h, w, b), T.mul(h, h)).backward(g)
    hd = x.data @ w.data + b.data
    gh = g @ w.data.T + 2.0 * hd * g
    np.testing.assert_allclose(w.grad, hd.T @ g + x.data.T @ gh, rtol=1e-13)
    np.testing.assert_allclose(b.grad, g.sum(axis=0) + gh.sum(axis=0), rtol=1e-13)
    np.testing.assert_allclose(x.grad, gh @ w.data.T, rtol=1e-13)
    grads = [x.grad, w.grad, b.grad]
    for i, a in enumerate(grads):
        assert not any(np.shares_memory(a, c) for c in grads[i + 1:])
    x.zero_grad()
    apart = [Tensor(x.data.copy(), requires_grad=True) for _ in range(3)]
    visible = np.tril(np.ones((3, 3), dtype=bool))
    with T.tape():
        T.attention(x, x, x, visible, 2).backward(g)
    with T.tape():
        T.attention(*apart, visible, 2).backward(g)
    gq, gk, gv = (t.grad for t in apart)
    np.testing.assert_allclose(x.grad, gq + gk + gv, rtol=1e-13)


def test_one_tensor_twice_in_a_concat_gets_both_parts():
    """Concats and reshape hand on views of the output gradient uncopied: a
    tensor that is two parts of one concat gets the sum of both views."""
    rng = np.random.default_rng(25)
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    g = rng.normal(size=(2, 6))
    with T.tape():
        T.concat([x, x], -1).backward(g)
    np.testing.assert_array_equal(x.grad, g[:, :3] + g[:, 3:])
    x.zero_grad()
    with T.tape():
        T.reshape(T.concat([x, x], -2), (2, 2, 3)).backward(g.reshape(2, 2, 3))
    np.testing.assert_array_equal(x.grad, g.reshape(4, 3)[:2] + g.reshape(4, 3)[2:])


def test_diamond_graph_fd():
    """One tensor feeds several consumers that meet again downstream: the
    reverse walk must finish its gradient before passing it on."""
    rng = np.random.default_rng(24)
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)

    def loss():
        h = T.linear(x, w, np.zeros(3))
        left = T.mul(h, h)
        right = T.mul(h, T.sigmoid(h))
        top = T.add(T.mul(left, right), h)
        return T.bce(T.sigmoid(T.reshape(
            readout(T.reshape(top, (1, 6)), np.ones((6, 1)) * 0.2), (1, 1))), 1.0)

    fd_check(loss, [("x", x), ("w", w)])


# ----------------------------- attention -----------------------------


def softmax_of(logits, visible):
    """The op's masked softmax of (rows, n) logits: with q = 4 * logits and
    keys and values the identity, each padded to width 16 (so the scale
    1/sqrt(16) undoes the 4 exactly), the output's first n columns are the
    probabilities."""
    logits = np.asarray(logits, dtype=np.float64)
    n = logits.shape[-1]
    q = np.zeros(logits.shape[:-1] + (16,))
    q[..., :n] = 4.0 * logits
    return T.attention(q, np.eye(n, 16), np.eye(n, 16), visible).data[..., :n]


def loop_attention(q, k, v, visible, heads, prefix=None):
    """Per query row and per head, from the definition: the scores of the
    keys the row sees, their softmax and the weighted sum of their values.
    Under ``prefix`` a row's keys are the prefix rows and then its own row.
    A row that sees nothing stays zero."""
    out = np.zeros(q.shape)
    dh = q.shape[-1] // heads
    for idx in np.ndindex(*q.shape[:-1]):
        keys, vals = k[idx[:-1]], v[idx[:-1]]
        if prefix is not None:
            keys, vals = np.vstack([prefix[0], k[idx]]), np.vstack([prefix[1], v[idx]])
        seen = np.flatnonzero(visible[idx])
        for h in range(heads if seen.size else 0):
            cols = slice(h * dh, (h + 1) * dh)
            scores = [float(q[idx][cols] @ keys[j, cols]) / math.sqrt(dh) for j in seen]
            e = np.exp(np.array(scores) - max(scores))
            out[idx][cols] = (e / e.sum()) @ vals[seen, cols]
    return out


@pytest.mark.parametrize("heads", [1, 2, 3])
def test_attention_matches_per_query_loop_oracle(heads):
    """2-D, batched 3-D and prefix rows, each with a row that sees nothing
    (it returns exact zeros)."""
    rng = np.random.default_rng(40 + heads)
    w = 6
    prefix = (rng.normal(size=(5, w)), rng.normal(size=(5, w)))
    for lead, keys, pre in (((), 5, None), ((3,), 5, None), ((), 4, prefix)):
        q = rng.normal(size=lead + (4, w))
        k, v = (rng.normal(size=lead + (keys if pre is None else 4, w)) for _ in "kv")
        visible = rng.random(lead + (4, keys if pre is None else 6)) < 0.6
        visible[..., 1, :] = False
        visible[..., 2, :] = True
        out = T.attention(q, k, v, visible, heads, pre).data
        assert np.abs(out - loop_attention(q, k, v, visible, heads, pre)).max() <= 1e-12
        assert (out[..., 1, :] == 0.0).all()


def straight_line_attention(q, k, v, visible, heads, g, prefix=None):
    """The composition ``T.attention``'s docstring claims, one 2-D head at a
    time: scale, score product (under ``prefix``, the prefix product and each
    row's dot product with its own key), masked fill, max-subtract, exp,
    sum, divide and weighted values, then the backward of that composition
    for the output gradient ``g``. Returns the output and the gradients of
    q, k and v."""
    out, gq, gk, gv = (np.zeros(a.shape) for a in (q, q, k, v))
    dh = q.shape[-1] // heads
    scale = 1.0 / math.sqrt(dh)
    for lead in np.ndindex(*q.shape[:-2]):
        for h in range(heads):
            c = slice(h * dh, (h + 1) * dh)
            qs = q[lead][:, c] * scale
            kh, vh = (np.ascontiguousarray(a[lead][:, c]) for a in (k, v))
            gh = g[lead][:, c]
            if prefix is None:
                keys, vals = kh, vh
                s = qs @ keys.T
            else:
                keys, vals = (np.ascontiguousarray(a[:, c]) for a in prefix)
                own = np.array([[qs[i] @ kh[i]] for i in range(len(qs))])
                s = np.concatenate([qs @ keys.T, own], axis=1)
            n = len(keys)
            s = np.where(visible[lead], s, -np.inf)
            top = s.max(axis=1, keepdims=True)
            e = np.exp(s - np.where(np.isfinite(top), top, 0.0))
            z = e.sum(axis=1, keepdims=True)
            p = e / np.where(z > 0, z, 1.0)          # a row that sees nothing: zeros
            ctx = p[:, :n] @ vals
            gp = gh @ vals.T
            if prefix is not None:
                ctx = ctx + p[:, n:] * vh
                gp = np.concatenate(
                    [gp, np.array([[gh[i] @ vh[i]] for i in range(len(gh))])], axis=1)
            gs = p * (gp - (gp * p).sum(axis=1, keepdims=True))
            gq_h = gs[:, :n] @ keys
            if prefix is None:
                gk_h, gv_h = gs.T @ qs, p.T @ gh
            else:
                gq_h = gq_h + gs[:, n:] * kh
                gk_h, gv_h = gs[:, n:] * qs, p[:, n:] * gh
            out[lead][:, c], gq[lead][:, c] = ctx, gq_h * scale
            gk[lead][:, c], gv[lead][:, c] = gk_h, gv_h
    return out, gq, gk, gv


@pytest.mark.parametrize("heads", [1, 2])
def test_attention_bitwise_equals_straight_line(heads):
    """Forward and all three input gradients equal the per-head straight
    line bitwise: 2-D and batched rows, and the prefix case at 1 and 4 rows
    with a (rows, p + 1) visibility or the one (1, p + 1) row they share.
    A visibility of several rows has one that sees nothing and one that sees
    every key, except in the inner merge's all-visible (groups, K, K) case
    at K = 3 and 4."""
    rng = np.random.default_rng(60 + heads)
    w, n = 8, 6
    prefix = (rng.normal(size=(n, w)), rng.normal(size=(n, w)))
    cases = [((), 4, 5, None, 4), ((3,), 4, 5, None, 4), ((), 4, 4, prefix, 4),
             ((), 4, 4, prefix, 1), ((), 1, 1, prefix, 1),
             ((6,), 3, 3, None, 0), ((6,), 4, 4, None, 0)]
    for lead, rows, keys, pre, vis_rows in cases:
        q = rng.normal(size=lead + (rows, w))
        k, v = (rng.normal(size=lead + (keys, w)) for _ in "kv")
        width = keys if pre is None else n + 1
        visible = rng.random(lead + (vis_rows or rows, width)) < 0.6
        visible[..., 0, :] = True
        if vis_rows == 0:                    # an inner merge group sees all K
            visible[...] = True
        elif vis_rows > 1:
            visible[..., 1, :] = False
        else:
            visible[0, 2] = False
        g = rng.normal(size=q.shape)
        want = straight_line_attention(q, k, v, visible, heads, g, pre)
        qt, kt, vt = (Tensor(a, requires_grad=True) for a in (q, k, v))
        with T.tape():
            out = T.attention(qt, kt, vt, visible, heads, pre)
            out.backward(g)
        for got, ref in zip((out.data, qt.grad, kt.grad, vt.grad), want):
            np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(T.attention(q, k, v, visible, heads, pre).data,
                                      want[0])


def test_blas_product_bits_do_not_depend_on_the_output_buffer():
    """The NumPy/BLAS property that the prefix case of ``T.attention`` rests
    on, at the serving shapes: a product written with ``out=`` into the
    leading columns of a wider (1, rows, p + 1) buffer, and each row's dot
    product with its own key written into the last column, have the bits of
    the same products standalone (the stacked and the 2-D product, and the
    1-D dot product). Rows are 1, 2 and 100 targets; p the G + m - 1 cross
    and k + m - 1 self prefix rows of the default and serve-long configs;
    widths d, and D at one and two heads. On a BLAS build without the
    property this test fails and names it, so a failing bitwise attention
    test there is the BLAS's, not the model's."""
    rng = np.random.default_rng(46)
    prefixes = sorted({n for cfg in (ModelConfig(), ModelConfig(L=1024, k=32))
                       for n in (cfg.merged_len + cfg.m - 1, cfg.k + cfg.m - 1)})
    for rows, n, w in itertools.product((1, 2, 100), prefixes, (8, 16, 32)):
        a, own = rng.normal(size=(1, rows, w)), rng.normal(size=(1, rows, w))
        keys_t = rng.normal(size=(1, n, w)).swapaxes(-1, -2)
        wide = np.full((1, rows, n + 1), np.nan)
        np.matmul(a, keys_t, out=wide[..., :n])
        np.matmul(a[..., None, :], own[..., None], out=wide[..., n:, None])
        dots = np.array([[a[0, i] @ own[0, i]] for i in range(rows)])
        stacked = (a[..., None, :] @ own[..., None])[..., 0]
        ok = (np.array_equal(wide[..., :n], a @ keys_t)
              and np.array_equal(wide[0, :, :n], a[0] @ keys_t[0])
              and np.array_equal(wide[..., n:], stacked)
              and np.array_equal(wide[0, :, n:], dots))
        assert ok, (f"BLAS output-buffer property: ({rows}, {w}) @ ({w}, {n}) or the "
                    f"row dot products written into a ({rows}, {n + 1}) buffer differ "
                    f"from the standalone products, so bitwise comparisons of "
                    f"cached scoring fail on this BLAS build with the model correct")


def test_numpy_row_reduction_order_is_a_column_sweep():
    """The NumPy property that ``layer_norm`` and ``attention`` rest on for
    rows of width 8 or less: NumPy's float add-reduce over a contiguous row
    of n < 8 elements is one running sum, at n = 8 a tree of eight
    accumulators, and it starts from +0.0; a max-reduce picks what
    ``np.maximum`` picks. So ``T._row_reduce``'s column sweeps give the bits
    of ``a.sum(axis=-1, keepdims=True)`` and ``a.max(axis=-1,
    keepdims=True)``: at widths 1 to 8, at the inner merge's (rows, d) for
    d = 3, 4 and 8 and its (groups, heads, K, K) scores for K = 2, 3 and 4
    at one and two heads, over random rows and rows of -0.0, of mixed zeros,
    and with infinities and NaN. On a NumPy build without the property this
    test fails and names it, so a failing bitwise layer-norm or attention
    test there is NumPy's reduction order, not the model's."""
    rng = np.random.default_rng(47)
    shapes = ([(40, n) for n in range(1, 9)] + [(259, d) for d in (3, 4, 8)]
              + [(37, h, K, K) for K in (2, 3, 4) for h in (1, 2)])
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0])
    for shape in shapes:
        n = shape[-1]
        a = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 7, size=shape)
        rows = a.reshape(-1, n)                   # a view: rows write into a
        rows[0] = -0.0
        rows[1] = rng.choice([0.0, -0.0], size=n)
        rows[2:12] = rng.choice(specials, size=(10, n))
        with np.errstate(invalid="ignore"):
            pairs = ((T._row_reduce(a, np.add), a.sum(axis=-1, keepdims=True),
                      "add-reduce order (a running sum from +0.0 below 8 "
                      "elements, eight accumulators at 8)"),
                     (T._row_reduce(a, np.maximum), a.max(axis=-1, keepdims=True),
                      "max-reduce choice (that of np.maximum)"))
        for got, want, what in pairs:
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (
                f"NumPy row {what}: a column sweep over {shape} differs from "
                f"the reduce over its last axis, so bitwise comparisons of "
                f"layer norms and softmaxes of width {n} fail on this NumPy "
                f"build with the model correct")


def test_attention_counts_its_two_products():
    """2 * rows * w * keys MACs, every leading axis counting as rows, and
    2 * c * w * (p + 1) for c rows over a p-row prefix."""
    with T.count_muladds() as plain:
        T.attention(np.zeros((2, 4, 6)), np.zeros((2, 5, 6)), np.zeros((2, 5, 6)),
                    np.ones((2, 4, 5), dtype=bool), 3)
    with T.count_muladds() as cached:
        T.attention(np.zeros((4, 6)), np.zeros((4, 6)), np.zeros((4, 6)),
                    np.ones((4, 8), dtype=bool), 2, prefix=(np.zeros((7, 6)),) * 2)
    assert plain.mul_adds == 2 * (2 * 4) * 6 * 5
    assert cached.mul_adds == 2 * 4 * 6 * (7 + 1)


def test_attention_shape_validation():
    """Mismatched shapes raise. Under a prefix of p rows the visibility is
    (rows, p + 1) or the one (1, p + 1) row, which gives the bits of its
    broadcast; no other visibility shape passes, with or without a prefix."""
    q, kv, vis = np.zeros((2, 6)), np.zeros((3, 6)), np.ones((2, 3), dtype=bool)
    for args, kwargs in [((q, kv, np.zeros((3, 4)), vis), {}),          # v differs
                         ((q, np.zeros((3, 4)), np.zeros((3, 4)), vis), {}),  # width
                         ((q, kv, kv, vis), {"heads": 4}),               # 6 % 4
                         ((q, kv, kv, vis[:, :2]), {}),                  # visibility
                         ((q, kv, kv, np.ones((2, 4), dtype=bool)),      # prefix k rows
                          {"prefix": (kv, kv)}),
                         ((q, q, q, np.ones((2, 3), dtype=bool)),        # prefix width
                          {"prefix": (np.zeros((2, 4)),) * 2})]:
        with pytest.raises(DimensionError):
            T.attention(*args, **kwargs)
    rng = np.random.default_rng(44)
    q, prefix = rng.normal(size=(3, 6)), (rng.normal(size=(4, 6)),) * 2
    row = np.array([[True, False, True, True, True]])
    rows = row.repeat(3, axis=0)
    np.testing.assert_array_equal(T.attention(q, q, q, row, 2, prefix).data,
                                  T.attention(q, q, q, rows, 2, prefix).data)
    for shape in [(1, 4), (1, 6), (2, 5), (4, 5), (5,), (1, 1, 5), (3, 1, 5)]:
        with pytest.raises(DimensionError):
            T.attention(q, q, q, np.ones(shape, dtype=bool), 2, prefix)
    kv = rng.normal(size=(5, 6))
    for shape in [(1, 5), (1, 6), (3, 6), (3, 1, 5)]:         # no prefix: (3, 5) only
        with pytest.raises(DimensionError):
            T.attention(q, kv, kv, np.ones(shape, dtype=bool), 2)


def test_softmax_uniform_row():
    out = softmax_of(np.zeros((1, 3)), np.ones((1, 3), dtype=bool))
    np.testing.assert_allclose(out, [[1 / 3] * 3], atol=1e-15)


def test_softmax_single_visible():
    out = softmax_of(np.array([[5.0, 1.0]]), np.array([[True, False]]))
    np.testing.assert_array_equal(out, [[1.0, 0.0]])


def test_softmax_matches_exp_normalize_oracle():
    row = np.array([[1.0, 2.0, 3.0]])
    e = np.exp(row - row.max())
    expected = e / e.sum()
    out = softmax_of(row, np.ones((1, 3), dtype=bool))
    assert np.abs(out - expected).max() <= 1e-12


def test_softmax_fully_masked_row_returns_zeros():
    out = softmax_of(np.array([[4.0, 2.0]]), np.zeros((1, 2), dtype=bool))
    np.testing.assert_array_equal(out, [[0.0, 0.0]])


def test_softmax_masked_positions_exact_zero_and_rows_sum_to_one():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(6, 9))
    visible = rng.random((6, 9)) >= 0.4
    visible[0] = False         # one fully masked row
    visible[1] = True          # one fully visible row
    out = softmax_of(logits, visible)
    assert (out[~visible] == 0.0).all()
    sums = out.sum(axis=1)
    assert abs(sums[0]) == 0.0
    visible_rows = visible.any(axis=1)
    np.testing.assert_allclose(sums[visible_rows], 1.0, atol=1e-12)


def test_softmax_exactly_ignores_masked_logits():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(2, 5))
    mask = np.array([[True, False, True, False, True]] * 2)
    bumped = logits.copy()
    bumped[:, 1] = 1e6
    bumped[:, 3] = -1e6
    np.testing.assert_array_equal(softmax_of(logits, mask), softmax_of(bumped, mask))


def test_softmax_backward_fd():
    """Through the queries that carry the logits: the probabilities'
    gradient, and every padding column's zero."""
    rng = np.random.default_rng(4)
    q = Tensor(np.zeros((3, 16)), requires_grad=True)
    q.data[:, :5] = 4.0 * rng.normal(size=(3, 5))
    mask = rng.random((3, 5)) >= 0.3
    mask[:, 0] = True  # keep every row alive
    eye = np.eye(5, 16)
    fd_check(lambda: _weighted_sum_loss(T.attention(q, eye, eye, mask), 4),
             [("queries", q)], max_coords=q.size)


def test_softmax_rejects_non_boolean_visibility():
    # A 0 / -inf additive mask read as booleans would be inverted.
    with pytest.raises(DimensionError):
        softmax_of(np.zeros((1, 2)), np.array([[0.0, -np.inf]]))
    with pytest.raises(DimensionError):
        softmax_of(np.zeros((1, 2)), np.ones((1, 3), dtype=bool))


# ----------------------------- layer norm -----------------------------


def test_layer_norm_constant_row_zeroes():
    out = T.layer_norm(np.full((2, 4), 3.3), np.ones(4), np.zeros(4))
    np.testing.assert_array_equal(out.data, np.zeros((2, 4)))


def test_layer_norm_already_normalized():
    out = T.layer_norm(np.array([[1.0, -1.0]]), np.ones(2), np.zeros(2))
    np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-9)


def test_layer_norm_fd():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(3, 8)), requires_grad=True)
    g = Tensor(rng.normal(size=8) + 1.0, requires_grad=True)
    b = Tensor(rng.normal(size=8), requires_grad=True)
    w = rng.normal(size=(8, 1))

    def loss():
        y = T.layer_norm(x, g, b)
        return T.bce(T.sigmoid(T.reshape(
            readout(T.reshape(y, (1, 24)), np.ones((24, 1)) * 0.1), (1, 1))), 0.0)

    fd_check(loss, [("x", x), ("gain", g), ("bias", b)], tol=1e-4, h=1e-5)
    _ = w


def test_layer_norm_bitwise_equals_straight_line():
    """The in-place kernel keeps the arithmetic of the straight-line form,
    forward and backward, at wide rows and at the narrow widths 1, 2, 3, 4
    and 8 that reduce as column sweeps, 2-D and batched."""
    rng = np.random.default_rng(26)
    for shape in [(1, 4), (7, 13), (5, 64), (6, 1), (6, 2), (6, 3), (9, 8), (5, 4, 8)]:
        x = rng.normal(size=shape) * 3.0 + 1.0
        gain, bias = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
        g = rng.normal(size=shape)
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        inv_sigma = 1.0 / np.sqrt(var + 1e-12)
        xhat = (x - mu) * inv_sigma
        ghat = g * gain
        dx = (ghat - ghat.mean(axis=-1, keepdims=True)
              - xhat * (ghat * xhat).mean(axis=-1, keepdims=True)) * inv_sigma
        xt = Tensor(x, requires_grad=True)
        with T.tape():
            out = T.layer_norm(xt, gain, bias)
            out.backward(g)
        np.testing.assert_array_equal(out.data, xhat * gain + bias)
        np.testing.assert_array_equal(xt.grad, dx)


# ----------------------------- mlp -----------------------------


def test_mlp_equals_linear_gelu_linear_bitwise():
    """The fused MLP's output and five gradients equal the straight-line
    NumPy linear, GELU and linear forward and backward, bitwise, on 2-D and
    3-D inputs, outside a tape, and when backward recomputes the hidden
    layer, which counts the first product's MACs once more. The last three
    shapes have hidden blocks above ``MLP_TILE_ABOVE`` that span several row
    tiles: with a 1-row tail, with a 17-row tail, and 3-D."""
    rng = np.random.default_rng(33)
    tile = T.MLP_TILE // 7
    rows = (T.MLP_TILE_ABOVE // 7 // tile + 1) * tile       # whole tiles only
    for shape in [(5, 3), (2, 4, 3), (rows + 1, 3), (rows + 17, 3),
                  (3, rows // 3 + 5, 3)]:
        x = rng.normal(size=shape) * 2.0
        ws = [rng.normal(size=s) for s in [(3, 7), (7,), (7, 2), (2,)]]
        g = rng.normal(size=shape[:-1] + (2,))
        w1, b1, w2, b2 = ws
        x2, g2 = x.reshape(-1, 3), g.reshape(-1, 2)
        y, slope = gelu_and_slope(x2 @ w1 + b1)
        gh = (g2 @ w2.T) * slope
        want = [(y @ w2 + b2).reshape(g.shape), (gh @ w1.T).reshape(shape),
                x2.T @ gh, gh.sum(axis=0), y.T @ g2, g2.sum(axis=0)]
        forward_macs = x2.shape[0] * (3 * 7 + 7 * 2)
        got = {}
        for way in ("keep", "recompute"):
            ts = [Tensor(v, requires_grad=True) for v in [x] + ws]
            with T.count_muladds() as count, T.tape():
                out = T.mlp(*ts, keep_hidden=way == "keep")
                out.backward(g)
            got[way] = [out.data.tobytes()] + [t.grad.tobytes() for t in ts]
            got[way + " MACs"] = count.mul_adds
        assert got["keep"] == got["recompute"] == [w.tobytes() for w in want]
        assert got["keep MACs"] == forward_macs \
            == got["recompute MACs"] - x.size // 3 * 7 * 3
        assert T.mlp(x, *ws).data.tobytes() == got["keep"][0]


def test_mlp_tiles_hold_fewer_hidden_blocks():
    """Above ``MLP_TILE_ABOVE`` floats the hidden layer runs in row tiles. An
    untracked (6400, 8) -> 64 -> 8 mlp peaks below two (6400, 64) float64
    blocks, where the untiled op holds three (the pre-activation, its tanh
    and the GELU output), and the backward of the recomputing path below
    three, where the untiled one holds five."""
    rng = np.random.default_rng(36)
    x = rng.normal(size=(6400, 8))
    ws = [rng.normal(size=s) for s in [(8, 64), (64,), (64, 8), (8,)]]
    block = 6400 * 64 * 8
    tracemalloc.start()
    try:
        T.mlp(x, *ws)
        forward = tracemalloc.get_traced_memory()[1]
        ts = [Tensor(v, requires_grad=True) for v in [x] + ws]
        with T.tape():
            out = T.mlp(*ts, keep_hidden=False)
            tracemalloc.reset_peak()
            out.backward(np.ones(out.shape))
            backward = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert forward < 2 * block
    assert backward < 3 * block


def test_mlp_fd():
    rng = np.random.default_rng(34)
    named = [(n, Tensor(rng.normal(size=s) * 0.7, requires_grad=True))
             for n, s in [("x", (2, 2, 3)), ("w1", (3, 5)), ("b1", (5,)),
                          ("w2", (5, 2)), ("b2", (2,))]]
    for keep_hidden in (True, False):
        def loss():
            return _weighted_sum_loss(
                T.mlp(*(t for _, t in named), keep_hidden=keep_hidden), 35)

        fd_check(loss, named)


def test_ffn_zero_weights_give_bias():
    """The block's feed-forward, the mlp at hidden width 4 * D."""
    D = 3
    x = np.random.default_rng(6).normal(size=(4, D))
    b2 = np.array([0.5, -1.0, 2.0])
    out = T.mlp(x, np.zeros((D, 4 * D)), np.zeros(4 * D), np.zeros((4 * D, D)), b2)
    np.testing.assert_allclose(out.data, np.tile(b2, (4, 1)), atol=1e-15)


def test_ffn_hand_arithmetic_oracle():
    # n=1, D=2: unroll the two affine maps and the tanh-form GELU by hand.
    x = np.array([[1.0, -2.0]])
    w1 = np.zeros((2, 8))
    w1[0, 0] = 1.0
    w1[1, 1] = -0.5
    b1 = np.full(8, 0.25)
    w2 = np.zeros((8, 2))
    w2[0, 0] = 2.0
    w2[1, 1] = -1.0
    w2[2, 0] = 0.5
    b2 = np.array([0.1, -0.2])
    h = [scalar_gelu(1.0 * 1.0 + 0.25),        # unit 0: x0*1 + 0.25
         scalar_gelu(-2.0 * -0.5 + 0.25)] + [scalar_gelu(0.25)] * 6
    expected = np.array([[2.0 * h[0] + 0.5 * h[2] + 0.1, -1.0 * h[1] - 0.2]])
    out = T.mlp(x, w1, b1, w2, b2)
    assert np.abs(out.data - expected).max() <= 1e-12


def test_ffn_fd():
    rng = np.random.default_rng(7)
    D = 3
    x = Tensor(rng.normal(size=(2, D)), requires_grad=True)
    w1 = Tensor(rng.normal(size=(D, 4 * D)) * 0.5, requires_grad=True)
    b1 = Tensor(rng.normal(size=4 * D) * 0.1, requires_grad=True)
    w2 = Tensor(rng.normal(size=(4 * D, D)) * 0.5, requires_grad=True)
    b2 = Tensor(rng.normal(size=D) * 0.1, requires_grad=True)

    def loss():
        y = T.mlp(x, w1, b1, w2, b2)
        return T.bce(T.sigmoid(readout(T.reshape(y, (1, 2 * D)),
                                       np.ones((2 * D, 1)) * 0.2)), 1.0)

    fd_check(loss, [("x", x), ("w1", w1), ("b1", b1), ("w2", w2), ("b2", b2)])


# ----------------------------- other ops -----------------------------


def test_gelu_sigmoid_fd():
    """GELU alone: an ``mlp`` with identity weights and zero biases; and
    sigmoid bitwise against its straight line, both branches and saturated."""
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)

    def loss():
        y = T.mlp(x, np.eye(3), np.zeros(3), np.eye(3), np.zeros(3))
        return T.bce(T.sigmoid(T.reshape(
            readout(T.reshape(y, (1, 6)), np.ones((6, 1)) * 0.3), (1, 1))), 0.0)

    fd_check(loss, [("x", x)])
    d = np.concatenate([rng.normal(size=20) * 8.0, [0.0, -0.0, 800.0, -800.0]])
    np.testing.assert_array_equal(    # sigmoid: the two-branch straight line
        T.sigmoid(d).data, np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))),
                                    np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d)))))


def test_gelu_bitwise_equals_straight_line():
    """The in-place GELU kernel keeps the arithmetic of the straight-line
    form, forward and backward, and outside a tape. It runs as an ``mlp``
    with identity weights and zero biases, whose products and bias adds are
    exact, so the GELU alone decides the bits."""
    rng = np.random.default_rng(25)
    c, a = math.sqrt(2.0 / math.pi), 0.044715
    eye, zero = np.eye(13), np.zeros(13)
    for scale in (0.1, 1.0, 4.0):
        x = rng.normal(size=(7, 13)) * scale
        g = rng.normal(size=x.shape)
        t = np.tanh(c * (x + a * (x * x * x)))
        du = c * (1.0 + 3.0 * a * (x * x))
        dx = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
        xt = Tensor(x, requires_grad=True)
        with T.tape():
            out = T.mlp(xt, eye, zero, eye, zero)
            out.backward(g)
        np.testing.assert_array_equal(out.data, 0.5 * x * (1.0 + t))
        np.testing.assert_array_equal(xt.grad, g * dx)
        np.testing.assert_array_equal(T.mlp(x, eye, zero, eye, zero).data,
                                      0.5 * x * (1.0 + t))


def test_structural_ops_fd():
    rng = np.random.default_rng(11)
    table = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    x = Tensor(rng.normal(size=(2, 4)), requires_grad=True)

    def loss():
        rows = T.gather_rows(table, np.array([0, 2, 2, 4]))   # duplicate index
        joined = T.concat([T.concat([x, T.mul(x, x)], -2), rows], -1)
        pooled = T.mean_rows(joined)
        return T.bce(T.sigmoid(readout(pooled, np.ones((7, 1)) * 0.3)), 1.0)

    fd_check(loss, [("table", table), ("x", x)])


def test_gather_distinct_rows_backward_equals_scatter_bitwise():
    """Strictly increasing rows add into the gradient with one indexed
    ``+=``; the same rows in another order take the ``np.add.at`` scatter.
    Both give the same bits, into a fresh gradient and into one that
    already holds values."""
    rng = np.random.default_rng(26)
    for shape in [(7, 4), (3, 7, 4)]:
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        g = rng.normal(size=shape[:-2] + (3, 4))
        held = rng.normal(size=shape)
        for start in (None, held):
            got = []
            for idx, gi in (([1, 4, 6], g), ([6, 4, 1], g[..., ::-1, :])):
                x.grad = None if start is None else start.copy()
                with T.tape():
                    T.gather_rows(x, idx).backward(gi)
                got.append(x.grad.tobytes())
            want = np.zeros(shape) if start is None else start.copy()
            np.add.at(want, (slice(None),) * (len(shape) - 2) + ([1, 4, 6],), g)
            assert got == [want.tobytes()] * 2


def test_gather_repeated_rows_backward_equals_2d_scatter_bitwise():
    """Ids that repeat, one of them more than eight times as the 4-row action
    table's ids do over a tape, scatter through one flat ``np.add.at`` with
    the bits of the 2-D ``np.add.at``. The incoming gradient is the
    non-contiguous view that a last-axis ``concat``'s backward hands a
    lookup. It lands in a fresh gradient, in a held one, and in a held one
    that is not C-contiguous, each time in the held array itself, never in a
    copy."""
    rng = np.random.default_rng(29)
    idx = rng.permutation(np.concatenate([np.full(11, 2), rng.integers(0, 4, size=30)]))
    other = rng.normal(size=(len(idx), 3))
    g = rng.normal(size=(len(idx), 8))
    x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    held = rng.normal(size=(4, 5))
    for start in (None, held.copy(), np.asfortranarray(held)):
        x.grad = start
        with T.tape():
            T.concat([T.gather_rows(x, idx), other], -1).backward(g)
        want = np.zeros((4, 5)) if start is None else held.copy()
        np.add.at(want, idx, g[:, :5])
        assert np.ascontiguousarray(x.grad).tobytes() == want.tobytes()
        if start is not None:
            assert x.grad is start


def test_gather_distinct_rows_fd():
    rng = np.random.default_rng(27)
    stack = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
    table = Tensor(rng.normal(size=(6, 3)), requires_grad=True)

    def loss():
        picked = T.concat([T.gather_rows(stack, [0, 2, 4]),
                           T.reshape(T.gather_rows(table, [1, 2, 3, 5]), (2, 2, 3))], -2)
        return _weighted_sum_loss(picked, 28)

    fd_check(loss, [("stack", stack), ("table", table)])


def test_gather_rejects_out_of_range():
    t = Tensor(np.zeros((3, 2)))
    with pytest.raises(IndexError):
        T.gather_rows(t, np.array([3]))
    with pytest.raises(IndexError):
        T.gather_rows(t, np.array([-1]))
    stack = Tensor(np.zeros((2, 3, 2)))
    assert T.gather_rows(stack, [2]).shape == (2, 1, 2)     # the rows axis
    with pytest.raises(IndexError):
        T.gather_rows(stack, [3])
    with pytest.raises(DimensionError):
        T.gather_rows(Tensor(np.zeros(3)), [0])


# ----------------------------- bce -----------------------------


def test_bce_values():
    assert abs(float(T.bce(Tensor(np.array([[0.5]])), 1.0).data)
               - math.log(2.0)) <= 1e-12
    assert abs(float(T.bce(Tensor(np.array([[0.5]])), 0.0).data)
               - math.log(2.0)) <= 1e-12
    assert float(T.bce(Tensor(np.array([[1.0]])), 1.0).data) <= 1e-11
    assert float(T.bce(Tensor(np.array([[0.0]])), 0.0).data) <= 1e-11


def test_bce_grad_wrt_logit_is_p_minus_y():
    for z0, y in [(0.3, 1.0), (-1.2, 0.0), (2.0, 1.0)]:
        z = Tensor(np.array([[z0]]), requires_grad=True)
        with T.tape():
            p = T.sigmoid(z)
            T.bce(p, y).backward()
        expected = float(p.data.item()) - y
        grad = float(z.grad.item())
        assert abs(grad - expected) <= 1e-12
        # and agree with central differences
        h = 1e-6
        up = float(T.bce(T.sigmoid(Tensor(np.array([[z0 + h]]))), y).data)
        dn = float(T.bce(T.sigmoid(Tensor(np.array([[z0 - h]]))), y).data)
        assert abs((up - dn) / (2 * h) - grad) <= 1e-6


def test_bce_column_is_the_mean_of_its_rows():
    """A column of probabilities with one label per row gives the mean of
    the rows' losses; each row's gradient is its lone gradient over the
    number of rows, and a clamped row gets none."""
    probs, labels = [0.3, 0.8, 1.0], [1.0, 0.0, 1.0]
    col = Tensor(np.array(probs).reshape(3, 1), requires_grad=True)
    with T.tape():
        loss = T.bce(col, labels)
        loss.backward()
    lone_losses, lone_grads = [], []
    for p, y in zip(probs, labels):
        t = Tensor(np.array([[p]]), requires_grad=True)
        with T.tape():
            lone = T.bce(t, y)
            lone.backward()
        lone_losses.append(float(lone.data))
        lone_grads.append(0.0 if t.grad is None else float(t.grad.item()))
    assert float(loss.data) == sum(lone_losses) / 3
    assert lone_grads[2] == 0.0 and col.grad[2, 0] == 0.0
    np.testing.assert_allclose(col.grad[:, 0], np.array(lone_grads) / 3, rtol=1e-15)
    with pytest.raises(DimensionError):
        T.bce(col, [1.0, 0.0])
    with pytest.raises(DimensionError):
        T.bce(col, [])


def test_counter_monotone_and_finite_outputs():
    T.counter.mul_adds = 0
    before = T.counter.mul_adds
    rng = np.random.default_rng(12)
    q, kv = rng.normal(size=(3, 4)), rng.normal(size=(5, 4))
    out = T.attention(q, kv, kv, np.ones((3, 5), dtype=bool), 2)
    assert T.counter.mul_adds >= before
    assert np.isfinite(out.data).all()
