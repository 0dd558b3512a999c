"""Kernel ops against independent oracles and finite differences."""

import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_check
from longrec import tensors as T
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


# ----------------------------- matmul -----------------------------


def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, -4.0]])
    out = T.matmul(np.eye(2), a)
    np.testing.assert_array_equal(out.data, a)


def test_matmul_hand_case():
    out = T.matmul([[1.0, 2.0], [3.0, 4.0]], [[5.0], [6.0]])
    np.testing.assert_array_equal(out.data, [[17.0], [39.0]])


def test_matmul_vs_triple_loop():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(3, 5))
    assert np.abs(T.matmul(a, b).data - triple_loop_matmul(a, b)).max() <= 1e-12


@settings(max_examples=25, deadline=None)
@given(batch=st.integers(0, 4), m=st.integers(1, 16), p=st.integers(1, 16),
       n=st.integers(1, 16), transpose_b=st.booleans(), seed=st.integers(0, 10_000))
def test_matmul_triple_loop_property(batch, m, p, n, transpose_b, seed):
    """Each product of a batch (0 means plain 2-D operands) against the
    triple loop, with b stored transposed under ``transpose_b``."""
    rng = np.random.default_rng(seed)
    lead = (batch,) if batch else ()
    a = rng.normal(size=lead + (m, p))
    b = rng.normal(size=lead + ((n, p) if transpose_b else (p, n)))
    out = T.matmul(a, b, transpose_b=transpose_b).data
    assert out.shape == lead + (m, n)
    for i in range(batch or 1):
        ai, bi, oi = (x[i] if batch else x for x in (a, b, out))
        want = triple_loop_matmul(ai, bi.T if transpose_b else bi)
        assert np.abs(oi - want).max() <= 1e-12


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionError):
        T.matmul(np.zeros((2, 3)), np.zeros((2, 3)))
    for a, b, transpose_b in [
            (np.zeros(3), np.zeros(3), False),                        # ndim 1
            (np.zeros((1, 2, 3, 4)), np.zeros((1, 2, 4, 3)), False),  # ndim 4
            (np.zeros((2, 3, 4)), np.zeros((4, 5)), False),           # mixed ndim
            (np.zeros((3, 4)), np.zeros((2, 4, 5)), False),
            (np.zeros((3, 2, 4)), np.zeros((2, 4, 2)), False),        # batch sizes
            (np.zeros((2, 3)), np.zeros((3, 4)), True),               # inner, b^T
            (np.zeros((2, 2, 3)), np.zeros((2, 3, 2)), True)]:
        with pytest.raises(DimensionError):
            T.matmul(a, b, transpose_b=transpose_b)


def test_matmul_counter_is_exact():
    T.counter.reset()
    with T.count_muladds() as w:
        T.matmul(np.zeros((3, 4)), np.zeros((4, 5)))
        T.matmul(np.zeros((2, 7)), np.zeros((7, 2)))
        T.matmul(np.zeros((5, 6)), np.zeros((3, 6)), transpose_b=True)
        T.matmul(np.zeros((4, 1, 3)), np.zeros((4, 3, 2)))
    assert w.mul_adds == 3 * 4 * 5 + 2 * 7 * 2 + 5 * 6 * 3 + 4 * 1 * 3 * 2


def test_matmul_backward_exact():
    rng = np.random.default_rng(1)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    fd_check(lambda: T.bce(T.sigmoid(T.matmul(
        np.ones((1, 3)) * 0.2, T.matmul(T.matmul(a, b), np.ones((2, 1))))), 1.0),
        [("a", a), ("b", b)])


@pytest.mark.parametrize("transpose_b", [False, True])
def test_matmul_batched_fd(transpose_b):
    """The 3-D backward, as in per-row cached scoring ((n,1,p) x (n,p,1)) and
    per-group inner-merge attention ((G,K,d) x (G,K,d)^T)."""
    rng = np.random.default_rng(2)
    a = Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 2, 4) if transpose_b else (3, 4, 2)),
               requires_grad=True)
    fd_check(lambda: T.bce(T.sigmoid(T.matmul(
        np.ones((1, 12)) * 0.2,
        T.reshape(T.matmul(a, b, transpose_b=transpose_b), (12, 1)))), 1.0),
        [("a", a), ("b", b)])


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
    fd_check(lambda: T.bce(T.sigmoid(T.matmul(
        np.ones((1, 3)) * 0.2, T.matmul(T.linear(x, w, b), np.ones((2, 1))))), 1.0),
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
    return T.bce(T.sigmoid(T.matmul(T.reshape(y, (1, y.size)), w)), 1.0)


def test_leading_axes_match_each_sample():
    """On a (B, rows, width) stack, linear, layer_norm, concat_rows,
    concat_cols, slice_cols and gather_rows equal the 2-D op on each
    sample, and linear counts every leading axis as rows."""
    rng = np.random.default_rng(30)
    x, y = rng.normal(size=(3, 4, 5)), rng.normal(size=(3, 2, 5))
    w, b = rng.normal(size=(5, 2)), rng.normal(size=2)
    gain, bias = rng.normal(size=5), rng.normal(size=5)
    with T.count_muladds() as count:
        lin = T.linear(x, w, b).data
    assert lin.shape == (3, 4, 2) and count.mul_adds == 3 * 4 * 5 * 2
    norm = T.layer_norm(x, gain, bias).data
    rows = T.concat_rows([x, y]).data
    cols = T.concat_cols([x, T.slice_cols(x, 1, 3)]).data
    picked = T.gather_rows(x, [3, 1, 3]).data
    for i in range(3):
        np.testing.assert_array_equal(picked[i], T.gather_rows(x[i], [3, 1, 3]).data)
        assert np.abs(lin[i] - T.linear(x[i], w, b).data).max() <= 1e-12
        assert np.abs(norm[i] - T.layer_norm(x[i], gain, bias).data).max() <= 1e-12
        np.testing.assert_array_equal(rows[i], T.concat_rows([x[i], y[i]]).data)
        np.testing.assert_array_equal(
            cols[i], T.concat_cols([x[i], T.slice_cols(x[i], 1, 3)]).data)


def test_leading_axes_fd():
    rng = np.random.default_rng(31)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    z = Tensor(rng.normal(size=(2, 1, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    gain = Tensor(rng.normal(size=4) + 1.0, requires_grad=True)
    bias = Tensor(rng.normal(size=4), requires_grad=True)

    def loss():
        h = T.concat_rows([T.layer_norm(x, gain, bias), z])          # (2, 4, 4)
        h = T.concat_rows([h, T.gather_rows(h, [3, 0, 3])])          # (2, 7, 4)
        h = T.concat_cols([T.slice_cols(h, 2, 4), T.slice_cols(h, 0, 3)])
        return _weighted_sum_loss(T.linear(T.slice_cols(h, 0, 4), w, b), 32)

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


def test_left_pad_rows_rejects_bad_counts():
    x = np.zeros((3, 2))
    for counts in ([1, 1], [4, -1], [3]):
        with pytest.raises(DimensionError):
            T.left_pad_rows(x, counts, 2)
    with pytest.raises(DimensionError):
        T.left_pad_rows(np.zeros((1, 3, 2)), [3], 4)


def test_add_needs_equal_shapes():
    with pytest.raises(DimensionError):
        T.add(np.zeros((2, 3)), np.zeros(3))
    with pytest.raises(DimensionError):
        T.add(np.zeros((2, 3)), np.zeros((1, 3)))


def test_mul_takes_equal_shapes_or_a_constant_scalar():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    np.testing.assert_array_equal(T.mul(a, 0.5).data, a.data * 0.5)
    for b in (np.ones(3), np.ones((1, 3)), Tensor(np.array(0.5), requires_grad=True)):
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
            T.matmul(T.reshape(T.mul(h, h), (1, 6)), np.ones((6, 1))), (1, 1))), 1.0)
        del h, loss
        assert ref() is not None      # the tape still holds it
    assert ref() is None
    with T.tape():
        h = T.sigmoid(x)
        ref = weakref.ref(h.data)     # freed with h
        loss = T.bce(T.sigmoid(T.reshape(
            T.matmul(T.reshape(h, (1, 6)), np.ones((6, 1))), (1, 1))), 1.0)
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
        feats = T.concat_cols([rows, Tensor(rng.normal(size=(3, 3)))])
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
    g, g2 = rng.normal(size=(3, 4)), rng.normal(size=(3, 3))
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
    with T.tape():
        T.matmul(x, x, transpose_b=True).backward(g2)
    np.testing.assert_allclose(x.grad, g2 @ x.data + g2.T @ x.data, rtol=1e-13)


def test_one_tensor_twice_in_a_concat_gets_both_parts():
    """Concats and reshape hand on views of the output gradient uncopied: a
    tensor that is two parts of one concat gets the sum of both views."""
    rng = np.random.default_rng(25)
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    g = rng.normal(size=(2, 6))
    with T.tape():
        T.concat_cols([x, x]).backward(g)
    np.testing.assert_array_equal(x.grad, g[:, :3] + g[:, 3:])
    x.zero_grad()
    with T.tape():
        T.reshape(T.concat_rows([x, x]), (2, 2, 3)).backward(g.reshape(2, 2, 3))
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
            T.matmul(T.reshape(top, (1, 6)), np.ones((6, 1)) * 0.2), (1, 1))), 1.0)

    fd_check(loss, [("x", x), ("w", w)])


# ----------------------------- masked softmax -----------------------------


def test_softmax_uniform_row():
    out = T.masked_softmax(np.zeros((1, 3)), np.ones((1, 3), dtype=bool))
    np.testing.assert_allclose(out.data, [[1 / 3] * 3], atol=1e-15)


def test_softmax_single_visible():
    out = T.masked_softmax(np.array([[5.0, 1.0]]), np.array([[True, False]]))
    np.testing.assert_array_equal(out.data, [[1.0, 0.0]])


def test_softmax_matches_exp_normalize_oracle():
    row = np.array([[1.0, 2.0, 3.0]])
    e = np.exp(row - row.max())
    expected = e / e.sum()
    out = T.masked_softmax(row, np.ones((1, 3), dtype=bool))
    assert np.abs(out.data - expected).max() <= 1e-12


def test_softmax_fully_masked_row_returns_zeros():
    out = T.masked_softmax(np.array([[4.0, 2.0]]), np.zeros((1, 2), dtype=bool))
    np.testing.assert_array_equal(out.data, [[0.0, 0.0]])


def test_softmax_masked_positions_exact_zero_and_rows_sum_to_one():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(6, 9))
    visible = rng.random((6, 9)) >= 0.4
    visible[0] = False         # one fully masked row
    visible[1] = True          # one fully visible row
    out = T.masked_softmax(logits, visible).data
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
    a = T.masked_softmax(logits, mask).data
    b = T.masked_softmax(bumped, mask).data
    np.testing.assert_array_equal(a, b)


def test_softmax_backward_fd():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    mask = rng.random((3, 5)) >= 0.3
    mask[:, 0] = True  # keep every row alive
    w = rng.normal(size=(15, 1))

    def loss():
        probs = T.masked_softmax(x, mask)
        return T.bce(T.sigmoid(T.reshape(
            T.matmul(T.reshape(probs, (1, 15)), w), (1, 1))), 1.0)

    fd_check(loss, [("logits", x)])


def test_softmax_rejects_non_boolean_visibility():
    # A 0 / -inf additive mask read as booleans would be inverted.
    with pytest.raises(DimensionError):
        T.masked_softmax(np.zeros((1, 2)), np.array([[0.0, -np.inf]]))
    with pytest.raises(DimensionError):
        T.masked_softmax(np.zeros((1, 2)), np.ones((1, 3), dtype=bool))


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
            T.matmul(T.reshape(y, (1, 24)), np.ones((24, 1)) * 0.1), (1, 1))), 0.0)

    fd_check(loss, [("x", x), ("gain", g), ("bias", b)], tol=1e-4, h=1e-5)
    _ = w


def test_layer_norm_bitwise_equals_straight_line():
    """The in-place kernel keeps the arithmetic of the straight-line form,
    forward and backward."""
    rng = np.random.default_rng(26)
    for shape in [(1, 4), (7, 13), (5, 64)]:
        x = rng.normal(size=shape) * 3.0 + 1.0
        gain, bias = rng.normal(size=shape[1]), rng.normal(size=shape[1])
        g = rng.normal(size=shape)
        mu = x.mean(axis=1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
        inv_sigma = 1.0 / np.sqrt(var + 1e-12)
        xhat = (x - mu) * inv_sigma
        ghat = g * gain
        dx = (ghat - ghat.mean(axis=1, keepdims=True)
              - xhat * (ghat * xhat).mean(axis=1, keepdims=True)) * inv_sigma
        xt = Tensor(x, requires_grad=True)
        with T.tape():
            out = T.layer_norm(xt, gain, bias)
            out.backward(g)
        np.testing.assert_array_equal(out.data, xhat * gain + bias)
        np.testing.assert_array_equal(xt.grad, dx)


# ----------------------------- ffn -----------------------------


def test_mlp_equals_linear_gelu_linear_bitwise():
    """The fused MLP's output and five gradients equal the straight-line
    NumPy linear, GELU and linear forward and backward, bitwise, on 2-D and
    3-D inputs, outside a tape, and when backward recomputes the hidden
    layer, which counts the first product's MACs once more."""
    rng = np.random.default_rng(33)
    for shape in [(5, 3), (2, 4, 3)]:
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
    D = 3
    x = np.random.default_rng(6).normal(size=(4, D))
    b2 = np.array([0.5, -1.0, 2.0])
    out = T.ffn(x, np.zeros((D, 4 * D)), np.zeros(4 * D), np.zeros((4 * D, D)), b2)
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
    out = T.ffn(x, w1, b1, w2, b2)
    assert np.abs(out.data - expected).max() <= 1e-12


def test_ffn_shape_validation():
    with pytest.raises(DimensionError):
        T.ffn(np.zeros((2, 3)), np.zeros((3, 11)), np.zeros(11),
              np.zeros((11, 3)), np.zeros(3))


def test_ffn_fd():
    rng = np.random.default_rng(7)
    D = 3
    x = Tensor(rng.normal(size=(2, D)), requires_grad=True)
    w1 = Tensor(rng.normal(size=(D, 4 * D)) * 0.5, requires_grad=True)
    b1 = Tensor(rng.normal(size=4 * D) * 0.1, requires_grad=True)
    w2 = Tensor(rng.normal(size=(4 * D, D)) * 0.5, requires_grad=True)
    b2 = Tensor(rng.normal(size=D) * 0.1, requires_grad=True)

    def loss():
        y = T.ffn(x, w1, b1, w2, b2)
        return T.bce(T.sigmoid(T.reshape(
            T.matmul(T.reshape(y, (1, 2 * D)), np.ones((2 * D, 1)) * 0.2),
            (1, 1))), 1.0)

    fd_check(loss, [("x", x), ("w1", w1), ("b1", b1), ("w2", w2), ("b2", b2)])


# ----------------------------- other ops -----------------------------


def test_gelu_sigmoid_fd():
    """GELU alone: an ``mlp`` with identity weights and zero biases."""
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)

    def loss():
        y = T.mlp(x, np.eye(3), np.zeros(3), np.eye(3), np.zeros(3))
        return T.bce(T.sigmoid(T.reshape(
            T.matmul(T.reshape(y, (1, 6)), np.ones((6, 1)) * 0.3), (1, 1))), 0.0)

    fd_check(loss, [("x", x)])


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
        left = T.slice_cols(x, 0, 2)
        right = T.slice_cols(x, 2, 4)
        joined = T.concat_cols([T.concat_rows([left, right]),
                                T.slice_cols(rows, 0, 2)])
        pooled = T.mean_rows(joined)
        return T.bce(T.sigmoid(T.reshape(
            T.matmul(pooled, np.ones((4, 1))), (1, 1))), 1.0)

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


def test_gather_distinct_rows_fd():
    rng = np.random.default_rng(27)
    stack = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
    table = Tensor(rng.normal(size=(6, 3)), requires_grad=True)

    def loss():
        picked = T.concat_rows([T.gather_rows(stack, [0, 2, 4]),
                                T.reshape(T.gather_rows(table, [1, 2, 3, 5]), (2, 2, 3))])
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
    T.counter.reset()
    before = T.counter.mul_adds
    rng = np.random.default_rng(12)
    out = T.matmul(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)))
    assert T.counter.mul_adds >= before
    assert np.isfinite(out.data).all()
