"""Merge modes: reshape semantics, per-group transformer, locality."""

import math

import numpy as np
import pytest

from conftest import fd_check
from longrec import analysis
from longrec import tensors as T
from longrec.attention import BlockParams
from longrec.errors import ConfigError
from longrec.merge import (merge_concat, merge_inner_trans, merged_pad_flags,
                           merged_positions, pad_to_group_multiple)
from longrec.tensors import Tensor


def inner_blocks(d, rng):
    """One width-d inner merge block, as the model creates per inner layer."""
    return [BlockParams.create(d, rng)]


def test_merge_concat_k1_identity():
    h = Tensor(np.random.default_rng(0).normal(size=(5, 3)))
    np.testing.assert_array_equal(merge_concat(h, 1).data, h.data)


def test_merge_concat_rows():
    a, b, c, d = [[1.0, 2.0]], [[3.0, 4.0]], [[5.0, 6.0]], [[7.0, 8.0]]
    h = Tensor(np.concatenate([a, b, c, d]))
    merged = merge_concat(h, 2)
    np.testing.assert_array_equal(merged.data,
                                  [[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])


def test_merge_concat_roundtrip():
    h = Tensor(np.random.default_rng(1).normal(size=(8, 3)))
    merged = merge_concat(h, 4)
    np.testing.assert_array_equal(T.reshape(merged, (8, 3)).data, h.data)


def test_merge_concat_rejects_indivisible():
    with pytest.raises(ConfigError):
        merge_concat(Tensor(np.zeros((5, 2))), 2)


def test_pad_to_group_multiple():
    h = Tensor(np.ones((5, 2)))
    mask = np.array([True, False, False, False, False])
    padded, pmask = pad_to_group_multiple(h, 4, mask)
    assert padded.shape == (8, 2)
    np.testing.assert_array_equal(padded.data[:3], 0.0)
    assert pmask.tolist() == [True, True, True, True, False, False, False, False]


def test_merged_positions_and_pad_flags():
    np.testing.assert_array_equal(merged_positions(8, 4), [3, 7])
    mask = np.array([True] * 4 + [True, False, False, False])
    np.testing.assert_array_equal(merged_pad_flags(mask, 4), [True, False])


# ----------------------------- per-group transformer -----------------------------


def zeroed_mixing_blocks(d, rng):
    """Inner blocks whose attention-out and FFN-out projections are zero."""
    blocks = inner_blocks(d, rng)
    for blk in blocks:
        blk.w_o.data[:] = 0.0
        blk.b_o.data[:] = 0.0
        blk.w2.data[:] = 0.0
        blk.b2.data[:] = 0.0
    return blocks


def test_inner_k1_with_zero_projections_equals_concat():
    rng = np.random.default_rng(2)
    K = 1
    blocks = zeroed_mixing_blocks(3, rng)
    h = Tensor(rng.normal(size=(6, 3)))
    out = merge_inner_trans(h, K, blocks)
    np.testing.assert_allclose(out.data, merge_concat(h, 1).data, atol=1e-15)


def test_inner_identical_tokens_stay_identical():
    rng = np.random.default_rng(3)
    K = 3
    blocks = inner_blocks(4, rng)
    row = rng.normal(size=4)
    h = Tensor(np.tile(row, (6, 1)))      # two groups of three equal tokens
    out = merge_inner_trans(h, K, blocks).data.reshape(6, 4)
    np.testing.assert_allclose(out[0], out[1], atol=1e-12)
    np.testing.assert_allclose(out[1], out[2], atol=1e-12)


def test_inner_permutation_equivariance():
    rng = np.random.default_rng(4)
    K = 4
    blocks = inner_blocks(3, rng)
    h = rng.normal(size=(4, 3))
    perm = np.array([2, 0, 3, 1])
    out = merge_inner_trans(Tensor(h), K, blocks).data.reshape(4, 3)
    out_p = merge_inner_trans(Tensor(h[perm]), K, blocks).data.reshape(4, 3)
    np.testing.assert_allclose(out_p, out[perm], atol=1e-12)


def test_inner_hand_unrolled_oracle():
    """K=2, d=2 single block vs a raw-numpy pre-norm block unroll."""
    rng = np.random.default_rng(5)
    K = 2
    blk = inner_blocks(2, rng)[0]
    h = rng.normal(size=(4, 2))

    def ln(x, g, b):
        mu = x.mean(axis=1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-12) * g + b

    def gelu(u):
        c = math.sqrt(2.0 / math.pi)
        return 0.5 * u * (1.0 + np.tanh(c * (u + 0.044715 * u ** 3)))

    expected = np.zeros((4, 2))
    for g0 in (0, 2):
        x = h[g0:g0 + 2]
        xn = ln(x, blk.ln1_g.data, blk.ln1_b.data)
        q = xn @ blk.w_q.data + blk.b_q.data
        k = xn @ blk.w_k.data + blk.b_k.data
        v = xn @ blk.w_v.data + blk.b_v.data
        s = q @ k.T / math.sqrt(2.0)
        e = np.exp(s - s.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        x1 = x + (p @ v) @ blk.w_o.data + blk.b_o.data
        x1n = ln(x1, blk.ln2_g.data, blk.ln2_b.data)
        hid = gelu(x1n @ blk.w1.data + blk.b1.data)
        expected[g0:g0 + 2] = x1 + hid @ blk.w2.data + blk.b2.data

    out = merge_inner_trans(Tensor(h), K, [blk])
    np.testing.assert_allclose(out.data, expected.reshape(2, 4), atol=1e-12)


def test_group_locality():
    rng = np.random.default_rng(6)
    K = 2
    blocks = inner_blocks(3, rng)
    h = rng.normal(size=(8, 3))
    base = merge_inner_trans(Tensor(h), K, blocks).data
    bumped = h.copy()
    bumped[3] += 0.7                      # inside group 1
    out = merge_inner_trans(Tensor(bumped), K, blocks).data
    np.testing.assert_array_equal(out[0], base[0])
    np.testing.assert_array_equal(out[2:], base[2:])
    assert np.abs(out[1] - base[1]).max() > 0


def test_concat_group_locality():
    rng = np.random.default_rng(7)
    h = rng.normal(size=(8, 3))
    base = merge_concat(Tensor(h), 4).data
    bumped = h.copy()
    bumped[1] += 1.0
    out = merge_concat(Tensor(bumped), 4).data
    np.testing.assert_array_equal(out[1], base[1])
    assert np.abs(out[0] - base[0]).max() > 0


def test_inner_block_param_count():
    rng = np.random.default_rng(8)
    blk = inner_blocks(5, rng)[0]
    assert blk.param_count() == analysis.params_block(5) == 12 * 25 + 13 * 5


def test_all_pad_groups_zeroed():
    rng = np.random.default_rng(9)
    K = 2
    blocks = inner_blocks(3, rng)
    h = np.zeros((6, 3))
    h[4:] = rng.normal(size=(2, 3))
    pad_mask = np.array([True, True, True, True, False, False])
    merged = merge_inner_trans(Tensor(h), K, blocks, pad_mask).data
    np.testing.assert_array_equal(merged[:2], 0.0)
    assert np.abs(merged[2]).max() > 0


def test_inner_merge_fd():
    rng = np.random.default_rng(10)
    K = 2
    blocks = inner_blocks(2, rng)
    h = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    w = rng.normal(size=(4, 1)) * 0.3

    def loss():
        merged = merge_inner_trans(h, K, blocks)
        return T.bce(T.sigmoid(T.matmul(T.mean_rows(merged), w)), 1.0)

    named = [("h", h)] + [(f"blk.{n}", t) for n, t in blocks[0].params()]
    fd_check(loss, named, tol=1e-4)
