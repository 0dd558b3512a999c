"""Merge modes: reshape semantics, per-group transformer, locality."""

import math

import numpy as np
import pytest

from conftest import fd_check, n_params, readout
from longrec import analysis
from longrec import tensors as T
from longrec.attention import BlockParams
from longrec.config import ModelConfig
from longrec.errors import ConfigError
from longrec.inputs import Candidate, Events, Sample, UserFeatures, encode_events
from longrec.merge import merge_concat, merge_inner_trans
from longrec.model import LongRecModel, batch_backward, evaluate
from longrec.serving import ScoreRequest, build_cache, score_request, score_with_cache
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


def test_encode_events_pads_to_group_multiple():
    """At L % K != 0 the grid is L rounded up to a multiple of K: encoding
    returns the real rows alone, and the concat merge lays each sample's
    rows out in whole groups, the extra rows leading as zero pads."""
    cfg = ModelConfig(L=15, d=2, K=2, m=3, k=3, d_item=3, d_act=2, d_time=2,
                      n_time_buckets=8, vocab=12, n_actions=3, n_users=6,
                      n_profiles=4)
    model = LongRecModel(cfg, seed=0)
    i = np.arange(15)
    events = Events(i % 12, i % 3, 100 + i)
    rows, n_real = encode_events([events, events[:3]], [200, 200], model.tables, cfg)
    assert rows.shape == (18, 2) and n_real.tolist() == [15, 3]
    assert (np.abs(rows.data).max(axis=1) > 0).all()
    seq = model._merge(rows, n_real).data.reshape(-1, cfg.d)     # the token grid
    L_grid = cfg.merged_len * cfg.K
    pad_mask = np.arange(L_grid) < (L_grid - n_real)[:, None]
    assert L_grid == 16 and seq.shape == (32, 2)
    assert pad_mask[0].tolist() == [True] + [False] * 15
    assert pad_mask[1].tolist() == [True] * 13 + [False] * 3
    np.testing.assert_array_equal(seq[pad_mask.reshape(-1)], 0.0)
    np.testing.assert_array_equal(seq[~pad_mask.reshape(-1)], rows.data)
    np.testing.assert_array_equal(pad_groups(n_real, cfg),
                                  pad_mask.reshape(2, -1, cfg.K).all(axis=2))


def pad_groups(n_real, cfg):
    """(B, G): True where a merged row holds no event, the leading
    G - ceil(n/K) rows of a sample with n events."""
    G = cfg.merged_len
    return np.arange(G) < G - -(-np.asarray(n_real)[:, None] // cfg.K)


def test_pad_groups_follow_group_counts():
    """Histories of 4, 5, 0 and 8 events at K=4, G=2 hold events in the last
    1, 2, 0 and 2 merged rows: in both merges the others are zero rows that
    no query row sees, and the target row sees every row with an event."""
    i = np.arange(8)
    histories = [Events(i[:n] % 12, i[:n] % 3, 100 + i[:n]) for n in (4, 5, 0, 8)]
    pads = np.array([[True, False], [False, False], [True, True], [False, False]])
    for mode in ("concat", "inner"):
        cfg = ModelConfig(L=8, d=2, K=4, m=3, k=2, merge_mode=mode, d_item=3,
                          d_act=2, d_time=2, n_time_buckets=8, vocab=12,
                          n_actions=3, n_users=6, n_profiles=4)
        np.testing.assert_array_equal(pad_groups([4, 5, 0, 8], cfg), pads)
        model = LongRecModel(cfg, seed=0)
        rows, n_real = encode_events(histories, [200] * 4, model.tables, cfg)
        merged = model._merge(rows, n_real).data.reshape(4, 2, cfg.D)
        np.testing.assert_array_equal(merged[pads], 0.0)
        assert (np.abs(merged[~pads]).max(axis=-1) > 0).all()
        u = model.user_rows(histories, [UserFeatures(b, 0) for b in range(4)],
                            [200] * 4)
        seen = u.visible_cross[:, :, :cfg.merged_len]
        np.testing.assert_array_equal(seen.any(axis=1), ~pads)
        np.testing.assert_array_equal(seen[:, -1], ~pads)


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
    assert n_params(blk) == analysis.params_block(5) == 12 * 25 + 13 * 5


def test_all_pad_group_rows_are_inert():
    """The merged rows of all-pad groups are zero rows, and whatever they
    hold, the boolean visibility hides them: large noise added to them in
    the merged grid leaves scores, cached scores and parameter gradients
    bitwise unchanged. Short histories leave most groups all-pad and make
    some of the k queries pad rows."""
    cfg = ModelConfig(L=16, d=3, K=2, m=3, k=4, N=2, merge_mode="inner",
                      inner_layers=2, d_item=3, d_act=2, d_time=3,
                      n_time_buckets=8, vocab=30, n_actions=3, n_users=40,
                      n_profiles=4, head_hidden=6)
    samples = [Sample(Events((7 * u + np.arange(n)) % 30, np.arange(n) % 3,
                             1000 + 10 * np.arange(n)), UserFeatures(u, u % 4),
                      Candidate((5 * u) % 30, 2000), u % 2)
               for u, n in enumerate([0, 1, 3, 5])]
    assert all(len(s.events) < cfg.K * cfg.k for s in samples)   # pad queries
    cands = [Candidate(c, 2000) for c in (1, 9, 17)]

    def outputs(model):
        scores = [model.score(s) for s in samples]
        cached = [score_with_cache(model, build_cache(
            model, s.events, s.user_features, 2000), cands) for s in samples]
        for _, t in model.params():
            t.zero_grad()
        batch_backward(model, samples)
        return scores, cached, [t.grad for _, t in model.params()]

    model = LongRecModel(cfg, seed=3)
    want = outputs(model)
    merge, rng = model._merge, np.random.default_rng(11)
    noised = []

    def noisy_merge(rows, n_real):
        merged = merge(rows, n_real)
        pads = pad_groups(n_real, cfg).reshape(-1)
        np.testing.assert_array_equal(merged.data[pads], 0.0)
        noised.append(pads.sum())
        noise = rng.normal(scale=1e3, size=merged.shape) * pads[:, None]
        return T.add(merged, noise)

    model._merge = noisy_merge
    got = outputs(model)
    assert noised[:len(samples)] == [cfg.merged_len - -(-len(s.events) // cfg.K)
                                     for s in samples]        # model.score's
    assert got[0] == want[0] and got[1] == want[1]
    for g, w in zip(got[2], want[2]):
        np.testing.assert_array_equal(g, w)


def test_inner_merge_fd():
    rng = np.random.default_rng(10)
    K = 2
    blocks = inner_blocks(2, rng)
    h = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    w = rng.normal(size=(4, 1)) * 0.3

    def loss():
        merged = merge_inner_trans(h, K, blocks)
        return T.bce(T.sigmoid(readout(T.mean_rows(merged), w)), 1.0)

    named = [("h", h)] + [(f"blk.{n}", t) for n, t in blocks[0].params()]
    fd_check(loss, named, tol=1e-4)


# ----------------------------- pad-free layout -----------------------------


# Inner merge, two inner layers, two heads in the main blocks: K=4, G=8.
PAD_FREE_CFG = ModelConfig(L=30, d=3, K=4, m=3, k=4, N=2, heads=2,
                           merge_mode="inner", inner_layers=2, d_item=3, d_act=2,
                           d_time=2, n_time_buckets=8, vocab=25, n_actions=3,
                           n_users=10, n_profiles=4, head_hidden=6, batch_size=4)


def mixed_samples(cfg, lengths, t=5000):
    rng = np.random.default_rng(12)
    return [Sample(Events(rng.integers(cfg.vocab, size=n),
                          rng.integers(cfg.n_actions, size=n), 100 + 7 * np.arange(n)),
                   UserFeatures(u, u % cfg.n_profiles),
                   Candidate(int(rng.integers(cfg.vocab)), t), u % 2)
            for u, n in enumerate(lengths)]


def padded_grid_merge(model):
    """The reference merge: every one of the G groups of the full G*K-row
    grid goes through the inner blocks, those without an event too."""
    cfg = model.cfg

    def merge(rows, n_real):
        grid = T.left_pad_rows(rows, n_real, cfg.merged_len * cfg.K)
        return merge_inner_trans(grid, cfg.K, model.inner_blocks)
    return merge


def test_pad_free_merge_matches_padded_grid_reference():
    """The inner merge runs only the groups that hold events: each such
    group's merged row is bitwise the padded-grid reference's, every all-pad
    group is a zero row, and scores, batched scores, ``evaluate`` and cached
    scores equal the reference's bitwise. Histories of 0, 1, K-1, K+1, L and
    more than L events in one batch, and a batch of empty histories."""
    cfg = PAD_FREE_CFG
    K, G, L = cfg.K, cfg.merged_len, cfg.L
    model = LongRecModel(cfg, seed=4)
    rng = np.random.default_rng(13)
    for blk in model.inner_blocks:          # nonzero biases: an all-pad group
        for _, t in blk.params():           # then merges to a nonzero row
            t.data += rng.normal(scale=0.1, size=t.shape)
    mixed = mixed_samples(cfg, [0, 1, K - 1, K + 1, L, L + 7])
    empty = mixed_samples(cfg, [0, 0, 0])
    cands = [Candidate(c, 5000) for c in (2, 11, 19)]
    for batch in (mixed, empty):
        rows, n_real = encode_events([s.events for s in batch], [5000] * len(batch),
                                     model.tables, cfg)
        got = model._merge(rows, n_real).data
        want = padded_grid_merge(model)(rows, n_real).data
        pads = pad_groups(n_real, cfg).reshape(-1)
        assert got.shape == want.shape == (len(batch) * G, cfg.D)
        np.testing.assert_array_equal(got[~pads], want[~pads])
        np.testing.assert_array_equal(got[pads], 0.0)
        assert np.abs(want[pads]).max() > 0        # the reference's wasted work

    def outputs(batch):
        return (model.forward_tensor(batch).data.tolist(),
                [model.score(s) for s in batch],
                evaluate(model, batch)[0].tolist(),
                [score_with_cache(model, build_cache(
                    model, s.events, s.user_features, 5000), cands) for s in batch])

    want = [outputs(b) for b in (mixed, empty)]
    model._merge = padded_grid_merge(model)
    assert [outputs(b) for b in (mixed, empty)] == want


def test_blas_row_bits_do_not_depend_on_the_product_height():
    """The BLAS property that ``test_pad_free_merge_matches_padded_grid_reference``
    rests on, at its shapes: each product of an inner block (the four
    projections, the FFN's two products and the attention's per-group scores
    and weighted values) run over the groups that hold events gives every
    row the bits that the same product over all G groups of each sample
    gives it. That holds for its batch, for each sample alone (``score`` and
    the cache) and for each ``evaluate`` chunk. On a BLAS build without the
    property this test fails and names it, so the bitwise merge tests'
    failure there is the BLAS's, not the model's."""
    cfg = PAD_FREE_CFG
    K, L, d = cfg.K, cfg.L, cfg.d
    lengths = [0, 1, K - 1, K + 1, L, L + 7]
    step = cfg.batch_size
    batches = ([lengths] + [[n] for n in lengths]
               + [lengths[i:i + step] for i in range(0, len(lengths), step)])
    rng = np.random.default_rng(15)
    for batch in batches:
        groups = np.flatnonzero(~pad_groups(np.minimum(batch, L), cfg).reshape(-1))
        rows = (groups[:, None] * K + np.arange(K)).ravel()
        tall = len(batch) * cfg.merged_len             # groups in the padded grid
        pairs = [(rng.normal(size=(tall * K, p)), rng.normal(size=(p, q)), rows)
                 for p, q in ((d, d), (d, 4 * d), (4 * d, d))]
        pairs += [(rng.normal(size=(tall, 1, K, p)), rng.normal(size=(tall, 1, p, q)),
                   groups) for p, q in ((d, K), (K, d))]
        for x, w, keep in pairs:
            short = x[keep] @ (w if w.ndim == 2 else w[keep])
            assert np.array_equal(short, (x @ w)[keep]), (
                f"BLAS row-block property: rows of {x[keep].shape} @ {w.shape[-2:]} "
                f"differ from the same rows of {x.shape} @ {w.shape[-2:]}, so "
                f"bitwise comparisons across product heights fail on this BLAS "
                f"build with the model correct")


def test_pad_free_merge_counts_the_analytic_macs():
    """On a mixed batch the counted MACs of ``forward_tensor``, ``evaluate``
    and ``score_request`` equal the analytic model, whose inner term counts
    K*ceil(n/K) rows per sample, and finite differences pass through the
    pad-free merge's per-sample-width ``left_pad_rows``."""
    cfg = PAD_FREE_CFG
    model = LongRecModel(cfg, seed=6)
    samples = mixed_samples(cfg, [0, 1, cfg.K - 1, cfg.K + 1, cfg.L, cfg.L + 7])
    full = sum(analysis.muladds_full_forward(cfg, min(len(s.events), cfg.L))
               for s in samples)
    with T.count_muladds() as window:
        model.forward_tensor(samples)
    assert window.mul_adds == full
    with T.count_muladds() as window:
        evaluate(model, samples)
    assert window.mul_adds == full
    cands = [Candidate(c, 5000) for c in (3, 8)]
    for s in samples:
        with T.count_muladds() as window:
            score_request(model, {0: s}, ScoreRequest(0, cands))
        assert window.mul_adds == (
            analysis.muladds_cache_build(cfg, min(len(s.events), cfg.L))
            + len(cands) * analysis.muladds_incremental(cfg))
    named = [(n, t) for n, t in model.params()
             if n.startswith("inner.") or n.startswith("tables.mlp.seq_")]

    def loss():
        return T.bce(model.forward_tensor(samples), [s.label for s in samples])

    fd_check(loss, named, tol=1e-4, max_coords=2)
