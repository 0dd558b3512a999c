"""Query selection, the full forward against a straight-line reimplementation,
loss/optimizer behavior, training dynamics, baseline, and checkpoints."""

import json
import math
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import fd_check, mean_scalars, n_params
from longrec import analysis
from longrec import model as model_module
from longrec import tensors as T
from longrec.config import GeneratorConfig, ModelConfig
from longrec.errors import ConfigError, NumericalError
from longrec.inputs import (Candidate, Dataset, Events, Sample, UserFeatures,
                            generate_dataset)
from longrec.model import (CHECKPOINT_MAGIC, Adam, LongRecModel, OptConfig,
                           SumPoolingModel, batch_backward, evaluate, select_queries,
                           train)
from longrec.tensors import Tensor


# ----------------------------- query selection -----------------------------


def toks(n, D=4, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=(n, D)))


def select(strategy, k, G, groups, bank=None):
    """``select_queries`` over G merged rows per sample, the last ``groups``
    of each (one count per sample) holding events, so each pick's order is
    its merged-row index."""
    return select_queries(toks(G * np.size(groups)), strategy, k, bank, groups)


def test_recent_identity_when_k_covers_all():
    sel = select("recent", 6, 6, 6)
    np.testing.assert_array_equal(sel.order, np.arange(6))
    assert not (sel.order < 6 - 6).any()            # no pad query


def test_uniform_documented_rule():
    sel = select("uniform", 5, 10, 10)
    np.testing.assert_array_equal(sel.order, [1, 3, 5, 7, 9])


def test_recent_short_sequence_pads_queries():
    sel = select("recent", 5, 10, 3)                # 7 all-pad rows, then 3
    np.testing.assert_array_equal(sel.order, [5, 6, 7, 8, 9])
    np.testing.assert_array_equal(sel.order < 10 - 3, [True, True, False, False, False])


def test_learnable_queries_have_max_position():
    bank = Tensor(np.zeros((4, 4)), requires_grad=True)
    sel = select("learnable", 4, 10, 10, bank)
    assert (sel.order == 10).all()
    assert sel.tokens is bank


def test_recent_uniform_mix():
    sel = select("recent_uniform", 5, 10, 10)
    # recent ceil(5/2)=3 -> {7,8,9}; uniform 2 over prefix len 7 -> {3,6}
    np.testing.assert_array_equal(sel.order, [3, 6, 7, 8, 9])


def test_recent_uniform_backfills_after_dedup():
    sel = select("recent_uniform", 3, 10, 4)
    # nonpad {6,7,8,9}: recent 2 -> {8,9}; uniform 1 over prefix {6,7} -> {7}
    np.testing.assert_array_equal(sel.order, [7, 8, 9])


def set_and_backfill(k, pad_groups):
    """recent_uniform as a set: the ceil(k/2) most recent non-pad tokens,
    floor(k/2) uniform over the prefix before them, then the newest unused
    tokens until k are picked."""
    nonpad = np.flatnonzero(~pad_groups)
    r = -(-k // 2)
    u = k - r
    picked = set(int(i) for i in nonpad[-r:])
    prefix = nonpad[:nonpad.size - r]
    for j in range(u):
        picked.add(int(prefix[-(-(j + 1) * prefix.size // u) - 1]))
    for idx in reversed(nonpad):
        if len(picked) >= k:
            break
        picked.add(int(idx))
    return sorted(picked)


def test_recent_uniform_matches_set_and_backfill():
    """Every G <= 64, k <= G and group count g <= G, one sample per g."""
    for G in range(1, 65):
        groups = np.arange(G + 1)
        pads = np.arange(G) < G - groups[:, None]
        h = toks((G + 1) * G, D=1)
        for k in range(1, G + 1):
            sel = select_queries(h, "recent_uniform", k, None, groups)
            for b in range(G + 1):
                if (~pads[b]).sum() > k:
                    assert sel.order[b].tolist() == set_and_backfill(k, pads[b])


def test_invalid_k_raises():
    with pytest.raises(ConfigError):
        select("recent", 0, 4, 4)
    with pytest.raises(ConfigError):
        select("recent", 5, 4, 4)


# ----------------------------- forward -----------------------------


def sample_for(cfg, n_events, seed=0, uid=0, cand_item=None):
    rng = np.random.default_rng(seed)
    t = 5_000
    items, actions, times = [], [], []
    for _ in range(n_events):
        t += int(rng.integers(5, 50))
        items.append(int(rng.integers(cfg.vocab)))
        actions.append(int(rng.integers(cfg.n_actions)))
        times.append(t)
    cand = Candidate(int(rng.integers(cfg.vocab)) if cand_item is None
                     else cand_item, t + 60)
    return Sample(Events(items, actions, times),
                  UserFeatures(uid, int(rng.integers(cfg.n_profiles))),
                  cand, int(rng.integers(2)))


def test_zero_head_final_layer_gives_half(tiny_cfg):
    model = LongRecModel(tiny_cfg, seed=0)
    model.head_w2.data[:] = 0.0
    model.head_b2.data[:] = 0.0
    assert model.score(sample_for(tiny_cfg, 5)) == 0.5


def test_sequence_branch_identical_across_candidates(tiny_cfg):
    """The layer stack's query and key inputs and every block's output agree
    bit for bit across two candidates in all rows but the target's (last)."""
    model = LongRecModel(tiny_cfg, seed=1)
    layers, captured = model._layers, []

    def capture(x_q, x_kv, *args, **kwargs):
        out = layers(x_q, x_kv, *args, **kwargs)
        captured.append([x_q.data, x_kv.data] + [x.data for x, _, _ in out])
        return out

    model._layers = capture
    s1 = sample_for(tiny_cfg, 6, seed=2, cand_item=1)
    s2 = Sample(s1.events, s1.user_features,
                Candidate(2, s1.candidate.timestamp), s1.label)
    p1, p2 = model.score(s1), model.score(s2)
    assert len(captured) == 2 and len(captured[0]) == 3 + tiny_cfg.N
    for a, b in zip(*captured):
        np.testing.assert_array_equal(a[:-1], b[:-1])
    assert p1 != p2


@pytest.mark.parametrize("mode", ["concat", "inner"])
def test_pad_growth_leaves_forward_unchanged(tiny_cfg, mode):
    """Growing L by whole groups only prepends dead pad groups."""
    base = {**tiny_cfg.to_dict(), "merge_mode": mode}
    small = ModelConfig(**base)
    big = ModelConfig(**{**base, "L": small.L + 2 * small.K})
    big_model = LongRecModel(big, seed=3)
    small_model = LongRecModel(small, seed=3)
    # share every parameter array that exists in both (all but abs_pos rows)
    sp = dict(small_model.params())
    for name, t in big_model.params():
        if name == "tables.abs_pos_table":
            t.data[:small.L] = sp[name].data
        else:
            t.data[...] = sp[name].data
    s = sample_for(small, 5, seed=4)
    assert abs(big_model.score(s) - small_model.score(s)) <= 1e-12


def test_user_rows_masks_match_rule_oracle(tiny_cfg):
    """Each element of every ``user_rows`` mask follows from each row's
    position, global flag, global rank and pad flag by the hybrid rule:
      (a) a sequence query at position p sees the sequence keys at
          positions <= p and no global key;
      (b) a global query sees every sequence key and the global keys of
          rank <= its own;
      (c) pad keys are never visible, and pad queries see nothing.
    Every global row sees at least one key. All four strategies, both
    merges, m = 3 and 4, histories of 0-3 and L events, alone and B = 3."""
    def layout(positions, pads, m):
        return ([(int(p), False, 0, bool(pad)) for p, pad in zip(positions, pads)]
                + [(0, True, r, False) for r in range(m)])

    def rule(q, key):
        (qp, q_global, q_rank, q_pad), (kp, k_global, k_rank, k_pad) = q, key
        if q_pad or k_pad:
            return False
        if k_global:
            return q_global and k_rank <= q_rank
        return q_global or kp <= qp

    for strategy in ("recent", "uniform", "learnable", "recent_uniform"):
        for mode in ("concat", "inner"):
            for m in (3, 4):
                cfg = ModelConfig(**{**tiny_cfg.to_dict(), "m": m, "merge_mode": mode,
                                     "query_strategy": strategy})
                model = LongRecModel(cfg, seed=0)
                G, K, k = cfg.merged_len, cfg.K, cfg.k
                grid = np.arange(G) * K + K - 1
                samples = [sample_for(cfg, n, seed=n) for n in (0, 1, 2, 3, cfg.L)]
                for batch in [[s] for s in samples] + [samples[:3], samples[2:]]:
                    u = model.user_rows([s.events for s in batch],
                                        [s.user_features for s in batch],
                                        [s.candidate.timestamp for s in batch])
                    cross = u.visible_cross.reshape(len(batch), k + m, G + m)
                    self_ = u.visible_self.reshape(len(batch), k + m, k + m)
                    for b, s in enumerate(batch):
                        pads = (np.arange(G) + 1) * K <= G * K - len(s.events)
                        sel = select_queries(toks(G, cfg.D), strategy, k,
                                             model.query_bank, np.sum(~pads))
                        # a learnable query (order G) sits at the last position
                        queries = layout(np.append(grid, grid[-1])[sel.order],
                                         np.append(pads, False)[sel.order], m)
                        for mask, keys in ((cross[b], layout(grid, pads, m)),
                                           (self_[b], queries)):
                            want = [[rule(q, key) for key in keys] for q in queries]
                            np.testing.assert_array_equal(mask, want)
                            assert mask[k:].any(axis=-1).all()


def straightline_forward(model, sample):
    """Independent no-abstraction recomputation of the forward pass."""
    cfg = model.cfg
    P = {name: t.data for name, t in model.params()}

    def ln(x, g, b):
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-12) * g + b

    def gelu(u):
        c = math.sqrt(2.0 / math.pi)
        return 0.5 * u * (1.0 + np.tanh(c * (u + 0.044715 * u ** 3)))

    def softmax_row(scores, visible):
        out = np.zeros_like(scores)
        vis = np.flatnonzero(visible)
        if vis.size == 0:
            return out
        z = scores[vis]
        e = np.exp(z - z.max())
        out[vis] = e / e.sum()
        return out

    def block(x_q, x_kv, vis, blk):
        qn = ln(x_q, P[f"{blk}.ln1_g"], P[f"{blk}.ln1_b"])
        kn = ln(x_kv, P[f"{blk}.ln1_g"], P[f"{blk}.ln1_b"])
        q = qn @ P[f"{blk}.w_q"] + P[f"{blk}.b_q"]
        k = kn @ P[f"{blk}.w_k"] + P[f"{blk}.b_k"]
        v = kn @ P[f"{blk}.w_v"] + P[f"{blk}.b_v"]
        ctx = np.zeros_like(x_q)
        for i in range(x_q.shape[0]):
            w = softmax_row(q[i] @ k.T / math.sqrt(cfg.D), vis[i])
            ctx[i] = w @ v
        x1 = x_q + ctx @ P[f"{blk}.w_o"] + P[f"{blk}.b_o"]
        x1n = ln(x1, P[f"{blk}.ln2_g"], P[f"{blk}.ln2_b"])
        return x1 + gelu(x1n @ P[f"{blk}.w1"] + P[f"{blk}.b1"]) @ P[f"{blk}.w2"] \
            + P[f"{blk}.b2"]

    events = sample.events[-cfg.L:]
    n = len(events)
    cand = sample.candidate

    # sequence tokens
    h = np.zeros((cfg.L, cfg.d))
    for t in range(n):
        item, action = int(events.item_id[t]), int(events.action_type[t])
        delta = cand.timestamp - int(events.timestamp[t])
        bucket = min(int(delta).bit_length(), cfg.n_time_buckets - 1)
        feat = np.concatenate([P["tables.item_table"][item],
                               P["tables.action_table"][action],
                               P["tables.time_bucket_table"][bucket]])
        x = feat @ P["tables.mlp.tok_proj_w"] + P["tables.mlp.tok_proj_b"]
        x = x + P["tables.abs_pos_table"][n - 1 - t]
        hdn = gelu(x @ P["tables.mlp.seq_w1"] + P["tables.mlp.seq_b1"])
        h[cfg.L - n + t] = hdn @ P["tables.mlp.seq_w2"] + P["tables.mlp.seq_b2"]

    # globals: [UID, CLS..., target]
    def through_global_mlp(row):
        hdn = gelu(row @ P["tables.mlp.glob_w1"] + P["tables.mlp.glob_b1"])
        return hdn @ P["tables.mlp.glob_w2"] + P["tables.mlp.glob_b2"]

    uid_row = P["tables.uid_table"][sample.user_features.uid] \
        @ P["tables.mlp.lift_w"] + P["tables.mlp.lift_b"]
    tfeat = np.concatenate([P["tables.item_table"][cand.item_id],
                            np.zeros(cfg.d_act),
                            P["tables.time_bucket_table"][0]])
    trow = (tfeat @ P["tables.mlp.tok_proj_w"] + P["tables.mlp.tok_proj_b"]) \
        @ P["tables.mlp.lift_w"] + P["tables.mlp.lift_b"]
    G = np.stack([through_global_mlp(uid_row)]
                 + [through_global_mlp(P["tables.cls_vector"][i])
                    for i in range(cfg.m - 2)]
                 + [through_global_mlp(trow)])

    # merge by concatenation on the padded grid
    Lp = cfg.merged_len * cfg.K
    hp = np.concatenate([np.zeros((Lp - cfg.L, cfg.d)), h])
    merged = hp.reshape(Lp // cfg.K, cfg.K * cfg.d)
    grid_pos = np.arange(Lp // cfg.K) * cfg.K + cfg.K - 1
    pad_groups = np.concatenate([np.ones(Lp - cfg.L, bool),
                                 np.arange(cfg.L) < cfg.L - n]).reshape(
                                     -1, cfg.K).all(axis=1)

    # recent-k selection over non-pad groups
    nonpad = np.flatnonzero(~pad_groups)
    assert nonpad.size >= cfg.k, "oracle written for the no-pad-query case"
    idx = nonpad[-cfg.k:]
    o = np.concatenate([merged[idx], G])
    r = np.concatenate([merged, G])

    # visibility per the documented rule
    qpos = grid_pos[idx]
    nq, nk = cfg.k + cfg.m, merged.shape[0] + cfg.m
    vis1 = np.zeros((nq, nk), dtype=bool)
    vis_self = np.zeros((nq, nq), dtype=bool)
    for i in range(nq):
        for j in range(nk):
            j_seq = j < merged.shape[0]
            if i < cfg.k:
                vis1[i, j] = j_seq and not pad_groups[j] \
                    and grid_pos[j] <= qpos[i]
            else:
                rank_i = i - cfg.k
                vis1[i, j] = (j_seq and not pad_groups[j]) \
                    or (not j_seq and (j - merged.shape[0]) <= rank_i)
        for j in range(nq):
            j_seq = j < cfg.k
            if i < cfg.k:
                vis_self[i, j] = j_seq and qpos[j] <= qpos[i]
            else:
                rank_i = i - cfg.k
                vis_self[i, j] = j_seq or (j - cfg.k) <= rank_i

    x = block(o, r, vis1, "cross")
    for layer in range(cfg.N):
        x = block(x, x, vis_self, f"self.{layer}")

    u_d = np.concatenate([P["tables.uid_table"][sample.user_features.uid],
                          P["tables.profile_table"][sample.user_features.profile_bucket]])
    tgt, cls = x[cfg.k + cfg.m - 1], x[cfg.k + 1]
    head_in = np.concatenate([tgt, cls, tgt * cls, tgt * tgt, u_d])
    hidden = gelu(head_in @ P["head.w1"] + P["head.b1"])
    z = float((hidden @ P["head.w2"] + P["head.b2"]).item())
    return 1.0 / (1.0 + math.exp(-z))


def test_forward_matches_straightline_oracle(tiny_cfg):
    model = LongRecModel(tiny_cfg, seed=5)
    for seed in range(4):
        s = sample_for(tiny_cfg, tiny_cfg.L if seed % 2 else 6, seed=seed)
        assert abs(model.score(s) - straightline_forward(model, s)) <= 1e-10


def test_forward_param_count_matches_analysis(tiny_cfg):
    model = LongRecModel(tiny_cfg, seed=6)
    assert model.flat.size == n_params(model) == analysis.count_params(tiny_cfg)["total"]


# ----------------------------- training -----------------------------


def tiny_dataset(tiny_cfg, n=24, seed=0):
    gen = GeneratorConfig(n_users=n, vocab=tiny_cfg.vocab, L_max=tiny_cfg.L,
                          L_min=max(2, tiny_cfg.L // 2), n_interests=4,
                          interests_per_user=2, n_actions=tiny_cfg.n_actions,
                          n_profiles=tiny_cfg.n_profiles)
    ds = generate_dataset(gen, seed)
    return ds


def test_zero_lr_leaves_params_bitwise(tiny_cfg):
    cfg = ModelConfig(**{**tiny_cfg.to_dict(), "n_users": 24, "lr": 0.0})
    model = LongRecModel(cfg, seed=7)
    before = {n: t.data.copy() for n, t in model.params()}
    train(model, tiny_dataset(cfg), epochs=1, opt=OptConfig(seed=1))
    for n, t in model.params():
        np.testing.assert_array_equal(before[n], t.data)


def test_single_sample_memorization(tiny_cfg):
    cfg = ModelConfig(**{**tiny_cfg.to_dict(), "lr": 0.05, "batch_size": 1})
    model = LongRecModel(cfg, seed=8)
    s = sample_for(cfg, 5, seed=9)
    ds = Dataset([Sample(s.events, s.user_features, s.candidate, 1)])
    report = train(model, ds, epochs=200,
                   opt=OptConfig(seed=2, eval_fraction=0.0))
    assert report.final.loss < 0.01


def test_training_is_deterministic(tiny_cfg):
    cfg = ModelConfig(**{**tiny_cfg.to_dict(), "n_users": 24, "lr": 0.01})
    ds = tiny_dataset(cfg)
    reports = []
    for _ in range(2):
        model = LongRecModel(cfg, seed=10)
        reports.append(train(model, ds, epochs=2, opt=OptConfig(seed=3)).to_csv())
    assert reports[0] == reports[1]


def test_pair_tapes_match_one_mean_tape(tiny_cfg):
    """Four samples per tape (the fifth alone) give the gradients of one
    per-sample ``mean_scalars`` tape over the batch within 1e-12 of the
    model's largest gradient, and the same mean loss. Comparing against the
    model-wide maximum holds the key biases, whose exact gradient is 0, to
    an absolute bound."""
    for merge_mode in ("concat", "inner"):
        cfg = ModelConfig(**{**tiny_cfg.to_dict(), "n_users": 24,
                             "merge_mode": merge_mode})
        samples = tiny_dataset(cfg).samples[:5]
        model = LongRecModel(cfg, seed=12)
        value = batch_backward(model, samples)
        got = [t.grad for _, t in model.params()]
        for _, t in model.params():
            t.zero_grad()
        with T.tape():
            loss = mean_scalars([T.bce(model.forward_tensor([s]), s.label)
                                 for s in samples])
            loss.backward()
        want = [t.grad for _, t in model.params()]
        assert math.isclose(value, float(loss.data), rel_tol=1e-12)
        assert [g is None for g in got] == [w is None for w in want]
        scale = max(np.abs(w).max() for w in want if w is not None)
        for (name, _), g, w in zip(model.params(), got, want):
            if w is not None:
                assert np.abs(g - w).max() <= 1e-12 * scale, name


def test_batch_backward_runs_one_forward_per_tape(tiny_cfg):
    """Five samples take two passes: a tape of four and the last sample alone."""
    cfg = ModelConfig(**{**tiny_cfg.to_dict(), "n_users": 24})
    model = LongRecModel(cfg, seed=12)
    sizes, forward = [], model.forward_tensor

    def spy(samples):
        sizes.append(len(samples))
        return forward(samples)

    model.forward_tensor = spy
    batch_backward(model, tiny_dataset(cfg).samples[:5])
    assert sizes == [4, 1]


def test_non_finite_loss_of_a_pairs_second_sample_stops_training(tiny_cfg):
    """A NaN item-table row read only by the second sample's candidate makes
    its pair's loss non-finite: no gradient is accumulated, and ``train``
    raises with every parameter unchanged."""
    cfg = ModelConfig(**{**tiny_cfg.to_dict(), "vocab": tiny_cfg.vocab + 1,
                         "batch_size": 2})
    bad_item = tiny_cfg.vocab              # no history holds it: ids < vocab
    samples = [sample_for(tiny_cfg, 6, seed=51, cand_item=1),
               sample_for(tiny_cfg, 5, seed=52, cand_item=bad_item)]
    model = LongRecModel(cfg, seed=13)
    model.tables.item_table.data[bad_item] = float("nan")
    assert math.isfinite(model.score(samples[0]))
    assert math.isnan(batch_backward(model, samples))
    assert all(t.grad is None for _, t in model.params())
    before = {n: t.data.tobytes() for n, t in model.params()}
    with pytest.raises(NumericalError):
        train(model, Dataset(samples), epochs=1, opt=OptConfig(eval_fraction=0.0))
    assert before == {n: t.data.tobytes() for n, t in model.params()}


def test_training_peak_memory_does_not_grow_with_batch():
    """Only one tape of four samples is alive at a time, and it keeps only
    what its backward reads: the traced peak of one epoch at batch 8 stays
    below twice the peak at batch 1. A warm-up epoch runs first, so the
    one-time allocations of a cold process fall in neither peak."""
    ds = generate_dataset(GeneratorConfig(n_users=16, vocab=24, L_max=64,
                                          n_interests=5, interests_per_user=2,
                                          n_profiles=4), 0)

    def config(batch):
        return ModelConfig(L=64, d=4, K=2, k=8, N=1, vocab=24, n_users=16,
                           n_profiles=4, head_hidden=8, batch_size=batch)

    train(LongRecModel(config(1), seed=0), ds, 1, OptConfig(eval_fraction=0.0))
    peaks = []
    for batch in (1, 8):
        model = LongRecModel(config(batch), seed=0)
        tracemalloc.start()
        try:
            train(model, ds, 1, OptConfig(eval_fraction=0.0))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0]


@pytest.mark.skipif(not T.ALLOCATOR_TUNED, reason="mallopt unavailable or refused")
def test_training_and_eval_reuse_freed_memory():
    """A tape or eval chunk's freed pages stay in the heap: once one epoch and
    one evaluate have grown it, a second of each takes (almost) no minor page
    faults. At glibc's default thresholds they take thousands."""
    resource = pytest.importorskip("resource")
    ds = generate_dataset(GeneratorConfig(n_users=16, vocab=200, L_max=512,
                                          L_min=384), 0)
    model = LongRecModel(ModelConfig(L=512, k=32, merge_mode="inner",
                                     batch_size=8), seed=0)
    opt = OptConfig(eval_fraction=0.0)

    def minor_faults(run):
        run()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run()
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    assert minor_faults(lambda: train(model, ds, 1, opt)) < 200
    assert minor_faults(lambda: evaluate(model, ds.samples)) < 200


def test_nan_parameters_abort_training(tiny_cfg):
    cfg = ModelConfig(**{**tiny_cfg.to_dict(), "n_users": 24})
    model = LongRecModel(cfg, seed=11)
    model.head_w1.data[0, 0] = float("nan")
    with pytest.raises(NumericalError):
        train(model, tiny_dataset(cfg), epochs=1, opt=OptConfig(seed=4))


def test_adam_matches_per_array_reference(tiny_cfg):
    """Adam's one vector update equals the straight-line Adam of each array
    bitwise, over a step with every gradient and one where every history is
    empty: no gradient reaches the action table, which then keeps its
    values and moments."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    cfg = ModelConfig(**{**tiny_cfg.to_dict(), "lr": 0.01})
    model = SumPoolingModel(cfg, seed=5)
    full = tiny_dataset(cfg, n=6).samples
    empty = [Sample(Events([], [], []), s.user_features, s.candidate, s.label)
             for s in full]
    adam = Adam(model, cfg.lr)
    want = {n: t.data.copy() for n, t in model.params()}
    moments = {n: (np.zeros_like(a), np.zeros_like(a)) for n, a in want.items()}
    for step, batch in enumerate([full, empty], start=1):
        adam.zero_grads()
        batch_backward(model, batch)
        adam.step()
        c1, c2 = 1.0 - b1 ** step, 1.0 - b2 ** step
        for n, t in model.params():
            if t.grad is None:
                continue
            m, v = moments[n]
            m *= b1
            m += (1 - b1) * t.grad
            v *= b2
            v += (1 - b2) * t.grad * t.grad
            want[n] -= cfg.lr * (m / c1) / (np.sqrt(v / c2) + eps)
        for n, t in model.params():
            np.testing.assert_array_equal(t.data, want[n], err_msg=n)
    assert [n for n, t in model.params() if t.grad is None] == ["action_table"]


def test_end_to_end_gradient_check(tiny_cfg):
    for seed in range(2):
        model = LongRecModel(tiny_cfg, seed=20 + seed)
        samples = [sample_for(tiny_cfg, 6, seed=30 + seed),
                   sample_for(tiny_cfg, 3, seed=40 + seed)]

        def loss():
            return mean_scalars([T.bce(model.forward_tensor([s]), s.label)
                                 for s in samples])

        named = [(n, t) for n, t in model.params()]
        fd_check(loss, named, tol=1e-3, h=1e-5, max_coords=2, seed=seed)


def test_batched_forward_gradient_check(tiny_cfg):
    """Finite differences through one pass over a batch of two samples, one
    of them shorter than a merge group. The key biases' gradients are 0 in
    theory and ~1e-17 in practice; ``fd_check`` compares values below 1 by
    absolute error, so they pass on that."""
    cfg = ModelConfig(**{**tiny_cfg.to_dict(), "heads": 2})
    model = LongRecModel(cfg, seed=23)
    samples = [sample_for(cfg, 6, seed=33), sample_for(cfg, 1, seed=43)]

    def loss():
        p = model.forward_tensor(samples)
        return mean_scalars([T.bce(T.gather_rows(p, [i]), s.label)
                             for i, s in enumerate(samples)])

    fd_check(loss, model.params(), tol=1e-4, h=1e-5, max_coords=3, seed=5)


def test_tape_is_per_thread(tiny_cfg):
    """Tapes are per thread: a thread that scores while a training step's
    tape is open records nothing onto it, and a tape that thread holds open
    does not take the step's ops, which still reach every parameter."""
    model = LongRecModel(tiny_cfg, seed=19)
    s = sample_for(tiny_cfg, 6, seed=20)
    entered, release = threading.Event(), threading.Event()
    held = []

    def score_then_hold_tape():
        model.score(s)
        with T.tape() as own:
            entered.set()
            release.wait(timeout=30)
            held.append(len(own))

    worker = threading.Thread(target=score_then_hold_tape)
    with T.tape() as recorded:
        worker.start()
        try:
            assert entered.wait(timeout=30)
            assert recorded == []
            T.bce(model.forward_tensor([s]), s.label).backward()
        finally:
            release.set()
            worker.join(timeout=30)
    assert not worker.is_alive()
    assert held == [0]
    assert [n for n, t in model.params() if t.grad is None] == []


def test_unallocatable_parameters_raise_config_error(tiny_cfg):
    """A config whose parameters do not fit in memory raises ConfigError
    naming their count, from either model, before any table is drawn: one
    array too large for memory (10^12 rows), and one beyond the address
    space (10^18)."""
    for vocab in (10 ** 12, 10 ** 18):
        cfg = ModelConfig(**{**tiny_cfg.to_dict(), "vocab": vocab})
        n = analysis.count_params(cfg)["total"]
        with pytest.raises(ConfigError, match=f"{n:,} parameters"):
            LongRecModel(cfg)
        with pytest.raises(ConfigError, match="parameters"):
            SumPoolingModel(cfg)


# ----------------------------- baseline -----------------------------


def test_pooling_identical_tokens(tiny_cfg):
    base = SumPoolingModel(tiny_cfg, seed=12)
    ts = 1_000
    events = Events([3] * 5, [1] * 5, [ts] * 5)
    s = Sample(events, UserFeatures(0, 0), Candidate(1, ts), 1)
    feats = base._features([3], [1], [0])
    pooled = T.mean_rows(base._features([3] * 5, [1] * 5, [0] * 5))
    np.testing.assert_allclose(pooled.data, feats.data, atol=1e-15)
    assert 0.0 < base.score(s) < 1.0


def test_pooling_empty_sequence_zero_vector(tiny_cfg):
    base = SumPoolingModel(tiny_cfg, seed=13)
    s = Sample(Events([], [], []), UserFeatures(0, 0), Candidate(1, 10), 0)
    p = base.score(s)
    # zero pooled vector: probability determined by the target row alone
    zeroed = Sample(Events([], [], []), UserFeatures(1, 1), Candidate(1, 10), 0)
    assert p == base.score(zeroed)


def test_pooling_order_invariance(tiny_cfg):
    base = SumPoolingModel(tiny_cfg, seed=14)
    rng = np.random.default_rng(15)
    rows = [(int(rng.integers(tiny_cfg.vocab)),
             int(rng.integers(tiny_cfg.n_actions)), int(50 + i))
            for i in range(6)]
    s = Sample(Events(*zip(*rows)), UserFeatures(0, 0), Candidate(2, 100), 1)
    perm = [rows[i] for i in [3, 0, 5, 1, 4, 2]]
    s2 = Sample(Events(*zip(*perm)), s.user_features, s.candidate, s.label)
    assert base.score(s) == base.score(s2)


def test_pooling_trains(tiny_cfg):
    cfg = ModelConfig(**{**tiny_cfg.to_dict(), "n_users": 24, "lr": 0.02})
    base = SumPoolingModel(cfg, seed=16)
    report = train(base, tiny_dataset(cfg), epochs=2, opt=OptConfig(seed=5))
    assert math.isfinite(report.final.loss)


def _dominance_run(plant_side, gap, strategy, users, epochs):
    gen = GeneratorConfig(n_users=users, vocab=48, L_max=64, L_min=56,
                          n_interests=8, interests_per_user=3, noise_rate=0.0,
                          plant_gap=gap, plant_min=6, plant_max=12,
                          plant_side=plant_side, p_hit=0.97, p_miss=0.03)
    ds = generate_dataset(gen, seed=55)
    cfg = ModelConfig(L=64, d=8, K=4, k=4, N=2, vocab=48, n_users=users,
                      lr=1e-3, batch_size=8, query_strategy=strategy)
    model = LongRecModel(cfg, seed=7)
    return train(model, ds, epochs, OptConfig(seed=1)).final.auc


@pytest.mark.slow
def test_query_strategy_dominance_directions():
    """Recent queries win on recent-planted data, uniform on uniform-planted.

    Direction checks only at frozen seeds; the effect flows through which
    merged tokens stay available to the refinement layers. Takes ~1 minute.
    """
    rec_on_recent = _dominance_run("recent", 16, "recent", 600, 3)
    uni_on_recent = _dominance_run("recent", 16, "uniform", 600, 3)
    assert rec_on_recent >= uni_on_recent
    rec_on_uniform = _dominance_run("deep", 0, "recent", 800, 4)
    uni_on_uniform = _dominance_run("deep", 0, "uniform", 800, 4)
    assert uni_on_uniform >= rec_on_uniform


# ----------------------------- checkpoints -----------------------------


def test_checkpoint_roundtrip(tmp_path, tiny_cfg):
    model = LongRecModel(tiny_cfg, seed=17)
    model.param_version = 7
    path = str(tmp_path / "model.bin")
    model.save(path)
    loaded = LongRecModel.load(path)
    assert loaded.param_version == 7
    assert loaded.cfg.to_dict() == model.cfg.to_dict()
    for (n1, t1), (n2, t2) in zip(model.params(), loaded.params()):
        assert n1 == n2
        np.testing.assert_array_equal(t1.data, t2.data)
    s = sample_for(tiny_cfg, 4, seed=18)
    assert model.score(s) == loaded.score(s)


def _damaged_checkpoints(blob):
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16:16 + hlen])
    header["arrays"] = header["arrays"][:-1]        # drop head.b2 (8 bytes)
    short = json.dumps(header, sort_keys=True).encode()

    def with_header(**changes):
        edited = json.loads(blob[16:16 + hlen])
        for key, value in changes.items():
            if key in edited:
                edited[key] = value
            else:
                edited["config"][key] = value
        text = json.dumps(edited, sort_keys=True).encode()
        return CHECKPOINT_MAGIC + struct.pack("<Q", len(text)) + text + blob[16 + hlen:]

    return {
        "truncated_payload": blob[:-3],
        "truncated_header": blob[:16 + hlen // 2],
        "trailing_bytes": blob + b"\x00" * 8,
        "missing_array": (CHECKPOINT_MAGIC + struct.pack("<Q", len(short))
                          + short + blob[16 + hlen:-8]),
        "param_version_infinity": with_header(param_version=float("inf")),
        "param_version_float": with_header(param_version=1.5),
        "huge_vocab": with_header(vocab=10 ** 15),
    }


@pytest.mark.parametrize("damage", ["truncated_payload", "truncated_header",
                                    "trailing_bytes", "missing_array",
                                    "param_version_infinity",
                                    "param_version_float", "huge_vocab"])
def test_checkpoint_damage_raises_config_error(tmp_path, tiny_cfg, damage):
    path = tmp_path / "model.bin"
    LongRecModel(tiny_cfg, seed=21).save(str(path))
    bad = tmp_path / "bad.bin"
    bad.write_bytes(_damaged_checkpoints(path.read_bytes())[damage])
    with pytest.raises(ConfigError):
        LongRecModel.load(str(bad))


def test_checkpoint_mistyped_config_raises_config_error(tmp_path, tiny_cfg):
    path = tmp_path / "model.bin"
    LongRecModel(tiny_cfg, seed=22).save(str(path))
    blob = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16:16 + hlen])
    header["config"]["lr"] = "0.003"
    text = json.dumps(header, sort_keys=True).encode()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(CHECKPOINT_MAGIC + struct.pack("<Q", len(text)) + text
                    + blob[16 + hlen:])
    with pytest.raises(ConfigError, match="lr"):
        LongRecModel.load(str(bad))


def assert_views_of_flat(model):
    """Every parameter is a C-contiguous view of ``model.flat``, in
    ``params()`` order and covering it: a pattern written into the vector
    reads back through the parameters."""
    named = model.params()
    assert all(np.shares_memory(t.data, model.flat) and t.data.flags.c_contiguous
               for _, t in named)
    saved = model.flat.copy()
    model.flat[:] = np.arange(model.flat.size)
    seen = np.concatenate([t.data.ravel() for _, t in named])
    model.flat[:] = saved
    np.testing.assert_array_equal(seen, np.arange(model.flat.size))


@pytest.mark.parametrize("kind", ["concat", "inner-learnable", "sumpooling"])
def test_parameters_are_views_of_one_vector(tmp_path, tiny_cfg, kind):
    """After construction, after a training epoch and after ``load``."""
    cfg = ModelConfig(**{**tiny_cfg.to_dict(), "n_users": 24, "batch_size": 4,
                         "merge_mode": "inner" if kind == "inner-learnable" else "concat",
                         "query_strategy": "learnable" if kind == "inner-learnable"
                         else "recent"})
    model = SumPoolingModel(cfg, seed=1) if kind == "sumpooling" else LongRecModel(cfg, seed=1)
    assert_views_of_flat(model)
    train(model, tiny_dataset(cfg, n=8), epochs=1, opt=OptConfig(seed=1))
    assert_views_of_flat(model)
    if kind != "sumpooling":
        model.save(str(tmp_path / "model.bin"))
        loaded = LongRecModel.load(str(tmp_path / "model.bin"))
        assert_views_of_flat(loaded)
        np.testing.assert_array_equal(loaded.flat, model.flat)


def test_load_draws_no_random_numbers(tmp_path, tiny_cfg, monkeypatch):
    model = LongRecModel(tiny_cfg, seed=2)
    path = str(tmp_path / "model.bin")
    model.save(path)

    def no_draws(*args, **kwargs):
        raise AssertionError("load made a random generator")

    monkeypatch.setattr(model_module.np.random, "default_rng", no_draws)
    loaded = LongRecModel.load(path)
    for (_, a), (_, b) in zip(model.params(), loaded.params()):
        np.testing.assert_array_equal(a.data, b.data)


def test_save_writes_format_one_bytes(tmp_path, tiny_cfg):
    """``save`` writes exactly what a straight-line format-1 writer over
    ``params()`` writes, so checkpoints written array by array still load."""
    cfg = ModelConfig(**{**tiny_cfg.to_dict(), "n_users": 24})
    model = LongRecModel(cfg, seed=3)
    train(model, tiny_dataset(cfg, n=8), epochs=1, opt=OptConfig(seed=2))
    path = tmp_path / "model.bin"
    model.save(str(path))
    header = json.dumps({
        "format_version": 1, "config": cfg.to_dict(),
        "param_version": model.param_version,
        "arrays": [{"name": n, "shape": list(t.shape)} for n, t in model.params()],
    }, sort_keys=True).encode("utf-8")
    want = (CHECKPOINT_MAGIC + struct.pack("<Q", len(header)) + header
            + b"".join(t.data.astype("<f8").tobytes() for _, t in model.params()))
    assert path.read_bytes() == want


def test_fingerprint_sees_one_ulp_of_first_and_last_parameter(tiny_cfg):
    model = LongRecModel(tiny_cfg, seed=4)
    named = model.params()
    base = model.fingerprint()
    for values, i in ((named[0][1].data.reshape(-1), 0), (named[-1][1].data.reshape(-1), -1)):
        old = values[i]
        values[i] = np.nextafter(old, np.inf)
        model.param_version += 1
        assert model.fingerprint() != base
        values[i] = old
        model.param_version += 1
        assert model.fingerprint() == base


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(ConfigError):
        LongRecModel.load(str(path))
