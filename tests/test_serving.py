"""Cache equivalence, fingerprints, size accounting, counted MACs, and
concurrent scoring."""

import sys
import threading

import numpy as np
import pytest

from conftest import counted_muladds
from longrec import analysis
from longrec.config import GeneratorConfig, ModelConfig
from longrec.errors import ConfigError, StaleCacheError
from longrec.inputs import Candidate, Events, Sample, generate_dataset
from longrec.model import Adam, LongRecModel, SumPoolingModel, evaluate
from longrec.serving import (ScoreRequest, build_cache, cache_size_floats,
                             score_request, score_with_cache)
from longrec import tensors as T
from test_model import straightline_forward


def small_cfg(**overrides):
    base = dict(L=16, d=3, K=2, m=3, k=4, N=2, heads=1, d_item=3, d_act=2,
                d_time=3, n_time_buckets=8, vocab=30, n_actions=3, n_users=40,
                n_profiles=4, head_hidden=6)
    base.update(overrides)
    return ModelConfig(**base)


def users_for(cfg, n, seed=0, full_length=False):
    gen = GeneratorConfig(n_users=n, vocab=cfg.vocab, L_max=cfg.L,
                          L_min=cfg.L if full_length else max(2, cfg.L // 2),
                          n_interests=5, interests_per_user=2,
                          n_actions=cfg.n_actions, n_profiles=cfg.n_profiles)
    return generate_dataset(gen, seed).samples


def test_cache_build_is_deterministic():
    cfg = small_cfg()
    model = LongRecModel(cfg, seed=0)
    s = users_for(cfg, 1)[0]
    a = build_cache(model, s.events, s.user_features, s.candidate.timestamp)
    b = build_cache(model, s.events, s.user_features, s.candidate.timestamp)
    assert a.fingerprint == b.fingerprint
    for (ka, va), (kb, vb) in zip(a.layers, b.layers):
        np.testing.assert_array_equal(ka, kb)
        np.testing.assert_array_equal(va, vb)
    np.testing.assert_array_equal(a.cls_final, b.cls_final)


def test_cache_size_matches_analytic_formula():
    for cfg in (small_cfg(), small_cfg(K=1, k=6), small_cfg(N=3, m=4)):
        model = LongRecModel(cfg, seed=1)
        s = users_for(cfg, 1)[0]
        cache = build_cache(model, s.events, s.user_features,
                            s.candidate.timestamp)
        stored = cache.cls_final.size + cache.user_side.size + sum(
            keys.size + values.size for keys, values in cache.layers)
        assert stored == cache_size_floats(cfg)


CONFIG_MATRIX = [
    small_cfg(),
    small_cfg(K=1, k=6),
    small_cfg(query_strategy="uniform"),
    small_cfg(query_strategy="learnable"),
    small_cfg(query_strategy="recent_uniform"),
    small_cfg(heads=3),
    small_cfg(merge_mode="inner"),
    small_cfg(N=1),              # the only self block computes only CLS/target
    small_cfg(m=4),              # a second CLS row that the head never reads
]


def depth_id(c):
    """``-N{N}`` and ``-m{m}`` where they differ from ``small_cfg``'s."""
    return (f"-N{c.N}" if c.N != 2 else "") + (f"-m{c.m}" if c.m != 3 else "")


@pytest.mark.parametrize("cfg", CONFIG_MATRIX, ids=lambda c: (
    f"K{c.K}-{c.query_strategy}-{c.merge_mode}-h{c.heads}{depth_id(c)}"))
def test_cached_equals_full_forward(cfg):
    """One batch of 5 candidates matches the full forward of each at 1e-9
    and each candidate scored alone as a batch of one at 1e-12; the cache
    build and the batch count exactly the analytic MACs."""
    model = LongRecModel(cfg, seed=2)
    rng = np.random.default_rng(3)
    worst = worst_alone = 0.0
    for s in users_for(cfg, 6, seed=4):
        cands = [Candidate(int(rng.integers(cfg.vocab)), s.candidate.timestamp)
                 for _ in range(5)]
        with T.count_muladds() as window:
            cache = build_cache(model, s.events, s.user_features,
                                s.candidate.timestamp)
            batch = score_with_cache(model, cache, cands)
        assert window.mul_adds == (
            analysis.muladds_cache_build(cfg, min(len(s.events), cfg.L))
            + len(cands) * analysis.muladds_incremental(cfg))
        for cand, fast in zip(cands, batch):
            full = model.score(Sample(s.events, s.user_features, cand, 0))
            alone = score_with_cache(model, cache, [cand])[0]
            worst = max(worst, abs(full - fast), abs(full - alone))
            worst_alone = max(worst_alone, abs(alone - fast))
    assert worst <= 1e-9
    assert worst_alone <= 1e-12


def mixed_length_samples(cfg, seed):
    """Samples whose histories are empty, one event long (fewer than K for
    K > 1), longer than L, and generated, each with its own candidate."""
    base = users_for(cfg, 3, seed=seed)
    longer = users_for(small_cfg(L=2 * cfg.L), 1, seed=seed + 1, full_length=True)[0]
    rng = np.random.default_rng(seed)
    sources = [(Events([], [], []), base[0]), (base[1].events[:1], base[1]),
               (longer.events, longer)] + [(s.events, s) for s in base]
    return [Sample(events, src.user_features,
                   Candidate(int(rng.integers(cfg.vocab)), src.candidate.timestamp),
                   int(rng.integers(2)))
            for events, src in sources]


BATCH_CONFIGS = CONFIG_MATRIX + [small_cfg(heads=2), small_cfg(L=15, heads=2),
                                 small_cfg(L=15, merge_mode="inner")]


@pytest.mark.parametrize("cfg", BATCH_CONFIGS, ids=lambda c: (
    f"L{c.L}-K{c.K}-{c.query_strategy}-{c.merge_mode}-h{c.heads}{depth_id(c)}"))
def test_batched_forward_matches_batch_of_one(cfg):
    """One pass over mixed-length samples gives each sample's probability
    as that sample alone does, and counts the MACs of the separate passes."""
    model = LongRecModel(cfg, seed=8)
    samples = mixed_length_samples(cfg, seed=9)
    assert len(samples[2].events) > cfg.L
    with T.count_muladds() as window:
        batched = model.forward_tensor(samples).data
    alone = np.array([model.forward_tensor([s]).data[0] for s in samples])
    assert batched.shape == (len(samples), 1)
    assert np.abs(batched - alone).max() <= 1e-12
    assert window.mul_adds == sum(analysis.muladds_full_forward(
        cfg, min(len(s.events), cfg.L)) for s in samples)


@pytest.mark.parametrize("cfg", CONFIG_MATRIX[:2] + [small_cfg(merge_mode="inner")],
                         ids=lambda c: f"K{c.K}-{c.merge_mode}")
def test_evaluate_chunks_keep_sample_order_and_macs(cfg):
    """``evaluate`` over batch_size + 1 samples (one full chunk and one of a
    single sample) returns each sample's own score in sample order, and its
    MACs are those of one full forward per sample."""
    cfg = ModelConfig(**{**cfg.to_dict(), "batch_size": 5})
    model = LongRecModel(cfg, seed=10)
    samples = mixed_length_samples(cfg, seed=11)
    assert len(samples) == cfg.batch_size + 1
    with T.count_muladds() as window:
        scores, labels = evaluate(model, samples)
    assert window.mul_adds == sum(analysis.muladds_full_forward(
        cfg, min(len(s.events), cfg.L)) for s in samples)
    assert np.abs(scores - [model.score(s) for s in samples]).max() <= 1e-12
    assert len(set(scores.tolist())) == len(samples)
    assert labels.tolist() == [s.label for s in samples]
    scores_r, _ = evaluate(model, samples[::-1])
    assert np.abs(scores_r[::-1] - scores).max() <= 1e-12


def test_sum_pooling_runs_through_evaluate():
    cfg = ModelConfig(**{**small_cfg().to_dict(), "batch_size": 4})
    model = SumPoolingModel(cfg, seed=12)
    samples = mixed_length_samples(cfg, seed=13)
    scores, _ = evaluate(model, samples)
    assert scores.shape == (len(samples),)
    assert np.abs(scores - [model.score(s) for s in samples]).max() <= 1e-12


def test_two_candidates_one_cache_match_independent_forwards():
    cfg = small_cfg()
    model = LongRecModel(cfg, seed=5)
    s = users_for(cfg, 1, seed=6)[0]
    cache = build_cache(model, s.events, s.user_features, s.candidate.timestamp)
    for item in (1, 2):
        cand = Candidate(item, s.candidate.timestamp)
        full = model.score(Sample(s.events, s.user_features, cand, 0))
        assert abs(score_with_cache(model, cache, [cand])[0] - full) <= 1e-9


def test_stale_cache_after_parameter_update():
    cfg = small_cfg()
    model = LongRecModel(cfg, seed=7)
    s = users_for(cfg, 1, seed=8)[0]
    cache = build_cache(model, s.events, s.user_features, s.candidate.timestamp)
    # one optimizer step invalidates the fingerprint
    opt = Adam(model, lr=1e-3)
    with T.tape():
        T.bce(model.forward_tensor([s]), s.label).backward()
    opt.step()
    model.param_version += 1
    with pytest.raises(StaleCacheError):
        score_with_cache(model, cache, [Candidate(1, s.candidate.timestamp)])


def test_cache_refused_by_model_with_other_weights(tmp_path):
    cfg = small_cfg()
    a, b = LongRecModel(cfg, seed=26), LongRecModel(cfg, seed=27)
    s = users_for(cfg, 1, seed=28)[0]
    cache = build_cache(a, s.events, s.user_features, s.candidate.timestamp)
    cand = Candidate(1, s.candidate.timestamp)
    with pytest.raises(StaleCacheError):
        score_with_cache(b, cache, [cand])
    path = str(tmp_path / "a.bin")
    a.save(path)
    reloaded = LongRecModel.load(path)
    assert score_with_cache(reloaded, cache, [cand]) == score_with_cache(a, cache, [cand])


def test_mismatched_timestamp_rejected():
    cfg = small_cfg()
    model = LongRecModel(cfg, seed=9)
    s = users_for(cfg, 1, seed=10)[0]
    cache = build_cache(model, s.events, s.user_features, s.candidate.timestamp)
    t = s.candidate.timestamp
    for bad in range(3):
        cands = [Candidate(1, t + 5 if i == bad else t) for i in range(3)]
        with pytest.raises(StaleCacheError):
            score_with_cache(model, cache, cands)


def test_empty_candidate_list_scores_to_empty():
    cfg = small_cfg()
    model = LongRecModel(cfg, seed=9)
    s = users_for(cfg, 1, seed=10)[0]
    cache = build_cache(model, s.events, s.user_features, s.candidate.timestamp)
    assert score_with_cache(model, cache, []) == []


def test_cache_candidate_independence_is_structural():
    """Interleaving scoring with fresh builds never perturbs cache contents."""
    cfg = small_cfg()
    model = LongRecModel(cfg, seed=11)
    s = users_for(cfg, 1, seed=12)[0]
    first = build_cache(model, s.events, s.user_features, s.candidate.timestamp)
    score_with_cache(model, first, [Candidate(3, s.candidate.timestamp)])
    second = build_cache(model, s.events, s.user_features, s.candidate.timestamp)
    for (ka, va), (kb, vb) in zip(first.layers, second.layers):
        np.testing.assert_array_equal(ka, kb)
        np.testing.assert_array_equal(va, vb)


# ----------------------------- counted MACs -----------------------------


def test_bench_counts_match_analytic_and_scale():
    cfg = small_cfg()
    model = LongRecModel(cfg, seed=13)
    users = users_for(cfg, 3, seed=14)
    # counted == analytic per user is asserted inside; check O(1) scaling here
    naive5, cached5 = counted_muladds(model, users, 5, seed=15)
    naive9, cached9 = counted_muladds(model, users, 9, seed=15)
    assert cached9 - cached5 == 3 * 4 * analysis.muladds_incremental(cfg)
    assert naive9 == 9 * naive5 // 5


def test_bench_c1_margin_under_5_percent():
    cfg = small_cfg()
    model = LongRecModel(cfg, seed=16)
    users = users_for(cfg, 4, seed=17)
    naive, cached = counted_muladds(model, users, 1, seed=18)
    assert cached <= 1.05 * naive


def test_one_cache_serves_concurrent_score_calls():
    """The module docstring's contract: one cache may serve concurrent score
    calls over frozen parameters, with results bitwise equal to serial."""
    cfg = small_cfg()
    model = LongRecModel(cfg, seed=31)
    s = users_for(cfg, 1, seed=32)[0]
    cache = build_cache(model, s.events, s.user_features, s.candidate.timestamp)
    cands = [Candidate(i % cfg.vocab, s.candidate.timestamp) for i in range(300)]
    serial = [score_with_cache(model, cache, [c])[0] for c in cands]
    results = [None, None]
    start = threading.Barrier(2)

    def worker(j):
        start.wait()
        results[j] = [score_with_cache(model, cache, [c])[0] for c in cands]

    threads = [threading.Thread(target=worker, args=(j,)) for j in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)          # switch threads as often as possible
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results[0] == serial
    assert results[1] == serial


# ----------------------------- request serving -----------------------------


def test_score_request_order_and_equivalence():
    cfg = small_cfg()
    model = LongRecModel(cfg, seed=22)
    samples = users_for(cfg, 3, seed=23)
    store = {s.user_features.uid: s for s in samples}
    s = samples[1]
    cands = [Candidate(i, s.candidate.timestamp) for i in (4, 9, 2)]
    resp = score_request(model, store, ScoreRequest(s.user_features.uid, cands))
    assert len(resp.probabilities) == 3
    for cand, p in zip(cands, resp.probabilities):
        full = model.score(Sample(s.events, s.user_features, cand, 0))
        assert abs(p - full) <= 1e-9


@pytest.mark.parametrize("cfg", [small_cfg(), small_cfg(K=1, k=6)],
                         ids=lambda c: f"K{c.K}")
def test_cached_scoring_matches_straightline_oracle(cfg):
    """Cached and full scoring share the block code, so cached scoring is
    also held to the independent straight-line forward (which supports
    recent queries, concat merge and no pad queries)."""
    model = LongRecModel(cfg, seed=29)
    samples = users_for(cfg, 4, seed=30)
    store = {s.user_features.uid: s for s in samples}
    for s in samples:
        cands = [Candidate(i, s.candidate.timestamp) for i in (0, 7, 13)]
        cache = build_cache(model, s.events, s.user_features, s.candidate.timestamp)
        resp = score_request(model, store, ScoreRequest(s.user_features.uid, cands))
        for cand, p in zip(cands, resp.probabilities):
            want = straightline_forward(model, Sample(s.events, s.user_features, cand, 0))
            assert abs(score_with_cache(model, cache, [cand])[0] - want) <= 1e-9
            assert abs(p - want) <= 1e-9


def test_score_request_validation():
    cfg = small_cfg()
    model = LongRecModel(cfg, seed=24)
    samples = users_for(cfg, 2, seed=25)
    store = {s.user_features.uid: s for s in samples}
    with pytest.raises(ConfigError):
        score_request(model, store, ScoreRequest(999, []))
    s = samples[0]
    mixed = [Candidate(1, s.candidate.timestamp),
             Candidate(2, s.candidate.timestamp + 1)]
    with pytest.raises(ConfigError):
        score_request(model, store, ScoreRequest(s.user_features.uid, mixed))


def test_counter_reads_of_the_benchmark_agree():
    """The benchmark reads MACs two ways: the raw ``T.counter.mul_adds``
    difference around a call (its span tracer) and a ``count_muladds``
    window read after its block (its request and eval checks). Both give
    one request's analytic count, and nested windows are exact: the outer
    one is the inner one plus the MACs counted between them."""
    cfg = small_cfg()
    model = LongRecModel(cfg, seed=31)
    s = users_for(cfg, 1, seed=32)[0]
    store, uid = {s.user_features.uid: s}, s.user_features.uid
    cands = [Candidate(i, s.candidate.timestamp) for i in (3, 8)]
    want = (analysis.muladds_cache_build(cfg, min(len(s.events), cfg.L))
            + len(cands) * analysis.muladds_incremental(cfg))
    before = T.counter.mul_adds
    score_request(model, store, ScoreRequest(uid, cands))
    assert T.counter.mul_adds - before == want
    with T.count_muladds() as outer:
        T.linear(np.zeros((2, 3)), np.zeros((3, 4)), np.zeros(4))
        with T.count_muladds() as inner:
            score_request(model, store, ScoreRequest(uid, cands))
        T.linear(np.zeros((5, 1)), np.zeros((1, 2)), np.zeros(2))
    assert inner.mul_adds == want
    assert outer.mul_adds == 2 * 3 * 4 + inner.mul_adds + 5 * 1 * 2


def test_empty_request_builds_no_cache():
    cfg = small_cfg()
    model = LongRecModel(cfg, seed=24)
    s = users_for(cfg, 1, seed=25)[0]
    with T.count_muladds() as window:
        resp = score_request(model, {s.user_features.uid: s},
                             ScoreRequest(s.user_features.uid, []))
    assert window.mul_adds == 0
    assert resp.probabilities == [] and resp.cache_build_ns == 0
