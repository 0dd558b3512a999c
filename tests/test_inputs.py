"""Generator distributions, oracle windows, encoding, and JSONL round-trips."""

import gzip
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from conftest import bayes_window_scores, fd_check, readout
from longrec import analysis
from longrec import tensors as T
from longrec.config import GeneratorConfig, ModelConfig
from longrec.errors import ConfigError, EmbeddingLookupError
from longrec.inputs import (Candidate, EmbeddingTables, Events, Sample,
                            UserFeatures, encode_events,
                            generate_dataset, interest_of, load_dataset,
                            nontarget_global_tokens, save_dataset,
                            target_global_token, time_buckets, time_deltas,
                            user_side_features)


def serialize(dataset):
    return "".join(json.dumps(s.to_json_dict(), sort_keys=True) + "\n"
                   for s in dataset.samples)


# ----------------------------- generator -----------------------------


def test_generator_deterministic(tiny_gen_cfg):
    a = generate_dataset(tiny_gen_cfg, seed=42)
    b = generate_dataset(tiny_gen_cfg, seed=42)
    assert serialize(a) == serialize(b)
    assert (a.latent_hits == b.latent_hits).all()


def test_generator_rejects_degenerate_vocab():
    with pytest.raises(ConfigError):
        GeneratorConfig(n_users=3, vocab=3, L_max=8, n_interests=5).validate()


def test_generator_sample_invariants(tiny_gen_cfg):
    ds = generate_dataset(tiny_gen_cfg, seed=3)
    for s in ds.samples:
        assert len(s.validate().events) <= tiny_gen_cfg.L_max


def test_pure_noise_labels_independent_of_history():
    cfg = GeneratorConfig(n_users=10_000, vocab=60, L_max=30, L_min=20,
                          n_interests=6, noise_rate=1.0)
    ds = generate_dataset(cfg, seed=11)
    # Best history-based detector: does any event share the candidate interest?
    scores = bayes_window_scores(ds, cfg)
    labels = ds.labels()
    assert abs(analysis.auc(scores, labels) - 0.5) <= 0.02


def test_planted_long_range_oracle_windows():
    cfg = GeneratorConfig(n_users=3000, vocab=120, L_max=160, L_min=128,
                          n_interests=8, noise_rate=0.0, plant_gap=64)
    ds = generate_dataset(cfg, seed=5)
    labels = ds.labels()
    # Within the last 64 events the candidate interest never occurs: all
    # oracle scores tie, so ranking is exactly chance.
    short = bayes_window_scores(ds, cfg, window=64)
    assert np.unique(short).size == 1
    assert analysis.auc(short, labels) == 0.5
    full = bayes_window_scores(ds, cfg)
    assert analysis.auc(full, labels) > 0.9
    # The full-window oracle recovers the latent hit flag exactly.
    assert ((full == cfg.p_hit) == ds.latent_hits).all()


def test_planted_hit_flag_flips_label_mean():
    cfg = GeneratorConfig(n_users=2000, vocab=80, L_max=64, L_min=48,
                          n_interests=8, noise_rate=0.0, plant_gap=8)
    ds = generate_dataset(cfg, seed=9)
    labels = ds.labels()
    hit_mean = labels[ds.latent_hits].mean()
    miss_mean = labels[~ds.latent_hits].mean()
    assert hit_mean >= 0.85
    assert miss_mean <= 0.15


def test_planted_inexact_items_share_the_hit_interest():
    """With ``plant_exact_item`` false, the planted events and each hit
    candidate draw their own items of the hit interest: that interest occurs
    plant_min..plant_max times, all deeper than plant_gap, while a miss
    candidate's interest never occurs (noise 0, so every other event is of
    a base interest)."""
    cfg = GeneratorConfig(n_users=200, vocab=80, L_max=40, L_min=30, n_interests=8,
                          noise_rate=0.0, plant_gap=10, plant_exact_item=False)
    ds = generate_dataset(cfg, seed=13)
    in_history = 0
    for s, hit in zip(ds.samples, ds.latent_hits):
        items = np.asarray(s.events.item_id)
        shared = items % cfg.n_interests == interest_of(s.candidate.item_id,
                                                         cfg.n_interests)
        if hit:
            assert cfg.plant_min <= shared.sum() <= cfg.plant_max
            assert not shared[-cfg.plant_gap:].any()
            in_history += s.candidate.item_id in items
        else:
            assert not shared.any()
    assert 0 < in_history < ds.latent_hits.sum()     # the items are not planted


def test_label_balance_guard():
    cfg = GeneratorConfig(n_users=500, vocab=40, L_max=20, L_min=10,
                          n_interests=5, p_hit=0.99, p_miss=0.9)
    with pytest.raises(ConfigError):
        generate_dataset(cfg, seed=1)


# ----------------------------- time buckets -----------------------------


def test_time_bucket_documented_cases():
    assert time_buckets(3601, 32) == 12       # 2**11 <= 3601 < 2**12
    assert time_buckets(0, 32) == 0
    assert time_buckets(1, 32) == 1
    assert time_buckets(2, 32) == 2
    assert time_buckets(2 ** 40, 32) == 31    # clamped to the last bucket
    with pytest.raises(ConfigError):
        time_buckets(-5, 32)
    with pytest.raises(ConfigError):
        time_buckets([3, -1, 7], 32)


def test_time_bucket_boundaries():
    for b in range(1, 12):
        assert time_buckets(2 ** (b - 1), 32) == b
        assert time_buckets(2 ** b - 1, 32) == b
    # Every power-of-two edge of int64, against Python's exact bit length.
    deltas = [0, 2 ** 63 - 1] + [v for b in range(63) for v in (2 ** b - 1, 2 ** b)]
    for n_buckets in (32, 70):
        want = [min(int(d).bit_length(), n_buckets - 1) for d in deltas]
        assert time_buckets(deltas, n_buckets).tolist() == want


def test_time_deltas_refuse_int64_wrap():
    assert time_deltas(10, np.array([3, 10, 12])).tolist() == [7, 0, -2]
    # Past and future events more than 2^63 - 1 seconds away: int64 would
    # wrap each difference to the wrong sign.
    for ref, t in ((2 ** 62, -2 ** 62 - 5), (-2 ** 62, 2 ** 62 + 5)):
        with pytest.raises(ConfigError):
            time_deltas(ref, np.array([t], dtype=np.int64))


# ----------------------------- encoding -----------------------------


def make_sample(n_events, cand_ts=10_000, item=1, uid=0):
    i = np.arange(n_events)
    events = Events((item + i) % 12, i % 3, 1000 + 10 * i)
    return Sample(events, UserFeatures(uid, 1), Candidate(3, cand_ts), 1)


def encode(sample, tables, cfg):
    """(rows, n_real): the sample's real token rows and their count, time
    deltas measured from the candidate."""
    rows, n_real = encode_events([sample.events], [sample.candidate.timestamp],
                                 tables, cfg)
    return rows, int(n_real[0])


def global_rows(sample, tables, cfg):
    """Global rows in rank order [UID, CLS..., target], as the model uses them."""
    return T.concat([nontarget_global_tokens([sample.user_features], tables, cfg),
                     target_global_token([sample.candidate], tables, cfg)], -2)


def test_encode_full_length_no_pads(tiny_cfg):
    tables = EmbeddingTables.create(tiny_cfg, np.random.default_rng(0))
    s = make_sample(tiny_cfg.L)
    rows, n_real = encode(s, tables, tiny_cfg)
    assert n_real == tiny_cfg.L == tiny_cfg.merged_len * tiny_cfg.K
    assert rows.shape == (tiny_cfg.L, tiny_cfg.d)
    assert global_rows(s, tables, tiny_cfg).shape == (tiny_cfg.m, tiny_cfg.D)


def test_encode_empty_sequence(tiny_cfg):
    tables = EmbeddingTables.create(tiny_cfg, np.random.default_rng(0))
    rows, n_real = encode(make_sample(0), tables, tiny_cfg)
    assert n_real == 0 and rows.shape == (0, tiny_cfg.d)


def test_encode_deterministic(tiny_cfg):
    tables = EmbeddingTables.create(tiny_cfg, np.random.default_rng(0))
    s = make_sample(5)
    a = encode(s, tables, tiny_cfg)[0]
    b = encode(s, tables, tiny_cfg)[0]
    np.testing.assert_array_equal(a.data, b.data)
    np.testing.assert_array_equal(global_rows(s, tables, tiny_cfg).data,
                                  global_rows(s, tables, tiny_cfg).data)


def test_encode_truncates_to_visible_window(tiny_cfg):
    tables = EmbeddingTables.create(tiny_cfg, np.random.default_rng(0))
    long_sample = make_sample(tiny_cfg.L + 5)
    short_sample = Sample(long_sample.events[-tiny_cfg.L:],
                          long_sample.user_features, long_sample.candidate, 1)
    a = encode(long_sample, tables, tiny_cfg)[0]
    b = encode(short_sample, tables, tiny_cfg)[0]
    np.testing.assert_array_equal(a.data, b.data)


def test_padding_inertness_across_window_sizes(tiny_cfg):
    # Same events encoded under a larger L: real-token rows are unchanged
    # because positions are recency-indexed, and no pad row is produced.
    big = ModelConfig(**{**tiny_cfg.to_dict(), "L": tiny_cfg.L + 2 * tiny_cfg.K})
    tables = EmbeddingTables.create(big, np.random.default_rng(0))
    s = make_sample(5)
    h_small = encode(s, tables, tiny_cfg)[0].data
    h_big = encode(s, tables, big)[0].data
    assert h_small.shape == h_big.shape == (5, tiny_cfg.d)
    np.testing.assert_array_equal(h_small, h_big)


def test_encode_rejects_unknown_ids(tiny_cfg):
    tables = EmbeddingTables.create(tiny_cfg, np.random.default_rng(0))
    bad = Sample(Events([tiny_cfg.vocab], [0], [10]),
                 UserFeatures(0, 0), Candidate(0, 100), 0)
    with pytest.raises(EmbeddingLookupError):
        encode(bad, tables, tiny_cfg)
    bad_uid = Sample(Events([], [], []), UserFeatures(tiny_cfg.n_users, 0),
                     Candidate(0, 100), 0)
    with pytest.raises(EmbeddingLookupError):
        global_rows(bad_uid, tables, tiny_cfg)
    bad_action = Sample(Events([0], [3], [10]),
                        UserFeatures(0, 0), Candidate(0, 100), 0)
    with pytest.raises(EmbeddingLookupError,
                       match=r"^action id out of range \[0, 3\): 3\.\.3$"):
        encode(bad_action, tables, tiny_cfg)
    with pytest.raises(EmbeddingLookupError, match="profile id out of range"):
        user_side_features([UserFeatures(0, 0), UserFeatures(1, -1)], tables)
    with pytest.raises(EmbeddingLookupError, match="item id out of range"):
        target_global_token([Candidate(0, 100), Candidate(tiny_cfg.vocab, 100)],
                            tables, tiny_cfg)


def test_checkpointed_encoding_matches_recorded_ops(tiny_cfg, monkeypatch):
    """On a tape the featurizer of ``encode_events`` is one
    ``T.checkpoint``: the parameter gradients, through it and the sequence
    MLP, equal those of the same ops recorded one by one, bitwise, finite
    differences pass, and an out-of-range item still raises."""
    rng = np.random.default_rng(40)
    tables = EmbeddingTables.create(tiny_cfg, rng)
    hists = [make_sample(6).events, make_sample(3, item=5).events]
    times = [10_000, 20_000]
    w = rng.normal(size=(9 * tiny_cfg.d, 1)) * 0.3      # the 6 + 3 real rows

    def loss():
        rows = encode_events(hists, times, tables, tiny_cfg)[0]
        return T.bce(T.sigmoid(readout(T.reshape(rows, (1, rows.size)), w)), 1.0)

    def grads():
        for _, t in tables.params():
            t.zero_grad()
        with T.tape():
            loss().backward()
        return [None if t.grad is None else t.grad.tobytes() for _, t in tables.params()]

    checked = grads()
    with monkeypatch.context() as m:
        m.setattr(T, "checkpoint", lambda fn: fn())
        recorded = grads()
    assert checked == recorded
    assert [n for (n, _), g in zip(tables.params(), checked) if g is not None] == [
        "item_table", "action_table", "time_bucket_table", "abs_pos_table",
        "mlp.tok_proj_w", "mlp.tok_proj_b", "mlp.seq_w1", "mlp.seq_b1",
        "mlp.seq_w2", "mlp.seq_b2"]
    fd_check(loss, tables.params(), tol=1e-4, h=1e-5, max_coords=3, seed=41)
    bad = Events([tiny_cfg.vocab], [0], [10])
    with T.tape(), pytest.raises(EmbeddingLookupError, match="item id out of range"):
        encode_events([bad], [100], tables, tiny_cfg)


# ----------------------------- global tokens -----------------------------


def test_global_rows_construction(tiny_cfg):
    rng = np.random.default_rng(1)
    tables = EmbeddingTables.create(tiny_cfg, rng)
    s1 = make_sample(4, uid=2)
    s2 = Sample(s1.events, s1.user_features, Candidate(7, s1.candidate.timestamp), 0)
    g1 = global_rows(s1, tables, tiny_cfg).data
    g2 = global_rows(s2, tables, tiny_cfg).data
    np.testing.assert_array_equal(g1[:-1], g2[:-1])      # UID and CLS rows
    assert np.abs(g1[-1] - g2[-1]).max() > 0             # target row differs
    assert g1.shape == (tiny_cfg.m, tiny_cfg.D)


def test_zeroed_uid_table_gives_mlp_image_of_zero(tiny_cfg):
    tables = EmbeddingTables.create(tiny_cfg, np.random.default_rng(2))
    tables.uid_table.data[:] = 0.0
    s = make_sample(3, uid=1)
    rows = global_rows(s, tables, tiny_cfg).data
    # Recompute the pipeline image of the zero vector with raw numpy.
    mlp = tables.mlp
    lifted = np.zeros(tiny_cfg.d) @ mlp.lift_w.data + mlp.lift_b.data
    h = lifted @ mlp.glob_w1.data + mlp.glob_b1.data
    h = 0.5 * h * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (h + 0.044715 * h ** 3)))
    expected = h @ mlp.glob_w2.data + mlp.glob_b2.data
    np.testing.assert_allclose(rows[0], expected.reshape(-1), atol=1e-12)


def test_nontarget_rows_match_full_assembly(tiny_cfg):
    tables = EmbeddingTables.create(tiny_cfg, np.random.default_rng(3))
    s = make_sample(3, uid=4)
    full = global_rows(s, tables, tiny_cfg).data
    ci = nontarget_global_tokens([s.user_features], tables, tiny_cfg).data
    np.testing.assert_allclose(ci, full[:-1], atol=1e-12)


# ----------------------------- JSONL -----------------------------


def test_jsonl_roundtrip(tmp_path, tiny_gen_cfg):
    ds = generate_dataset(tiny_gen_cfg, seed=8)
    path = tmp_path / "data.jsonl"
    save_dataset(ds, str(path))
    loaded = load_dataset(str(path))
    assert serialize(ds) == serialize(loaded)
    assert [s.events for s in loaded.samples] == [s.events for s in ds.samples]
    assert loaded.samples == ds.samples
    events = ds.samples[0].events
    assert isinstance(events, Events)
    assert events[1:-1] == Events(events.item_id[1:-1], events.action_type[1:-1],
                                  events.timestamp[1:-1])


def test_events_refuse_integer_index_and_iteration():
    """A history is read by its columns: an integer index, iteration and
    unpacking raise TypeError, while a slice is an ``Events`` view."""
    events = Events([4, 5, 6], [0, 1, 2], [10, 20, 30])
    for read in (lambda: events[0], lambda: events[-1], lambda: iter(events),
                 lambda: list(events), lambda: [e for e in events]):
        with pytest.raises(TypeError):
            read()
    tail = events[1:]
    assert isinstance(tail, Events) and len(tail) == 2
    assert tail.timestamp.tolist() == [20, 30]
    assert tail.item_id.base is not None       # a view, not a copy


def test_sample_refuses_a_history_that_is_not_events():
    """A sample's history is an ``Events``: a tuple, a list or a bare column
    raises ConfigError at construction."""
    for history in ((), [], ((1, 0, 5),), [(1, 0, 5), (2, 0, 9)],
                    np.array([1, 2], dtype=np.int64)):
        with pytest.raises(ConfigError, match="must be an Events"):
            Sample(history, UserFeatures(0, 0), Candidate(1, 10), 1)


def test_generated_jsonl_bytes_pinned(tmp_path, tiny_gen_cfg):
    """The generator's bytes at fixed seeds, natural and planted regimes."""
    planted = GeneratorConfig(30, vocab=48, L_max=256, L_min=192, n_interests=8,
                              interests_per_user=3, noise_rate=0.1, plant_gap=64)
    digests = []
    for cfg in (tiny_gen_cfg, planted):
        path = tmp_path / "data.jsonl"
        save_dataset(generate_dataset(cfg, seed=8), str(path))
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests == [
        "c60b07121cd1c8fdfdb53c0ca460918f9b7a7e539fbc98d6a8f998cf51dd50ba",
        "30e0f9dc102819be5e5e2b9805b549541368b1b2c03abc1b2d2bb52d2aa23856"]


def test_stored_history_bytes_per_event():
    cfg = GeneratorConfig(n_users=1, vocab=500, L_max=1024, L_min=1024)
    generate_dataset(cfg, seed=0)            # first-call allocations
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ds = generate_dataset(cfg, seed=1)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(ds.samples[0].events) == 1024
    assert held / 1024 < 40


def test_jsonl_gzip_roundtrip(tmp_path, tiny_gen_cfg):
    ds = generate_dataset(tiny_gen_cfg, seed=8)
    path = tmp_path / "data.jsonl.gz"
    save_dataset(ds, str(path))
    with gzip.open(path, "rt") as fh:
        assert fh.readline().startswith("{")
    loaded = load_dataset(str(path))
    assert serialize(ds) == serialize(loaded)


def test_jsonl_field_names_exact(tmp_path, tiny_gen_cfg):
    ds = generate_dataset(tiny_gen_cfg, seed=8)
    path = tmp_path / "data.jsonl"
    save_dataset(ds, str(path))
    rec = json.loads(path.read_text().splitlines()[0])
    assert set(rec) == {"events", "user_features", "candidate", "label"}
    assert set(rec["user_features"]) == {"uid", "profile_bucket"}
    assert set(rec["candidate"]) == {"item_id", "timestamp"}
    if rec["events"]:
        assert set(rec["events"][0]) == {"item_id", "action_type", "timestamp"}


def test_malformed_jsonl_raises(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"events": []}\n')
    with pytest.raises(ConfigError):
        load_dataset(str(path))


def test_sample_validation():
    good = Sample(Events([1, 2], [0, 0], [5, 9]), UserFeatures(0, 0),
                  Candidate(1, 10), 1)
    good.validate()
    unsorted = Sample(Events([1, 2], [0, 0], [9, 5]), UserFeatures(0, 0),
                      Candidate(1, 10), 1)
    with pytest.raises(ConfigError):
        unsorted.validate()
    future = Sample(Events([1], [0], [50]), UserFeatures(0, 0), Candidate(1, 10), 1)
    with pytest.raises(ConfigError):
        future.validate()


def test_interest_mapping():
    assert interest_of(17, 5) == 2
