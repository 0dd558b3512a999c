"""Tripwire for the benchmark's output checks at its own workload configs.

``perfbench/bench.py`` fails a run (``correct: false``) when a request's
counted MACs differ from ``muladds_cache_build + C * muladds_incremental``,
an evaluated sample's from ``muladds_full_forward``, or a cached probability
from ``evaluate``'s by more than ``EQUIV_TOL``. This test makes the same
checks at each ``workload()`` config for users whose history lengths span
the workload's range, so a slip in the MAC model or in cached serving at
those configs fails here and not only in a benchmark run. The file is loaded
by path, so the test runs under plain ``pytest`` without ``perfbench`` on
the import path.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from longrec import analysis, serving
from longrec import tensors as T
from longrec.inputs import Candidate, Events, Sample, UserFeatures
from longrec.model import LongRecModel, evaluate


def load_bench():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "bench.py"
    spec = importlib.util.spec_from_file_location("perfbench_bench", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module         # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


BENCH = load_bench()


def history_lengths(gen):
    """The shortest, one more, the middle and the longest history the
    workload's generator draws (a planted one at least its plant depth)."""
    lo = gen.effective_L_min
    if gen.plant_gap is not None:
        lo = min(max(lo, gen.plant_gap + gen.plant_max + 1), gen.L_max)
    return sorted({lo, min(lo + 1, gen.L_max), (lo + gen.L_max) // 2, gen.L_max})


@pytest.mark.parametrize("name", ["serve-wide", "serve-long", "train-planted"])
def test_workload_configs_pass_the_benchmark_output_checks(name):
    w = BENCH.workload(name)
    cfg = w.cfg
    model = LongRecModel(cfg, seed=BENCH.MODEL_SEED)
    rng = np.random.default_rng(5)
    t = 2_000_000_000
    for u, n in enumerate(history_lengths(w.gen)):
        events = Events(rng.integers(cfg.vocab, size=n),
                        rng.integers(cfg.n_actions, size=n),
                        t - 60 * np.arange(n, 0, -1))
        user = UserFeatures(u, u % cfg.n_profiles)
        cands = [Candidate(int(c), t) for c in rng.integers(cfg.vocab, size=w.candidates)]
        with T.count_muladds() as window:
            response = serving.score_request(
                model, {u: Sample(events, user, cands[0], 0)},
                serving.ScoreRequest(u, cands))
        visible = min(n, cfg.L)
        assert window.mul_adds == (analysis.muladds_cache_build(cfg, visible)
                                   + len(cands) * analysis.muladds_incremental(cfg))
        rescored = [Sample(events, user, c, 0) for c in cands[:w.eval_candidates]]
        with T.count_muladds() as window:
            scores, _ = evaluate(model, rescored)
        assert window.mul_adds == len(rescored) * analysis.muladds_full_forward(cfg, visible)
        cached = np.array(response.probabilities[:w.eval_candidates])
        assert np.abs(cached - scores).max() <= BENCH.EQUIV_TOL
