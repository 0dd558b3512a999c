"""Workloads, phases, output checks and metrics of the longrec benchmark.

Every workload runs four phases against the public ``longrec`` API, in one
process and one thread, as a closed loop with one client (each call is
issued when the previous one returns):

  fit    ``model.train``, one epoch over a fixed training set, from a fresh
         ``LongRecModel(cfg, seed)``; every repeat must give the same loss
         and parameters, and the first is saved as a checkpoint.
  setup  ``LongRecModel.load`` of that checkpoint.
  serve  ``serving.score_request`` for one user with C candidates; every
         request is a distinct user.
  eval   ``model.evaluate`` (no-grad full forward) over candidates of a
         served request: the reference for its cached probabilities.

Phases run in small units, interleaved, each getting a fixed share of the
measured time, until ``--seconds`` of it have passed. A traced run instead
follows a fixed plan of units, the same for any speed of the code, so that
its per-layer totals compare like for like. Inputs are a pure function of
the seed.

Between units, at least every ``PROBE_EVERY_S``, the run times
``host_probe``, fixed NumPy kernels that do not use ``longrec``; the
end-to-end timings are the unit times scaled to the probe's nominal time
``PROBE_S`` (see ``host_probe``).
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import time
import traceback
from collections import deque
from itertools import count
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from longrec import analysis, serving
from longrec import model as lr_model
from longrec import tensors as T
from longrec.config import GeneratorConfig, ModelConfig
from longrec.inputs import (Candidate, Dataset, Sample, UserFeatures,
                            generate_dataset)

# The acceptance suite's data, model and shuffle seeds. The fit set does not
# depend on --seed, so train_loss and the parameter digest are the same on
# every run of the same code and any change to them shows.
FIT_DATA_SEED = 123
MODEL_SEED = 7
FIT_OPT = lr_model.OptConfig(seed=1, eval_fraction=0.0)
EQUIV_TOL = 1e-9         # cached vs full-forward probability

END_TO_END = {           # name -> unit; must match BENCHMARK.json
    "setup_s": "s",
    "request_ms_p50": "ms",
    "request_ms_p90": "ms",
    "candidates_per_s": "1/s",
    "eval_samples_per_s": "1/s",
    "train_samples_per_s": "1/s",
    "train_loss": "nats",
    "peak_rss_mb": "MB",
}

PHASES = ("fit", "setup", "serve", "eval")
PROBE_S = (0.003, 0.002)  # nominal (dispatch, bulk) times of host_probe()
PROBE_EVERY_S = 0.05     # seconds between two probes, at least
_PROBE_RNG = np.random.default_rng(0)
_PROBE_SMALL = _PROBE_RNG.standard_normal((4, 8))
_PROBE_BULK = _PROBE_RNG.standard_normal((1024, 8))
_PROBE_W = _PROBE_RNG.standard_normal((8, 8)) * 0.3
SERVE_SHARES = {"serve": 0.70, "fit": 0.15, "eval": 0.12, "setup": 0.03}
TRAIN_SHARES = {"fit": 0.70, "serve": 0.15, "eval": 0.12, "setup": 0.03}


@dataclass(frozen=True)
class Workload:
    name: str
    cfg: ModelConfig
    gen: GeneratorConfig     # users of the fit set and of the request stream
    n_fit: int               # samples in one train() call
    candidates: int          # C per request, the user's own candidates first
    eval_candidates: int     # candidates of a request that one eval unit re-scores
    shares: dict             # phase -> share of the measured time
    unit_s: dict             # phase -> seconds one unit took when the plan was made
    dispatch_weight: dict    # phase -> weight of the dispatch probe (else 0.5)


def workload(name: str, tiny: bool = False) -> Workload:
    """The three benchmark workloads; ``tiny`` shrinks them for the smoke test.

    ``unit_s`` was measured on the 2-vCPU VM of WORKLOADS.md; it only sizes
    the fixed plan of a traced run, so it stays as it is when the code gets
    faster or slower.
    """
    small = dict(L=16, d=4, K=2, k=4, N=1, vocab=24, n_users=64, head_hidden=8,
                 batch_size=4)
    tiny_unit_s = {"fit": 0.02, "setup": 0.002, "serve": 0.005, "eval": 0.005}
    if name == "serve-wide":
        cfg = ModelConfig(**small) if tiny else ModelConfig()
        return Workload(name, cfg, GeneratorConfig(0, cfg.vocab, cfg.L),
                        n_fit=8 if tiny else 64, candidates=6 if tiny else 100,
                        eval_candidates=3 if tiny else 25, shares=SERVE_SHARES,
                        unit_s=tiny_unit_s if tiny else {
                            "fit": 0.375, "setup": 0.0038, "serve": 0.092,
                            "eval": 0.070},
                        # 96% of serving is per-candidate scoring, NumPy calls
                        # on single d=8 rows: it slows as the dispatch probe.
                        dispatch_weight={"serve": 1.0})
    if name == "serve-long":
        cfg = ModelConfig(**{**small, "merge_mode": "inner"}) if tiny else \
            ModelConfig(L=1024, k=32, merge_mode="inner")
        return Workload(name, cfg, GeneratorConfig(0, cfg.vocab, cfg.L),
                        n_fit=8 if tiny else 32, candidates=2, eval_candidates=2,
                        shares=SERVE_SHARES, unit_s=tiny_unit_s if tiny else {
                            "fit": 0.50, "setup": 0.0042, "serve": 0.0124,
                            "eval": 0.0207}, dispatch_weight={})
    if name == "train-planted":
        if tiny:
            cfg = ModelConfig(**{**small, "lr": 1e-3})
            gen = GeneratorConfig(0, vocab=24, L_max=16, L_min=12, n_interests=6,
                                  interests_per_user=2, noise_rate=0.0,
                                  plant_gap=4, plant_min=2, plant_max=4,
                                  p_hit=0.97, p_miss=0.03)
        else:
            # tests/test_acceptance.py::trained_runs at L=256, k=64.
            cfg = ModelConfig(vocab=48, n_users=1000, L=256, k=64, d=8, K=4, N=2,
                              lr=1e-3, batch_size=8)
            gen = GeneratorConfig(0, vocab=48, L_max=256, L_min=192, n_interests=8,
                                  interests_per_user=3, noise_rate=0.0,
                                  plant_gap=16, plant_min=24, plant_max=48,
                                  p_hit=0.97, p_miss=0.03)
        return Workload(name, cfg, gen, n_fit=8 if tiny else 128,
                        candidates=gen.candidates_per_history, eval_candidates=2,
                        shares=TRAIN_SHARES, unit_s=tiny_unit_s if tiny else {
                            "fit": 1.17, "setup": 0.0033, "serve": 0.0080,
                            "eval": 0.0114}, dispatch_weight={})
    raise KeyError(name)


# ----------------------------- inputs -----------------------------


@dataclass
class Inputs:
    fit: list                # training samples, the same for every seed
    seed: int                # of the request stream


def make_inputs(w: Workload, seed: int) -> Inputs:
    per_user = 1 if w.gen.plant_gap is None else w.gen.candidates_per_history
    gen = replace(w.gen, n_users=w.n_fit // per_user)
    return Inputs(fit=generate_dataset(gen, FIT_DATA_SEED).samples, seed=seed)


def requests(w: Workload, inputs: Inputs):
    """Yield (base sample, candidates) per request. Request i is a distinct
    user that the library generator draws from (seed, i): its own candidates
    (one natural, two planted) come first, then random items at the same
    time up to C."""
    one_user = replace(w.gen, n_users=1)
    for i in count():
        seq = np.random.SeedSequence([inputs.seed, i])
        own = generate_dataset(one_user, int(seq.generate_state(1)[0])).samples
        uid = i % w.cfg.n_users
        feats = UserFeatures(uid, own[0].user_features.profile_bucket)
        base = Sample(own[0].events, feats, own[0].candidate, 0)
        ts = base.candidate.timestamp
        extra = np.random.default_rng(seq).integers(
            w.cfg.vocab, size=w.candidates - len(own))
        yield base, [s.candidate for s in own] + [Candidate(item, ts)
                                                  for item in extra.tolist()]


# ----------------------------- one pass -----------------------------


def _probe_ops(x: np.ndarray) -> np.ndarray:
    """Softmax, layer norm and tanh-GELU of ``x @ W``: the model's op mix."""
    q = x @ _PROBE_W
    e = np.exp(q - q.max(-1, keepdims=True))
    e = e / e.sum(-1, keepdims=True)
    m = e.mean(-1, keepdims=True)
    h = (e - m) / np.sqrt(((e - m) ** 2).mean(-1, keepdims=True) + 1e-5)
    return 0.5 * h * (1 + np.tanh(0.79788456 * (h + 0.044715 * h ** 3)))


def host_probe() -> tuple:
    """How long fixed NumPy work takes right now: (dispatch, bulk) seconds.

    A shared host changes speed by up to 1.6x within seconds, and every
    timed metric of a run moves with it, though not by the same factor:
    per-candidate scoring is NumPy calls on tiny arrays and slows as much as
    such calls do; training and long-history cache builds work on larger
    arrays and slow less. The probe times the same ops once as 80 calls on a
    4x8 array (dispatch) and once as 2 calls on a 1024x8 array (bulk). A
    unit is scaled by ``(PROBE_S[0] / dispatch) ** g * (PROBE_S[1] / bulk)
    ** (1 - g)``, with ``g`` its phase's ``dispatch_weight`` (0.5 unless the
    workload says otherwise): the time it would take on a host where the
    probe reads ``PROBE_S``. The kernels are fixed and do not touch
    ``longrec``, so a change to the program moves the scaled times as it
    moves the wall-clock ones.
    """
    t0 = time.perf_counter()
    for _ in range(80):
        _probe_ops(_PROBE_SMALL)
    t1 = time.perf_counter()
    for _ in range(2):
        _probe_ops(_PROBE_BULK)
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1


@dataclass
class Pass:
    order: list = field(default_factory=list)     # phase of each unit run
    # phase -> time of each completed timed call: as measured, and scaled to
    # the nominal host speed by the mean of the probes around the unit
    wall: dict = field(default_factory=lambda: {p: [] for p in PHASES})
    scaled: dict = field(default_factory=lambda: {p: [] for p in PHASES})
    probes: list = field(default_factory=list)    # (dispatch, bulk) seconds
    losses: set = field(default_factory=set)
    digests: set = field(default_factory=set)
    probs: list = field(default_factory=list)     # per answered request
    n_candidates: int = 0
    eval_scores: list = field(default_factory=list)
    wall_s: float = 0.0
    failures: list = field(default_factory=list)
    failed_units: set = field(default_factory=set)

    @property
    def attempted(self) -> int:
        return len(self.order)

    def fail(self, what: str) -> None:
        self.failures.append(what)
        self.failed_units.add(len(self.order) - 1)


def param_digest(model) -> str:
    h = hashlib.sha256()
    for name, t in model.params():
        h.update(name.encode())
        h.update(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    return h.hexdigest()


def schedule(shares: dict, spent: dict, done: dict, pending: int,
             seconds: float) -> Optional[str]:
    """The next phase: each phase once (eval once a request waits for it),
    then the phase furthest below its share, until ``seconds`` are spent."""
    for phase in PHASES:
        if not done[phase] and (phase != "eval" or pending):
            return phase
    if sum(spent.values()) >= seconds:
        return None
    ready = [p for p in shares if p != "eval" or pending]
    return min(ready, key=lambda p: spent[p] / shares[p])


def plan(w: Workload, seconds: float) -> list:
    """The units a run of ``seconds`` schedules when each takes ``w.unit_s``:
    a fixed amount of work, whatever the speed of the code."""
    spent = dict.fromkeys(PHASES, 0.0)
    done = dict.fromkeys(PHASES, 0)
    pending, order = 0, []
    while (phase := schedule(w.shares, spent, done, pending, seconds)) is not None:
        order.append(phase)
        done[phase] += 1
        spent[phase] += w.unit_s[phase]
        pending += {"serve": 1, "eval": -1}.get(phase, 0)
    return order


class Runner:
    """Runs the phases in small units, interleaved so that every phase is
    sampled across the whole run: the host's speed drifts over seconds, and
    a phase measured in one stretch would read that drift as a change."""

    def __init__(self, w: Workload, inputs: Inputs, workdir: Path, tracer=None):
        self.w, self.cfg, self.tracer = w, w.cfg, tracer
        self.fit_set = Dataset(inputs.fit)
        self.stream = requests(w, inputs)
        self.ckpt = workdir / "model.ckpt"
        self.served = None
        self.n_requests = 0
        self.upcoming = None         # the next request, made outside any span
        self.pending = deque()       # answered requests not yet re-scored
        self.out = Pass()

    def span(self, name):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def fit(self) -> float:
        out = self.out
        model = lr_model.LongRecModel(self.cfg, seed=MODEL_SEED)
        t0 = time.perf_counter()
        report = lr_model.train(model, self.fit_set, 1, FIT_OPT)
        dt = time.perf_counter() - t0
        loss = report.final.loss
        if not math.isfinite(loss):
            out.fail(f"fit: non-finite loss {loss}")
        out.losses.add(loss)
        out.digests.add(param_digest(model))
        if len(out.losses) != 1 or len(out.digests) != 1:
            out.fail("fit: a repeated training from the same seed differs")
        if not self.ckpt.exists():
            model.save(str(self.ckpt))
        return dt

    def setup(self) -> float:
        t0 = time.perf_counter()
        model = lr_model.LongRecModel.load(str(self.ckpt))
        dt = time.perf_counter() - t0
        if param_digest(model) not in self.out.digests:
            self.out.fail("setup: loaded parameters differ from the fitted ones")
        if self.served is None:
            self.served = model
        return dt

    def serve(self) -> float:
        out, cfg = self.out, self.cfg
        base, cands = self.upcoming
        i, self.n_requests = self.n_requests, self.n_requests + 1
        uid = base.user_features.uid
        request = serving.ScoreRequest(uid, cands)
        if self.tracer is not None:
            self.tracer.request_id = i
        try:
            with T.count_muladds() as window:
                t0 = time.perf_counter()
                response = serving.score_request(self.served, {uid: base}, request)
                dt = time.perf_counter() - t0
        finally:
            if self.tracer is not None:
                self.tracer.request_id = -1
        p = np.asarray(response.probabilities, dtype=np.float64)
        out.probs.append(p)
        out.n_candidates += len(cands)
        want = (analysis.muladds_cache_build(cfg, min(len(base.events), cfg.L))
                + len(cands) * analysis.muladds_incremental(cfg))
        if window.mul_adds != want:
            out.fail(f"request {i}: counted {window.mul_adds} MACs, analytic {want}")
        if response.user_id != uid or p.shape != (len(cands),):
            out.fail(f"request {i}: response shape or user differs")
        elif not (np.isfinite(p).all() and (p >= 0).all() and (p <= 1).all()):
            out.fail(f"request {i}: probability outside [0, 1]")
        else:
            self.pending.append((base, cands[:self.w.eval_candidates],
                                 p[:self.w.eval_candidates]))
        return dt

    def eval(self) -> Optional[float]:
        out, cfg = self.out, self.cfg
        if not self.pending:         # a planned eval whose request failed
            out.fail("eval: no served request left to re-score")
            return None
        base, cands, cached = self.pending.popleft()
        samples = [Sample(base.events, base.user_features, c, 0) for c in cands]
        with T.count_muladds() as window:
            t0 = time.perf_counter()
            scores, _ = lr_model.evaluate(self.served, samples)
            dt = time.perf_counter() - t0
        out.eval_scores.append(scores)
        want = len(samples) * analysis.muladds_full_forward(
            cfg, min(len(base.events), cfg.L))
        if window.mul_adds != want:
            out.fail(f"eval: counted {window.mul_adds} MACs, analytic {want}")
        if not np.all(np.abs(cached - scores) <= EQUIV_TOL):
            out.fail("eval: cached probabilities differ from the full forward "
                     f"by {np.max(np.abs(cached - scores)):.3g} > {EQUIV_TOL}")
        return dt

    def probe(self, before: Optional[tuple], unscaled: list) -> tuple:
        """Probe the host and scale the ``unscaled`` units by the mean of
        this probe and the one ``before`` them."""
        after = host_probe()
        self.out.probes.append(after)
        if unscaled:
            dispatch = 2 * PROBE_S[0] / (before[0] + after[0])     # host speed
            bulk = 2 * PROBE_S[1] / (before[1] + after[1])
            for phase, dt in unscaled:
                g = self.w.dispatch_weight.get(phase, 0.5)
                self.out.scaled[phase].append(dt * dispatch ** g * bulk ** (1 - g))
            unscaled.clear()
        return after

    def run(self, seconds: float, units: Optional[list] = None) -> Pass:
        """Run units until ``seconds`` of measured time, each phase getting
        its share; with ``units`` run exactly that sequence. A unit that
        raises is a failed operation and the run goes on. A probe runs
        before the first unit and then after a unit once ``PROBE_EVERY_S``
        have passed since the last, outside the spans; it scales the units
        between it and the previous probe."""
        out = self.out
        spent = dict.fromkeys(PHASES, 0.0)
        done = dict.fromkeys(PHASES, 0)
        planned = iter(units) if units is not None else None
        t_pass = time.perf_counter()
        before = self.probe(None, [])
        unscaled = []                # (phase, seconds) since the last probe
        t_probe = time.perf_counter()
        while True:
            phase = (next(planned, None) if planned is not None else
                     schedule(self.w.shares, spent, done, len(self.pending), seconds))
            if phase is None:
                break
            out.order.append(phase)
            done[phase] += 1
            if phase == "serve":     # making inputs is not part of the phase
                self.upcoming = next(self.stream)
            dt = None
            t0 = time.perf_counter()
            with self.span("phase." + phase):
                try:
                    dt = getattr(self, phase)()
                except Exception:
                    out.fail(f"{phase}: {traceback.format_exc(limit=3)}")
            spent[phase] += time.perf_counter() - t0 if dt is None else dt
            if dt is not None:
                out.wall[phase].append(dt)
                unscaled.append((phase, dt))
            if time.perf_counter() - t_probe >= PROBE_EVERY_S:
                before = self.probe(before, unscaled)
                t_probe = time.perf_counter()
        self.probe(before, unscaled)
        out.wall_s = time.perf_counter() - t_pass
        return out


# ----------------------------- metrics -----------------------------


def _rate(n: float, seconds: float) -> float:
    return n / seconds if seconds > 0 else 0.0


def timings(w: Workload, p: Pass, times: dict) -> dict:
    """The timed end-to-end metrics from ``times`` (``p.scaled`` or
    ``p.wall``); 0 stands for a phase whose every unit failed."""
    lat_ms = np.array(times["serve"]) * 1e3 if times["serve"] else np.zeros(1)
    return {
        "setup_s": statistics.median(times["setup"]) if times["setup"] else 0.0,
        "request_ms_p50": float(np.percentile(lat_ms, 50)),
        "request_ms_p90": float(np.percentile(lat_ms, 90)),
        "candidates_per_s": _rate(p.n_candidates, sum(times["serve"])),
        "eval_samples_per_s": _rate(sum(map(len, p.eval_scores)),
                                    sum(times["eval"])),
        "train_samples_per_s": _rate(w.n_fit * len(times["fit"]),
                                     sum(times["fit"])),
    }


def end_to_end(w: Workload, p: Pass) -> dict:
    values = {
        **timings(w, p, p.scaled),
        "train_loss": min(p.losses) if p.losses else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}


# Per-layer metrics: span -> the kinds reported for it. Each value is a
# total over the fixed plan of a traced run, so a faster layer lowers its
# self_ms and leaves its calls and MACs as they are. ``macs`` and
# ``gflops`` are inclusive (the kernel calls inside the layer are child spans
# that hold the MACs), so gflops = 2 * inclusive MACs / inclusive time.
PER_LAYER_SPANS = {
    "serving.build_cache": ("self_ms", "calls"),
    "serving.score_with_cache": ("self_ms", "calls"),
    "attention.cached": ("self_ms", "macs", "gflops"),
    "attention.cross": ("self_ms", "macs", "gflops"),
    "attention.self": ("self_ms", "macs", "gflops"),
    "inputs.target_global_token": ("self_ms",),
    "inputs.encode_events": ("self_ms", "macs", "gflops"),
    "merge": ("self_ms", "macs", "gflops"),
    "model.select_queries": ("self_ms",),
    "model.fingerprint": ("self_ms", "calls"),
    "model.forward_tensor": ("self_ms",),
    "model.adam_step": ("self_ms",),
    "tensors.backward": ("self_ms",),
    "tensors.matmul": ("self_ms", "calls"),
    "tensors.gelu": ("self_ms",),
    "tensors.layer_norm": ("self_ms",),
    "tensors.masked_softmax": ("self_ms",),
}
KIND_UNITS = {"self_ms": "ms", "calls": "count", "macs": "count", "gflops": "GFLOP/s"}


def per_layer(summary: dict, names: list, overhead: float) -> dict:
    idx = {n: i for i, n in enumerate(names)}
    out = {}
    for span_name, kinds in PER_LAYER_SPANS.items():
        i = idx[span_name]
        for kind in kinds:
            if kind == "self_ms":
                value = summary["self_ns"][i] / 1e6
            elif kind == "calls":
                value = int(summary["calls"][i])
            elif kind == "macs":
                value = int(summary["incl_macs"][i])
            else:
                ns = summary["incl_ns"][i]
                value = 2.0 * summary["incl_macs"][i] / ns if ns else 0.0
            out[f"{span_name}.{kind}"] = {"value": value, "unit": KIND_UNITS[kind]}
    builds = summary["calls"][idx["serving.build_cache"]]
    cands = summary["calls"][idx["serving.score_with_cache"]]
    out["tensors.macs"] = {"value": summary["self_macs_total"], "unit": "count"}
    out["serving.candidates_per_cache"] = {
        "value": float(cands / builds) if builds else 0.0, "unit": "count"}
    out["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    out["trace.spans"] = {"value": summary["spans"], "unit": "count"}
    return out
