"""Outside-in span tracer for the benchmark's traced run.

The tracer wraps public functions of the ``longrec`` layer modules from
outside: every module attribute (and class attribute) that holds one of the
wrapped functions is replaced by a wrapper that records a span, and the
originals are put back afterwards. Nothing under ``src/`` is edited. A span
is (name, start ns, end ns, parent span, request id, MACs counted while it
was open). Spans are kept in flat in-memory arrays and written once, when
the run ends.

A layer's self time is its span's duration minus the time its child spans
cover; self MACs likewise. Because the benchmark opens a root span around
every phase, the self MACs of all spans sum exactly to the MACs counted
during the traced pass.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Span name -> targets as "module:attribute" or "module:Class.method". A
# span with several targets (merge) aggregates them under one name.
TARGETS = {
    "serving.score_request": ["longrec.serving:score_request"],
    "serving.build_cache": ["longrec.serving:build_cache"],
    "serving.score_with_cache": ["longrec.serving:score_with_cache"],
    "model.train": ["longrec.model:train"],
    "model.evaluate": ["longrec.model:evaluate"],
    "model.score": ["longrec.model:LongRecModel.score"],
    "model.forward_tensor": ["longrec.model:LongRecModel.forward_tensor"],
    "model.fingerprint": ["longrec.model:LongRecModel.fingerprint"],
    "model.select_queries": ["longrec.model:select_queries"],
    "model.adam_step": ["longrec.model:Adam.step"],
    "merge": ["longrec.merge:merge_concat", "longrec.merge:merge_inner_trans"],
    "inputs.encode_events": ["longrec.inputs:encode_events"],
    "inputs.target_global_token": ["longrec.inputs:target_global_token"],
    "attention.cross": ["longrec.attention:cross_causal_block"],
    "attention.self": ["longrec.attention:self_causal_block"],
    "attention.cached": ["longrec.attention:attention_block_cached"],
    "tensors.backward": ["longrec.tensors:Tensor.backward"],
    "tensors.matmul": ["longrec.tensors:matmul", "longrec.tensors:matmul_t"],
    "tensors.gelu": ["longrec.tensors:gelu"],
    "tensors.layer_norm": ["longrec.tensors:layer_norm"],
    "tensors.masked_softmax": ["longrec.tensors:masked_softmax"],
}

PHASES = ("phase.fit", "phase.setup", "phase.serve", "phase.eval")


class Tracer:
    """Flat span store plus the open-span stack of the single thread."""

    def __init__(self, counter) -> None:
        self.counter = counter
        self.names = list(PHASES) + list(TARGETS)
        self.ids = {n: i for i, n in enumerate(self.names)}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.request = array("q")
        self.macs = array("q")
        self.stack = []
        self.request_id = -1
        self.absent = []
        self._patched = []

    def open(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.request.append(self.request_id)
        self.macs.append(self.counter.mul_adds)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self.macs[i] = self.counter.mul_adds - self.macs[i]
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(self.ids[name])
        try:
            yield
        finally:
            self.close(i)

    # ----------------------------- patching -----------------------------

    def install(self) -> None:
        """Wrap every target that exists; record the rest as absent."""
        for span_name, targets in TARGETS.items():
            found = False
            for target in targets:
                found |= self._wrap_target(self.ids[span_name], target)
            if not found:
                self.absent.append(span_name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap_target(self, name_id: int, target: str) -> bool:
        module_name, _, path = target.partition(":")
        module = sys.modules.get(module_name)
        if module is None:
            return False
        *owner_path, attr = path.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)
            if not callable(original):
                return False
            self._set(owner, attr, self._wrapper(name_id, original))
            return True
        original = getattr(owner, attr, None)
        if not callable(original):
            return False
        wrapper = self._wrapper(name_id, original)
        # ``from .x import f`` copies the reference into other modules, so
        # every longrec module that holds the original gets the wrapper.
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "longrec" or mod_name.startswith("longrec."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        return True

    def _set(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrapper(self, name_id: int, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(i)
        return traced

    # ----------------------------- analysis -----------------------------

    def arrays(self) -> dict:
        return {key: np.frombuffer(getattr(self, key), dtype=np.int64).copy()
                for key in ("name", "start", "end", "parent", "request", "macs")}

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict:
        """Per span name: calls, inclusive/self ns and inclusive/self MACs,
        plus the root phase each span ran under."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        parents = a["parent"][has_parent]
        child_ns = np.bincount(parents, weights=dur[has_parent], minlength=dur.size)
        child_macs = np.bincount(parents, weights=a["macs"][has_parent],
                                 minlength=dur.size)
        self_ns = dur - child_ns
        # MAC counts stay exact in int64; bincount weights go through float64,
        # which is exact below 2**53.
        self_macs = a["macs"] - child_macs.astype(np.int64)
        root = np.where(has_parent, a["parent"], np.arange(dur.size))
        while True:
            nxt = np.where(a["parent"][root] >= 0, a["parent"][root], root)
            if np.array_equal(nxt, root):
                break
            root = nxt

        def by_name(values, mask=None):
            names = a["name"] if mask is None else a["name"][mask]
            vals = values if mask is None else values[mask]
            return np.bincount(names, weights=vals, minlength=n_names)

        out = {
            "calls": by_name(np.ones_like(dur)),
            "incl_ns": by_name(dur),
            "self_ns": by_name(self_ns),
            "incl_macs": by_name(a["macs"]),
            "self_macs": by_name(self_macs),
            "self_macs_total": int(self_macs.sum()),
            "spans": int(dur.size),
            "phase_share": {},
        }
        for phase in PHASES:
            roots = np.flatnonzero(a["name"][root] == self.ids[phase])
            phase_ns = dur[a["name"] == self.ids[phase]].sum()
            if phase_ns <= 0:
                continue
            mask = np.zeros(dur.size, dtype=bool)
            mask[roots] = True
            incl = by_name(dur, mask)
            out["phase_share"][phase] = {
                name: round(float(incl[i] / phase_ns), 4)
                for i, name in enumerate(self.names)
                if name not in PHASES and incl[i] > 0}
        return out

