"""Dense float64 tensor kernel with hand-written backward passes.

Every numeric operation the model needs lives here: one matrix product
(2-D, or batched 3-D, optionally against a transposed right operand), the
affine map ``linear``, elementwise ``add`` (equal shapes) and ``mul``
(broadcasting), masked softmax, layer normalization, GELU, sigmoid, the
transformer FFN, the structural ops (concat, slice, gather, left pad,
reshape, row mean) and the loss ops (``mean_scalars``, and ``bce``, the
mean loss of a column of probabilities with one label per row, so a batch
of samples' (B, 1) output is one loss); attention is composed from these.
This is deliberately not a general autodiff engine: the op set is small,
fixed, and auditable, and every backward is validated against central
finite differences in the test suite.

Leading axes: ``linear``, ``layer_norm``, ``concat_cols``, ``slice_cols`` and
the elementwise ops act on the last axis and ``concat_rows`` on the rows
axis (the second to last), whatever the leading axes before them, so a batch
of B samples' (rows, width) blocks runs as one (B, rows, width) op; softmax
takes the last axis too, and ``gather_rows`` the rows axis. ``matmul``
takes two 2-D or two equal-batch 3-D operands. ``left_pad_rows`` and
``mean_rows`` act on 2-D row tables.

Recording is scoped. Inside ``with tape():`` every op with an input that
requires gradients stores its backward closure on its output and appends
the output to the tape, a list in creation order; ``Tensor.backward()``
walks that list in reverse, which visits every tensor after all of its
consumers. Outside a tape no op records anything (inference pays nothing
for gradients) and ``backward`` raises. Leaving the scope drops the list
and with it every intermediate no caller still holds.

Instrumentation: ``matmul`` adds ``batch*m*p*n`` scalar multiply-accumulate
operations (MACs) to the module-level ``counter``, batch being 1 for 2-D
operands, and ``linear`` counts its product exactly as ``matmul`` would
(``rows*p*q`` for (rows, p) x (p, q), every leading axis counting as rows),
its bias add being uncounted. One MAC equals two FLOPs under the usual
convention, so the analysis module's per-layer FLOPs formulas are exactly
twice the counts recorded here.
Elementwise ops, normalizations, and softmax are not counted, matching the
convention of the analytic cost formulas.

Attention visibility is a boolean array (True = the query may see the key);
``masked_softmax`` refuses any other dtype.

Memory: a training tape or a batched evaluation chunk frees megabytes at
once. Under glibc's default thresholds (128 KiB at start-up for both the
mmap cut-off and the heap trim, raised only as far as the largest mmapped
block freed so far), much of that goes back to the kernel and the next unit
faults it in again, one minor fault per page. Importing this module
therefore sets, once, through ``mallopt``, the mmap threshold to 32 MiB and
the trim threshold to 64 MiB, the ceilings glibc's own dynamic thresholds
climb to on a 64-bit host, so freed blocks stay in the heap for the next
unit to reuse. This changes where memory comes from, never a value; where
the C library has no ``mallopt`` or refuses a setting, nothing changes and
``ALLOCATOR_TUNED`` is False.

All arithmetic is 64-bit. Tensors are immutable after construction except
for gradient accumulation owned by a single training step; read-only
sharing across threads is safe. The tape is a context variable, so tapes
are per thread. The counter is one unlocked process-wide object: a
``count_muladds`` window counts the MACs of every thread that runs while it
is open, and counts are exact only with one thread at a time.
"""

from __future__ import annotations

import contextvars
import ctypes
import math
from contextlib import contextmanager

import numpy as np

from .errors import DimensionError

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
_PROB_EPS = 1e-12
_LN_EPS = 1e-12

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3      # glibc <malloc.h>


def _keep_freed_memory() -> bool:
    """Raise glibc's trim and mmap thresholds; True when both settings took."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):     # no mallopt in this libc
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_set = mallopt(_M_MMAP_THRESHOLD, 32 << 20)    # 1 on success, 0 if refused
    trim_set = mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    return mmap_set == 1 and trim_set == 1


ALLOCATOR_TUNED = _keep_freed_memory()


class OpCounter:
    """Counts scalar multiply-accumulate operations across forward passes.

    Monotonically non-decreasing between resets; one matmul of shapes
    (batch, m, p) x (batch, p, n) contributes batch*m*p*n.
    """

    __slots__ = ("mul_adds",)

    def __init__(self) -> None:
        self.mul_adds = 0

    def add(self, n: int) -> None:
        self.mul_adds += int(n)

    def reset(self) -> None:
        self.mul_adds = 0


counter = OpCounter()


class _CountWindow:
    def __init__(self, start: int) -> None:
        self._start = start
        self._frozen = None

    @property
    def mul_adds(self) -> int:
        if self._frozen is not None:
            return self._frozen
        return counter.mul_adds - self._start

    def _freeze(self) -> None:
        self._frozen = counter.mul_adds - self._start


@contextmanager
def count_muladds():
    """Counts MACs accrued inside the block; the value freezes on exit."""
    window = _CountWindow(counter.mul_adds)
    try:
        yield window
    finally:
        window._freeze()


_tape = contextvars.ContextVar("longrec_tape", default=None)


@contextmanager
def tape():
    """Record tracked ops inside the block, in this thread only; yields the
    tape, the list of recorded outputs in creation order.

    A nested ``tape()`` opens a fresh, separate tape for its own block.
    """
    token = _tape.set([])
    try:
        yield _tape.get()
    finally:
        _tape.reset(token)


class Tensor:
    """A dense float64 array with an optional gradient buffer.

    ``data`` is row-major (C order). ``grad`` is set on first accumulation
    to the incoming gradient: the buffer itself when no other tensor holds
    it, else a copy. An op output recorded on a tape carries the backward
    closure of the op that produced it.
    """

    __slots__ = ("data", "grad", "requires_grad", "_bw")

    def __init__(self, data, requires_grad: bool = False) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._bw = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        req = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{req})"

    def _accumulate(self, g: np.ndarray, owned: bool = False) -> None:
        """Add ``g`` into ``grad``. ``owned`` hands over a buffer no other
        tensor holds, so a first gradient takes it as is: one the closure
        just made, or the output's own gradient or a disjoint view of it,
        which ``backward`` has released before calling the closure. Any
        other ``g`` (a broadcast, or the second input's share of one array
        passed to two) is copied before it becomes ``grad``."""
        if self.grad is None:
            self.grad = g if owned else g.copy()
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, seed=None) -> None:
        """Reverse-accumulate gradients through the active tape.

        Walks the tape from its last op to its first; every consumer of a
        tensor was recorded after it, so its gradient is complete when the
        walk reaches it. The walk consumes the tape: each recorded op's
        closure and gradient are released as it passes, and the list is
        emptied. Leaves (tensors no op produced) keep their gradients.
        Raises RuntimeError outside a ``tape()`` block.
        """
        recorded = _tape.get()
        if recorded is None:
            raise RuntimeError("backward() needs an open tape() block")
        if seed is None:
            if self.data.size != 1:
                raise DimensionError("backward() without seed needs a scalar output")
            seed = np.ones_like(self.data)
        else:
            seed = np.asarray(seed, dtype=np.float64)
            if seed.shape != self.shape:
                raise DimensionError(f"seed shape {seed.shape} != output {self.shape}")
        self._accumulate(seed)
        for node in reversed(recorded):
            g, bw = node.grad, node._bw
            node.grad = node._bw = None
            if g is not None:
                bw(g)
        recorded.clear()


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape))


def _track(*tensors) -> bool:
    return _tape.get() is not None and any(t.requires_grad for t in tensors)


def _attach(out: Tensor, bw) -> None:
    out.requires_grad = True
    out._bw = bw
    _tape.get().append(out)


# ----------------------------- arithmetic -----------------------------


def matmul(a, b, transpose_b: bool = False) -> Tensor:
    """``a @ b``, or ``a @ b^T`` with ``transpose_b``, for two 2-D tensors
    or two 3-D tensors with one shared leading (batch) size; nothing
    broadcasts. Adds batch*m*p*n MACs to the counter."""
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim not in (2, 3) or bd.ndim != ad.ndim or ad.shape[:-2] != bd.shape[:-2]:
        raise DimensionError(f"matmul needs two 2-D or two equal-batch 3-D "
                             f"operands, got {a.shape} and {b.shape}")
    bm = np.swapaxes(bd, -1, -2) if transpose_b else bd
    if ad.shape[-1] != bm.shape[-2]:
        raise DimensionError(f"matmul inner dims differ: {a.shape} x {b.shape}"
                             + ("^T" if transpose_b else ""))
    counter.add(ad.size * bm.shape[-1])
    out = Tensor(ad @ bm)
    if _track(a, b):
        def bw(g):
            if a.requires_grad:
                a._accumulate(g @ np.swapaxes(bm, -1, -2), owned=True)
            if b.requires_grad:
                if transpose_b:
                    b._accumulate(np.swapaxes(g, -1, -2) @ ad, owned=True)
                else:
                    b._accumulate(np.swapaxes(ad, -1, -2) @ g, owned=True)
        _attach(out, bw)
    return out


def linear(x, w, b) -> Tensor:
    """``x @ w + b`` over the last axis of x (..., p), for w (p, q) and bias
    b (q,), as one op; every leading axis of x counts as rows. Adds
    rows*p*q MACs to the counter, as ``matmul`` would on the (rows, p) view.

    An x with more than two axes runs as one product on its (rows, p) view,
    forward and for x's gradient, so its result equals the 2-D call's
    bitwise (NumPy would loop a 3-D @ 2-D product over the leading axis)."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    xd, wd = x.data, w.data
    if xd.ndim < 2 or wd.ndim != 2 or xd.shape[-1] != wd.shape[0] \
            or b.shape != (wd.shape[1],):
        raise DimensionError(f"linear needs x (..., p), w (p, q) and b (q,), "
                             f"got {x.shape}, {w.shape} and {b.shape}")
    counter.add(xd.size * wd.shape[1])
    o = xd @ wd if xd.ndim == 2 else \
        (xd.reshape(-1, wd.shape[0]) @ wd).reshape(xd.shape[:-1] + (wd.shape[1],))
    o += b.data
    out = Tensor(o)
    if _track(x, w, b):
        def bw(g):
            g2 = g.reshape(-1, wd.shape[1])
            if x.requires_grad:
                gx = g2 @ wd.T
                x._accumulate(gx if xd.ndim == 2 else gx.reshape(xd.shape),
                              owned=True)
            if w.requires_grad:
                w._accumulate(xd.reshape(-1, wd.shape[0]).T @ g2, owned=True)
            if b.requires_grad:
                b._accumulate(g2.sum(axis=0), owned=True)
        _attach(out, bw)
    return out


def add(a, b) -> Tensor:
    """Elementwise sum of two tensors of one shape."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise DimensionError(f"add needs equal shapes, got {a.shape} and {b.shape}")
    out = Tensor(a.data + b.data)
    if _track(a, b):
        def bw(g):
            if a.requires_grad:
                a._accumulate(g, owned=True)
            if b.requires_grad:
                b._accumulate(g)
        _attach(out, bw)
    return out


def mul(a, b) -> Tensor:
    """Elementwise product of two tensors of one shape, or of a tensor and a
    constant scalar ``b`` that takes no gradient."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape and (b.shape != () or b.requires_grad):
        raise DimensionError(f"mul needs equal shapes or a constant scalar, "
                             f"got {a.shape} and {b.shape}")
    out = Tensor(a.data * b.data)
    if _track(a, b):
        def bw(g):
            if a.requires_grad:
                a._accumulate(g * b.data, owned=True)
            if b.requires_grad:
                b._accumulate(g * a.data, owned=True)
        _attach(out, bw)
    return out


# ----------------------------- nonlinearities -----------------------------


def gelu(x) -> Tensor:
    """GELU via the tanh approximation (documented, derivative exact for it).

    Computed in place in two buffers, with the arithmetic of the straight
    line ``0.5 * x * (1 + tanh(C * (x + A * (x * x * x))))``; the cube is
    two products, since ``x ** 3`` goes through the much slower generic pow.
    Outside a tape the tanh buffer takes the ``1 +`` in place, as no backward
    reads it, so a large batch holds one buffer fewer.
    """
    x = as_tensor(x)
    xd = x.data
    t = xd * xd
    t *= xd
    t *= _GELU_A
    t += xd
    t *= _GELU_C
    np.tanh(t, out=t)
    y = 0.5 * xd
    if not _track(x):
        t += 1.0
        y *= t
        return Tensor(y)
    y *= 1.0 + t
    out = Tensor(y)
    def bw(g):
        # du = C * (1 + 3A * x * x), dx = 0.5 * (1 + t) + 0.5 * x * (1 - t * t) * du:
        # three buffers, the operation order of that straight line
        du = xd * xd
        du *= 3.0 * _GELU_A
        du += 1.0
        du *= _GELU_C
        dx = t * t
        np.subtract(1.0, dx, out=dx)
        tail = 0.5 * xd
        tail *= dx
        tail *= du
        np.add(t, 1.0, out=dx)
        dx *= 0.5
        dx += tail
        dx *= g
        x._accumulate(dx, owned=True)
    _attach(out, bw)
    return out


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    d = x.data
    s = np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))),
                 np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))
    out = Tensor(s)
    if _track(x):
        def bw(g):
            x._accumulate(g * s * (1.0 - s), owned=True)
        _attach(out, bw)
    return out


# ----------------------------- normalization / softmax -----------------------------


def masked_softmax(logits, visible) -> Tensor:
    """Row-wise softmax over the positions where boolean ``visible`` is True.

    Visibility selects logits rather than being added to them, so hidden
    logits cannot perturb visible probabilities even at the last bit.
    Hidden positions are exactly 0 in the output. Rows with nothing visible
    return all zeros rather than NaN so padded rows stay inert in downstream
    sums. Any dtype but bool raises: a 0/-inf float mask read as booleans
    would be inverted.
    """
    x = as_tensor(logits)
    vis = np.asarray(visible)
    if vis.dtype != np.bool_:
        raise DimensionError(f"visibility must be a bool array, got {vis.dtype}")
    if vis.shape != x.shape:
        raise DimensionError(f"visibility shape {vis.shape} != logits shape {x.shape}")
    z = np.where(vis, x.data, -np.inf)
    rowmax = np.max(z, axis=-1, keepdims=True)
    rowmax = np.where(np.isfinite(rowmax), rowmax, 0.0)  # fully-masked guard
    e = np.exp(np.where(vis, x.data - rowmax, 0.0)) * vis
    s = e.sum(axis=-1, keepdims=True)
    p = np.divide(e, s, out=np.zeros_like(e), where=s > 0)
    out = Tensor(p)
    if _track(x):
        def bw(g):
            dot = (g * p).sum(axis=-1, keepdims=True)
            x._accumulate(p * (g - dot), owned=True)
        _attach(out, bw)
    return out


def layer_norm(x, gain, bias, eps: float = _LN_EPS) -> Tensor:
    """Per-row zero-mean/unit-variance normalization followed by affine; a
    row is the last axis, and every leading axis counts as rows.

    Zero-variance rows normalize to zeros (then take the bias), so constant
    or padded rows cannot produce NaN. Means are ``sum / n``, the arithmetic
    of ``np.mean``, so the result equals the straight-line
    ``(x - mu) * (1 / sqrt(mean((x - mu) ** 2) + eps)) * gain + bias``.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    xd = x.data
    if xd.ndim < 2 or gain.shape != xd.shape[-1:] or bias.shape != xd.shape[-1:]:
        raise DimensionError(
            f"layer_norm shapes: x {x.shape}, gain {gain.shape}, bias {bias.shape}")
    n = xd.shape[-1]
    xhat = xd - xd.sum(axis=-1, keepdims=True) / n
    var = (xhat * xhat).sum(axis=-1, keepdims=True) / n
    inv_sigma = 1.0 / np.sqrt(var + eps)
    xhat *= inv_sigma
    y = xhat * gain.data
    y += bias.data
    out = Tensor(y)
    if _track(x, gain, bias):
        def bw(g):
            if x.requires_grad:
                ghat = g * gain.data
                m1 = ghat.mean(axis=-1, keepdims=True)
                m2 = (ghat * xhat).mean(axis=-1, keepdims=True)
                x._accumulate((ghat - m1 - xhat * m2) * inv_sigma, owned=True)
            g2 = g.reshape(-1, n)
            if gain.requires_grad:
                gain._accumulate((g2 * xhat.reshape(-1, n)).sum(axis=0), owned=True)
            if bias.requires_grad:
                bias._accumulate(g2.sum(axis=0), owned=True)
        _attach(out, bw)
    return out


# ----------------------------- composite layers -----------------------------


def ffn(x, w1, b1, w2, b2) -> Tensor:
    """Transformer feed-forward: GELU MLP with hidden width 4x the model width.

    Two products contribute 8*n*D^2 MACs (16*n*D^2 FLOPs) for input (n, D).
    """
    x = as_tensor(x)
    width = x.shape[-1]
    w1t, w2t = as_tensor(w1), as_tensor(w2)
    if w1t.shape != (width, 4 * width) or w2t.shape != (4 * width, width):
        raise DimensionError(
            f"ffn expects ({width},{4*width}) and ({4*width},{width}) weights, "
            f"got {w1t.shape} and {w2t.shape}")
    return linear(gelu(linear(x, w1t, b1)), w2t, b2)


# ----------------------------- structural ops -----------------------------


def concat_rows(parts) -> Tensor:
    """Join along the rows axis (the second to last)."""
    parts = [as_tensor(p) for p in parts]
    out = Tensor(np.concatenate([p.data for p in parts], axis=-2))
    if _track(*parts):
        sizes = [p.shape[-2] for p in parts]
        def bw(g):
            off = 0
            for p, n in zip(parts, sizes):
                if p.requires_grad:
                    p._accumulate(g[..., off:off + n, :], owned=True)
                off += n
        _attach(out, bw)
    return out


def concat_cols(parts) -> Tensor:
    """Join along the last axis."""
    parts = [as_tensor(p) for p in parts]
    out = Tensor(np.concatenate([p.data for p in parts], axis=-1))
    if _track(*parts):
        widths = [p.shape[-1] for p in parts]
        def bw(g):
            off = 0
            for p, w in zip(parts, widths):
                if p.requires_grad:
                    p._accumulate(g[..., off:off + w], owned=True)
                off += w
        _attach(out, bw)
    return out


def slice_cols(x, start: int, stop: int) -> Tensor:
    """Columns ``start:stop`` of the last axis."""
    x = as_tensor(x)
    out = Tensor(x.data[..., start:stop].copy())
    if _track(x):
        def bw(g):
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            x.grad[..., start:stop] += g
        _attach(out, bw)
    return out


def gather_rows(x, idx) -> Tensor:
    """Select rows by integer index along the rows axis (the second to
    last): an embedding lookup or query selection on a 2-D table, or the
    same rows of every sample of a (B, rows, width) stack.

    Duplicate indices accumulate gradient additively. Strictly increasing
    indices (query selection, the last block's rows, the head's reads) are
    distinct, so their backward adds into the gradient with one indexed
    ``+=``, bitwise what the ``np.add.at`` scatter that any other index
    array takes would give. Out-of-range indices raise; negative indices are
    rejected rather than wrapped.
    """
    x = as_tensor(x)
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1 or x.data.ndim < 2:
        raise DimensionError("gather_rows takes a 1-D index array and rows of "
                             "at least two axes")
    n = x.shape[-2]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"row index out of range for table with {n} rows")
    key = (slice(None),) * (x.data.ndim - 2) + (idx,)
    out = Tensor(x.data[key])
    if _track(x):
        distinct = bool((idx[1:] > idx[:-1]).all())
        def bw(g):
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            if distinct:
                x.grad[key] += g
            else:
                np.add.at(x.grad, key, g)
        _attach(out, bw)
    return out


def reshape(x, shape) -> Tensor:
    """``x`` viewed in ``shape``; ``x`` itself when the shape is unchanged."""
    x = as_tensor(x)
    data = x.data.reshape(shape)
    if data.shape == x.shape:
        return x
    out = Tensor(data)
    if _track(x):
        def bw(g):
            x._accumulate(g.reshape(x.shape), owned=True)
        _attach(out, bw)
    return out


def left_pad_rows(x, counts, width: int) -> Tensor:
    """Split x's rows into consecutive blocks of ``counts[b]`` rows and
    left-pad each block with zero rows to ``width`` rows: a
    (len(counts) * width, d) grid. Its backward gathers the blocks' rows.
    """
    x = as_tensor(x)
    counts = [int(c) for c in counts]
    if x.data.ndim != 2 or sum(counts) != x.shape[0] \
            or not all(0 <= c <= width for c in counts):
        raise DimensionError(f"left_pad_rows needs x (r, d) with r = sum(counts) and "
                             f"every count in [0, {width}], got {x.shape} and {counts}")
    ends = [width * (b + 1) for b in range(len(counts))]
    grid = np.zeros((len(counts) * width, x.shape[1]))
    start = 0
    for end, c in zip(ends, counts):
        grid[end - c:end] = x.data[start:start + c]
        start += c
    out = Tensor(grid)
    if _track(x):
        def bw(g):
            x._accumulate(np.concatenate([g[end - c:end]
                                          for end, c in zip(ends, counts)]),
                          owned=True)
        _attach(out, bw)
    return out


def mean_rows(x) -> Tensor:
    """Column means as a (1, d) tensor; zero rows in -> zeros out."""
    x = as_tensor(x)
    n = x.shape[0]
    out = Tensor(x.data.mean(axis=0, keepdims=True) if n else np.zeros((1, x.shape[1])))
    if n and _track(x):
        def bw(g):
            x._accumulate(np.broadcast_to(g / n, x.shape))
        _attach(out, bw)
    return out


def mean_scalars(parts) -> Tensor:
    """Mean of scalar tensors (batch loss reduction)."""
    parts = [as_tensor(p) for p in parts]
    n = len(parts)
    out = Tensor(np.asarray(sum(float(p.data.reshape(-1)[0]) for p in parts) / n))
    if _track(*parts):
        def bw(g):
            share = float(g) / n
            for p in parts:
                if p.requires_grad:
                    p._accumulate(np.full(p.shape, share), owned=True)
        _attach(out, bw)
    return out


def bce(p, y) -> Tensor:
    """Mean binary cross-entropy of a column of probabilities, one 0/1 label
    per row (``y`` a sequence, or one float for a single probability).

    Each probability is clamped to [1e-12, 1 - 1e-12] before the logs; the
    clamp's gradient is zero outside the open interval. A row's loss and
    gradient are those of the row alone, divided by the number of rows, so
    a single probability's loss is its own.
    """
    p = as_tensor(p)
    ys = np.atleast_1d(np.asarray(y, dtype=np.float64))
    n = ys.size
    if ys.ndim != 1 or n == 0 or p.data.size != n:
        raise DimensionError(f"bce expects one probability per label, got "
                             f"{p.shape} for {n} labels")
    raw = p.data.reshape(-1)
    pc = np.clip(raw, _PROB_EPS, 1.0 - _PROB_EPS)
    rows = [-(yi * math.log(pi) + (1.0 - yi) * math.log(1.0 - pi))
            for yi, pi in zip(ys.tolist(), pc.tolist())]
    out = Tensor(np.asarray(sum(rows) / n))
    if _track(p):
        in_range = (raw > _PROB_EPS) & (raw < 1.0 - _PROB_EPS)
        def bw(g):
            if in_range.any():
                d = np.where(in_range, (pc - ys) / (pc * (1.0 - pc)), 0.0)
                p._accumulate((float(g) / n * d).reshape(p.shape), owned=True)
        _attach(out, bw)
    return out
