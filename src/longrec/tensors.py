"""Dense float64 tensor kernel with hand-written backward passes.

Every numeric operation the model needs lives here: the affine map
``linear``, elementwise ``add`` and ``mul`` (equal shapes), layer
normalization, sigmoid, the linear-GELU-linear ``mlp`` (the transformer FFN
at hidden width 4x), multi-head ``attention`` (with or without a cached
key/value prefix), the structural ops (concat, gather, left pad, reshape,
row mean) and the loss op ``bce``, the mean loss
of a column of probabilities with one label per row, so a batch of
samples' (B, 1) output is one loss. This is deliberately not a general
autodiff engine: the op set is small, fixed, and auditable, and every
backward is validated against central finite differences in the test
suite. The model's parameters are made here too, each from one draw of
the caller's generator: ``weight`` (N(0, 1/fan_in)), ``table`` (N(0, 0.3^2))
and ``filled`` (a zero bias or a unit gain).

Leading axes: ``linear``, ``mlp``, ``layer_norm`` and the elementwise ops
act on the last axis and ``concat`` on the rows axis (the second to last)
or the last, whatever the leading axes before them, so a batch of
B samples' (rows, width) blocks runs as one (B, rows, width) op;
``attention`` takes (..., rows, width) queries over (..., keys, width) keys
and values, and ``gather_rows`` the rows axis. ``left_pad_rows`` and
``mean_rows`` act on 2-D row tables.

Recording is scoped. Inside ``with tape():`` every op with an input that
requires gradients gives its output a gradient node (its ``grad`` and its
backward closure) and appends the node, not the tensor, to the tape, a list
in creation order; ``Tensor.backward()`` walks that list in reverse, which
visits every node after all of its consumers, and drops each node as it
passes. Outside a tape no op records anything (inference pays nothing for
gradients) and ``backward`` raises.

A closure holds its inputs' nodes and only the arrays its own backward
reads: ``add``, ``concat`` and ``reshape`` keep no array,
``gather_rows`` keeps shapes and indices, ``layer_norm`` its normalized
rows, ``linear`` and ``mul`` each operand only when the other needs a
gradient, and ``attention`` its probabilities and values, plus the scaled
queries when the keys need a gradient and the keys when the queries do. So
an output that only such ops consume is freed as soon as the forward moves
past it, and a tape holds what its
backward reads plus what callers still reference. Two ops recompute cheap
activations rather than keep them (Chen et al. 2016, arXiv:1604.06174):
``mlp`` keeps its pre-activation and tanh and rebuilds the GELU output in
backward (with ``keep_hidden=False`` it keeps only its input and recomputes
the hidden layer too), and ``checkpoint(fn)`` records a subgraph built only
from leaves as one node whose backward reruns ``fn`` on a fresh tape. Both
repeat the forward's arithmetic, so gradients are bitwise those of the
unfused ops. A recomputed product counts its MACs again, so during training
the counter reads more than the forward alone; forward-only counts are
unchanged.

Instrumentation: each matrix product of a forward adds its scalar
multiply-accumulate operations (MACs) to ``counter.mul_adds``, the one
record of the count; a ``count_muladds()`` window is a fresh ``OpCounter``
whose ``mul_adds`` is set, as its block exits, to the MACs counted inside.
``linear``'s product and ``mlp``'s two (and its recomputed first) all run
through one helper, ``_product``, which counts ``rows*p*q`` for (rows, p) x
(p, q), every leading axis counting as rows, bias adds uncounted; and
``attention`` counts ``2*rows*w*keys``, the scores and the weighted values,
over every head. One MAC equals two FLOPs under the usual convention, so the
analysis module's per-layer FLOPs formulas are exactly twice the counts
recorded here. Elementwise ops, normalizations, and softmax are not
counted, matching the convention of the analytic cost formulas, and so
are the gradient products of a backward.

Attention visibility is a boolean array (True = the query may see the key);
``attention`` refuses any other dtype.

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

Row reductions over a last axis of at most 8 (the inner merge's layer norms
over d and its softmax over K keys) run as sweeps over their columns, a few
whole-array ufunc calls in place of NumPy's per-row reduction loop; they
keep NumPy's summation order, so every bit is the reduce's (``_row_reduce``,
probed in the tests). The embedding-gradient scatter of ``gather_rows`` runs
on the flattened table, with the bits of the 2-D ``np.add.at``, since both
add into each element in the order of the index array.

``mlp`` runs the elementwise work of a hidden layer larger than
``MLP_TILE_ABOVE`` floats (1 MiB) in row tiles of ``MLP_TILE`` floats, so
the GELU chain's passes stay in L2 instead of streaming the block from
memory each time, and it reuses the pre-activation's buffer for the GELU
output, so one such block is alive, not three. Its products still run once
over the whole block, so every value, gradient and MAC count is that of
the untiled op.

All arithmetic is 64-bit. Tensors are immutable after construction except
for gradient accumulation owned by a single training step; read-only
sharing across threads is safe. The tape is a context variable, so tapes
are per thread. The counter is one unlocked process-wide record: a
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
_F64 = np.dtype(np.float64)           # one shared object, so `is` can test it
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
    """A count of scalar multiply-accumulate operations (MACs) in
    ``mul_adds``; one product of shapes (m, p) x (p, n) adds m*p*n."""

    __slots__ = ("mul_adds",)

    def __init__(self) -> None:
        self.mul_adds = 0


counter = OpCounter()


@contextmanager
def count_muladds():
    """Yields a fresh ``OpCounter`` whose ``mul_adds``, set when the block
    exits, is the MACs counted inside it (0 until then)."""
    window, start = OpCounter(), counter.mul_adds
    try:
        yield window
    finally:
        window.mul_adds = counter.mul_adds - start


_tape = contextvars.ContextVar("longrec_tape", default=None)


@contextmanager
def tape():
    """Record tracked ops inside the block, in this thread only; yields the
    tape, the list of recorded outputs' gradient nodes in creation order.

    A nested ``tape()`` opens a fresh, separate tape for its own block.
    """
    token = _tape.set([])
    try:
        yield _tape.get()
    finally:
        _tape.reset(token)


class _Node:
    """The gradient side of a tensor that requires gradients: its ``grad``
    and, for an op output, the backward closure that passes ``grad`` on to
    its inputs' nodes."""

    __slots__ = ("grad", "bw")

    def __init__(self, bw=None) -> None:
        self.grad = None
        self.bw = bw

    def accumulate(self, g: np.ndarray, owned: bool = False) -> None:
        """Add ``g`` into ``grad``. ``owned`` hands over a buffer no other
        node holds, so a first gradient takes it as is: one the closure just
        made, or the output's own gradient or a disjoint view of it, which
        ``backward`` has released before calling the closure. Any other
        ``g`` (a broadcast, or the second input's share of one array passed
        to two) is copied before it becomes ``grad``."""
        if self.grad is None:
            self.grad = g if owned else g.copy()
        else:
            self.grad += g


class Tensor:
    """A dense float64 array and, when it requires gradients, its node.

    ``data`` is row-major (C order). ``node`` holds the gradient, set on
    first accumulation to the incoming gradient (the buffer itself when no
    other node holds it, else a copy); an op output recorded on a tape has
    the op's backward closure there. ``requires_grad`` and ``grad`` read
    through the node.
    """

    __slots__ = ("data", "node")

    def __init__(self, data, requires_grad: bool = False) -> None:
        self.data = data if type(data) is np.ndarray and data.dtype is _F64 \
            else np.asarray(data, dtype=np.float64)
        self.node = _Node() if requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def requires_grad(self) -> bool:
        return self.node is not None

    @property
    def grad(self):
        return None if self.node is None else self.node.grad

    @grad.setter
    def grad(self, value) -> None:
        self.node.grad = value

    def __repr__(self) -> str:
        req = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{req})"

    def zero_grad(self) -> None:
        if self.node is not None:
            self.node.grad = None

    def backward(self, seed=None) -> None:
        """Reverse-accumulate gradients through the active tape.

        Walks the tape from its last node to its first; every consumer of a
        tensor was recorded after it, so its gradient is complete when the
        walk reaches it. The walk consumes the tape: it drops each node, its
        closure and its gradient as it passes, and leaves the list empty.
        Leaves (tensors no op produced) keep their gradients. Raises
        RuntimeError outside a ``tape()`` block or for a tensor that
        requires no gradient.
        """
        recorded = _tape.get()
        if recorded is None:
            raise RuntimeError("backward() needs an open tape() block")
        if self.node is None:
            raise RuntimeError("backward() of a tensor that requires no gradient")
        if seed is None:
            if self.data.size != 1:
                raise DimensionError("backward() without seed needs a scalar output")
            seed = np.ones_like(self.data)
        else:
            seed = np.asarray(seed, dtype=np.float64)
            if seed.shape != self.shape:
                raise DimensionError(f"seed shape {seed.shape} != output {self.shape}")
        self.node.accumulate(seed)
        while recorded:
            node = recorded.pop()
            g, bw = node.grad, node.bw
            node.grad = node.bw = None
            if g is not None:
                bw(g)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape))


def weight(rng, fan_in: int, fan_out: int) -> Tensor:
    """A trainable (fan_in, fan_out) matrix drawn from N(0, 1/fan_in)."""
    return Tensor(rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=(fan_in, fan_out)),
                  requires_grad=True)


def table(rng, rows: int, width: int) -> Tensor:
    """A trainable (rows, width) embedding table drawn from N(0, 0.3^2)."""
    return Tensor(rng.normal(0.0, 0.3, size=(rows, width)), requires_grad=True)


def filled(n: int, value: float = 0.0) -> Tensor:
    """A trainable length-n vector of ``value``, a zero bias or a unit gain;
    zeros by ``np.zeros``, which costs a quarter of ``np.full`` here."""
    return Tensor(np.full(n, value) if value else np.zeros(n), requires_grad=True)


def named_fields(obj, prefix: str = "") -> list:
    """(name, Tensor) of each field of dataclass ``obj`` in declaration order;
    a field that is not a Tensor is a nested dataclass, whose fields are
    named ``field.name``."""
    out = []
    for name in obj.__dataclass_fields__:
        value = getattr(obj, name)
        if isinstance(value, Tensor):
            out.append((prefix + name, value))
        else:
            out.extend(named_fields(value, f"{prefix}{name}."))
    return out


def _track(*tensors) -> bool:
    return _tape.get() is not None and any(t.node is not None for t in tensors)


def _attach(out: Tensor, bw) -> None:
    out.node = _Node(bw)
    _tape.get().append(out.node)


def checkpoint(fn) -> Tensor:
    """``fn()``, a tensor computed only from leaves (parameters and
    constants), recorded as one node that keeps nothing of ``fn``'s
    intermediates: its backward reruns ``fn`` on a fresh tape and
    backpropagates through that. The rerun repeats the forward's arithmetic,
    so the gradients equal the unchecked ones bitwise, and its MACs count
    again. Outside a tape this is ``fn()``.
    """
    if _tape.get() is None:
        return fn()
    with tape() as inner:
        out = Tensor(fn().data)
    if inner:
        def bw(g):
            with tape():
                fn().backward(g)
        _attach(out, bw)
    return out


# ----------------------------- arithmetic -----------------------------


def _product(x2: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x2 @ w`` for a 2-D x2 (rows, p) and w (p, q), counting its
    rows*p*q MACs: every counted product of ``linear`` and ``mlp``."""
    counter.mul_adds += x2.size * w.shape[1]
    return x2 @ w


def _check_affine(name: str, x_shape: tuple, w: Tensor, b: Tensor) -> None:
    ws, bs = w.data.shape, b.data.shape
    if len(x_shape) < 2 or len(ws) != 2 or x_shape[-1] != ws[0] or bs != ws[1:]:
        raise DimensionError(f"{name} needs x (..., p), w (p, q) and b (q,), "
                             f"got {x_shape}, {ws} and {bs}")


def linear(x, w, b) -> Tensor:
    """``x @ w + b`` over the last axis of x (..., p), for w (p, q) and bias
    b (q,), as one op; every leading axis of x counts as rows. Adds
    rows*p*q MACs to the counter, those of the product on the (rows, p) view.

    An x with more than two axes runs as one product on its (rows, p) view,
    forward and for x's gradient, so its result equals the 2-D call's
    bitwise (NumPy would loop a 3-D @ 2-D product over the leading axis)."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    xd, wd = x.data, w.data
    shape = xd.shape
    _check_affine("linear", shape, w, b)
    q = wd.shape[1]
    x2 = xd if xd.ndim == 2 else xd.reshape(-1, wd.shape[0])
    o = _product(x2, wd)
    o += b.data
    out = Tensor(o if xd.ndim == 2 else o.reshape(shape[:-1] + (q,)))
    if _track(x, w, b):
        xn, wn, bn = x.node, w.node, b.node
        wd = wd if xn is not None else None
        x2 = x2 if wn is not None else None
        def bw(g):
            g2 = g.reshape(-1, q)
            if xn is not None:
                gx = g2 @ wd.T
                xn.accumulate(gx if len(shape) == 2 else gx.reshape(shape), owned=True)
            if wn is not None:
                wn.accumulate(x2.T @ g2, owned=True)
            if bn is not None:
                bn.accumulate(g2.sum(axis=0), owned=True)
        _attach(out, bw)
    return out


def add(a, b) -> Tensor:
    """Elementwise sum of two tensors of one shape."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise DimensionError(f"add needs equal shapes, got {a.shape} and {b.shape}")
    out = Tensor(a.data + b.data)
    if _track(a, b):
        an, bn = a.node, b.node
        def bw(g):
            if an is not None:
                an.accumulate(g, owned=True)
            if bn is not None:
                bn.accumulate(g)
        _attach(out, bw)
    return out


def mul(a, b) -> Tensor:
    """Elementwise product of two tensors of one shape."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise DimensionError(f"mul needs equal shapes, got {a.shape} and {b.shape}")
    out = Tensor(a.data * b.data)
    if _track(a, b):
        an, bn = a.node, b.node
        ad = a.data if bn is not None else None
        bd = b.data if an is not None else None
        def bw(g):
            if an is not None:
                an.accumulate(g * bd, owned=True)
            if bn is not None:
                bn.accumulate(g * ad, owned=True)
        _attach(out, bw)
    return out


# ----------------------------- nonlinearities -----------------------------


def _gelu_tanh(x: np.ndarray, out=None) -> np.ndarray:
    """``tanh(C * (x + A * (x * x * x)))`` in one buffer, ``out`` when given;
    the cube is two products, since ``x ** 3`` goes through the much slower
    generic pow."""
    t = np.multiply(x, x, out=out)
    t *= x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    return np.tanh(t, out=t)


def _gelu_grad(x: np.ndarray, t: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``g`` times GELU's derivative at x, t its tanh, written into ``g``:
    du = C * (1 + 3A * x * x), dx = 0.5 * (1 + t) + 0.5 * x * (1 - t * t) * du,
    with the operation order of that straight line in two buffers besides
    ``g``."""
    dx = t * t
    np.subtract(1.0, dx, out=dx)
    tail = 0.5 * x
    tail *= dx
    du = np.multiply(x, x, out=dx)
    du *= 3.0 * _GELU_A
    du += 1.0
    du *= _GELU_C
    tail *= du
    np.add(t, 1.0, out=dx)
    dx *= 0.5
    dx += tail
    g *= dx
    return g


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    d = x.data
    e = np.exp(-np.abs(d))
    s = np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    out = Tensor(s)
    if _track(x):
        xn = x.node
        def bw(g):
            xn.accumulate(g * s * (1.0 - s), owned=True)
        _attach(out, bw)
    return out


# ----------------------------- row reductions -----------------------------


# ``_row_reduce`` sweeps the columns of rows up to this width (the inner
# merge's d = 8 layer norms and K = 4 softmax rows) and leaves wider rows to
# NumPy's one reduce: at (259, 32) the reduce took 7.7 us and a 32-column
# sweep 42 us (2-vCPU VM, in-process minimum of 9 rounds).
_SWEEP_WIDTH = 8


def _row_reduce(a: np.ndarray, op) -> np.ndarray:
    """``op.reduce(a, axis=-1, keepdims=True)`` for ``op`` ``np.add`` or
    ``np.maximum``, bitwise: ``a.sum`` or ``a.max`` over the last axis.

    A C-contiguous ``a`` of width 1 to ``_SWEEP_WIDTH`` runs as a sweep over
    its columns, one whole-array ufunc call per column, in place of NumPy's
    per-row reduction loop. The sweep keeps NumPy's order: its float
    add-reduce over a contiguous row of n < 8 elements is one running sum,
    and at n = 8 eight accumulators combined as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``; the reduction
    starts from +0.0, so a row of -0.0 sums to +0.0, which the closing
    ``+ 0.0`` reproduces. A maximum is order-free, and ``np.maximum`` keeps
    the reduce's choice between equal zeros of either sign. Any other
    layout reduces in another order, so it keeps the reduce, as do wider
    and empty rows. ``tests/test_tensors.py`` probes this order and names
    it when it fails."""
    n = a.shape[-1]
    if n > _SWEEP_WIDTH or n == 0 or not a.flags.c_contiguous:
        return op.reduce(a, axis=-1, keepdims=True)
    cols = [a[..., j:j + 1] for j in range(n)]
    out = cols[0].copy() if n == 1 else op(cols[0], cols[1])
    if op is np.add and n == 8:
        out += cols[2] + cols[3]
        half = cols[4] + cols[5]
        half += cols[6] + cols[7]
        out += half
    else:
        for c in cols[2:]:
            op(out, c, out=out)
    if op is np.add:
        out += 0.0
    return out


# ----------------------------- normalization -----------------------------


def layer_norm(x, gain, bias) -> Tensor:
    """Per-row zero-mean/unit-variance normalization followed by affine; a
    row is the last axis, and every leading axis counts as rows.

    Zero-variance rows normalize to zeros (then take the bias), so constant
    or padded rows cannot produce NaN. Means, forward and backward, are
    ``sum / n``, the arithmetic of ``np.mean``, so the result and the
    gradients equal the straight-line
    ``(x - mu) * (1 / sqrt(mean((x - mu) ** 2) + 1e-12)) * gain + bias``
    and its backward. At widths up to 8 (the inner merge's d) the four row
    sums are column sweeps in NumPy's own summation order (``_row_reduce``).
    The backward keeps the normalized rows, not x.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    xd = x.data
    if xd.ndim < 2 or gain.shape != xd.shape[-1:] or bias.shape != xd.shape[-1:]:
        raise DimensionError(
            f"layer_norm shapes: x {x.shape}, gain {gain.shape}, bias {bias.shape}")
    n = xd.shape[-1]
    xhat = xd - _row_reduce(xd, np.add) / n
    var = _row_reduce(xhat * xhat, np.add) / n
    inv_sigma = 1.0 / np.sqrt(var + _LN_EPS)
    xhat *= inv_sigma
    y = xhat * gain.data
    y += bias.data
    out = Tensor(y)
    if _track(x, gain, bias):
        xn, gn, bn, gd = x.node, gain.node, bias.node, gain.data
        def bw(g):
            if xn is not None:
                ghat = g * gd
                m1 = _row_reduce(ghat, np.add) / n
                m2 = _row_reduce(ghat * xhat, np.add) / n
                xn.accumulate((ghat - m1 - xhat * m2) * inv_sigma, owned=True)
            g2 = g.reshape(-1, n)
            if gn is not None:
                gn.accumulate((g2 * xhat.reshape(-1, n)).sum(axis=0), owned=True)
            if bn is not None:
                bn.accumulate(g2.sum(axis=0), owned=True)
        _attach(out, bw)
    return out


# ----------------------------- composite layers -----------------------------


MLP_TILE = 16_384
"""Floats per row tile of ``mlp``'s hidden layer (128 KiB): a tile's
pre-activation, tanh and GELU-gradient buffers fit in a 2 MiB per-core L2
together. Medians of 12 interleaved in-process rounds on a 2-vCPU VM with
one BLAS thread, at tiles of 4,096 / 8,192 / 16,384 / 32,768 / 65,536
floats and as one tile: an untracked (6400, 8) -> 64 -> 8 ``mlp`` took
3.97 / 3.86 / 3.44 / 3.67 / 3.72 and 4.53 ms, and a recomputing forward
and backward on 4,096 rows 8.19 / 8.34 / 7.16 / 7.46 / 8.86 and 10.60 ms."""

MLP_TILE_ABOVE = 131_072
"""``mlp`` tiles a (rows, hidden) block only above this many floats (1 MiB);
a smaller block runs as one tile. At the benchmark configs that tiles the
sequence MLP of serve-wide's evaluation chunks (up to 6,400 x 64 floats)
and of serve-long's training tapes (about 2,048 to 4,096 x 64). Every other
MLP there stays one tile: serving, every block FFN, serve-long's evaluation
(at most 2 x 1,024 x 64 = 131,072 floats) and all of train-planted (at most
65,536). Smaller blocks do not gain: with every block tiled, in 16
interleaved in-process rounds (2-vCPU VM, one BLAS thread), an untracked
(rows, 8) -> 64 -> 8 ``mlp`` was 4.6% and 6.8% slower at 32,768 and 65,536
floats (tiled faster in 2 and 0 rounds); at 131,072 floats it read x0.985
forward and x0.894 for a recomputing forward and backward, at 262,144
x0.833 and x0.729."""


def _tiles(step: int, *arrays) -> list:
    """The arrays' row tiles of ``step`` rows, one tuple per tile (None stays
    None): the arrays themselves when one tile holds every row."""
    rows = len(arrays[0])
    if step >= rows:
        return [arrays]
    return [tuple(None if x is None else x[a:a + step] for x in arrays)
            for a in range(0, rows, step)]


def mlp(x, w1, b1, w2, b2, keep_hidden: bool = True) -> Tensor:
    """``linear(gelu(linear(x, w1, b1)), w2, b2)`` as one op, GELU being the
    tanh approximation ``0.5 * h * (1 + tanh(C * (h + A * (h * h * h))))``
    with its exact derivative. Forward and backward keep the operation order
    of the straight-line formulas, so they equal them bitwise, and the two
    products count their MACs as ``linear`` would.

    Its backward keeps x, the pre-activation and its tanh, not the GELU
    output: it rebuilds that with the forward's arithmetic. With
    ``keep_hidden=False`` it keeps only x and recomputes the pre-activation
    and tanh as well, counting the first product's MACs again: the choice
    for a narrow x under a wide hidden layer, where that product is cheap
    next to the two hidden-width buffers it frees. The sequence MLP uses it
    rather than one ``checkpoint`` of the whole event encoder, whose rerun
    adds the second product: with that checkpoint a train epoch was slower
    in 38 of 48 interleaved in-process rounds (x1.046 serve-wide, x1.055
    serve-long, x1.023 train-planted; 2-vCPU VM, one BLAS thread).

    A (rows, hidden) block larger than ``MLP_TILE_ABOVE`` floats runs its
    elementwise work (the bias, the tanh chain, the GELU output and, in
    backward, its gradient) in row tiles of ``MLP_TILE`` floats, so each
    tile's passes stay in cache. Where the hidden layer is not kept (outside
    a tape, with ``keep_hidden=False``, and always in backward) the GELU
    output overwrites the pre-activation, so the forward holds one hidden
    block, not three (pre-activation, tanh and GELU output), and the
    recomputing backward two, not five. Only elementwise work is tiled,
    since an elementwise float64 result does not depend on where its row
    sits, but a row block of a product need not equal those rows of the
    whole product bitwise: a 1-row block goes through GEMV, and OpenBLAS
    picks other kernels for smaller products (rows of (256, 64) @ (64, 12)
    differ from the same rows of (2054, 64) @ (64, 12) by rounding). Both
    products therefore run once over the whole block, and every value,
    gradient and MAC count is the untiled op's at every shape.
    """
    x, w1, b1 = as_tensor(x), as_tensor(w1), as_tensor(b1)
    w2, b2 = as_tensor(w2), as_tensor(b2)
    xd, w1d, b1d = x.data, w1.data, b1.data
    shape = xd.shape
    _check_affine("mlp", shape, w1, b1)
    _check_affine("mlp", shape[:-1] + w1d.shape[1:], w2, b2)
    q = w2.data.shape[1]
    x2 = xd if xd.ndim == 2 else xd.reshape(-1, w1d.shape[0])
    h = _product(x2, w1d)                # each row tile adds the bias
    step = max(1, len(h) if h.size <= MLP_TILE_ABOVE else MLP_TILE // h.shape[1])
    tracked = _track(x, w1, b1, w2, b2)
    keep = tracked and keep_hidden
    t_all, y = (np.empty_like(h), np.empty_like(h)) if keep else (None, h)
    for ha, ta, ya in _tiles(step, h, t_all, y):
        ha += b1d
        t = _gelu_tanh(ha, ta)
        ya = np.multiply(ha, 0.5, out=ya)
        ya *= 1.0 + t if keep else np.add(t, 1.0, out=t)  # kept tanh stays intact
    o = _product(y, w2.data)
    o += b2.data
    out = Tensor(o if xd.ndim == 2 else o.reshape(shape[:-1] + (q,)))
    if tracked:
        xn, w1n, b1n, w2n, b2n = x.node, w1.node, b1.node, w2.node, b2.node
        w2d = w2.data
        hidden = (h, t_all) if keep else None
        def bw(g):
            # The closure runs once, so it may overwrite the kept arrays:
            # each tile's pre-activation becomes its GELU output.
            g2 = g.reshape(-1, q)
            h, t_all = hidden if hidden is not None else (_product(x2, w1d), None)
            gh = g2 @ w2d.T
            for ha, t, ga in _tiles(step, h, t_all, gh):
                if t is None:
                    ha += b1d
                    t = _gelu_tanh(ha)
                _gelu_grad(ha, t, ga)
                t += 1.0
                ha *= 0.5
                ha *= t
            if w2n is not None:
                w2n.accumulate(h.T @ g2, owned=True)
            if b2n is not None:
                b2n.accumulate(g2.sum(axis=0), owned=True)
            if xn is not None:
                gx = gh @ w1d.T
                xn.accumulate(gx if len(shape) == 2 else gx.reshape(shape), owned=True)
            if w1n is not None:
                w1n.accumulate(x2.T @ gh, owned=True)
            if b1n is not None:
                b1n.accumulate(gh.sum(axis=0), owned=True)
        _attach(out, bw)
    return out


def _split(x: np.ndarray, heads: int) -> np.ndarray:
    """(..., rows, w) viewed as (..., heads, rows, w / heads): at one head a
    new axis, else a reshape and a swap of the head and row axes."""
    if heads == 1:
        return x[..., None, :, :]
    return x.reshape(x.shape[:-1] + (heads, x.shape[-1] // heads)).swapaxes(-2, -3)


def _join(x: np.ndarray) -> np.ndarray:
    """(..., heads, rows, dh) viewed as (..., rows, heads * dh) where it can
    be (always at one head, where the head axis is dropped), else copied."""
    if x.shape[-3] == 1:
        return x[..., 0, :, :]
    return x.swapaxes(-2, -3).reshape(x.shape[:-3] + (x.shape[-2], -1))


def _scores(a: np.ndarray, keys: np.ndarray, own=None) -> np.ndarray:
    """``a @ keys^T``; with ``own`` (the prefix case) one more column, each
    row's dot product with its own row of ``own``, both products written
    into one (..., rows, keys + 1) array with their standalone bits."""
    if own is None:
        return a @ keys.swapaxes(-1, -2)
    n = keys.shape[-2]
    out = np.empty(a.shape[:-1] + (n + 1,))
    np.matmul(a, keys.swapaxes(-1, -2), out=out[..., :n])
    np.matmul(a[..., None, :], own[..., None], out=out[..., n:, None])
    return out


def attention(q, k, v, visible, heads: int = 1, prefix=None) -> Tensor:
    """Multi-head scaled dot-product attention as one op. The last axis of
    q (..., rows, w) and of k and v (..., keys, w) splits into ``heads``
    blocks of width dh; each head's row weighs v_h by softmax(q_h k_h^T /
    sqrt(dh)) over the keys that the boolean (..., rows, keys) ``visible``
    marks, and the heads' contexts join along the last axis. Visibility
    selects scores, never adds to them, so a hidden key cannot move a
    visible probability by one bit, and a row that sees nothing returns
    zeros. Any dtype but bool raises: a 0/-inf float mask would be inverted.

    ``prefix``, (p, w) key and value arrays that take no gradient, makes
    each row of a 2-D q its own query over the prefix rows and its own k
    and v row: row i scores [q_i K_p^T | q_i . k_i], and its context is
    P_p V_p + p_i v_i. ``visible`` is then (rows, p + 1), or the one
    (1, p + 1) row that every row shares (the cached targets' visibility),
    which the masked fill broadcasts.

    Counts 2*rows*w*keys MACs (keys = p + 1 with a prefix), those of the
    per-head products. The arithmetic is that of the per-head products and
    softmax composed one by one; over at most 8 keys (the inner merge's K)
    the softmax's row max and sum and the backward's row sum are column
    sweeps with the reduce's bits (``_row_reduce``). Backward keeps the
    probabilities and the values, and the scaled queries and the keys only
    as the input gradients read them.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    vis = np.asarray(visible)
    if vis.dtype != np.bool_:
        raise DimensionError(f"visibility must be a bool array, got {vis.dtype}")
    qd, kd, vd = q.data, k.data, v.data
    shape, cached = qd.shape, prefix is not None
    if cached:
        keys, vals = prefix
        n = keys.shape[0] if keys.ndim == 2 else 0
        ok = len(shape) == 2 and kd.shape == vd.shape == shape \
            and keys.shape == vals.shape == (n, shape[-1])
    else:
        ok = len(shape) >= 2 and kd.shape == vd.shape \
            and kd.shape[:-2] + kd.shape[-1:] == shape[:-2] + shape[-1:]
        n = kd.shape[-2] if ok else 0
    if not ok or heads < 1 or shape[-1] % heads:
        raise DimensionError(
            f"attention needs q (..., rows, w), k and v (..., keys, w) (q's shape "
            f"with a (p, w) prefix) and heads dividing w, got {shape}, {kd.shape}, "
            f"{vd.shape} and heads={heads}")
    want = shape[:-1] + (n + cached,)
    if vis.shape != want and not (cached and vis.shape == (1, n + 1)):
        raise DimensionError(f"visibility shape {vis.shape} != {want}")
    scale = 1.0 / math.sqrt(shape[-1] // heads)
    qs = np.multiply(_split(qd, heads), scale, order="C")
    kh, vh = (np.ascontiguousarray(_split(a, heads)) for a in (kd, vd))
    keys, vals = (_split(keys, heads), _split(vals, heads)) if cached else (kh, vh)
    p = _scores(qs, keys, kh if cached else None)   # then in place the weights
    counter.mul_adds += 2 * qd.size * p.shape[-1]
    np.copyto(p, -np.inf, where=~vis[..., None, :, :])
    rowmax = _row_reduce(p, np.maximum)
    seen = np.isfinite(rowmax).all()    # then every row's sum is at least 1
    if not seen:                                         # fully-masked guard
        rowmax = np.where(np.isfinite(rowmax), rowmax, 0.0)
    p -= rowmax
    np.exp(p, out=p)
    s = _row_reduce(p, np.add)
    np.divide(p, s, out=p, where=True if seen else s > 0)
    ctx = p[..., :n] @ vals
    if cached:
        ctx += p[..., n:] * vh
    out = Tensor(_join(ctx))
    if _track(q, k, v):
        qn, kn, vn = q.node, k.node, v.node
        # the closure keeps only what the input gradients read
        qs = qs if kn is not None else None
        keys, kh = (keys, kh) if qn is not None else (None, None)
        def bw(g):
            gh = _split(g, heads)
            if vn is not None:
                gv = p[..., n:] * gh if cached else p.swapaxes(-1, -2) @ gh
                vn.accumulate(_join(gv), owned=True)
            gp = _scores(gh, vals, vh if cached else None)
            gs = p * (gp - _row_reduce(gp * p, np.add))
            if qn is not None:
                gq = gs[..., :n] @ keys
                if cached:
                    gq += gs[..., n:] * kh
                gq *= scale
                qn.accumulate(_join(gq), owned=True)
            if kn is not None:
                gk = gs[..., n:] * qs if cached else gs.swapaxes(-1, -2) @ qs
                kn.accumulate(_join(gk), owned=True)
        _attach(out, bw)
    return out


# ----------------------------- structural ops -----------------------------


def concat(parts, axis: int) -> Tensor:
    """Join along ``axis``: -2 for the rows axis, -1 for the last. Its
    backward hands each part its slice of the gradient."""
    parts = [as_tensor(p) for p in parts]
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    if _track(*parts):
        spans = [(p.node, p.shape[axis]) for p in parts]
        lead = (slice(None),) * (axis % out.data.ndim)    # the axes before axis
        def bw(g):
            off = 0
            for node, n in spans:
                if node is not None:
                    node.accumulate(g[lead + (slice(off, off + n),)], owned=True)
                off += n
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
    array takes would give. Into a C-contiguous 2-D gradient (the event and
    user lookups) that scatter is one 1-D ``np.add.at`` over the flat
    indices ``id * width + column``, about 3x faster than the 2-D call: it
    adds into each element in the order of the index array, as the 2-D call
    does, so the bits are the same. Any other gradient (a batched gather's,
    or a held one that is not C-contiguous, whose flat view would be a copy)
    keeps the 2-D call. Out-of-range indices raise; negative indices are
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
        xn, shape = x.node, x.shape
        distinct = bool((idx[1:] > idx[:-1]).all())
        def bw(g):
            grad = xn.grad
            if grad is None:
                grad = xn.grad = np.zeros(shape)
            if distinct:
                grad[key] += g
            elif grad.ndim == 2 and grad.flags.c_contiguous:   # a view, never a copy
                w = shape[1]
                flat = (idx[:, None] * w + np.arange(w)).reshape(-1)
                np.add.at(grad.reshape(-1), flat, g.reshape(-1))
            else:
                np.add.at(grad, key, g)
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
        xn, old = x.node, x.shape
        def bw(g):
            xn.accumulate(g.reshape(old), owned=True)
        _attach(out, bw)
    return out


def left_pad_rows(x, counts, widths) -> Tensor:
    """Split x's rows into consecutive blocks of ``counts[b]`` rows and
    left-pad block b with zero rows to ``widths[b]`` rows (one int: the
    width of every block): a (sum of widths, d) grid. Its backward gathers
    the blocks' rows.
    """
    x = as_tensor(x)
    counts = [int(c) for c in counts]
    widths = ([int(widths)] * len(counts) if np.ndim(widths) == 0
              else [int(w) for w in widths])
    if x.data.ndim != 2 or sum(counts) != x.shape[0] or len(widths) != len(counts) \
            or not all(0 <= c <= w for c, w in zip(counts, widths)):
        raise DimensionError(f"left_pad_rows needs x (r, d) with r = sum(counts) and "
                             f"every count in [0, its width], got {x.shape}, "
                             f"{counts} and widths {widths}")
    ends = np.cumsum(widths).tolist()
    grid = np.zeros((sum(widths), x.shape[1]))
    start = 0
    for end, c in zip(ends, counts):
        grid[end - c:end] = x.data[start:start + c]
        start += c
    out = Tensor(grid)
    if _track(x):
        xn = x.node
        def bw(g):
            xn.accumulate(np.concatenate([g[end - c:end]
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
        xn, shape = x.node, x.shape
        def bw(g):
            xn.accumulate(np.broadcast_to(g / n, shape))
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
        pn, shape = p.node, p.shape
        in_range = (raw > _PROB_EPS) & (raw < 1.0 - _PROB_EPS)
        def bw(g):
            if in_range.any():
                d = np.where(in_range, (pc - ys) / (pc * (1.0 - pc)), 0.0)
                pn.accumulate((float(g) / n * d).reshape(shape), owned=True)
        _attach(out, bw)
    return out
