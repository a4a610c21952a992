"""Dense numpy-backed tensors with reverse-mode differentiation on a recorded tape.

Every operator computes its result eagerly with numpy and, while a ``Tape`` is
active, records a closure mapping the output gradient back to input gradients.
Only the operators defined here are differentiable. The compute path runs in
single precision; oracle and gradient checks run the same operators in double.
The two row gathers take a cached pair of permutation stacks and are each
other's adjoint, so no backward scatter-adds.

Every operator allocates its results anew, so a scene frees and re-allocates
the same working set. ``_keep_freed_arrays`` (applied once by ``build_model``)
sets glibc's malloc to keep those freed arrays in the heap for the next scene
instead of returning them to the kernel; elsewhere it does nothing.
"""

from __future__ import annotations

import ctypes
import weakref
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ConfigurationError, ContractViolation

Array = np.ndarray

_FLOAT_DTYPES = (np.float32, np.float64)
SOFTPLUS_BLOCK = 1 << 16  # elements of max(x, 0) that softplus holds at once
LAYER_NORM_EPS = 1e-5  # added to the per-site variance
GRAD_CHECK_TOL = 1e-4  # largest relative error a grad_check passes

# glibc mallopt parameters, in the order they are set. Any explicit mallopt freezes glibc's dynamic
# mmap threshold, so the trim threshold alone would leave every array of 128 KiB or more to be
# mmapped and unmapped per use: it is set only once the mmap threshold has been accepted.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_POLICY = (
    (_M_MMAP_THRESHOLD, 32 << 20),  # glibc's 64-bit maximum: arrays below it come from the heap
    (_M_TRIM_THRESHOLD, 1 << 30),  # free heap top kept before it is handed back to the kernel
)
_heap_policy_kept: bool | None = None  # the first _keep_freed_arrays call's outcome; malloc's policy is per process too


def _keep_freed_arrays() -> bool:
    """Keep freed arrays in glibc's heap for reuse; True if every setting was accepted.

    By default glibc unmaps large freed arrays and trims the heap top, so each
    scene faults its working set in again as zeroed pages (about 10,000 per
    128x128 scene). With the policy the process keeps the heap's high-water
    mark and reuses it. Only placement changes, never values. The first call
    sets the policy; later calls return its outcome without touching the
    allocator. Where libc has no ``mallopt`` (macOS, Windows) it does nothing,
    and after a refused setting the rest are not tried.
    """
    global _heap_policy_kept
    if _heap_policy_kept is None:
        _heap_policy_kept = _set_heap_policy()
    return _heap_policy_kept


def _set_heap_policy() -> bool:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no such symbol, or no process handle (Windows)
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return all(mallopt(param, value) == 1 for param, value in _HEAP_POLICY)  # stops at the first refusal


def _stable_sigmoid(x: Array) -> Array:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, from one exp(-|x|)."""
    e = np.exp(np.minimum(x, -x))  # -|x|, keeping a NaN's sign
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


class Tensor:
    """Immutable-by-convention dense array value participating in the tape.

    Hashes by identity (no ``__eq__``), so the tape keys cotangents by the
    tensor object itself.
    """

    __slots__ = ("data", "__weakref__")

    def __init__(self, data):
        arr = np.asarray(data)
        if arr.dtype.kind not in "biuf":  # None, strings, bytes and objects would turn into floats silently
            raise ContractViolation(f"Tensor needs real numbers, got {arr.dtype} data")
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractViolation(f"item() needs a one-element tensor, got shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"


class Param:
    """A learnable value, named by its path in a parameter tree (``named_params``); its gradient: ``tape.grad(param)``."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value if isinstance(value, Tensor) else Tensor(value)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Param(shape={self.value.shape}, dtype={self.value.dtype})"


def conv_param(
    rng: np.random.Generator, out_ch: int, in_ch: int, k: int, gain: float = 1.0, bias_fill: float = 0.0
) -> tuple[Param, Param]:
    """A (out_ch, in_ch, k, k) conv weight drawn N(0, gain / fan_in) and a constant bias, in float64.

    gain 2 for convs feeding a relu/silu, 1 for linear maps; in_ch is 1 for a
    depthwise conv.
    """
    scale = np.sqrt(gain / (in_ch * k * k))
    return Param(rng.normal(0.0, scale, size=(out_ch, in_ch, k, k))), Param(np.full(out_ch, float(bias_fill)))


def named_params(tree) -> Iterator[tuple[str, Param]]:
    """Every Param in a tree of parameter dataclasses, tuples and dicts, with its path: the dataclass field names,
    tuple indices and dict keys from the root down, joined by "." (``backbone.down_convs.0.1``). Dataclass fields
    come in declaration order, tuple items in order and dict values in insertion order. The paths are the
    weights-file names; the order is the weights-file, trainer-update and gradient-check input order."""
    return _walk(tree, "")


def _walk(node, path: str) -> Iterator[tuple[str, Param]]:
    if isinstance(node, Param):
        yield path, node
        return
    if is_dataclass(node):
        children = ((f.name, getattr(node, f.name)) for f in fields(node))
    elif isinstance(node, (tuple, dict)):
        children = node.items() if isinstance(node, dict) else enumerate(node)
    else:
        raise ContractViolation(
            f"parameter tree holds a {type(node).__name__}; expected a Param, dataclass, tuple or dict"
        )
    for key, child in children:
        yield from _walk(child, f"{path}.{key}" if path else str(key))


def collect_params(tree) -> list[Param]:
    """Every Param in a parameter tree, in ``named_params`` order, without the paths."""
    return [p for _, p in named_params(tree)]


def cast_params(tree, dtype) -> None:
    """Cast every Param of a parameter tree to ``dtype`` in place; the init functions draw in float64."""
    for p in collect_params(tree):
        p.value.data = p.value.data.astype(dtype, copy=False)


_TAPE_STACK: list["Tape"] = []


class Tape:
    """Recorded-operation tape; one reverse walk yields the gradients of its leaves.

    Usage::

        with Tape() as tape:
            loss = ...            # compose ops
        tape.backward(loss)
        g = tape.grad(some_param_or_input)

    ``backward`` runs once per tape. It pops each record before running its
    closure and drops each cotangent once used, so saved arrays are freed as
    the walk goes. Afterwards the tape holds no records, only the gradients
    of leaves: parameters, and inputs that no record produced. A leaf the
    walk never reached reads as zeros; a tensor a record produced raises.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self._grads: dict[Tensor, Array] | None = None
        self._produced: weakref.WeakSet = weakref.WeakSet()

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self

    def record(self, out: Tensor, parents: Sequence[Tensor], backward: Callable) -> None:
        self._records.append((out, tuple(parents), backward))

    def backward(self, root: Tensor) -> None:
        if self._grads is not None:
            raise ContractViolation("backward already ran on this tape, which freed its records")
        if root.size != 1:
            raise ContractViolation(
                f"backward root must be scalar (sum-reduce first), got shape {root.shape}"
            )
        self._grads = grads = {root: np.ones_like(root.data)}
        while self._records:
            out, parents, bwd = self._records.pop()
            self._produced.add(out)
            g = grads.pop(out, None)
            if g is None:
                continue
            for parent, pg in zip(parents, bwd(g)):
                if pg is None:
                    continue
                acc = grads.get(parent)
                grads[parent] = pg if acc is None else acc + pg

    def grad(self, obj: "Tensor | Param") -> Array:
        if self._grads is None:
            raise RuntimeError("call backward() before querying gradients")
        t = obj.value if isinstance(obj, Param) else obj
        g = self._grads.get(t)
        if g is not None:
            return g
        if t in self._produced:
            raise ContractViolation(
                f"no gradient kept for {t!r}: a record produced it, and backward keeps only leaf gradients"
            )
        return np.zeros_like(t.data)


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _record(out: Tensor, parents: Sequence[Tensor], backward: Callable) -> None:
    tape = _active_tape()
    if tape is not None:
        tape.record(out, parents, backward)


def as_tensor(x) -> Tensor:
    if isinstance(x, Param):
        return x.value
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def value(x) -> Array:
    return as_tensor(x).data


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum a broadcast gradient back down to the original shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    ta, tb = as_tensor(a), as_tensor(b)
    out = Tensor(ta.data + tb.data)
    sa, sb = ta.data.shape, tb.data.shape
    _record(out, (ta, tb), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))
    return out


def sub(a, b) -> Tensor:
    ta, tb = as_tensor(a), as_tensor(b)
    out = Tensor(ta.data - tb.data)
    sa, sb = ta.data.shape, tb.data.shape
    _record(out, (ta, tb), lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))
    return out


def mul(a, b) -> Tensor:
    ta, tb = as_tensor(a), as_tensor(b)
    out = Tensor(ta.data * tb.data)
    da, db = ta.data, tb.data
    _record(
        out,
        (ta, tb),
        lambda g: (_unbroadcast(g * db, da.shape), _unbroadcast(g * da, db.shape)),
    )
    return out


def neg(a) -> Tensor:
    ta = as_tensor(a)
    out = Tensor(-ta.data)
    _record(out, (ta,), lambda g: (-g,))
    return out


def texp(a) -> Tensor:
    ta = as_tensor(a)
    e = np.exp(ta.data)
    out = Tensor(e)
    _record(out, (ta,), lambda g: (g * e,))
    return out


def tlog(a) -> Tensor:
    ta = as_tensor(a)
    d = ta.data
    out = Tensor(np.log(d))
    _record(out, (ta,), lambda g: (g / d,))
    return out


def tabs(a) -> Tensor:
    ta = as_tensor(a)
    d = ta.data
    out = Tensor(np.abs(d))
    _record(out, (ta,), lambda g: (g * np.sign(d),))
    return out


def clamp(a, lo: float, hi: float) -> Tensor:
    ta = as_tensor(a)
    d = ta.data
    out = Tensor(np.clip(d, lo, hi))
    _record(out, (ta,), lambda g: (g * ((d > lo) & (d < hi)).astype(d.dtype),))
    return out


def sigmoid(a) -> Tensor:
    ta = as_tensor(a)
    s = _stable_sigmoid(ta.data)
    out = Tensor(s)
    _record(out, (ta,), lambda g: (g * s * (1.0 - s),))
    return out


def silu(a) -> Tensor:
    ta = as_tensor(a)
    d = ta.data
    s = _stable_sigmoid(d)
    out = Tensor(d * s)
    _record(out, (ta,), lambda g: (g * (s + d * s * (1.0 - s)),))
    return out


def relu(a) -> Tensor:
    ta = as_tensor(a)
    d = ta.data
    out = Tensor(np.maximum(d, 0.0))
    _record(out, (ta,), lambda g: (g * (d > 0.0).astype(d.dtype),))
    return out


def softplus(a) -> Tensor:
    ta = as_tensor(a)
    d = ta.data
    # logaddexp(0, x)'s formula, log1p(exp(-|x|)) + max(x, 0), built in the output buffer with max(x, 0) added a
    # block at a time, so no other temporary the size of x is alive; logaddexp itself runs a scalar loop
    sp = np.abs(d, order="C")
    np.negative(sp, out=sp)
    np.exp(sp, out=sp)
    np.log1p(sp, out=sp)
    flat, d_flat = sp.reshape(-1), d.reshape(-1)  # a view of sp, which is C-contiguous
    for i in range(0, flat.size, SOFTPLUS_BLOCK):
        flat[i : i + SOFTPLUS_BLOCK] += np.maximum(d_flat[i : i + SOFTPLUS_BLOCK], 0.0)
    out = Tensor(sp)
    _record(out, (ta,), lambda g: (g * _stable_sigmoid(d),))
    return out


# ---------------------------------------------------------------------------
# linear algebra / reductions / reshaping
# ---------------------------------------------------------------------------


def matmul(a, b) -> Tensor:
    """(N, D) @ (D, M), or a stack of them: (K, N, D) @ (K, D, M), one matrix product per leading index."""
    ta, tb = as_tensor(a), as_tensor(b)
    da, db = ta.data, tb.data
    if da.ndim != db.ndim or da.ndim not in (2, 3) or da.shape[:-2] != db.shape[:-2] or da.shape[-1] != db.shape[-2]:
        raise ContractViolation(f"matmul expects (N, D) @ (D, M) or (K, N, D) @ (K, D, M), got {da.shape} @ {db.shape}")
    out = Tensor(da @ db)
    _record(out, (ta, tb), lambda g: (g @ np.swapaxes(db, -1, -2), np.swapaxes(da, -1, -2) @ g))
    return out


def reduce_sum(a) -> Tensor:
    ta = as_tensor(a)
    d = ta.data
    out = Tensor(d.sum())
    _record(out, (ta,), lambda g: (np.broadcast_to(g, d.shape).astype(d.dtype, copy=False),))
    return out


def reshape(a, shape) -> Tensor:
    ta = as_tensor(a)
    d = ta.data
    out = Tensor(d.reshape(shape))
    orig = d.shape
    _record(out, (ta,), lambda g: (g.reshape(orig),))
    return out


def concat(parts: Sequence) -> Tensor:
    """Join tensors along the channel axis (axis 0)."""
    ts = [as_tensor(p) for p in parts]
    datas = [t.data for t in ts]
    out = Tensor(np.concatenate(datas))
    splits = np.cumsum([d.shape[0] for d in datas])[:-1]
    _record(out, tuple(ts), lambda g: tuple(np.split(g, splits)))
    return out


def split(a, sizes: Sequence[int]) -> tuple[Tensor, ...]:
    """Cut a tensor into consecutive pieces of ``sizes`` channels along axis 0."""
    ta = as_tensor(a)
    d = ta.data
    if sum(sizes) != d.shape[0]:
        raise ContractViolation(f"split sizes {list(sizes)} do not sum to axis extent {d.shape[0]}")
    outs = []
    start = 0
    for size in sizes:
        sl = slice(start, start + size)
        piece = Tensor(d[sl].copy())

        def bwd(g, sl=sl):
            full = np.zeros_like(d)
            full[sl] = g
            return (full,)

        _record(piece, (ta,), bwd)
        outs.append(piece)
        start += size
    return tuple(outs)


def _index_pair(op: str, perms, shape: tuple[int, ...]) -> tuple[Array, Array]:
    """``perms``, a (perm, inv) pair, as intp arrays; a ContractViolation unless both are nonnegative and of ``shape``."""
    perm, inv = (np.asarray(p, dtype=np.intp) for p in perms)
    if perm.shape != shape or inv.shape != shape or perm.min(initial=0) < 0 or inv.min(initial=0) < 0:
        raise ContractViolation(f"{op} takes a pair of nonnegative {shape} index stacks, got {perm.shape} and {inv.shape}")
    return perm, inv


def _sum_gathered(stack: Array, idx: Array, dtype) -> Array:
    """Sum over k of ``stack[k][idx[k]]``, added in k order into a ``dtype`` array."""
    out = np.take(stack[0], idx[0], axis=0).astype(dtype, copy=False)
    for rows, seq in zip(idx[1:], stack[1:]):
        out += np.take(seq, rows, axis=0)
    return out


def gather_rows(a, perms: tuple[Array, Array]) -> Tensor:
    """The (K, N, C) stack of an (N, C) tensor's rows in K orders: row p of sequence k is ``a[perm[k, p]]``.

    ``perms`` is a (perm, inv) pair of (K, N) stacks, inv the row-wise inverse
    of perm (trusted, as ``cross_scan`` caches them). The backward is
    ``gather_sum_rows``' forward over the same pair.
    """
    ta = as_tensor(a)
    d = ta.data
    perm, inv = _index_pair("gather_rows", perms, (len(perms[0]), len(d)))
    out = Tensor(np.take(d, perm, axis=0))
    _record(out, (ta,), lambda g: (_sum_gathered(g, inv, d.dtype),))
    return out


def gather_sum_rows(y, perms: tuple[Array, Array]) -> Tensor:
    """Sum over k of ``y[k][inv[k]]`` for a (K, N, C) stack, added in k order: ``gather_rows``' adjoint over the same
    (perm, inv) pair, so its backward is ``gather_rows``' forward."""
    ty = as_tensor(y)
    d = ty.data
    perm, inv = _index_pair("gather_sum_rows", perms, d.shape[:2])
    out = Tensor(_sum_gathered(d, inv, d.dtype))
    _record(out, (ty,), lambda g: (np.take(g.astype(d.dtype, copy=False), perm, axis=0),))
    return out


def scatter_rows(a, idx: Array, n_rows: int) -> Tensor:
    """Place rows of a 2-D tensor at unique nonnegative row indices of a zero output."""
    ta = as_tensor(a)
    d = ta.data
    idx = np.asarray(idx, dtype=np.intp)
    if (idx < 0).any() or np.bincount(idx, minlength=1).max() > 1:
        raise ContractViolation("scatter_rows requires unique nonnegative destination indices")
    out_data = np.zeros((n_rows,) + d.shape[1:], dtype=d.dtype)
    out_data[idx] = d
    out = Tensor(out_data)
    _record(out, (ta,), lambda g: (g[idx],))
    return out


def _segment_reduce(ufunc, d: Array, starts: Array) -> Array:
    """``ufunc.reduceat(d, starts, axis=0)`` for nonempty segments, one vectorized pass per within-segment rank.

    Segments are visited longest first, so the ones still open at rank r
    are a prefix; each row is combined in row order, as reduceat does.
    """
    counts = np.diff(starts, append=d.shape[0])
    order = np.argsort(-counts, kind="stable")
    first, counts = starts[order], counts[order]
    acc = d[first]
    for r in range(1, counts[0]):
        k = np.count_nonzero(counts > r)
        ufunc(acc[:k], d[first[:k] + r], out=acc[:k])
    out = np.empty_like(acc)
    out[order] = acc
    return out


def segment_max(a, starts: Array) -> Tensor:
    """Channelwise max over consecutive row segments of a 2-D (N, C) tensor -> (len(starts), C).

    Segment s is rows starts[s] up to the next start (or N); starts must
    begin at 0 and increase strictly, so no segment is empty. Backward routes
    the gradient to the first row attaining the max.
    """
    ta = as_tensor(a)
    d = ta.data
    starts = np.asarray(starts, dtype=np.intp)
    if d.ndim != 2 or starts.ndim != 1:
        raise ContractViolation(f"segment_max expects (N, C) rows and 1-D starts, got {d.shape} / {starts.shape}")
    if starts.size == 0 or starts[0] != 0:
        raise ContractViolation("segment_max: starts must begin at 0")
    if (np.diff(starts) <= 0).any() or starts[-1] >= d.shape[0]:
        raise ContractViolation("segment_max: some segment is empty")
    out = Tensor(_segment_reduce(np.maximum, d, starts))

    def bwd(g):
        # first row of each segment equal to its max (or NaN, which maximum propagates)
        hit = (d == np.repeat(out.data, np.diff(starts, append=d.shape[0]), axis=0)) | np.isnan(d)
        first = _segment_reduce(np.minimum, np.where(hit, np.arange(d.shape[0])[:, None], d.shape[0]), starts)
        gz = np.zeros_like(d)
        gz[first, np.arange(d.shape[1])] = g
        return (gz,)

    _record(out, (ta,), bwd)
    return out


# ---------------------------------------------------------------------------
# spatial ops on (C, H, W) maps
# ---------------------------------------------------------------------------


def conv2d(x, weight, bias, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution on a single (C, H, W) map, plus a (C_out,) bias.

    The weight shape says which kind: (C_out, C, kh, kw) is dense, and
    (C, 1, kh, kw) is depthwise (one kernel per channel); any other shape
    is rejected. Kernel 1 is a pointwise channel mix.

    Every call takes one shifted-window kernel and builds no im2col copy. The
    padded input is copied once into its stride phases (for stride 1 the
    padded map itself; for a 1x1 kernel with stride 1 and no padding, the
    input with no copy), each phase a (C, hq*wq) row-major buffer. Tap
    (i, j) reads phase (i mod s, j mod s) as one contiguous window of
    oh*wq columns at offset (i//s)*wq + j//s and adds its product into one
    (C_out, oh*wq) accumulator, which is cropped to ow columns; the
    wq - ow extra columns per row read across the row's end, and a spare
    phase row keeps the last window in bounds. A tap is a per-channel
    multiply when depthwise and a matmul otherwise. The tape keeps the phase
    buffer and the weights: dW is one product per tap against the cotangent
    widened with zeros to wq columns, and dx adds each tap's transposed
    product into a phase-shaped buffer whose phases are scattered back.
    Sums run tap by tap, so outputs agree with one matmul over im2col
    windows within rounding (1e-12 relative in float64); a 1x1 kernel with
    stride 1 and no padding is the same one matmul, byte for byte.
    """
    tx, tw, tb = as_tensor(x), as_tensor(weight), as_tensor(bias)
    xd, wd = tx.data, tw.data
    if not (isinstance(stride, int) and stride >= 1):
        raise ConfigurationError(f"stride must be a positive int, got {stride!r}")
    if not (isinstance(padding, int) and padding >= 0):
        raise ConfigurationError(f"padding must be a nonnegative int, got {padding!r}")
    if xd.ndim != 3 or wd.ndim != 4:
        raise ContractViolation(f"conv2d expects x (C,H,W) and weight (O,I,kh,kw), got {xd.shape} / {wd.shape}")
    c_in, h, w = xd.shape
    c_out, w_in, kh, kw = wd.shape
    depthwise = w_in == 1 and c_out == c_in
    if not (depthwise or w_in == c_in):
        raise ContractViolation(
            f"weight shape {wd.shape} is neither dense (C_out, {c_in}, kh, kw) nor depthwise ({c_in}, 1, kh, kw) "
            f"for input shape {xd.shape}"
        )
    if tb.data.shape != (c_out,):
        raise ContractViolation(f"bias shape {tb.data.shape} != ({c_out},)")
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ContractViolation(f"empty output for input {xd.shape}, kernel {kh}x{kw}, stride {stride}")

    s = stride
    wq = ow + (kw - 1) // s
    hq = oh + (kh - 1) // s + ((kw - 1) // s > 0)  # a spare row when windows run past a row's end
    n = oh * wq
    index = _phase_index(xd.shape, kh, kw, s, padding, hq, wq)
    if index is None:
        phases = xd.reshape(1, c_in, h * w)
    else:
        phases = np.zeros((len(index), c_in, hq, wq), dtype=xd.dtype)
        for p, (rq, cq), (rx, cx) in index:
            phases[p, :, rq, cq] = xd[:, rx, cx]
        phases = phases.reshape(len(index), c_in, hq * wq)
    sb = min(s, kw)
    taps = [((i % s) * sb + j % s, (i // s) * wq + j // s) for i in range(kh) for j in range(kw)]
    # (taps, C_out, C_in) matrices, or (taps, C, 1) per-channel columns when depthwise; a view for one tap
    wt = np.ascontiguousarray(wd.reshape(c_out, w_in, kh * kw).transpose(2, 0, 1))

    def window(buf, t):
        p, off = taps[t]
        return buf[p, :, off : off + n]

    acc = tmp = None
    for t in range(len(taps)):
        if depthwise:
            term = np.multiply(wt[t], window(phases, t), out=tmp)
        else:
            term = np.matmul(wt[t], window(phases, t), out=tmp)
        if acc is None:  # the first tap writes the accumulator; the rest add through one scratch buffer
            acc, tmp = term, np.empty_like(term) if len(taps) > 1 else None
        else:
            acc += term
    del term, tmp  # the scratch goes before the cropped output is allocated
    out = Tensor(acc.reshape(c_out, oh, wq)[:, :, :ow] + tb.data[:, None, None])
    x_shape, x_dtype, w_shape = xd.shape, xd.dtype, wd.shape

    def bwd(g):
        gw = g
        if wq != ow:  # widened with zeros to the phase rows
            gw = np.zeros((c_out, oh, wq), dtype=g.dtype)
            gw[:, :, :ow] = g
        gw = gw.reshape(c_out, n)
        dw = np.empty(wt.shape, dtype=np.result_type(gw, phases))
        dph = np.zeros(phases.shape, dtype=x_dtype) if len(taps) > 1 else None
        tmp = None
        for t in range(len(taps)):
            if depthwise:
                np.einsum("cn,cn->c", gw, window(phases, t), out=dw[t, :, 0])
                term = np.multiply(wt[t], gw, out=tmp)
            else:
                np.matmul(gw, window(phases, t).T, out=dw[t])
                term = np.matmul(wt[t].T, gw, out=tmp)
            if dph is None:  # one tap: its window is the whole phase buffer
                dph = term.reshape(phases.shape).astype(x_dtype, copy=False)
            else:
                window(dph, t)[...] += term
                tmp = term
        if index is None:
            dx = dph.reshape(x_shape)
        else:
            dph, dx = dph.reshape(len(index), c_in, hq, wq), np.zeros(x_shape, dtype=x_dtype)
            for p, (rq, cq), (rx, cx) in index:
                dx[:, rx, cx] = dph[p, :, rq, cq]
        return dx, dw.transpose(1, 2, 0).reshape(w_shape), g.sum(axis=(1, 2))

    _record(out, (tx, tw, tb), bwd)
    return out


def _phase_index(shape: tuple[int, int, int], kh: int, kw: int, s: int, pad: int, hq: int, wq: int) -> list | None:
    """Where ``conv2d``'s (phases, C, hq, wq) buffer holds its (C, H, W) input: per phase (a, b) a tap reads, its
    index a * min(s, kw) + b, the (rows, cols) slices of the phase and those of the input. Phase (a, b) holds padded
    rows a, a+s, ... and columns b, b+s, ...; zeros stand for the padding. None when the one phase is the input itself.
    """
    c, h, w = shape
    if (hq, wq, s, pad) == (h, w, 1, 0):
        return None

    def slices(a: int, n: int, nq: int) -> tuple[slice, slice]:  # phase indices q0.. hold inputs a + s*q - pad
        q0 = -((a - pad) // s) if a < pad else 0
        i0 = a + s * q0 - pad
        cnt = max(min(nq - q0, -(-(n - i0) // s)), 0)
        return slice(q0, q0 + cnt), slice(i0, i0 + s * cnt, s)

    sb = min(s, kw)
    return [
        (a * sb + b, (rq, cq), (rx, cx))
        for a in range(min(s, kh))
        for b in range(sb)
        for (rq, rx), (cq, cx) in [(slices(a, h, hq), slices(b, w, wq))]
    ]


def layer_norm(x, gamma, beta) -> Tensor:
    """Normalize over the channel axis (axis 0), per remaining site, with LAYER_NORM_EPS added to the variance."""
    tx, tg, tb = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    xd = tx.data
    c = xd.shape[0]
    if tg.data.shape != (c,) or tb.data.shape != (c,):
        raise ContractViolation(f"gamma/beta shapes {tg.data.shape}/{tb.data.shape} != ({c},) for input {xd.shape}")
    bshape = (c,) + (1,) * (xd.ndim - 1)
    gb = tg.data.reshape(bshape)
    bb = tb.data.reshape(bshape)
    mean = xd.mean(axis=0, keepdims=True)
    var = xd.var(axis=0, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = (xd - mean) * inv
    out = Tensor(gb * xhat + bb)
    sum_axes = tuple(range(1, xd.ndim))

    def bwd(g):
        dxhat = g * gb
        m1 = dxhat.mean(axis=0, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=0, keepdims=True)
        dx = (dxhat - m1 - xhat * m2) * inv
        dgamma = (g * xhat).sum(axis=sum_axes)
        dbeta = g.sum(axis=sum_axes)
        return dx, dgamma, dbeta

    _record(out, (tx, tg, tb), bwd)
    return out


def global_average_pool(x) -> Tensor:
    """Spatial mean per channel: (C, H, W) -> (C,)."""
    tx = as_tensor(x)
    d = tx.data
    if d.ndim != 3:
        raise ContractViolation(f"global_average_pool expects (C,H,W), got {d.shape}")
    c, h, w = d.shape
    out = Tensor(d.mean(axis=(1, 2)))
    scale = 1.0 / (h * w)
    _record(
        out,
        (tx,),
        lambda g: (np.broadcast_to(g[:, None, None] * scale, d.shape).astype(d.dtype, copy=False),),
    )
    return out


def nearest_upsample_2x(x) -> Tensor:
    """(C, H, W) -> (C, 2H, 2W) by nearest-neighbor replication."""
    tx = as_tensor(x)
    d = tx.data
    if d.ndim != 3:
        raise ContractViolation(f"nearest_upsample_2x expects (C,H,W), got {d.shape}")
    c, h, w = d.shape
    out = Tensor(d.repeat(2, axis=1).repeat(2, axis=2))
    _record(out, (tx,), lambda g: (g.reshape(c, h, 2, w, 2).sum(axis=(2, 4)),))
    return out


def bev_to_tokens(x) -> Tensor:
    """(C, X, Y) -> (X*Y, C) row-major token sequence."""
    tx = as_tensor(x)
    d = tx.data
    if d.ndim != 3:
        raise ContractViolation(f"bev_to_tokens expects (C,X,Y), got {d.shape}")
    c = d.shape[0]
    out = Tensor(np.ascontiguousarray(d.reshape(c, -1).T))
    shape = d.shape
    _record(out, (tx,), lambda g: (np.ascontiguousarray(g.T).reshape(shape),))
    return out


def tokens_to_bev(t, x_cells: int, y_cells: int) -> Tensor:
    """(X*Y, C) row-major tokens -> (C, X, Y)."""
    tt = as_tensor(t)
    d = tt.data
    if d.ndim != 2 or d.shape[0] != x_cells * y_cells:
        raise ContractViolation(f"tokens_to_bev expects ({x_cells * y_cells}, C), got {d.shape}")
    c = d.shape[1]
    out = Tensor(np.ascontiguousarray(d.T).reshape(c, x_cells, y_cells))
    _record(out, (tt,), lambda g: (np.ascontiguousarray(g.reshape(c, -1).T),))
    return out


# ---------------------------------------------------------------------------
# finite-difference gradient checking
# ---------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    name: str
    max_rel_error: float
    passed: bool
    per_input: list[float] = field(default_factory=list)

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"[{status}] {self.name or 'grad_check'}: max_rel_error={self.max_rel_error:.3e}"


def grad_check(
    fn: Callable[..., Tensor],
    inputs: Sequence["Tensor | Param"],
    eps: float = 1e-5,
    name: str = "",
) -> GradCheckReport:
    """Compare the tape gradient of a scalar-valued fn against central differences, of step eps; it passes at a
    largest relative error of at most GRAD_CHECK_TOL.

    All checked inputs must be double precision; fn is re-evaluated 2*numel
    times per input, so keep shapes small.
    """
    tensors = [inp.value if isinstance(inp, Param) else inp for inp in inputs]
    for t in tensors:
        if t.dtype != np.float64:
            raise ConfigurationError("grad_check requires double-precision inputs")
    with Tape() as tape:
        out = fn(*inputs)
    if out.size != 1:
        raise ContractViolation("grad_check target must be scalar-valued (sum-reduce first)")
    tape.backward(out)
    analytic = [tape.grad(t) for t in tensors]

    per_input: list[float] = []
    for t, a in zip(tensors, analytic):
        flat = t.data.reshape(-1)
        num = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = fn(*inputs).item()
            flat[i] = orig - eps
            f_minus = fn(*inputs).item()
            flat[i] = orig
            num[i] = (f_plus - f_minus) / (2.0 * eps)
        af = a.reshape(-1)
        denom = np.maximum(1.0, np.maximum(np.abs(af), np.abs(num)))
        rel = np.abs(af - num) / denom
        per_input.append(float(rel.max()) if rel.size else 0.0)

    worst = max(per_input) if per_input else 0.0
    return GradCheckReport(name=name, max_rel_error=worst, passed=worst <= GRAD_CHECK_TOL, per_input=per_input)
