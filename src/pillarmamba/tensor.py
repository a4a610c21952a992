"""Dense numpy-backed tensors with reverse-mode differentiation on a recorded tape.

Every operator computes its result eagerly with numpy and, while a ``Tape`` is
active, records a closure mapping the output gradient back to input gradients.
Only the operators defined here are differentiable. The compute path runs in
single precision; oracle and gradient checks run the same operators in double.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, ContractViolation

Array = np.ndarray

_FLOAT_DTYPES = (np.float32, np.float64)


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

    def __init__(self, data, dtype=None):
        arr = np.asarray(data, dtype=dtype)
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
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"


class Param:
    """A named learnable value; its gradient is read from a tape, ``tape.grad(param)``."""

    __slots__ = ("value", "name")

    def __init__(self, value, name: str = ""):
        self.value = value if isinstance(value, Tensor) else Tensor(value)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Param({self.name or '<anon>'}, shape={self.value.shape})"


def conv_param(
    rng: np.random.Generator, name: str, out_ch: int, in_ch: int, k: int, dtype, gain: float = 1.0, bias_fill: float = 0.0
) -> tuple[Param, Param]:
    """A (out_ch, in_ch, k, k) conv weight drawn N(0, gain / fan_in) and a constant bias.

    gain 2 for convs feeding a relu/silu, 1 for linear maps; in_ch is 1 for a
    depthwise conv.
    """
    scale = np.sqrt(gain / (in_ch * k * k))
    w = Param(rng.normal(0.0, scale, size=(out_ch, in_ch, k, k)).astype(dtype), name=f"{name}.weight")
    b = Param(np.full(out_ch, bias_fill, dtype=dtype), name=f"{name}.bias")
    return w, b


def collect_params(tree) -> list[Param]:
    """Every Param in a tree of parameter dataclasses, tuples and dicts.

    Dataclass fields come in declaration order, tuple items in order and dict
    values in insertion order. This order is the weights-file order, the
    trainer's update order and the gradient-check input order.
    """
    out: list[Param] = []
    _collect(tree, out)
    return out


def _collect(node, out: list[Param]) -> None:
    if isinstance(node, Param):
        out.append(node)
    elif is_dataclass(node):
        for f in fields(node):
            _collect(getattr(node, f.name), out)
    elif isinstance(node, (tuple, dict)):
        for item in node.values() if isinstance(node, dict) else node:
            _collect(item, out)
    else:
        raise ContractViolation(
            f"parameter tree holds a {type(node).__name__}; expected a Param, dataclass, tuple or dict"
        )


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
    sp = np.log1p(np.exp(-np.abs(d)))  # logaddexp(0, x)'s formula; logaddexp itself runs a scalar loop
    sp += np.maximum(d, 0.0)
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


def reduce_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    ta = as_tensor(a)
    d = ta.data
    out = Tensor(d.sum(axis=axis, keepdims=keepdims))
    shape = d.shape

    def bwd(g):
        gg = g
        if axis is not None and not keepdims:
            ax = (axis,) if isinstance(axis, int) else tuple(axis)
            gg = np.expand_dims(gg, ax)
        return (np.broadcast_to(gg, shape).astype(d.dtype, copy=False),)

    _record(out, (ta,), bwd)
    return out


def reshape(a, shape) -> Tensor:
    ta = as_tensor(a)
    d = ta.data
    out = Tensor(d.reshape(shape))
    orig = d.shape
    _record(out, (ta,), lambda g: (g.reshape(orig),))
    return out


def concat(parts: Sequence, axis: int = 0) -> Tensor:
    ts = [as_tensor(p) for p in parts]
    datas = [t.data for t in ts]
    out = Tensor(np.concatenate(datas, axis=axis))
    sizes = [d.shape[axis] for d in datas]
    splits = np.cumsum(sizes)[:-1]
    _record(out, tuple(ts), lambda g: tuple(np.split(g, splits, axis=axis)))
    return out


def split(a, sizes: Sequence[int], axis: int = 0) -> tuple[Tensor, ...]:
    ta = as_tensor(a)
    d = ta.data
    if sum(sizes) != d.shape[axis]:
        raise ContractViolation(
            f"split sizes {list(sizes)} do not sum to axis extent {d.shape[axis]}"
        )
    outs = []
    start = 0
    for size in sizes:
        sl = [slice(None)] * d.ndim
        sl[axis] = slice(start, start + size)
        sl = tuple(sl)
        piece = Tensor(d[sl].copy())

        def bwd(g, sl=sl):
            full = np.zeros_like(d)
            full[sl] = g
            return (full,)

        _record(piece, (ta,), bwd)
        outs.append(piece)
        start += size
    return tuple(outs)


def gather_rows(a, idx: Array) -> Tensor:
    """Rows of a 2-D tensor by nonnegative row indices: ``a[idx]``, for a 1-D index or a 2-D stack of them.

    The backward scatter-adds each index row in turn. Whether an index repeats
    within a row is decided there, which inference never runs; a row of
    unique indices takes a plain fancy-index add.
    """
    ta = as_tensor(a)
    d = ta.data
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim not in (1, 2) or (idx < 0).any():
        raise ContractViolation(f"gather_rows requires a 1-D or 2-D nonnegative row index, got shape {idx.shape}")
    out = Tensor(d[idx])

    def bwd(g):
        gz = np.zeros_like(d)
        for rows, g_rows in zip(idx.reshape(-1, idx.shape[-1]), g.reshape((-1,) + g.shape[idx.ndim - 1 :])):
            if np.bincount(rows, minlength=1).max() <= 1:
                gz[rows] += g_rows
            else:
                np.add.at(gz, rows, g_rows)
        return (gz,)

    _record(out, (ta,), bwd)
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


def conv2d(x, weight, bias=None, stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    """2-D convolution on a single (C, H, W) map.

    weight: (C_out, C_in/groups, kh, kw); groups == C_in gives a depthwise
    convolution, kernel 1 a pointwise channel mix.
    """
    tx, tw = as_tensor(x), as_tensor(weight)
    tb = as_tensor(bias) if bias is not None else None
    xd, wd = tx.data, tw.data
    if not (isinstance(stride, int) and stride >= 1):
        raise ConfigurationError(f"stride must be a positive int, got {stride!r}")
    if not (isinstance(padding, int) and padding >= 0):
        raise ConfigurationError(f"padding must be a nonnegative int, got {padding!r}")
    if xd.ndim != 3 or wd.ndim != 4:
        raise ContractViolation(f"conv2d expects x (C,H,W) and weight (O,I,kh,kw), got {xd.shape} / {wd.shape}")
    c_in, h, w = xd.shape
    c_out, c_in_g, kh, kw = wd.shape
    if c_in % groups != 0 or c_out % groups != 0:
        raise ContractViolation(f"channels {c_in}->{c_out} not divisible by groups={groups}")
    if c_in_g != c_in // groups:
        raise ContractViolation(
            f"weight shape {wd.shape} inconsistent with input shape {xd.shape} and groups={groups}"
        )
    if tb is not None and tb.data.shape != (c_out,):
        raise ContractViolation(f"bias shape {tb.data.shape} != ({c_out},)")
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ContractViolation(f"empty output for input {xd.shape}, kernel {kh}x{kw}, stride {stride}")

    if kh == kw == 1 and stride == 1 and padding == 0 and groups == 1:
        return _conv1x1(tx, tw, tb)
    return _conv_im2col(tx, tw, tb, stride, padding, groups)


def _conv_im2col(tx: Tensor, tw: Tensor, tb: Tensor | None, stride: int, padding: int, groups: int) -> Tensor:
    """``conv2d`` on checked arguments as one batched matmul over the sliding windows (im2col), any kernel."""
    xd, wd = tx.data, tw.data
    c_in, h, w = xd.shape
    c_out, c_in_g, kh, kw = wd.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    xp = np.pad(xd, ((0, 0), (padding, padding), (padding, padding))) if padding else xd
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    win = win[:, ::stride, ::stride]  # (C_in, OH, OW, kh, kw)
    cols = win.transpose(0, 3, 4, 1, 2).reshape(groups, c_in_g * kh * kw, oh * ow)
    wg = wd.reshape(groups, c_out // groups, c_in_g * kh * kw)
    out_data = np.matmul(wg, cols).reshape(c_out, oh, ow)
    if tb is not None:
        out_data = out_data + tb.data[:, None, None]
    out = Tensor(out_data)

    hp, wp = xp.shape[1], xp.shape[2]

    def bwd(g):
        go = g.reshape(groups, c_out // groups, oh * ow)
        dw = np.matmul(go, cols.transpose(0, 2, 1)).reshape(wd.shape)
        dcols = np.matmul(wg.transpose(0, 2, 1), go)
        dcols = dcols.reshape(c_in, kh, kw, oh, ow)
        dxp = np.zeros((c_in, hp, wp), dtype=xd.dtype)
        for i in range(kh):
            for j in range(kw):
                dxp[:, i : i + oh * stride : stride, j : j + ow * stride : stride] += dcols[:, i, j]
        dx = dxp[:, padding : padding + h, padding : padding + w] if padding else dxp
        db = g.sum(axis=(1, 2)) if tb is not None else None
        return (dx, dw, db) if tb is not None else (dx, dw)

    parents = (tx, tw, tb) if tb is not None else (tx, tw)
    _record(out, parents, bwd)
    return out


def _conv1x1(tx: Tensor, tw: Tensor, tb: Tensor | None) -> Tensor:
    """``conv2d`` with a 1x1 kernel, stride 1, no padding and one group: one matmul on the (C_in, H*W) view.

    The forward equals the im2col path byte for byte (the same matmul on the same values, with no window
    or transpose copy); the backward's two matmuls equal it up to the sign of a zero.
    """
    xd, wd = tx.data, tw.data
    c_in, h, w = xd.shape
    x2, w2 = xd.reshape(c_in, h * w), wd.reshape(wd.shape[0], c_in)
    out_data = w2 @ x2
    if tb is not None:
        out_data = out_data + tb.data[:, None]
    out = Tensor(out_data.reshape(-1, h, w))

    def bwd(g):
        g2 = g.reshape(-1, h * w)
        dx = (w2.T @ g2).reshape(xd.shape).astype(xd.dtype, copy=False)
        dw = (g2 @ x2.T).reshape(wd.shape)
        return (dx, dw) if tb is None else (dx, dw, g.sum(axis=(1, 2)))

    _record(out, (tx, tw) if tb is None else (tx, tw, tb), bwd)
    return out


def layer_norm(x, gamma, beta, eps: float = 1e-5, axis: int = 0) -> Tensor:
    """Normalize over one axis (channels by default), per remaining site."""
    if eps <= 0:
        raise ConfigurationError(f"layer_norm eps must be positive, got {eps}")
    tx, tg, tb = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    xd = tx.data
    c = xd.shape[axis]
    if tg.data.shape != (c,) or tb.data.shape != (c,):
        raise ContractViolation(
            f"gamma/beta shapes {tg.data.shape}/{tb.data.shape} != ({c},) for axis {axis} of {xd.shape}"
        )
    bshape = [1] * xd.ndim
    bshape[axis] = c
    gb = tg.data.reshape(bshape)
    bb = tb.data.reshape(bshape)
    mean = xd.mean(axis=axis, keepdims=True)
    var = xd.var(axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xd - mean) * inv
    out = Tensor(gb * xhat + bb)
    sum_axes = tuple(i for i in range(xd.ndim) if i != axis)

    def bwd(g):
        dxhat = g * gb
        m1 = dxhat.mean(axis=axis, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=axis, keepdims=True)
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
    tolerance: float = 1e-4,
    name: str = "",
) -> GradCheckReport:
    """Compare the tape gradient of a scalar-valued fn against central differences.

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
    return GradCheckReport(name=name, max_rel_error=worst, passed=worst <= tolerance, per_input=per_input)
