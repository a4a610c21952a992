"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from pillarmamba import ssm
from pillarmamba import tensor as T
from pillarmamba.boxes import Box3D, Detection
from pillarmamba.head import HeadTargets, RawMaps
from pillarmamba.metrics import rotated_iou_3d

settings.register_profile(
    "suite",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def _quiet_numpy():
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        yield


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def perfect_raw_maps(targets: HeadTargets) -> RawMaps:
    """Render targets as raw head outputs: clamped logits + exact regression."""
    p = np.clip(targets.heatmap.astype(np.float64), 1e-6, 1.0 - 1e-6)
    logits = np.log(p / (1.0 - p))
    return RawMaps(heatmap=T.Tensor(logits), regression=T.Tensor(targets.regression.astype(np.float64)))


# ---------------------------------------------------------------------------
# im2col convolution oracle: one batched matmul over every sliding window
# ---------------------------------------------------------------------------


def conv_im2col(x, weight, bias=None, stride: int = 1, padding: int = 0, groups: int = 1) -> T.Tensor:
    """``T.conv2d`` as one batched matmul over the im2col copy of every window, taped; its float64 oracle.

    Arguments are trusted (``T.conv2d`` checks them). The input, weights and
    bias are cast nowhere, so the output, dx and dW come back in the dtypes
    numpy's promotion gives the matmul and the tape's accumulation.
    """
    tx, tw = T.as_tensor(x), T.as_tensor(weight)
    tb = T.as_tensor(bias) if bias is not None else None
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
    out = T.Tensor(out_data)

    def bwd(g):
        go = g.reshape(groups, c_out // groups, oh * ow)
        dw = np.matmul(go, cols.transpose(0, 2, 1)).reshape(wd.shape)
        dcols = np.matmul(wg.transpose(0, 2, 1), go).reshape(c_in, kh, kw, oh, ow)
        dxp = np.zeros(xp.shape, dtype=xd.dtype)
        for i in range(kh):
            for j in range(kw):
                dxp[:, i : i + oh * stride : stride, j : j + ow * stride : stride] += dcols[:, i, j]
        dx = dxp[:, padding : padding + h, padding : padding + w]
        return (dx, dw) if tb is None else (dx, dw, g.sum(axis=(1, 2)))

    T._record(out, (tx, tw) if tb is None else (tx, tw, tb), bwd)
    return out


# ---------------------------------------------------------------------------
# scan references, in float64: zero-order hold, the sequential recurrence and the convolution form; and the sweep
# the detector runs (``ssm.class_scan`` in ``ssm.scan_order``) on lifted buffers, for comparing against them
# ---------------------------------------------------------------------------

ZOH_SERIES_SWITCH = 1e-6  # |delta * a| below this uses the series branch


def zoh_factors(a, delta):
    """Return (a_bar, input_scale) with b_bar = input_scale * b.

    a_bar = exp(delta*a); input_scale = expm1(delta*a)/a, evaluated by a
    second-order series delta*(1 + delta*a/2) when |delta*a| < 1e-6 so the
    a -> 0 limit is exact and the branch seam agrees to ~1e-13 relative.
    """
    a = np.asarray(a, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    z = delta * a
    a_bar = np.exp(z)
    series = delta * (1.0 + 0.5 * z)
    small = np.abs(z) < ZOH_SERIES_SWITCH
    safe_a = np.where(a == 0.0, 1.0, a)
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = np.expm1(z) / safe_a
    return a_bar, np.where(small, series, exact)


def sequential_scan(coeff, update):
    """The sequential oracle: h_t = coeff_t * h_{t-1} + update_t from a zero state, as a plain time loop in float64.
    coeff broadcasts against update (T, ...); returns every h_t."""
    coeff = np.broadcast_to(np.asarray(coeff, dtype=np.float64), update.shape)
    h = np.zeros(update.shape[1:])
    out = np.empty(update.shape)
    for t in range(update.shape[0]):
        h = coeff[t] * h + update[t]
        out[t] = h
    return out


def lift(a_bar, b_bar, c_bar, x):
    """x (T, D) or (T,) and parameters (M,), (D, M) or (T, D, M) as the float64 (T, D, M) buffers of the recurrence
    h_t = a_bar_t * h_{t-1} + b_bar_t * x_t, y_t = c_bar_t . h_t: coefficients, inputs b_bar * x, read-outs."""
    x = np.asarray(x, dtype=np.float64)
    x = x[:, None] if x.ndim == 1 else x
    shape = x.shape + np.shape(a_bar)[-1:]
    a, b, c = (np.broadcast_to(np.asarray(p, dtype=np.float64), shape) for p in (a_bar, b_bar, c_bar))
    return a, b * x[:, :, None], c


def recurrent_scan(a_bar, b_bar, c_bar, x):
    """y (T, D) of the sequential oracle on ``lift(a_bar, b_bar, c_bar, x)``."""
    a, u, c = lift(a_bar, b_bar, c_bar, x)
    return (c * sequential_scan(a, u)).sum(axis=-1)


def scan_kernel(a_bar, b_bar, c_bar, t_len: int):
    """The convolution form's kernel K[k] = sum_i c_i * a_i^k * b_i, k < T, from time-invariant (M,) parameters."""
    a_bar, b_bar, c_bar = (np.asarray(p, dtype=np.float64) for p in (a_bar, b_bar, c_bar))
    powers = np.broadcast_to(a_bar, (t_len, a_bar.size)).copy()
    powers[0] = 1.0
    return np.cumprod(powers, axis=0) @ (c_bar * b_bar)


def apply_conv_form(x, kernel):
    """y[t] = sum_{k<=t} K[k] x[t-k]: the causal convolution of a (T,) sequence."""
    return np.convolve(x, kernel)[: len(x)]


def class_sweep_scan(coeff, update):
    """The recurrence of ``sequential_scan`` as ``ssm_scan``'s forward sweeps it: (T, D, M) buffers gathered into
    ``ssm.scan_order``, each row block swept by ``ssm.class_scan`` after the state of the block before is folded into
    its first row, and the states scattered back to time order. Leaves its arguments untouched."""
    t_len, d, m = update.shape
    order = ssm.scan_order(t_len, d, m)
    a, h = np.broadcast_to(coeff, update.shape)[order], update[order]
    r = ssm._block_rows(d * m)
    for k0 in range(0, t_len, r):
        if k0:
            h[k0] += a[k0] * h[k0 - 1]
        ssm.class_scan(a[k0 : k0 + r], h[k0 : k0 + r])
    out = np.empty_like(h)
    out[order] = h
    return out


# ---------------------------------------------------------------------------
# the cross scan's flatten and merge as the tape once composed them: a scatter-add backward, an offset gather and an
# axis-0 sum; the oracle of the ``gather_rows`` / ``gather_sum_rows`` adjoint pair
# ---------------------------------------------------------------------------


def composed_flatten_merge(tokens, outputs, g_stack, g_grid, perm, inv):
    """The flatten's and merge's values and input gradients over a (perm, inv) pair of (K, N) stacks, in numpy.

    Flatten: the (K, N, C) stack ``tokens[perm]``; its gradient scatter-adds
    each sequence of the cotangent ``g_stack`` into zeros by perm, in k
    order. Merge: the (K*N, C) rows of ``outputs`` gathered by inv plus each
    sequence's row offset, then summed over axis 0; its gradient broadcasts
    the cotangent ``g_grid`` to the K sequences and scatter-adds it into
    zeros by that offset index. Returns (stack, d_tokens, merged, d_outputs).
    """
    k, n, c = outputs.shape
    d_tokens = np.zeros_like(tokens)
    for rows, g_rows in zip(perm, g_stack):
        d_tokens[rows] += g_rows
    offset_inv = inv + n * np.arange(k)[:, None]
    merged = outputs.reshape(k * n, c)[offset_inv].sum(axis=0)
    d_rows = np.zeros((k * n, c), dtype=outputs.dtype)
    for rows, g_rows in zip(offset_inv, np.broadcast_to(g_grid.astype(outputs.dtype, copy=False), (k, n, c))):
        d_rows[rows] += g_rows
    return tokens[perm], d_tokens, merged, d_rows.reshape(k, n, c)


# ---------------------------------------------------------------------------
# brute-force AP oracle: re-enumerates every score prefix from scratch
# ---------------------------------------------------------------------------


def _greedy_tp_count(dets: list[Detection], gts: list[Box3D], thr: float, iou_fn) -> int:
    taken = [False] * len(gts)
    tp = 0
    for det in sorted(dets, key=lambda d: -d.score):
        best, best_j = -1.0, None
        for j, gt in enumerate(gts):
            if taken[j] or gt.cls != det.box.cls:
                continue
            iou = iou_fn(det.box, gt)
            if iou >= thr and iou > best:
                best, best_j = iou, j
        if best_j is not None:
            taken[best_j] = True
            tp += 1
    return tp


def brute_force_ap_r40(
    dets_per_scene: list[list[Detection]],
    gts_per_scene: list[list[Box3D]],
    cls: int,
    thr: float,
    iou_fn=rotated_iou_3d,
) -> float | None:
    """Enumerate every prefix of the global score ordering, recomputing the
    greedy match per prefix, then sample max precision at the 40 recall points."""
    flat = []
    for si, dets in enumerate(dets_per_scene):
        for i, d in enumerate(dets):
            if d.box.cls == cls:
                flat.append((-d.score, si, i, d))
    flat.sort(key=lambda r: (r[0], r[1], r[2]))
    n_gt = sum(1 for gts in gts_per_scene for g in gts if g.cls == cls)
    if n_gt == 0:
        return None

    points = []  # (recall, precision)
    for k in range(1, len(flat) + 1):
        kept_by_scene: dict[int, list[Detection]] = {}
        for _, si, _, d in flat[:k]:
            kept_by_scene.setdefault(si, []).append(d)
        tp = sum(
            _greedy_tp_count(kept, [g for g in gts_per_scene[si] if g.cls == cls], thr, iou_fn)
            for si, kept in kept_by_scene.items()
        )
        points.append((tp / n_gt, tp / k))

    ap = 0.0
    for j in range(1, 41):
        r = j / 40.0
        eligible = [p for rec, p in points if rec >= r - 1e-12]
        ap += max(eligible) if eligible else 0.0
    return ap / 40.0
