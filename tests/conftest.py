"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

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
