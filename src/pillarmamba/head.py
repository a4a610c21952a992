"""Center-based detection head.

Predicts per-class center heatmaps plus dense regression channels
(xy offset within the cell, z, log dimensions, yaw as sin/cos), builds
Gaussian-splat training targets, computes the focal + masked-L1 loss, and
decodes peaks back into oriented boxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .boxes import Box3D, Detection
from .errors import ContractViolation
from .pillars import GridSpec

Array = np.ndarray

REG_CHANNELS = 8  # offset(2) + z(1) + log-dims(3) + sin/cos yaw(2)
HEATMAP_INIT_BIAS = -2.19  # sigmoid ~= 0.1: keeps the focal loss tame at init


@dataclass
class HeadParams:
    stem_w: T.Param
    stem_b: T.Param
    hm_w: T.Param
    hm_b: T.Param
    reg_w: T.Param
    reg_b: T.Param


def init_head_params(rng: np.random.Generator, channels: int, n_classes: int) -> HeadParams:
    stem_w, stem_b = T.conv_param(rng, channels, channels, 3, gain=2.0)  # feeds silu
    hm_w, hm_b = T.conv_param(rng, n_classes, channels, 1, bias_fill=HEATMAP_INIT_BIAS)
    reg_w, reg_b = T.conv_param(rng, REG_CHANNELS, channels, 1)
    return HeadParams(stem_w=stem_w, stem_b=stem_b, hm_w=hm_w, hm_b=hm_b, reg_w=reg_w, reg_b=reg_b)


@dataclass
class RawMaps:
    """Head outputs before any activation: heatmap logits + regression channels."""

    heatmap: T.Tensor  # (n_classes, X, Y)
    regression: T.Tensor  # (8, X, Y)


def head_forward(f5, params: HeadParams) -> RawMaps:
    """Shared 3x3 stem with SiLU, then per-task 1x1 heads."""
    stem = T.silu(T.conv2d(f5, params.stem_w, params.stem_b, padding=1))
    return RawMaps(
        heatmap=T.conv2d(stem, params.hm_w, params.hm_b),
        regression=T.conv2d(stem, params.reg_w, params.reg_b),
    )


# ---------------------------------------------------------------------------
# training targets
# ---------------------------------------------------------------------------


def gaussian_radius(height: float, width: float, min_overlap: float) -> float:
    """Radius (in cells) such that a shifted box still overlaps by min_overlap."""
    b1 = height + width
    c1 = width * height * (1 - min_overlap) / (1 + min_overlap)
    r1 = (b1 + math.sqrt(max(b1 * b1 - 4 * c1, 0.0))) / 2

    b2 = 2 * (height + width)
    c2 = (1 - min_overlap) * width * height
    r2 = (b2 + math.sqrt(max(b2 * b2 - 16 * c2, 0.0))) / 2

    a3 = 4 * min_overlap
    b3 = -2 * min_overlap * (height + width)
    c3 = (min_overlap - 1) * width * height
    r3 = (b3 + math.sqrt(max(b3 * b3 - 4 * a3 * c3, 0.0))) / 2
    return min(r1, r2, r3)


def _draw_gaussian(heatmap: Array, cx: int, cy: int, radius: int) -> None:
    """Splat a peak-1 Gaussian at (cx, cy), merging with elementwise max."""
    diameter = 2 * radius + 1
    sigma = diameter / 6.0
    ys, xs = np.ogrid[-radius : radius + 1, -radius : radius + 1]
    gauss = np.exp(-(xs * xs + ys * ys) / (2.0 * sigma * sigma))
    h, w = heatmap.shape
    top, bottom = min(cx, radius), min(h - cx, radius + 1)
    left, right = min(cy, radius), min(w - cy, radius + 1)
    patch = heatmap[cx - top : cx + bottom, cy - left : cy + right]
    gpatch = gauss[radius - top : radius + bottom, radius - left : radius + right]
    np.maximum(patch, gpatch, out=patch)


@dataclass
class HeadTargets:
    heatmap: Array  # (n_classes, X, Y) in [0, 1]
    regression: Array  # (8, X, Y)
    mask: Array  # (X, Y) bool, true at GT center cells
    n_positives: int
    skipped_out_of_range: int = 0


def build_targets(boxes: list[Box3D], grid: GridSpec, n_classes: int, min_overlap: float) -> HeadTargets:
    """Gaussian heatmap + sparse regression targets at GT center cells."""
    x_cells, y_cells = grid.x_cells, grid.y_cells
    heatmap = np.zeros((n_classes, x_cells, y_cells), dtype=np.float32)
    regression = np.zeros((REG_CHANNELS, x_cells, y_cells), dtype=np.float32)
    mask = np.zeros((x_cells, y_cells), dtype=bool)
    skipped = 0
    n_pos = 0
    for box in boxes:
        fx, fy = grid.to_cells(box.x, box.y)
        ix, iy = int(math.floor(fx)), int(math.floor(fy))
        if not (0 <= ix < x_cells and 0 <= iy < y_cells):
            skipped += 1
            continue
        if not (0 <= box.cls < n_classes):
            raise ContractViolation(f"box class {box.cls} outside [0, {n_classes})")
        radius = max(0, int(gaussian_radius(box.l / grid.pillar_size, box.w / grid.pillar_size, min_overlap)))
        _draw_gaussian(heatmap[box.cls], ix, iy, radius)
        heatmap[box.cls, ix, iy] = 1.0
        regression[:, ix, iy] = (
            fx - ix,
            fy - iy,
            box.z,
            math.log(box.l),
            math.log(box.w),
            math.log(box.h),
            math.sin(box.yaw),
            math.cos(box.yaw),
        )
        mask[ix, iy] = True
        n_pos += 1
    return HeadTargets(heatmap=heatmap, regression=regression, mask=mask, n_positives=n_pos, skipped_out_of_range=skipped)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def _square(t):
    return T.mul(t, t)


def detection_loss(raw: RawMaps, targets: HeadTargets, reg_weight: float):
    """Penalty-reduced focal loss on the heatmap + masked L1 on the regression.

    Returns (total loss Tensor, breakdown dict of floats). Both terms are
    normalized by the positive count.
    """
    dtype = T.value(raw.heatmap).dtype
    hm_t = targets.heatmap.astype(dtype, copy=False)
    pos_mask = (hm_t >= 1.0).astype(dtype)
    neg_weight = ((1.0 - hm_t) ** 4).astype(dtype) * (1.0 - pos_mask)
    # 0-d constants in the map's dtype: a 0-d float64 array would promote the loss
    one = np.asarray(1.0, dtype)
    norm = np.asarray(1.0 / max(targets.n_positives, 1), dtype)

    p = T.clamp(T.sigmoid(raw.heatmap), 1e-6, 1.0 - 1e-6)
    one_minus_p = T.sub(one, p)
    pos_term = T.mul(T.mul(_square(one_minus_p), T.tlog(p)), pos_mask)
    neg_term = T.mul(T.mul(_square(p), T.tlog(one_minus_p)), neg_weight)
    focal = T.mul(T.neg(T.add(T.reduce_sum(pos_term), T.reduce_sum(neg_term))), norm)

    reg_mask = np.broadcast_to(targets.mask, T.value(raw.regression).shape).astype(dtype)
    reg_t = targets.regression.astype(dtype, copy=False)
    l1 = T.mul(T.reduce_sum(T.mul(T.tabs(T.sub(raw.regression, reg_t)), reg_mask)), norm)

    total = T.add(focal, T.mul(l1, np.asarray(reg_weight, dtype)))
    breakdown = {"focal": focal.item(), "l1": l1.item(), "total": total.item()}
    return total, breakdown


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def _local_max_mask(score: Array) -> Array:
    """3x3 local-maximum survival over the last two axes, with ties broken by lowest flat index."""
    *lead, x_cells, y_cells = score.shape
    padded = np.full((*lead, x_cells + 2, y_cells + 2), -np.inf, dtype=score.dtype)
    padded[..., 1:-1, 1:-1] = score
    dead = np.zeros_like(score, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            neighbor = padded[..., 1 + di : 1 + di + x_cells, 1 + dj : 1 + dj + y_cells]
            earlier = di < 0 or (di == 0 and dj < 0)
            dead |= (neighbor >= score) if earlier else (neighbor > score)
    return ~dead


def decode(raw: RawMaps, grid: GridSpec, *, top_k: int, score_threshold: float) -> list[Detection]:
    """Peaks of the sigmoid heatmap -> oriented boxes, sorted by descending score.

    Tied scores keep ``np.nonzero``'s C order, so they come out by (class, ix, iy).
    """
    hm = T.value(raw.heatmap)
    reg = T.value(raw.regression)
    prob = 1.0 / (1.0 + np.exp(-hm.astype(np.float64)))
    prob = np.clip(prob, 1e-9, 1.0 - 1e-9)  # keep scores strictly inside (0, 1)

    peaks = np.nonzero(_local_max_mask(prob) & (prob > score_threshold))  # (cls, ix, iy) in C order
    scores = prob[peaks]
    keep = np.argsort(-scores, kind="stable")[:top_k]

    detections = []
    for score, cls, ix, iy in zip(scores[keep].tolist(), *(axis[keep].tolist() for axis in peaks)):
        off_x, off_y, z, log_l, log_w, log_h, sin_t, cos_t = reg[:, ix, iy].astype(np.float64)
        x, y = grid.to_world(ix + off_x, iy + off_y)
        box = Box3D(
            x=x,
            y=y,
            z=z,
            l=float(np.exp(log_l)),
            w=float(np.exp(log_w)),
            h=float(np.exp(log_h)),
            yaw=math.atan2(sin_t, cos_t),
            cls=cls,
        )
        detections.append(Detection(box=box, score=score))
    return detections
