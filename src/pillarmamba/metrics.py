"""Rotated-box IoU and 40-recall-point average precision.

BEV IoU clips one oriented rectangle against the other (Sutherland-Hodgman)
and measures areas by the shoelace formula; 3D IoU for yaw-only boxes
decomposes exactly into BEV intersection area times vertical overlap.
AP uses greedy score-descending matching and max-interpolated precision
sampled at 40 evenly spaced recall positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boxes import Box3D, Detection

Array = np.ndarray

N_RECALL_POSITIONS = 40
MIN_VOLUME = 1e-12  # rotated_iou_3d scores a box with less volume 0 against every box


def _clip_polygon(subject: Array, clip: Array) -> Array:
    """Clip a convex polygon by another convex polygon (both CCW (N,2))."""
    output = subject
    n = clip.shape[0]
    for i in range(n):
        if output.shape[0] == 0:
            return output
        a = clip[i]
        b = clip[(i + 1) % n]
        edge = b - a
        # inside = left of directed edge a->b
        rel = output - a
        side = edge[0] * rel[:, 1] - edge[1] * rel[:, 0]
        keep = side >= -1e-12
        pieces = []
        m = output.shape[0]
        for j in range(m):
            k = (j + 1) % m
            p, q = output[j], output[k]
            if keep[j]:
                pieces.append(p)
            if keep[j] != keep[k]:
                d = q - p
                denom = edge[0] * d[1] - edge[1] * d[0]
                if abs(denom) > 1e-15:
                    t = (edge[0] * (a[1] - p[1]) - edge[1] * (a[0] - p[0])) / denom
                    pieces.append(p + t * d)
        output = np.array(pieces) if pieces else np.zeros((0, 2))
    return output


def _polygon_area(poly: Array) -> float:
    if poly.shape[0] < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))) / 2.0


def rotated_intersection_area(a: Box3D, b: Box3D) -> float:
    return _polygon_area(_clip_polygon(a.corners_bev(), b.corners_bev()))


def rotated_iou_bev(a: Box3D, b: Box3D) -> float:
    """IoU of the two oriented footprints, in [0, 1]."""
    area_a = a.l * a.w
    area_b = b.l * b.w
    if area_a < 1e-12 or area_b < 1e-12:
        return 0.0
    inter = rotated_intersection_area(a, b)
    union = area_a + area_b - inter
    return min(max(inter / union, 0.0), 1.0)


def rotated_iou_3d(a: Box3D, b: Box3D) -> float:
    """Exact 3D IoU for yaw-only boxes: BEV intersection area x z overlap."""
    vol_a, vol_b = a.volume, b.volume
    if vol_a < MIN_VOLUME or vol_b < MIN_VOLUME:
        return 0.0
    z_lo = max(a.z_interval[0], b.z_interval[0])
    z_hi = min(a.z_interval[1], b.z_interval[1])
    if z_hi <= z_lo:
        return 0.0
    inter = rotated_intersection_area(a, b) * (z_hi - z_lo)
    union = vol_a + vol_b - inter
    return min(max(inter / union, 0.0), 1.0)


# ---------------------------------------------------------------------------
# matching and AP
# ---------------------------------------------------------------------------


@dataclass
class MatchResult:
    """Greedy score-descending assignment of detections to ground truths."""

    detection_to_gt: list[int | None]  # per detection (sorted order), matched GT or None
    gt_matched: list[bool]
    scores: list[float]  # detection scores in the processed (descending) order


@dataclass
class PrCurve:
    scores: Array
    is_tp: Array
    n_gt: int
    precision: Array = field(init=False)
    recall: Array = field(init=False)

    def __post_init__(self):
        tp = np.cumsum(self.is_tp)
        fp = np.cumsum(~self.is_tp)
        self.precision = tp / np.maximum(tp + fp, 1)
        self.recall = tp / max(self.n_gt, 1)


def match_scene(
    detections: list[Detection],
    gts: list[Box3D],
    iou_threshold: float,
    iou_fn=rotated_iou_3d,
) -> MatchResult:
    """Match one scene's detections (any order) greedily by descending score.

    Each GT is matched at most once; a detection takes the highest-IoU still
    unmatched GT at or above the threshold.
    """
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))
    gt_matched = [False] * len(gts)
    det_to_gt: list[int | None] = []
    scores = []
    for i in order:
        det = detections[i]
        scores.append(det.score)
        best_iou, best_j = -1.0, None
        for j, gt in enumerate(gts):
            if gt_matched[j] or gt.cls != det.box.cls:
                continue
            iou = iou_fn(det.box, gt)
            if iou >= iou_threshold and iou > best_iou:
                best_iou, best_j = iou, j
        if best_j is not None:
            gt_matched[best_j] = True
        det_to_gt.append(best_j)
    return MatchResult(detection_to_gt=det_to_gt, gt_matched=gt_matched, scores=scores)


def interpolated_ap(curve: PrCurve) -> float:
    """Mean of max-interpolated precision at recall positions k/40, k = 1..40."""
    ap = 0.0
    for k in range(1, N_RECALL_POSITIONS + 1):
        r = k / N_RECALL_POSITIONS
        reachable = curve.recall >= r - 1e-12
        ap += float(curve.precision[reachable].max()) if reachable.any() else 0.0
    return ap / N_RECALL_POSITIONS


def pr_curve_for_class(
    detections_per_scene: list[list[Detection]],
    gts_per_scene: list[list[Box3D]],
    cls: int,
    iou_threshold: float,
    iou_fn=rotated_iou_3d,
) -> PrCurve:
    """Match per scene, then order all detections globally by descending score."""
    # (-score, scene, match rank, is_tp): a deterministic global order; match_scene ranks by (-score, index), so the
    # rank breaks a tie within a scene as the index does
    records = []
    n_gt = 0
    for scene, (dets, gts) in enumerate(zip(detections_per_scene, gts_per_scene)):
        cls_dets = [d for d in dets if d.box.cls == cls]
        cls_gts = [g for g in gts if g.cls == cls]
        n_gt += len(cls_gts)
        match = match_scene(cls_dets, cls_gts, iou_threshold, iou_fn)
        for rank, (score, gt) in enumerate(zip(match.scores, match.detection_to_gt)):
            records.append((-score, scene, rank, gt is not None))
    records.sort()
    return PrCurve(
        scores=np.array([-r[0] for r in records]),
        is_tp=np.array([r[3] for r in records], dtype=bool),
        n_gt=n_gt,
    )


def class_curves(
    detections_per_scene: list[list[Detection]],
    gts_per_scene: list[list[Box3D]],
    iou_thresholds: dict[int, float],
    iou_fn=rotated_iou_3d,
) -> dict[int, tuple[PrCurve, float | None]]:
    """Per class id, in id order: its PR curve and its AP at 40 recall positions, None for a class without GT."""
    result = {}
    for cls in sorted(iou_thresholds):
        curve = pr_curve_for_class(detections_per_scene, gts_per_scene, cls, iou_thresholds[cls], iou_fn)
        result[cls] = curve, None if curve.n_gt == 0 else interpolated_ap(curve)
    return result


def ap_r40(detections_per_scene, gts_per_scene, iou_thresholds, iou_fn=rotated_iou_3d) -> dict[int, float | None]:
    """Per-class AP at 40 recall positions, as ``class_curves`` reports it: in class-id order, None without GT."""
    return {cls: ap for cls, (_, ap) in class_curves(detections_per_scene, gts_per_scene, iou_thresholds, iou_fn).items()}
