"""Rotated IoU geometry and AP_R40 against a brute-force PR enumeration."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import brute_force_ap_r40, rng
from pillarmamba.boxes import Box3D, Detection
from pillarmamba.errors import ContractViolation
from pillarmamba.metrics import (
    PrCurve,
    ap_r40,
    match_scene,
    rotated_iou_3d,
    rotated_iou_bev,
)


def box(x=0.0, y=0.0, z=0.0, l=4.0, w=2.0, h=1.5, yaw=0.0, cls=0) -> Box3D:
    return Box3D(x=x, y=y, z=z, l=l, w=w, h=h, yaw=yaw, cls=cls)


finite_boxes = st.builds(
    box,
    x=st.floats(-50, 50),
    y=st.floats(-50, 50),
    z=st.floats(-3, 3),
    l=st.floats(0.5, 8),
    w=st.floats(0.5, 4),
    h=st.floats(0.5, 3),
    yaw=st.floats(-math.pi, math.pi - 1e-9),
)


class TestRotatedIou:
    def test_identical_boxes(self):
        b = box(yaw=0.7)
        assert rotated_iou_bev(b, b) == pytest.approx(1.0, abs=1e-12)
        assert rotated_iou_3d(b, b) == pytest.approx(1.0, abs=1e-12)

    def test_axis_aligned_shift(self):
        # footprints 4x2 shifted by 1 along x: intersection 3*2=6, union 16-6=10
        a = box(x=0.0)
        b = box(x=1.0)
        assert rotated_iou_bev(a, b) == pytest.approx(0.6, abs=1e-12)

    def test_square_quarter_turn(self):
        a = box(l=2.0, w=2.0)
        b = box(l=2.0, w=2.0, yaw=math.pi / 2)
        assert rotated_iou_bev(a, b) >= 1.0 - 1e-9

    def test_disjoint(self):
        assert rotated_iou_bev(box(x=0.0), box(x=100.0)) == 0.0

    def test_rotated_overlap_hand_case(self):
        # 45-degree square inscribed in an axis-aligned square of side 2:
        # intersection is the rotated square itself (area 2), union 4
        a = box(l=2.0, w=2.0)
        b = box(l=math.sqrt(2.0), w=math.sqrt(2.0), yaw=math.pi / 4)
        assert rotated_iou_bev(a, b) == pytest.approx(2.0 / 4.0, abs=1e-9)

    @given(finite_boxes, finite_boxes)
    def test_symmetry(self, a, b):
        assert abs(rotated_iou_bev(a, b) - rotated_iou_bev(b, a)) <= 1e-12
        assert abs(rotated_iou_3d(a, b) - rotated_iou_3d(b, a)) <= 1e-12

    def test_symmetry_thousand_pairs(self):
        r = rng(0)
        for _ in range(1000):
            a = box(x=r.uniform(-20, 20), y=r.uniform(-20, 20), l=r.uniform(0.5, 6), w=r.uniform(0.5, 3), yaw=r.uniform(-3, 3))
            b = box(x=a.x + r.uniform(-3, 3), y=a.y + r.uniform(-3, 3), l=r.uniform(0.5, 6), w=r.uniform(0.5, 3), yaw=r.uniform(-3, 3))
            assert abs(rotated_iou_bev(a, b) - rotated_iou_bev(b, a)) <= 1e-12

    @given(
        finite_boxes,
        st.floats(-2, 2),
        st.floats(-2, 2),
        st.floats(-30, 30),
        st.floats(-30, 30),
        st.floats(-math.pi, math.pi),
    )
    def test_rigid_motion_invariance(self, a, dx, dy, tx, ty, phi):
        b = box(x=a.x + dx, y=a.y + dy, z=a.z, l=a.l, w=a.w, h=a.h, yaw=a.yaw + 0.4)
        base = rotated_iou_bev(a, b)
        c, s = math.cos(phi), math.sin(phi)

        def moved(bx):
            return Box3D(
                x=c * bx.x - s * bx.y + tx,
                y=s * bx.x + c * bx.y + ty,
                z=bx.z,
                l=bx.l,
                w=bx.w,
                h=bx.h,
                yaw=bx.yaw + phi,
                cls=bx.cls,
            )

        assert abs(rotated_iou_bev(moved(a), moved(b)) - base) < 1e-9

    def test_z_interval_decomposition(self):
        a = box(z=0.0, h=2.0)
        b = box(z=1.0, h=2.0)  # half the height overlaps
        inter = 8.0 * 1.0  # full footprint, 1m of z
        union = 16.0 + 16.0 - inter
        assert rotated_iou_3d(a, b) == pytest.approx(inter / union, abs=1e-12)
        assert rotated_iou_3d(box(z=0.0, h=1.0), box(z=5.0, h=1.0)) == 0.0

    def test_near_degenerate_counted(self):
        # eval counts such detections in its run report; the IoU itself is 0
        thin = box(l=1e-7, w=1e-7)
        assert rotated_iou_bev(thin, box()) == 0.0
        assert rotated_iou_3d(thin, box()) == 0.0

    def test_nonpositive_dims_rejected_at_construction(self):
        with pytest.raises(ContractViolation):
            box(l=0.0)


class TestMatching:
    def test_greedy_by_score(self):
        gt = [box(cls=0)]
        dets = [
            Detection(box=box(x=0.2), score=0.4),  # weaker but overlapping
            Detection(box=box(x=0.1), score=0.9),  # stronger, takes the GT
        ]
        result = match_scene(dets, gt, iou_threshold=0.3)
        assert result.scores == [0.9, 0.4]
        assert result.detection_to_gt == [0, None]
        assert result.gt_matched == [True]

    def test_each_gt_matched_once(self):
        gt = [box(), box(x=10.0)]
        dets = [Detection(box=box(x=0.05 * i), score=0.9 - 0.1 * i) for i in range(4)]
        result = match_scene(dets, gt, iou_threshold=0.3)
        assert sum(1 for g in result.detection_to_gt if g is not None) == 1

    def test_class_gating(self):
        gt = [box(cls=1)]
        dets = [Detection(box=box(cls=0), score=0.9)]
        result = match_scene(dets, gt, iou_threshold=0.1)
        assert result.detection_to_gt == [None]


class TestApR40:
    def test_perfect_detector(self):
        gts = [[box()]]
        dets = [[Detection(box=box(), score=0.9)]]
        assert ap_r40(dets, gts, {0: 0.5}) == {0: pytest.approx(1.0)}

    def test_no_detections(self):
        assert ap_r40([[]], [[box()]], {0: 0.5}) == {0: 0.0}

    def test_zero_gt_reports_none(self):
        dets = [[Detection(box=box(), score=0.9)]]
        assert ap_r40(dets, [[]], {0: 0.5}) == {0: None}

    def test_tp_then_fp_keeps_ap_one(self):
        gts = [[box()]]
        dets = [[Detection(box=box(), score=0.9), Detection(box=box(x=50.0), score=0.8)]]
        result = ap_r40(dets, gts, {0: 0.5})
        assert result[0] == pytest.approx(1.0)
        oracle = brute_force_ap_r40(dets, gts, cls=0, thr=0.5)
        assert result[0] == pytest.approx(oracle, abs=1e-12)

    def test_pr_curve_invariants(self):
        r = rng(1)
        n = 20
        is_tp = r.random(n) < 0.5
        scores = np.sort(r.random(n))[::-1]
        curve = PrCurve(scores=scores, is_tp=is_tp, n_gt=12)
        assert (np.diff(curve.recall) >= -1e-12).all()
        assert (curve.precision >= 0).all() and (curve.precision <= 1).all()

    def test_shuffle_invariance(self):
        r = rng(2)
        gts = [[box(x=float(i * 10)) for i in range(3)]]
        dets = [
            Detection(box=box(x=i * 10 + r.uniform(-0.3, 0.3)), score=float(r.uniform(0.2, 0.95)))
            for i in range(3)
        ] + [Detection(box=box(x=70.0), score=0.5)]
        base = ap_r40([dets], gts, {0: 0.5})[0]
        for _ in range(5):
            shuffled = [dets[i] for i in r.permutation(len(dets))]
            assert ap_r40([shuffled], gts, {0: 0.5})[0] == pytest.approx(base, abs=1e-12)

    def test_adding_top_tp_never_decreases(self):
        r = rng(3)
        for trial in range(10):
            gts = [[box(x=float(i * 10)) for i in range(4)]]
            dets = [
                Detection(box=box(x=i * 10 + r.uniform(-2.5, 2.5)), score=float(r.uniform(0.1, 0.8)))
                for i in range(3)
            ]
            base = ap_r40([dets], gts, {0: 0.3})[0]
            # a new true positive above every existing score
            extra = Detection(box=box(x=30.0), score=0.95)
            boosted = ap_r40([dets + [extra]], gts, {0: 0.3})[0]
            assert boosted >= base - 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_enumeration(self, seed):
        r = rng(100 + seed)
        n_scenes = int(r.integers(1, 3))
        gts, dets = [], []
        for _ in range(n_scenes):
            scene_gts = [
                box(x=float(r.uniform(0, 40) + 10 * i), y=float(r.uniform(-5, 5)), cls=int(r.integers(0, 2)))
                for i in range(int(r.integers(0, 4)))
            ]
            scene_dets = []
            for gt in scene_gts:
                if r.random() < 0.8:  # jittered copy, usually a match candidate
                    scene_dets.append(
                        Detection(
                            box=Box3D(
                                x=gt.x + r.uniform(-1.5, 1.5),
                                y=gt.y + r.uniform(-0.8, 0.8),
                                z=gt.z,
                                l=gt.l,
                                w=gt.w,
                                h=gt.h,
                                yaw=gt.yaw,
                                cls=gt.cls,
                            ),
                            score=float(r.uniform(0.05, 0.95)),
                        )
                    )
            for _ in range(int(r.integers(0, 3))):  # spurious detections
                scene_dets.append(
                    Detection(box=box(x=float(r.uniform(0, 60)), y=float(r.uniform(-8, 8)), cls=int(r.integers(0, 2))), score=float(r.uniform(0.05, 0.95)))
                )
            gts.append(scene_gts)
            dets.append(scene_dets[:10])
        result = ap_r40(dets, gts, {0: 0.25, 1: 0.25})
        for cls in (0, 1):
            oracle = brute_force_ap_r40(dets, gts, cls=cls, thr=0.25)
            if oracle is None:
                assert result[cls] is None
            else:
                assert result[cls] == pytest.approx(oracle, abs=1e-12)
