"""Detection head: target construction, focal/L1 loss, peak decoding, round trip."""

import math

import numpy as np
import pytest

from conftest import perfect_raw_maps, rng
from pillarmamba import tensor as T
from pillarmamba.boxes import Box3D
from pillarmamba.config import default_config, desk_grid, full_scale_grid
from pillarmamba.data_io import SceneSpec, generate_scene
from pillarmamba.head import (
    REG_CHANNELS,
    RawMaps,
    build_targets,
    decode,
    detection_loss,
    gaussian_radius,
    head_forward,
    init_head_params,
)
from pillarmamba.pillars import GridSpec

HEAD = default_config().head


def small_grid() -> GridSpec:
    return GridSpec(x_range=(0.0, 3.2), y_range=(-1.6, 1.6), z_range=(-3.0, 1.0), pillar_size=0.2)


def logits_of(p: np.ndarray) -> np.ndarray:
    q = np.clip(p.astype(np.float64), 1e-6, 1 - 1e-6)
    return np.log(q / (1 - q))


class TestHeadForward:
    def test_channel_counts(self):
        params = init_head_params(rng(0), channels=8, n_classes=3)
        raw = head_forward(T.Tensor(rng(1).normal(size=(8, 8, 8))), params)
        assert T.value(raw.heatmap).shape == (3, 8, 8)
        assert T.value(raw.regression).shape == (REG_CHANNELS, 8, 8)

    def test_zero_weights_give_half_probability(self):
        params = init_head_params(rng(2), channels=4, n_classes=2)
        for p in T.collect_params(params):
            p.value.data[...] = 0.0
        raw = head_forward(T.Tensor(rng(3).normal(size=(4, 6, 6))), params)
        prob = 1 / (1 + np.exp(-T.value(raw.heatmap)))
        np.testing.assert_allclose(prob, 0.5, atol=1e-12)

    def test_determinism(self):
        params = init_head_params(rng(4), channels=4, n_classes=3)
        T.cast_params(params, np.float32)
        x = T.Tensor(rng(5).normal(size=(4, 6, 6)).astype(np.float32))
        a = T.value(head_forward(x, params).heatmap)
        b = T.value(head_forward(x, params).heatmap)
        np.testing.assert_array_equal(a, b)


class TestTargets:
    def test_empty_boxes(self):
        targets = build_targets([], small_grid(), n_classes=3, min_overlap=HEAD.gaussian_min_overlap)
        np.testing.assert_array_equal(targets.heatmap, 0.0)
        assert not targets.mask.any()
        assert targets.n_positives == 0

    def test_peak_exactly_one(self):
        box = Box3D(x=1.0, y=0.0, z=-1.0, l=0.8, w=0.8, h=1.7, yaw=0.3, cls=1)
        targets = build_targets([box], small_grid(), n_classes=3, min_overlap=HEAD.gaussian_min_overlap)
        assert targets.heatmap.max() == 1.0
        ix, iy = np.unravel_index(targets.heatmap[1].argmax(), targets.heatmap[1].shape)
        assert targets.heatmap[1, ix, iy] == 1.0
        assert targets.mask[ix, iy]
        assert targets.heatmap[[0, 2]].max() == 0.0

    def test_offset_example(self):
        grid = full_scale_grid()
        box = Box3D(x=10.05, y=3.31, z=-1.0, l=4.0, w=2.0, h=1.5, yaw=0.0, cls=0)
        targets = build_targets([box], grid, n_classes=3, min_overlap=HEAD.gaussian_min_overlap)
        assert targets.mask[50, 272]
        np.testing.assert_allclose(targets.regression[0, 50, 272], 0.25, atol=1e-4)
        np.testing.assert_allclose(targets.regression[1, 50, 272], 0.55, atol=1e-4)

    def test_out_of_range_skipped(self):
        box = Box3D(x=100.0, y=0.0, z=-1.0, l=1.0, w=1.0, h=1.0, yaw=0.0, cls=0)
        targets = build_targets([box], small_grid(), n_classes=3, min_overlap=HEAD.gaussian_min_overlap)
        assert targets.skipped_out_of_range == 1
        assert targets.n_positives == 0

    def test_overlapping_gaussians_max_combined(self):
        grid = desk_grid()
        boxes = [
            Box3D(x=5.0, y=0.0, z=-1.0, l=4.0, w=2.0, h=1.5, yaw=0.0, cls=0),
            Box3D(x=6.0, y=0.4, z=-1.0, l=4.0, w=2.0, h=1.5, yaw=0.0, cls=0),
        ]
        targets = build_targets(boxes, grid, n_classes=3, min_overlap=HEAD.gaussian_min_overlap)
        assert (targets.heatmap <= 1.0).all()
        assert targets.mask.sum() == 2

    def test_gaussian_radius_monotone_in_size(self):
        overlap = HEAD.gaussian_min_overlap
        assert gaussian_radius(4, 4, overlap) < gaussian_radius(10, 10, overlap) < gaussian_radius(30, 30, overlap)


class TestLoss:
    def test_perfect_prediction_near_zero(self):
        # 2.5-cell box -> splat radius 0 -> {0,1} heatmap, so the focal term vanishes
        box = Box3D(x=1.0, y=0.0, z=-1.0, l=0.5, w=0.5, h=1.7, yaw=0.5, cls=1)
        targets = build_targets([box], small_grid(), n_classes=3, min_overlap=HEAD.gaussian_min_overlap)
        assert set(np.unique(targets.heatmap)) == {0.0, 1.0}
        total, breakdown = detection_loss(perfect_raw_maps(targets), targets, reg_weight=HEAD.reg_weight)
        assert breakdown["l1"] == pytest.approx(0.0, abs=1e-9)
        assert breakdown["focal"] <= 1e-6
        assert total.item() <= 1e-6

    def test_empty_scene_confident_background(self):
        targets = build_targets([], small_grid(), n_classes=3, min_overlap=HEAD.gaussian_min_overlap)
        raw = RawMaps(
            heatmap=T.Tensor(np.full((3, 16, 16), -20.0)),
            regression=T.Tensor(np.zeros((8, 16, 16))),
        )
        total, _ = detection_loss(raw, targets, reg_weight=HEAD.reg_weight)
        assert 0.0 <= total.item() <= 1e-6

    def test_nonnegative_and_zero_only_at_fixed_point(self):
        box = Box3D(x=1.0, y=0.2, z=-1.0, l=0.8, w=0.8, h=1.7, yaw=0.0, cls=0)
        targets = build_targets([box], small_grid(), n_classes=3, min_overlap=HEAD.gaussian_min_overlap)
        r = rng(6)
        raw = RawMaps(
            heatmap=T.Tensor(r.normal(size=(3, 16, 16))),
            regression=T.Tensor(r.normal(size=(8, 16, 16))),
        )
        total, _ = detection_loss(raw, targets, reg_weight=HEAD.reg_weight)
        assert total.item() > 0.0

    def test_loss_gradient_check(self):
        box = Box3D(x=1.0, y=0.0, z=-1.0, l=0.8, w=0.8, h=1.7, yaw=0.5, cls=0)
        targets = build_targets([box], small_grid(), n_classes=2, min_overlap=HEAD.gaussian_min_overlap)
        r = rng(7)
        hm = T.Tensor(r.normal(size=(2, 16, 16)) * 0.5)
        reg = T.Tensor(r.normal(size=(8, 16, 16)) * 0.5)
        rep = T.grad_check(lambda h, g: detection_loss(RawMaps(h, g), targets, HEAD.reg_weight)[0], [hm, reg])
        assert rep.passed, rep

    def test_fifty_step_descent_trend(self):
        # direct optimization of raw maps against fixed targets
        box = Box3D(x=1.3, y=-0.3, z=-1.2, l=0.9, w=0.7, h=1.6, yaw=0.4, cls=0)
        targets = build_targets([box], small_grid(), n_classes=2, min_overlap=HEAD.gaussian_min_overlap)
        r = rng(8)
        hm = T.Param(r.normal(size=(2, 16, 16)) * 0.5)
        reg = T.Param(r.normal(size=(8, 16, 16)) * 0.5)
        losses = []
        for _ in range(50):
            with T.Tape() as tape:
                total, _ = detection_loss(RawMaps(T.add(hm, 0.0), T.add(reg, 0.0)), targets, reg_weight=HEAD.reg_weight)
            tape.backward(total)
            hm.value.data -= 0.5 * tape.grad(hm)
            reg.value.data -= 0.5 * tape.grad(reg)
            losses.append(total.item())
        assert np.mean(losses[-10:]) < 0.5 * np.mean(losses[:10])


class TestDecode:
    def test_all_below_threshold(self):
        grid = small_grid()
        raw = RawMaps(heatmap=T.Tensor(np.full((3, 16, 16), -5.0)), regression=T.Tensor(np.zeros((8, 16, 16))))
        assert decode(raw, grid, top_k=HEAD.top_k, score_threshold=0.1) == []

    def test_synthetic_peak_reconstruction(self):
        grid = full_scale_grid()
        hm = np.full((3, 512, 512), -12.0)
        hm[0, 50, 272] = logits_of(np.array(0.9))
        reg = np.zeros((8, 512, 512))
        reg[:, 50, 272] = (0.25, 0.55, -1.0, math.log(4.0), math.log(2.0), math.log(1.5), math.sin(0.3), math.cos(0.3))
        dets = decode(RawMaps(T.Tensor(hm), T.Tensor(reg)), grid, top_k=HEAD.top_k, score_threshold=0.1)
        assert len(dets) == 1
        det = dets[0]
        assert det.score == pytest.approx(0.9, abs=1e-9)
        assert det.box.x == pytest.approx(10.05, abs=1e-9)
        assert det.box.y == pytest.approx(3.31, abs=1e-9)
        assert det.box.z == pytest.approx(-1.0)
        assert (det.box.l, det.box.w, det.box.h) == pytest.approx((4.0, 2.0, 1.5))
        assert det.box.yaw == pytest.approx(0.3)
        assert det.box.cls == 0

    def test_equal_adjacent_peaks_keep_lowest_flat_index(self):
        grid = small_grid()
        hm = np.full((1, 16, 16), -9.0)
        hm[0, 4, 4] = hm[0, 4, 5] = logits_of(np.array(0.8))
        reg = np.zeros((8, 16, 16))
        reg[3:6] = math.log(0.5)
        dets = decode(RawMaps(T.Tensor(hm), T.Tensor(reg)), grid, top_k=HEAD.top_k, score_threshold=0.1)
        assert len(dets) == 1
        # lowest flat index = (4, 4); x = 0 + (4 + 0) * 0.2
        assert dets[0].box.x == pytest.approx(0.8)

    def test_sorted_and_topk_bounded(self):
        grid = small_grid()
        r = rng(9)
        hm = r.normal(size=(3, 16, 16)) * 2.0
        reg = np.zeros((8, 16, 16))
        dets = decode(RawMaps(T.Tensor(hm), T.Tensor(reg)), grid, top_k=5, score_threshold=0.05)
        assert len(dets) <= 5
        scores = [d.score for d in dets]
        assert scores == sorted(scores, reverse=True)

    def test_separate_class_maps_do_not_suppress(self):
        grid = small_grid()
        hm = np.full((2, 16, 16), -9.0)
        hm[0, 4, 4] = logits_of(np.array(0.9))
        hm[1, 4, 5] = logits_of(np.array(0.8))  # adjacent cell, other class
        reg = np.zeros((8, 16, 16))
        reg[3:6] = math.log(0.5)
        dets = decode(RawMaps(T.Tensor(hm), T.Tensor(reg)), grid, top_k=HEAD.top_k, score_threshold=0.1)
        assert {d.box.cls for d in dets} == {0, 1}

    def test_tied_scores_come_out_by_class_then_cell(self):
        # one pass over the class stack: equal scores keep (cls, ix, iy) order, before and after top_k
        grid = small_grid()
        hm = np.full((3, 16, 16), -9.0)
        tied = [(2, 1, 1), (0, 9, 9), (1, 5, 5), (0, 1, 12), (1, 1, 1)]
        for cls, ix, iy in tied:
            hm[cls, ix, iy] = logits_of(np.array(0.8))
        hm[2, 12, 3] = logits_of(np.array(0.9))
        reg = np.zeros((8, 16, 16))
        reg[3:6] = math.log(0.5)
        raw = RawMaps(T.Tensor(hm), T.Tensor(reg))

        def cells(dets):
            return [(d.box.cls, *(round(c) for c in grid.to_cells(d.box.x, d.box.y))) for d in dets]

        want = [(2, 12, 3), (0, 1, 12), (0, 9, 9), (1, 1, 1), (1, 5, 5), (2, 1, 1)]
        assert cells(decode(raw, grid, top_k=HEAD.top_k, score_threshold=0.1)) == want
        assert cells(decode(raw, grid, top_k=4, score_threshold=0.1)) == want[:4]


class TestRoundTrip:
    def test_targets_to_decode_recovers_boxes(self):
        grid = desk_grid()
        spec = SceneSpec(grid=grid, counts={"vehicle": 2, "pedestrian": 2, "cyclist": 1}, seed=11)
        _, boxes = generate_scene(spec)
        targets = build_targets(boxes, grid, n_classes=3, min_overlap=HEAD.gaussian_min_overlap)
        dets = decode(perfect_raw_maps(targets), grid, top_k=100, score_threshold=0.5)
        assert len(dets) == len(boxes)
        for gt in boxes:
            best = min(dets, key=lambda d: math.hypot(d.box.x - gt.x, d.box.y - gt.y))
            assert math.hypot(best.box.x - gt.x, best.box.y - gt.y) <= 0.1
            assert best.box.cls == gt.cls
            np.testing.assert_allclose(
                [best.box.l, best.box.w, best.box.h], [gt.l, gt.w, gt.h], rtol=1e-5
            )
            yaw_diff = abs((best.box.yaw - gt.yaw + math.pi) % (2 * math.pi) - math.pi)
            assert yaw_diff <= 1e-5
            np.testing.assert_allclose(best.box.z, gt.z, atol=1e-5)
