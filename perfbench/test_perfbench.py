"""Tests of the benchmark's own arithmetic and of the trace's coverage guard."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

import spans
from stats import tail
from workloads import InferWorkload, TrainWorkload

from pillarmamba import ssm
from pillarmamba.config import default_config
from pillarmamba.pillars import GridSpec


def _span(name, start, end, parent=-1):
    return spans.Span(name, start, end, parent, "u0")


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------


def test_covered_length_merges_and_clips():
    assert spans.covered_length([], 0.0, 10.0) == 0.0
    assert spans.covered_length([(1, 3), (2, 4)], 0.0, 10.0) == 3.0  # overlap counted once
    assert spans.covered_length([(-5, 1), (9, 12)], 0.0, 10.0) == 2.0  # clipped to the parent
    assert spans.covered_length([(11, 12)], 0.0, 10.0) == 0.0
    assert spans.covered_length([(4, 5), (1, 2), (1.5, 2.5)], 0.0, 10.0) == 2.5


def test_self_time_subtracts_direct_children_only():
    tree = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("a.leaf", 2.0, 3.0, parent=1),
        _span("b", 6.0, 7.5, parent=0),
    ]
    assert spans.self_times(tree) == pytest.approx([10.0 - 3.0 - 1.5, 3.0 - 1.0, 1.0, 1.5])


def test_self_times_partition_a_root():
    tree = [
        _span("root", 0.0, 8.0),
        _span("x", 0.5, 5.0, parent=0),
        _span("y", 1.0, 2.0, parent=1),
        _span("z", 2.5, 4.0, parent=1),
        _span("w", 6.0, 7.0, parent=0),
    ]
    assert sum(spans.self_times(tree)) == pytest.approx(8.0)


# ---------------------------------------------------------------------------
# tail percentile and sample count
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n, pct", [(20, 50.0), (21, 100 * 11 / 21), (40, 75.0), (100, 90.0), (1000, 99.0), (10000, 99.9)])
def test_tail_has_exactly_ten_samples_beyond(n, pct):
    xs = [float(i) for i in range(n, 0, -1)]  # distinct, unsorted
    value, got = tail(xs)
    assert got == pytest.approx(pct)
    assert sum(x > value for x in xs) == 10
    assert value >= sorted(xs)[(n - 1) // 2]  # never below the median


@pytest.mark.parametrize("n", [1, 2, 5, 19, 20])
def test_tail_up_to_twenty_samples_is_the_median(n):
    xs = [float(i) for i in range(n)]
    value, pct = tail(xs)
    assert pct == 50.0
    assert value == pytest.approx((n - 1) / 2)


# ---------------------------------------------------------------------------
# coverage guard on a tiny grid
# ---------------------------------------------------------------------------


def tiny_config():
    cfg = default_config()
    return replace(
        cfg,
        grid=GridSpec(x_range=(0.0, 3.2), y_range=(-1.6, 1.6), z_range=(-3.0, 1.0), pillar_size=0.2),
        model=replace(cfg.model, channels=8),
        data=replace(cfg.data, counts={"vehicle": 0, "pedestrian": 2, "cyclist": 0}, points_per_box=32, background_points=64),
    )


@pytest.fixture(scope="module")
def traced_tiny_inference():
    wl = InferWorkload("infer_desk64", tiny_config, pool=2)
    state = wl.setup(seed=0)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        run = wl.run(state, seconds=0.0, tracer=tracer)  # one pass
    return tracer, run


def test_missing_site_fails_before_anything_is_wrapped():
    original = ssm.associative_scan
    renamed = spans.Site("pillarmamba.ssm", "ssm_scan_renamed", "ssm.scan", spans.ALL)
    with pytest.raises(spans.CoverageError, match="ssm_scan_renamed no longer exists"):
        with spans.installed(spans.Tracer(), sites=spans.SITES + (renamed,)):
            pass
    assert ssm.associative_scan is original


def test_missing_class_site_is_reported():
    gone = spans.Site("pillarmamba.tensor", "Recorder.record", None, spans.TRAIN)
    with pytest.raises(spans.CoverageError, match="Recorder is missing"):
        with spans.installed(spans.Tracer(), sites=(gone,)):
            pass


def test_wrappers_are_removed_after_the_trace(traced_tiny_inference):
    assert not hasattr(ssm.associative_scan, "__wrapped__")
    assert not hasattr(ssm.ssm_scan, "__wrapped__")


def test_inference_calls_every_site_it_must(traced_tiny_inference):
    tracer, _ = traced_tiny_inference
    spans.check_coverage(tracer, "infer_desk64")


def test_site_never_called_fails_loudly(traced_tiny_inference):
    tracer, _ = traced_tiny_inference
    with pytest.raises(spans.CoverageError, match="loss_on_scene") as err:
        spans.check_coverage(tracer, "train_desk64")
    assert "Tape.backward" in str(err.value)


def test_layer_metrics_on_tiny_inference(traced_tiny_inference):
    tracer, run = traced_tiny_inference
    m = spans.layer_metrics(tracer, units=len(run.unit_times), passes=len(run.eval_times), unit_times=run.unit_times)
    assert set(m) == set(spans.PER_LAYER_NAMES) - {"trace.overhead_s"}
    assert m["ssm.scan_calls"] == 32  # 4 stages x 2 HSB x 4 directions
    assert m["blocks.hsb_calls"] == 8
    assert m["tensor.tape_records"] == 0  # inference writes no tape
    assert m["model.update_s"] == 0.0
    assert 0 < m["pillars.points_kept_ratio"] <= 1
    stages = sum(m[f"backbone.stage{i}_s"] for i in range(spans.STAGES))
    assert 0 < stages <= m["backbone.forward_s"]
    in_scenes = [t for sp, t in zip(tracer.spans, spans.self_times(tracer.spans)) if sp.unit.startswith("scene")]
    assert 0 < sum(in_scenes) <= sum(run.unit_times)  # self times partition the traced part of each scene


def test_train_step_counts_on_tiny_grid(monkeypatch):
    import workloads

    monkeypatch.setattr(workloads, "TRAIN_STEPS", 2)
    monkeypatch.setattr(workloads, "desk_config", lambda channels: tiny_config())
    wl = TrainWorkload()
    state = wl.setup(seed=0)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        run = wl.run(state, seconds=0.0, tracer=tracer)
    spans.check_coverage(tracer, "train_desk64")
    m = spans.layer_metrics(tracer, units=len(run.unit_times), passes=0, unit_times=run.unit_times)
    assert len(run.unit_times) == 2 and run.failed == 0
    assert m["tensor.tape_records"] > 0
    assert m["ssm.assoc_scan_calls"] == 64  # 32 forward scans + 32 adjoint scans
    assert m["tensor.backward_s"] >= m["tensor.backward_self_s"] > 0
    tiny_reference = wl.reference()  # golden.json pins the real c07 config, not this grid
    monkeypatch.setattr(workloads, "load_golden", lambda name: tiny_reference)
    check = wl.check(state, run)
    assert check.failures == [] and math.isfinite(check.facts["train_loss_final"])


# ---------------------------------------------------------------------------
# detection order check
# ---------------------------------------------------------------------------


def _det(cls, x, score):
    from pillarmamba.boxes import Box3D, Detection

    return Detection(Box3D(x=x, y=0.0, z=0.0, l=1.0, w=1.0, h=1.0, yaw=0.0, cls=cls), score)


def test_order_check_allows_only_near_ties_to_swap():
    from workloads import SCORE_TOL, order_mismatch

    a, b, c = _det(0, 1.0, 0.5), _det(1, 2.0, 0.4), _det(2, 3.0, 0.3)
    assert order_mismatch([a, b, c], [a, b, c], top_k=100, threshold=0.1) is None
    b_tied = _det(1, 2.0, 0.5 - SCORE_TOL / 2)
    assert order_mismatch([a, b_tied], [b_tied, a], top_k=100, threshold=0.1) is None
    assert order_mismatch([a, b], [_det(0, 1.0, 0.4), _det(1, 2.0, 0.5)], top_k=100, threshold=0.1)
    assert order_mismatch([a, b], [a, _det(2, 2.0, 0.4)], top_k=100, threshold=0.1)  # class changed
    assert order_mismatch([a, b], [a], top_k=100, threshold=0.1)  # lost a detection far from any cut
    # top_k=2 cuts at the lowest kept score: a near-tie may fall on either side
    c_cut = _det(2, 3.0, 0.4 + SCORE_TOL / 2)
    assert order_mismatch([a, b], [a, c_cut], top_k=2, threshold=0.1) is None


def test_golden_mismatch_names_the_leaf():
    from workloads import golden_mismatch

    ref = {"a": {"sum": 1.0, "samples": [0.5, -2.0]}}
    assert golden_mismatch(ref, {"a": {"sum": 1.0 + 1e-12, "samples": [0.5, -2.0]}}) == []
    assert golden_mismatch(ref, {"a": {"sum": 1.0, "samples": [0.5, -2.001]}}) == [".a.samples[1]: -2.001 != reference -2.0"]
    assert golden_mismatch(ref, {"a": {"sum": 1.0, "samples": [0.5]}})
