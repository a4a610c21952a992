"""The benchmark's traced layer sites must exist in the package and be called.

``perfbench/spans.py`` wraps public functions by module and attribute name.
Entering its ``installed`` context resolves every site first, so a rename in
the package fails here, in the unit tests, and not only in a traced
benchmark run. A tiny inference and training step must also call every site
its workload requires, so a call that bypasses a module attribute fails here
too. The file is loaded by path and never modified.
"""

import importlib
import sys
import types
from pathlib import Path

import numpy as np

from pillarmamba.backbone import STAGES
from pillarmamba.config import CsgToggles, HsbToggles, ModelConfig, RunConfig, SsmConfig, default_config, desk_grid
from pillarmamba.model import build_model
from pillarmamba.pillars import PointCloud
from test_model import BOX, GRID, _cloud, _small_model

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    # compiled from the source text, so no bytecode cache is written next to it
    module = types.ModuleType("perfbench_spans_under_test")
    module.__file__ = str(SPANS_PATH)
    sys.modules[module.__name__] = module  # dataclasses resolve their module by name
    try:
        exec(compile(SPANS_PATH.read_text(), str(SPANS_PATH), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def _current(site):
    owner = importlib.import_module(site.module)
    *path, name = site.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return getattr(owner, name)


def test_every_site_resolves_and_is_restored():
    spans = _load_spans()
    before = {site.key: _current(site) for site in spans.SITES}
    with spans.installed(spans.Tracer()):
        wrapped = [site.key for site in spans.SITES if _current(site) is not before[site.key]]
    assert wrapped == [site.key for site in spans.SITES]
    assert all(_current(site) is before[site.key] for site in spans.SITES)


def test_voxelize_counters_read_the_pillar_set():
    spans = _load_spans()
    pillars_mod = importlib.import_module("pillarmamba.pillars")
    cloud = PointCloud(np.array([[1.05, 0.05, -1.0, 0.1]] * 5 + [[99.0, 0.0, 0.0, 0.0]], dtype=np.float32))
    with spans.installed(spans.Tracer()) as tracer:
        result = pillars_mod.voxelize(cloud, desk_grid(), 3, default_config().model.encoder.max_pillars)
    assert tracer.counters["pillars.points_in"] == 6
    assert tracer.counters["pillars.pillars"] == 1
    assert tracer.counters["pillars.points_kept"] == len(result.points) == 3
    assert tracer.counters["pillars.dropped_over_capacity"] == 2
    assert tracer.counters["pillars.dropped_out_of_range"] == 1


def test_traced_workloads_call_every_required_site():
    # the benchmark's calls on the C=4 model and 8x8 grid of the whole-model checks; a site that a
    # refactor stops calling through its module attribute fails the coverage check here
    spans = _load_spans()
    metrics_mod = importlib.import_module("pillarmamba.metrics")
    model_mod = importlib.import_module("pillarmamba.model")
    model = _small_model(np.float32)
    with spans.installed(spans.Tracer()) as tracer:
        dets = model.detect(_cloud())
        metrics_mod.ap_r40([dets], [[BOX]], {BOX.cls: 0.5}, iou_fn=metrics_mod.rotated_iou_3d)
    spans.check_coverage(tracer, "infer_desk64")
    with spans.installed(spans.Tracer()) as tracer:
        model_mod.train_toy(model, _cloud(), [BOX], steps=1, lr=0.02)
    spans.check_coverage(tracer, "train_desk64")


def test_one_scan_per_ss2d():
    # each SS2D scans its four directions as one stack: one ssm_scan call, and four sweeps of the state; its one
    # gather_rows call is the flatten (the merge is gather_sum_rows), so the tensor.gather_rows span times it alone
    spans = _load_spans()
    with spans.installed(spans.Tracer()) as tracer:
        _small_model(np.float32).detect(_cloud())
    ss2d = STAGES * 2  # two HSBs per stage, one SS2D each
    assert tracer.calls["pillarmamba.blocks.ss2d_block"] == ss2d == 8
    assert tracer.calls["pillarmamba.ssm.ssm_scan"] == ss2d
    assert tracer.calls["pillarmamba.ssm.associative_scan"] == 4 * ss2d
    assert tracer.calls["pillarmamba.tensor.gather_rows"] == ss2d


def test_plain_hsb_chain_calls_the_traced_hsb_site():
    # with the CSG split off, each stage is a bare HSB chain; its HSBs must still reach the
    # blocks.hsb span through the module attribute the tracer wraps
    spans = _load_spans()
    model_cfg = ModelConfig(
        channels=4, csg=CsgToggles(enabled=False), hsb=HsbToggles(se_reduction=2), ssm=SsmConfig(state_dim=2)
    )
    model = build_model(RunConfig(grid=GRID, model=model_cfg), seed=3)
    with spans.installed(spans.Tracer()) as tracer:
        model.detect(_cloud())
    assert tracer.calls["pillarmamba.blocks.hsb_forward"] == STAGES * model_cfg.csg.hsb_layers
