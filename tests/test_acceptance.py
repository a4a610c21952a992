"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here, not configurable.
"""

import json
import math
import time

import numpy as np

from conftest import (
    ZOH_SERIES_SWITCH,
    apply_conv_form,
    brute_force_ap_r40,
    class_sweep_scan,
    lift,
    perfect_raw_maps,
    recurrent_scan,
    rng,
    scan_kernel,
    sequential_scan,
    zoh_factors,
)
from pillarmamba import cli
from pillarmamba.boxes import Box3D, Detection
from pillarmamba.config import config_to_dict, default_config, desk_grid
from pillarmamba.cross_scan import DIRECTIONS, direction_permutations
from pillarmamba.data_io import SceneSpec, generate_scene, scene_spec_from_config
from pillarmamba.head import build_targets, decode
from pillarmamba.metrics import ap_r40, rotated_iou_bev
from pillarmamba.model import build_model, train_toy
from pillarmamba.verify import run_grad_suite


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def test_c01_scan_form_equivalence():
    # the recurrent form against the causal convolution, on random time-invariant parameters
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(50):
        r = rng(seed)
        m, d, t_len = int(r.integers(1, 9)), int(r.integers(1, 5)), int(r.integers(1, 65))
        x = r.normal(size=(t_len, d))
        for ch in range(d):
            a_bar, b_bar, c_bar = r.uniform(-0.99, 0.99, m), r.normal(size=m), r.normal(size=m)
            y_rec = recurrent_scan(a_bar, b_bar, c_bar, x[:, ch])[:, 0]
            y_conv = apply_conv_form(x[:, ch], scan_kernel(a_bar, b_bar, c_bar, t_len))
            worst = max(worst, float(np.abs(y_rec - y_conv).max()))
    elapsed = time.monotonic() - t0
    _report(
        "1 recurrent-vs-conv-form",
        worst <= 1e-6 and elapsed < 5.0,
        f"max_abs_dev={worst:.3e} <= 1e-6, {elapsed:.2f}s < 5s",
    )


def test_c02_parallel_vs_sequential():
    # the detector's sweep (class_scan in scan order) against the sequential oracle, time-invariant and per-step
    # parameters alternating; exhaustive coverage of T in {1, 2, 3}
    t0 = time.monotonic()
    cases = [(t, 1, 1) for t in (1, 2, 3)]
    cases += [(int(r.integers(1, 65)), int(r.integers(1, 5)), int(r.integers(1, 9))) for r in map(rng, range(1000, 1050))]
    worst = 0.0
    for idx, (t_len, d, m) in enumerate(cases):
        r = rng(2000 + idx)
        shape = (t_len, d, m) if idx % 2 == 1 else (d, m)
        a, u, c = lift(r.uniform(-0.99, 0.99, shape), r.normal(size=shape), r.normal(size=shape), r.normal(size=(t_len, d)))
        y_seq = (c * sequential_scan(a, u)).sum(axis=-1)
        y_par = (c * class_sweep_scan(a, u)).sum(axis=-1)
        worst = max(worst, float(np.abs(y_seq - y_par).max()))
    elapsed = time.monotonic() - t0
    _report(
        "2 parallel-vs-sequential",
        worst <= 1e-6 and elapsed < 5.0,
        f"max_abs_dev={worst:.3e} <= 1e-6 (incl. per-step, T=1..3 exhaustive), {elapsed:.2f}s < 5s",
    )


def test_c03_zoh_correctness():
    a_bar, scale = zoh_factors(np.array([-1.0]), 0.5)
    b_err = abs(scale[0] * 2.0 - (1.0 - math.exp(-0.5)) * 2.0)
    a_err = abs(a_bar[0] - math.exp(-0.5))
    # series branch vs exact formula at the |delta*a| = 1e-6 switchover
    seam_err = 0.0
    for a in (-1.0, -2.0, 2.0e-6):
        for b in (2.0, -3.0, 0.7):
            delta = ZOH_SERIES_SWITCH / abs(a)
            z = delta * a
            seam_err = max(seam_err, abs(delta * (1.0 + 0.5 * z) * b - np.expm1(z) / a * b))
    passed = b_err <= 1e-9 and a_err <= 1e-9 and seam_err <= 1e-9
    _report(
        "3 zoh-closed-form",
        passed,
        f"b_bar_err={b_err:.2e}, a_bar_err={a_err:.2e}, seam_err={seam_err:.2e} all <= 1e-9",
    )


def test_c04_cross_scan_bijection():
    worst_cases = []
    sizes = [(2, 2), (3, 3)]
    r = rng(77)
    sizes += [(int(r.integers(1, 33)), int(r.integers(1, 33))) for _ in range(20)]
    ok = True
    for x_cells, y_cells in sizes:
        tokens = r.normal(size=(x_cells * y_cells, 3))
        for d, perm, inv in zip(DIRECTIONS, *direction_permutations(x_cells, y_cells), strict=True):
            if not np.array_equal(tokens[perm][inv], tokens):
                ok = False
                worst_cases.append((x_cells, y_cells, d))
    _report("4 cross-scan-bijection", ok, f"{len(sizes)} grids x 4 directions, exact equality; failures={worst_cases}")


def test_c05_gradient_checks():
    t0 = time.monotonic()
    reports = run_grad_suite(seeds_per_check=20)
    elapsed = time.monotonic() - t0
    failures = [str(r) for r in reports if not r.passed]
    worst = max(r.max_rel_error for r in reports)
    _report(
        "5 finite-difference-gradients",
        not failures and elapsed < 60.0,
        f"{len(reports)} checks, worst rel err {worst:.2e} <= 1e-4, {elapsed:.1f}s < 60s; failures={failures[:3]}",
    )


def test_c06_detection_round_trip():
    grid = desk_grid()
    spec = SceneSpec(grid=grid, counts={"vehicle": 2, "pedestrian": 2, "cyclist": 1}, seed=11)
    _, boxes = generate_scene(spec)
    targets = build_targets(boxes, grid, n_classes=3, min_overlap=default_config().head.gaussian_min_overlap)
    dets = decode(perfect_raw_maps(targets), grid, top_k=100, score_threshold=0.5)
    ok = len(dets) == len(boxes)
    worst_center, worst_dim, worst_yaw = 0.0, 0.0, 0.0
    for gt in boxes:
        best = min(dets, key=lambda d: math.hypot(d.box.x - gt.x, d.box.y - gt.y))
        center_err = math.hypot(best.box.x - gt.x, best.box.y - gt.y)
        dim_err = max(abs(best.box.l - gt.l), abs(best.box.w - gt.w), abs(best.box.h - gt.h))
        yaw_err = abs((best.box.yaw - gt.yaw + math.pi) % (2 * math.pi) - math.pi)
        worst_center = max(worst_center, center_err)
        worst_dim = max(worst_dim, dim_err)
        worst_yaw = max(worst_yaw, yaw_err)
        ok = ok and center_err <= 0.1 and dim_err <= 1e-5 and yaw_err <= 1e-5 and abs(best.box.z - gt.z) <= 1e-5
    _report(
        "6 detection-round-trip",
        ok,
        f"{len(boxes)} boxes recovered; center<= {worst_center:.2e} m (0.1), dims<= {worst_dim:.2e} (1e-5), yaw<= {worst_yaw:.2e} (1e-5)",
    )


def test_c07_toy_overfit():
    from dataclasses import replace

    t0 = time.monotonic()
    cfg = default_config()
    cfg = replace(cfg, model=replace(cfg.model, channels=32))
    assert (cfg.grid.x_cells, cfg.grid.y_cells) == (64, 64)
    net = build_model(cfg, seed=0)
    cloud, boxes = generate_scene(scene_spec_from_config(cfg, seed=7))
    losses = train_toy(net, cloud, boxes, steps=300, lr=cfg.train.lr)
    elapsed = time.monotonic() - t0
    ratio = losses[-1] / losses[0]
    tail = [loss / losses[0] for loss in losses[-50:]]  # information only: how far the gated ratio still swings
    dets = net.detect(cloud)
    best_iou = max((rotated_iou_bev(dets[0].box, g) for g in boxes), default=0.0) if dets else 0.0
    _report(
        "7 toy-overfit",
        ratio <= 0.10 and best_iou >= 0.5 and elapsed < 600.0,
        f"loss {losses[0]:.3f}->{losses[-1]:.3f} (ratio {ratio:.3f} <= 0.10; last 50 steps {min(tail):.3f}-{max(tail):.3f}), "
        f"top-box BEV IoU {best_iou:.3f} >= 0.5, {elapsed:.0f}s < 600s",
    )


def test_c08_csg_efficiency_direction(tmp_path):
    t0 = time.monotonic()
    raw = config_to_dict(default_config())
    raw["grid"] = {"x_range": [0.0, 6.4], "y_range": [-3.2, 3.2], "z_range": [-3.0, 1.0], "pillar_size": 0.2}
    raw["model"]["channels"] = 64  # widest split-vs-plain margin, still sub-second per pass
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    rc = cli.main(["bench", "--config", str(cfg_path), "--repeat", "5", "--out", str(tmp_path), "--seed", "0"])
    assert rc == 0
    rows = {r["name"]: r for r in json.loads((tmp_path / "bench.json").read_text())["rows"] if r["section"] == "backbone"}
    flops_ok = rows["csg"]["stage1_mac_count"] < rows["no_csg"]["stage1_mac_count"]
    time_ok = rows["csg"]["best_s"] < rows["no_csg"]["best_s"]
    elapsed = time.monotonic() - t0
    _report(
        "8 csg-efficiency-direction",
        flops_ok and time_ok and elapsed < 120.0,
        f"MACs {rows['csg']['stage1_mac_count']:,} < {rows['no_csg']['stage1_mac_count']:,}; "
        f"wall {rows['csg']['best_s']:.3f}s < {rows['no_csg']['best_s']:.3f}s; total {elapsed:.0f}s < 120s",
    )


def test_c09_ap_matches_brute_force():
    mismatches = []
    for seed in range(10):
        r = rng(900 + seed)
        gts, dets = [], []
        for _ in range(int(r.integers(1, 3))):
            scene_gts = [
                Box3D(
                    x=float(r.uniform(5, 55) + 8 * i), y=float(r.uniform(-6, 6)), z=-1.0,
                    l=4.0, w=2.0, h=1.5, yaw=float(r.uniform(-3, 3)), cls=int(r.integers(0, 2)),
                )
                for i in range(int(r.integers(0, 4)))
            ]
            scene_dets = []
            for gt in scene_gts:
                if r.random() < 0.75:
                    scene_dets.append(
                        Detection(
                            box=Box3D(x=gt.x + r.uniform(-1.5, 1.5), y=gt.y + r.uniform(-0.8, 0.8), z=gt.z,
                                      l=gt.l, w=gt.w, h=gt.h, yaw=gt.yaw, cls=gt.cls),
                            score=float(r.uniform(0.05, 0.95)),
                        )
                    )
            for _ in range(int(r.integers(0, 3))):
                scene_dets.append(
                    Detection(
                        box=Box3D(x=float(r.uniform(0, 70)), y=float(r.uniform(-9, 9)), z=-1.0,
                                  l=4.0, w=2.0, h=1.5, yaw=0.0, cls=int(r.integers(0, 2))),
                        score=float(r.uniform(0.05, 0.95)),
                    )
                )
            gts.append(scene_gts)
            dets.append(scene_dets[:10])
        got = ap_r40(dets, gts, {0: 0.25, 1: 0.25})
        for cls in (0, 1):
            want = brute_force_ap_r40(dets, gts, cls=cls, thr=0.25)
            if (want is None) != (got[cls] is None) or (want is not None and abs(got[cls] - want) > 0):
                mismatches.append((seed, cls, got[cls], want))
    _report("9 ap-brute-force-oracle", not mismatches, f"10 micro-datasets x 2 classes exact; mismatches={mismatches}")


def test_c10_pipeline_determinism(tmp_path):
    raw = config_to_dict(default_config())
    raw["model"]["channels"] = 16
    raw["model"]["ssm"]["state_dim"] = 2
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    blobs = []
    for run in ("one", "two"):
        base = tmp_path / run
        assert cli.main(["gen", "--config", str(cfg_path), "--out", str(base / "data"), "--scenes", "3", "--seed", "21"]) == 0
        assert cli.main(
            ["forward", "--config", str(cfg_path), "--manifest", str(base / "data/manifest.json"), "--out", str(base / "dets"), "--seed", "4"]
        ) == 0
        assert cli.main(
            ["eval", "--config", str(cfg_path), "--dets", str(base / "dets"), "--manifest", str(base / "data/manifest.json")]
        ) == 0
        blobs.append((base / "dets/metrics.json").read_bytes())
    _report("10 pipeline-determinism", blobs[0] == blobs[1], f"metrics JSON byte-identical across runs ({len(blobs[0])} bytes)")
