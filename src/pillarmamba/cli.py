"""Command-line pipeline: scene generation, inference, gradient checking,
single-scene training, AP evaluation, scan benchmarking, and scan-order
diagnostics.

Every command honors ``--seed``, prints a JSON run report on stdout, and
exits 0 on success, 1 on runtime failure (structured error on stderr), and
2 on usage errors. Set ``PILLARMAMBA_LOG={error|info|debug}`` for logging.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from . import tensor as T
from .backbone import stage_configs
from .boxes import CLASS_IDS, Box3D, Detection
from .config import RunConfig, config_digest, config_to_dict, default_config, load_config
from .cross_scan import scan_diagnostics
from .data_io import detection_from_record, detection_record, load_cloud, load_labels, load_manifest, read_json, write_dataset
from .errors import FormatError
from .metrics import ap_r40, pr_curve_for_class
from .model import PillarMambaModel, build_model, load_weights, save_weights, train_toy
from .ssm import SsmParamsDiscrete, apply_conv_form, scan_kernel, scan_parallel_arrays, scan_recurrent_arrays
from .verify import run_grad_suite

log = logging.getLogger("pillarmamba")


def _setup_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("PILLARMAMBA_LOG", "error").lower(), logging.ERROR
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _dump_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _load_cfg(args) -> RunConfig:
    return load_config(args.config) if args.config else default_config()


def _detections_payload(scene_name: str, dets: list[Detection]) -> dict:
    return {"scene": scene_name, "detections": [detection_record(d) for d in dets]}


def _detections_from_payload(payload, path: Path) -> list[Detection]:
    records = payload.get("detections") if isinstance(payload, dict) else None
    if not isinstance(records, list):
        raise FormatError(f"detections file {path}: expected an object with a 'detections' array")
    return [detection_from_record(rec, f"detections file {path} entry {i}") for i, rec in enumerate(records)]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen(args) -> dict:
    cfg = _load_cfg(args)
    manifest = write_dataset(args.out, cfg, n_scenes=args.scenes, seed=args.seed)
    return {"outputs": [str(manifest)], "metrics": {"scenes": args.scenes}}


_WORKER_STATE: dict = {}


def _forward_one(payload) -> dict:
    """Run one scene; usable from worker processes (model cached per process)."""
    cfg_dict, weights, seed, cloud_path, scene_name = payload
    key = (json.dumps(cfg_dict, sort_keys=True), weights, seed)
    if _WORKER_STATE.get("key") != key:
        from .config import config_from_dict

        cfg = config_from_dict(cfg_dict)
        model = build_model(cfg, seed=seed)
        if weights:
            load_weights(weights, model)
        _WORKER_STATE.update(key=key, model=model)
    model: PillarMambaModel = _WORKER_STATE["model"]
    dets = model.detect(load_cloud(cloud_path))
    return _detections_payload(scene_name, dets)


def cmd_forward(args) -> dict:
    cfg = _load_cfg(args)
    manifest_path = Path(args.manifest)
    manifest = load_manifest(manifest_path)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = [
        (config_to_dict(cfg), args.weights, args.seed, str(manifest_path.parent / cloud_rel), cloud_rel)
        for cloud_rel, _ in manifest.entries
    ]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            payloads = list(pool.map(_forward_one, jobs))
    else:
        payloads = [_forward_one(j) for j in jobs]
    outputs = []
    n_dets = 0
    for i, payload in enumerate(payloads):  # manifest order
        path = out_dir / f"dets_{i:04d}.json"
        _dump_json(path, payload)
        outputs.append(str(path))
        n_dets += len(payload["detections"])
    return {"outputs": outputs, "metrics": {"scenes": len(payloads), "detections": n_dets}}


def cmd_gradcheck(args) -> dict:
    reports = run_grad_suite(seeds_per_check=args.seeds)
    failures = [r for r in reports if not r.passed]
    for r in reports:
        log.info("%s", r)
    worst = max(r.max_rel_error for r in reports)
    print(f"gradcheck: {len(reports)} checks, {len(failures)} failures, worst rel error {worst:.3e}", file=sys.stderr)
    if failures:
        for r in failures:
            print(f"  {r}", file=sys.stderr)
        raise RuntimeError(f"{len(failures)} gradient checks failed")
    return {"outputs": [], "metrics": {"checks": len(reports), "worst_rel_error": worst}}


def cmd_train_toy(args) -> dict:
    cfg = _load_cfg(args)
    cloud_path = Path(args.scene)
    labels_path = cloud_path.with_suffix(".json")
    if not labels_path.exists():
        raise FormatError(f"no label file next to scene: expected {labels_path}")
    cloud = load_cloud(cloud_path)
    boxes = load_labels(labels_path)
    model = build_model(cfg, seed=args.seed)
    lr = args.lr if args.lr is not None else cfg.train.lr
    steps = args.steps if args.steps is not None else cfg.train.steps

    def log_step(step, breakdown):
        print(f"step {step:4d}: focal={breakdown['focal']:.4f} l1={breakdown['l1']:.4f} total={breakdown['total']:.4f}", file=sys.stderr)

    losses = train_toy(model, cloud, boxes, steps=steps, lr=lr, log_fn=log_step)
    save_weights(args.out, model)
    return {
        "outputs": [str(args.out)],
        "metrics": {"steps": steps, "lr": lr, "first_loss": losses[0], "final_loss": losses[-1]},
    }


def cmd_eval(args) -> dict:
    cfg = _load_cfg(args)
    manifest_path = Path(args.manifest)
    manifest = load_manifest(manifest_path)
    dets_dir = Path(args.dets)
    dets_per_scene: list[list[Detection]] = []
    gts_per_scene: list[list[Box3D]] = []
    for i, (_, labels_rel) in enumerate(manifest.entries):
        det_path = dets_dir / f"dets_{i:04d}.json"
        if not det_path.exists():
            raise FormatError(f"missing detections file {det_path} for manifest entry {i}")
        dets_per_scene.append(_detections_from_payload(read_json(det_path, "detections file"), det_path))
        gts_per_scene.append(load_labels(manifest_path.parent / labels_rel))

    thresholds = {CLASS_IDS[name]: thr for name, thr in cfg.eval.iou_thresholds.items()}
    ap = ap_r40(dets_per_scene, gts_per_scene, thresholds)
    per_class = {}
    for name, thr in cfg.eval.iou_thresholds.items():
        cls = CLASS_IDS[name]
        curve = pr_curve_for_class(dets_per_scene, gts_per_scene, cls, thr)
        matched = int(curve.is_tp.sum())
        per_class[name] = {
            "ap_r40": ap[cls],
            "iou_threshold": thr,
            "gt_count": curve.n_gt,
            "tp": matched,
            "fp": int((~curve.is_tp).sum()),
            "pr": {"recall": curve.recall.tolist(), "precision": curve.precision.tolist()},
        }
    defined = [v for v in ap.values() if v is not None]
    metrics = {
        "per_class": per_class,
        "mean_ap_r40": float(np.mean(defined)) if defined else None,
        "scenes": len(manifest.entries),
    }
    out_path = Path(args.out) if args.out else dets_dir / "metrics.json"
    _dump_json(out_path, metrics)
    summary = {name: per_class[name]["ap_r40"] for name in per_class}
    return {"outputs": [str(out_path)], "metrics": {"ap_r40": summary, "mean_ap_r40": metrics["mean_ap_r40"]}}


def _digest_array(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def cmd_bench(args) -> dict:
    cfg = _load_cfg(args)
    rng = np.random.Generator(np.random.PCG64(args.seed))
    rows: list[dict] = []

    # scan-form microbenchmark at the shape the network scans: the grid's token
    # count by the HSB inner width
    t_len = cfg.grid.x_cells * cfg.grid.y_cells
    d, m = stage_configs(cfg.model)[1].inner_channels, cfg.model.ssm.state_dim
    forms = [args.form] if args.form else ["recurrent", "parallel", "conv"]
    ab = rng.uniform(-0.95, 0.95, (d, m))
    bb = rng.normal(size=(d, m))
    cb = rng.normal(size=(d, m))
    x = rng.normal(size=(t_len, d))
    for form in forms:
        times = []
        digests = set()
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            if form == "recurrent":
                y = scan_recurrent_arrays(ab, bb, cb, x)
            elif form == "parallel":
                y = scan_parallel_arrays(ab, bb, cb, x)
            elif form == "conv":
                y = np.stack(
                    [
                        apply_conv_form(x[:, ch], scan_kernel(SsmParamsDiscrete(ab[ch], bb[ch], cb[ch]), t_len))
                        for ch in range(d)
                    ],
                    axis=1,
                )
            else:
                raise FormatError(f"unknown scan form {form!r}")
            times.append(time.perf_counter() - t0)
            digests.add(_digest_array(y))
        if len(digests) != 1:
            raise RuntimeError(f"bench altered outputs across repeats for form {form}")
        rows.append(
            {
                "section": "scan_form",
                "name": form,
                "seq_len": t_len,
                "channels": d,
                "repeat": args.repeat,
                "best_s": min(times),
                "mean_s": float(np.mean(times)),
                "output_digest": digests.pop(),
            }
        )

    # block benchmark: backbone forward with and without the cross-stage split
    from dataclasses import replace

    from .blocks import flops_csg, flops_plain_stack

    for csg_enabled in (True, False):
        variant_cfg = replace(cfg, model=replace(cfg.model, csg=replace(cfg.model.csg, enabled=csg_enabled)))
        model = build_model(variant_cfg, seed=args.seed)
        bev = T.Tensor(
            rng.normal(size=(cfg.model.channels, cfg.grid.x_cells, cfg.grid.y_cells)).astype(np.float32)
        )
        from .pillars import BevMap

        times = []
        digests = set()
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            pyr = model.backbone_forward(BevMap(bev, cfg.grid))
            times.append(time.perf_counter() - t0)
            digests.add(_digest_array(T.value(pyr.f5)))
        if len(digests) != 1:
            raise RuntimeError("bench altered outputs across repeats for backbone")
        x_cells, y_cells = cfg.grid.x_cells, cfg.grid.y_cells
        csg_cfg, hsb_cfg = stage_configs(variant_cfg.model)
        if csg_cfg is not None:
            stage_flops = flops_csg(csg_cfg, hsb_cfg, x_cells, y_cells)
        else:
            stage_flops = flops_plain_stack(hsb_cfg, cfg.model.csg.hsb_layers, x_cells, y_cells)
        rows.append(
            {
                "section": "backbone",
                "name": "csg" if csg_enabled else "no_csg",
                "repeat": args.repeat,
                "best_s": min(times),
                "mean_s": float(np.mean(times)),
                "stage1_mac_count": stage_flops,
                "output_digest": digests.pop(),
            }
        )

    out_dir = Path(args.out) if args.out else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / "bench.json"
    csv_path = out_dir / "bench.csv"
    _dump_json(json_path, {"rows": rows})
    fields = sorted({k for row in rows for k in row})
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    return {"outputs": [str(json_path), str(csv_path)], "metrics": {"rows": len(rows)}}


def cmd_diagnose_scan(args) -> dict:
    try:
        gx, gy = (int(v) for v in args.grid.lower().split("x"))
    except ValueError as exc:
        raise FormatError(f"--grid must look like 16x16, got {args.grid!r}") from exc
    occupancy = None
    if args.occupancy:
        raw = read_json(args.occupancy, "occupancy file")
        occupancy = np.asarray(raw, dtype=bool)
        if occupancy.shape != (gx, gy):
            raise FormatError(f"occupancy shape {occupancy.shape} does not match grid {gx}x{gy}")
    report = scan_diagnostics(gx, gy, occupancy)
    if args.out:
        _dump_json(Path(args.out), report)
        return {"outputs": [args.out], "metrics": {"grid": [gx, gy]}}
    print(json.dumps(report, sort_keys=True, indent=1))
    return {"outputs": [], "metrics": {"grid": [gx, gy]}}


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pillarmamba",
        description="Pillar BEV + selective state-space detection pipeline (desk scale)",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config path (defaults to the built-in desk-scale config)")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gen", help="generate synthetic scenes and a manifest")
    add_common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--scenes", type=int, default=4)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("forward", help="run inference over a manifest")
    add_common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--weights", help="weights file; omitted = seeded random init")
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=cmd_forward)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite; exit 1 on failure")
    add_common(p)
    p.add_argument("--seeds", type=int, default=20, help="seeded shapes per operator")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("train-toy", help="gradient descent on one scene")
    add_common(p)
    p.add_argument("--scene", required=True, help="cloud .bin path; labels at same stem .json")
    p.add_argument("--steps", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--out", required=True, help="weights output path")
    p.set_defaults(fn=cmd_train_toy)

    p = sub.add_parser("eval", help="AP_R40 over saved detections")
    add_common(p)
    p.add_argument("--dets", required=True, help="directory holding dets_NNNN.json")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", help="metrics JSON path (default: <dets>/metrics.json)")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("bench", help="wall-time of scan forms and CSG on/off backbones")
    add_common(p)
    p.add_argument("--form", choices=["recurrent", "parallel", "conv"], help="restrict scan-form section")
    p.add_argument("--repeat", type=int, default=3)
    p.add_argument("--out", help="output directory for bench.json/bench.csv")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("diagnose-scan", help="neighbor-distance and empty-run statistics")
    add_common(p)
    p.add_argument("--grid", required=True, help="grid extents, e.g. 16x16")
    p.add_argument("--occupancy", help="JSON 2-D 0/1 array matching the grid")
    p.add_argument("--out", help="write report JSON here instead of stdout")
    p.set_defaults(fn=cmd_diagnose_scan)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    np.seterr(over="ignore", invalid="ignore", divide="ignore")
    t0 = time.perf_counter()
    try:
        result = args.fn(args)
    except Exception as exc:  # structured failure, exit 1
        log.debug("command failed", exc_info=True)
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}), file=sys.stderr)
        return 1
    cfg = None
    try:
        cfg = _load_cfg(args)
    except Exception:
        pass
    report = {
        "command": args.command,
        "config_digest": config_digest(cfg) if cfg else None,
        "seed": getattr(args, "seed", None),
        "wall_time_s": round(time.perf_counter() - t0, 4),
        "outputs": result.get("outputs", []),
        "metrics": result.get("metrics", {}),
    }
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
