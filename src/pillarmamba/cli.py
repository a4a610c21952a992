"""Command-line pipeline: scene generation, inference, gradient checking,
single-scene training, AP evaluation, CSG backbone benchmark, and scan-order
diagnostics.

Every command accepts ``--seed`` and echoes it in its run report; ``gen``,
``forward``, ``train-toy`` and ``bench`` draw from it, while ``gradcheck``,
``eval`` and ``diagnose-scan`` use it for nothing more. Every command prints
a JSON run report on stdout, and exits 0 on success, 1 on runtime failure
(structured error on stderr; a closed or full stdout is one), and 2 on usage
errors. Set ``PILLARMAMBA_LOG={error|info|debug}`` for the ``pillarmamba``
logger's level.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

try:
    import resource
except ImportError:  # POSIX only: on Windows the run report carries no process figures
    resource = None

from . import __version__
from . import tensor as T
from .backbone import backbone_forward
from .blocks import flops_stage
from .boxes import CLASS_IDS, CLASS_NAMES, Box3D, Detection
from .config import RunConfig, config_digest, default_config, load_config
from .cross_scan import scan_diagnostics
from .data_io import detection_from_record, detection_record, load_cloud, load_labels, load_manifest, read_json, write_dataset
from .errors import FormatError
from .metrics import MIN_VOLUME, class_curves
from .model import build_model, load_weights, save_weights, train_toy
from .verify import run_grad_suite

log = logging.getLogger("pillarmamba")


class _StderrHandler(logging.StreamHandler):
    """Writes each record to the ``sys.stderr`` of the moment, where the structured error line goes too."""

    def __init__(self):
        logging.Handler.__init__(self)  # StreamHandler's would bind the stream once
        self.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))

    @property
    def stream(self):
        return sys.stderr


_HANDLER = _StderrHandler()


def _setup_logging() -> None:
    """Set the ``pillarmamba`` logger's level from ``PILLARMAMBA_LOG``; the root logger is left alone."""
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("PILLARMAMBA_LOG", "error").lower(), logging.ERROR
    )
    log.setLevel(level)
    log.addHandler(_HANDLER)  # a no-op once it is there


def _dump_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


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


def cmd_gen(args, cfg: RunConfig) -> dict:
    manifest = write_dataset(args.out, cfg, n_scenes=args.scenes, seed=args.seed)
    return {"outputs": [str(manifest)], "metrics": {"scenes": args.scenes}}


def cmd_forward(args, cfg: RunConfig) -> dict:
    manifest_path = Path(args.manifest)
    manifest = load_manifest(manifest_path)
    model = build_model(cfg, seed=args.seed)
    if args.weights:
        load_weights(args.weights, model)
    # every scene runs before anything is written, so a bad cloud anywhere in the manifest leaves no output behind
    payloads = []
    n_dets = 0
    for cloud_rel, _ in manifest.entries:
        dets = model.detect(load_cloud(manifest_path.parent / cloud_rel))
        payloads.append(_detections_payload(cloud_rel, dets))
        n_dets += len(dets)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for i, payload in enumerate(payloads):
        path = out_dir / f"dets_{i:04d}.json"
        _dump_json(path, payload)
        outputs.append(str(path))
    dropped = {key: model.dropped[key] for key in ("dropped_out_of_range", "dropped_over_capacity", "dropped_pillars")}
    return {"outputs": outputs, "metrics": {"scenes": len(outputs), "detections": n_dets, **dropped}}


def cmd_gradcheck(args, cfg: RunConfig) -> dict:
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


def cmd_train_toy(args, cfg: RunConfig) -> dict:
    # the overrides take TrainConfig's checks, as the config's own values do
    overrides = {k: v for k, v in (("lr", args.lr), ("steps", args.steps)) if v is not None}
    train = replace(cfg.train, **overrides)
    lr, steps = train.lr, train.steps
    cloud_path = Path(args.scene)
    labels_path = cloud_path.with_suffix(".json")
    if not labels_path.exists():
        raise FormatError(f"no label file next to scene: expected {labels_path}")
    cloud = load_cloud(cloud_path)
    boxes = load_labels(labels_path)
    model = build_model(cfg, seed=args.seed)

    def log_step(step, breakdown):
        print(f"step {step:4d}: focal={breakdown['focal']:.4f} l1={breakdown['l1']:.4f} total={breakdown['total']:.4f}", file=sys.stderr)

    losses = train_toy(model, cloud, boxes, steps=steps, lr=lr, log_fn=log_step)
    save_weights(args.out, model)
    tail = losses[-max(len(losses) // 10, 1) :]  # the last tenth of the steps: how far the loss still swings
    return {
        "outputs": [str(args.out)],
        "metrics": {
            "steps": steps,
            "lr": lr,
            "first_loss": losses[0],
            "final_loss": losses[-1],
            "tail_steps": len(tail),
            "tail_loss_min": min(tail),
            "tail_loss_max": max(tail),
        },
    }


def cmd_eval(args, cfg: RunConfig) -> dict:
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
    per_class = {}
    for cls, (curve, ap) in class_curves(dets_per_scene, gts_per_scene, thresholds).items():
        per_class[CLASS_NAMES[cls]] = {
            "ap_r40": ap,
            "iou_threshold": thresholds[cls],
            "gt_count": curve.n_gt,
            "tp": int(curve.is_tp.sum()),
            "fp": int((~curve.is_tp).sum()),
            "pr": {"recall": curve.recall.tolist(), "precision": curve.precision.tolist()},
        }
    defined = [row["ap_r40"] for row in per_class.values() if row["ap_r40"] is not None]
    metrics = {
        "per_class": per_class,
        "mean_ap_r40": float(np.mean(defined)) if defined else None,
        "scenes": len(manifest.entries),
    }
    out_path = Path(args.out) if args.out else dets_dir / "metrics.json"
    _dump_json(out_path, metrics)
    summary = {name: per_class[name]["ap_r40"] for name in per_class}
    degenerate = sum(d.box.volume < MIN_VOLUME for dets in dets_per_scene for d in dets)
    return {
        "outputs": [str(out_path)],
        "metrics": {"ap_r40": summary, "mean_ap_r40": metrics["mean_ap_r40"], "degenerate_detections": degenerate},
    }


def _digest_array(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def cmd_bench(args, cfg: RunConfig) -> dict:
    rng = np.random.Generator(np.random.PCG64(args.seed))
    x_cells, y_cells = cfg.grid.x_cells, cfg.grid.y_cells
    rows: list[dict] = []
    for csg_enabled in (True, False):
        variant_cfg = replace(cfg, model=replace(cfg.model, csg=replace(cfg.model.csg, enabled=csg_enabled)))
        model = build_model(variant_cfg, seed=args.seed)
        bev = T.Tensor(rng.normal(size=(cfg.model.channels, x_cells, y_cells)).astype(np.float32))
        times = []
        digests = set()
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            pyr = backbone_forward(bev, variant_cfg.model, model.backbone)
            times.append(time.perf_counter() - t0)
            digests.add(_digest_array(T.value(pyr.f5)))
        if len(digests) != 1:
            raise RuntimeError("bench altered outputs across repeats for backbone")
        rows.append(
            {
                "section": "backbone",
                "name": "csg" if csg_enabled else "no_csg",
                "repeat": args.repeat,
                "best_s": min(times),
                "mean_s": float(np.mean(times)),
                "stage1_mac_count": flops_stage(variant_cfg.model, x_cells, y_cells),
                "output_digest": digests.pop(),
            }
        )

    out_dir = Path(args.out) if args.out else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / "bench.json"
    _dump_json(json_path, {"rows": rows})
    return {"outputs": [str(json_path)], "metrics": {"rows": len(rows)}}


def cmd_diagnose_scan(args, cfg: RunConfig) -> dict:
    try:
        gx, gy = (int(v) for v in args.grid.lower().split("x"))
    except ValueError:
        gx = gy = 0
    if min(gx, gy) < 1:
        raise FormatError(f"--grid must look like 16x16, got {args.grid!r}")
    occupancy = None
    if args.occupancy:
        raw = read_json(args.occupancy, "occupancy file")
        rows_ok = isinstance(raw, list) and all(isinstance(r, list) and len(r) == len(raw[0]) for r in raw)
        if not rows_ok or any(type(v) not in (int, bool) or v not in (0, 1) for r in raw for v in r):
            raise FormatError(f"occupancy file {args.occupancy}: expected equal-length rows of 0, 1, true or false")
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


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


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
    p.add_argument("--scenes", type=_positive_int, default=4)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("forward", help="run inference over a manifest")
    add_common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--weights", help="weights file; omitted = seeded random init")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_forward)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite; exit 1 on failure")
    add_common(p)
    p.add_argument("--seeds", type=_positive_int, default=20, help="seeded shapes per operator")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("train-toy", help="gradient descent on one scene")
    add_common(p)
    p.add_argument("--scene", required=True, help="cloud .bin path; labels at same stem .json")
    p.add_argument("--steps", type=_positive_int)
    p.add_argument("--lr", type=float)
    p.add_argument("--out", required=True, help="weights output path")
    p.set_defaults(fn=cmd_train_toy)

    p = sub.add_parser("eval", help="AP_R40 over saved detections")
    add_common(p)
    p.add_argument("--dets", required=True, help="directory holding dets_NNNN.json")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", help="metrics JSON path (default: <dets>/metrics.json)")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("bench", help="wall-time of CSG on/off backbones")
    add_common(p)
    p.add_argument("--repeat", type=_positive_int, default=3)
    p.add_argument("--out", help="output directory for bench.json")
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
    t0 = time.perf_counter()
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # the caller's settings come back after
            cfg = load_config(args.config) if args.config else default_config()
            result = args.fn(args, cfg)
        report = {
            "command": args.command,
            "config_digest": config_digest(cfg),
            "seed": getattr(args, "seed", None),
            "wall_time_s": round(time.perf_counter() - t0, 4),
            "outputs": result.get("outputs", []),
            "metrics": result.get("metrics", {}),
        }
        if resource is not None:
            usage = resource.getrusage(resource.RUSAGE_SELF)  # the whole process, imports included
            report["peak_rss_mb"] = round(usage.ru_maxrss / (1 << 20 if sys.platform == "darwin" else 1 << 10), 1)
            report["minor_page_faults"] = usage.ru_minflt
        print(json.dumps(report, sort_keys=True), flush=True)  # a stdout that takes no output fails here, not at exit
    except Exception as exc:  # structured failure, exit 1
        try:  # a closed pipe or full device keeps what stdout buffered: send it to devnull, or the exit flush fails too
            sys.stdout.flush()
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        log.debug("command failed", exc_info=True)
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
