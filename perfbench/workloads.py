"""The benchmark's workloads, driven only through the package's public API.

Each workload is one single-threaded caller in a closed loop: the next scene
(or training step) starts only when the previous one has returned.

* infer_desk64 — the default config (64x64 grid, C=64, CSG on, parallel
  engine) with seed-0 random-init weights, ``PillarMambaModel.detect`` over a
  pool of default scenes, and ``ap_r40`` over each pass's detections.
* train_desk64 — the c07 loop: the default config at C=32 through
  ``train_toy``, in episodes of TRAIN_STEPS steps from the same initial
  weights, with per-step times from ``log_fn`` at ``log_every=1``.
* infer_dense128 — a 128x128 grid (25.6 m square at 0.2 m) with dense
  roadside-like clouds (DENSE_DATA), otherwise as infer_desk64.

Scene seeds derive from the workload seed; train_desk64 trains on scene seed
TRAIN_SCENE_SEED + seed, so seed 0 is exactly the c07 scene.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from pillarmamba import metrics as pm_metrics
from pillarmamba import tensor as T
from pillarmamba.boxes import CLASS_IDS
from pillarmamba.config import RunConfig, default_config
from pillarmamba.data_io import generate_scene, scene_spec_from_config
from pillarmamba.head import decode
from pillarmamba.model import build_model, train_toy
from pillarmamba.pillars import GridSpec

GOLDEN_PATH = Path(__file__).with_name("golden.json")
GOLDEN_SCENE_SEED = 1_000_003  # fixed check scene, independent of the workload seed
GOLDEN_RTOL = 1e-7  # float64 vs float64 on another BLAS: summation order only
GOLDEN_ATOL = 1e-9
GOLDEN_SAMPLES = 16
MAP_ATOL = 1e-4  # on head logits of scale ~4; float32 error measured ~3e-6
MAP_RTOL = 1e-4
LOSS_RTOL = 1e-4  # per-step loss, float32 vs float64
CENTER_TOL_M = 1e-2  # a different peak cell moves a box centre by >= 0.2 m
SCORE_TOL = 1e-4  # scores are sigmoids of logits held to MAP_ATOL/MAP_RTOL
TRAIN_STEPS = 40
TRAIN_CHANNELS = 32
TRAIN_SCENE_SEED = 7
GOLDEN_TRAIN_STEPS = 2  # step 2 checks the first update, so the backward pass too

DENSE_GRID = GridSpec(x_range=(0.0, 25.6), y_range=(-12.8, 12.8), z_range=(-3.0, 1.0), pillar_size=0.2)
DENSE_DATA = {
    "counts": {"vehicle": 8, "pedestrian": 8, "cyclist": 4},
    "points_per_box": 512,
    "background_points": 16384,
}


def desk_config(channels: int = 64) -> RunConfig:
    cfg = default_config()
    return replace(cfg, model=replace(cfg.model, channels=channels))


def dense_config() -> RunConfig:
    cfg = default_config()
    return replace(cfg, grid=DENSE_GRID, data=replace(cfg.data, **DENSE_DATA))


def map_summary(arr) -> dict:
    """Sum, sum of squares and GOLDEN_SAMPLES evenly spaced entries of a map."""
    flat = np.asarray(arr, dtype=np.float64).reshape(-1)
    idx = np.linspace(0, flat.size - 1, GOLDEN_SAMPLES).astype(np.intp)
    return {"sum": float(flat.sum()), "sumsq": float((flat * flat).sum()), "samples": flat[idx].tolist()}


def _map_summaries(raw) -> dict:
    return {part: map_summary(T.value(getattr(raw, part))) for part in ("heatmap", "regression")}


def golden_mismatch(ref, got, path: str = "") -> list[str]:
    """Leaves of got that differ from the pinned reference beyond GOLDEN_RTOL/ATOL."""
    if isinstance(ref, dict):
        return [m for k in ref for m in golden_mismatch(ref[k], got.get(k), f"{path}.{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: expected {len(ref)} values, got {got!r}"]
        return [m for i, (r, g) in enumerate(zip(ref, got)) for m in golden_mismatch(r, g, f"{path}[{i}]")]
    if not isinstance(got, float) or not abs(got - ref) <= GOLDEN_ATOL + GOLDEN_RTOL * abs(ref):
        return [f"{path}: {got!r} != reference {ref!r}"]
    return []


def load_golden(name: str) -> dict:
    return json.loads(GOLDEN_PATH.read_text())[name]


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


@dataclass
class Run:
    """What one timed loop measured."""

    unit_times: list[float] = field(default_factory=list)  # successful units only
    eval_times: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    losses: list[list[float]] = field(default_factory=list)  # per training episode

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(what)


@dataclass
class Check:
    """Outcome of the output check made after the timed loop."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)


def order_mismatch(d32, d64, top_k: int, threshold: float) -> str | None:
    """Why the float32 detections are not the float64 ones in the same order, or None.

    Both lists come from ``decode``, sorted by descending score. Each
    detection must have a counterpart (same class, centre within
    CENTER_TOL_M) whose score is within SCORE_TOL, so positions can differ
    only among near-tied scores. A detection without a counterpart is allowed
    only where its score is within SCORE_TOL of a cut: the score threshold,
    or the lowest score of a list that top_k truncated.
    """
    for mine, other, label in ((d32, d64, "float32"), (d64, d32, "float64")):
        cut = other[-1].score if len(other) == top_k else threshold
        for k, a in enumerate(mine):
            matched = any(
                a.box.cls == b.box.cls
                and abs(a.box.x - b.box.x) < CENTER_TOL_M
                and abs(a.box.y - b.box.y) < CENTER_TOL_M
                and abs(a.score - b.score) <= SCORE_TOL
                for b in other
            )
            if not matched and abs(a.score - cut) > SCORE_TOL:
                return f"{label} detection {k} (class {a.box.cls}, score {a.score:.6f}) has no counterpart"
    return None


def _finite_detection(d) -> bool:
    b = d.box
    return all(math.isfinite(v) for v in (b.x, b.y, b.z, b.l, b.w, b.h, b.yaw, d.score))


class InferWorkload:
    unit = "scene"

    def __init__(self, name: str, make_config, pool: int):
        self.name = name
        self.make_config = make_config
        self.pool = pool

    def setup(self, seed: int):
        cfg = self.make_config()
        model = build_model(cfg, seed=0)
        scenes = [generate_scene(scene_spec_from_config(cfg, seed=seed * self.pool + i)) for i in range(self.pool)]
        thresholds = {CLASS_IDS[n]: thr for n, thr in cfg.eval.iou_thresholds.items()}
        dets = model.detect(scenes[0][0])  # warm-up: lazy caches and first-touch allocations
        pm_metrics.ap_r40([dets], [scenes[0][1]], thresholds, iou_fn=pm_metrics.rotated_iou_3d)
        return {"cfg": cfg, "model": model, "scenes": scenes, "thresholds": thresholds}

    def run(self, state, seconds: float, tracer=None) -> Run:
        model, scenes, thresholds = state["model"], state["scenes"], state["thresholds"]
        gts = [boxes for _, boxes in scenes]
        out = Run()
        start = time.perf_counter()
        passes = 0
        while True:
            dets_pass = []
            for cloud, _ in scenes:
                if tracer is not None:
                    tracer.unit = f"scene{out.attempted}"
                out.attempted += 1
                t0 = time.perf_counter()
                try:
                    dets = model.detect(cloud)
                except Exception as exc:  # a scene that raises is a failed unit; the loop goes on
                    out.fail(f"scene {out.attempted - 1}: {type(exc).__name__}: {exc}")
                    dets_pass.append([])
                    continue
                dt = time.perf_counter() - t0
                if all(_finite_detection(d) for d in dets):
                    out.unit_times.append(dt)
                else:
                    out.fail(f"scene {out.attempted - 1}: non-finite detection")
                dets_pass.append(dets)
            if tracer is not None:
                tracer.unit = f"pass{passes}"
            t0 = time.perf_counter()
            pm_metrics.ap_r40(dets_pass, gts, thresholds, iou_fn=pm_metrics.rotated_iou_3d)
            out.eval_times.append(time.perf_counter() - t0)
            passes += 1
            if time.perf_counter() - start >= seconds:
                break
        out.wall_s = time.perf_counter() - start
        return out

    def golden_scene(self, cfg):
        return generate_scene(scene_spec_from_config(cfg, seed=GOLDEN_SCENE_SEED))

    def reference(self) -> dict:
        """What golden.json pins: float64 head-map summaries on the golden scene."""
        cfg = self.make_config()
        oracle = build_model(cfg, seed=0, dtype=np.float64)
        return _map_summaries(oracle.forward_cloud(self.golden_scene(cfg)[0]))

    def check(self, state, run: Run) -> Check:
        """First pool scene and the golden scene: float32 maps and detection
        order against a float64 oracle; the golden scene's float64 maps
        against the pinned reference."""
        cfg, model = state["cfg"], state["model"]
        oracle = build_model(cfg, seed=0, dtype=np.float64)
        res = Check()
        worst = 0.0
        golden_cloud, _ = self.golden_scene(cfg)
        for label, cloud in (("pool0", state["scenes"][0][0]), ("golden", golden_cloud)):
            res.attempted += 1
            raw32, raw64 = model.forward_cloud(cloud), oracle.forward_cloud(cloud)
            problems = []
            for part in ("heatmap", "regression"):
                a = T.value(getattr(raw32, part)).astype(np.float64)
                b = T.value(getattr(raw64, part))
                if not np.isfinite(a).all():
                    problems.append(f"non-finite float32 {part}")
                    continue
                err = float(np.abs(a - b).max())
                worst = max(worst, err)
                if not np.allclose(a, b, rtol=MAP_RTOL, atol=MAP_ATOL):
                    problems.append(f"{part} differs from the float64 oracle by {err:.3e}")
            top_k, thr = cfg.head.top_k, cfg.head.score_threshold
            d32 = decode(raw32, cfg.grid, top_k=top_k, score_threshold=thr)
            d64 = decode(raw64, cfg.grid, top_k=top_k, score_threshold=thr)
            mismatch = order_mismatch(d32, d64, top_k, thr)
            if mismatch:
                problems.append(f"detection order differs from the float64 oracle: {mismatch}")
            if label == "golden":
                problems.extend(golden_mismatch(load_golden(self.name), _map_summaries(raw64))[:3])
            if problems:
                res.failures.append(f"check scene {label}: " + "; ".join(problems))
            res.digests[f"{label}_maps"] = _digest(T.value(raw32.heatmap), T.value(raw32.regression))
            res.digests[f"{label}_detections"] = _digest(
                np.array([[d.box.cls, d.box.x, d.box.y, d.box.z, d.score] for d in d32], dtype=np.float64)
            )
        res.facts["max_abs_map_error"] = worst
        return res


class TrainWorkload:
    unit = "step"
    name = "train_desk64"

    def setup(self, seed: int):
        cfg = desk_config(TRAIN_CHANNELS)
        cloud, boxes = generate_scene(scene_spec_from_config(cfg, seed=TRAIN_SCENE_SEED + seed))
        model = build_model(cfg, seed=0)
        initial = [p.value.data.copy() for p in model.params()]
        train_toy(model, cloud, boxes, steps=1, lr=cfg.train.lr, log_every=1)  # warm-up
        state = {"cfg": cfg, "model": model, "cloud": cloud, "boxes": boxes, "initial": initial}
        self._restore(state)
        return state

    @staticmethod
    def _restore(state) -> None:
        for p, v in zip(state["model"].params(), state["initial"]):
            p.value.data[...] = v

    def run(self, state, seconds: float, tracer=None) -> Run:
        cfg, model = state["cfg"], state["model"]
        out = Run()
        start = time.perf_counter()
        while True:
            self._restore(state)
            base = out.attempted
            marks = [time.perf_counter()]

            def log_fn(step, breakdown):
                marks.append(time.perf_counter())
                if tracer is not None:
                    tracer.unit = f"step{base + step + 1}"

            if tracer is not None:
                tracer.unit = f"step{base}"
            out.attempted += TRAIN_STEPS
            try:
                losses = train_toy(
                    model, state["cloud"], state["boxes"], steps=TRAIN_STEPS, lr=cfg.train.lr, log_every=1, log_fn=log_fn
                )
            except Exception as exc:  # an episode that raises fails all of its steps
                for _ in range(TRAIN_STEPS):
                    out.fail(f"episode from step {base}: {type(exc).__name__}: {exc}")
                losses = []
            for k, (loss, dt) in enumerate(zip(losses, np.diff(marks).tolist())):
                if math.isfinite(loss):
                    out.unit_times.append(dt)
                else:
                    out.fail(f"step {base + k}: non-finite loss {loss}")
            out.losses.append(losses)
            if time.perf_counter() - start >= seconds:
                break
        out.wall_s = time.perf_counter() - start
        return out

    def golden_scene(self, cfg):
        return generate_scene(scene_spec_from_config(cfg, seed=TRAIN_SCENE_SEED))

    @staticmethod
    def _float64_losses(cfg, cloud, boxes, steps: int) -> list[float]:
        oracle = build_model(cfg, seed=0, dtype=np.float64)
        return train_toy(oracle, cloud, boxes, steps=steps, lr=cfg.train.lr, log_every=1)

    def reference(self) -> dict:
        """What golden.json pins: float64 losses of the first steps on the c07 scene."""
        cfg = desk_config(TRAIN_CHANNELS)
        return {"losses": self._float64_losses(cfg, *self.golden_scene(cfg), GOLDEN_TRAIN_STEPS)}

    def check(self, state, run: Run) -> Check:
        """Every loss finite (counted in the run); the first steps' float32
        losses against a float64 model on the same scene; float64 losses on
        the c07 scene against the pinned reference."""
        cfg = state["cfg"]
        res = Check(attempted=2)
        episodes = [ls for ls in run.losses if ls]
        if not episodes:
            res.failures.append("no training episode completed")
            return res
        ref = self._float64_losses(cfg, state["cloud"], state["boxes"], GOLDEN_TRAIN_STEPS)
        got = episodes[0][:GOLDEN_TRAIN_STEPS]
        for k, (a, b) in enumerate(zip(got, ref)):
            if not abs(a - b) <= LOSS_RTOL * abs(b):
                res.failures.append(f"step {k} loss {a!r} differs from the float64 model's {b!r}")
        golden = golden_mismatch(load_golden(self.name), self.reference())
        if golden:
            res.failures.append("c07 scene: " + "; ".join(golden[:3]))
        res.facts["first_loss"] = got[0]
        res.facts["first_loss_float64"] = ref[0]
        res.facts["train_loss_final"] = episodes[-1][-1]
        res.facts["episodes_identical"] = all(ls == episodes[0] for ls in episodes)
        res.digests["losses"] = _digest(np.array(episodes[0], dtype=np.float64))
        return res


WORKLOADS = {
    "infer_desk64": InferWorkload("infer_desk64", desk_config, pool=8),
    "train_desk64": TrainWorkload(),
    "infer_dense128": InferWorkload("infer_dense128", dense_config, pool=4),
}
