"""Synthetic roadside scenes and on-disk formats.

Scene generation is fully determined by (spec, seed) using the PCG64
generator so streams are portable. Clouds serialize as headerless
little-endian float32 rows of (x, y, z, r); labels and manifests as JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .boxes import CLASS_IDS, CLASS_NAMES, Box3D, Detection
from .config import DataConfig, RunConfig
from .errors import ContractViolation, FormatError, GenerationError
from .metrics import rotated_iou_bev
from .pillars import GridSpec, PointCloud

Array = np.ndarray

CLOUD_ROW_BYTES = 16  # 4 little-endian float32 per point
MAX_PLACEMENT_RETRIES = 200


@dataclass(frozen=True, kw_only=True)
class SceneSpec(DataConfig):
    """Everything needed to synthesize one deterministic scene: the data
    settings (defaults and checks from ``DataConfig``) plus the grid and the seed."""

    grid: GridSpec
    seed: int = 0


def scene_spec_from_config(cfg: RunConfig, seed: int) -> SceneSpec:
    return SceneSpec(grid=cfg.grid, seed=seed, **vars(cfg.data))


def _sample_box(rng: np.random.Generator, spec: SceneSpec, cls_name: str, ground_z: float) -> Box3D:
    grid = spec.grid
    l0, w0, h0 = spec.size_priors[cls_name]
    l = max(0.2, l0 * rng.uniform(0.85, 1.15))
    w = max(0.2, w0 * rng.uniform(0.85, 1.15))
    h = max(0.2, h0 * rng.uniform(0.85, 1.15))
    margin = 0.5 * math.hypot(l, w)
    x_lo, x_hi = grid.x_range[0] + margin, grid.x_range[1] - margin
    y_lo, y_hi = grid.y_range[0] + margin, grid.y_range[1] - margin
    if x_lo >= x_hi or y_lo >= y_hi:
        raise GenerationError(f"grid too small to place a {cls_name} box ({l:.1f}x{w:.1f} m)")
    return Box3D(
        x=rng.uniform(x_lo, x_hi),
        y=rng.uniform(y_lo, y_hi),
        z=ground_z + h / 2.0,
        l=l,
        w=w,
        h=h,
        yaw=rng.uniform(-math.pi, math.pi),
        cls=CLASS_IDS[cls_name],
    )


def _box_points(rng: np.random.Generator, box: Box3D, n: int, sigma: float) -> Array:
    """Surface-biased points strictly inside the oriented box."""
    half = np.array([box.l, box.w, box.h]) / 2.0
    local = rng.uniform(-0.94, 0.94, size=(n, 3)) * half
    # push one random coordinate of each point toward a face
    face = rng.integers(0, 3, size=n)
    sign = rng.choice([-1.0, 1.0], size=n)
    depth = rng.uniform(0.80, 0.98, size=n)
    local[np.arange(n), face] = sign * depth * half[face]
    if sigma > 0:
        local += rng.normal(0.0, sigma, size=(n, 3))
    np.clip(local, -0.99 * half, 0.99 * half, out=local)
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    world = np.empty((n, 4), dtype=np.float64)
    world[:, 0] = box.x + c * local[:, 0] - s * local[:, 1]
    world[:, 1] = box.y + s * local[:, 0] + c * local[:, 1]
    world[:, 2] = box.z + local[:, 2]
    world[:, 3] = rng.uniform(0.0, 1.0, size=n)
    return world


def generate_scene(spec: SceneSpec) -> tuple[PointCloud, list[Box3D]]:
    """Non-overlapping boxes with surface-biased interior points plus ground clutter."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    grid = spec.grid
    ground_z = grid.z_range[0] + spec.ground_offset

    boxes: list[Box3D] = []
    for cls_name in CLASS_NAMES:
        for _ in range(spec.counts.get(cls_name, 0)):
            for attempt in range(MAX_PLACEMENT_RETRIES):
                candidate = _sample_box(rng, spec, cls_name, ground_z)
                far_enough = all(
                    math.hypot(candidate.x - b.x, candidate.y - b.y) >= spec.min_center_gap for b in boxes
                )
                if far_enough and all(rotated_iou_bev(candidate, b) == 0.0 for b in boxes):
                    boxes.append(candidate)
                    break
            else:
                raise GenerationError(
                    f"could not place a non-overlapping {cls_name} box after "
                    f"{MAX_PLACEMENT_RETRIES} retries (spec counts={spec.counts}, "
                    f"grid {grid.x_range}x{grid.y_range}, min_center_gap={spec.min_center_gap})"
                )

    chunks = [_box_points(rng, box, spec.points_per_box, spec.noise_sigma) for box in boxes]
    if spec.background_points:
        bg = np.empty((spec.background_points, 4), dtype=np.float64)
        bg[:, 0] = rng.uniform(*grid.x_range, size=spec.background_points)
        bg[:, 1] = rng.uniform(*grid.y_range, size=spec.background_points)
        z = ground_z + rng.normal(0.0, spec.noise_sigma, size=spec.background_points)
        bg[:, 2] = np.clip(z, grid.z_range[0], grid.z_range[1] - 1e-3)
        bg[:, 3] = rng.uniform(0.0, 1.0, size=spec.background_points)
        chunks.append(bg)
    points = np.concatenate(chunks, axis=0) if chunks else np.zeros((0, 4))
    return PointCloud(points.astype(np.float32)), boxes


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def save_cloud(path: str | Path, cloud: PointCloud) -> None:
    data = cloud.points.astype("<f4", copy=False)
    Path(path).write_bytes(data.tobytes())


def load_cloud(path: str | Path) -> PointCloud:
    blob = Path(path).read_bytes()
    if len(blob) % CLOUD_ROW_BYTES != 0:
        raise FormatError(
            f"cloud file {path}: {len(blob)} bytes is not a multiple of {CLOUD_ROW_BYTES}"
        )
    pts = np.frombuffer(blob, dtype="<f4").reshape(-1, 4)
    try:
        return PointCloud(pts.copy())
    except ContractViolation as exc:  # a non-finite value
        raise FormatError(f"cloud file {path}: {exc}") from exc


# one JSON record per box, shared by label files and detection files:
# {"class": name, "center": [x, y, z], "size": [l, w, h], "yaw": rad} (+ "score")


def box_record(box: Box3D) -> dict:
    return {
        "class": CLASS_NAMES[box.cls],
        "center": [box.x, box.y, box.z],
        "size": [box.l, box.w, box.h],
        "yaw": box.yaw,
    }


def detection_record(det: Detection) -> dict:
    return {**box_record(det.box), "score": det.score}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def box_from_record(rec, where: str) -> Box3D:
    """Parse one box record; ``where`` names the file and entry in the FormatError."""
    if not isinstance(rec, dict):
        raise FormatError(f"{where}: expected an object, got {rec!r}")
    cls_name = rec.get("class")
    if cls_name not in CLASS_IDS:
        raise FormatError(f"{where}: unknown class {cls_name!r}; known classes: {list(CLASS_NAMES)}")
    for key in ("center", "size"):
        v = rec.get(key)
        if not (isinstance(v, list) and len(v) == 3 and all(map(_is_number, v))):
            raise FormatError(f"{where}: {key!r} must be a list of 3 finite numbers, got {v!r}")
    if not _is_number(rec.get("yaw")):
        raise FormatError(f"{where}: 'yaw' must be a finite number, got {rec.get('yaw')!r}")
    try:
        return Box3D(*rec["center"], *rec["size"], yaw=rec["yaw"], cls=CLASS_IDS[cls_name])
    except ContractViolation as exc:
        raise FormatError(f"{where}: {exc}") from exc


def detection_from_record(rec, where: str) -> Detection:
    box = box_from_record(rec, where)
    score = rec.get("score")
    if not (_is_number(score) and 0.0 < score < 1.0):
        raise FormatError(f"{where}: 'score' must be a number in (0, 1), got {score!r}")
    return Detection(box=box, score=score)


def read_json(path: str | Path, what: str):
    """Parse a JSON input file; malformed JSON is a FormatError naming ``what``, the file and the line."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{what} {path}: malformed JSON at line {exc.lineno}: {exc.msg}") from exc


def save_labels(path: str | Path, boxes: list[Box3D]) -> None:
    Path(path).write_text(json.dumps([box_record(b) for b in boxes], indent=1))


def load_labels(path: str | Path) -> list[Box3D]:
    records = read_json(path, "label file")
    if not isinstance(records, list):
        raise FormatError(f"label file {path}: expected a JSON array")
    return [box_from_record(rec, f"label file {path} entry {i}") for i, rec in enumerate(records)]


@dataclass
class DatasetManifest:
    """Relative (cloud, labels) path pairs; resolved against the manifest dir."""

    entries: list[tuple[str, str]]


def save_manifest(path: str | Path, manifest: DatasetManifest) -> None:
    payload = {"scenes": [{"cloud": c, "labels": l} for c, l in manifest.entries]}
    Path(path).write_text(json.dumps(payload, indent=1))


def load_manifest(path: str | Path) -> DatasetManifest:
    path = Path(path)
    raw = read_json(path, "manifest")
    if not isinstance(raw, dict):
        raise FormatError(f"manifest {path}: expected a JSON object, got {type(raw).__name__}")
    scenes = raw.get("scenes")
    if not isinstance(scenes, list):
        raise FormatError(f"manifest {path}: missing 'scenes' array")
    entries = []
    for i, rec in enumerate(scenes):
        cloud, labels = (rec.get("cloud"), rec.get("labels")) if isinstance(rec, dict) else (None, None)
        if not (isinstance(cloud, str) and cloud and isinstance(labels, str) and labels):
            raise FormatError(f"manifest {path} entry {i}: needs 'cloud' and 'labels'")
        for rel in (cloud, labels):
            if not (path.parent / rel).exists():
                raise FormatError(f"manifest {path} entry {i}: missing file {rel}")
        entries.append((cloud, labels))
    return DatasetManifest(entries=entries)


def write_dataset(out_dir: str | Path, cfg: RunConfig, n_scenes: int, seed: int) -> Path:
    """Generate scenes and write cloud/label pairs plus a manifest; returns its path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for i in range(n_scenes):
        cloud, boxes = generate_scene(scene_spec_from_config(cfg, seed=seed + i))
        cloud_name, label_name = f"scene_{i:04d}.bin", f"scene_{i:04d}.json"
        save_cloud(out / cloud_name, cloud)
        save_labels(out / label_name, boxes)
        entries.append((cloud_name, label_name))
    manifest_path = out / "manifest.json"
    save_manifest(manifest_path, DatasetManifest(entries=entries))
    return manifest_path
