"""Full detector assembly: encoder -> backbone -> head, parameter registry,
portable weights file, and the single-scene gradient-descent trainer.
"""

from __future__ import annotations

import json
import math
import struct
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .backbone import BackboneParams, backbone_forward, init_backbone_params, validate_grid_for_backbone
from .boxes import CLASS_NAMES, Box3D, Detection
from .config import RunConfig
from .errors import FormatError
from .head import HeadParams, HeadTargets, RawMaps, build_targets, decode, detection_loss, head_forward, init_head_params
from .pillars import BevMap, EncoderParams, PointCloud, encode_cloud, init_encoder_params

WEIGHTS_MAGIC = b"PMW1"
MAX_GRAD_NORM = 5.0  # train_toy clips the global gradient norm to this


@dataclass
class PillarMambaModel:
    cfg: RunConfig
    encoder: EncoderParams
    backbone: BackboneParams
    head: HeadParams
    dropped: Counter = field(default_factory=Counter)  # voxelizer drop counters, summed over every encoded cloud

    def named_params(self) -> list[tuple[str, T.Param]]:
        return list(T.named_params({"encoder": self.encoder, "backbone": self.backbone, "head": self.head}))

    def params(self) -> list[T.Param]:
        return [p for _, p in self.named_params()]

    # ---- forward pieces -------------------------------------------------

    def encode(self, cloud: PointCloud) -> BevMap:
        enc = self.cfg.model.encoder
        bev = encode_cloud(
            cloud,
            self.cfg.grid,
            self.encoder,
            max_points_per_pillar=enc.max_points_per_pillar,
            max_pillars=enc.max_pillars,
        )
        self.dropped.update(bev.counters)
        return bev

    def backbone_forward(self, bev: BevMap):
        return backbone_forward(bev.tensor, self.cfg.model, self.backbone)

    def head_forward(self, f5) -> RawMaps:
        return head_forward(f5, self.head)

    def forward_cloud(self, cloud: PointCloud) -> RawMaps:
        return self.head_forward(self.backbone_forward(self.encode(cloud)).f5)

    def detect(self, cloud: PointCloud) -> list[Detection]:
        raw = self.forward_cloud(cloud)
        return decode(raw, self.cfg.grid, top_k=self.cfg.head.top_k, score_threshold=self.cfg.head.score_threshold)

    def targets_for(self, boxes: list[Box3D]) -> HeadTargets:
        return build_targets(
            boxes, self.cfg.grid, len(CLASS_NAMES), min_overlap=self.cfg.head.gaussian_min_overlap
        )


def build_model(cfg: RunConfig, seed: int = 0, dtype=np.float32) -> PillarMambaModel:
    """Deterministic seeded initialization of all parameters: drawn in float64, then cast once to ``dtype``.

    The first call also sets the process's heap policy (``tensor._keep_freed_arrays``, glibc only), so
    each scene reuses the arrays the one before it freed instead of faulting them in again.
    """
    T._keep_freed_arrays()
    validate_grid_for_backbone(cfg.grid.x_cells, cfg.grid.y_cells)
    rng = np.random.Generator(np.random.PCG64(seed))
    c = cfg.model.channels
    encoder = init_encoder_params(rng, c)
    backbone = init_backbone_params(rng, cfg.model)
    head = init_head_params(rng, c, len(CLASS_NAMES))
    T.cast_params((encoder, backbone, head), dtype)
    return PillarMambaModel(cfg=cfg, encoder=encoder, backbone=backbone, head=head)


# ---------------------------------------------------------------------------
# weights file: magic, u32 json-manifest length, manifest, raw <f8 payloads
# ---------------------------------------------------------------------------


def _manifest(named: list[tuple[str, T.Param]]) -> list[dict]:
    return [{"name": name, "shape": list(p.value.shape)} for name, p in named]


def save_weights(path, model: PillarMambaModel) -> None:
    named = model.named_params()
    blob = json.dumps({"params": _manifest(named)}, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(WEIGHTS_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for _, p in named:
            fh.write(p.value.data.astype("<f8").tobytes())


def load_weights(path, model: PillarMambaModel) -> None:
    """Read and check a whole weights file, then cast each payload to its parameter's dtype.

    A bad magic, a manifest that does not match the model, a short payload,
    bytes past the last payload or a non-finite value raise ``FormatError``
    before any parameter is written.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != WEIGHTS_MAGIC:
            raise FormatError(f"weights file {path}: bad magic {magic!r}")
        try:
            (manifest_len,) = struct.unpack("<I", fh.read(4))
            entries = json.loads(fh.read(manifest_len).decode())["params"]
            theirs = {e["name"]: tuple(e["shape"]) for e in entries}
        except (struct.error, ValueError, KeyError, TypeError) as exc:  # ValueError: JSON and UTF-8 decoding
            raise FormatError(f"weights file {path}: malformed manifest ({type(exc).__name__}: {exc})") from exc
        named = model.named_params()
        expected = _manifest(named)
        if entries != expected:
            ours = {e["name"]: tuple(e["shape"]) for e in expected}
            missing = sorted(set(ours) - set(theirs))
            extra = sorted(set(theirs) - set(ours))
            mismatched = sorted(n for n in ours.keys() & theirs.keys() if ours[n] != theirs[n])
            raise FormatError(
                f"weights file {path} does not match this model: "
                f"missing={missing[:5]} extra={extra[:5]} shape-mismatch={mismatched[:5]}"
            )
        payloads = []
        for name, p in named:
            n = int(np.prod(p.value.shape)) if p.value.shape else 1
            raw = fh.read(8 * n)
            if len(raw) != 8 * n:
                raise FormatError(f"weights file {path}: truncated payload for {name}")
            values = np.frombuffer(raw, dtype="<f8").reshape(p.value.shape)
            if not np.isfinite(values).all():
                raise FormatError(f"weights file {path}: non-finite value in {name}")
            payloads.append(values)
        if fh.read(1):
            raise FormatError(f"weights file {path}: trailing bytes after the last payload")
    for (_, p), values in zip(named, payloads):
        p.value.data[...] = values  # cast to the parameter's own dtype


# ---------------------------------------------------------------------------
# toy training: plain gradient descent on one scene
# ---------------------------------------------------------------------------


def loss_on_scene(model: PillarMambaModel, cloud: PointCloud, targets: HeadTargets):
    raw = model.forward_cloud(cloud)
    return detection_loss(raw, targets, reg_weight=model.cfg.head.reg_weight)


def cosine_step_size(lr: float, step: int, steps: int) -> float:
    """lr * (1 + cos(pi * step / steps)) / 2: lr exactly at step 0, falling toward 0 at step ``steps``
    (Loshchilov & Hutter, arXiv 1608.03983, without restarts)."""
    return 0.5 * lr * (1.0 + math.cos(math.pi * step / steps))


def train_toy(
    model: PillarMambaModel,
    cloud: PointCloud,
    boxes: list[Box3D],
    steps: int,
    lr: float,
    log_every: int = 10,
    log_fn=None,
) -> list[float]:
    """Gradient descent overfitting a single scene; returns per-step losses.

    First-order only (no momentum, no adaptivity). ``lr`` is the peak step
    size: step k of ``steps`` moves by ``cosine_step_size(lr, k, steps)``, a
    half cosine from lr at step 0 toward 0, so the loss settles instead of
    ending on one sample of an oscillation. The global gradient norm is
    clipped to ``MAX_GRAD_NORM``: the input-conditioned step sizes make some
    bias directions violently curved, and an unclipped step catapults the
    parameters. A non-finite loss or gradient norm raises
    ``FloatingPointError`` before that step's update.
    """
    targets = model.targets_for(boxes)
    params = model.params()
    losses = []
    for step in range(steps):
        with T.Tape() as tape:
            total, breakdown = loss_on_scene(model, cloud, targets)
        tape.backward(total)
        grads = [tape.grad(p) for p in params]
        norm = float(np.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in grads)))
        if not (np.isfinite(breakdown["total"]) and np.isfinite(norm)):
            raise FloatingPointError(f"train_toy step {step}: loss {breakdown['total']}, gradient norm {norm}")
        if norm > MAX_GRAD_NORM:
            scale = MAX_GRAD_NORM / norm
            grads = [g * scale for g in grads]  # not in place: leaves may share one cotangent array
        step_size = cosine_step_size(lr, step, steps)
        for p, g in zip(params, grads):
            p.value.data -= step_size * g
        losses.append(breakdown["total"])
        if log_fn is not None and (step % log_every == 0 or step == steps - 1):
            log_fn(step, breakdown)
    return losses
