"""Full detector assembly: encoder -> backbone -> head, parameter registry,
portable weights file, and the single-scene gradient-descent trainer.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .backbone import BackboneParams, backbone_forward, init_backbone_params, validate_grid_for_backbone
from .boxes import Box3D, Detection
from .config import RunConfig
from .errors import FormatError
from .head import HeadParams, HeadTargets, RawMaps, build_targets, decode, detection_loss, head_forward, init_head_params
from .pillars import BevMap, EncoderParams, PointCloud, encode_cloud, init_encoder_params

WEIGHTS_MAGIC = b"PMW1"


@dataclass
class PillarMambaModel:
    cfg: RunConfig
    encoder: EncoderParams
    backbone: BackboneParams
    head: HeadParams
    dtype: type

    def named_params(self) -> list[tuple[str, T.Param]]:
        return [(p.name, p) for p in T.collect_params((self.encoder, self.backbone, self.head))]

    def params(self) -> list[T.Param]:
        return [p for _, p in self.named_params()]

    def zero_grads(self) -> None:
        for p in self.params():
            p.zero_grad()

    # ---- forward pieces -------------------------------------------------

    def encode(self, cloud: PointCloud) -> BevMap:
        enc = self.cfg.model.encoder
        return encode_cloud(
            cloud,
            self.cfg.grid,
            self.encoder,
            max_points_per_pillar=enc.max_points_per_pillar,
            max_pillars=enc.max_pillars,
        )

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
            boxes, self.cfg.grid, len(self.cfg.head.classes), min_overlap=self.cfg.head.gaussian_min_overlap
        )


def build_model(cfg: RunConfig, seed: int = 0, dtype=np.float32) -> PillarMambaModel:
    """Deterministic seeded initialization of all parameters."""
    validate_grid_for_backbone(cfg.grid.x_cells, cfg.grid.y_cells)
    rng = np.random.Generator(np.random.PCG64(seed))
    c = cfg.model.channels
    encoder = init_encoder_params(rng, c, dtype=dtype)
    backbone = init_backbone_params(rng, cfg.model, dtype=dtype)
    head = init_head_params(rng, c, len(cfg.head.classes), dtype=dtype)
    return PillarMambaModel(cfg=cfg, encoder=encoder, backbone=backbone, head=head, dtype=dtype)


# ---------------------------------------------------------------------------
# weights file: magic, u32 json-manifest length, manifest, raw <f8 payloads
# ---------------------------------------------------------------------------


def _manifest(params: list[T.Param]) -> list[dict]:
    return [{"name": p.name, "shape": list(p.value.shape)} for p in params]


def save_weights(path, model: PillarMambaModel) -> None:
    params = model.params()
    blob = json.dumps({"params": _manifest(params)}, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(WEIGHTS_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for p in params:
            fh.write(p.value.data.astype("<f8").tobytes())


def load_weights(path, model: PillarMambaModel) -> None:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != WEIGHTS_MAGIC:
            raise FormatError(f"weights file {path}: bad magic {magic!r}")
        (manifest_len,) = struct.unpack("<I", fh.read(4))
        manifest = json.loads(fh.read(manifest_len).decode())
        params = model.params()
        expected = _manifest(params)
        if manifest["params"] != expected:
            theirs = {e["name"]: tuple(e["shape"]) for e in manifest["params"]}
            ours = {e["name"]: tuple(e["shape"]) for e in expected}
            missing = sorted(set(ours) - set(theirs))
            extra = sorted(set(theirs) - set(ours))
            mismatched = sorted(n for n in ours.keys() & theirs.keys() if ours[n] != theirs[n])
            raise FormatError(
                f"weights file {path} does not match this model: "
                f"missing={missing[:5]} extra={extra[:5]} shape-mismatch={mismatched[:5]}"
            )
        for p in params:
            n = int(np.prod(p.value.shape)) if p.value.shape else 1
            raw = fh.read(8 * n)
            if len(raw) != 8 * n:
                raise FormatError(f"weights file {path}: truncated payload for {p.name}")
            p.value.data[...] = np.frombuffer(raw, dtype="<f8").reshape(p.value.shape).astype(model.dtype)


# ---------------------------------------------------------------------------
# toy training: plain gradient descent on one scene
# ---------------------------------------------------------------------------


def loss_on_scene(model: PillarMambaModel, cloud: PointCloud, targets: HeadTargets):
    raw = model.forward_cloud(cloud)
    return detection_loss(raw, targets, reg_weight=model.cfg.head.reg_weight)


def train_toy(
    model: PillarMambaModel,
    cloud: PointCloud,
    boxes: list[Box3D],
    steps: int,
    lr: float,
    max_grad_norm: float = 5.0,
    log_every: int = 10,
    log_fn=None,
) -> list[float]:
    """Gradient descent overfitting a single scene; returns per-step losses.

    First-order only (no momentum, no adaptivity). The global gradient norm is
    clipped: the input-conditioned step sizes make some bias directions
    violently curved, and an unclipped step catapults the parameters.
    """
    targets = model.targets_for(boxes)
    params = model.params()
    losses = []
    for step in range(steps):
        model.zero_grads()
        with T.Tape() as tape:
            total, breakdown = loss_on_scene(model, cloud, targets)
        tape.backward(total)
        tape.accumulate(params)
        if max_grad_norm > 0:
            norm = float(np.sqrt(sum(float((p.grad.astype(np.float64) ** 2).sum()) for p in params)))
            if norm > max_grad_norm:
                scale = max_grad_norm / norm
                for p in params:
                    p.grad *= scale
        for p in params:
            p.value.data -= lr * p.grad
        losses.append(breakdown["total"])
        if log_fn is not None and (step % log_every == 0 or step == steps - 1):
            log_fn(step, breakdown)
    return losses
