"""Multi-stage backbone assembling the feature pyramid.

F1 = stage(F0); F2..F4 follow stride-2 downsamples of the previous level;
F3 and F4 are upsampled back to F2's resolution, concatenated with F2,
fused by a 1x1 conv, and upsampled once more to the input resolution (F5).
Each stage is a CSG, or a plain HSB chain when the cross-stage split is
disabled (the ablation baseline).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .blocks import CsgConfig, CsgParams, HsbConfig, HsbParams, csg_forward, hsb_forward, init_csg_params, init_hsb_params
from .config import ModelConfig
from .errors import ConfigurationError

Array = np.ndarray

STAGES = 4  # the pyramid contract enumerates F1..F4 plus the fused F5


def stage_configs(cfg: ModelConfig) -> tuple[CsgConfig | None, HsbConfig]:
    """Per-stage block configs: the CSG (None for a plain HSB chain) and the HSB at the width it runs."""
    csg = CsgConfig(channels=cfg.channels, **vars(cfg.csg)) if cfg.csg.enabled else None
    return csg, HsbConfig(channels=cfg.hsb_channels, **vars(cfg.hsb), **vars(cfg.ssm))


@dataclass
class StageParams:
    csg: CsgParams | None
    plain: tuple[HsbParams, ...] | None


@dataclass
class BackboneParams:
    stages: tuple[StageParams, ...]
    down_convs: tuple[tuple[T.Param, T.Param], ...]  # stride-2 3x3 between stages
    lateral_f3: tuple[T.Param, T.Param]  # 1x1 after x2 upsample of F3
    lateral_f4: tuple[T.Param, T.Param]  # 1x1 after x4 upsample of F4
    fuse: tuple[T.Param, T.Param]  # 1x1, 3C -> C
    final_up: tuple[T.Param, T.Param]  # 1x1 after the last x2 upsample


@dataclass
class FeaturePyramid:
    f1: T.Tensor
    f2: T.Tensor
    f3: T.Tensor
    f4: T.Tensor
    f5: T.Tensor


def validate_grid_for_backbone(x_cells: int, y_cells: int) -> None:
    if x_cells % 8 != 0 or y_cells % 8 != 0:
        raise ConfigurationError(
            f"grid {x_cells}x{y_cells} must be divisible by 8 (three stride-2 downsamples)"
        )


def init_backbone_params(rng: np.random.Generator, cfg: ModelConfig, dtype=np.float32, name: str = "backbone") -> BackboneParams:
    c = cfg.channels
    csg_cfg, hsb_cfg = stage_configs(cfg)
    stages = []
    for i in range(STAGES):
        if csg_cfg is not None:
            stages.append(StageParams(csg=init_csg_params(rng, csg_cfg, hsb_cfg, dtype, name=f"{name}.stage{i}.csg"), plain=None))
        else:
            plain = tuple(
                init_hsb_params(rng, hsb_cfg, dtype, name=f"{name}.stage{i}.hsb{j}") for j in range(cfg.csg.hsb_layers)
            )
            stages.append(StageParams(csg=None, plain=plain))
    down_convs = tuple(
        T.conv_param(rng, f"{name}.down{i}", c, c, 3, dtype) for i in range(STAGES - 1)
    )
    return BackboneParams(
        stages=tuple(stages),
        down_convs=down_convs,
        lateral_f3=T.conv_param(rng, f"{name}.lateral_f3", c, c, 1, dtype),
        lateral_f4=T.conv_param(rng, f"{name}.lateral_f4", c, c, 1, dtype),
        fuse=T.conv_param(rng, f"{name}.fuse", c, 3 * c, 1, dtype),
        final_up=T.conv_param(rng, f"{name}.final_up", c, c, 1, dtype),
    )


def _stage_forward(x, csg_cfg: CsgConfig | None, hsb_cfg: HsbConfig, stage: StageParams):
    if stage.csg is not None:
        return csg_forward(x, csg_cfg, hsb_cfg, stage.csg)
    for hsb_params in stage.plain:
        x = hsb_forward(x, hsb_cfg, hsb_params)
    return x


def backbone_forward(f0, cfg: ModelConfig, params: BackboneParams) -> FeaturePyramid:
    """F0 (C, X, Y) -> pyramid with F5 back at (C, X, Y)."""
    t0 = T.as_tensor(f0)
    _, x_cells, y_cells = t0.shape
    validate_grid_for_backbone(x_cells, y_cells)
    csg_cfg, hsb_cfg = stage_configs(cfg)

    f1 = _stage_forward(t0, csg_cfg, hsb_cfg, params.stages[0])
    levels = [f1]
    x = f1
    for i in range(1, STAGES):
        w, b = params.down_convs[i - 1]
        x = T.conv2d(x, w, b, stride=2, padding=1)
        x = _stage_forward(x, csg_cfg, hsb_cfg, params.stages[i])
        levels.append(x)
    f1, f2, f3, f4 = levels

    f3_up = T.conv2d(T.nearest_upsample_2x(f3), *params.lateral_f3)
    f4_up = T.conv2d(T.nearest_upsample_2x(T.nearest_upsample_2x(f4)), *params.lateral_f4)
    fused = T.conv2d(T.concat([f2, f3_up, f4_up], axis=0), *params.fuse)
    f5 = T.conv2d(T.nearest_upsample_2x(fused), *params.final_up)
    return FeaturePyramid(f1=f1, f2=f2, f3=f3, f4=f4, f5=f5)
