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
from .blocks import CsgParams, HsbParams, csg_forward, hsb_chain, init_csg_params, init_hsb_params
from .config import ModelConfig
from .errors import ConfigurationError

Array = np.ndarray

STAGES = 4  # the pyramid contract enumerates F1..F4 plus the fused F5


@dataclass
class BackboneParams:
    stages: tuple[CsgParams | tuple[HsbParams, ...], ...]  # a CSG, or a plain HSB chain when the split is off
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


def init_backbone_params(rng: np.random.Generator, cfg: ModelConfig) -> BackboneParams:
    c = cfg.channels
    stages = []
    for _ in range(STAGES):
        if cfg.csg.enabled:
            stages.append(init_csg_params(rng, cfg))
        else:
            stages.append(tuple(init_hsb_params(rng, cfg) for _ in range(cfg.csg.hsb_layers)))
    return BackboneParams(
        stages=tuple(stages),
        down_convs=tuple(T.conv_param(rng, c, c, 3) for _ in range(STAGES - 1)),
        lateral_f3=T.conv_param(rng, c, c, 1),
        lateral_f4=T.conv_param(rng, c, c, 1),
        fuse=T.conv_param(rng, c, 3 * c, 1),
        final_up=T.conv_param(rng, c, c, 1),
    )


def _stage_forward(held: list, cfg: ModelConfig, stage: CsgParams | tuple[HsbParams, ...]):
    """One stage on the map popped from the one-element list ``held``, so no caller's name keeps it."""
    if cfg.csg.enabled:
        return csg_forward(held.pop(), cfg, stage)
    return hsb_chain(held, cfg, stage)


def backbone_forward(f0, cfg: ModelConfig, params: BackboneParams) -> FeaturePyramid:
    """F0 (C, X, Y) -> pyramid with F5 back at (C, X, Y).

    Takes over ``f0``: no name here keeps it once stage 0 has it, so when a caller passes it as a call
    temporary, an untaped forward frees it after its last reader, the CSG's ``conv_down`` (with the split off,
    the first HSB's ``dw_outer``). Each stride-2 conv's output goes to its stage the same way.
    """
    _, x_cells, y_cells = T.as_tensor(f0).shape
    validate_grid_for_backbone(x_cells, y_cells)
    held = [f0]
    del f0
    levels = []
    for i, stage in enumerate(params.stages):
        if i:
            held.append(T.conv2d(levels[-1], *params.down_convs[i - 1], stride=2, padding=1))
        levels.append(_stage_forward(held, cfg, stage))
    f1, f2, f3, f4 = levels

    f3_up = T.conv2d(T.nearest_upsample_2x(f3), *params.lateral_f3)
    f4_up = T.conv2d(T.nearest_upsample_2x(T.nearest_upsample_2x(f4)), *params.lateral_f4)
    fused = T.conv2d(T.concat([f2, f3_up, f4_up]), *params.fuse)
    f5 = T.conv2d(T.nearest_upsample_2x(fused), *params.final_up)
    return FeaturePyramid(f1=f1, f2=f2, f3=f3, f4=f4, f5=f5)
