"""Hybrid state-space block (HSB) and cross-stage state-space group (CSG).

HSB: channel-reduced four-direction selective scan with pre-norm residual,
a pre-norm local depthwise convolution, and residual channel attention
gating a depthwise convolution of the block input.

CSG: 1x1 channel mix, split in half, run the HSB chain on one half only,
concatenate, 1x1 channel mix back; the bypass half is what buys the
compute saving.

Both read the ``model`` config section (``ModelConfig``) directly, whose
load-time rules fix every width: the HSB runs at ``hsb_channels`` (the CSG
half when the split is on) and its trunk at ``hsb_inner_channels``.

Also provides analytic multiply-accumulate counts for the supported blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import ModelConfig
from .cross_scan import DIRECTIONS, Ss2dParams, init_ss2d_params, ss2d_block
from .errors import ContractViolation

Array = np.ndarray


@dataclass
class SeParams:
    w1: T.Param
    b1: T.Param
    w2: T.Param
    b2: T.Param


@dataclass
class HsbParams:
    conv_down: tuple[T.Param, T.Param]  # 1x1, C -> inner
    norm_ss_gamma: T.Param
    norm_ss_beta: T.Param
    ss2d: Ss2dParams
    norm_lc_gamma: T.Param
    norm_lc_beta: T.Param
    dw_inner: tuple[T.Param, T.Param]  # depthwise, inner
    conv_up: tuple[T.Param, T.Param]  # 1x1, inner -> C
    dw_outer: tuple[T.Param, T.Param]  # depthwise, C
    se: SeParams


@dataclass
class CsgParams:
    conv_down: tuple[T.Param, T.Param]  # 1x1 channel mix before the split
    hsbs: tuple[HsbParams, ...]
    conv_up: tuple[T.Param, T.Param]  # 1x1 channel mix after the concat


def init_se_params(rng: np.random.Generator, channels: int, reduction: int) -> SeParams:
    hidden = max(1, channels // reduction)
    s1 = np.sqrt(2.0 / channels)  # feeds silu
    s2 = np.sqrt(1.0 / hidden)  # feeds sigmoid
    return SeParams(
        w1=T.Param(rng.normal(0.0, s1, size=(channels, hidden))),
        b1=T.Param(np.zeros(hidden)),
        w2=T.Param(rng.normal(0.0, s2, size=(hidden, channels))),
        b2=T.Param(np.zeros(channels)),
    )


def se_attention(f_up, se: SeParams) -> T.Tensor:
    """Channel gates in (0,1)^C from global average pooling: sigmoid(W2 silu(W1 GAP))."""
    pooled = T.reshape(T.global_average_pool(f_up), (1, -1))
    hidden = T.silu(T.add(T.matmul(pooled, se.w1), se.b1))
    gates = T.sigmoid(T.add(T.matmul(hidden, se.w2), se.b2))
    return T.reshape(gates, (-1,))


def init_hsb_params(rng: np.random.Generator, cfg: ModelConfig) -> HsbParams:
    c, ci, k = cfg.hsb_channels, cfg.hsb_inner_channels, cfg.hsb.dw_kernel
    # keyword arguments evaluate as written, so the rng draws in this order, not the field order
    return HsbParams(
        conv_down=T.conv_param(rng, ci, c, 1),
        conv_up=T.conv_param(rng, c, ci, 1),
        dw_inner=T.conv_param(rng, ci, 1, k),
        dw_outer=T.conv_param(rng, c, 1, k),
        se=init_se_params(rng, c, cfg.hsb.se_reduction),
        norm_ss_gamma=T.Param(np.ones(ci)),
        norm_ss_beta=T.Param(np.zeros(ci)),
        ss2d=init_ss2d_params(rng, ci, cfg.ssm.state_dim),
        norm_lc_gamma=T.Param(np.ones(ci)),
        norm_lc_beta=T.Param(np.zeros(ci)),
    )


def hsb_forward(f, cfg: ModelConfig, params: HsbParams) -> T.Tensor:
    """Shape-preserving hybrid block on a (``cfg.hsb_channels``, X, Y) map.

    Channel-reduced trunk: pre-norm selective scan residual, then a pre-norm
    depthwise-conv residual, then channel expansion. The output is a
    depthwise convolution of the block input gated by squeeze-excite channel
    attention on the expanded trunk.
    """
    tf = T.as_tensor(f)
    c, hsb = cfg.hsb_channels, cfg.hsb
    if tf.shape[0] != c:
        raise ContractViolation(f"input has {tf.shape[0]} channels, config expects {c}")
    pad = hsb.dw_kernel // 2
    f_down = T.conv2d(tf, *params.conv_down)
    scanned = ss2d_block(T.layer_norm(f_down, params.norm_ss_gamma, params.norm_ss_beta), params.ss2d)
    f_down = T.add(scanned, f_down)
    normed = T.layer_norm(f_down, params.norm_lc_gamma, params.norm_lc_beta)
    local = T.conv2d(normed, *params.dw_inner, padding=pad)
    f_down = T.add(local, f_down)
    f_up = T.conv2d(f_down, *params.conv_up)

    dw_f = T.conv2d(tf, *params.dw_outer, padding=pad)
    gates = T.reshape(se_attention(f_up, params.se), (c, 1, 1))
    return T.mul(gates, dw_f)


def hsb_chain(f, cfg: ModelConfig, hsbs: tuple[HsbParams, ...]) -> T.Tensor:
    """The HSBs in order: a CSG's branch, or a whole stage when the split is off."""
    for hsb_params in hsbs:
        f = hsb_forward(f, cfg, hsb_params)
    return f


def init_csg_params(rng: np.random.Generator, cfg: ModelConfig) -> CsgParams:
    c = cfg.channels
    # keyword arguments evaluate as written, so the rng draws in this order, not the field order
    return CsgParams(
        conv_down=T.conv_param(rng, c, c, 1),
        conv_up=T.conv_param(rng, c, c, 1),
        hsbs=tuple(init_hsb_params(rng, cfg) for _ in range(cfg.csg.hsb_layers)),
    )


def csg_forward(f, cfg: ModelConfig, params: CsgParams) -> T.Tensor:
    """Split-channel group: HSB chain on one half, identity bypass on the other."""
    tf = T.as_tensor(f)
    if tf.shape[0] != cfg.channels:
        raise ContractViolation(f"input has {tf.shape[0]} channels, config expects {cfg.channels}")
    # conv_down's output goes straight into the split, so no name keeps it alive through the HSB chain
    branch, bypass = T.split(T.conv2d(tf, *params.conv_down), [cfg.hsb_channels] * 2)
    merged = T.concat([hsb_chain(branch, cfg, params.hsbs), bypass])
    return T.conv2d(merged, *params.conv_up)


# ---------------------------------------------------------------------------
# analytic multiply-accumulate counts
# ---------------------------------------------------------------------------
#
# Conventions: a conv contributes out_ch*(in_ch/groups)*k^2 MACs per output
# site; a linear map rows*in*out; layer norm 2 MACs per element; elementwise
# transcendentals 1 per element; the scan 3 MACs per (step, channel, state)
# (state update a*h + b*x and output accumulate c*h) plus its per-step
# discretization. Scans are counted in their linear (recurrent/parallel) form.


def flops_conv2d(out_ch: int, in_ch: int, k: int, out_h: int, out_w: int, groups: int = 1) -> int:
    return out_ch * (in_ch // groups) * k * k * out_h * out_w


def flops_ss2d(channels: int, state_dim: int, x_cells: int, y_cells: int) -> int:
    t = x_cells * y_cells
    c, m = channels, state_dim
    total = 2 * flops_conv2d(c, c, 1, x_cells, y_cells)  # in/out projections
    total += t * c  # silu
    per_dir = t * c * (2 * m)  # B/C projections
    per_dir += t * c * c + t * c  # delta projection + softplus
    per_dir += 2 * t * c * m  # discretization (exp + scale*b)
    per_dir += 3 * t * c * m  # scan update + output accumulate
    total += len(DIRECTIONS) * per_dir
    total += 2 * t * c  # merge-site normalization
    return total


def flops_hsb(cfg: ModelConfig, x_cells: int, y_cells: int) -> int:
    c, ci, hsb = cfg.hsb_channels, cfg.hsb_inner_channels, cfg.hsb
    k, t = hsb.dw_kernel, x_cells * y_cells
    hidden = max(1, c // hsb.se_reduction)
    total = flops_conv2d(ci, c, 1, x_cells, y_cells)  # conv_down
    total += 2 * t * ci  # pre-scan norm
    total += flops_ss2d(ci, cfg.ssm.state_dim, x_cells, y_cells)
    total += 2 * t * ci + flops_conv2d(ci, ci, k, x_cells, y_cells, groups=ci)  # local conv norm + dw_inner
    total += flops_conv2d(c, ci, 1, x_cells, y_cells)  # conv_up
    total += flops_conv2d(c, c, k, x_cells, y_cells, groups=c)  # dw_outer
    total += t * c + c * hidden * 2 + t * c  # GAP + gate MLP + gating mul
    return total


def flops_stage(cfg: ModelConfig, x_cells: int, y_cells: int) -> int:
    """One backbone stage: the HSB chain, plus the CSG's two 1x1 channel mixes when the split is on."""
    total = cfg.csg.hsb_layers * flops_hsb(cfg, x_cells, y_cells)
    if cfg.csg.enabled:
        total += 2 * flops_conv2d(cfg.channels, cfg.channels, 1, x_cells, y_cells)
    return total
