"""Hybrid state-space block (HSB) and cross-stage state-space group (CSG).

HSB: channel-reduced four-direction selective scan with pre-norm residual,
optional local depthwise convolution, and optional residual channel
attention gating a depthwise convolution of the block input.

CSG: 1x1 channel mix, split in half, run the HSB chain on one half only,
concatenate, 1x1 channel mix back; the bypass half is what buys the
compute saving.

Also provides analytic multiply-accumulate counts for the supported blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import CsgToggles, HsbToggles, SsmConfig
from .cross_scan import DIRECTIONS, Ss2dParams, init_ss2d_params, ss2d_block
from .errors import ConfigurationError, ContractViolation

Array = np.ndarray


@dataclass(frozen=True, kw_only=True)
class HsbConfig(HsbToggles, SsmConfig):
    """The HSB toggles and scan settings resolved at one channel width; ``ModelConfig`` checks the widths."""

    channels: int

    @property
    def inner_channels(self) -> int:
        return self.channels // self.reduction_ratio


@dataclass(frozen=True, kw_only=True)
class CsgConfig(CsgToggles):
    """The cross-stage split resolved at one channel width; ``ModelConfig`` checks the widths."""

    channels: int

    @property
    def branch_channels(self) -> int:
        return round(self.channels * self.split_fraction)


@dataclass
class SeParams:
    w1: T.Param
    b1: T.Param
    w2: T.Param
    b2: T.Param


@dataclass
class HsbParams:
    conv_down_w: T.Param
    conv_down_b: T.Param
    norm_ss_gamma: T.Param
    norm_ss_beta: T.Param
    ss2d: Ss2dParams
    norm_lc_gamma: T.Param | None
    norm_lc_beta: T.Param | None
    dw_inner_w: T.Param | None
    dw_inner_b: T.Param | None
    conv_up_w: T.Param
    conv_up_b: T.Param
    dw_outer_w: T.Param | None
    dw_outer_b: T.Param | None
    se: SeParams | None


@dataclass
class CsgParams:
    conv_down_w: T.Param
    conv_down_b: T.Param
    hsbs: tuple[HsbParams, ...]
    conv_up_w: T.Param
    conv_up_b: T.Param


def init_se_params(rng: np.random.Generator, channels: int, reduction: int, dtype=np.float32, name: str = "se") -> SeParams:
    hidden = max(1, channels // reduction)
    s1 = np.sqrt(2.0 / channels)  # feeds silu
    s2 = np.sqrt(1.0 / hidden)  # feeds sigmoid
    return SeParams(
        w1=T.Param(rng.normal(0.0, s1, size=(channels, hidden)).astype(dtype), name=f"{name}.w1"),
        b1=T.Param(np.zeros(hidden, dtype=dtype), name=f"{name}.b1"),
        w2=T.Param(rng.normal(0.0, s2, size=(hidden, channels)).astype(dtype), name=f"{name}.w2"),
        b2=T.Param(np.zeros(channels, dtype=dtype), name=f"{name}.b2"),
    )


def se_attention(f_up, se: SeParams) -> T.Tensor:
    """Channel gates in (0,1)^C from global average pooling: sigmoid(W2 silu(W1 GAP))."""
    pooled = T.reshape(T.global_average_pool(f_up), (1, -1))
    hidden = T.silu(T.add(T.matmul(pooled, se.w1), se.b1))
    gates = T.sigmoid(T.add(T.matmul(hidden, se.w2), se.b2))
    return T.reshape(gates, (-1,))


def init_hsb_params(rng: np.random.Generator, cfg: HsbConfig, dtype=np.float32, name: str = "hsb") -> HsbParams:
    c, ci, k = cfg.channels, cfg.inner_channels, cfg.dw_kernel
    down_w, down_b = T.conv_param(rng, f"{name}.conv_down", ci, c, 1, dtype)
    up_w, up_b = T.conv_param(rng, f"{name}.conv_up", c, ci, 1, dtype)
    mk = lambda arr, suffix: T.Param(np.asarray(arr, dtype=dtype), name=f"{name}.{suffix}")
    norm_lc_gamma = norm_lc_beta = dw_inner_w = dw_inner_b = None
    if cfg.local_conv:
        norm_lc_gamma = mk(np.ones(ci), "norm_lc.gamma")
        norm_lc_beta = mk(np.zeros(ci), "norm_lc.beta")
        dw_inner_w, dw_inner_b = T.conv_param(rng, f"{name}.dw_inner", ci, 1, k, dtype)
    dw_outer_w = dw_outer_b = None
    if cfg.residual:
        dw_outer_w, dw_outer_b = T.conv_param(rng, f"{name}.dw_outer", c, 1, k, dtype)
    se = init_se_params(rng, c, cfg.se_reduction, dtype, name=f"{name}.se") if cfg.attention else None
    return HsbParams(
        conv_down_w=down_w,
        conv_down_b=down_b,
        norm_ss_gamma=mk(np.ones(ci), "norm_ss.gamma"),
        norm_ss_beta=mk(np.zeros(ci), "norm_ss.beta"),
        ss2d=init_ss2d_params(rng, ci, cfg.state_dim, dtype=dtype, name=f"{name}.ss2d"),
        norm_lc_gamma=norm_lc_gamma,
        norm_lc_beta=norm_lc_beta,
        dw_inner_w=dw_inner_w,
        dw_inner_b=dw_inner_b,
        conv_up_w=up_w,
        conv_up_b=up_b,
        dw_outer_w=dw_outer_w,
        dw_outer_b=dw_outer_b,
        se=se,
    )


def hsb_forward(f, cfg: HsbConfig, params: HsbParams) -> T.Tensor:
    """Shape-preserving hybrid block on a (C, X, Y) map.

    Channel-reduced trunk: pre-norm selective scan residual, then (if enabled)
    a pre-norm depthwise-conv residual, then channel expansion. The output
    stage combines the expanded trunk with a depthwise convolution of the
    block input, gated by squeeze-excite channel attention when enabled.
    """
    tf = T.as_tensor(f)
    if tf.shape[0] != cfg.channels:
        raise ContractViolation(f"input has {tf.shape[0]} channels, config expects {cfg.channels}")
    pad = cfg.dw_kernel // 2
    f_down = T.conv2d(tf, params.conv_down_w, params.conv_down_b)
    scanned = ss2d_block(T.layer_norm(f_down, params.norm_ss_gamma, params.norm_ss_beta), params.ss2d)
    f_down = T.add(scanned, f_down)
    if cfg.local_conv:
        local = T.conv2d(
            T.layer_norm(f_down, params.norm_lc_gamma, params.norm_lc_beta),
            params.dw_inner_w,
            params.dw_inner_b,
            padding=pad,
            groups=cfg.inner_channels,
        )
        f_down = T.add(local, f_down)
    f_up = T.conv2d(f_down, params.conv_up_w, params.conv_up_b)

    if cfg.residual:
        dw_f = T.conv2d(tf, params.dw_outer_w, params.dw_outer_b, padding=pad, groups=cfg.channels)
        if cfg.attention:
            gates = T.reshape(se_attention(f_up, params.se), (cfg.channels, 1, 1))
            gated = T.mul(gates, dw_f)
            return T.add(f_up, gated) if cfg.attention_alt_residual else gated
        return T.add(f_up, dw_f)
    if cfg.attention:
        # attention without the residual path: gate the expanded trunk itself
        gates = T.reshape(se_attention(f_up, params.se), (cfg.channels, 1, 1))
        return T.mul(gates, f_up)
    return f_up


def init_csg_params(
    rng: np.random.Generator,
    cfg: CsgConfig,
    hsb_cfg: HsbConfig,
    dtype=np.float32,
    name: str = "csg",
) -> CsgParams:
    if hsb_cfg.channels != cfg.branch_channels:
        raise ConfigurationError(
            f"HSB channels {hsb_cfg.channels} must equal the CSG branch width {cfg.branch_channels}"
        )
    c = cfg.channels
    down_w, down_b = T.conv_param(rng, f"{name}.conv_down", c, c, 1, dtype)
    up_w, up_b = T.conv_param(rng, f"{name}.conv_up", c, c, 1, dtype)
    hsbs = tuple(
        init_hsb_params(rng, hsb_cfg, dtype=dtype, name=f"{name}.hsb{i}") for i in range(cfg.hsb_layers)
    )
    return CsgParams(conv_down_w=down_w, conv_down_b=down_b, hsbs=hsbs, conv_up_w=up_w, conv_up_b=up_b)


def csg_forward(f, cfg: CsgConfig, hsb_cfg: HsbConfig, params: CsgParams) -> T.Tensor:
    """Split-channel group: HSB chain on one half, identity bypass on the other."""
    tf = T.as_tensor(f)
    if tf.shape[0] != cfg.channels:
        raise ContractViolation(f"input has {tf.shape[0]} channels, config expects {cfg.channels}")
    mixed = T.conv2d(tf, params.conv_down_w, params.conv_down_b)
    branch, bypass = T.split(mixed, [cfg.branch_channels, cfg.channels - cfg.branch_channels], axis=0)
    for hsb_params in params.hsbs:
        branch = hsb_forward(branch, hsb_cfg, hsb_params)
    merged = T.concat([branch, bypass], axis=0)
    return T.conv2d(merged, params.conv_up_w, params.conv_up_b)


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


def flops_hsb(cfg: HsbConfig, x_cells: int, y_cells: int) -> int:
    c, ci, k = cfg.channels, cfg.inner_channels, cfg.dw_kernel
    t = x_cells * y_cells
    total = flops_conv2d(ci, c, 1, x_cells, y_cells)  # conv_down
    total += 2 * t * ci  # pre-scan norm
    total += flops_ss2d(ci, cfg.state_dim, x_cells, y_cells)
    if cfg.local_conv:
        total += 2 * t * ci + flops_conv2d(ci, ci, k, x_cells, y_cells, groups=ci)
    total += flops_conv2d(c, ci, 1, x_cells, y_cells)  # conv_up
    if cfg.residual:
        total += flops_conv2d(c, c, k, x_cells, y_cells, groups=c)
    if cfg.attention:
        hidden = max(1, c // cfg.se_reduction)
        total += t * c + c * hidden * 2 + t * c  # GAP + gate MLP + gating mul
    return total


def flops_csg(cfg: CsgConfig, hsb_cfg: HsbConfig, x_cells: int, y_cells: int) -> int:
    total = 2 * flops_conv2d(cfg.channels, cfg.channels, 1, x_cells, y_cells)
    total += cfg.hsb_layers * flops_hsb(hsb_cfg, x_cells, y_cells)
    return total


def flops_plain_stack(hsb_cfg: HsbConfig, layers: int, x_cells: int, y_cells: int) -> int:
    """The no-split alternative: the same HSB chain applied to all channels."""
    return layers * flops_hsb(hsb_cfg, x_cells, y_cells)
