"""Finite-difference gradient suite.

Shared by the command-line ``gradcheck`` entry point and the acceptance
tests: every differentiable building block is checked against central
finite differences in double precision on randomized small shapes. The
scan's float64 references live with the tests, in ``tests/conftest.py``.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .blocks import csg_forward, hsb_forward, init_csg_params, init_hsb_params, init_se_params, se_attention
from .config import CsgToggles, HsbToggles, ModelConfig, SsmConfig
from .cross_scan import init_ss2d_params, ss2d_block
from .ssm import init_selective_projections, selective_scan_tokens


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def check_conv2d(seed: int) -> T.GradCheckReport:
    rng = _rng(seed)
    c_in = int(rng.integers(1, 4)) * 2
    k = int(rng.choice([1, 3]))
    stride = int(rng.choice([1, 2]))
    w_shape = (c_in, 1, k, k) if rng.random() < 0.5 else (int(rng.integers(1, 5)), c_in, k, k)  # depthwise or dense
    x = T.Tensor(rng.normal(size=(c_in, 5, 6)))
    w = T.Tensor(rng.normal(size=w_shape))
    b = T.Tensor(rng.normal(size=(w_shape[0],)))
    fn = lambda x_, w_, b_: T.reduce_sum(T.conv2d(x_, w_, b_, stride=stride, padding=k // 2))
    return T.grad_check(fn, [x, w, b], name=f"conv2d[seed={seed}]")


def check_layer_norm(seed: int) -> T.GradCheckReport:
    rng = _rng(seed)
    c = int(rng.integers(2, 9))
    x = T.Tensor(rng.normal(size=(c, 3, 2)))
    g = T.Tensor(rng.normal(size=(c,)))
    b = T.Tensor(rng.normal(size=(c,)))
    fn = lambda x_, g_, b_: T.reduce_sum(T.layer_norm(x_, g_, b_))
    return T.grad_check(fn, [x, g, b], name=f"layer_norm[seed={seed}]")


def check_se_attention(seed: int) -> T.GradCheckReport:
    rng = _rng(seed)
    c = int(rng.integers(2, 9))
    se = init_se_params(rng, c, reduction=2)
    x = T.Tensor(rng.normal(size=(c, 3, 3)))
    inputs = [x] + T.collect_params(se)
    fn = lambda x_, *ps: T.reduce_sum(se_attention(x_, se))
    return T.grad_check(fn, inputs, name=f"se_attention[seed={seed}]")


def check_selective_scan(seed: int) -> T.GradCheckReport:
    rng = _rng(seed)
    d = int(rng.integers(2, 4))
    m = int(rng.integers(1, 4))
    t_len = int(rng.integers(2, 9))
    proj = init_selective_projections(rng, d, m, 2)  # a stack of two sequences
    tokens = T.Tensor(rng.normal(size=(2, t_len, d)))
    inputs = [tokens] + T.collect_params(proj)
    fn = lambda tk, *ps: T.reduce_sum(selective_scan_tokens(tk, proj))
    return T.grad_check(fn, inputs, name=f"selective_scan[seed={seed}]")


def check_ss2d_block(seed: int) -> T.GradCheckReport:
    rng = _rng(seed)
    c = int(rng.integers(2, 5))
    params = init_ss2d_params(rng, c, state_dim=2)
    x = T.Tensor(rng.normal(size=(c, 3, 3)))
    inputs = [x] + T.collect_params(params)
    fn = lambda x_, *ps: T.reduce_sum(ss2d_block(x_, params))
    return T.grad_check(fn, inputs, name=f"ss2d_block[seed={seed}]")


def check_hsb(seed: int) -> T.GradCheckReport:
    rng = _rng(seed)
    cfg = ModelConfig(
        channels=4,
        csg=CsgToggles(enabled=False),
        hsb=HsbToggles(se_reduction=2),
        ssm=SsmConfig(state_dim=2),
    )
    params = init_hsb_params(rng, cfg)
    x = T.Tensor(rng.normal(size=(4, 3, 3)))
    inputs = [x] + T.collect_params(params)
    fn = lambda x_, *ps: T.reduce_sum(hsb_forward(x_, cfg, params))
    return T.grad_check(fn, inputs, name=f"hsb[seed={seed}]")


def check_csg(seed: int) -> T.GradCheckReport:
    rng = _rng(seed)
    cfg = ModelConfig(channels=4, csg=CsgToggles(hsb_layers=1), hsb=HsbToggles(se_reduction=2), ssm=SsmConfig(state_dim=2))
    params = init_csg_params(rng, cfg)
    x = T.Tensor(rng.normal(size=(4, 3, 3)))
    inputs = [x] + T.collect_params(params)
    fn = lambda x_, *ps: T.reduce_sum(csg_forward(x_, cfg, params))
    return T.grad_check(fn, inputs, name=f"csg[seed={seed}]")


GRAD_CHECKS = {
    "conv2d": check_conv2d,
    "layer_norm": check_layer_norm,
    "se_attention": check_se_attention,
    "selective_scan": check_selective_scan,
    "ss2d_block": check_ss2d_block,
    "hsb_forward": check_hsb,
    "csg_forward": check_csg,
}


def run_grad_suite(seeds_per_check: int) -> list[T.GradCheckReport]:
    reports = []
    for name, fn in GRAD_CHECKS.items():
        for seed in range(seeds_per_check):
            reports.append(fn(seed))
    return reports
