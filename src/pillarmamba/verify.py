"""Finite-difference and equivalence verification suites.

Shared by the command-line ``gradcheck`` entry point and the acceptance
tests: every differentiable building block is checked against central
finite differences in double precision on randomized small shapes, and the
three scan forms are cross-checked against the sequential oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .blocks import csg_forward, hsb_forward, init_csg_params, init_hsb_params, init_se_params, se_attention
from .config import CsgToggles, HsbToggles, ModelConfig, SsmConfig
from .cross_scan import init_ss2d_params, ss2d_block
from .ssm import (
    apply_conv_form,
    init_selective_projections,
    scan_kernel,
    scan_parallel_arrays,
    scan_recurrent_arrays,
    selective_scan_tokens,
)

SCAN_TOL = 1e-6


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def check_conv2d(seed: int) -> T.GradCheckReport:
    rng = _rng(seed)
    c_in = int(rng.integers(1, 4)) * 2
    c_out = int(rng.integers(1, 5))
    k = int(rng.choice([1, 3]))
    stride = int(rng.choice([1, 2]))
    groups = int(rng.choice([1, 2]))
    x = T.Tensor(rng.normal(size=(c_in, 5, 6)))
    w = T.Tensor(rng.normal(size=(c_out * groups, c_in // groups, k, k)))
    b = T.Tensor(rng.normal(size=(c_out * groups,)))
    fn = lambda x_, w_, b_: T.reduce_sum(T.conv2d(x_, w_, b_, stride=stride, padding=k // 2, groups=groups))
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
    se = init_se_params(rng, c, reduction=2, dtype=np.float64)
    x = T.Tensor(rng.normal(size=(c, 3, 3)))
    inputs = [x] + T.collect_params(se)
    fn = lambda x_, *ps: T.reduce_sum(se_attention(x_, se))
    return T.grad_check(fn, inputs, name=f"se_attention[seed={seed}]")


def check_selective_scan(seed: int) -> T.GradCheckReport:
    rng = _rng(seed)
    d = int(rng.integers(2, 4))
    m = int(rng.integers(1, 4))
    t_len = int(rng.integers(2, 9))
    proj = init_selective_projections(rng, d, m, 2, dtype=np.float64)  # a stack of two sequences
    tokens = T.Tensor(rng.normal(size=(2, t_len, d)))
    inputs = [tokens] + T.collect_params(proj)
    fn = lambda tk, *ps: T.reduce_sum(selective_scan_tokens(tk, proj))
    return T.grad_check(fn, inputs, name=f"selective_scan[seed={seed}]")


def check_ss2d_block(seed: int) -> T.GradCheckReport:
    rng = _rng(seed)
    c = int(rng.integers(2, 5))
    params = init_ss2d_params(rng, c, state_dim=2, dtype=np.float64)
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
    params = init_hsb_params(rng, cfg, dtype=np.float64)
    x = T.Tensor(rng.normal(size=(4, 3, 3)))
    inputs = [x] + T.collect_params(params)
    fn = lambda x_, *ps: T.reduce_sum(hsb_forward(x_, cfg, params))
    return T.grad_check(fn, inputs, name=f"hsb[seed={seed}]")


def check_csg(seed: int) -> T.GradCheckReport:
    rng = _rng(seed)
    cfg = ModelConfig(channels=4, csg=CsgToggles(hsb_layers=1), hsb=HsbToggles(se_reduction=2), ssm=SsmConfig(state_dim=2))
    params = init_csg_params(rng, cfg, dtype=np.float64)
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


def run_grad_suite(seeds_per_check: int = 20) -> list[T.GradCheckReport]:
    reports = []
    for name, fn in GRAD_CHECKS.items():
        for seed in range(seeds_per_check):
            reports.append(fn(seed))
    return reports


# ---------------------------------------------------------------------------
# scan-form equivalences
# ---------------------------------------------------------------------------


@dataclass
class EquivalenceReport:
    name: str
    max_abs_deviation: float
    passed: bool

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"[{status}] {self.name}: max_abs_deviation={self.max_abs_deviation:.3e}"


def run_conv_equivalence(n_seeds: int = 50, tol: float = SCAN_TOL) -> EquivalenceReport:
    """Recurrent vs causal-convolution form, random time-invariant parameters."""
    worst = 0.0
    for seed in range(n_seeds):
        rng = _rng(seed)
        m = int(rng.integers(1, 9))
        d = int(rng.integers(1, 5))
        t_len = int(rng.integers(1, 65))
        x = rng.normal(size=(t_len, d))
        y_conv = np.empty_like(x)
        y_rec = np.empty_like(x)
        for ch in range(d):
            a_bar = rng.uniform(-0.99, 0.99, m)
            b_bar = rng.normal(size=m)
            c_bar = rng.normal(size=m)
            y_rec[:, ch] = scan_recurrent_arrays(a_bar, b_bar, c_bar, x[:, ch])[:, 0]
            y_conv[:, ch] = apply_conv_form(x[:, ch], scan_kernel(a_bar, b_bar, c_bar, t_len))
        worst = max(worst, float(np.abs(y_rec - y_conv).max()))
    return EquivalenceReport("recurrent-vs-conv", worst, worst <= tol)


def run_parallel_equivalence(n_seeds: int = 50, tol: float = SCAN_TOL) -> EquivalenceReport:
    """Parallel vs sequential scan, including per-step selective parameters;
    exhaustive coverage of T in {1, 2, 3}."""
    worst = 0.0
    cases = [(t, 1, 1) for t in (1, 2, 3)]
    for seed in range(n_seeds):
        rng = _rng(1000 + seed)
        cases.append((int(rng.integers(1, 65)), int(rng.integers(1, 5)), int(rng.integers(1, 9))))
    for idx, (t_len, d, m) in enumerate(cases):
        rng = _rng(2000 + idx)
        per_step = idx % 2 == 1
        shape = (t_len, d, m) if per_step else (d, m)
        ab = rng.uniform(-0.99, 0.99, shape)
        bb = rng.normal(size=shape)
        cb = rng.normal(size=shape)
        x = rng.normal(size=(t_len, d))
        y_seq = scan_recurrent_arrays(ab, bb, cb, x)
        y_par = scan_parallel_arrays(ab, bb, cb, x)
        worst = max(worst, float(np.abs(y_seq - y_par).max()))
    return EquivalenceReport("parallel-vs-sequential", worst, worst <= tol)
