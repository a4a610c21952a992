"""Scan engine tests: ZOH closed forms, three-form equivalence, stability,
selective parameterization, and gradients through the fused scan."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import rng
from pillarmamba import tensor as T
from pillarmamba.errors import ConfigurationError, ContractViolation
from pillarmamba.ssm import (
    ScanSequence,
    SsmParamsContinuous,
    SsmParamsDiscrete,
    ZOH_SERIES_SWITCH,
    apply_conv_form,
    associative_scan,
    discretize_zoh,
    init_selective_projections,
    scan_kernel,
    scan_parallel,
    scan_parallel_arrays,
    scan_recurrent,
    scan_recurrent_arrays,
    selective_params,
    selective_scan_tokens,
    ssm_scan,
    zoh_factors,
)


class TestZoh:
    def test_zero_decay_limit(self):
        disc = discretize_zoh(SsmParamsContinuous(a=[0.0], b=[2.0], c=[1.0], delta=0.5))
        assert disc.a_bar[0] == pytest.approx(1.0, abs=1e-15)
        assert disc.b_bar[0] == pytest.approx(1.0, abs=1e-15)  # delta * b

    def test_scalar_closed_form(self):
        disc = discretize_zoh(SsmParamsContinuous(a=[-1.0], b=[2.0], c=[1.0], delta=0.5))
        assert disc.a_bar[0] == pytest.approx(math.exp(-0.5), abs=1e-12)
        assert disc.b_bar[0] == pytest.approx((1.0 - math.exp(-0.5)) * 2.0, abs=1e-9)
        assert disc.b_bar[0] == pytest.approx(0.78693868, abs=1e-8)

    def test_small_delta_first_order(self):
        delta = 1e-8
        disc = discretize_zoh(SsmParamsContinuous(a=[-1.0], b=[2.0], c=[1.0], delta=delta))
        assert abs(disc.a_bar[0] - (1.0 + delta * -1.0)) <= 1e-10
        assert abs(disc.b_bar[0] - delta * 2.0) <= 1e-10

    def test_series_branch_matches_exact_at_switchover(self):
        # both branches evaluated at |delta*a| == 1e-6 agree to well under 1e-9
        for a in (-1.0, 1e-6 / 0.5):
            for b in (2.0, -3.0, 0.7):
                delta = ZOH_SERIES_SWITCH / abs(a)
                z = delta * a
                series = delta * (1.0 + 0.5 * z) * b
                exact = np.expm1(z) / a * b
                assert abs(series - exact) <= 1e-9

    def test_series_branch_output_matches_exact_formula(self):
        # the series branch is active just below the switch; compare it to the
        # exact expm1 formula evaluated at the same inputs
        a = np.array([-1.0])
        delta = np.array(ZOH_SERIES_SWITCH * 0.999)
        series_scale = zoh_factors(a, delta)[1][0]
        exact_scale = np.expm1(delta * a[0]) / a[0]
        assert abs(series_scale - exact_scale) <= 1e-9

    def test_nonpositive_delta_rejected(self):
        with pytest.raises(ConfigurationError):
            discretize_zoh(SsmParamsContinuous(a=[-1.0], b=[1.0], c=[1.0], delta=0.0))
        with pytest.raises(ConfigurationError):
            SsmParamsContinuous(a=[-1.0], b=[1.0], c=[1.0], delta=-0.1)

    def test_positive_a_rejected(self):
        with pytest.raises(ConfigurationError):
            SsmParamsContinuous(a=[0.5], b=[1.0], c=[1.0], delta=0.1)

    def test_per_step_delta_shapes(self):
        disc = discretize_zoh(SsmParamsContinuous(a=[-1.0, -2.0], b=[1.0, 1.0], c=[1.0, 1.0], delta=[0.1, 0.2, 0.3]))
        assert disc.a_bar.shape == (3, 2)
        assert np.all(np.abs(disc.a_bar) < 1.0)  # stability with a < 0, delta > 0


class TestScanForms:
    def test_hand_recurrence(self):
        disc = SsmParamsDiscrete(a_bar=[0.5], b_bar=[1.0], c_bar=[1.0])
        seq = scan_recurrent(disc, ScanSequence(x=np.array([1.0, 1.0, 1.0])))
        np.testing.assert_allclose(seq.y, [1.0, 1.5, 1.75])

    def test_zero_input(self):
        disc = SsmParamsDiscrete(a_bar=[0.3, -0.2], b_bar=[1.0, 2.0], c_bar=[1.0, 1.0])
        seq = scan_recurrent(disc, ScanSequence(x=np.zeros(5)))
        np.testing.assert_array_equal(seq.y, 0.0)

    def test_memoryless(self):
        disc = SsmParamsDiscrete(a_bar=[0.0], b_bar=[0.7], c_bar=[2.0])
        x = rng(0).normal(size=8)
        seq = scan_recurrent(disc, ScanSequence(x=x))
        np.testing.assert_allclose(seq.y, 1.4 * x)

    def test_kernel_values(self):
        disc = SsmParamsDiscrete(a_bar=[0.5], b_bar=[1.0], c_bar=[1.0])
        np.testing.assert_allclose(scan_kernel(disc, 3), [1.0, 0.5, 0.25])

    def test_kernel_matches_recurrent(self):
        disc = SsmParamsDiscrete(a_bar=[0.5], b_bar=[1.0], c_bar=[1.0])
        x = np.array([1.0, 1.0, 1.0])
        y = apply_conv_form(x, scan_kernel(disc, 3))
        np.testing.assert_allclose(y, [1.0, 1.5, 1.75])

    def test_kernel_zero_b(self):
        disc = SsmParamsDiscrete(a_bar=[0.5, 0.2], b_bar=[0.0, 0.0], c_bar=[1.0, 3.0])
        kernel = scan_kernel(disc, 4)
        np.testing.assert_array_equal(kernel, 0.0)
        np.testing.assert_array_equal(apply_conv_form(rng(1).normal(size=4), kernel), 0.0)

    def test_single_step(self):
        disc = SsmParamsDiscrete(a_bar=[0.9], b_bar=[0.5], c_bar=[3.0])
        y = apply_conv_form(np.array([2.0]), scan_kernel(disc, 1))
        assert y[0] == pytest.approx(3.0 * 0.5 * 2.0)

    def test_kernel_rejects_per_step_params(self):
        disc = SsmParamsDiscrete(a_bar=np.zeros((4, 2)), b_bar=np.zeros((4, 2)), c_bar=np.zeros((4, 2)))
        with pytest.raises(ContractViolation):
            scan_kernel(disc, 4)

    @pytest.mark.parametrize("seed", range(10))
    def test_conv_equals_recurrent_random(self, seed):
        r = rng(seed)
        m, t_len = int(r.integers(1, 9)), int(r.integers(1, 65))
        disc = SsmParamsDiscrete(
            a_bar=r.uniform(-0.99, 0.99, m), b_bar=r.normal(size=m), c_bar=r.normal(size=m)
        )
        x = r.normal(size=t_len)
        y_rec = scan_recurrent(disc, ScanSequence(x=x)).y
        y_conv = apply_conv_form(x, scan_kernel(disc, t_len))
        assert np.abs(y_rec - y_conv).max() <= 1e-6


def _sequential(coeff, update, h0=None):
    """Plain time loop for h_t = coeff_t * h_{t-1} + update_t, in float64."""
    h = np.zeros(update.shape[1:]) if h0 is None else np.asarray(h0, dtype=np.float64)
    out = np.empty(update.shape)
    for t in range(coeff.shape[0]):
        h = coeff[t] * h + update[t]
        out[t] = h
    return out


class TestParallelScan:
    # lengths 0-70 leave every partial trailing block at each level s <= 16; 129, 257 and 1000 reach deeper levels
    @pytest.mark.parametrize("t_len", list(range(71)) + [129, 257, 1000])
    def test_associative_scan_matches_loop_at_every_length(self, t_len):
        r = rng(100 + t_len)
        for tail in [(), (3,), (2, 3)]:
            coeff = r.uniform(-0.99, 0.99, (t_len,) + tail)
            update = r.normal(size=(t_len,) + tail)
            before = (coeff.tobytes(), update.tobytes())
            for h0 in (None, r.normal(size=tail)):
                h = associative_scan(coeff, update, h0=h0)
                assert h.shape == coeff.shape
                np.testing.assert_allclose(h, _sequential(coeff, update, h0), rtol=1e-10, atol=1e-12)
            assert (coeff.tobytes(), update.tobytes()) == before

    def test_associative_scan_strided_and_read_only_inputs(self):
        r = rng(12)
        coeff = r.uniform(-0.99, 0.99, (37, 2, 3))
        update = r.normal(size=(37, 2, 3))
        # reversed views, as the adjoint passes them
        np.testing.assert_allclose(
            associative_scan(coeff[::-1], update[::-1]),
            _sequential(coeff[::-1], update[::-1]),
            rtol=1e-10,
            atol=1e-12,
        )
        # read-only broadcast coefficients, as _canon_tdm builds them
        shared = np.broadcast_to(r.uniform(-0.99, 0.99, (2, 3)), coeff.shape)
        assert not shared.flags.writeable
        np.testing.assert_allclose(
            associative_scan(shared, update, h0=np.ones((2, 3))),
            _sequential(shared, update, np.ones((2, 3))),
            rtol=1e-10,
            atol=1e-12,
        )

    def test_associative_scan_float32_stays_float32(self):
        r = rng(13)
        coeff = r.uniform(0.5, 0.99, (300, 4, 2)).astype(np.float32)
        update = r.normal(size=(300, 4, 2)).astype(np.float32)
        h = associative_scan(coeff, update)
        assert h.dtype == np.float32
        np.testing.assert_allclose(h, _sequential(coeff.astype(np.float64), update), rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize("t_len", [1, 2, 3])
    def test_exhaustive_tiny_lengths(self, t_len):
        r = rng(t_len)
        ab = r.uniform(-0.9, 0.9, (t_len, 2, 3))
        bb = r.normal(size=(t_len, 2, 3))
        cb = r.normal(size=(t_len, 2, 3))
        x = r.normal(size=(t_len, 2))
        np.testing.assert_allclose(
            scan_parallel_arrays(ab, bb, cb, x), scan_recurrent_arrays(ab, bb, cb, x), atol=1e-12
        )

    @given(st.integers(0, 10_000))
    def test_matches_sequential(self, seed):
        r = rng(seed)
        t_len, d, m = int(r.integers(1, 65)), int(r.integers(1, 5)), int(r.integers(1, 9))
        per_step = bool(r.integers(0, 2))
        shape = (t_len, d, m) if per_step else (d, m)
        ab = r.uniform(-0.99, 0.99, shape)
        bb = r.normal(size=shape)
        cb = r.normal(size=shape)
        x = r.normal(size=(t_len, d))
        assert np.abs(scan_parallel_arrays(ab, bb, cb, x) - scan_recurrent_arrays(ab, bb, cb, x)).max() <= 1e-6

    def test_state_reset_on_alternating_zero_coefficient(self):
        t_len = 8
        ab = np.tile(np.array([0.0, 1.0])[: t_len % 2 + 2], 1)
        ab = np.resize(np.array([0.0, 1.0]), t_len).reshape(t_len, 1, 1)
        bb = np.ones((t_len, 1, 1))
        cb = np.ones((t_len, 1, 1))
        x = rng(3).normal(size=(t_len, 1))
        y_seq = scan_recurrent_arrays(ab, bb, cb, x)
        y_par = scan_parallel_arrays(ab, bb, cb, x)
        np.testing.assert_allclose(y_par, y_seq, atol=1e-12)
        # coefficient 0 resets the state: those outputs equal the bare input
        np.testing.assert_allclose(y_seq[0::2], x[0::2], atol=1e-12)

    def test_dataclass_wrapper(self):
        disc = SsmParamsDiscrete(a_bar=[0.5], b_bar=[1.0], c_bar=[1.0])
        seq = scan_parallel(disc, ScanSequence(x=np.array([1.0, 1.0, 1.0])))
        np.testing.assert_allclose(seq.y, [1.0, 1.5, 1.75], atol=1e-12)

    def test_associative_scan_with_initial_state(self):
        r = rng(5)
        coeff = r.uniform(-0.9, 0.9, (6, 3))
        update = r.normal(size=(6, 3))
        h0 = r.normal(size=3)
        h = associative_scan(coeff, update, h0=h0)
        prev = h0.copy()
        for t in range(6):
            prev = coeff[t] * prev + update[t]
            np.testing.assert_allclose(h[t], prev, atol=1e-12)


class TestStability:
    @pytest.mark.parametrize("seed", range(8))
    def test_bounded_outputs(self, seed):
        r = rng(seed)
        m = int(r.integers(1, 6))
        cont = SsmParamsContinuous(
            a=-r.uniform(0.1, 3.0, m), b=r.normal(size=m), c=r.normal(size=m), delta=float(r.uniform(0.05, 1.0))
        )
        disc = discretize_zoh(cont)
        x = r.uniform(-1.0, 1.0, 200)
        y = scan_recurrent(disc, ScanSequence(x=x)).y
        bound = np.abs(x).max() * np.sum(np.abs(disc.c_bar) * np.abs(disc.b_bar) / (1.0 - np.abs(disc.a_bar)))
        assert np.abs(y).max() <= bound + 1e-9


class TestSelective:
    def test_softplus_of_zero_step_bias(self):
        proj = init_selective_projections(rng(0), channels=3, state_dim=2, dtype=np.float64)
        proj.w_delta.value.data[...] = 0.0
        proj.b_delta.value.data[...] = 0.0
        tokens = T.Tensor(np.zeros((4, 3)))
        _, _, delta, _ = selective_params(tokens, proj)
        np.testing.assert_allclose(T.value(delta), math.log(2.0), atol=1e-12)

    def test_zero_b_projection_zero_output(self):
        proj = init_selective_projections(rng(1), channels=3, state_dim=2, dtype=np.float64)
        proj.w_b.value.data[...] = 0.0
        proj.b_b.value.data[...] = 0.0
        tokens = T.Tensor(rng(2).normal(size=(5, 3)))
        out = selective_scan_tokens(tokens, proj)
        np.testing.assert_array_equal(T.value(out), 0.0)

    def test_a_log_zero_gives_minus_one(self):
        proj = init_selective_projections(rng(3), channels=2, state_dim=3, dtype=np.float64)
        proj.a_log.value.data[...] = 0.0
        tokens = T.Tensor(np.zeros((2, 2)))
        _, _, _, a = selective_params(tokens, proj)
        np.testing.assert_array_equal(T.value(a), -1.0)

    def test_delta_strictly_positive(self):
        proj = init_selective_projections(rng(4), channels=4, state_dim=2, dtype=np.float64)
        tokens = T.Tensor(rng(5).normal(size=(16, 4)) * 3.0)
        _, _, delta, a = selective_params(tokens, proj)
        assert (T.value(delta) > 0).all()
        assert (T.value(a) < 0).all()

    def test_fused_scan_grad(self):
        # T=1 and non-power-of-two lengths exercise the rolled adjoint coefficients
        r = rng(6)
        d, m = 2, 3
        for t_len in (5, 1, 2, 7, 33):
            x = T.Tensor(r.normal(size=(t_len, d)))
            ab = T.Tensor(r.uniform(-0.9, 0.9, (t_len, d, m)))
            bb = T.Tensor(r.normal(size=(t_len, d, m)))
            c = T.Tensor(r.normal(size=(t_len, m)))
            rep = T.grad_check(lambda *a: T.reduce_sum(ssm_scan(*a)), [x, ab, bb, c], name=f"ssm_scan[T={t_len}]")
            assert rep.passed, rep

    def test_fused_scan_matches_recurrent_oracle(self):
        # the network scan (parallel form) against the sequential oracle, odd and power-of-two lengths
        r = rng(11)
        for t_len, d, m in [(1, 1, 1), (2, 3, 2), (37, 4, 3), (64, 2, 8), (257, 3, 4)]:
            x = r.normal(size=(t_len, d))
            ab = r.uniform(-0.99, 0.99, (t_len, d, m))
            bb = r.normal(size=(t_len, d, m))
            c = r.normal(size=(t_len, m))
            y = T.value(ssm_scan(T.Tensor(x), T.Tensor(ab), T.Tensor(bb), T.Tensor(c)))
            ref = scan_recurrent_arrays(ab, bb, c[:, None, :], x)
            np.testing.assert_allclose(y, ref, rtol=1e-10, atol=1e-12)

    def test_grad_through_projections_and_zoh(self):
        r = rng(7)
        proj = init_selective_projections(r, channels=3, state_dim=2, dtype=np.float64)
        tokens = T.Tensor(r.normal(size=(6, 3)))
        inputs = [tokens] + T.collect_params(proj)
        rep = T.grad_check(lambda tk, *ps: T.reduce_sum(selective_scan_tokens(tk, proj)), inputs, name="selective")
        assert rep.passed, rep
