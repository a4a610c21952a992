"""Operator-level tests: identities, hand-computed cases, finite differences."""

import tracemalloc
import weakref
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import conv_im2col, rng
from pillarmamba import tensor as T
from pillarmamba.errors import ConfigurationError, ContractViolation


class TestConv2d:
    def test_identity_1x1(self):
        r = rng(0)
        x = T.Tensor(r.normal(size=(4, 5, 5)))
        w = T.Tensor(np.eye(4).reshape(4, 4, 1, 1))
        b = T.Tensor(np.zeros(4))
        out = T.conv2d(x, w, b)
        np.testing.assert_array_equal(T.value(out), T.value(x))

    def test_zero_weights(self):
        r = rng(1)
        x = T.Tensor(r.normal(size=(3, 4, 4)))
        out = T.conv2d(x, T.Tensor(np.zeros((2, 3, 3, 3))), T.Tensor(np.zeros(2)), padding=1)
        assert T.value(out).shape == (2, 4, 4)
        np.testing.assert_array_equal(T.value(out), 0.0)

    def test_depthwise_ones_3x3(self):
        # hand convolution: all-ones 3x3 kernel over an all-ones 3x3 map
        x = T.Tensor(np.ones((1, 3, 3)))
        w = T.Tensor(np.ones((1, 1, 3, 3)))
        out = T.value(T.conv2d(x, w, T.Tensor(np.zeros(1)), padding=1))
        expected = np.array([[[4, 6, 4], [6, 9, 6], [4, 6, 4]]], dtype=np.float64)
        np.testing.assert_array_equal(out, expected)

    def test_shape_mismatch_raises(self):
        x = T.Tensor(np.zeros((3, 4, 4)))
        w = T.Tensor(np.zeros((2, 2, 3, 3)))  # dense needs 3 input channels, depthwise 1
        with pytest.raises(ContractViolation) as err:
            T.conv2d(x, w, T.Tensor(np.zeros(2)))
        assert "(3, 4, 4)" in str(err.value) and "(2, 2, 3, 3)" in str(err.value)

    def test_bad_stride(self):
        x = T.Tensor(np.zeros((1, 4, 4)))
        w = T.Tensor(np.zeros((1, 1, 1, 1)))
        with pytest.raises(ConfigurationError):
            T.conv2d(x, w, T.Tensor(np.zeros(1)), stride=0)

    @pytest.mark.parametrize(
        "shape",
        [(4, 2, 3, 3), (8, 1, 3, 3), (2, 1, 3, 3), (4, 3, 1, 1), (4, 8, 3, 3), (4, 4, 3), (1, 4, 4, 3, 3)],
        ids=[
            "grouped", "depthwise-multiplier", "depthwise-fewer-outputs", "dense-too-few-inputs", "dense-too-many-inputs",
            "3-d", "5-d",
        ],
    )
    def test_rejected_weight_shapes(self, shape):
        # on 4 channels a weight is dense (C_out, 4, kh, kw) or depthwise (4, 1, kh, kw); anything else is refused
        x = T.Tensor(np.zeros((4, 5, 5)))
        with pytest.raises(ContractViolation):
            T.conv2d(x, T.Tensor(np.zeros(shape)), T.Tensor(np.zeros(shape[0])), padding=1)

    @pytest.mark.parametrize("seed", range(6))
    def test_strided_downsample_grad(self, seed):
        r = rng(seed)
        x = T.Tensor(r.normal(size=(2, 6, 6)))
        w = T.Tensor(r.normal(size=(3, 2, 3, 3)))
        b = T.Tensor(r.normal(size=(3,)))
        rep = T.grad_check(
            lambda x_, w_, b_: T.reduce_sum(T.conv2d(x_, w_, b_, stride=2, padding=1)), [x, w, b]
        )
        assert rep.passed, rep


    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
    @pytest.mark.parametrize("x_dtype, w_dtype", [(np.float32, np.float32), (np.float64, np.float64), (np.float32, np.float64)])
    def test_1x1_fast_path_equals_im2col(self, x_dtype, w_dtype, bias):
        # a 1x1 kernel, stride 1, no padding: one tap over x itself, the same matmul as im2col's on the same values.
        # Forward byte for byte, gradients equal up to the sign of a zero, in the same dtypes. no-bias: a zero bias
        # against the oracle without one, so adding it changes no byte and no dtype
        r = rng(7)
        x = T.Tensor(r.normal(size=(5, 6, 7)).astype(x_dtype))
        w = T.Tensor(r.normal(size=(3, 5, 1, 1)).astype(w_dtype))
        b = T.Tensor(r.normal(size=3).astype(w_dtype)) if bias else None
        weights = r.normal(size=(3, 6, 7))
        fast, fast_grads = _taped_conv(T.conv2d, x, w, b if bias else T.Tensor(np.zeros(3, w_dtype)), weights)
        oracle, oracle_grads = _taped_conv(conv_im2col, x, w, b, weights)
        assert len(fast_grads) == 3 and len(oracle_grads) == (3 if bias else 2)
        assert fast.dtype == oracle.dtype and fast.shape == oracle.shape
        assert fast.tobytes() == oracle.tobytes()
        for g, e in zip(fast_grads, oracle_grads):
            assert g.dtype == e.dtype and g.shape == e.shape
            np.testing.assert_array_equal(g, e)

    @pytest.mark.parametrize(
        "shape, kwargs",
        [
            ((2, 2, 1, 1), {"stride": 2}),
            ((2, 2, 1, 1), {"padding": 1}),
            ((2, 2, 1, 1), {}),
            ((3, 2, 3, 3), {"padding": 1}),
            ((2, 1, 3, 3), {"padding": 1}),
        ],
        ids=["stride", "padding", "1x1", "3x3", "depthwise"],
    )
    def test_every_conv2d_takes_the_one_kernel(self, monkeypatch, shape, kwargs):
        # one phase index (and buffer) per call, whatever the kernel, stride, padding and kind; output as im2col's
        calls = []
        phase_index = T._phase_index
        monkeypatch.setattr(T, "_phase_index", lambda *a: calls.append(a) or phase_index(*a))
        x, w = T.Tensor(rng(8).normal(size=(2, 4, 5))), T.Tensor(rng(9).normal(size=shape))
        b = T.Tensor(rng(10).normal(size=shape[0]))
        out = T.conv2d(x, w, b, **kwargs)
        assert len(calls) == 1
        groups = 2 if shape[1] == 1 else 1  # (2, 1, 3, 3) on 2 channels is depthwise
        expected = conv_im2col(x, w, b, groups=groups, **kwargs).data
        np.testing.assert_allclose(out.data, expected, rtol=1e-12, atol=1e-12)


def _taped_conv(conv, x, w, b, weights, **kwargs):
    """conv(x, w, b, **kwargs) under a tape, then d(sum(out * weights)) -> (out, [dx, dw] + [db if b is given])."""
    with T.Tape() as tape:
        out = conv(x, w, b, **kwargs)
        loss = T.reduce_sum(T.mul(out, weights))
    tape.backward(loss)
    return out.data, [tape.grad(t) for t in (x, w, b) if t is not None]


def _assert_matches_oracle(got, expected, rtol):
    """Output and gradients equal the oracle's in dtype and shape and within rtol of each one's largest magnitude."""
    for g, e in zip([got[0], *got[1]], [expected[0], *expected[1]]):
        assert g.dtype == e.dtype and g.shape == e.shape
        np.testing.assert_allclose(g, e, rtol=0, atol=rtol * max(np.abs(e).max(), 1e-300))


def _block_diagonal(wg: np.ndarray, groups: int) -> np.ndarray:
    """The dense (C_out, C_in, kh, kw) weight of a grouped (C_out, C_in/groups, kh, kw) one: zeros off its blocks."""
    c_out, c_in_g = wg.shape[:2]
    c_out_g = c_out // groups
    dense = np.zeros((c_out, c_in_g * groups) + wg.shape[2:], dtype=wg.dtype)
    for g in range(groups):
        dense[g * c_out_g : (g + 1) * c_out_g, g * c_in_g : (g + 1) * c_in_g] = wg[g * c_out_g : (g + 1) * c_out_g]
    return dense


def _diagonal_blocks(dense: np.ndarray, groups: int) -> np.ndarray:
    """The grouped weight whose ``_block_diagonal`` is ``dense``'s pattern: each output block's own input block."""
    c_out, c_in = dense.shape[:2]
    c_out_g, c_in_g = c_out // groups, c_in // groups
    return np.concatenate(
        [dense[g * c_out_g : (g + 1) * c_out_g, g * c_in_g : (g + 1) * c_in_g] for g in range(groups)]
    )


class TestConv2dOracle:
    """The shifted-window kernel against the im2col oracle: one matmul over every window, float64 within 1e-12."""

    @pytest.mark.parametrize("groups", [1, 2, "depthwise"])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_matches_im2col(self, k, stride, groups):
        # groups is the oracle's: 1 and depthwise take the same weight as T.conv2d; 2 gives T.conv2d the dense
        # block-diagonal form of the grouped weight, whose dW is compared on its diagonal blocks
        r = rng(100 * k + 10 * stride + (groups if groups != "depthwise" else 0))
        for padding in range(k + 1):
            for h, w in [(7, 8), (8, 7), (6, 6), (9, 9)]:
                c_in = 4 if groups != "depthwise" else 3
                g = c_in if groups == "depthwise" else groups
                c_out = c_in if groups == "depthwise" else 2 * g
                x = T.Tensor(r.normal(size=(c_in, h, w)))
                wt = T.Tensor(r.normal(size=(c_out, c_in // g, k, k)))
                b = T.Tensor(r.normal(size=c_out))
                oh, ow = (h + 2 * padding - k) // stride + 1, (w + 2 * padding - k) // stride + 1
                weights = r.normal(size=(c_out, oh, ow))
                dense = T.Tensor(_block_diagonal(wt.data, g)) if groups == 2 else wt
                got = _taped_conv(T.conv2d, x, dense, b, weights, stride=stride, padding=padding)
                expected = _taped_conv(conv_im2col, x, wt, b, weights, stride=stride, padding=padding, groups=g)
                if groups == 2:
                    got[1][1] = _diagonal_blocks(got[1][1], g)
                _assert_matches_oracle(got, expected, 1e-12)

    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
    @pytest.mark.parametrize("groups", [1, "depthwise"])
    @pytest.mark.parametrize(
        "x_dtype, w_dtype", [(np.float32, np.float64), (np.float64, np.float32), (np.float32, np.float32)]
    )
    def test_mixed_dtypes_match_im2col(self, x_dtype, w_dtype, groups, bias):
        # the output, dx, dW and db come back in the oracle's dtypes; float32 results agree within float32 rounding.
        # no-bias: a float32 zero bias against the oracle without one, so the bias widens no dtype
        r = rng(17)
        g = 4 if groups == "depthwise" else 1
        x = T.Tensor(r.normal(size=(4, 9, 8)).astype(x_dtype))
        wt = T.Tensor(r.normal(size=(4, 4 // g, 3, 3)).astype(w_dtype))
        b = T.Tensor(r.normal(size=4).astype(np.float32)) if bias else None
        weights = r.normal(size=(4, 5, 4)).astype(np.float32)
        zero = T.Tensor(np.zeros(4, np.float32))
        out, grads = _taped_conv(T.conv2d, x, wt, b if bias else zero, weights, stride=2, padding=1)
        got = (out, grads if bias else grads[:2])
        expected = _taped_conv(conv_im2col, x, wt, b, weights, stride=2, padding=1, groups=g)
        assert [a.dtype for a in [got[0], *got[1]]] == [a.dtype for a in [expected[0], *expected[1]]]
        _assert_matches_oracle(got, expected, 1e-12 if got[0].dtype == np.float64 and x_dtype == np.float64 else 1e-6)

    def test_forward_peak_is_three_inputs_plus_the_output(self):
        # float32 (64, 128, 128) 3x3 with padding and bias: the padded phase buffer, the accumulator and one tap's
        # product, or the buffer, the accumulator and the output. The im2col copy alone is 9 inputs (12x in all)
        r = rng(21)
        x = T.Tensor(r.normal(size=(64, 128, 128)).astype(np.float32))
        w = T.Tensor(r.normal(size=(64, 64, 3, 3)).astype(np.float32))
        b = T.Tensor(np.zeros(64, dtype=np.float32))
        tracemalloc.start()
        try:
            out = T.conv2d(x, w, b, padding=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * x.data.nbytes + out.data.nbytes

    def test_tape_keeps_the_phase_buffer_and_the_weights(self):
        # a taped 3x3 conv keeps, besides its output, its padded input (one spare row) and a copy of its weights
        r = rng(22)
        x = T.Tensor(r.normal(size=(16, 64, 64)).astype(np.float32))
        w = T.Tensor(r.normal(size=(16, 16, 3, 3)).astype(np.float32))
        b = T.Tensor(np.zeros(16, dtype=np.float32))
        phase_bytes = 16 * (64 + 2 + 1) * (64 + 2) * 4
        tracemalloc.start()
        try:
            with T.Tape() as tape:
                start = tracemalloc.get_traced_memory()[0]
                out = T.conv2d(x, w, b, padding=1)
                kept = tracemalloc.get_traced_memory()[0] - start - out.data.nbytes
        finally:
            tracemalloc.stop()
        assert phase_bytes + w.data.nbytes <= kept <= phase_bytes + w.data.nbytes + 4096
        del tape


class TestLayerNorm:
    def test_constant_input_zeroed(self):
        x = T.Tensor(np.full((5, 2, 2), 3.7))
        out = T.value(T.layer_norm(x, T.Tensor(np.ones(5)), T.Tensor(np.zeros(5))))
        np.testing.assert_allclose(out, 0.0, atol=1e-6)

    def test_normalized_fixed_point(self):
        r = rng(3)
        x = r.normal(size=(8, 4, 4))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        out = T.value(T.layer_norm(T.Tensor(x), T.Tensor(np.ones(8)), T.Tensor(np.zeros(8))))
        np.testing.assert_allclose(out, x / np.sqrt(1.0 + T.LAYER_NORM_EPS), rtol=1e-12, atol=1e-12)

    def test_two_channel_closed_form(self):
        x = T.Tensor(np.array([1.0, 3.0]).reshape(2, 1, 1))
        out = T.value(T.layer_norm(x, T.Tensor(np.ones(2)), T.Tensor(np.zeros(2))))
        expected = np.array([-1.0, 1.0]) / np.sqrt(1.0 + T.LAYER_NORM_EPS)
        np.testing.assert_allclose(out.reshape(-1), expected, rtol=1e-12, atol=1e-12)

    def test_gamma_shape_contract(self):
        with pytest.raises(ContractViolation):
            T.layer_norm(T.Tensor(np.zeros((2, 1, 1))), T.Tensor(np.ones(3)), T.Tensor(np.zeros(3)))


class TestGradCheckHarness:
    def test_square_at_three(self):
        x = T.Tensor(np.array([3.0]))
        with T.Tape() as tape:
            out = T.reduce_sum(T.mul(x, x))
        tape.backward(out)
        assert tape.grad(x)[0] == pytest.approx(6.0)
        rep = T.grad_check(lambda t: T.reduce_sum(T.mul(t, t)), [x])
        assert rep.passed

    def test_layer_norm_fd(self):
        r = rng(4)
        x = T.Tensor(r.normal(size=(8, 2, 2)))
        g = T.Tensor(r.normal(size=(8,)))
        b = T.Tensor(r.normal(size=(8,)))
        rep = T.grad_check(lambda *a: T.reduce_sum(T.layer_norm(*a)), [x, g, b])
        assert rep.passed and rep.max_rel_error <= 1e-4

    def test_requires_double(self):
        x = T.Tensor(np.zeros(3, dtype=np.float32))
        with pytest.raises(ConfigurationError):
            T.grad_check(lambda t: T.reduce_sum(t), [x])

    def test_requires_scalar_target(self):
        x = T.Tensor(np.zeros(3))
        with pytest.raises(ContractViolation):
            T.grad_check(lambda t: T.mul(t, 2.0), [x])


ELEMENTWISE = {
    "silu": T.silu,
    "sigmoid": T.sigmoid,
    "relu": T.relu,
    "softplus": T.softplus,
    "exp": T.texp,
    "abs": T.tabs,
}


class TestElementwise:
    @pytest.mark.parametrize("name", sorted(ELEMENTWISE))
    def test_zero_case(self, name):
        fn = ELEMENTWISE[name]
        out = fn(T.Tensor(np.array([0.0]))).item()
        expected = {"silu": 0.0, "sigmoid": 0.5, "relu": 0.0, "softplus": np.log(2.0), "exp": 1.0, "abs": 0.0}
        assert out == pytest.approx(expected[name], abs=1e-12)

    @pytest.mark.parametrize("name", sorted(ELEMENTWISE))
    @pytest.mark.parametrize("seed", range(3))
    def test_fd(self, name, seed):
        fn = ELEMENTWISE[name]
        r = rng(seed)
        x = r.normal(size=7)
        x = x + 0.2 * np.sign(x)  # keep away from relu/abs kinks
        rep = T.grad_check(lambda t: T.reduce_sum(fn(t)), [T.Tensor(x)], name=name)
        assert rep.passed, rep

    def test_add_mul_broadcast_fd(self):
        r = rng(5)
        a = T.Tensor(r.normal(size=(3, 4)))
        b = T.Tensor(r.normal(size=(4,)))
        rep = T.grad_check(lambda a_, b_: T.reduce_sum(T.mul(T.add(a_, b_), b_)), [a, b])
        assert rep.passed

    def test_clamp_and_log_fd(self):
        r = rng(6)
        x = T.Tensor(r.uniform(0.1, 0.9, size=6))
        rep = T.grad_check(lambda t: T.reduce_sum(T.tlog(T.clamp(t, 1e-6, 1 - 1e-6))), [x])
        assert rep.passed


def _masked_sigmoid(x):
    """The boolean-mask sigmoid: 1 / (1 + exp(-x)) gathered over x >= 0, exp(x) / (1 + exp(x)) over the rest."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


ACTIVATION_GRID = [0.0, 1e-8, -1e-8, 20.0, -20.0, 88.0, -88.0, 1e4, -1e4, np.inf, -np.inf, np.nan]


class TestActivationOracles:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softplus_matches_logaddexp_on_the_grid(self, dtype):
        x = np.array(ACTIVATION_GRID, dtype=dtype)
        got, ref = T.value(T.softplus(T.Tensor(x))), np.logaddexp(dtype(0), x)
        assert got.dtype == dtype
        np.testing.assert_array_equal(np.isnan(got), np.isnan(ref))
        np.testing.assert_array_equal(got[~np.isfinite(ref)], ref[~np.isfinite(ref)])  # +inf stays +inf
        fin = np.isfinite(ref)
        err = np.abs(got[fin] - ref[fin])
        if dtype == np.float32:
            assert (err <= 2 * np.spacing(ref[fin])).all(), err / np.spacing(ref[fin])
        else:
            assert (err <= 1e-15 * ref[fin]).all(), err / ref[fin]

    @pytest.mark.parametrize("dtype, ulps", [(np.float32, 3), (np.float64, 2)])
    def test_softplus_matches_logaddexp_on_a_sweep(self, dtype, ulps):
        # off the grid, float32 reads up to 3 ULP of logaddexp (near x = -2.2), float64 up to 2
        x = np.concatenate([np.linspace(-110.0, 30.0, 70001), rng(7).normal(0.0, 20.0, 20000)]).astype(dtype)
        got, ref = T.value(T.softplus(T.Tensor(x))), np.logaddexp(dtype(0), x)
        assert (np.abs(got - ref) <= ulps * np.spacing(ref)).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softplus_equals_the_composed_formula(self, dtype):
        # across block seams, on strided and Fortran-ordered inputs, and for every NaN and signed zero
        grid = np.array(ACTIVATION_GRID + [-np.nan, -0.0], dtype=dtype)
        sweep = rng(9).normal(0.0, 20.0, 3 * T.SOFTPLUS_BLOCK + 7).astype(dtype)
        for x in (grid, sweep, sweep[::3], np.asfortranarray(sweep[:-7].reshape(3, -1)), np.concatenate([grid, sweep])):
            expected = np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)
            assert T.value(T.softplus(T.Tensor(x))).tobytes() == expected.tobytes()

    def test_softplus_holds_no_other_array_the_size_of_its_input(self):
        x = T.Tensor(rng(10).normal(size=(4, 16384, 16)).astype(np.float32))
        tracemalloc.start()
        try:
            out = T.softplus(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured 1.06 inputs: the output and one block of max(x, 0); the composed formula peaks at 2
        assert peak <= out.data.nbytes + 8 * T.SOFTPLUS_BLOCK + 4096

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stable_sigmoid_equals_the_masked_formula(self, dtype):
        grid = np.array(ACTIVATION_GRID + [-np.nan, -0.0], dtype=dtype)
        sweep = rng(8).normal(0.0, 10.0, 10001).astype(dtype)
        for x in (grid, sweep, sweep[::3], sweep[::-1], np.concatenate([grid, sweep]).reshape(5, -1)):
            assert T._stable_sigmoid(x).tobytes() == _masked_sigmoid(x).tobytes()


GATHER_PAIR = (np.array([[1, 0, 3, 2], [3, 2, 0, 1]]), np.array([[1, 0, 3, 2], [2, 3, 1, 0]]))
# per op, a source over N = 4 cells and the (X, Y) grid arguments it takes besides the pair
GATHER_SOURCES = {
    "gather_rows": (np.arange(8.0).reshape(2, 2, 2), ()),
    "gather_sum_rows": (np.arange(16.0).reshape(2, 4, 2), (2, 2)),
}
MISSHAPEN_GATHER_PAIRS = {
    "mismatched": (GATHER_PAIR[0], GATHER_PAIR[1][:1]),
    "other_n": (GATHER_PAIR[0][:, :3], GATHER_PAIR[1][:, :3]),
    "one_row_1d": (GATHER_PAIR[0][0], GATHER_PAIR[1][0]),
}


class TestStructuralOps:
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**31 - 1))
    def test_split_concat_identity(self, c1, c2, seed):
        r = rng(seed)
        x = r.normal(size=(c1 + c2, 3, 2))
        a, b = T.split(T.Tensor(x), [c1, c2])
        back = T.concat([a, b])
        np.testing.assert_array_equal(T.value(back), x)

    def test_split_size_contract(self):
        with pytest.raises(ContractViolation):
            T.split(T.Tensor(np.zeros((4, 2))), [1, 2])

    def test_global_average_pool(self):
        x = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        out = T.value(T.global_average_pool(T.Tensor(x)))
        np.testing.assert_allclose(out, x.mean(axis=(1, 2)))
        rep = T.grad_check(lambda t: T.reduce_sum(T.mul(T.global_average_pool(t), T.Tensor(np.array([1.0, -2.0])))), [T.Tensor(x)])
        assert rep.passed

    def test_nearest_upsample_2x(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        up = T.value(T.nearest_upsample_2x(T.Tensor(x)))
        expected = np.array([[[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]], dtype=np.float64)
        np.testing.assert_array_equal(up, expected)
        rep = T.grad_check(lambda t: T.reduce_sum(T.mul(T.nearest_upsample_2x(t), 1.5)), [T.Tensor(x)])
        assert rep.passed

    def test_bev_tokens_roundtrip(self):
        # the row ops' layout: cell (i, j) of an (X, Y) map is token row i*Y + j, whose C entries are its channels
        r = rng(7)
        x = r.normal(size=(3, 4, 5))
        ident = (np.arange(20)[None], np.arange(20)[None])
        tokens = T.gather_rows(T.Tensor(x), ident)
        assert T.value(tokens).shape == (1, 20, 3)
        np.testing.assert_array_equal(T.value(tokens)[0, 2 * 5 + 3], x[:, 2, 3])
        np.testing.assert_array_equal(T.value(T.gather_sum_rows(tokens, ident, 4, 5)), x)
        np.testing.assert_array_equal(T.value(T.scatter_rows(T.value(tokens)[0], np.arange(20), 4, 5)), x)

    def test_gather_scatter_roundtrip_and_grads(self):
        r = rng(8)
        x = T.Tensor(r.normal(size=(3, 2, 3)))
        perm = r.permutation(6)[None]
        pair = (perm, np.argsort(perm, axis=1))
        gathered = T.gather_rows(x, pair)
        np.testing.assert_array_equal(T.value(gathered), T.value(x).reshape(3, 6).T[perm])
        back = T.gather_sum_rows(gathered, pair, 2, 3)
        np.testing.assert_array_equal(T.value(back), T.value(x))
        mix_a = T.Tensor(r.normal(size=(1, 6, 3)))
        rep = T.grad_check(lambda t: T.reduce_sum(T.mul(T.gather_rows(t, pair), mix_a)), [x])
        assert rep.passed
        mix_b = T.Tensor(r.normal(size=(3, 2, 3)))
        rep = T.grad_check(
            lambda t: T.reduce_sum(T.mul(T.scatter_rows(t, np.array([4, 0, 2]), 2, 3), mix_b)),
            [T.Tensor(r.normal(size=(3, 3)))],
        )
        assert rep.passed

    def test_scatter_rows_unique_contract(self):
        with pytest.raises(ContractViolation):
            T.scatter_rows(T.Tensor(np.zeros((2, 1))), np.array([1, 1]), 2, 2)

    def test_scatter_rows_rejects_negative_index(self):
        # numpy would wrap -1 to the last row
        with pytest.raises(ContractViolation):
            T.scatter_rows(T.Tensor(np.ones((1, 2))), np.array([-1]), 2, 2)

    @pytest.mark.parametrize(
        "n_rows,cells",
        [(1, [0, 1, 2]), (2, [3]), (1, [4]), (2, [[0], [1]])],
        ids=["one-row-three-cells", "two-rows-one-cell", "past-the-map", "2d-cells"],
    )
    def test_scatter_rows_takes_one_cell_per_row_inside_the_map(self, n_rows, cells):
        # numpy would broadcast one row into three cells (and the backward return a (3, C) gradient for a (1, C)
        # input), or raise a bare IndexError past the 2x2 map's 4 cells
        with pytest.raises(ContractViolation, match="scatter_rows"):
            T.scatter_rows(T.Tensor(np.ones((n_rows, 2))), np.array(cells), 2, 2)

    def test_gather_rows_rejects_negative_index(self):
        # numpy would wrap a negative index to a row from the end, in either index stack of either gather
        negative = [(np.array([[1, 0, 3, -2], [-1, 2, 0, 1]]), GATHER_PAIR[1]), (GATHER_PAIR[0], -1 - GATHER_PAIR[1])]
        for op, (source, grid) in GATHER_SOURCES.items():
            for pair in negative:
                with pytest.raises(ContractViolation, match=f"{op} takes a pair of nonnegative"):
                    getattr(T, op)(T.Tensor(source), pair, *grid)

    @pytest.mark.parametrize("case", sorted(MISSHAPEN_GATHER_PAIRS))
    @pytest.mark.parametrize("op", sorted(GATHER_SOURCES))
    def test_gathers_reject_a_misshapen_index_pair(self, op, case):
        # both stacks (K, N) for a source of N rows (K sequences of them for gather_sum_rows); 1-D is not a stack
        source, grid = GATHER_SOURCES[op]
        getattr(T, op)(T.Tensor(source), GATHER_PAIR, *grid)
        with pytest.raises(ContractViolation, match=f"{op} takes a pair of nonnegative"):
            getattr(T, op)(T.Tensor(source), MISSHAPEN_GATHER_PAIRS[case], *grid)

    def test_segment_max_forward_and_grad(self):
        x = np.array([[1.0, 5.0], [2.0, 1.0], [9.0, 9.0], [4.0, 0.0], [3.0, 7.0]])  # segments rows 0-1, 2, 3-4
        starts = np.array([0, 2, 3])
        out = T.value(T.segment_max(T.Tensor(x), starts))
        np.testing.assert_array_equal(out, [[2.0, 5.0], [9.0, 9.0], [4.0, 7.0]])
        rep = T.grad_check(
            lambda t: T.reduce_sum(T.mul(T.segment_max(t, starts), T.Tensor(np.arange(1.0, 7.0).reshape(3, 2)))),
            [T.Tensor(x)],
            eps=1e-6,
        )
        assert rep.passed

    def test_segment_max_ties_route_to_first_row(self):
        x = T.Tensor(np.array([[3.0, 1.0], [3.0, 4.0], [2.0, 4.0], [5.0, 5.0], [5.0, 5.0]]))
        with T.Tape() as tape:
            loss = T.reduce_sum(T.mul(T.segment_max(x, np.array([0, 3])), T.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))))
        tape.backward(loss)
        np.testing.assert_array_equal(tape.grad(x), [[1.0, 0.0], [0.0, 2.0], [0.0, 0.0], [3.0, 4.0], [0.0, 0.0]])

    def test_segment_max_nan_routes_to_first_nan_row(self):
        x = T.Tensor(np.array([[1.0], [np.nan], [2.0], [np.nan]]))
        with T.Tape() as tape:
            out = T.segment_max(x, np.array([0]))
            loss = T.reduce_sum(out)
        tape.backward(loss)
        assert np.isnan(T.value(out)).all()
        np.testing.assert_array_equal(tape.grad(x), [[0.0], [1.0], [0.0], [0.0]])

    @pytest.mark.parametrize(
        "starts", [[0, 1, 1], [0, 2, 1], [0, 3], [1, 2], []], ids=["repeat", "decreasing", "past-end", "not-at-0", "none"]
    )
    def test_segment_max_empty_segment_contract(self, starts):
        with pytest.raises(ContractViolation):
            T.segment_max(T.Tensor(np.zeros((3, 2))), np.array(starts, dtype=np.intp))


class TestFullOperatorSweep:
    @pytest.mark.parametrize("seed", range(20))
    def test_every_operator_matches_finite_differences(self, seed):
        r = rng(1000 + seed)
        x = T.Tensor(r.normal(size=(2, 4)))
        y = T.Tensor(r.normal(size=(2, 4)))
        mat = T.Tensor(r.normal(size=(4, 3)))
        ident = (np.arange(4)[None], np.arange(4)[None])
        checks = {
            "add_mul_sub_neg": lambda a, b: T.reduce_sum(T.mul(T.add(a, b), T.neg(T.sub(a, 0.3)))),
            "matmul": lambda a, b: T.reduce_sum(T.matmul(T.add(a, b), mat)),
            "reductions": lambda a, b: T.add(T.reduce_sum(T.mul(T.reduce_sum(a), b)), T.reduce_sum(T.mul(b, b))),
            "clamp": lambda a, b: T.reduce_sum(T.mul(T.clamp(T.sigmoid(a), 0.01, 0.99), b)),
            "gap_upsample": lambda a, b: T.reduce_sum(T.global_average_pool(T.nearest_upsample_2x(T.reshape(a, (2, 2, 2))))),
            "concat_split": lambda a, b: T.reduce_sum(T.mul(T.concat(T.split(a, [1, 1])), b)),
            "token_roundtrip": lambda a, b: T.reduce_sum(
                T.mul(
                    T.gather_rows(T.gather_sum_rows(T.reshape(a, (1, 4, 2)), ident, 2, 2), ident), T.reshape(b, (1, 4, 2))
                )
            ),
        }
        for name, fn in checks.items():
            rep = T.grad_check(fn, [x, y], eps=1e-6, name=f"{name}[{seed}]")
            assert rep.passed, rep

        perm = np.stack([r.permutation(6) for _ in range(3)])
        pair = (perm, np.argsort(perm, axis=1))
        mix_stack = T.Tensor(r.normal(size=(3, 6, 2)))
        rep = T.grad_check(
            lambda t: T.reduce_sum(T.mul(T.gather_rows(t, pair), mix_stack)),
            [T.Tensor(r.normal(size=(2, 2, 3)))],
            eps=1e-6,
            name=f"gather[{seed}]",
        )
        assert rep.passed, rep
        mix_map = T.Tensor(r.normal(size=(2, 2, 3)))
        rep = T.grad_check(
            lambda t: T.reduce_sum(T.mul(T.gather_sum_rows(t, pair, 2, 3), mix_map)),
            [T.Tensor(r.normal(size=(3, 6, 2)))],
            eps=1e-6,
            name=f"gather_sum[{seed}]",
        )
        assert rep.passed, rep

        scatter_idx = np.sort(r.choice(6, size=3, replace=False))
        mix_grid = T.Tensor(r.normal(size=(2, 2, 3)))
        rep = T.grad_check(
            lambda t: T.reduce_sum(T.mul(T.scatter_rows(t, scatter_idx, 2, 3), mix_grid)),
            [T.Tensor(r.normal(size=(3, 2)))],
            eps=1e-6,
            name=f"scatter[{seed}]",
        )
        assert rep.passed, rep

        counts = r.integers(1, 5, size=3)
        starts = np.cumsum(counts) - counts
        mix_max = T.Tensor(r.normal(size=(3, 2)))
        rep = T.grad_check(
            lambda t: T.reduce_sum(T.mul(T.segment_max(t, starts), mix_max)),
            [T.Tensor(r.normal(size=(int(counts.sum()), 2)))],
            eps=1e-7,
            name=f"segment_max[{seed}]",
        )
        assert rep.passed, rep


class TestForwardFiniteness:
    @pytest.mark.parametrize("seed", range(5))
    def test_composed_ops_stay_finite(self, seed):
        r = rng(seed)
        x = T.Tensor(r.normal(size=(4, 6, 6)).astype(np.float32))
        w = T.Tensor(r.normal(size=(4, 4, 3, 3)).astype(np.float32))
        g = T.Tensor(np.ones(4, dtype=np.float32))
        b = T.Tensor(np.zeros(4, dtype=np.float32))
        out = T.silu(T.layer_norm(T.conv2d(x, w, b, padding=1), g, b))
        assert np.isfinite(T.value(out)).all()


class TestTapeMechanics:
    def test_grad_accumulates_over_reuse(self):
        x = T.Tensor(np.array([2.0]))
        with T.Tape() as tape:
            y = T.add(T.mul(x, x), x)  # x^2 + x -> dy/dx = 2x + 1 = 5
            out = T.reduce_sum(y)
        tape.backward(out)
        assert tape.grad(x)[0] == pytest.approx(5.0)

    def test_reused_tensor_gives_exact_leaf_gradients(self):
        # mid = p * x is used three times: out = sum(mid * mid + mid * x + p)
        p = T.Param(np.array([1.5, -2.0]))
        x = T.Tensor(np.array([0.5, 4.0]))
        with T.Tape() as tape:
            mid = T.mul(p, x)
            out = T.reduce_sum(T.add(T.add(T.mul(mid, mid), T.mul(mid, x)), p))
        tape.backward(out)
        pv, xv = p.value.data, x.data
        # d/dp = 2 p x^2 + x^2 + 1, d/dx = 2 p^2 x + 2 p x; exact in binary
        np.testing.assert_array_equal(tape.grad(p), 2 * pv * xv**2 + xv**2 + 1)
        np.testing.assert_array_equal(tape.grad(x), 2 * pv**2 * xv + 2 * pv * xv)

    def test_backward_frees_records_and_keeps_only_leaves(self):
        x = T.Tensor(np.array([1.0, 2.0]))
        unused = T.Tensor(np.array([3.0]))
        with T.Tape() as tape:
            mid = T.mul(x, x)
            out = T.reduce_sum(T.texp(mid))
        mid_ref = weakref.ref(mid)
        del mid
        assert mid_ref() is None  # freed at once: the records hold node ids, and texp's closure only its output
        tape.backward(out)
        assert not tape._records
        assert list(tape._grads) == [x.node]
        np.testing.assert_array_equal(tape.grad(unused), [0.0])

    def test_intermediate_no_closure_reads_is_freed_while_the_tape_lives(self):
        # add keeps shapes, neg nothing, reshape the shape and texp its own output: a, b and c go at once
        x = T.Tensor(np.array([0.25, -1.5, 3.0, 0.5]))
        with T.Tape() as tape:
            a = T.add(x, x)
            b = T.neg(a)
            c = T.reshape(b, (2, 2))
            out = T.reduce_sum(T.texp(c))
        refs = [weakref.ref(t) for t in (a, b, c)] + [weakref.ref(t.data) for t in (a, b)]
        del a, b, c
        assert [r() for r in refs] == [None] * len(refs)
        assert len(tape._records) == 5
        tape.backward(out)
        e = np.exp(-(x.data + x.data))
        np.testing.assert_array_equal(tape.grad(x), -e + -e)

    @pytest.mark.parametrize(
        "loss_of, shape, grad",
        [
            (lambda t: T.add(*map(T.reduce_sum, T.split(t, [1, 2]))), (3, 2, 2), 1.0),
            (lambda t: T.reduce_sum(T.global_average_pool(t)), (3, 2, 2), 0.25),  # 1 / (H W)
            (T.reduce_sum, (3, 2), 1.0),
            (lambda t: T.reduce_sum(T.gather_rows(t, (np.arange(4)[None],) * 2)), (3, 2, 2), 1.0),
            (lambda t: T.reduce_sum(T.gather_sum_rows(t, (np.tile(np.arange(4), (2, 1)),) * 2, 2, 2)), (2, 4, 3), 1.0),
        ],
        ids=["split", "global_average_pool", "reduce_sum", "gather_rows", "gather_sum_rows"],
    )
    def test_closure_keeps_no_reference_to_its_input_array(self, loss_of, shape, grad):
        x = T.Tensor(rng(31).normal(size=shape))
        data_ref, node = weakref.ref(x.data), x.node
        with T.Tape() as tape:
            loss = loss_of(x)
        del x
        assert data_ref() is None
        tape.backward(loss)
        np.testing.assert_array_equal(tape._grads[node], np.full(shape, grad))

    def test_closure_that_reads_its_input_keeps_it(self):
        # the control for the test above: mul's backward reads both inputs, so the tape holds x's array
        x = T.Tensor(rng(32).normal(size=(3, 2)))
        data_ref = weakref.ref(x.data)
        with T.Tape() as tape:
            loss = T.reduce_sum(T.mul(x, T.Tensor(np.ones((3, 2)))))
        del x
        assert data_ref() is not None
        tape.backward(loss)
        assert data_ref() is None

    def test_second_backward_raises(self):
        x = T.Tensor(np.array([2.0]))
        with T.Tape() as tape:
            out = T.reduce_sum(T.mul(x, x))
        tape.backward(out)
        with pytest.raises(ContractViolation, match="already ran"):
            tape.backward(out)
        assert tape.grad(x)[0] == 4.0

    def test_grad_of_produced_tensor_raises(self):
        x = T.Tensor(np.array([2.0]))
        with T.Tape() as tape:
            mid = T.mul(x, x)
            out = T.reduce_sum(mid)
        tape.backward(out)
        for produced in (mid, out):
            with pytest.raises(ContractViolation, match="leaf"):
                tape.grad(produced)

    def test_collect_params_walks_declaration_order(self):
        @dataclass
        class Inner:
            b: T.Param

        @dataclass
        class Outer:
            a: T.Param
            pair: tuple[Inner, ...]
            by_name: dict[str, T.Param]

        ps = [T.Param(np.zeros(1)) for _ in range(5)]
        tree = Outer(a=ps[0], pair=(Inner(ps[1]), Inner(ps[2])), by_name={"z": ps[3], "y": ps[4]})
        assert T.collect_params(tree) == ps
        # each name is the path of field names, tuple indices and dict keys from the root
        assert list(T.named_params(tree)) == list(zip(["a", "pair.0.b", "pair.1.b", "by_name.z", "by_name.y"], ps))
        assert list(T.named_params({"root": tree}))[1] == ("root.pair.0.b", ps[1])
        for stray in (np.zeros(1), None):  # every parameter field holds a Param
            with pytest.raises(ContractViolation):
                T.collect_params(Outer(a=ps[0], pair=(Inner(stray),), by_name={}))

    def test_cast_params_sets_every_dtype_by_rounding_once(self):
        values = [rng(5).normal(size=(3, 2)), np.full(4, -2.19)]
        tree = {"w": T.Param(values[0].copy()), "pair": (T.Param(values[1].copy()),)}
        T.cast_params(tree, np.float32)
        for p, v in zip(T.collect_params(tree), values, strict=True):
            assert p.value.dtype == np.float32 and p.value.data.tobytes() == v.astype(np.float32).tobytes()

    def test_no_tape_no_recording(self):
        x = T.Tensor(np.array([1.0]))
        y = T.mul(x, x)  # outside any tape: must not raise, just compute
        assert T.value(y)[0] == 1.0


class TestTensorData:
    @pytest.mark.parametrize(
        "data, dtype",
        [
            (None, "object"),
            ("1.5", "<U3"),
            (np.array([1.0, None], dtype=object), "object"),
            (np.array(["1", "2"]), "<U1"),
            (np.array([b"1", b"2"]), "|S1"),
        ],
        ids=["none", "str", "object-array", "string-array", "bytes-array"],
    )
    def test_non_numeric_data_is_rejected_naming_its_dtype(self, data, dtype):
        for make in (T.Tensor, T.as_tensor):
            with pytest.raises(ContractViolation, match=f"got {dtype} data"):
                make(data)

    def test_item_reads_only_a_one_element_tensor(self):
        assert T.Tensor(np.array([[2.5]])).item() == 2.5
        assert T.Tensor(7.0).item() == 7.0
        for data in (np.arange(3.0) + 5, np.zeros(0), np.ones((1, 2))):
            with pytest.raises(ContractViolation, match="one-element"):
                T.Tensor(data).item()

    def test_bool_and_int_become_float64(self):
        for data in (np.array([True, False]), np.array([1, 2], dtype=np.int32), 3):
            t = T.Tensor(data)
            assert t.dtype == np.float64
            np.testing.assert_array_equal(t.data, np.asarray(data, dtype=np.float64))
        assert T.Tensor(np.ones(2, dtype=np.float32)).dtype == np.float32
