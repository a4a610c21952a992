"""Operator-level tests: identities, hand-computed cases, finite differences."""

import weakref
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import rng
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
        out = T.value(T.conv2d(x, w, None, padding=1, groups=1))
        expected = np.array([[[4, 6, 4], [6, 9, 6], [4, 6, 4]]], dtype=np.float64)
        np.testing.assert_array_equal(out, expected)

    def test_shape_mismatch_raises(self):
        x = T.Tensor(np.zeros((3, 4, 4)))
        w = T.Tensor(np.zeros((2, 2, 3, 3)))  # expects in_ch/groups == 3
        with pytest.raises(ContractViolation) as err:
            T.conv2d(x, w)
        assert "(3, 4, 4)" in str(err.value) and "(2, 2, 3, 3)" in str(err.value)

    def test_bad_stride(self):
        x = T.Tensor(np.zeros((1, 4, 4)))
        w = T.Tensor(np.zeros((1, 1, 1, 1)))
        with pytest.raises(ConfigurationError):
            T.conv2d(x, w, stride=0)

    def test_groups_blockdiag_equivalence(self):
        # groups=1 on a block-diagonal weight equals the grouped decomposition
        r = rng(2)
        groups, cg, k = 2, 3, 3
        c = groups * cg
        x = T.Tensor(r.normal(size=(c, 6, 6)))
        wg = r.normal(size=(c, cg, k, k))
        w_full = np.zeros((c, c, k, k))
        for g in range(groups):
            rows = slice(g * cg, (g + 1) * cg)
            w_full[rows, rows] = wg[rows]
        out_grouped = T.value(T.conv2d(x, T.Tensor(wg), None, padding=1, groups=groups))
        out_full = T.value(T.conv2d(x, T.Tensor(w_full), None, padding=1, groups=1))
        np.testing.assert_allclose(out_grouped, out_full, atol=1e-12)

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


class TestLayerNorm:
    def test_constant_input_zeroed(self):
        x = T.Tensor(np.full((5, 2, 2), 3.7))
        out = T.value(T.layer_norm(x, T.Tensor(np.ones(5)), T.Tensor(np.zeros(5))))
        np.testing.assert_allclose(out, 0.0, atol=1e-6)

    def test_normalized_fixed_point(self):
        r = rng(3)
        x = r.normal(size=(8, 4, 4))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        out = T.value(T.layer_norm(T.Tensor(x), T.Tensor(np.ones(8)), T.Tensor(np.zeros(8)), eps=1e-12))
        np.testing.assert_allclose(out, x, atol=1e-5)

    def test_two_channel_closed_form(self):
        x = T.Tensor(np.array([1.0, 3.0]).reshape(2, 1, 1))
        out = T.value(T.layer_norm(x, T.Tensor(np.ones(2)), T.Tensor(np.zeros(2)), eps=1e-15))
        np.testing.assert_allclose(out.reshape(-1), [-1.0, 1.0], atol=1e-6)

    def test_bad_eps(self):
        with pytest.raises(ConfigurationError):
            T.layer_norm(T.Tensor(np.zeros((2, 1, 1))), T.Tensor(np.ones(2)), T.Tensor(np.zeros(2)), eps=0.0)

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


class TestStructuralOps:
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**31 - 1))
    def test_split_concat_identity(self, c1, c2, seed):
        r = rng(seed)
        x = r.normal(size=(c1 + c2, 3, 2))
        a, b = T.split(T.Tensor(x), [c1, c2], axis=0)
        back = T.concat([a, b], axis=0)
        np.testing.assert_array_equal(T.value(back), x)

    def test_split_size_contract(self):
        with pytest.raises(ContractViolation):
            T.split(T.Tensor(np.zeros((4, 2))), [1, 2], axis=0)

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
        r = rng(7)
        x = r.normal(size=(3, 4, 5))
        tokens = T.bev_to_tokens(T.Tensor(x))
        assert T.value(tokens).shape == (20, 3)
        back = T.tokens_to_bev(tokens, 4, 5)
        np.testing.assert_array_equal(T.value(back), x)

    def test_gather_scatter_roundtrip_and_grads(self):
        r = rng(8)
        x = T.Tensor(r.normal(size=(6, 3)))
        perm = r.permutation(6)
        gathered = T.gather_rows(x, perm)
        back = T.gather_rows(gathered, np.argsort(perm))
        np.testing.assert_array_equal(T.value(back), T.value(x))
        mix_a = T.Tensor(r.normal(size=(6, 3)))
        rep = T.grad_check(lambda t: T.reduce_sum(T.mul(T.gather_rows(t, perm), mix_a)), [x])
        assert rep.passed
        mix_b = T.Tensor(r.normal(size=(6, 3)))
        rep = T.grad_check(
            lambda t: T.reduce_sum(T.mul(T.scatter_rows(t, np.array([4, 0, 2]), 6), mix_b)),
            [T.Tensor(r.normal(size=(3, 3)))],
        )
        assert rep.passed

    def test_gather_rows_duplicate_index_grads(self):
        # repeated rows must accumulate their gradients (the scatter-add path)
        r = rng(9)
        x = T.Tensor(r.normal(size=(6, 3)))
        idx = np.array([2, 0, 2, 5, 2, 0, 1])
        mix = r.normal(size=(7, 3))
        rep = T.grad_check(lambda t: T.reduce_sum(T.mul(T.gather_rows(t, idx), T.Tensor(mix))), [x])
        assert rep.passed, rep
        with T.Tape() as tape:
            loss = T.reduce_sum(T.mul(T.gather_rows(x, idx), T.Tensor(mix)))
        tape.backward(loss)
        expected = np.zeros((6, 3))
        np.add.at(expected, idx, mix)
        np.testing.assert_allclose(tape.grad(x), expected, atol=1e-12)
        assert not tape.grad(x)[[3, 4]].any()

    def test_scatter_rows_unique_contract(self):
        with pytest.raises(ContractViolation):
            T.scatter_rows(T.Tensor(np.zeros((2, 1))), np.array([1, 1]), 4)

    def test_scatter_rows_rejects_negative_index(self):
        # numpy would wrap -1 to the last row
        with pytest.raises(ContractViolation):
            T.scatter_rows(T.Tensor(np.ones((1, 2))), np.array([-1]), 4)

    def test_gather_rows_rejects_negative_index(self):
        with pytest.raises(ContractViolation):
            T.gather_rows(T.Tensor(np.arange(8.0).reshape(4, 2)), np.array([0, -1]))

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
        checks = {
            "add_mul_sub_neg": lambda a, b: T.reduce_sum(T.mul(T.add(a, b), T.neg(T.sub(a, 0.3)))),
            "matmul": lambda a, b: T.reduce_sum(T.matmul(T.add(a, b), mat)),
            "reductions": lambda a, b: T.add(T.reduce_sum(T.mul(T.reduce_sum(a, axis=0, keepdims=True), b)), T.reduce_sum(b, axis=(0, 1))),
            "clamp": lambda a, b: T.reduce_sum(T.mul(T.clamp(T.sigmoid(a), 0.01, 0.99), b)),
            "gap_upsample": lambda a, b: T.reduce_sum(T.global_average_pool(T.nearest_upsample_2x(T.reshape(a, (2, 2, 2))))),
            "concat_split": lambda a, b: T.reduce_sum(T.mul(T.concat(T.split(a, [1, 1], axis=0), axis=0), b)),
            "token_roundtrip": lambda a, b: T.reduce_sum(T.mul(T.bev_to_tokens(T.tokens_to_bev(T.reshape(a, (4, 2)), 2, 2)), T.reshape(b, (4, 2)))),
        }
        for name, fn in checks.items():
            rep = T.grad_check(fn, [x, y], eps=1e-6, name=f"{name}[{seed}]")
            assert rep.passed, rep

        perm = r.permutation(6)
        mix_rows = T.Tensor(r.normal(size=(6, 3)))
        rep = T.grad_check(
            lambda t: T.reduce_sum(T.mul(T.gather_rows(t, perm), mix_rows)),
            [T.Tensor(r.normal(size=(6, 3)))],
            eps=1e-6,
            name=f"gather[{seed}]",
        )
        assert rep.passed, rep

        scatter_idx = np.sort(r.choice(6, size=3, replace=False))
        mix_grid = T.Tensor(r.normal(size=(6, 2)))
        rep = T.grad_check(
            lambda t: T.reduce_sum(T.mul(T.scatter_rows(t, scatter_idx, 6), mix_grid)),
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
        out = T.silu(T.layer_norm(T.conv2d(x, w, None, padding=1), g, b))
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
        p = T.Param(np.array([1.5, -2.0]), name="p")
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
        assert mid_ref() is not None  # held by the records
        tape.backward(out)
        assert mid_ref() is None
        assert not tape._records
        assert list(tape._grads) == [x]
        np.testing.assert_array_equal(tape.grad(unused), [0.0])

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

        ps = [T.Param(np.zeros(1), name=str(i)) for i in range(5)]
        tree = Outer(a=ps[0], pair=(Inner(ps[1]), Inner(ps[2])), by_name={"z": ps[3], "y": ps[4]})
        assert T.collect_params(tree) == ps
        for stray in (np.zeros(1), None):  # every parameter field holds a Param
            with pytest.raises(ContractViolation):
                T.collect_params(Outer(a=ps[0], pair=(Inner(stray),), by_name={}))

    def test_no_tape_no_recording(self):
        x = T.Tensor(np.array([1.0]))
        y = T.mul(x, x)  # outside any tape: must not raise, just compute
        assert T.value(y)[0] == 1.0
