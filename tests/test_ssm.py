"""Scan tests: the float64 references (ZOH closed forms, the sequential and convolution forms), the detector's sweep
against them, stability, selective parameterization, and gradients through the fused scan."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    ZOH_SERIES_SWITCH,
    apply_conv_form,
    class_sweep_scan,
    lift,
    recurrent_scan,
    rng,
    scan_kernel,
    sequential_scan,
    zoh_factors,
)
from pillarmamba import ssm
from pillarmamba import tensor as T
from pillarmamba.errors import ContractViolation
from pillarmamba.ssm import (
    SCAN_BLOCK_ELEMENTS,
    associative_scan,
    class_scan,
    init_selective_projections,
    scan_order,
    selective_discretize,
    selective_params,
    selective_scan_tokens,
    ssm_scan,
)


class TestZoh:
    def test_zero_decay_limit(self):
        a_bar, scale = zoh_factors([0.0], 0.5)
        assert a_bar[0] == pytest.approx(1.0, abs=1e-15)
        assert scale[0] * 2.0 == pytest.approx(1.0, abs=1e-15)  # b_bar = delta * b

    def test_scalar_closed_form(self):
        a_bar, scale = zoh_factors([-1.0], 0.5)
        b_bar = scale[0] * 2.0
        assert a_bar[0] == pytest.approx(math.exp(-0.5), abs=1e-12)
        assert b_bar == pytest.approx((1.0 - math.exp(-0.5)) * 2.0, abs=1e-9)
        assert b_bar == pytest.approx(0.78693868, abs=1e-8)

    def test_small_delta_first_order(self):
        delta = 1e-8
        a_bar, scale = zoh_factors([-1.0], delta)
        assert abs(a_bar[0] - (1.0 + delta * -1.0)) <= 1e-10
        assert abs(scale[0] * 2.0 - delta * 2.0) <= 1e-10

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

    def test_per_step_delta_shapes(self):
        a_bar, scale = zoh_factors([-1.0, -2.0], np.array([0.1, 0.2, 0.3])[:, None])
        assert a_bar.shape == scale.shape == (3, 2)
        assert np.all(np.abs(a_bar) < 1.0)  # stability with a < 0, delta > 0


class TestScanForms:
    def test_hand_recurrence(self):
        y = recurrent_scan([0.5], [1.0], [1.0], np.array([1.0, 1.0, 1.0]))[:, 0]
        np.testing.assert_allclose(y, [1.0, 1.5, 1.75])

    def test_zero_input(self):
        y = recurrent_scan([0.3, -0.2], [1.0, 2.0], [1.0, 1.0], np.zeros(5))[:, 0]
        np.testing.assert_array_equal(y, 0.0)

    def test_memoryless(self):
        x = rng(0).normal(size=8)
        y = recurrent_scan([0.0], [0.7], [2.0], x)[:, 0]
        np.testing.assert_allclose(y, 1.4 * x)

    def test_kernel_values(self):
        np.testing.assert_allclose(scan_kernel([0.5], [1.0], [1.0], 3), [1.0, 0.5, 0.25])

    def test_kernel_matches_recurrent(self):
        x = np.array([1.0, 1.0, 1.0])
        y = apply_conv_form(x, scan_kernel([0.5], [1.0], [1.0], 3))
        np.testing.assert_allclose(y, [1.0, 1.5, 1.75])

    def test_kernel_zero_b(self):
        kernel = scan_kernel([0.5, 0.2], [0.0, 0.0], [1.0, 3.0], 4)
        np.testing.assert_array_equal(kernel, 0.0)
        np.testing.assert_array_equal(apply_conv_form(rng(1).normal(size=4), kernel), 0.0)

    def test_single_step(self):
        y = apply_conv_form(np.array([2.0]), scan_kernel([0.9], [0.5], [3.0], 1))
        assert y[0] == pytest.approx(3.0 * 0.5 * 2.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_conv_equals_recurrent_random(self, seed):
        r = rng(seed)
        m, t_len = int(r.integers(1, 9)), int(r.integers(1, 65))
        a_bar, b_bar, c_bar = r.uniform(-0.99, 0.99, m), r.normal(size=m), r.normal(size=m)
        x = r.normal(size=t_len)
        y_rec = recurrent_scan(a_bar, b_bar, c_bar, x)[:, 0]
        y_conv = apply_conv_form(x, scan_kernel(a_bar, b_bar, c_bar, t_len))
        assert np.abs(y_rec - y_conv).max() <= 1e-6


def _one_block_scan(a, u):
    """The unblocked Brent-Kung sweep over the whole buffers: the kernel's bit-level oracle for T <= R."""
    t_len = a.shape[0]
    s = 1
    while 2 * s <= t_len:
        hi = slice(2 * s - 1, None, 2 * s)
        lo = slice(s - 1, t_len - s, 2 * s)
        u[hi] += a[hi] * u[lo]
        if 4 * s <= t_len:
            a[hi] *= a[lo]
        s *= 2
    while s > 1:
        s //= 2
        u[3 * s - 1 :: 2 * s] += a[3 * s - 1 :: 2 * s] * u[2 * s - 1 : t_len - s : 2 * s]
    return u


def _fold_and_sweep(a, u, r):
    """Per row block of r rows in time order: fold the previous block's final state into the block's first row,
    then ``_one_block_scan`` over the block. The kernel's bit-level oracle for T > R."""
    for k0 in range(0, a.shape[0], r):
        if k0:
            u[k0] += a[k0] * u[k0 - 1]
        _one_block_scan(a[k0 : k0 + r], u[k0 : k0 + r])
    return u


def _one_block_discretize(delta, a, b_seq, x):
    """``selective_discretize`` as whole-buffer broadcast passes, in its op order: its bit-level oracle."""
    z = np.multiply(delta[:, :, None], a, dtype=np.result_type(delta, a, b_seq, x))
    a_bar = np.exp(z)
    u = np.expm1(z, out=z)
    u *= 1.0 / a
    u *= b_seq[:, None, :]
    u *= x[:, :, None]
    return a_bar, u


def _discretize(delta, a, b_seq, x, dtype=None, r=None):
    """``selective_discretize`` into fresh whole buffers of ``dtype`` (the widest input dtype by default), called
    once per block of r rows (one call by default) with a's terms built once."""
    dtype = np.result_type(delta, a, b_seq, x) if dtype is None else dtype
    a_bar, u, work = np.empty((3, delta.shape[0]) + a.shape, dtype=dtype)
    a_terms = ssm._a_terms(a, dtype)
    r = r or max(delta.shape[0], 1)
    for k0 in range(0, delta.shape[0], r):
        rows = slice(k0, k0 + r)
        selective_discretize(delta[rows], *a_terms, b_seq[rows], x[rows], a_bar[rows], u[rows], work[rows])
    return a_bar, u


def _in_scan_order(x, delta, a, b_seq, c_seq):
    """One time-ordered sequence's inputs gathered into ``scan_order``, and that order."""
    order = scan_order(x.shape[0], x.shape[1], a.shape[-1])
    return order, (x[order], delta[order], a, b_seq[order], c_seq[order])


def _to_time_order(order, arr):
    """Rows of ``arr`` at scan positions scattered back to their time steps."""
    out = np.empty_like(arr)
    out[order] = arr
    return out


def _kept_forward(x, delta, a, b_seq, c_seq):
    """``ssm._scan_forward`` keeping its state, on sequences in scan order: (y, h) in the widest input dtype."""
    y = np.empty(x.shape, dtype=np.result_type(x, delta, a, b_seq, c_seq))
    return y, ssm._scan_forward(x, delta, a, b_seq, c_seq, y, True)


def _scan_forward(x, delta, a, b_seq, c_seq):
    """``_kept_forward`` of a time-ordered sequence: (y, h) in time order."""
    order, seq = _in_scan_order(x, delta, a, b_seq, c_seq)
    return tuple(_to_time_order(order, v) for v in _kept_forward(*seq))


def _scan_backward(gy, x, delta, a, b_seq, c_seq, h):
    """``ssm._scan_backward`` of a time-ordered sequence: the five gradients, the per-step ones in time order."""
    order, seq = _in_scan_order(x, delta, a, b_seq, c_seq)
    g_x, g_delta, g_a, g_b, g_c = ssm._scan_backward(gy[order], *seq, h[order])
    return (*(_to_time_order(order, g) for g in (g_x, g_delta)), g_a, *(_to_time_order(order, g) for g in (g_b, g_c)))


def _assert_scan_matches_blockwise(coeff, update, reverse, r):
    """associative_scan on copies of (coeff, update), reversed views if asked, equals the oracle byte for byte:
    ``_one_block_scan`` up to r rows, ``_fold_and_sweep`` beyond."""
    bufs = [coeff.copy(), update.copy(), coeff.copy(), update.copy()]
    if reverse:
        bufs = [b[::-1] for b in bufs]
    if coeff.shape[0] <= r:
        expected = _one_block_scan(bufs[0], bufs[1])
    else:
        expected = _fold_and_sweep(bufs[0], bufs[1], r)
    assert associative_scan(bufs[2], bufs[3]).tobytes() == expected.tobytes()


# (16, 8) rows, the dense stage-0 (D, M): 128 elements per row, R = 1024 rows per block in either dtype
BLOCK_ROW = (16, 8)
BLOCK_R = 1 << int(math.log2(SCAN_BLOCK_ELEMENTS // math.prod(BLOCK_ROW)))


# lengths k*R + c as (k, c), named after them
BLOCK_LENGTHS = {"1": (0, 1), "R-1": (1, -1), "R": (1, 0), "R+1": (1, 1), "2R+1": (2, 1), "3R+5": (3, 5)}


class TestBlockedScan:
    """The block-sequential kernels against their bit-level oracles: the unblocked sweep within one block, the fold
    and sweep per block beyond it, and whole-buffer broadcast passes for the discretization."""

    @pytest.mark.parametrize("reverse", [False, True], ids=["contiguous", "reversed"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("length", [*BLOCK_LENGTHS, "16384"])
    def test_scan_equals_one_block_sweep(self, length, dtype, reverse):
        r_rows = BLOCK_R
        assert 4 <= r_rows <= 4096  # a 16384-row buffer spans several blocks
        k, c = BLOCK_LENGTHS.get(length, (0, 16384))
        t_len = k * r_rows + c
        gen = rng(300 + t_len)
        coeff = gen.uniform(-1.0, 1.0, (t_len,) + BLOCK_ROW).astype(dtype)
        update = gen.normal(size=(t_len,) + BLOCK_ROW).astype(dtype)
        _assert_scan_matches_blockwise(coeff, update, reverse, r_rows)

    # (2, 3) rows in 4-row blocks: length 1000 folds 249 block seams
    @pytest.mark.parametrize("t_len", list(range(41)) + [63, 64, 65, 129, 257, 1000])
    def test_scan_equals_one_block_sweep_with_tiny_blocks(self, monkeypatch, t_len):
        monkeypatch.setattr(ssm, "SCAN_BLOCK_ELEMENTS", 4 * TINY_ROW)
        gen = rng(400 + t_len)
        coeff, update = gen.uniform(-1.0, 1.0, (t_len, 2, 3)), gen.normal(size=(t_len, 2, 3))
        for reverse in (False, True):
            _assert_scan_matches_blockwise(coeff, update, reverse, 4)

    @pytest.mark.parametrize("x_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("length", ["1", "R+1", "3R+5"])
    def test_discretize_equals_one_block_build(self, length, x_dtype):
        # float32 parameters; a float64 x gives float64 buffers (the widest input dtype). The selector spreads
        # equal the broadcasts bit for bit, whole-buffer and into caller-owned blocks of R or of 7 rows.
        d, m = BLOCK_ROW
        k, c = BLOCK_LENGTHS[length]
        r_rows = BLOCK_R
        t_len = k * r_rows + c
        gen = rng(500 + t_len)
        delta = gen.uniform(0.001, 0.5, (t_len, d)).astype(np.float32)
        a = -gen.uniform(0.2, 8.0, (d, m)).astype(np.float32)
        b = gen.normal(size=(t_len, m)).astype(np.float32)
        x = gen.normal(size=(t_len, d)).astype(x_dtype)
        expected = [e.tobytes() for e in _one_block_discretize(delta, a, b, x)]
        for r in (None, r_rows, 7):
            got = _discretize(delta, a, b, x, r=r)
            assert [g.dtype for g in got] == [np.dtype(x_dtype)] * 2
            assert [g.tobytes() for g in got] == expected

    def test_discretize_rejects_buffers_it_cannot_fill_in_place(self):
        delta, x = np.ones((4, 2)), np.ones((4, 2))
        a, b = -np.ones((2, 3)), np.ones((4, 3))
        a_terms = ssm._a_terms(a, np.float64)
        bufs = np.empty((3, 4, 2, 3))
        with pytest.raises(ContractViolation):
            selective_discretize(delta, *a_terms, b, x, bufs[0], bufs[1][::-1], bufs[2])  # a reshape would copy
        with pytest.raises(ContractViolation):
            selective_discretize(delta, *a_terms, b, x, bufs[0, :3], bufs[1], bufs[2])


# block lengths n around the depth-3 class layout: below 2^3, tails with a smaller power of two (12 at depth 2; 3, 5,
# 7 and 37 at depth 0, time order), and whole blocks of R rows
CLASS_LENGTHS = [1, 2, 3, 4, 5, 7, 8, 12, 37, "R"]


class TestScanOrder:
    """The class layout of ``scan_order`` and its sweep, ``class_scan``, against ``associative_scan`` in time order."""

    @pytest.mark.parametrize("reverse", [False, True], ids=["contiguous", "reversed"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", CLASS_LENGTHS)
    def test_class_scan_equals_the_time_ordered_sweep(self, n, dtype, reverse):
        # one block in its class layout, or the reversed views of one (the adjoint's), swept in place: the state
        # equals associative_scan on the time-ordered block (reversed likewise) byte for byte
        assert ssm.SCAN_LEVELS == 3
        n = BLOCK_R if n == "R" else n
        order = scan_order(n, *BLOCK_ROW)
        gen = rng(1000 + n)
        coeff = gen.uniform(-1.0, 1.0, (n,) + BLOCK_ROW).astype(dtype)
        update = gen.normal(size=(n,) + BLOCK_ROW).astype(dtype)
        flip = (lambda v: v[::-1]) if reverse else (lambda v: v)
        expected = flip(associative_scan(*(flip(v.copy()) for v in (coeff, update))))
        a, u = coeff[order], update[order]
        class_scan(flip(a), flip(u))
        assert _to_time_order(order, u).tobytes() == expected.tobytes()

    def test_block_layout_example(self):
        # 16 steps at depth 3: classes t mod 8 in the order 0, 4, 2, 6, 1, 5, 3, 7, each in time order
        assert scan_order(16, *BLOCK_ROW).tolist() == [0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15]
        assert scan_order(12, *BLOCK_ROW).tolist() == [0, 4, 8, 2, 6, 10, 1, 5, 9, 3, 7, 11]
        assert scan_order(7, *BLOCK_ROW).tolist() == list(range(7))

    @pytest.mark.parametrize("t_len", [1, 7, 8, 16, 17, 40, 100, 1000])
    def test_read_only_permutation_that_keeps_block_ends(self, monkeypatch, t_len):
        # 16-row blocks of (2, 3) rows: each block starts with its first step and ends with its last
        monkeypatch.setattr(ssm, "SCAN_BLOCK_ELEMENTS", 16 * TINY_ROW)
        order = scan_order(t_len, 2, 3)
        assert not order.flags.writeable
        assert sorted(order.tolist()) == list(range(t_len))
        for k0 in range(0, t_len, 16):
            block = order[k0 : k0 + 16]
            assert sorted(block.tolist()) == list(range(k0, k0 + block.size))
            assert block[0] == k0 and block[-1] == k0 + block.size - 1

    def test_order_follows_the_block_size(self, monkeypatch):
        # the order follows a changed SCAN_BLOCK_ELEMENTS: 4-row blocks at depth 2
        whole = scan_order(32, 2, 3)
        monkeypatch.setattr(ssm, "SCAN_BLOCK_ELEMENTS", 4 * TINY_ROW)
        blocked = scan_order(32, 2, 3)
        assert blocked.tolist() == [k0 + t for k0 in range(0, 32, 4) for t in (0, 2, 1, 3)]
        assert blocked.tolist() != whole.tolist()


class TestParallelScan:
    """``associative_scan`` and the detector's sweep (``class_sweep_scan``) against the sequential oracle."""

    # lengths 0-70 leave every partial trailing block at each level s <= 16; 129, 257 and 1000 reach deeper levels
    @pytest.mark.parametrize("t_len", list(range(71)) + [129, 257, 1000])
    def test_associative_scan_matches_loop_at_every_length(self, t_len):
        r = rng(100 + t_len)
        for tail in [(), (3,), (2, 3)]:
            coeff = r.uniform(-0.99, 0.99, (t_len,) + tail)
            update = r.normal(size=(t_len,) + tail)
            u = update.copy()
            h = associative_scan(coeff.copy(), u)
            assert h is u  # the state overwrites the caller's update buffer
            np.testing.assert_allclose(h, sequential_scan(coeff, update), rtol=1e-10, atol=1e-12)

    def test_associative_scan_on_reversed_views(self):
        # reversed views of fresh buffers, as the adjoint passes them
        r = rng(12)
        coeff = r.uniform(-0.99, 0.99, (37, 2, 3))
        update = r.normal(size=(37, 2, 3))
        expected = sequential_scan(coeff[::-1], update[::-1])
        np.testing.assert_allclose(associative_scan(coeff[::-1], update[::-1]), expected, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(update[::-1], expected, rtol=1e-10, atol=1e-12)

    def test_associative_scan_rejects_mismatched_buffers(self):
        a = np.full((5, 2), 0.5)
        with pytest.raises(ContractViolation):
            associative_scan(a, np.ones((5, 1)))  # no broadcast
        with pytest.raises(ContractViolation):
            associative_scan(a, np.ones((5, 2), dtype=np.float32))  # no promotion
        with pytest.raises(ContractViolation):
            associative_scan(a.astype(np.float32), np.ones((5, 2)))

    def test_associative_scan_float32_stays_float32(self):
        r = rng(13)
        coeff = r.uniform(0.5, 0.99, (300, 4, 2)).astype(np.float32)
        update = r.normal(size=(300, 4, 2)).astype(np.float32)
        h = associative_scan(coeff.copy(), update.copy())
        assert h.dtype == np.float32
        np.testing.assert_allclose(h, sequential_scan(coeff.astype(np.float64), update), rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize("t_len", [1, 2, 3])
    def test_exhaustive_tiny_lengths(self, t_len):
        r = rng(t_len)
        ab = r.uniform(-0.9, 0.9, (t_len, 2, 3))
        bb = r.normal(size=(t_len, 2, 3))
        cb = r.normal(size=(t_len, 2, 3))
        a, u, _ = lift(ab, bb, cb, r.normal(size=(t_len, 2)))
        np.testing.assert_allclose(class_sweep_scan(a, u), sequential_scan(a, u), atol=1e-12)

    @given(st.integers(0, 10_000))
    def test_matches_sequential(self, seed):
        r = rng(seed)
        t_len, d, m = int(r.integers(1, 65)), int(r.integers(1, 5)), int(r.integers(1, 9))
        per_step = bool(r.integers(0, 2))
        shape = (t_len, d, m) if per_step else (d, m)
        ab = r.uniform(-0.99, 0.99, shape)
        bb = r.normal(size=shape)
        cb = r.normal(size=shape)
        a, u, _ = lift(ab, bb, cb, r.normal(size=(t_len, d)))
        assert np.abs(class_sweep_scan(a, u) - sequential_scan(a, u)).max() <= 1e-6

    def test_state_reset_on_alternating_zero_coefficient(self):
        t_len = 8
        ab = np.resize(np.array([0.0, 1.0]), t_len).reshape(t_len, 1, 1)
        bb = np.ones((t_len, 1, 1))
        cb = np.ones((t_len, 1, 1))
        x = rng(3).normal(size=(t_len, 1))
        y_seq = recurrent_scan(ab, bb, cb, x)
        a, u, c = lift(ab, bb, cb, x)
        np.testing.assert_allclose((c * class_sweep_scan(a, u)).sum(axis=-1), y_seq, atol=1e-12)
        # coefficient 0 resets the state: those outputs equal the bare input
        np.testing.assert_allclose(y_seq[0::2], x[0::2], atol=1e-12)


class TestStability:
    @pytest.mark.parametrize("seed", range(8))
    def test_bounded_outputs(self, seed):
        r = rng(seed)
        m = int(r.integers(1, 6))
        a, b, c, delta = -r.uniform(0.1, 3.0, m), r.normal(size=m), r.normal(size=m), float(r.uniform(0.05, 1.0))
        a_bar, scale = zoh_factors(a, delta)
        b_bar = scale * b
        x = r.uniform(-1.0, 1.0, 200)
        y = recurrent_scan(a_bar, b_bar, c, x)[:, 0]
        bound = np.abs(x).max() * np.sum(np.abs(c) * np.abs(b_bar) / (1.0 - np.abs(a_bar)))
        assert np.abs(y).max() <= bound + 1e-9


class TestSelective:
    def test_softplus_of_zero_step_bias(self):
        proj = init_selective_projections(rng(0), channels=3, state_dim=2, sequences=1)
        proj.w_delta.value.data[...] = 0.0
        proj.b_delta.value.data[...] = 0.0
        tokens = T.Tensor(np.zeros((1, 4, 3)))
        _, _, delta, _ = selective_params(tokens, proj)
        np.testing.assert_allclose(T.value(delta), math.log(2.0), atol=1e-12)

    def test_zero_b_projection_zero_output(self):
        proj = init_selective_projections(rng(1), channels=3, state_dim=2, sequences=1)
        proj.w_b.value.data[...] = 0.0
        proj.b_b.value.data[...] = 0.0
        tokens = T.Tensor(rng(2).normal(size=(1, 5, 3)))
        out = selective_scan_tokens(tokens, proj)
        np.testing.assert_array_equal(T.value(out), 0.0)

    def test_a_log_zero_gives_minus_one(self):
        proj = init_selective_projections(rng(3), channels=2, state_dim=3, sequences=1)
        proj.a_log.value.data[...] = 0.0
        tokens = T.Tensor(np.zeros((1, 2, 2)))
        _, _, _, a = selective_params(tokens, proj)
        np.testing.assert_array_equal(T.value(a), -1.0)

    def test_delta_strictly_positive(self):
        proj = init_selective_projections(rng(4), channels=4, state_dim=2, sequences=1)
        tokens = T.Tensor(rng(5).normal(size=(1, 16, 4)) * 3.0)
        _, _, delta, a = selective_params(tokens, proj)
        assert (T.value(delta) > 0).all()
        assert (T.value(a) < 0).all()

    @staticmethod
    def _scan_inputs(r, t_len, d, m):
        # (x, delta, a, b, c) in float64; delta*a stays on the exact (non-series) ZOH branch
        return (
            r.normal(size=(t_len, d)),
            r.uniform(0.05, 0.5, (t_len, d)),
            -r.uniform(0.2, 1.5, (d, m)),
            r.normal(size=(t_len, m)),
            r.normal(size=(t_len, m)),
        )

    def test_fused_scan_grad(self):
        # central differences w.r.t. all five inputs; T=1 and non-power-of-two
        # lengths exercise the rolled adjoint coefficients
        r = rng(6)
        for t_len in (1, 2, 5, 7, 33):
            inputs = [T.Tensor(v[None]) for v in self._scan_inputs(r, t_len, 2, 3)]
            rep = T.grad_check(lambda *a: T.reduce_sum(ssm_scan(*a)), inputs, name=f"ssm_scan[T={t_len}]")
            assert rep.passed, rep

    def test_fused_scan_matches_recurrent_oracle(self):
        # the network scan (ZOH inside, parallel form) against zoh_factors + the sequential oracle
        r = rng(11)
        for t_len, d, m in [(1, 1, 1), (2, 3, 2), (37, 4, 3), (64, 2, 8), (257, 3, 4)]:
            x, delta, a, b, c = self._scan_inputs(r, t_len, d, m)
            order, seq = _in_scan_order(x, delta, a, b, c)
            y = _to_time_order(order, T.value(ssm_scan(*(T.Tensor(v[None]) for v in seq)))[0])
            a_bar, scale = zoh_factors(a, delta[:, :, None])
            ref = recurrent_scan(a_bar, scale * b[:, None, :], c[:, None, :], x)
            np.testing.assert_allclose(y, ref, rtol=1e-10, atol=1e-12)

    def test_scan_leaves_its_inputs_untouched(self):
        # the kernel works in place on buffers it allocates; grad_check perturbs these very arrays
        inputs = [T.Tensor(v[None]) for v in self._scan_inputs(rng(14), 37, 3, 4)]
        before = [t.data.tobytes() for t in inputs]
        with T.Tape() as tape:
            loss = T.reduce_sum(ssm_scan(*inputs))
        assert [t.data.tobytes() for t in inputs] == before
        tape.backward(loss)
        assert [t.data.tobytes() for t in inputs] == before

    def test_discretize_fills_buffers_in_the_widest_dtype(self):
        # the buffers are built in place, so a float64 x must not be rounded into float32 buffers: the forward
        # allocates them, and so h and y, in the widest input dtype
        x, delta, a, b, c = self._scan_inputs(rng(17), 5, 2, 3)
        y, h = _scan_forward(x, *(v.astype(np.float32) for v in (delta, a, b, c)))
        assert h.dtype == y.dtype == np.float64
        a_bar, u = _discretize(*(v.astype(np.float32) for v in (delta, a, b)), x)
        assert a_bar.dtype == u.dtype == np.float64
        ref_a_bar, scale = zoh_factors(a, delta[:, :, None])
        np.testing.assert_allclose(a_bar, ref_a_bar, rtol=1e-6)
        np.testing.assert_allclose(u, scale * b[:, None, :] * x[:, :, None], rtol=1e-5, atol=1e-7)

    def test_scan_working_set(self):
        # one float32 scan at (T, D, M) = (4096, 16, 8), in 2 MiB (T, D, M) buffers: the untaped forward
        # writes one block of h and two blocks of scratch; the backward recomputes the ZOH terms a row block at a time
        t_len, d, m = 4096, 16, 8
        buf = t_len * d * m * 4
        proj = init_selective_projections(rng(15), channels=d, state_dim=m, sequences=1)
        T.cast_params(proj, np.float32)
        tokens = T.Tensor(rng(16).normal(size=(1, t_len, d)).astype(np.float32))
        selective_scan_tokens(tokens, proj)  # warm-up outside the trace
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            selective_scan_tokens(tokens, proj)
            forward = tracemalloc.get_traced_memory()[1] - start
            with T.Tape() as tape:
                loss = T.reduce_sum(selective_scan_tokens(tokens, proj))
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            tape.backward(loss)
            backward = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # measured 1.30: three 512 KiB blocks (h and scratch), half a block of the sweep's products, y and the
        # projections; a whole h would add 0.75
        assert forward <= 1.5 * buf, f"forward peak {forward / buf:.2f} buffers"
        # measured 2.66: the adjoint scan's two buffers, a quarter-block of scratch, (T, D) and (T, M) gradients
        assert backward <= 3 * buf, f"backward peak {backward / buf:.2f} buffers"

    def test_blocked_scan_working_set(self):
        # float32 (T, D, M) = (16384, 16, 8): 8 MiB buffers, 16 row blocks; ZOH terms are built a block at a time,
        # in the forward and in the backward, and the untaped forward builds h a block at a time too
        t_len, d, m = 16384, 16, 8
        buf = t_len * d * m * 4
        proj = init_selective_projections(rng(15), channels=d, state_dim=m, sequences=1)
        T.cast_params(proj, np.float32)
        tokens = T.Tensor(rng(16).normal(size=(1, t_len, d)).astype(np.float32))
        selective_scan_tokens(tokens, proj)  # warm-up outside the trace
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            selective_scan_tokens(tokens, proj)
            forward = tracemalloc.get_traced_memory()[1] - start
            with T.Tape() as tape:
                loss = T.reduce_sum(selective_scan_tokens(tokens, proj))
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            tape.backward(loss)
            backward = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # measured 0.61: untaped, everything a block or a (T, D) array at a time; a whole h would add 0.94
        assert forward <= 0.75 * buf, f"forward peak {forward / buf:.2f} buffers"
        # measured 2.45: the adjoint scan's two buffers, and everything else a block or a (T, D) array at a time
        assert backward <= 2.75 * buf, f"backward peak {backward / buf:.2f} buffers"

    def test_untaped_stack_holds_one_state_at_a_time(self):
        # four float32 (4096, 16, 8) sequences in one untaped scan: each h is dropped before the next sequence runs;
        # taped, the record keeps all four
        k, t_len, d, m = 4, 4096, 16, 8
        buf = t_len * d * m * 4
        proj = init_selective_projections(rng(15), channels=d, state_dim=m, sequences=k)
        T.cast_params(proj, np.float32)
        tokens = T.Tensor(rng(16).normal(size=(k, t_len, d)).astype(np.float32))
        selective_scan_tokens(tokens, proj)  # warm-up outside the trace
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            selective_scan_tokens(tokens, proj)
            untaped = tracemalloc.get_traced_memory()[1] - start
            with T.Tape():
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                selective_scan_tokens(tokens, proj)
                taped = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # measured 2.43: one block of h, two blocks of scratch, and the (K, T, M) and (K, T, D) projections and
        # outputs; a whole h would add 0.75
        assert untaped <= 2.75 * buf, f"untaped peak {untaped / buf:.2f} buffers"
        assert taped >= k * buf, f"taped peak {taped / buf:.2f} buffers"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_untaped_forward_equals_the_kept_state_forward(self, monkeypatch, dtype):
        # untaped, one 4-row block of h is reused and the final state carried across each seam: the output equals,
        # byte for byte, the taped scan's and a forward that keeps every row of h
        monkeypatch.setattr(ssm, "SCAN_BLOCK_ELEMENTS", 4 * 3 * 4)
        for t_len in (1, 3, 4, 5, 8, 9, 37):
            seqs = [self._scan_inputs(rng(30 + t_len + j), t_len, 3, 4) for j in range(2)]
            inputs = [np.stack(arrays).astype(dtype) for arrays in zip(*seqs)]
            untaped = ssm_scan(*inputs).data
            with T.Tape():
                taped = ssm_scan(*inputs).data
            kept = np.stack([_kept_forward(*arrays)[0] for arrays in zip(*inputs)])
            assert untaped.dtype == np.dtype(dtype)
            assert untaped.tobytes() == taped.tobytes() == kept.tobytes()

    def test_a_terms_are_built_once_per_sequence(self, monkeypatch):
        # two sequences of 9 blocks each: the a-weighted selector and 1/a are built per sequence, not per block
        monkeypatch.setattr(ssm, "SCAN_BLOCK_ELEMENTS", 4 * 3 * 4)
        calls = []
        a_terms = ssm._a_terms
        monkeypatch.setattr(ssm, "_a_terms", lambda *args: calls.append(args) or a_terms(*args))
        seqs = [self._scan_inputs(rng(40 + j), 33, 3, 4) for j in range(2)]
        ssm_scan(*(np.stack(arrays) for arrays in zip(*seqs)))
        assert len(calls) == 2

    def test_selectors_are_built_once_and_read_only(self):
        spread_d, spread_m = ssm._spreads(3, 2, np.dtype(np.float32))
        again = ssm._spreads(3, 2, np.dtype(np.float32))
        assert again[0] is spread_d and again[1] is spread_m
        assert not (spread_d.flags.writeable or spread_m.flags.writeable)
        np.testing.assert_array_equal(spread_d, np.repeat(np.eye(3), 2, axis=1))
        np.testing.assert_array_equal(spread_m, np.tile(np.eye(2), 3))
        x, delta, a, b, c = self._scan_inputs(rng(20), 9, 3, 2)
        inputs = [T.Tensor(v[None]) for v in (x, delta, a, b, c)]
        with T.Tape() as tape:
            loss = T.reduce_sum(ssm_scan(*inputs))
        tape.backward(loss)
        misses = ssm._spreads.cache_info().misses
        with T.Tape() as tape:
            loss = T.reduce_sum(ssm_scan(*inputs))
        tape.backward(loss)
        assert ssm._spreads.cache_info().misses == misses

    def test_untaped_projections_compute_no_sigmoid(self, monkeypatch):
        # the softplus derivative is built in its backward closure, so inference never evaluates it
        calls = []
        sigmoid = T._stable_sigmoid
        monkeypatch.setattr(T, "_stable_sigmoid", lambda x: calls.append(x.shape) or sigmoid(x))
        proj = init_selective_projections(rng(18), channels=3, state_dim=2, sequences=1)
        tokens = T.Tensor(rng(19).normal(size=(1, 6, 3)))
        selective_params(tokens, proj)
        assert calls == []
        with T.Tape() as tape:
            loss = T.reduce_sum(selective_scan_tokens(tokens, proj))
        assert calls == []
        tape.backward(loss)
        assert calls == [(1, 6, 3)]

    def test_one_tape_record_per_scan(self):
        # 3 matmul + 3 add + softplus + exp + neg for the projections, then the scan itself
        proj = init_selective_projections(rng(12), channels=3, state_dim=2, sequences=1)
        with T.Tape() as tape:
            selective_scan_tokens(T.Tensor(rng(13).normal(size=(1, 6, 3))), proj)
        assert len(tape._records) == 10

    def test_grad_through_projections_and_zoh(self):
        r = rng(7)
        proj = init_selective_projections(r, channels=3, state_dim=2, sequences=1)
        tokens = T.Tensor(r.normal(size=(1, 6, 3)))
        inputs = [tokens] + T.collect_params(proj)
        rep = T.grad_check(lambda tk, *ps: T.reduce_sum(selective_scan_tokens(tk, proj)), inputs, name="selective")
        assert rep.passed, rep


def _composed_forward(x, delta, a, b_seq, c_seq):
    """``zoh_factors`` and the sequential recurrence in float64: the oracle of ``ssm._scan_forward``."""
    a_bar, scale = zoh_factors(a, delta[:, :, None])
    return recurrent_scan(a_bar, scale * b_seq[:, None, :], c_seq[:, None, :], x)


class TestScanForward:
    """The one-pass forward (discretize, fold, sweep and mat-vec per row block) against the composed oracle."""

    @pytest.mark.parametrize("length", list(BLOCK_LENGTHS))
    def test_matches_composed_forward_with_real_blocks(self, length):
        # (16, 8) float64 rows: R = 1024
        k, c = BLOCK_LENGTHS[length]
        t_len = k * BLOCK_R + c
        inputs = TestSelective._scan_inputs(rng(800 + t_len), t_len, *BLOCK_ROW)
        y, h = _scan_forward(*inputs)
        assert h.shape == (t_len,) + BLOCK_ROW
        _assert_matches_composed([y], [_composed_forward(*inputs)])

    @pytest.mark.parametrize("block", [1, 4])
    @pytest.mark.parametrize("length", list(BLOCK_LENGTHS))
    def test_matches_composed_forward_with_tiny_blocks(self, monkeypatch, block, length):
        monkeypatch.setattr(ssm, "SCAN_BLOCK_ELEMENTS", block * TINY_ROW)
        k, c = BLOCK_LENGTHS[length]
        t_len = k * block + c
        inputs = TestSelective._scan_inputs(rng(900 + t_len), t_len, 2, 3)
        _assert_matches_composed([_scan_forward(*inputs)[0]], [_composed_forward(*inputs)])

    def test_state_is_the_blocked_kernel_on_the_discretized_buffers(self, monkeypatch):
        # the fused pass runs the whole-buffer kernels' ops: h equals them byte for byte, here across 4-row seams
        monkeypatch.setattr(ssm, "SCAN_BLOCK_ELEMENTS", 4 * TINY_ROW)
        x, delta, a, b, c = TestSelective._scan_inputs(rng(25), 23, 2, 3)
        h = _scan_forward(x, delta, a, b, c)[1]
        assert h.tobytes() == associative_scan(*_one_block_discretize(delta, a, b, x)).tobytes()

    @pytest.mark.parametrize("c_dtype", [np.float32, np.float64])
    def test_float32_parameters_with_float64_x_give_float64_output(self, c_dtype):
        x, delta, a, b, c = TestSelective._scan_inputs(rng(26), 9, 2, 3)
        y = T.value(ssm_scan(x[None], *(v[None].astype(np.float32) for v in (delta, a, b)), c[None].astype(c_dtype)))[0]
        assert y.dtype == np.float64
        params = [v.astype(np.float32).astype(np.float64) for v in (delta, a, b, c)]
        np.testing.assert_allclose(y, _composed_forward(x, *params), rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("where", ["x", "delta", "b"])
    def test_nan_input_spreads_along_its_selector_row(self, where):
        # a NaN at step 4 turns step 4 non-finite in every channel, not only in its own, and the state carries it
        # on; none of the oracle's non-finite entries comes out finite, and nothing raises
        x, delta, a, b, c = TestSelective._scan_inputs(rng(27), 9, 2, 3)
        {"x": x, "delta": delta, "b": b}[where][4, 1] = np.nan
        with np.errstate(all="raise"):
            expected = _composed_forward(x, delta, a, b, c)
            y = _scan_forward(x, delta, a, b, c)[0]
        assert np.isfinite(y[:4]).all()
        assert not np.isfinite(y[4:]).any()
        assert not np.isfinite(y[~np.isfinite(expected)]).any()


def _composed_backward(gy, x, delta, a, b_seq, c_seq, h):
    """The whole-buffer backward of ``ssm_scan``, term by term in the order of the tape's mul/exp/reciprocal
    rules, each (T, D, M) term built when first needed: the float64 oracle of ``ssm._scan_backward``."""
    delta3, b3, recip = delta[:, :, None], b_seq[:, None, :], 1.0 / a
    a_bar = np.exp(delta3 * a)
    # adjoint lambda_t = c_t*gy_t + a_{t+1}*lambda_{t+1}: reversed position k needs a_{T-k}, and
    # position 0 only multiplies the zero initial state
    lam = associative_scan(np.roll(a_bar[::-1], 1, axis=0), (c_seq[:, None, :] * gy[:, :, None])[::-1])[::-1]
    g_bb = lam * x[:, :, None]
    g_scale = g_bb * b3
    zoh = np.expm1(delta3 * a)  # expm1(z), then in place the input scale, then b_bar
    g_recip = (g_scale * zoh).sum(axis=0)
    zoh *= recip
    g_bb *= zoh
    g_b = g_bb.sum(axis=1)
    zoh *= b3
    g_x = np.einsum("tdm,tdm->td", lam, zoh)
    g_c = np.einsum("td,tdm->tm", gy, h)
    g_ab = lam  # lambda_t * h_{t-1}, 0 at t = 0
    g_ab[0] = 0.0
    g_ab[1:] *= h[:-1]
    g_ab *= a_bar
    g_z = g_scale  # g_scale * recip * a_bar + g_ab * a_bar
    g_z *= recip
    g_z *= a_bar
    g_z += g_ab
    g_delta = (g_z * a).sum(axis=2)
    g_a = -g_recip / (a * a) + (g_z * delta3).sum(axis=0)
    return g_x, g_delta, g_a, g_b, g_c


def _backward_inputs(gen, t_len, d, m):
    """Float64 (gy, x, delta, a, b, c, h), h from the forward kernels."""
    x, delta, a, b, c = TestSelective._scan_inputs(gen, t_len, d, m)
    h = _scan_forward(x, delta, a, b, c)[1]
    return gen.normal(size=(t_len, d)), x, delta, a, b, c, h


def _assert_matches_composed(got, expected):
    """Elementwise rtol 1e-12, plus 1e-12 of the gradient's largest magnitude for entries that sums cancel toward 0."""
    for g, e in zip(got, expected):
        assert g.shape == e.shape and g.dtype == e.dtype
        np.testing.assert_allclose(g, e, rtol=1e-12, atol=1e-12 * np.abs(e).max(initial=0.0))


# (D, M) = (2, 3) rows: 6 elements
TINY_ROW = 2 * 3


class TestScanBackward:
    """The row-blocked backward against the composed whole-buffer one, across block seams."""

    @pytest.mark.parametrize("length", ["1", "R-1", "R", "R+1", "3R+5"])
    def test_matches_composed_backward_with_real_blocks(self, length):
        # (16, 8) float64 rows: R = 1024 rows per forward block, 256 per backward block
        k, c = BLOCK_LENGTHS[length]
        t_len = k * BLOCK_R + c
        inputs = _backward_inputs(rng(600 + t_len), t_len, *BLOCK_ROW)
        _assert_matches_composed(_scan_backward(*inputs), _composed_backward(*inputs))

    # forward blocks of 4 rows give 1-row backward blocks; of 16 rows, 4-row backward blocks
    @pytest.mark.parametrize("block", [4, 16])
    @pytest.mark.parametrize("length", ["1", "R-1", "R", "R+1", "3R+5"])
    def test_matches_composed_backward_with_tiny_blocks(self, monkeypatch, block, length):
        monkeypatch.setattr(ssm, "SCAN_BLOCK_ELEMENTS", block * TINY_ROW)
        k, c = BLOCK_LENGTHS[length]
        t_len = k * block + c
        inputs = _backward_inputs(rng(700 + t_len), t_len, 2, 3)
        _assert_matches_composed(_scan_backward(*inputs), _composed_backward(*inputs))

    @pytest.mark.parametrize("t_len", [3, 6, 12, 20, 32, 48, 100])
    def test_matches_composed_backward_in_scan_order(self, monkeypatch, t_len):
        # 16-row forward blocks at depth 3: T below 2^3 (time order), T not a multiple of 2^3 (a tail block at a
        # smaller depth), and T spanning several class-layout blocks
        monkeypatch.setattr(ssm, "SCAN_BLOCK_ELEMENTS", 16 * TINY_ROW)
        inputs = _backward_inputs(rng(1100 + t_len), t_len, 2, 3)
        _assert_matches_composed(_scan_backward(*inputs), _composed_backward(*inputs))

    def test_grad_check_across_block_seams(self, monkeypatch):
        # 4-row backward blocks: h[k0 - 1] and the next row's a_bar cross every seam; 8, 16 and 24 steps fill
        # class-layout blocks
        monkeypatch.setattr(ssm, "SCAN_BLOCK_ELEMENTS", 16 * TINY_ROW)
        r = rng(22)
        for t_len in (3, 4, 5, 8, 9, 16, 17, 24):
            inputs = [T.Tensor(v[None]) for v in TestSelective._scan_inputs(r, t_len, 2, 3)]
            rep = T.grad_check(lambda *a: T.reduce_sum(ssm_scan(*a)), inputs, name=f"ssm_scan[T={t_len}, 4-row blocks]")
            assert rep.passed, rep

    @pytest.mark.parametrize(
        "x_dtype, param_dtype", [(np.float32, np.float32), (np.float32, np.float64), (np.float64, np.float32)]
    )
    def test_gradients_come_in_the_widest_dtype(self, x_dtype, param_dtype):
        # the composed backward failed on float32 parameters with a float64 x (its adjoint buffers differed in dtype)
        x, delta, a, b, c = TestSelective._scan_inputs(rng(23), 9, 2, 3)
        inputs = [T.Tensor(x[None].astype(x_dtype))] + [T.Tensor(v[None].astype(param_dtype)) for v in (delta, a, b, c)]
        with T.Tape() as tape:
            loss = T.reduce_sum(ssm_scan(*inputs))
        tape.backward(loss)
        grads = [tape.grad(t)[0] for t in inputs]
        wide = np.result_type(x_dtype, param_dtype)
        assert [g.dtype for g in grads] == [wide] * 5
        # against the float64 oracle on the same values; the scan rounds 1/a in the parameters' dtype
        arrays = [t.data[0].astype(np.float64) for t in inputs]
        h = _scan_forward(*arrays)[1]
        for g, e in zip(grads, _composed_backward(np.ones((9, 2)), *arrays, h)):
            np.testing.assert_allclose(g, e, rtol=1e-12 if param_dtype == np.float64 else 1e-5, atol=1e-6)

    @pytest.mark.parametrize("where", ["x", "gy"])
    def test_nan_input_gives_non_finite_gradients(self, where):
        # a selector matmul spreads a NaN along its row, so more entries may go NaN than in the composed
        # backward, but none of its non-finite entries comes out finite, and nothing raises
        gy, x, delta, a, b, c, h = _backward_inputs(rng(24), 9, 2, 3)
        if where == "x":
            x[4, 1] = np.nan
            h = _scan_forward(x, delta, a, b, c)[1]
        else:
            gy[4, 1] = np.nan
        with np.errstate(all="raise"):
            expected = _composed_backward(gy, x, delta, a, b, c, h)
            got = _scan_backward(gy, x, delta, a, b, c, h)
        assert not all(np.isfinite(e).all() for e in expected)
        for g, e in zip(got, expected):
            assert not np.isfinite(g[~np.isfinite(e)]).any()
