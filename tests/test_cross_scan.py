"""Directional flatten/merge bijections, SS2D block contracts, the stacked SS2D against its per-direction
oracle, diagnostics."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import rng
from pillarmamba import tensor as T
from pillarmamba.cross_scan import (
    DIRECTIONS,
    cross_merge,
    cross_scan_flatten,
    direction_permutation,
    direction_permutations,
    empty_run_stats,
    init_ss2d_params,
    neighbor_distance_histogram,
    scan_diagnostics,
    ss2d_block,
)
from pillarmamba.errors import ContractViolation
from pillarmamba.ssm import SelectiveProjections, init_selective_projections, scan_recurrent_arrays, ssm_scan


def _grid_tokens(values) -> T.Tensor:
    """(X, Y) scalar grid -> (1, X, Y) map."""
    arr = np.asarray(values, dtype=np.float64)
    return T.Tensor(arr[None, :, :])


class TestFlatten:
    def test_2x2_enumeration(self):
        bev = _grid_tokens([[1, 2], [3, 4]])
        seqs = T.value(cross_scan_flatten(bev))
        assert seqs.shape == (len(DIRECTIONS), 4, 1)
        got = {d: s.reshape(-1).tolist() for d, s in zip(DIRECTIONS, seqs)}
        assert got["row_forward"] == [1, 2, 3, 4]
        assert got["col_forward"] == [1, 3, 2, 4]
        assert got["row_reverse"] == [4, 3, 2, 1]
        assert got["col_reverse"] == [4, 2, 3, 1]

    def test_1x1_degenerate(self):
        assert T.value(cross_scan_flatten(_grid_tokens([[7.0]]))).reshape(-1).tolist() == [7.0] * len(DIRECTIONS)

    @pytest.mark.parametrize("x_cells,y_cells", [(2, 2), (3, 3)])
    def test_bijection_exhaustive(self, x_cells, y_cells):
        t_len = x_cells * y_cells
        perms, invs = direction_permutations(x_cells, y_cells)
        assert perms.shape == invs.shape == (len(DIRECTIONS), t_len)
        for d, perm, inv in zip(DIRECTIONS, perms, invs):
            assert sorted(perm.tolist()) == list(range(t_len))
            np.testing.assert_array_equal(perm[inv], np.arange(t_len))
            np.testing.assert_array_equal(direction_permutation(d, x_cells, y_cells), perm)
        assert not (perms.flags.writeable or invs.flags.writeable)

    @given(st.integers(1, 32), st.integers(1, 32), st.integers(0, 2**31 - 1))
    def test_roundtrip_randomized(self, x_cells, y_cells, seed):
        r = rng(seed)
        x = r.normal(size=(2, x_cells, y_cells))
        seqs = T.value(cross_scan_flatten(T.Tensor(x)))
        for seq, inv in zip(seqs, direction_permutations(x_cells, y_cells)[1]):
            np.testing.assert_array_equal(seq[inv], x.reshape(2, -1).T)

    def test_each_sequence_is_token_permutation(self):
        r = rng(11)
        x = r.normal(size=(3, 5, 7))
        base = np.sort(x.reshape(3, -1).T, axis=0)
        for seq in T.value(cross_scan_flatten(T.Tensor(x))):
            np.testing.assert_array_equal(np.sort(seq, axis=0), base)

    def test_transpose_swaps_row_and_col_contents(self):
        r = rng(12)
        x = r.normal(size=(2, 4, 6))
        xt = np.transpose(x, (0, 2, 1))
        seqs = dict(zip(DIRECTIONS, T.value(cross_scan_flatten(T.Tensor(x)))))
        seqs_t = dict(zip(DIRECTIONS, T.value(cross_scan_flatten(T.Tensor(xt)))))
        np.testing.assert_array_equal(seqs_t["row_forward"], seqs["col_forward"])
        np.testing.assert_array_equal(seqs_t["col_forward"], seqs["row_forward"])
        np.testing.assert_array_equal(seqs_t["row_reverse"], seqs["col_reverse"])


class TestMerge:
    def test_identity_processing_gives_4x(self):
        r = rng(13)
        x = r.normal(size=(3, 4, 5))
        seqs = cross_scan_flatten(T.Tensor(x))
        merged = cross_merge(seqs, 4, 5)
        np.testing.assert_allclose(T.value(merged), 4.0 * x, atol=1e-12)

    def test_zeroed_direction_additivity(self):
        r = rng(14)
        x = r.normal(size=(2, 3, 3))
        outputs = T.value(cross_scan_flatten(T.Tensor(x))).copy()
        outputs[DIRECTIONS.index("col_reverse")] = 0.0
        merged = cross_merge(T.Tensor(outputs), 3, 3)
        np.testing.assert_allclose(T.value(merged), 3.0 * x, atol=1e-12)

    def test_memoryless_scan_composed_oracle(self):
        # a_bar=0, b_bar=c_bar=1 scan is the identity map on each sequence
        r = rng(15)
        x = r.normal(size=(2, 4, 4))
        outputs = [
            scan_recurrent_arrays(np.zeros(1), np.ones(1), np.ones(1), seq) for seq in T.value(cross_scan_flatten(T.Tensor(x)))
        ]
        merged = cross_merge(T.Tensor(np.stack(outputs)), 4, 4)
        np.testing.assert_allclose(T.value(merged), 4.0 * x, atol=1e-12)

    def test_single_direction_matches_plain_recurrent_scan(self):
        # scalar time-invariant parameters, row-major order only; the other directions output zeros
        r = rng(16)
        x = r.normal(size=(1, 3, 4))
        a_bar, b_bar, c_bar = np.array([0.7]), np.array([0.5]), np.array([1.3])
        outputs = np.zeros((len(DIRECTIONS), 12, 1))
        outputs[0] = scan_recurrent_arrays(a_bar, b_bar, c_bar, T.value(cross_scan_flatten(T.Tensor(x)))[0])
        merged = cross_merge(T.Tensor(outputs), 3, 4)
        direct = scan_recurrent_arrays(a_bar, b_bar, c_bar, x.reshape(1, -1).T).T.reshape(1, 3, 4)
        np.testing.assert_allclose(T.value(merged), direct, atol=1e-12)

    def test_output_count_must_match_directions(self):
        seqs = T.value(cross_scan_flatten(T.Tensor(np.zeros((1, 2, 2)))))
        with pytest.raises(ContractViolation, match="cross_merge expects a"):
            cross_merge(T.Tensor(seqs[:3]), 2, 2)


class TestSs2dBlock:
    def test_zero_input_zero_biases_zero_output(self):
        params = init_ss2d_params(rng(17), channels=4, state_dim=2, dtype=np.float64)
        out = ss2d_block(T.Tensor(np.zeros((4, 3, 3))), params)
        np.testing.assert_array_equal(T.value(out), 0.0)

    def test_shape_preserving(self):
        params = init_ss2d_params(rng(18), channels=8, state_dim=2, dtype=np.float64)
        x = T.Tensor(rng(19).normal(size=(8, 4, 4)))
        out = ss2d_block(x, params)
        assert T.value(out).shape == (8, 4, 4)
        assert np.isfinite(T.value(out)).all()

    def test_gradient_check(self):
        params = init_ss2d_params(rng(22), channels=3, state_dim=2, dtype=np.float64)
        x = T.Tensor(rng(23).normal(size=(3, 3, 3)))
        rep = T.grad_check(lambda x_, *ps: T.reduce_sum(ss2d_block(x_, params)), [x] + T.collect_params(params))
        assert rep.passed and rep.max_rel_error <= 1e-4


SCAN_FIELDS = [f.name for f in fields(SelectiveProjections)]


def _direction_slices(params) -> list[dict]:
    """Per direction, in ``DIRECTIONS`` order, each stacked scan parameter's slice as a Param of its own."""
    return [
        {f: T.Param(getattr(params.scan, f).value.data[k].copy()) for f in SCAN_FIELDS} for k in range(len(DIRECTIONS))
    ]


def _per_direction_ss2d(bev, params, slices) -> T.Tensor:
    """The per-direction SS2D, the oracle of the stacked ``ss2d_block``: per direction, a gather, three 2-D
    matmuls, softplus, a one-sequence ``ssm_scan`` and an inverse gather; then a sum in ``DIRECTIONS`` order."""
    tb = T.as_tensor(bev)
    _, x_cells, y_cells = tb.shape
    tokens = T.bev_to_tokens(T.silu(T.conv2d(tb, params.in_proj_w, params.in_proj_b)))
    one = lambda t: T.reshape(t, (1,) + t.shape)
    acc = None
    for perm, inv, p in zip(*direction_permutations(x_cells, y_cells), slices, strict=True):
        seq = T.gather_rows(tokens, perm)
        b_seq = T.add(T.matmul(seq, p["w_b"]), p["b_b"])
        c_seq = T.add(T.matmul(seq, p["w_c"]), p["b_c"])
        delta = T.softplus(T.add(T.matmul(seq, p["w_delta"]), p["b_delta"]))
        a = T.neg(T.texp(p["a_log"]))
        y = ssm_scan(*(one(t) for t in (seq, delta, a, b_seq, c_seq)))
        grid_tokens = T.gather_rows(T.reshape(y, seq.shape), inv)
        acc = grid_tokens if acc is None else T.add(acc, grid_tokens)
    normed = T.layer_norm(T.tokens_to_bev(acc, x_cells, y_cells), params.norm_gamma, params.norm_beta)
    return T.conv2d(normed, params.out_proj_w, params.out_proj_b)


def _ss2d_case(dtype):
    """A (6, 5, 7) map and seed-30 SS2D parameters at C=6, M=4, with nonzero b/c biases."""
    r = rng(30)
    params = init_ss2d_params(r, channels=6, state_dim=4, dtype=dtype)
    for bias in (params.scan.b_b, params.scan.b_c):
        bias.value.data[...] = r.normal(0.0, 0.3, size=bias.shape)
    return T.Tensor(r.normal(size=(6, 5, 7)).astype(dtype)), params


class TestStackedAgainstPerDirection:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_is_bit_identical(self, dtype):
        x, params = _ss2d_case(dtype)
        stacked = T.value(ss2d_block(x, params))
        oracle = T.value(_per_direction_ss2d(x, params, _direction_slices(params)))
        assert stacked.dtype == oracle.dtype == dtype
        assert stacked.tobytes() == oracle.tobytes()

    def test_float64_gradients_agree(self):
        x, params = _ss2d_case(np.float64)
        weights = T.Tensor(rng(31).normal(size=x.shape))
        slices = _direction_slices(params)
        scan = T.collect_params(params.scan)
        shared = [x] + [p for p in T.collect_params(params) if p not in scan]

        def grads(forward, scan_grads) -> list:
            with T.Tape() as tape:
                loss = T.reduce_sum(T.mul(forward(), weights))
            tape.backward(loss)
            return [tape.grad(t) for t in shared] + scan_grads(tape)

        stacked = grads(lambda: ss2d_block(x, params), lambda tape: [tape.grad(p) for p in scan])
        oracle = grads(
            lambda: _per_direction_ss2d(x, params, slices),
            lambda tape: [np.stack([tape.grad(s[f]) for s in slices]) for f in SCAN_FIELDS],
        )
        for g, e in zip(stacked, oracle, strict=True):
            assert g.shape == e.shape and np.abs(e).max() > 0
            np.testing.assert_allclose(g, e, rtol=1e-12, atol=1e-12 * np.abs(e).max())

    def test_init_draws_one_direction_after_another(self):
        # the stacked draw equals four one-sequence draws in turn, so seeded weights match the per-direction layout
        stacked = init_selective_projections(rng(32), 5, 3, len(DIRECTIONS))
        r = rng(32)
        singles = [init_selective_projections(r, 5, 3, 1) for _ in DIRECTIONS]
        for f in SCAN_FIELDS:
            expected = np.concatenate([T.value(getattr(p, f)) for p in singles])
            assert T.value(getattr(stacked, f)).tobytes() == expected.tobytes()

    def test_tape_records_of_one_ss2d(self):
        # in_proj conv + silu; bev_to_tokens + one gather; 3 matmul + 3 add + softplus + exp + neg;
        # one scan; reshape + one inverse gather + reduce_sum + tokens_to_bev; layer_norm + out_proj conv
        x, params = _ss2d_case(np.float32)
        with T.Tape() as tape:
            ss2d_block(x, params)
        assert len(tape._records) == 20


class TestDiagnostics:
    def test_neighbor_histogram_row_forward_4x4(self):
        hist = neighbor_distance_histogram(4, 4, "row_forward")
        assert hist == {1: 12, 4: 12}

    def test_neighbor_histogram_rectangular(self):
        # 2x5 grid, row-major: y-neighbors 1 apart (2*4=8), x-neighbors 5 apart (5)
        hist = neighbor_distance_histogram(2, 5, "row_forward")
        assert hist == {1: 8, 5: 5}
        # column-major flips the roles: x-neighbors 1 apart, y-neighbors 2 apart
        hist_col = neighbor_distance_histogram(2, 5, "col_forward")
        assert hist_col == {1: 5, 2: 8}

    def test_reverse_direction_same_histogram(self):
        assert neighbor_distance_histogram(5, 3, "row_forward") == neighbor_distance_histogram(5, 3, "row_reverse")

    def test_adjacent_rows_reach_full_row_distance(self):
        hist = neighbor_distance_histogram(6, 6, "row_forward")
        assert max(hist) == 6  # grid-distance-1 pairs stretched to a whole row apart

    def test_empty_run_stats_constructed(self):
        occ = np.zeros((2, 4), dtype=bool)
        occ[0, 0] = True
        occ[1, 3] = True
        # row-major sequence: T F F F F F F T -> one run of 6
        stats = empty_run_stats(occ, "row_forward")
        assert stats == {"max_empty_run": 6, "mean_empty_run": 6.0, "num_runs": 1, "empty_fraction": 0.75}
        # reversed: same single run
        assert empty_run_stats(occ, "row_reverse")["max_empty_run"] == 6

    def test_empty_run_stats_full_occupancy(self):
        stats = empty_run_stats(np.ones((3, 3), dtype=bool), "col_forward")
        assert stats["max_empty_run"] == 0 and stats["num_runs"] == 0

    def test_scan_diagnostics_report_shape(self):
        report = scan_diagnostics(4, 4, occupancy=np.eye(4, dtype=bool))
        assert set(report["directions"]) == set(DIRECTIONS)
        for d in DIRECTIONS:
            assert "neighbor_distance_histogram" in report["directions"][d]
            assert "empty_runs" in report["directions"][d]

    def test_unknown_direction_rejected(self):
        with pytest.raises(ContractViolation):
            direction_permutation("diagonal", 4, 4)
