"""Directional flatten/merge bijections, SS2D block contracts, diagnostics."""

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
    empty_run_stats,
    init_ss2d_params,
    inverse_permutation,
    neighbor_distance_histogram,
    scan_diagnostics,
    ss2d_block,
)
from pillarmamba.errors import ContractViolation
from pillarmamba.ssm import scan_recurrent_arrays


def _grid_tokens(values) -> T.Tensor:
    """(X, Y) scalar grid -> (1, X, Y) map."""
    arr = np.asarray(values, dtype=np.float64)
    return T.Tensor(arr[None, :, :])


class TestFlatten:
    def test_2x2_enumeration(self):
        bev = _grid_tokens([[1, 2], [3, 4]])
        seqs = cross_scan_flatten(bev)
        got = {d: T.value(seqs.sequences[d]).reshape(-1).tolist() for d in DIRECTIONS}
        assert got["row_forward"] == [1, 2, 3, 4]
        assert got["col_forward"] == [1, 3, 2, 4]
        assert got["row_reverse"] == [4, 3, 2, 1]
        assert got["col_reverse"] == [4, 2, 3, 1]

    def test_1x1_degenerate(self):
        seqs = cross_scan_flatten(_grid_tokens([[7.0]]))
        for d in DIRECTIONS:
            assert T.value(seqs.sequences[d]).reshape(-1).tolist() == [7.0]

    @pytest.mark.parametrize("x_cells,y_cells", [(2, 2), (3, 3)])
    def test_bijection_exhaustive(self, x_cells, y_cells):
        t_len = x_cells * y_cells
        for d in DIRECTIONS:
            perm = direction_permutation(d, x_cells, y_cells)
            assert sorted(perm.tolist()) == list(range(t_len))
            inv = inverse_permutation(d, x_cells, y_cells)
            np.testing.assert_array_equal(perm[inv], np.arange(t_len))

    @given(st.integers(1, 32), st.integers(1, 32), st.integers(0, 2**31 - 1))
    def test_roundtrip_randomized(self, x_cells, y_cells, seed):
        r = rng(seed)
        x = r.normal(size=(2, x_cells, y_cells))
        seqs = cross_scan_flatten(T.Tensor(x))
        for d in DIRECTIONS:
            inv = inverse_permutation(d, x_cells, y_cells)
            back = T.value(T.gather_rows(seqs.sequences[d], inv))
            np.testing.assert_array_equal(back, x.reshape(2, -1).T)

    def test_each_sequence_is_token_permutation(self):
        r = rng(11)
        x = r.normal(size=(3, 5, 7))
        seqs = cross_scan_flatten(T.Tensor(x))
        base = np.sort(x.reshape(3, -1).T, axis=0)
        for d in DIRECTIONS:
            np.testing.assert_array_equal(np.sort(T.value(seqs.sequences[d]), axis=0), base)

    def test_transpose_swaps_row_and_col_contents(self):
        r = rng(12)
        x = r.normal(size=(2, 4, 6))
        xt = np.transpose(x, (0, 2, 1))
        seqs = cross_scan_flatten(T.Tensor(x))
        seqs_t = cross_scan_flatten(T.Tensor(xt))
        np.testing.assert_array_equal(
            T.value(seqs_t.sequences["row_forward"]), T.value(seqs.sequences["col_forward"])
        )
        np.testing.assert_array_equal(
            T.value(seqs_t.sequences["col_forward"]), T.value(seqs.sequences["row_forward"])
        )
        np.testing.assert_array_equal(
            T.value(seqs_t.sequences["row_reverse"]), T.value(seqs.sequences["col_reverse"])
        )


class TestMerge:
    def test_identity_processing_gives_4x(self):
        r = rng(13)
        x = r.normal(size=(3, 4, 5))
        seqs = cross_scan_flatten(T.Tensor(x))
        merged = cross_merge(seqs.sequences, 4, 5)
        np.testing.assert_allclose(T.value(merged), 4.0 * x, atol=1e-12)

    def test_zeroed_direction_additivity(self):
        r = rng(14)
        x = r.normal(size=(2, 3, 3))
        seqs = cross_scan_flatten(T.Tensor(x))
        outputs = dict(seqs.sequences)
        outputs["col_reverse"] = T.Tensor(np.zeros_like(T.value(outputs["col_reverse"])))
        merged = cross_merge(outputs, 3, 3)
        np.testing.assert_allclose(T.value(merged), 3.0 * x, atol=1e-12)

    def test_memoryless_scan_composed_oracle(self):
        # a_bar=0, b_bar=c_bar=1 scan is the identity map on each sequence
        r = rng(15)
        x = r.normal(size=(2, 4, 4))
        seqs = cross_scan_flatten(T.Tensor(x))
        outputs = {}
        for d in DIRECTIONS:
            tokens = T.value(seqs.sequences[d])
            y = scan_recurrent_arrays(np.zeros(1), np.ones(1), np.ones(1), tokens)
            outputs[d] = T.Tensor(y)
        merged = cross_merge(outputs, 4, 4)
        np.testing.assert_allclose(T.value(merged), 4.0 * x, atol=1e-12)

    def test_single_direction_matches_plain_recurrent_scan(self):
        # scalar time-invariant parameters, row-major order only
        r = rng(16)
        x = r.normal(size=(1, 3, 4))
        a_bar, b_bar, c_bar = np.array([0.7]), np.array([0.5]), np.array([1.3])
        seqs = cross_scan_flatten(T.Tensor(x), directions=("row_forward",))
        y_tokens = scan_recurrent_arrays(a_bar, b_bar, c_bar, T.value(seqs.sequences["row_forward"]))
        merged = cross_merge({"row_forward": T.Tensor(y_tokens)}, 3, 4)
        direct = scan_recurrent_arrays(a_bar, b_bar, c_bar, x.reshape(1, -1).T).T.reshape(1, 3, 4)
        np.testing.assert_allclose(T.value(merged), direct, atol=1e-12)

    def test_shape_disagreement_rejected(self):
        with pytest.raises(ContractViolation):
            cross_merge(
                {"row_forward": T.Tensor(np.zeros((4, 2))), "col_forward": T.Tensor(np.zeros((4, 3)))}, 2, 2
            )

    def test_empty_outputs_rejected(self):
        with pytest.raises(ContractViolation):
            cross_merge({}, 2, 2)


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
