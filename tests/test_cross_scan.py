"""Directional flatten/merge bijections, SS2D block contracts, the stacked SS2D against its per-direction
oracle, diagnostics."""

import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import composed_flatten_merge, recurrent_scan, rng
from pillarmamba import cross_scan, ssm
from pillarmamba import tensor as T
from pillarmamba.cross_scan import (
    DIRECTIONS,
    cross_merge,
    cross_scan_flatten,
    direction_permutations,
    empty_run_stats,
    init_ss2d_params,
    neighbor_distance_histogram,
    scan_diagnostics,
    scan_permutations,
    ss2d_block,
)
from pillarmamba.errors import ContractViolation
from pillarmamba.ssm import (
    SelectiveProjections,
    init_selective_projections,
    scan_order,
    ssm_scan,
)


def _grid_tokens(values) -> T.Tensor:
    """(X, Y) scalar grid -> (1, X, Y) map."""
    arr = np.asarray(values, dtype=np.float64)
    return T.Tensor(arr[None, :, :])


def _flatten(bev) -> T.Tensor:
    """``cross_scan_flatten`` in time order."""
    _, x_cells, y_cells = T.as_tensor(bev).shape
    return cross_scan_flatten(bev, direction_permutations(x_cells, y_cells))


def _merge(outputs, x_cells, y_cells) -> T.Tensor:
    """``cross_merge`` of time-ordered outputs."""
    return cross_merge(outputs, direction_permutations(x_cells, y_cells), x_cells, y_cells)


class TestFlatten:
    def test_2x2_enumeration(self):
        bev = _grid_tokens([[1, 2], [3, 4]])
        seqs = T.value(_flatten(bev))
        assert seqs.shape == (len(DIRECTIONS), 4, 1)
        got = {d: s.reshape(-1).tolist() for d, s in zip(DIRECTIONS, seqs)}
        assert got["row_forward"] == [1, 2, 3, 4]
        assert got["col_forward"] == [1, 3, 2, 4]
        assert got["row_reverse"] == [4, 3, 2, 1]
        assert got["col_reverse"] == [4, 2, 3, 1]

    def test_1x1_degenerate(self):
        assert T.value(_flatten(_grid_tokens([[7.0]]))).reshape(-1).tolist() == [7.0] * len(DIRECTIONS)

    @pytest.mark.parametrize("x_cells,y_cells", [(2, 2), (3, 3)])
    def test_bijection_exhaustive(self, x_cells, y_cells):
        t_len = x_cells * y_cells
        perms, invs = direction_permutations(x_cells, y_cells)
        assert perms.shape == invs.shape == (len(DIRECTIONS), t_len)
        for perm, inv in zip(perms, invs):
            assert sorted(perm.tolist()) == list(range(t_len))
            np.testing.assert_array_equal(perm[inv], np.arange(t_len))
        assert not (perms.flags.writeable or invs.flags.writeable)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("x_cells,y_cells", [(4, 8), (5, 7), (64, 64)])
    def test_scan_permutations_compose_the_scan_order(self, x_cells, y_cells, dtype):
        # the scan-order gathers are the time-order ones composed with ssm.scan_order, and their inverses; one pair
        # serves maps of either dtype
        t_len = x_cells * y_cells
        perms, invs = scan_permutations(x_cells, y_cells, 16, 8)
        order = scan_order(t_len, 16, 8)
        np.testing.assert_array_equal(perms, direction_permutations(x_cells, y_cells)[0][:, order])
        np.testing.assert_array_equal(np.take_along_axis(perms, invs, axis=1), np.broadcast_to(np.arange(t_len), perms.shape))
        assert not (perms.flags.writeable or invs.flags.writeable)
        x = rng(t_len).normal(size=(3, x_cells, y_cells)).astype(dtype)
        seqs = T.value(cross_scan_flatten(T.Tensor(x), (perms, invs)))
        np.testing.assert_array_equal(seqs, T.value(_flatten(T.Tensor(x)))[:, order])
        np.testing.assert_array_equal(T.value(cross_merge(T.Tensor(seqs), (perms, invs), x_cells, y_cells)), 4.0 * x)

    def test_scan_permutations_follow_the_block_size(self, monkeypatch):
        # cached with the layout constants in the key: 4-row blocks give another order, never a stale one
        before = scan_permutations(4, 8, 2, 3)[0]
        monkeypatch.setattr(ssm, "SCAN_BLOCK_ELEMENTS", 4 * 2 * 3)
        after = scan_permutations(4, 8, 2, 3)[0]
        np.testing.assert_array_equal(after, direction_permutations(4, 8)[0][:, scan_order(32, 2, 3)])
        assert (after != before).any()

    @given(st.integers(1, 32), st.integers(1, 32), st.integers(0, 2**31 - 1))
    def test_roundtrip_randomized(self, x_cells, y_cells, seed):
        r = rng(seed)
        x = r.normal(size=(2, x_cells, y_cells))
        seqs = T.value(_flatten(T.Tensor(x)))
        for seq, inv in zip(seqs, direction_permutations(x_cells, y_cells)[1]):
            np.testing.assert_array_equal(seq[inv], x.reshape(2, -1).T)

    def test_each_sequence_is_token_permutation(self):
        r = rng(11)
        x = r.normal(size=(3, 5, 7))
        base = np.sort(x.reshape(3, -1).T, axis=0)
        for seq in T.value(_flatten(T.Tensor(x))):
            np.testing.assert_array_equal(np.sort(seq, axis=0), base)

    def test_transpose_swaps_row_and_col_contents(self):
        r = rng(12)
        x = r.normal(size=(2, 4, 6))
        xt = np.transpose(x, (0, 2, 1))
        seqs = dict(zip(DIRECTIONS, T.value(_flatten(T.Tensor(x)))))
        seqs_t = dict(zip(DIRECTIONS, T.value(_flatten(T.Tensor(xt)))))
        np.testing.assert_array_equal(seqs_t["row_forward"], seqs["col_forward"])
        np.testing.assert_array_equal(seqs_t["col_forward"], seqs["row_forward"])
        np.testing.assert_array_equal(seqs_t["row_reverse"], seqs["col_reverse"])


class TestMerge:
    def test_identity_processing_gives_4x(self):
        r = rng(13)
        x = r.normal(size=(3, 4, 5))
        seqs = _flatten(T.Tensor(x))
        merged = _merge(seqs, 4, 5)
        np.testing.assert_allclose(T.value(merged), 4.0 * x, atol=1e-12)

    def test_zeroed_direction_additivity(self):
        r = rng(14)
        x = r.normal(size=(2, 3, 3))
        outputs = T.value(_flatten(T.Tensor(x))).copy()
        outputs[DIRECTIONS.index("col_reverse")] = 0.0
        merged = _merge(T.Tensor(outputs), 3, 3)
        np.testing.assert_allclose(T.value(merged), 3.0 * x, atol=1e-12)

    def test_memoryless_scan_composed_oracle(self):
        # a_bar=0, b_bar=c_bar=1 scan is the identity map on each sequence
        r = rng(15)
        x = r.normal(size=(2, 4, 4))
        outputs = [
            recurrent_scan(np.zeros(1), np.ones(1), np.ones(1), seq) for seq in T.value(_flatten(T.Tensor(x)))
        ]
        merged = _merge(T.Tensor(np.stack(outputs)), 4, 4)
        np.testing.assert_allclose(T.value(merged), 4.0 * x, atol=1e-12)

    def test_single_direction_matches_plain_recurrent_scan(self):
        # scalar time-invariant parameters, row-major order only; the other directions output zeros
        r = rng(16)
        x = r.normal(size=(1, 3, 4))
        a_bar, b_bar, c_bar = np.array([0.7]), np.array([0.5]), np.array([1.3])
        outputs = np.zeros((len(DIRECTIONS), 12, 1))
        outputs[0] = recurrent_scan(a_bar, b_bar, c_bar, T.value(_flatten(T.Tensor(x)))[0])
        merged = _merge(T.Tensor(outputs), 3, 4)
        direct = recurrent_scan(a_bar, b_bar, c_bar, x.reshape(1, -1).T).T.reshape(1, 3, 4)
        np.testing.assert_allclose(T.value(merged), direct, atol=1e-12)

    def test_output_count_must_match_directions(self):
        seqs = T.value(_flatten(T.Tensor(np.zeros((1, 2, 2)))))
        with pytest.raises(ContractViolation, match="gather_sum_rows takes a pair of nonnegative"):
            _merge(T.Tensor(seqs[:3]), 2, 2)


class TestAdjointGathers:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("x_cells,y_cells", [(5, 7), (64, 64)])
    def test_match_the_composed_oracle(self, x_cells, y_cells, dtype):
        # forward and both gradients byte for byte once -0 is folded into +0: the oracle's scatter-add starts from
        # +0, so a cell whose every cotangent is -0 (cells 0 and 1 here) reads +0 there and -0 in the sum of gathers
        channels, state_dim = 16, 8
        t_len = x_cells * y_cells
        perms = scan_permutations(x_cells, y_cells, channels, state_dim)
        if t_len == 64 * 64:
            assert t_len > 2 * ssm._block_rows(channels * state_dim)  # the scan order spans several row blocks
        r = rng(t_len)
        bev, g_map = (r.normal(size=(channels, x_cells, y_cells)).astype(dtype) for _ in range(2))
        outputs, g_stack = (r.normal(size=(len(DIRECTIONS), t_len, channels)).astype(dtype) for _ in range(2))
        g_stack[np.arange(len(DIRECTIONS))[:, None], perms[1][:, :2]] = -0.0
        t_bev, t_outputs = T.Tensor(bev), T.Tensor(outputs)
        with T.Tape() as tape:
            stack, merged = cross_scan_flatten(t_bev, perms), cross_merge(t_outputs, perms, x_cells, y_cells)
            loss = T.add(T.reduce_sum(T.mul(stack, T.Tensor(g_stack))), T.reduce_sum(T.mul(merged, T.Tensor(g_map))))
        tape.backward(loss)
        got = (T.value(stack), tape.grad(t_bev), T.value(merged), tape.grad(t_outputs))
        for g, e in zip(got, composed_flatten_merge(bev, outputs, g_stack, g_map, *perms), strict=True):
            assert g.dtype == e.dtype == dtype and g.shape == e.shape
            assert (g + 0.0).tobytes() == (e + 0.0).tobytes()

    def test_flatten_and_merge_write_two_records(self):
        # each op takes or returns the (C, X, Y) map itself: no (X*Y, C) token tensor of its own on the tape
        x = T.Tensor(rng(24).normal(size=(3, 4, 6)))
        perms = scan_permutations(4, 6, 3, 2)
        with T.Tape() as tape:
            merged = cross_merge(cross_scan_flatten(x, perms), perms, 4, 6)
        ops = [bwd.__qualname__.split(".")[0] for _, _, bwd in tape._records]
        assert ops == ["gather_rows", "gather_sum_rows"]
        assert tape._records[0][1] == (x.node,) and tape._records[1][0] == merged.node


class TestSs2dBlock:
    def test_zero_input_zero_biases_zero_output(self):
        params = init_ss2d_params(rng(17), channels=4, state_dim=2)
        out = ss2d_block(T.Tensor(np.zeros((4, 3, 3))), params)
        np.testing.assert_array_equal(T.value(out), 0.0)

    def test_shape_preserving(self):
        params = init_ss2d_params(rng(18), channels=8, state_dim=2)
        x = T.Tensor(rng(19).normal(size=(8, 4, 4)))
        out = ss2d_block(x, params)
        assert T.value(out).shape == (8, 4, 4)
        assert np.isfinite(T.value(out)).all()

    def test_gradient_check(self):
        params = init_ss2d_params(rng(22), channels=3, state_dim=2)
        x = T.Tensor(rng(23).normal(size=(3, 3, 3)))
        rep = T.grad_check(lambda x_, *ps: T.reduce_sum(ss2d_block(x_, params)), [x] + T.collect_params(params))
        assert rep.passed and rep.max_rel_error <= 1e-4


SCAN_FIELDS = [f.name for f in fields(SelectiveProjections)]


def _direction_slices(params) -> list[dict]:
    """Per direction, in ``DIRECTIONS`` order, each stacked scan parameter's slice as a Param of its own."""
    return [
        {f: T.Param(getattr(params.scan, f).value.data[k].copy()) for f in SCAN_FIELDS} for k in range(len(DIRECTIONS))
    ]


def _per_direction_ss2d(bev, params, slices, order=None) -> T.Tensor:
    """The per-direction SS2D, the oracle of the stacked ``ss2d_block``: per direction, a one-row gather of the map in
    scan order, three 2-D matmuls, softplus, a one-sequence ``ssm_scan`` and a one-row merge back to a map; then a sum
    of ``add`` records in ``DIRECTIONS`` order. The scan order is the direction's permutation composed with ``order``
    if given, else with ``scan_order``."""
    tb = T.as_tensor(bev)
    channels, x_cells, y_cells = tb.shape
    if order is None:
        order = scan_order(x_cells * y_cells, channels, slices[0]["a_log"].shape[-1])
    h = T.silu(T.conv2d(tb, *params.in_proj))
    one = lambda t: T.reshape(t, (1,) + t.shape)
    rows = (x_cells * y_cells, channels)

    def project(pair, p):
        seq = T.reshape(T.gather_rows(h, pair), rows)
        b_seq = T.add(T.matmul(seq, p["w_b"]), p["b_b"])
        c_seq = T.add(T.matmul(seq, p["w_c"]), p["b_c"])
        delta = T.softplus(T.add(T.matmul(seq, p["w_delta"]), p["b_delta"]))
        return seq, delta, T.neg(T.texp(p["a_log"])), b_seq, c_seq

    acc = None
    for time_perm, p in zip(direction_permutations(x_cells, y_cells)[0], slices, strict=True):
        perm = time_perm[order][None]
        pair = (perm, np.argsort(perm, axis=1))
        seq, delta, a, b_seq, c_seq = project(pair, p)
        y = ssm_scan(*(one(t) for t in (seq, delta, a, b_seq, c_seq)))
        grid_map = T.gather_sum_rows(y, pair, x_cells, y_cells)
        acc = grid_map if acc is None else T.add(acc, grid_map)
    normed = T.layer_norm(acc, params.norm_gamma, params.norm_beta)
    return T.conv2d(normed, *params.out_proj)


def _ss2d_case(dtype, grid=(5, 7)):
    """A (6, X, Y) map and seed-30 SS2D parameters at C=6, M=4, with nonzero b/c biases."""
    r = rng(30)
    params = init_ss2d_params(r, channels=6, state_dim=4)
    T.cast_params(params, dtype)
    for bias in (params.scan.b_b, params.scan.b_c):
        bias.value.data[...] = r.normal(0.0, 0.3, size=bias.shape)
    return T.Tensor(r.normal(size=(6, *grid)).astype(dtype)), params


# 5x7 scans in time order (35 steps, one odd block); 4x8 in the class layout (32 steps, at depth 3)
SS2D_GRIDS = [(5, 7), (4, 8)]


class TestStackedAgainstPerDirection:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_is_bit_identical(self, dtype):
        for grid in SS2D_GRIDS:
            x, params = _ss2d_case(dtype, grid)
            stacked = T.value(ss2d_block(x, params))
            oracle = T.value(_per_direction_ss2d(x, params, _direction_slices(params)))
            assert stacked.dtype == oracle.dtype == dtype
            assert stacked.tobytes() == oracle.tobytes()

    def test_float64_gradients_agree(self):
        for grid in SS2D_GRIDS:
            x, params = _ss2d_case(np.float64, grid)
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

    def test_time_ordered_scan_is_not_the_ss2d(self):
        # the oracle's scan order matters: the same oracle gathering in time order gives another output at 4x8
        x, params = _ss2d_case(np.float64, (4, 8))
        stacked = T.value(ss2d_block(x, params))
        order = scan_order(32, 6, 4)
        assert (order != np.arange(32)).any()
        time_ordered = T.value(_per_direction_ss2d(x, params, _direction_slices(params), np.arange(32)))
        assert np.abs(stacked - time_ordered).max() > 1e-6

    @pytest.mark.parametrize("field", SCAN_FIELDS)
    def test_widened_scan_keeps_the_order(self, monkeypatch, field):
        # the order depends on shapes alone, whatever dtype the scan's state takes: a float32 model and one with this
        # projection widened to float64 (a float64 state, except for w_c and b_c, which only read it out) gather the
        # 4x8 grid in one order, that of scan_order(32, 6, 4) in 16-row blocks, and the widened stacked SS2D equals
        # its per-direction oracle byte for byte. An order that followed the dtype (8-row blocks for a float64 state)
        # gives another output.
        monkeypatch.setattr(ssm, "SCAN_BLOCK_ELEMENTS", 16 * 6 * 4)
        gathers = []
        flatten = cross_scan.cross_scan_flatten
        monkeypatch.setattr(cross_scan, "cross_scan_flatten", lambda bev, pair: gathers.append(pair[0]) or flatten(bev, pair))
        x, params = _ss2d_case(np.float32, (4, 8))
        ss2d_block(x, params)
        wide = getattr(params.scan, field).value
        wide.data = wide.data.astype(np.float64)
        stacked = T.value(ss2d_block(x, params))
        slices = _direction_slices(params)
        oracle = T.value(_per_direction_ss2d(x, params, slices))
        assert stacked.dtype == np.float64
        assert stacked.tobytes() == oracle.tobytes()
        assert len(gathers) == 2
        for perm in gathers:
            np.testing.assert_array_equal(perm, direction_permutations(4, 8)[0][:, scan_order(32, 6, 4)])
        byte_sized = ssm._class_order(32, 8, ssm.SCAN_LEVELS)
        assert T.value(_per_direction_ss2d(x, params, slices, byte_sized)).tobytes() != stacked.tobytes()

    def test_init_draws_one_direction_after_another(self):
        # the stacked draw equals four one-sequence draws in turn, so seeded weights match the per-direction layout
        stacked = init_selective_projections(rng(32), 5, 3, len(DIRECTIONS))
        r = rng(32)
        singles = [init_selective_projections(r, 5, 3, 1) for _ in DIRECTIONS]
        for f in SCAN_FIELDS:
            expected = np.concatenate([T.value(getattr(p, f)) for p in singles])
            assert T.value(getattr(stacked, f)).tobytes() == expected.tobytes()

    def test_tape_records_of_one_ss2d(self):
        # in_proj conv + silu; the flatten; 3 matmul + 3 add + softplus + exp + neg; one scan; the merge;
        # layer_norm + out_proj conv. The flatten and the merge write one record each.
        x, params = _ss2d_case(np.float32)
        with T.Tape() as tape:
            ss2d_block(x, params)
        ops = [bwd.__qualname__.split(".")[0] for _, _, bwd in tape._records]
        assert len(ops) == 16
        assert ops[:3] == ["conv2d", "silu", "gather_rows"]
        assert ops[-3:] == ["gather_sum_rows", "layer_norm", "conv2d"]
        assert ops[-4] == "ssm_scan"


class TestDiagnostics:
    # rows of direction_permutations in DIRECTIONS order: 0 row_forward, 1 col_forward, 2 row_reverse, 3 col_reverse

    def test_neighbor_histogram_row_forward_4x4(self):
        hist = neighbor_distance_histogram(direction_permutations(4, 4)[1][0], 4, 4)
        assert hist == {1: 12, 4: 12}

    def test_neighbor_histogram_rectangular(self):
        _, invs = direction_permutations(2, 5)
        # 2x5 grid, row-major: y-neighbors 1 apart (2*4=8), x-neighbors 5 apart (5)
        assert neighbor_distance_histogram(invs[0], 2, 5) == {1: 8, 5: 5}
        # column-major flips the roles: x-neighbors 1 apart, y-neighbors 2 apart
        assert neighbor_distance_histogram(invs[1], 2, 5) == {1: 5, 2: 8}

    def test_reverse_direction_same_histogram(self):
        _, invs = direction_permutations(5, 3)
        assert neighbor_distance_histogram(invs[0], 5, 3) == neighbor_distance_histogram(invs[2], 5, 3)

    @pytest.mark.parametrize("k", range(len(DIRECTIONS)), ids=DIRECTIONS)
    def test_adjacent_rows_reach_full_row_distance(self, k):
        # grid-distance-1 pairs stretched to a whole row (or column) apart, in time order
        for cells in (6, 32, 64):
            hist = neighbor_distance_histogram(direction_permutations(cells, cells)[1][k], cells, cells)
            assert max(hist) == cells

    def test_empty_run_stats_constructed(self):
        occ = np.zeros((2, 4), dtype=bool)
        occ[0, 0] = True
        occ[1, 3] = True
        perms, _ = direction_permutations(2, 4)
        # row-major sequence: T F F F F F F T -> one run of 6
        stats = empty_run_stats(occ, perms[0])
        assert stats == {"max_empty_run": 6, "mean_empty_run": 6.0, "num_runs": 1, "empty_fraction": 0.75}
        # reversed: same single run
        assert empty_run_stats(occ, perms[2])["max_empty_run"] == 6

    def test_diagnostics_read_time_order_where_the_scan_order_differs(self):
        # 8x8: every scan block is in the class layout, but the diagnostics follow the directions in time order
        perms, invs = direction_permutations(8, 8)
        assert (scan_permutations(8, 8, 4, 2)[0] != perms).any()
        assert neighbor_distance_histogram(invs[0], 8, 8) == {1: 56, 8: 56}
        occ = np.ones((8, 8), dtype=bool)
        occ[0] = False  # the first row: one run of 8 steps in row-major time order
        assert empty_run_stats(occ, perms[0]) == {
            "max_empty_run": 8,
            "mean_empty_run": 8.0,
            "num_runs": 1,
            "empty_fraction": 0.125,
        }
        assert empty_run_stats(occ, perms[1])["num_runs"] == 8

    def test_empty_run_stats_full_occupancy(self):
        stats = empty_run_stats(np.ones((3, 3), dtype=bool), direction_permutations(3, 3)[0][1])
        assert stats["max_empty_run"] == 0 and stats["num_runs"] == 0

    @pytest.mark.parametrize("shape", [(2, 8), (3, 3)], ids=["2x8", "3x3"])
    def test_scan_diagnostics_rejects_another_occupancy_shape(self, shape):
        # a (2, 8) grid has the 4x4 grid's 16 cells; a (3, 3) one would index past its end
        with pytest.raises(ContractViolation, match=re.escape(f"(4, 4) occupancy grid, got {shape}")):
            scan_diagnostics(4, 4, occupancy=np.ones(shape, dtype=bool))

    def test_scan_diagnostics_report_shape(self):
        report = scan_diagnostics(4, 4, occupancy=np.eye(4, dtype=bool))
        assert set(report["directions"]) == set(DIRECTIONS)
        for d in DIRECTIONS:
            assert "neighbor_distance_histogram" in report["directions"][d]
            assert "empty_runs" in report["directions"][d]
