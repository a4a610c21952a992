"""Voxelization index arithmetic, 9-dim feature augmentation, encode/scatter."""

import numpy as np
import pytest

from conftest import rng
from pillarmamba import tensor as T
from pillarmamba.config import default_config, desk_grid, full_scale_grid
from pillarmamba.errors import ConfigurationError
from pillarmamba.pillars import (
    EncoderParams,
    GridSpec,
    PointCloud,
    augment_features,
    encode_cloud,
    encode_scatter,
    init_encoder_params,
    voxelize,
)

ENC = default_config().model.encoder
CAPS = (ENC.max_points_per_pillar, ENC.max_pillars)  # the config's pillar caps, in voxelize's argument order


def cloud_of(*points) -> PointCloud:
    return PointCloud(np.array(points, dtype=np.float32).reshape(-1, 4))


class TestGridSpec:
    def test_cell_counts(self):
        grid = full_scale_grid()
        assert (grid.x_cells, grid.y_cells) == (512, 512)
        assert (desk_grid().x_cells, desk_grid().y_cells) == (64, 64)

    def test_indivisible_range_rejected(self):
        with pytest.raises(ConfigurationError):
            GridSpec(x_range=(0.0, 1.0), y_range=(0.0, 1.0), z_range=(-1.0, 1.0), pillar_size=0.3)

    def test_empty_range_rejected(self):
        with pytest.raises(ConfigurationError):
            GridSpec(x_range=(1.0, 1.0), y_range=(0.0, 1.0), z_range=(-1.0, 1.0), pillar_size=0.5)


    @pytest.mark.parametrize("make_grid", [desk_grid, full_scale_grid])
    def test_world_cell_round_trip(self, make_grid):
        # voxelize, build_targets, decode and the pillar features' cell centers share this one pair of maps
        grid = make_grid()
        r = rng(11)
        x, y = r.uniform(*grid.x_range, 500), r.uniform(*grid.y_range, 500)
        fx, fy = grid.to_cells(x, y)
        assert (0 <= fx).all() and (fx < grid.x_cells).all() and (0 <= fy).all() and (fy < grid.y_cells).all()
        back_x, back_y = grid.to_world(fx, fy)
        np.testing.assert_allclose(back_x, x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(back_y, y, rtol=0, atol=1e-12)
        assert grid.to_cells(grid.x_range[0], grid.y_range[0]) == (0.0, 0.0)
        assert grid.to_world(grid.x_cells, grid.y_cells) == pytest.approx((grid.x_range[1], grid.y_range[1]), abs=1e-12)
        ix, iy = r.integers(0, grid.x_cells, 100), r.integers(0, grid.y_cells, 100)
        cx, cy = grid.to_world(ix + 0.5, iy + 0.5)
        cfx, cfy = grid.to_cells(cx, cy)
        np.testing.assert_allclose(cfx - ix, 0.5, rtol=0, atol=1e-9)
        np.testing.assert_allclose(cfy - iy, 0.5, rtol=0, atol=1e-9)
        pillars = voxelize(PointCloud(np.column_stack([cx, cy, np.zeros(100), np.zeros(100)])), grid, *CAPS)
        assert set(map(tuple, pillars.indices.tolist())) == set(zip(ix.tolist(), iy.tolist()))


class TestVoxelize:
    def test_empty_cloud(self):
        pillars = voxelize(PointCloud(np.zeros((0, 4))), desk_grid(), *CAPS)
        assert len(pillars) == 0
        assert pillars.points.shape == (0, 4)
        assert augment_features(pillars).shape == (0, 9)

    def test_single_point_index_arithmetic(self):
        pillars = voxelize(cloud_of((10.05, 3.31, -1.0, 0.5)), full_scale_grid(), *CAPS)
        assert len(pillars) == 1
        assert pillars.indices[0].tolist() == [50, 272]

    def test_upper_bound_half_open(self):
        grid = desk_grid()
        pillars = voxelize(cloud_of((grid.x_range[1], 0.0, -1.0, 0.1)), grid, *CAPS)
        assert len(pillars) == 0
        assert pillars.counters["dropped_out_of_range"] == 1

    def test_z_range_filtering(self):
        grid = desk_grid()
        pillars = voxelize(cloud_of((1.0, 0.0, grid.z_range[1] + 1.0, 0.1)), grid, *CAPS)
        assert len(pillars) == 0

    def test_capacity_keeps_first_points(self):
        pts = [(1.05, 0.05, -1.0, i / 10.0) for i in range(5)]
        pillars = voxelize(cloud_of(*pts), desk_grid(), max_points_per_pillar=3, max_pillars=ENC.max_pillars)
        assert len(pillars) == 1
        assert pillars.counts[0] == 3
        assert pillars.counters["dropped_over_capacity"] == 2
        np.testing.assert_allclose(pillars.member_points(0)[:, 3], [0.0, 0.1, 0.2], atol=1e-6)

    def test_max_pillars_drops_lowest_population(self):
        pts = [(0.1 + 0.001 * i, 0.1, -1.0, 0.5) for i in range(4)]  # 4 points, one pillar
        pts += [(5.1, 5.1, -1.0, 0.5)]  # lone pillar
        pillars = voxelize(cloud_of(*pts), desk_grid(), max_points_per_pillar=ENC.max_points_per_pillar, max_pillars=1)
        assert len(pillars) == 1
        assert pillars.counts[0] == 4
        assert pillars.counters["dropped_pillars"] == 1

    def test_index_bijection_one_point_per_cell(self):
        grid = GridSpec(x_range=(0.0, 1.6), y_range=(0.0, 1.6), z_range=(-1.0, 1.0), pillar_size=0.2)
        cells = [(ix, iy) for ix in range(8) for iy in range(8)]
        pts = [((ix + 0.5) * 0.2, (iy + 0.5) * 0.2, 0.0, 0.5) for ix, iy in cells]
        pillars = voxelize(cloud_of(*pts), grid, *CAPS)
        assert len(pillars) == 64
        assert sorted(map(tuple, pillars.indices.tolist())) == cells

    def test_membership_inside_cell(self):
        r = rng(0)
        grid = desk_grid()
        pts = np.column_stack(
            [
                r.uniform(*grid.x_range, 200),
                r.uniform(*grid.y_range, 200),
                r.uniform(*grid.z_range, 200),
                r.uniform(0, 1, 200),
            ]
        ).astype(np.float32)
        pillars = voxelize(PointCloud(pts), grid, *CAPS)
        for p in range(len(pillars)):
            ix, iy = pillars.indices[p]
            members = pillars.member_points(p)
            x_lo = grid.x_range[0] + ix * grid.pillar_size
            y_lo = grid.y_range[0] + iy * grid.pillar_size
            assert (members[:, 0] >= x_lo - 1e-5).all() and (members[:, 0] < x_lo + grid.pillar_size + 1e-5).all()
            assert (members[:, 1] >= y_lo - 1e-5).all() and (members[:, 1] < y_lo + grid.pillar_size + 1e-5).all()


class TestAugment:
    def test_single_point_zero_mean_offsets(self):
        pillars = voxelize(cloud_of((1.05, 0.05, -1.0, 0.5)), desk_grid(), *CAPS)
        feats = augment_features(pillars)
        assert feats.shape == (1, 9)
        np.testing.assert_allclose(feats[0, 4:7], 0.0, atol=1e-7)

    def test_cell_center_offsets(self):
        pillars = voxelize(cloud_of((10.05, 3.31, -1.0, 0.5)), full_scale_grid(), *CAPS)
        feats = augment_features(pillars)
        np.testing.assert_allclose(feats[0, 7], -0.05, atol=1e-5)
        np.testing.assert_allclose(feats[0, 8], 0.01, atol=1e-5)

    def test_symmetric_pair_offsets_negate(self):
        pillars = voxelize(cloud_of((1.02, 0.08, -1.0, 0.5), (1.08, 0.02, -0.5, 0.5)), desk_grid(), *CAPS)
        feats = augment_features(pillars)
        np.testing.assert_allclose(feats[0, 4:7], -feats[1, 4:7], atol=1e-6)

    def test_raw_dims_passthrough(self):
        pillars = voxelize(cloud_of((10.05, 3.31, -1.0, 0.5)), full_scale_grid(), *CAPS)
        feats = augment_features(pillars)
        np.testing.assert_allclose(feats[0, :4], [10.05, 3.31, -1.0, 0.5], atol=1e-6)


class TestEncodeScatter:
    def _params(self, channels, seed=0) -> EncoderParams:
        return init_encoder_params(rng(seed), channels)

    def test_zero_embed_zero_map(self):
        params = self._params(8)
        params.embed_w.value.data[...] = 0.0
        params.embed_b.value.data[...] = 0.0
        bev = encode_cloud(cloud_of((1.05, 0.05, -1.0, 0.5)), desk_grid(), params, *CAPS)
        np.testing.assert_array_equal(T.value(bev.tensor), 0.0)

    def test_point_order_invariance(self):
        r = rng(1)
        grid = desk_grid()
        pts = np.column_stack(
            [r.uniform(0, 2, 50), r.uniform(0, 2, 50), r.uniform(-2, 0, 50), r.uniform(0, 1, 50)]
        ).astype(np.float32)
        params = self._params(8, seed=2)
        base = T.value(encode_cloud(PointCloud(pts), grid, params, *CAPS).tensor)
        permuted = T.value(encode_cloud(PointCloud(pts[r.permutation(50)]), grid, params, *CAPS).tensor)
        np.testing.assert_allclose(permuted, base, atol=1e-12)

    def test_identity_embed_trace(self):
        # identity on the first 9 channels, zero elsewhere, nonnegative features
        grid = desk_grid()
        ix, iy = 10, 40
        x = grid.x_range[0] + (ix + 0.5) * grid.pillar_size
        y = grid.y_range[0] + (iy + 0.5) * grid.pillar_size
        cloud = cloud_of((x, y, 0.5, 0.7))
        params = self._params(12)
        params.embed_w.value.data[...] = 0.0
        params.embed_w.value.data[:9, :9] = np.eye(9)
        params.embed_b.value.data[...] = 0.0
        bev = encode_cloud(cloud, grid, params, *CAPS)
        cell = T.value(bev.tensor)[:, ix, iy]
        expected9 = np.array([x, y, 0.5, 0.7, 0, 0, 0, 0, 0])
        np.testing.assert_allclose(cell[:9], expected9, atol=1e-5)
        np.testing.assert_array_equal(cell[9:], 0.0)

    def test_occupancy_matches_pillars(self):
        r = rng(3)
        grid = desk_grid()
        pts = np.column_stack(
            [r.uniform(0, 12.8, 300), r.uniform(-6.4, 6.4, 300), r.uniform(-2, 0, 300), r.uniform(0, 1, 300)]
        ).astype(np.float32)
        pillars = voxelize(PointCloud(pts), grid, *CAPS)
        params = self._params(4, seed=4)
        bev = T.value(encode_scatter(augment_features(pillars), pillars, params).tensor)
        occupied = set(map(tuple, np.argwhere(np.abs(bev).sum(axis=0) > 0).tolist()))
        pillar_cells = set(map(tuple, pillars.indices.tolist()))
        assert occupied <= pillar_cells
        # relu can zero a cell, but most should survive
        assert len(occupied) >= 0.5 * len(pillar_cells)

    def test_empty_cells_exactly_zero_with_bias(self):
        params = self._params(6, seed=5)
        params.embed_b.value.data[...] = 0.3  # bias only reaches occupied cells
        bev = T.value(encode_cloud(cloud_of((1.05, 0.05, -1.0, 0.5)), desk_grid(), params, *CAPS).tensor)
        occupied = np.abs(bev).sum(axis=0) > 0
        assert occupied.sum() == 1
        assert (bev[:, ~occupied] == 0.0).all()

    def test_relu_clips_negative_embeddings(self):
        params = self._params(4, seed=6)
        params.embed_w.value.data[...] = 0.0
        params.embed_b.value.data[...] = [-1.0, 2.0, -0.5, 0.25]
        bev = T.value(encode_cloud(cloud_of((1.05, 0.05, -1.0, 0.5)), desk_grid(), params, *CAPS).tensor)
        assert bev.shape == (4, 64, 64)
        np.testing.assert_array_equal(bev[:, 5, 32], [0.0, 2.0, 0.0, 0.25])

    def test_embed_gradients_flow(self):
        r = rng(7)
        grid = GridSpec(x_range=(0.0, 1.6), y_range=(0.0, 1.6), z_range=(-1.0, 1.0), pillar_size=0.2)
        pts = np.column_stack(
            [r.uniform(0, 1.6, 40), r.uniform(0, 1.6, 40), r.uniform(-0.9, 0.9, 40), r.uniform(0, 1, 40)]
        )
        cloud = PointCloud(pts.astype(np.float32))
        params = self._params(5, seed=8)
        pillars = voxelize(cloud, grid, *CAPS)
        feats = augment_features(pillars)
        rep = T.grad_check(
            lambda w, b: T.reduce_sum(encode_scatter(feats, pillars, EncoderParams(w, b)).tensor),
            [params.embed_w, params.embed_b],
            eps=1e-6,
        )
        assert rep.passed, rep


# ---------------------------------------------------------------------------
# padded oracle: the (P, K, 9) features, their (P, K) mask and a masked max
# ---------------------------------------------------------------------------


def padded_oracle(cloud, grid, w, b, k, max_pillars, mix):
    """BEV map and embed-weight gradients of sum(mix * bev), from per-pillar padded arrays.

    Pillars are found by a loop over the points, capped first-come, and kept
    by population (ties to the lower flat index) past max_pillars.
    """
    members: dict[int, list[int]] = {}
    for i, (x, y, z, _) in enumerate(cloud.points):
        ix = int(np.floor((float(x) - grid.x_range[0]) / grid.pillar_size))
        iy = int(np.floor((float(y) - grid.y_range[0]) / grid.pillar_size))
        if 0 <= ix < grid.x_cells and 0 <= iy < grid.y_cells and grid.z_range[0] <= z < grid.z_range[1]:
            members.setdefault(ix * grid.y_cells + iy, []).append(i)
    kept = sorted(sorted(members, key=lambda f: (-len(members[f]), f))[:max_pillars])
    p, c = len(kept), w.shape[1]
    bev = np.zeros((c, grid.x_cells, grid.y_cells), dtype=w.dtype)
    if p == 0:
        return bev, np.zeros_like(w), np.zeros_like(b)

    pts = np.zeros((p, k, 4), dtype=np.float32)
    mask = np.zeros((p, k), dtype=bool)
    for row, flat in enumerate(kept):
        idx = members[flat][:k]
        pts[row, : len(idx)] = cloud.points[idx]
        mask[row, : len(idx)] = True
    counts = mask.sum(axis=1)
    flat_kept = np.array(kept)
    cx, cy = grid.to_world(flat_kept // grid.y_cells + 0.5, flat_kept % grid.y_cells + 0.5)
    feats = np.zeros((p, k, 9), dtype=np.float32)
    feats[:, :, :4] = pts
    mean_xyz = (pts[:, :, :3] * mask[:, :, None]).sum(axis=1) / counts.astype(np.float32)[:, None]
    feats[:, :, 4:7] = pts[:, :, :3] - mean_xyz[:, None, :]
    feats[:, :, 7] = pts[:, :, 0] - cx.astype(np.float32)[:, None]
    feats[:, :, 8] = pts[:, :, 1] - cy.astype(np.float32)[:, None]
    feats *= mask[:, :, None]

    rows = feats.reshape(p * k, 9)[mask.reshape(-1)]
    pre = rows @ w + b
    emb = np.zeros((p * k, c), dtype=w.dtype)
    emb[mask.reshape(-1)] = np.maximum(pre, 0.0)
    masked = np.where(mask[:, :, None], emb.reshape(p, k, c), -np.inf)
    arg = masked.argmax(axis=1)  # (P, C), first max
    pooled = np.take_along_axis(masked, arg[:, None, :], axis=1)[:, 0, :]
    ix, iy = flat_kept // grid.y_cells, flat_kept % grid.y_cells
    bev[:, ix, iy] = pooled.T

    g_pad = np.zeros((p, k, c), dtype=w.dtype)
    np.put_along_axis(g_pad, arg[:, None, :], mix[:, ix, iy].T[:, None, :], axis=1)
    g_pre = g_pad.reshape(p * k, c)[mask.reshape(-1)] * (pre > 0.0).astype(w.dtype)
    return bev, rows.T @ g_pre, g_pre.sum(axis=0)


class TestPaddedOracle:
    GRID = GridSpec(x_range=(0.0, 1.6), y_range=(-0.8, 0.8), z_range=(-1.0, 1.0), pillar_size=0.2)

    def _cloud(self, seed, n):
        r = rng(seed)
        # clustered around a few centers so some pillars overflow the cap; a few points out of range
        centers = r.uniform([-0.1, -0.9, -1.1], [1.7, 0.9, 1.1], size=(6, 3))
        xyz = centers[r.integers(0, 6, n)] + r.normal(0.0, 0.15, (n, 3))
        return PointCloud(np.column_stack([xyz, r.uniform(0, 1, n)]).astype(np.float32))

    @pytest.mark.parametrize(
        "seed,n,k,max_pillars",
        [(0, 200, 4, 20000), (1, 300, 3, 10), (2, 60, 32, 5), (3, 400, 1, 20000), (4, 0, 4, 20000)],
        ids=["capped", "capped-dropped", "dropped", "one-per-pillar", "empty"],
    )
    def test_forward_and_embed_grads_equal_padded_oracle(self, seed, n, k, max_pillars):
        cloud = self._cloud(seed, n)
        params = init_encoder_params(rng(100 + seed), 16)
        T.cast_params(params, np.float32)
        params.embed_b.value.data[...] = rng(200 + seed).normal(0.0, 0.3, 16).astype(np.float32)
        mix = rng(300 + seed).normal(size=(16, self.GRID.x_cells, self.GRID.y_cells)).astype(np.float32)
        pillars = voxelize(cloud, self.GRID, k, max_pillars)
        if n:
            assert pillars.counters["dropped_over_capacity"] > 0 or k == 32
            assert (pillars.counters["dropped_pillars"] > 0) == (max_pillars < 20000)

        with T.Tape() as tape:
            bev = encode_cloud(cloud, self.GRID, params, max_points_per_pillar=k, max_pillars=max_pillars)
            loss = T.reduce_sum(T.mul(bev.tensor, T.Tensor(mix)))
        tape.backward(loss)
        want_bev, want_gw, want_gb = padded_oracle(
            cloud, self.GRID, T.value(params.embed_w), T.value(params.embed_b), k, max_pillars, mix
        )
        assert np.array_equal(T.value(bev.tensor), want_bev)
        assert np.array_equal(tape.grad(params.embed_w), want_gw)
        assert np.array_equal(tape.grad(params.embed_b), want_gb)
