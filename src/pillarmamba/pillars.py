"""Pillar feature encoding: voxelize a point cloud onto a BEV grid,
augment each point to 9 dimensions, embed, max-pool per pillar, and
scatter into a dense (C, X, Y) map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigurationError, ContractViolation

Array = np.ndarray

POINT_FEATURE_DIM = 9  # (x, y, z, r, xc, yc, zc, xp, yp)


@dataclass(frozen=True)
class GridSpec:
    """BEV grid geometry; cells are half-open squares [min, min+pillar)."""

    x_range: tuple[float, float]
    y_range: tuple[float, float]
    z_range: tuple[float, float]
    pillar_size: float = 0.2

    def __post_init__(self):
        for name, (lo, hi) in (("x", self.x_range), ("y", self.y_range), ("z", self.z_range)):
            if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
                raise ConfigurationError(f"grid.{name}_range: must be finite and nonempty, got [{lo}, {hi}]")
        if not 0.0 < self.pillar_size < math.inf:  # False for NaN
            raise ConfigurationError(f"grid.pillar_size: must be finite and positive, got {self.pillar_size}")
        for name, (lo, hi) in (("x", self.x_range), ("y", self.y_range)):
            cells = (hi - lo) / self.pillar_size
            if not (math.isfinite(cells) and abs(cells - round(cells)) <= 1e-9):
                raise ConfigurationError(
                    f"grid.{name}_range: extent {hi - lo} is not a multiple of pillar_size {self.pillar_size}"
                )

    @property
    def x_cells(self) -> int:
        return round((self.x_range[1] - self.x_range[0]) / self.pillar_size)

    @property
    def y_cells(self) -> int:
        return round((self.y_range[1] - self.y_range[0]) / self.pillar_size)

    def to_cells(self, x, y):
        """World (x, y) -> continuous cell coordinates: cell ix holds [ix, ix + 1), so floor gives the cell index."""
        return (x - self.x_range[0]) / self.pillar_size, (y - self.y_range[0]) / self.pillar_size

    def to_world(self, fx, fy):
        """Continuous cell coordinates -> world (x, y); ``to_cells`` inverted, up to rounding."""
        return self.x_range[0] + fx * self.pillar_size, self.y_range[0] + fy * self.pillar_size


@dataclass
class PointCloud:
    """Raw lidar points, (N, 4) float rows of (x, y, z, reflectance)."""

    points: Array

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float32).reshape(-1, 4)
        if not np.isfinite(pts).all():
            raise ContractViolation("point cloud contains non-finite coordinates")
        self.points = pts

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass
class PillarSet:
    """Occupied pillars with capped member points.

    points holds only the kept points, (N, 4), grouped by pillar: pillar p
    owns the counts[p] rows from starts[p]. Pillars are ordered by flat grid
    index; member points keep their cloud order.
    """

    grid: GridSpec
    indices: Array  # (P, 2) int, (ix, iy)
    points: Array  # (N, 4) float32, N = counts.sum()
    counts: Array  # (P,) int, each >= 1
    counters: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.indices.shape[0]

    @property
    def flat_indices(self) -> Array:
        return self.indices[:, 0] * self.grid.y_cells + self.indices[:, 1]

    @property
    def starts(self) -> Array:
        """(P,) first row of each pillar in points."""
        return np.cumsum(self.counts) - self.counts

    def member_points(self, p: int) -> Array:
        start = self.starts[p]
        return self.points[start : start + self.counts[p]]


@dataclass
class BevMap:
    """Dense (C, X, Y) feature map, with the counters of the voxelizer that filled it."""

    tensor: T.Tensor
    counters: dict = field(default_factory=dict)


def voxelize(cloud: PointCloud, grid: GridSpec, max_points_per_pillar: int, max_pillars: int) -> PillarSet:
    """Bin in-range points into pillars with deterministic first-come capping.

    Cells are half-open, so points exactly on the upper range bound are
    dropped. Each pillar keeps its first max_points_per_pillar points in
    cloud order; past max_pillars the most populated pillars are kept.
    """
    pts = cloud.points
    counters = {"dropped_out_of_range": 0, "dropped_over_capacity": 0, "dropped_pillars": 0}
    fx, fy = grid.to_cells(pts[:, 0].astype(np.float64), pts[:, 1].astype(np.float64))
    ix, iy = np.floor(fx).astype(np.intp), np.floor(fy).astype(np.intp)
    in_range = (
        (ix >= 0)
        & (ix < grid.x_cells)
        & (iy >= 0)
        & (iy < grid.y_cells)
        & (pts[:, 2] >= grid.z_range[0])
        & (pts[:, 2] < grid.z_range[1])
    )
    counters["dropped_out_of_range"] = int((~in_range).sum())
    pts, ix, iy = pts[in_range], ix[in_range], iy[in_range]
    flat = ix * grid.y_cells + iy

    order = np.argsort(flat, kind="stable")  # stable: preserves insertion order per pillar
    uniq, starts, counts_all = np.unique(flat[order], return_index=True, return_counts=True)

    kept = np.ones(uniq.size, dtype=bool)
    if uniq.size > max_pillars:
        # keep the most populated pillars; ties resolved by lower flat index
        kept[:] = False
        kept[np.lexsort((uniq, -counts_all))[:max_pillars]] = True
        counters["dropped_pillars"] = uniq.size - max_pillars

    # a sorted point survives if its pillar is kept and its rank within the pillar is under the cap
    owner = np.repeat(np.arange(uniq.size), counts_all)
    rank = np.arange(order.size) - starts[owner]
    survives = kept[owner] & (rank < max_points_per_pillar)
    counts = np.minimum(counts_all[kept], max_points_per_pillar)
    counters["dropped_over_capacity"] = int((counts_all[kept] - counts).sum())

    flat_kept = uniq[kept]
    indices = np.stack([flat_kept // grid.y_cells, flat_kept % grid.y_cells], axis=1)
    return PillarSet(
        grid=grid,
        indices=indices.astype(np.intp),
        points=pts[order[survives]],
        counts=counts.astype(np.intp),
        counters=counters,
    )


def augment_features(pillars: PillarSet) -> Array:
    """Per-point 9-dim features (N, 9), one row per kept point.

    Dims 0-3 are the raw point; 4-6 the offset from the pillar's point mean;
    7-8 the xy offset from the pillar cell center.
    """
    pts = pillars.points
    owners = np.repeat(np.arange(len(pillars)), pillars.counts)  # pillar of each point row
    # np.add.at sums each pillar strictly in point order; np.add.reduceat's order differs in the last bits
    sums = np.zeros((len(pillars), 3), dtype=np.float32)
    np.add.at(sums, owners, pts[:, :3])
    mean_xyz = sums / pillars.counts.astype(np.float32)[:, None]
    cx, cy = pillars.grid.to_world(pillars.indices[:, 0] + 0.5, pillars.indices[:, 1] + 0.5)  # cell centers
    feats = np.empty((pts.shape[0], POINT_FEATURE_DIM), dtype=np.float32)
    feats[:, :4] = pts
    feats[:, 4:7] = pts[:, :3] - mean_xyz[owners]
    feats[:, 7] = pts[:, 0] - cx.astype(np.float32)[owners]
    feats[:, 8] = pts[:, 1] - cy.astype(np.float32)[owners]
    return feats


@dataclass
class EncoderParams:
    embed_w: T.Param  # (9, C)
    embed_b: T.Param  # (C,)


def init_encoder_params(rng: np.random.Generator, channels: int) -> EncoderParams:
    scale = np.sqrt(2.0 / POINT_FEATURE_DIM)
    return EncoderParams(
        embed_w=T.Param(rng.normal(0.0, scale, size=(POINT_FEATURE_DIM, channels))), embed_b=T.Param(np.zeros(channels))
    )


def encode_scatter(features: Array, pillars: PillarSet, params: EncoderParams) -> BevMap:
    """Embed per-point features with ReLU, max-pool per pillar, scatter to the grid.

    Cells without a pillar stay exactly zero; the result is differentiable
    with respect to the embedding parameters and carries ``pillars.counters``.
    """
    grid = pillars.grid
    channels = T.value(params.embed_w).shape[1]
    dtype = T.value(params.embed_w).dtype
    if len(pillars) == 0:
        return BevMap(T.Tensor(np.zeros((channels, grid.x_cells, grid.y_cells), dtype=dtype)), pillars.counters)

    rows = T.Tensor(features.astype(dtype, copy=False))
    embedded = T.relu(T.add(T.matmul(rows, params.embed_w), params.embed_b))
    pooled = T.segment_max(embedded, pillars.starts)  # (P, C)
    grid_rows = T.scatter_rows(pooled, pillars.flat_indices, grid.x_cells * grid.y_cells)
    return BevMap(T.tokens_to_bev(grid_rows, grid.x_cells, grid.y_cells), pillars.counters)


def encode_cloud(
    cloud: PointCloud, grid: GridSpec, params: EncoderParams, max_points_per_pillar: int, max_pillars: int
) -> BevMap:
    """Full encoder: voxelize -> augment -> embed/pool/scatter."""
    pillars = voxelize(cloud, grid, max_points_per_pillar, max_pillars)
    return encode_scatter(augment_features(pillars), pillars, params)
