"""Pillar feature encoding: voxelize a point cloud onto a BEV grid,
augment each point to 9 dimensions, embed, max-pool per pillar, and
scatter into a dense (C, X, Y) map.
"""

from __future__ import annotations

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
            if not hi > lo:
                raise ConfigurationError(f"{name}_range must be nonempty, got [{lo}, {hi}]")
        if self.pillar_size <= 0:
            raise ConfigurationError(f"pillar_size must be positive, got {self.pillar_size}")
        for name, (lo, hi) in (("x", self.x_range), ("y", self.y_range)):
            cells = (hi - lo) / self.pillar_size
            if abs(cells - round(cells)) > 1e-9:
                raise ConfigurationError(
                    f"{name}_range extent {hi - lo} is not a multiple of pillar_size {self.pillar_size}"
                )

    @property
    def x_cells(self) -> int:
        return round((self.x_range[1] - self.x_range[0]) / self.pillar_size)

    @property
    def y_cells(self) -> int:
        return round((self.y_range[1] - self.y_range[0]) / self.pillar_size)

    def cell_center(self, ix: Array, iy: Array) -> tuple[Array, Array]:
        cx = self.x_range[0] + (np.asarray(ix) + 0.5) * self.pillar_size
        cy = self.y_range[0] + (np.asarray(iy) + 0.5) * self.pillar_size
        return cx, cy


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

    points is padded (P, K, 4); counts holds the member count per pillar after
    capping, original_counts before capping. Pillars are ordered by flat grid
    index; member points keep their cloud order.
    """

    grid: GridSpec
    indices: Array  # (P, 2) int, (ix, iy)
    points: Array  # (P, K, 4) float32
    counts: Array  # (P,) int
    original_counts: Array  # (P,) int
    counters: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.indices.shape[0]

    @property
    def flat_indices(self) -> Array:
        return self.indices[:, 0] * self.grid.y_cells + self.indices[:, 1]

    def member_points(self, p: int) -> Array:
        return self.points[p, : self.counts[p]]


@dataclass
class BevMap:
    """Dense (C, X, Y) feature map tied to its grid."""

    tensor: T.Tensor
    grid: GridSpec


def voxelize(
    cloud: PointCloud,
    grid: GridSpec,
    max_points_per_pillar: int = 32,
    max_pillars: int = 20000,
    shuffle_seed: int | None = None,
) -> PillarSet:
    """Bin in-range points into pillars with deterministic first-come capping.

    Cells are half-open, so points exactly on the upper range bound are
    dropped. shuffle_seed randomizes which points survive the per-pillar cap;
    the default keeps cloud insertion order.
    """
    pts = cloud.points
    counters = {"dropped_out_of_range": 0, "dropped_over_capacity": 0, "dropped_pillars": 0}
    if shuffle_seed is not None:
        order = np.random.Generator(np.random.PCG64(shuffle_seed)).permutation(len(pts))
        pts = pts[order]
    if len(pts) == 0:
        return PillarSet(
            grid=grid,
            indices=np.zeros((0, 2), dtype=np.intp),
            points=np.zeros((0, max_points_per_pillar, 4), dtype=np.float32),
            counts=np.zeros(0, dtype=np.intp),
            original_counts=np.zeros(0, dtype=np.intp),
            counters=counters,
        )

    ix = np.floor((pts[:, 0].astype(np.float64) - grid.x_range[0]) / grid.pillar_size).astype(np.intp)
    iy = np.floor((pts[:, 1].astype(np.float64) - grid.y_range[0]) / grid.pillar_size).astype(np.intp)
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
    flat_sorted = flat[order]
    uniq, starts, counts_all = np.unique(flat_sorted, return_index=True, return_counts=True)

    n_pillars = uniq.size
    keep = np.arange(n_pillars)
    if n_pillars > max_pillars:
        # keep the most populated pillars; ties resolved by lower flat index
        rank = np.lexsort((uniq, -counts_all))
        keep = np.sort(rank[:max_pillars])
        counters["dropped_pillars"] = n_pillars - max_pillars
        n_pillars = max_pillars

    k = max_points_per_pillar
    padded = np.zeros((n_pillars, k, 4), dtype=np.float32)
    counts = np.minimum(counts_all[keep], k).astype(np.intp)
    for row, pillar in enumerate(keep):
        members = order[starts[pillar] : starts[pillar] + counts_all[pillar]]
        padded[row, : counts[row]] = pts[members[: counts[row]]]
    counters["dropped_over_capacity"] = int((counts_all[keep] - counts).sum())

    flat_kept = uniq[keep]
    indices = np.stack([flat_kept // grid.y_cells, flat_kept % grid.y_cells], axis=1)
    return PillarSet(
        grid=grid,
        indices=indices.astype(np.intp),
        points=padded,
        counts=counts,
        original_counts=counts_all[keep].astype(np.intp),
        counters=counters,
    )


def augment_features(pillars: PillarSet) -> tuple[Array, Array]:
    """Per-point 9-dim features (P, K, 9) plus validity mask (P, K).

    Dims 0-3 are the raw point; 4-6 the offset from the pillar's point mean;
    7-8 the xy offset from the pillar cell center.
    """
    p, k, _ = pillars.points.shape
    mask = np.arange(k)[None, :] < pillars.counts[:, None]
    feats = np.zeros((p, k, POINT_FEATURE_DIM), dtype=np.float32)
    if p == 0:
        return feats, mask
    pts = pillars.points
    feats[:, :, :4] = pts
    denom = np.maximum(pillars.counts, 1).astype(np.float32)[:, None]
    mean_xyz = (pts[:, :, :3] * mask[:, :, None]).sum(axis=1) / denom  # (P, 3)
    feats[:, :, 4:7] = pts[:, :, :3] - mean_xyz[:, None, :]
    cx, cy = pillars.grid.cell_center(pillars.indices[:, 0], pillars.indices[:, 1])
    feats[:, :, 7] = pts[:, :, 0] - cx.astype(np.float32)[:, None]
    feats[:, :, 8] = pts[:, :, 1] - cy.astype(np.float32)[:, None]
    feats *= mask[:, :, None]
    return feats, mask


@dataclass
class EncoderParams:
    embed_w: T.Param  # (9, C)
    embed_b: T.Param  # (C,)

    def params(self) -> list[T.Param]:
        return [self.embed_w, self.embed_b]


def init_encoder_params(rng: np.random.Generator, channels: int, dtype=np.float32, name: str = "encoder") -> EncoderParams:
    scale = np.sqrt(2.0 / POINT_FEATURE_DIM)
    return EncoderParams(
        embed_w=T.Param(rng.normal(0.0, scale, size=(POINT_FEATURE_DIM, channels)).astype(dtype), name=f"{name}.embed.weight"),
        embed_b=T.Param(np.zeros(channels, dtype=dtype), name=f"{name}.embed.bias"),
    )


def encode_scatter(
    features: Array,
    mask: Array,
    pillars: PillarSet,
    params: EncoderParams,
    activation: str = "relu",
) -> BevMap:
    """Embed per-point features, max-pool per pillar, scatter to the grid.

    Cells without a pillar stay exactly zero; the result is differentiable
    with respect to the embedding parameters.
    """
    grid = pillars.grid
    channels = T.value(params.embed_w).shape[1]
    n_cells = grid.x_cells * grid.y_cells
    dtype = T.value(params.embed_w).dtype
    if len(pillars) == 0:
        return BevMap(T.Tensor(np.zeros((channels, grid.x_cells, grid.y_cells), dtype=dtype)), grid)

    p, k, f = features.shape
    valid = mask.reshape(-1)
    flat_feats = features.reshape(p * k, f)[valid].astype(dtype, copy=False)
    embedded = T.add(T.matmul(T.Tensor(flat_feats), params.embed_w), params.embed_b)
    if activation == "relu":
        embedded = T.relu(embedded)
    elif activation == "silu":
        embedded = T.silu(embedded)
    elif activation != "none":
        raise ConfigurationError(f"unknown encoder activation {activation!r}")
    padded = T.reshape(T.scatter_rows(embedded, np.flatnonzero(valid), p * k), (p, k, channels))
    pooled = T.masked_max(padded, mask)  # (P, C)
    grid_rows = T.scatter_rows(pooled, pillars.flat_indices, n_cells)
    return BevMap(T.tokens_to_bev(grid_rows, grid.x_cells, grid.y_cells), grid)


def encode_cloud(
    cloud: PointCloud,
    grid: GridSpec,
    params: EncoderParams,
    max_points_per_pillar: int = 32,
    max_pillars: int = 20000,
    activation: str = "relu",
) -> BevMap:
    """Full encoder: voxelize -> augment -> embed/pool/scatter."""
    pillars = voxelize(cloud, grid, max_points_per_pillar, max_pillars)
    features, mask = augment_features(pillars)
    return encode_scatter(features, mask, pillars, params, activation=activation)
