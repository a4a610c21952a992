"""Four-direction cross scan over BEV grids.

A (C, X, Y) map is flattened into a stack of four 1-D token sequences (row-
and column-major, and their reversals) by one row gather over a cached
(perm, inv) pair, scanned as one stack with one parameter set per direction,
and merged back into the map by the gather's adjoint over the same pair,
summed in ``DIRECTIONS`` order: one tape record each way. The pair composes
the directions with the scan's row order (``ssm.scan_order``, from the sizes
alone), so the scan reads and writes its sequences in that order at no cost.
The diagnostics read the time-order pair (``direction_permutations``) by
direction index: how far flattening stretches spatial neighborhoods, and how
long the empty-cell runs are.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import ssm
from . import tensor as T
from .errors import ContractViolation
from .ssm import SelectiveProjections, init_selective_projections, selective_scan_tokens

Array = np.ndarray

DIRECTIONS = ("row_forward", "col_forward", "row_reverse", "col_reverse")


def _time_steps(x_cells: int, y_cells: int) -> Array:
    """(K, X*Y) time step -> row-major flat grid index, one row per direction in ``DIRECTIONS`` order."""
    grid = np.arange(x_cells * y_cells, dtype=np.intp).reshape(x_cells, y_cells)
    rows, cols = grid.reshape(-1), grid.T.reshape(-1)
    return np.stack([rows, cols, rows[::-1], cols[::-1]])


def _with_inverse(perm: Array) -> tuple[Array, Array]:
    """perm and its row-wise inverse, both read-only."""
    inv = np.argsort(perm, axis=1, kind="stable")
    perm.flags.writeable = inv.flags.writeable = False
    return perm, inv


@lru_cache(maxsize=128)
def direction_permutations(x_cells: int, y_cells: int) -> tuple[Array, Array]:
    """(K, X*Y) time step -> row-major flat grid index, one row per direction in ``DIRECTIONS`` order, and its
    row-wise inverse (grid index -> time step); both read-only."""
    return _with_inverse(_time_steps(x_cells, y_cells))


def scan_permutations(x_cells: int, y_cells: int, channels: int, state_dim: int) -> tuple[Array, Array]:
    """``direction_permutations`` composed with ``scan_order(X*Y, channels, state_dim)``: (K, X*Y) scan position ->
    grid index, and its row-wise inverse (grid index -> scan position); both read-only. Cached with the scan's
    layout constants in the key, so a changed constant never meets a stale order."""
    return _scan_permutations(x_cells, y_cells, channels, state_dim, ssm.SCAN_BLOCK_ELEMENTS, ssm.SCAN_LEVELS)


@lru_cache(maxsize=128)
def _scan_permutations(x_cells: int, y_cells: int, channels: int, state_dim: int, *_layout) -> tuple[Array, Array]:
    order = ssm.scan_order(x_cells * y_cells, channels, state_dim)
    return _with_inverse(_time_steps(x_cells, y_cells)[:, order])


def cross_scan_flatten(bev, perms: tuple[Array, Array]) -> T.Tensor:
    """Gather (C, X, Y) into a (K, X*Y, C) stack of token sequences: sequence k's row p is the cell perm[k, p], for
    the (perm, inv) pair of ``direction_permutations`` (time order) or ``scan_permutations`` (scan order)."""
    return T.gather_rows(bev, perms)


def cross_merge(outputs, perms: tuple[Array, Array], x_cells: int, y_cells: int) -> T.Tensor:
    """The flatten's adjoint over its (perm, inv) pair: cell g of the (C, X, Y) map sums row inv[k, g] of each
    sequence of the (K, X*Y, C) stack, in ``DIRECTIONS`` order."""
    return T.gather_sum_rows(outputs, perms, x_cells, y_cells)


@dataclass
class Ss2dParams:
    """Parameters of one four-direction selective-scan block; ``scan`` stacks one projection set per scan
    direction, in ``DIRECTIONS`` order."""

    in_proj: tuple[T.Param, T.Param]  # 1x1
    scan: SelectiveProjections
    norm_gamma: T.Param
    norm_beta: T.Param
    out_proj: tuple[T.Param, T.Param]  # 1x1


def init_ss2d_params(rng: np.random.Generator, channels: int, state_dim: int) -> Ss2dParams:
    c = channels
    return Ss2dParams(
        in_proj=T.conv_param(rng, c, c, 1, gain=2.0),  # feeds silu
        scan=init_selective_projections(rng, c, state_dim, len(DIRECTIONS)),
        norm_gamma=T.Param(np.ones(c)),
        norm_beta=T.Param(np.zeros(c)),
        out_proj=T.conv_param(rng, c, c, 1),
    )


def ss2d_block(bev, params: Ss2dParams) -> T.Tensor:
    """Shape-preserving four-direction selective scan over a (C, X, Y) map.

    Pipeline: 1x1 projection + SiLU -> directional flatten in scan order ->
    selective scan of the direction stack (one parameter set per direction)
    -> inverse-permute + sum -> per-site channel normalization -> 1x1 output
    projection. The scan order (``scan_permutations``) depends on the grid,
    channel and state sizes alone.
    """
    _, x_cells, y_cells = T.as_tensor(bev).shape
    h = T.silu(T.conv2d(bev, *params.in_proj))
    perms = scan_permutations(x_cells, y_cells, h.shape[0], params.scan.a_log.shape[-1])
    scanned = selective_scan_tokens(cross_scan_flatten(h, perms), params.scan)
    merged = cross_merge(scanned, perms, x_cells, y_cells)
    normed = T.layer_norm(merged, params.norm_gamma, params.norm_beta)
    return T.conv2d(normed, *params.out_proj)


# ---------------------------------------------------------------------------
# scan-order diagnostics
# ---------------------------------------------------------------------------


def neighbor_distance_histogram(inv: Array, x_cells: int, y_cells: int) -> dict[int, int]:
    """Histogram of |time step difference| over 4-neighbor grid pairs, for one direction's row ``inv`` (grid
    index -> time step) of ``direction_permutations(x_cells, y_cells)[1]``.

    Flattening sends some grid-adjacent cells a whole row (or column) apart
    in the sequence; the histogram makes that stretch measurable.
    """
    pos2d = inv.reshape(x_cells, y_cells)
    # neighbors along x, then along y
    dists = np.abs(np.concatenate([np.diff(pos2d, axis=0).reshape(-1), np.diff(pos2d, axis=1).reshape(-1)]))
    values, counts = np.unique(dists, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def empty_run_stats(occupancy: Array, perm: Array) -> dict[str, float]:
    """Run-length statistics of empty cells along one direction's row ``perm`` (time step -> grid index) of
    ``direction_permutations(X, Y)[0]``, for an (X, Y) occupancy grid."""
    empty = ~np.asarray(occupancy, dtype=bool).reshape(-1)[perm]
    if not empty.any():
        return {"max_empty_run": 0, "mean_empty_run": 0.0, "num_runs": 0, "empty_fraction": 0.0}
    padded = np.concatenate([[False], empty, [False]])
    edges = np.diff(padded.astype(np.int8))
    starts = np.flatnonzero(edges == 1)
    stops = np.flatnonzero(edges == -1)
    runs = stops - starts
    return {
        "max_empty_run": int(runs.max()),
        "mean_empty_run": float(runs.mean()),
        "num_runs": int(runs.size),
        "empty_fraction": float(empty.mean()),
    }


def scan_diagnostics(x_cells: int, y_cells: int, occupancy: Array | None = None) -> dict:
    """Per-direction neighbor-distance histograms and optional empty-run stats, read from the cached
    ``direction_permutations`` pair; ``occupancy``, if given, is (X, Y)."""
    if occupancy is not None and np.shape(occupancy) != (x_cells, y_cells):
        raise ContractViolation(f"scan_diagnostics needs a {(x_cells, y_cells)} occupancy grid, got {np.shape(occupancy)}")
    report: dict = {"grid": [x_cells, y_cells], "directions": {}}
    for d, perm, inv in zip(DIRECTIONS, *direction_permutations(x_cells, y_cells)):
        hist = neighbor_distance_histogram(inv, x_cells, y_cells)
        entry: dict = {"neighbor_distance_histogram": {str(k): hist[k] for k in sorted(hist)}}
        if occupancy is not None:
            entry["empty_runs"] = empty_run_stats(occupancy, perm)
        report["directions"][d] = entry
    return report
