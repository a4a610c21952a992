"""Four-direction cross scan over BEV grids.

A (C, X, Y) map is flattened into a stack of four 1-D token sequences (row-
and column-major, and their reversals), scanned as one stack with one
parameter set per direction, then merged back by inverse permutation and
summation. Also provides grid diagnostics quantifying how flattening
stretches spatial neighborhoods and how long the empty-cell runs are.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import tensor as T
from .errors import ContractViolation
from .ssm import SelectiveProjections, init_selective_projections, selective_scan_tokens

Array = np.ndarray

DIRECTIONS = ("row_forward", "col_forward", "row_reverse", "col_reverse")


@lru_cache(maxsize=128)
def direction_permutations(x_cells: int, y_cells: int) -> tuple[Array, Array]:
    """(K, X*Y) sequence position -> row-major flat grid index, one row per direction in ``DIRECTIONS`` order,
    and its row-wise inverse (grid index -> sequence position); both read-only."""
    grid = np.arange(x_cells * y_cells, dtype=np.intp).reshape(x_cells, y_cells)
    rows, cols = grid.reshape(-1), grid.T.reshape(-1)
    perm = np.stack([rows, cols, rows[::-1], cols[::-1]])
    inv = np.argsort(perm, axis=1, kind="stable")
    perm.flags.writeable = inv.flags.writeable = False
    return perm, inv


def direction_permutation(direction: str, x_cells: int, y_cells: int) -> Array:
    """Sequence position -> row-major flat grid index, for one scan direction."""
    if direction not in DIRECTIONS:
        raise ContractViolation(f"unknown scan direction {direction!r}; expected one of {DIRECTIONS}")
    return direction_permutations(x_cells, y_cells)[0][DIRECTIONS.index(direction)]


def cross_scan_flatten(bev) -> T.Tensor:
    """Flatten (C, X, Y) into a (K, X*Y, C) stack of token sequences, one per direction in ``DIRECTIONS`` order."""
    _, x_cells, y_cells = T.as_tensor(bev).shape
    return T.gather_rows(T.bev_to_tokens(bev), direction_permutations(x_cells, y_cells)[0])


def cross_merge(outputs, x_cells: int, y_cells: int) -> T.Tensor:
    """Inverse-permute a (K, X*Y, C) stack of directional outputs to grid order and sum in ``DIRECTIONS`` order."""
    inv = direction_permutations(x_cells, y_cells)[1]
    k, t_len, c = T.as_tensor(outputs).shape
    if (k, t_len) != inv.shape:
        raise ContractViolation(f"cross_merge expects a {inv.shape + (c,)} stack of directional outputs, got {(k, t_len, c)}")
    offsets = t_len * np.arange(k)[:, None]  # sequence k's rows start at k * X*Y of the (K * X*Y, C) rows
    grid_tokens = T.gather_rows(T.reshape(outputs, (k * t_len, c)), inv + offsets)
    return T.tokens_to_bev(T.reduce_sum(grid_tokens, axis=0), x_cells, y_cells)


@dataclass
class Ss2dParams:
    """Parameters of one four-direction selective-scan block; ``scan`` stacks one projection set per scan
    direction, in ``DIRECTIONS`` order."""

    in_proj_w: T.Param
    in_proj_b: T.Param
    scan: SelectiveProjections
    norm_gamma: T.Param
    norm_beta: T.Param
    out_proj_w: T.Param
    out_proj_b: T.Param


def init_ss2d_params(rng: np.random.Generator, channels: int, state_dim: int, dtype=np.float32, name: str = "ss2d") -> Ss2dParams:
    c = channels
    in_proj_w, in_proj_b = T.conv_param(rng, f"{name}.in_proj", c, c, 1, dtype, gain=2.0)  # feeds silu
    scan = init_selective_projections(rng, c, state_dim, len(DIRECTIONS), dtype=dtype, name=name)
    out_proj_w, out_proj_b = T.conv_param(rng, f"{name}.out_proj", c, c, 1, dtype)
    return Ss2dParams(
        in_proj_w=in_proj_w,
        in_proj_b=in_proj_b,
        scan=scan,
        norm_gamma=T.Param(np.ones(c, dtype=dtype), name=f"{name}.norm.gamma"),
        norm_beta=T.Param(np.zeros(c, dtype=dtype), name=f"{name}.norm.beta"),
        out_proj_w=out_proj_w,
        out_proj_b=out_proj_b,
    )


def ss2d_block(bev, params: Ss2dParams) -> T.Tensor:
    """Shape-preserving four-direction selective scan over a (C, X, Y) map.

    Pipeline: 1x1 projection + SiLU -> directional flatten -> selective scan
    of the direction stack (one parameter set per direction) -> inverse-permute
    + sum -> per-site channel normalization -> 1x1 output projection.
    """
    _, x_cells, y_cells = T.as_tensor(bev).shape
    h = T.silu(T.conv2d(bev, params.in_proj_w, params.in_proj_b))
    scanned = selective_scan_tokens(cross_scan_flatten(h), params.scan)
    merged = cross_merge(scanned, x_cells, y_cells)
    normed = T.layer_norm(merged, params.norm_gamma, params.norm_beta)
    return T.conv2d(normed, params.out_proj_w, params.out_proj_b)


# ---------------------------------------------------------------------------
# scan-order diagnostics
# ---------------------------------------------------------------------------


def neighbor_distance_histogram(x_cells: int, y_cells: int, direction: str) -> dict[int, int]:
    """Histogram of |sequence position difference| over 4-neighbor grid pairs.

    Flattening sends some grid-adjacent cells a whole row (or column) apart
    in the sequence; the histogram makes that stretch measurable.
    """
    perm = direction_permutation(direction, x_cells, y_cells)
    pos = np.empty(x_cells * y_cells, dtype=np.intp)
    pos[perm] = np.arange(x_cells * y_cells)
    pos2d = pos.reshape(x_cells, y_cells)
    dists = np.concatenate(
        [
            np.abs(pos2d[1:, :] - pos2d[:-1, :]).reshape(-1),  # neighbors along x
            np.abs(pos2d[:, 1:] - pos2d[:, :-1]).reshape(-1),  # neighbors along y
        ]
    )
    values, counts = np.unique(dists, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def empty_run_stats(occupancy: Array, direction: str) -> dict[str, float]:
    """Run-length statistics of empty cells along one flattened scan order."""
    occ = np.asarray(occupancy, dtype=bool)
    x_cells, y_cells = occ.shape
    perm = direction_permutation(direction, x_cells, y_cells)
    seq = occ.reshape(-1)[perm]
    empty = ~seq
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
    """Per-direction neighbor-distance histograms and optional empty-run stats."""
    report: dict = {"grid": [x_cells, y_cells], "directions": {}}
    for d in DIRECTIONS:
        entry: dict = {
            "neighbor_distance_histogram": {
                str(k): v for k, v in sorted(neighbor_distance_histogram(x_cells, y_cells, d).items())
            }
        }
        if occupancy is not None:
            entry["empty_runs"] = empty_run_stats(occupancy, d)
        report["directions"][d] = entry
    return report
