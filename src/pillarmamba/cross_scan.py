"""Four-direction cross scan over BEV grids.

A (C, X, Y) map is flattened into four 1-D token sequences (row-major,
column-major, and their reversals), each scanned independently by the
selective state-space engine, then merged back by inverse permutation and
summation. Also provides grid diagnostics quantifying how flattening
stretches spatial neighborhoods and how long the empty-cell runs are.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from . import tensor as T
from .errors import ContractViolation
from .ssm import SelectiveProjections, init_selective_projections, selective_scan_tokens

Array = np.ndarray

DIRECTIONS = ("row_forward", "col_forward", "row_reverse", "col_reverse")


@lru_cache(maxsize=128)
def direction_permutation(direction: str, x_cells: int, y_cells: int) -> Array:
    """Sequence position -> row-major flat grid index, for one scan direction."""
    if direction not in DIRECTIONS:
        raise ContractViolation(f"unknown scan direction {direction!r}; expected one of {DIRECTIONS}")
    grid = np.arange(x_cells * y_cells, dtype=np.intp).reshape(x_cells, y_cells)
    if direction == "row_forward":
        perm = grid.reshape(-1)
    elif direction == "col_forward":
        perm = grid.T.reshape(-1)
    elif direction == "row_reverse":
        perm = grid.reshape(-1)[::-1]
    else:
        perm = grid.T.reshape(-1)[::-1]
    perm = np.ascontiguousarray(perm)
    perm.setflags(write=False)
    return perm


@lru_cache(maxsize=128)
def inverse_permutation(direction: str, x_cells: int, y_cells: int) -> Array:
    inv = np.argsort(direction_permutation(direction, x_cells, y_cells), kind="stable")
    inv.setflags(write=False)
    return inv


@dataclass
class DirectionalSequences:
    """One token sequence (T, C) per scan direction plus the source grid shape."""

    sequences: dict[str, T.Tensor]
    x_cells: int
    y_cells: int


def cross_scan_flatten(bev, directions: Sequence[str] = DIRECTIONS) -> DirectionalSequences:
    """Flatten (C, X, Y) into per-direction (X*Y, C) token sequences."""
    tb = T.as_tensor(bev)
    _, x_cells, y_cells = tb.shape
    tokens = T.bev_to_tokens(tb)
    seqs = {d: T.gather_rows(tokens, direction_permutation(d, x_cells, y_cells)) for d in directions}
    return DirectionalSequences(sequences=seqs, x_cells=x_cells, y_cells=y_cells)


def cross_merge(outputs: Mapping[str, "T.Tensor"], x_cells: int, y_cells: int) -> T.Tensor:
    """Inverse-permute each directional output to grid order and sum: -> (C, X, Y)."""
    if not outputs:
        raise ContractViolation("cross_merge needs at least one directional output")
    shapes = {tuple(T.value(v).shape) for v in outputs.values()}
    if len(shapes) != 1:
        raise ContractViolation(f"directional outputs disagree in shape: {sorted(shapes)}")
    acc = None
    for d in DIRECTIONS:  # fixed reduction order for determinism
        if d not in outputs:
            continue
        grid_tokens = T.gather_rows(outputs[d], inverse_permutation(d, x_cells, y_cells))
        acc = grid_tokens if acc is None else T.add(acc, grid_tokens)
    return T.tokens_to_bev(acc, x_cells, y_cells)


@dataclass
class Ss2dParams:
    """Parameters of one four-direction selective-scan block; ``directions``
    holds one projection set per scan direction, in ``DIRECTIONS`` order."""

    in_proj_w: T.Param
    in_proj_b: T.Param
    directions: dict[str, SelectiveProjections]
    norm_gamma: T.Param
    norm_beta: T.Param
    out_proj_w: T.Param
    out_proj_b: T.Param


def init_ss2d_params(rng: np.random.Generator, channels: int, state_dim: int, dtype=np.float32, name: str = "ss2d") -> Ss2dParams:
    c = channels
    in_proj_w, in_proj_b = T.conv_param(rng, f"{name}.in_proj", c, c, 1, dtype, gain=2.0)  # feeds silu
    directions = {d: init_selective_projections(rng, c, state_dim, dtype=dtype, name=f"{name}.{d}") for d in DIRECTIONS}
    out_proj_w, out_proj_b = T.conv_param(rng, f"{name}.out_proj", c, c, 1, dtype)
    return Ss2dParams(
        in_proj_w=in_proj_w,
        in_proj_b=in_proj_b,
        directions=directions,
        norm_gamma=T.Param(np.ones(c, dtype=dtype), name=f"{name}.norm.gamma"),
        norm_beta=T.Param(np.zeros(c, dtype=dtype), name=f"{name}.norm.beta"),
        out_proj_w=out_proj_w,
        out_proj_b=out_proj_b,
    )


def ss2d_block(bev, params: Ss2dParams) -> T.Tensor:
    """Shape-preserving four-direction selective scan over a (C, X, Y) map.

    Pipeline: 1x1 projection + SiLU -> directional flatten -> per-direction
    selective scan (independent parameter sets) -> inverse-permute + sum ->
    per-site channel normalization -> 1x1 output projection.
    """
    tb = T.as_tensor(bev)
    _, x_cells, y_cells = tb.shape
    h = T.silu(T.conv2d(tb, params.in_proj_w, params.in_proj_b))
    seqs = cross_scan_flatten(h, directions=tuple(params.directions))
    scanned = {d: selective_scan_tokens(seqs.sequences[d], params.directions[d]) for d in params.directions}
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
