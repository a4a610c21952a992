"""Outside-in layer trace for the benchmark's traced run.

The tracer replaces public layer functions at the module attribute each
caller looks up (``pillarmamba.ssm.associative_scan``,
``pillarmamba.backbone.csg_forward``, ...) with wrappers that record a span
(name, start, end, parent, unit id) in memory, plus counts taken from the
arguments or the result. Nothing inside the package is edited; the originals
are restored when the trace ends.

Coverage guard: a site that no longer exists, or a site that a workload must
call but never did, raises ``CoverageError``. A rename inside the package
therefore fails the traced run instead of reading as a layer that takes 0 s.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

INFER = frozenset({"infer_desk64", "infer_dense128"})
TRAIN = frozenset({"train_desk64"})
ALL = INFER | TRAIN


class CoverageError(RuntimeError):
    """A wrapped site is missing, or was never called where it must be."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for a root span
    unit: str  # id of the scene, step or eval pass the span belongs to


@dataclass
class Tracer:
    """In-memory spans and per-unit counters of one traced run."""

    spans: list[Span] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)
    unit: str = ""
    _stack: list[int] = field(default_factory=list)

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.unit))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] += value

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "unit": s.unit}))
                fh.write("\n")


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [(s.end - s.start) - covered_length(children.get(i, ()), s.start, s.end) for i, s in enumerate(spans)]


# ---------------------------------------------------------------------------
# wrapped sites
# ---------------------------------------------------------------------------


def _count_voxelize(tr: Tracer, args, result) -> None:
    cloud, grid = args[0], args[1]
    c = result.counters
    tr.count("pillars.points_in", len(cloud))
    tr.count("pillars.pillars", len(result))
    tr.count("pillars.occupancy", len(result) / (grid.x_cells * grid.y_cells))
    tr.count("pillars.points_kept", int(result.counts.sum()))
    for key in ("dropped_out_of_range", "dropped_over_capacity", "dropped_pillars"):
        tr.count(f"pillars.{key}", c[key])


def _count_ssm_scan(tr: Tracer, args, result) -> None:
    a_bar = args[1]
    data = getattr(a_bar, "data", a_bar)
    tr.count("ssm.state_elements", data.size)
    tr.count("ssm.state_bytes_computed", data.size * data.itemsize)


def _count_detections(tr: Tracer, args, result) -> None:
    tr.count("head.detections", len(result))


def _count_targets(tr: Tracer, args, result) -> None:
    tr.count("head.targets_skipped", result.skipped_out_of_range)


def _count_tape_record(tr: Tracer, args, result) -> None:
    out = args[1]  # (self, out, parents, backward)
    tr.count("tensor.tape_records")
    tr.count("tensor.tape_bytes", out.data.nbytes)


@dataclass(frozen=True)
class Site:
    """One wrapped attribute. span=None counts calls without opening a span."""

    module: str
    attr: str  # "fn" or "Class.method"
    span: str | None
    required: frozenset  # workloads on which the site must be called
    on_return: Callable | None = None

    @property
    def key(self) -> str:
        return f"{self.module}.{self.attr}"


SITES: tuple[Site, ...] = (
    Site("pillarmamba.model", "encode_cloud", "pillars.encode", ALL),
    Site("pillarmamba.pillars", "voxelize", "pillars.voxelize", ALL, _count_voxelize),
    Site("pillarmamba.pillars", "augment_features", "pillars.augment", ALL),
    Site("pillarmamba.pillars", "encode_scatter", "pillars.encode_scatter", ALL),
    Site("pillarmamba.cross_scan", "selective_scan_tokens", "ssm.selective_scan", ALL),
    Site("pillarmamba.ssm", "selective_params", "ssm.selective_params", ALL),
    Site("pillarmamba.ssm", "selective_discretize", "ssm.discretize", ALL),
    Site("pillarmamba.ssm", "ssm_scan", "ssm.scan", ALL, _count_ssm_scan),
    Site("pillarmamba.ssm", "associative_scan", "ssm.assoc_scan", ALL),
    Site("pillarmamba.blocks", "ss2d_block", "cross_scan.ss2d", ALL),
    Site("pillarmamba.cross_scan", "cross_scan_flatten", "cross_scan.flatten", ALL),
    Site("pillarmamba.cross_scan", "cross_merge", "cross_scan.merge", ALL),
    Site("pillarmamba.blocks", "hsb_forward", "blocks.hsb", ALL),
    Site("pillarmamba.backbone", "csg_forward", "blocks.csg", ALL),
    Site("pillarmamba.blocks", "se_attention", "blocks.se", ALL),
    Site("pillarmamba.model", "backbone_forward", "backbone.forward", ALL),
    Site("pillarmamba.model", "head_forward", "head.forward", ALL),
    Site("pillarmamba.model", "decode", "head.decode", INFER, _count_detections),
    Site("pillarmamba.model", "detection_loss", "head.loss", TRAIN),
    Site("pillarmamba.model", "build_targets", "head.targets", TRAIN, _count_targets),
    Site("pillarmamba.model", "loss_on_scene", "model.forward", TRAIN),
    Site("pillarmamba.metrics", "ap_r40", "metrics.ap_r40", INFER),
    # ap_r40's default iou_fn is bound at definition time; the benchmark
    # passes metrics.rotated_iou_3d explicitly so this wrapper is the one used
    Site("pillarmamba.metrics", "rotated_iou_3d", "metrics.iou", INFER),
    Site("pillarmamba.tensor", "Tape.backward", "tensor.backward", TRAIN),
    Site("pillarmamba.tensor", "Tape.record", None, TRAIN, _count_tape_record),
    Site("pillarmamba.tensor", "conv2d", "tensor.conv2d", ALL),
    Site("pillarmamba.tensor", "layer_norm", "tensor.layer_norm", ALL),
    Site("pillarmamba.tensor", "gather_rows", "tensor.gather_rows", ALL),
)


def _resolve(site: Site):
    """(owner object, attribute name, original) or CoverageError."""
    try:
        owner = importlib.import_module(site.module)
    except ImportError as exc:
        raise CoverageError(f"wrapped site {site.key}: module {site.module} cannot be imported") from exc
    *path, name = site.attr.split(".")
    for part in path:
        if not hasattr(owner, part):
            raise CoverageError(f"wrapped site {site.key} no longer exists ({part} is missing)")
        owner = getattr(owner, part)
    if not callable(getattr(owner, name, None)):
        raise CoverageError(f"wrapped site {site.key} no longer exists")
    return owner, name, getattr(owner, name)


def _wrapper(tracer: Tracer, site: Site, fn):
    key, span, on_return = site.key, site.span, site.on_return

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        tracer.calls[key] += 1
        if span is None:
            result = fn(*args, **kwargs)
        else:
            idx = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
        if on_return is not None:
            on_return(tracer, args, result)
        return result

    return wrapped


@contextmanager
def installed(tracer: Tracer, sites=SITES):
    """Wrap every site for the duration of the block; restore on exit.

    All sites are resolved before any is replaced, so a missing one leaves
    the package untouched.
    """
    resolved = [(site, *_resolve(site)) for site in sites]
    try:
        for site, owner, name, fn in resolved:
            setattr(owner, name, _wrapper(tracer, site, fn))
        yield tracer
    finally:
        for site, owner, name, fn in reversed(resolved):
            setattr(owner, name, fn)


def check_coverage(tracer: Tracer, workload: str, sites=SITES) -> None:
    never = [s.key for s in sites if workload in s.required and tracer.calls[s.key] == 0]
    if never:
        raise CoverageError(f"wrapped sites never called on workload {workload}: {', '.join(never)}")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# (metric, kind, span or counter). "self" is the span's self time, "total" its
# whole duration; both are seconds per unit (scene or step). "calls" counts
# spans per unit, "count" a counter per unit. metrics.* are per eval pass.
LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("pillars.encode_s", "total", "pillars.encode"),
    ("pillars.voxelize_s", "self", "pillars.voxelize"),
    ("pillars.augment_s", "self", "pillars.augment"),
    ("pillars.encode_scatter_s", "self", "pillars.encode_scatter"),
    ("pillars.points_in", "count", "pillars.points_in"),
    ("pillars.pillars", "count", "pillars.pillars"),
    ("pillars.occupancy", "count", "pillars.occupancy"),
    ("pillars.dropped_out_of_range", "count", "pillars.dropped_out_of_range"),
    ("pillars.dropped_over_capacity", "count", "pillars.dropped_over_capacity"),
    ("pillars.dropped_pillars", "count", "pillars.dropped_pillars"),
    ("ssm.selective_scan_s", "total", "ssm.selective_scan"),
    ("ssm.selective_params_s", "self", "ssm.selective_params"),
    ("ssm.discretize_s", "self", "ssm.discretize"),
    ("ssm.scan_s", "self", "ssm.scan"),
    ("ssm.assoc_scan_s", "self", "ssm.assoc_scan"),
    ("ssm.assoc_scan_calls", "calls", "ssm.assoc_scan"),
    ("ssm.scan_calls", "calls", "ssm.scan"),
    ("ssm.state_elements", "count", "ssm.state_elements"),
    ("ssm.state_bytes_computed", "count", "ssm.state_bytes_computed"),
    ("cross_scan.ss2d_s", "self", "cross_scan.ss2d"),
    ("cross_scan.flatten_s", "self", "cross_scan.flatten"),
    ("cross_scan.merge_s", "self", "cross_scan.merge"),
    ("cross_scan.ss2d_calls", "calls", "cross_scan.ss2d"),
    ("blocks.hsb_s", "self", "blocks.hsb"),
    ("blocks.csg_s", "self", "blocks.csg"),
    ("blocks.se_s", "self", "blocks.se"),
    ("blocks.hsb_calls", "calls", "blocks.hsb"),
    ("backbone.forward_s", "total", "backbone.forward"),
    ("backbone.self_s", "self", "backbone.forward"),
    ("head.forward_s", "total", "head.forward"),
    ("head.decode_s", "self", "head.decode"),
    ("head.detections", "count", "head.detections"),
    ("head.loss_s", "self", "head.loss"),
    ("head.targets_s", "self", "head.targets"),
    ("head.targets_skipped", "count", "head.targets_skipped"),
    ("metrics.ap_r40_s", "total", "metrics.ap_r40"),
    ("metrics.iou_calls", "calls", "metrics.iou"),
    ("metrics.iou_s", "total", "metrics.iou"),
    ("tensor.tape_records", "count", "tensor.tape_records"),
    ("tensor.tape_bytes", "count", "tensor.tape_bytes"),
    ("tensor.backward_s", "total", "tensor.backward"),
    ("tensor.backward_self_s", "self", "tensor.backward"),
    ("tensor.conv2d_s", "self", "tensor.conv2d"),
    ("tensor.conv2d_calls", "calls", "tensor.conv2d"),
    ("tensor.layer_norm_s", "self", "tensor.layer_norm"),
    ("tensor.gather_rows_s", "self", "tensor.gather_rows"),
    ("model.forward_s", "total", "model.forward"),
)
STAGES = 4
DERIVED = (
    "pillars.points_kept_ratio",
    *(f"backbone.stage{i}_s" for i in range(STAGES)),
    "model.update_s",
    "trace.overhead_s",
)


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in ("pillars.occupancy", "pillars.points_kept_ratio"):
        return "ratio"
    if "bytes" in name:
        return "bytes"
    return "count"


def layer_metrics(tracer: Tracer, units: int, passes: int, unit_times: list[float]) -> dict[str, float]:
    """Per-unit (scene or step) figures from the spans and counters of a traced run.

    unit_times are the traced wall times of the units; model.update_s is what
    of a step is neither loss_on_scene nor Tape.backward.
    """
    total: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    stage = [0.0] * STAGES
    stage_seen: Counter = Counter()  # csg spans seen so far under each backbone.forward
    for s, t_self in zip(tracer.spans, self_times(tracer.spans)):
        total[s.name] += s.end - s.start
        own[s.name] += t_self
        calls[s.name] += 1
        if s.name == "blocks.csg" and s.parent >= 0 and tracer.spans[s.parent].name == "backbone.forward":
            k = stage_seen[s.parent]
            stage_seen[s.parent] += 1
            if k < STAGES:
                stage[k] += s.end - s.start
    src = {"self": own, "total": total, "calls": calls, "count": tracer.counters}
    out = {}
    for name, kind, key in LAYER_METRICS:
        denom = passes if name.startswith("metrics.") else units
        out[name] = src[kind][key] / max(denom, 1)
    points_in = tracer.counters["pillars.points_in"]
    out["pillars.points_kept_ratio"] = tracer.counters["pillars.points_kept"] / points_in if points_in else 0.0
    for i in range(STAGES):
        out[f"backbone.stage{i}_s"] = stage[i] / max(units, 1)
    if total["model.forward"]:
        out["model.update_s"] = (sum(unit_times) - total["model.forward"] - total["tensor.backward"]) / max(units, 1)
    else:
        out["model.update_s"] = 0.0
    return out


PER_LAYER_NAMES = tuple(name for name, _, _ in LAYER_METRICS) + DERIVED
