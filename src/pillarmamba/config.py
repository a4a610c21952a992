"""Run configuration: dataclasses plus a strict JSON loader.

The dataclasses are the single source of every field, type and default; the
loader and the echo-dump are derived from them. Every section except ``grid``
is optional and falls back to the defaults; unknown keys and mistyped values
are rejected with the dotted path of the offender.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Literal, get_args, get_origin, get_type_hints

from .boxes import CLASS_NAMES, ClassName
from .errors import ConfigurationError
from .pillars import GridSpec


@dataclass(frozen=True)
class EncoderConfig:
    max_points_per_pillar: int = 32
    max_pillars: int = 20000

    def __post_init__(self):
        for name in ("max_points_per_pillar", "max_pillars"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"model.encoder.{name}: must be at least 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class SsmConfig:
    state_dim: int = 8


@dataclass(frozen=True)
class HsbToggles:
    reduction_ratio: int = 2
    dw_kernel: int = 3
    se_reduction: int = 4


@dataclass(frozen=True)
class CsgToggles:
    enabled: bool = True
    hsb_layers: int = 2


@dataclass(frozen=True)
class ModelConfig:
    channels: int = 64
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    csg: CsgToggles = field(default_factory=CsgToggles)
    hsb: HsbToggles = field(default_factory=HsbToggles)
    ssm: SsmConfig = field(default_factory=SsmConfig)

    def __post_init__(self):
        # every block width follows from these, so a contradiction fails at load, not at build
        for key, value in (
            ("channels", self.channels),
            ("hsb.reduction_ratio", self.hsb.reduction_ratio),
            ("hsb.se_reduction", self.hsb.se_reduction),
            ("ssm.state_dim", self.ssm.state_dim),
            ("csg.hsb_layers", self.csg.hsb_layers),
        ):
            if value < 1:
                raise ConfigurationError(f"model.{key}: must be at least 1, got {value}")
        if self.hsb.dw_kernel < 1 or self.hsb.dw_kernel % 2 != 1:
            raise ConfigurationError(f"model.hsb.dw_kernel: must be odd and positive, got {self.hsb.dw_kernel}")
        if self.csg.enabled and self.channels % 2 != 0:
            raise ConfigurationError(f"model.channels: the CSG splits it in half, so it must be even, got {self.channels}")
        if self.hsb_channels % self.hsb.reduction_ratio != 0:
            width = f"model.channels {self.channels}"
            if self.csg.enabled:
                width = f"the CSG branch width {self.hsb_channels} (half of {width})"
            raise ConfigurationError(f"model.hsb.reduction_ratio: {self.hsb.reduction_ratio} does not divide {width}")

    @property
    def hsb_channels(self) -> int:
        """The width the HSBs run at: the CSG branch (half the channels) when the split is on, else all channels."""
        return self.channels // 2 if self.csg.enabled else self.channels

    @property
    def hsb_inner_channels(self) -> int:
        """The HSB trunk width, between its 1x1 reduce and expand convs."""
        return self.hsb_channels // self.hsb.reduction_ratio


@dataclass(frozen=True)
class HeadConfig:
    top_k: int = 100
    score_threshold: float = 0.1
    reg_weight: float = 1.0
    gaussian_min_overlap: float = 0.7

    def __post_init__(self):
        # a top_k of 0 or a NaN threshold would decode no detection at all, silently
        if self.top_k < 1:
            raise ConfigurationError(f"head.top_k: must be at least 1, got {self.top_k}")
        if not 0.0 <= self.score_threshold < 1.0:  # False for NaN
            raise ConfigurationError(f"head.score_threshold: must be finite and in [0, 1), got {self.score_threshold}")
        if not 0.0 < self.gaussian_min_overlap < 1.0:
            raise ConfigurationError(f"head.gaussian_min_overlap: must be in (0, 1), got {self.gaussian_min_overlap}")
        if not 0.0 <= self.reg_weight < math.inf:
            raise ConfigurationError(f"head.reg_weight: must be finite and nonnegative, got {self.reg_weight}")


@dataclass(frozen=True)
class EvalConfig:
    iou_thresholds: dict[ClassName, float] = field(
        default_factory=lambda: {"vehicle": 0.5, "pedestrian": 0.25, "cyclist": 0.25}
    )

    def __post_init__(self):
        # a threshold above 1 matches nothing; one of 0 (or NaN) would match a box it does not overlap, or none
        for name, thr in self.iou_thresholds.items():
            if not 0.0 < thr <= 1.0:
                raise ConfigurationError(f"eval.iou_thresholds.{name}: must be in (0, 1], got {thr}")


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.02
    steps: int = 300

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigurationError(f"train.steps: must be at least 1, got {self.steps}")
        if not 0.0 < self.lr < math.inf:  # False for NaN
            raise ConfigurationError(f"train.lr: must be finite and positive, got {self.lr}")


@dataclass(frozen=True)
class DataConfig:
    counts: dict[ClassName, int] = field(default_factory=lambda: {"vehicle": 2, "pedestrian": 2, "cyclist": 1})
    size_priors: dict[ClassName, tuple[float, float, float]] = field(
        default_factory=lambda: {
            "vehicle": (4.5, 1.9, 1.6),
            "pedestrian": (0.8, 0.8, 1.7),
            "cyclist": (1.8, 0.6, 1.7),
        }
    )
    points_per_box: int = 64
    background_points: int = 512
    noise_sigma: float = 0.02
    min_center_gap: float = 1.0
    ground_offset: float = 0.5  # ground plane height above z_min

    def __post_init__(self):
        # keys are typed as ClassName for the loader; direct construction is checked here
        for section in ("counts", "size_priors"):
            unknown = sorted(set(getattr(self, section)) - set(CLASS_NAMES))
            if unknown:
                raise ConfigurationError(f"data.{section}: unknown classes {unknown}; known: {list(CLASS_NAMES)}")
        negative = {k: v for k, v in self.counts.items() if v < 0}
        if negative:
            raise ConfigurationError(f"data.counts: expected nonnegative counts, got {negative}")
        missing = sorted(name for name, n in self.counts.items() if n > 0 and name not in self.size_priors)
        if missing:
            raise ConfigurationError(f"data.size_priors: no prior for counted classes {missing}")
        for name, dims in self.size_priors.items():
            if not all(0.0 < v < math.inf for v in dims):  # False for NaN
                raise ConfigurationError(f"data.size_priors.{name}: sizes must be finite and positive, got {list(dims)}")
        if self.points_per_box <= 0:
            raise ConfigurationError(f"data.points_per_box: must be positive, got {self.points_per_box}")
        if self.background_points < 0:
            raise ConfigurationError(f"data.background_points: must be nonnegative, got {self.background_points}")
        for name in ("noise_sigma", "min_center_gap"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ConfigurationError(f"data.{name}: must be finite and nonnegative, got {getattr(self, name)}")
        if not math.isfinite(self.ground_offset):
            raise ConfigurationError(f"data.ground_offset: must be finite, got {self.ground_offset}")


@dataclass(frozen=True)
class RunConfig:
    grid: GridSpec
    model: ModelConfig = field(default_factory=ModelConfig)
    head: HeadConfig = field(default_factory=HeadConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)


def desk_grid() -> GridSpec:
    """Desk-scale default: 64x64 cells at 0.2 m (12.8 m x 12.8 m crop)."""
    return GridSpec(x_range=(0.0, 12.8), y_range=(-6.4, 6.4), z_range=(-3.0, 1.0), pillar_size=0.2)


def default_config() -> RunConfig:
    return RunConfig(grid=desk_grid())


# ---------------------------------------------------------------------------
# strict dict -> dataclass loading, driven by the dataclass fields and hints
# ---------------------------------------------------------------------------


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _load(tp, raw, path: str):
    """Check parsed JSON ``raw`` against the type hint ``tp`` and convert it.

    Dataclasses load from objects (absent fields take their defaults, unknown
    keys are rejected), ``dict[K, V]`` from objects, fixed-length ``tuple``
    from lists, ``Literal`` by membership; an int widens to float, a bool is
    not an int.
    """
    if is_dataclass(tp):
        if not isinstance(raw, dict):
            raise ConfigurationError(f"section {path or '<root>'!r} must be an object, got {type(raw).__name__}")
        known = {f.name: f for f in fields(tp)}
        unknown = sorted(set(raw) - set(known))
        if unknown:
            raise ConfigurationError(f"unknown key {_join(path, unknown[0])}")
        for name, f in known.items():
            if name not in raw and f.default is MISSING and f.default_factory is MISSING:
                raise ConfigurationError(f"missing required key {_join(path, name)!r}")
        hints = get_type_hints(tp)
        return tp(**{name: _load(hints[name], value, _join(path, name)) for name, value in raw.items()})
    origin, args = get_origin(tp), get_args(tp)
    if origin is dict:
        if not isinstance(raw, dict):
            raise ConfigurationError(f"{path}: expected an object, got {raw!r}")
        return {_load(args[0], k, _join(path, k)): _load(args[1], v, _join(path, k)) for k, v in raw.items()}
    if origin is tuple:
        if not isinstance(raw, (list, tuple)):
            raise ConfigurationError(f"{path}: expected a list, got {raw!r}")
        if len(args) != len(raw):
            raise ConfigurationError(f"{path}: expected a list of {len(args)} values, got {raw!r}")
        return tuple(_load(t, v, f"{path}[{i}]") for i, (t, v) in enumerate(zip(args, raw)))
    if origin is Literal:
        if raw not in args:
            raise ConfigurationError(f"{path}: expected one of {list(args)}, got {raw!r}")
        return raw
    if tp is float and isinstance(raw, int) and not isinstance(raw, bool):
        return float(raw)
    if isinstance(raw, bool) != (tp is bool) or not isinstance(raw, tp):
        raise ConfigurationError(f"{path}: expected {tp.__name__}, got {raw!r}")
    return raw


def _dump(value):
    if is_dataclass(value):
        return {f.name: _dump(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {k: _dump(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [_dump(v) for v in value]
    return value


def config_from_dict(raw: dict) -> RunConfig:
    return _load(RunConfig, raw, "")


def load_config(path: str | Path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path}: malformed JSON at line {exc.lineno}: {exc.msg}") from exc
    return config_from_dict(raw)


def config_to_dict(cfg: RunConfig) -> dict:
    """Canonical echo-dump; loading this dict reproduces the config exactly."""
    return _dump(cfg)


def config_digest(cfg: RunConfig) -> str:
    blob = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
