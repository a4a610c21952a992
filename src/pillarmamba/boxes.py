"""Oriented 3D boxes and scored detections."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import ContractViolation

CLASS_NAMES = ("vehicle", "pedestrian", "cyclist")
CLASS_IDS = {name: i for i, name in enumerate(CLASS_NAMES)}
ClassName = Literal[CLASS_NAMES]  # a class name as a type; the config loader checks membership


def normalize_yaw(yaw: float) -> float:
    """Wrap an angle into [-pi, pi)."""
    return float((yaw + math.pi) % (2.0 * math.pi) - math.pi)


@dataclass
class Box3D:
    """Center (x, y, z), dimensions (l, w, h), yaw about +z, class id."""

    x: float
    y: float
    z: float
    l: float
    w: float
    h: float
    yaw: float
    cls: int = 0

    def __post_init__(self):
        if min(self.l, self.w, self.h) <= 0:
            raise ContractViolation(f"box dimensions must be positive, got l={self.l}, w={self.w}, h={self.h}")
        self.yaw = normalize_yaw(self.yaw)

    def corners_bev(self) -> np.ndarray:
        """Footprint corners (4, 2), counterclockwise."""
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        half_l, half_w = self.l / 2.0, self.w / 2.0
        local = np.array(
            [[half_l, half_w], [-half_l, half_w], [-half_l, -half_w], [half_l, -half_w]]
        )
        rot = np.array([[c, -s], [s, c]])
        return local @ rot.T + np.array([self.x, self.y])

    @property
    def z_interval(self) -> tuple[float, float]:
        return (self.z - self.h / 2.0, self.z + self.h / 2.0)

    @property
    def volume(self) -> float:
        return self.l * self.w * self.h


@dataclass
class Detection:
    box: Box3D
    score: float

    def __post_init__(self):
        if not (0.0 < self.score < 1.0):
            raise ContractViolation(f"detection score must lie in (0, 1), got {self.score}")
