"""Planar geometry primitives shared across the simulator.

Angles are degrees everywhere and are normalized onto the half-open
interval (-180, +180]. Positive angles turn counter-clockwise (a left
turn); heading 0 points along the world +x axis, which by convention is
the robot's initial line of sight.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def normalize_angle(deg: float) -> float:
    """Wrap an angle in degrees onto (-180, +180]."""
    if -180.0 < deg <= 180.0:
        return deg + 0.0  # what fmod gives: deg itself, -0.0 -> 0.0
    if not math.isfinite(deg):
        raise ValueError(f"angle must be finite, got {deg!r}")
    wrapped = math.fmod(deg, 360.0)
    if wrapped > 180.0:
        wrapped -= 360.0
    elif wrapped <= -180.0:
        wrapped += 360.0
    return wrapped + 0.0  # -0.0 -> 0.0


def normalize_angles(deg: np.ndarray) -> np.ndarray:
    """`normalize_angle` element-wise, bit for bit, on finite angles."""
    wrapped = np.fmod(deg, 360.0)
    wrapped -= 360.0 * (wrapped > 180.0)
    wrapped += 360.0 * (wrapped <= -180.0)
    return np.where((-180.0 < deg) & (deg <= 180.0), deg, wrapped) + 0.0


@dataclass(frozen=True)
class Pose2:
    """Position plus heading on the ground plane (meters, degrees)."""

    x: float
    y: float
    heading_deg: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "heading_deg", normalize_angle(self.heading_deg))

    @property
    def position(self) -> tuple[float, float]:
        return (self.x, self.y)

    def distance_to(self, point: tuple[float, float]) -> float:
        return math.hypot(point[0] - self.x, point[1] - self.y)


@dataclass(frozen=True)
class HeadPose:
    """Head position on the ground plane (meters) and orientation
    (degrees, world frame)."""

    x: float
    y: float
    yaw_deg: float
    pitch_deg: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "yaw_deg", normalize_angle(self.yaw_deg))
        object.__setattr__(self, "pitch_deg", normalize_angle(self.pitch_deg))

    @property
    def position(self) -> tuple[float, float]:
        return (self.x, self.y)


def bearing_to(origin: tuple[float, float], target: tuple[float, float]) -> float:
    """World-frame direction from origin to target, degrees."""
    dx = target[0] - origin[0]
    dy = target[1] - origin[1]
    if dx == 0.0 and dy == 0.0:
        raise ValueError("bearing undefined: target coincides with origin")
    return normalize_angle(math.degrees(math.atan2(dy, dx)))


def relative_bearing(observer: Pose2, target: tuple[float, float]) -> float:
    """Signed angle from the observer's heading to the target, degrees.

    Positive means the target lies to the observer's left.
    """
    return normalize_angle(bearing_to(observer.position, target) - observer.heading_deg)


def move_toward_angle(current: float, target: float, max_step: float) -> float:
    """Advance an angle toward a target by at most max_step degrees.

    Takes the short way around and never overshoots; returns the target
    exactly once within reach. max_step must be non-negative.
    """
    if max_step < 0:
        raise ValueError("max_step must be non-negative")
    delta = normalize_angle(target - current)
    if abs(delta) <= max_step:
        return normalize_angle(target)
    return normalize_angle(current + math.copysign(max_step, delta))
