"""Synthetic planar range scans of an elliptical torso cross-section.

The scanner sweeps a fan of beams across its field of view, intersects
each beam with the body ellipse, and perturbs the hit ranges with
Gaussian noise. Beams that miss carry the max-range sentinel and are
dropped when a scan is converted back to Cartesian points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Pose2
from .seeding import derive_rng

_RANGE_EPS = 1e-12


@dataclass(frozen=True)
class EllipseBody:
    """Torso cross-section: center pose plus semi-axes in meters.

    The semi-major axis (shoulder line) runs along the pose heading
    rotated by +90 degrees, i.e. heading points where the chest faces.
    """

    pose: Pose2
    semi_major_m: float = 0.25
    semi_minor_m: float = 0.15

    def __post_init__(self) -> None:
        if not (self.semi_major_m >= self.semi_minor_m > 0.0):
            raise ValueError("require semi_major_m >= semi_minor_m > 0")


FOV_DEG = 240.0
STEP_DEG = 0.36
MAX_RANGE_M = 4.0
NOISE_SIGMA_M = 0.01
# Fence-post count: one beam per whole step that fits in the fan.
N_BEAMS = int(math.floor(FOV_DEG / STEP_DEG + 1e-9)) + 1
# Beam directions relative to the sensor heading.
BEAM_ANGLES_DEG = -0.5 * STEP_DEG * (N_BEAMS - 1) + STEP_DEG * np.arange(N_BEAMS)
BEAM_ANGLES_DEG.setflags(write=False)


@dataclass(frozen=True, eq=False)
class LaserScan:
    """One sweep. Ranges equal to MAX_RANGE_M mean no return."""

    sensor_pose: Pose2
    ranges_m: np.ndarray

    def beam_angles_deg(self) -> np.ndarray:
        """World-frame beam directions."""
        return self.sensor_pose.heading_deg + BEAM_ANGLES_DEG


def _ellipse_frame(body: EllipseBody) -> tuple[np.ndarray, np.ndarray]:
    """Rotation into the ellipse frame: semi-major along local x."""
    # Heading points along the chest normal; the major axis is +90 deg off.
    axis = math.radians(body.pose.heading_deg + 90.0)
    c, s = math.cos(axis), math.sin(axis)
    center = np.array([body.pose.x, body.pose.y])
    rot = np.array([[c, s], [-s, c]])  # world -> ellipse
    return center, rot


def _intersect_batch(
    origin: np.ndarray, dirs: np.ndarray, body: EllipseBody
) -> np.ndarray:
    """Vectorized ray/ellipse intersection; NaN where a beam misses."""
    center, rot = _ellipse_frame(body)
    o = rot @ (origin - center)
    d = dirs @ rot.T
    a, b = body.semi_major_m, body.semi_minor_m
    cA = (d[:, 0] / a) ** 2 + (d[:, 1] / b) ** 2
    cB = 2.0 * (o[0] * d[:, 0] / a**2 + o[1] * d[:, 1] / b**2)
    cC = (o[0] / a) ** 2 + (o[1] / b) ** 2 - 1.0
    if cC < 0.0:
        raise ValueError("sensor lies inside the body ellipse")
    disc = cB * cB - 4.0 * cA * cC
    hit = disc >= 0.0
    t = np.full(len(dirs), np.nan)
    sqrt_disc = np.sqrt(np.where(hit, disc, 0.0))
    t_near = (-cB - sqrt_disc) / (2.0 * cA)
    t_far = (-cB + sqrt_disc) / (2.0 * cA)
    best = np.where(t_near > _RANGE_EPS, t_near, t_far)
    valid = hit & (best > _RANGE_EPS)
    t[valid] = best[valid]
    return t


def synthesize_scan(sensor: Pose2, body: EllipseBody, seed: int) -> LaserScan:
    """Simulate one sweep of the scanner at the given pose; deterministic
    for a given seed."""
    world = np.radians(sensor.heading_deg + BEAM_ANGLES_DEG)
    dirs = np.column_stack([np.cos(world), np.sin(world)])
    origin = np.array([sensor.x, sensor.y])

    t = _intersect_batch(origin, dirs, body)
    ranges = np.full(N_BEAMS, MAX_RANGE_M)
    hit = ~np.isnan(t) & (t <= MAX_RANGE_M)
    ranges[hit] = t[hit] + derive_rng(seed).normal(0.0, NOISE_SIGMA_M, int(hit.sum()))
    np.clip(ranges, _RANGE_EPS, MAX_RANGE_M, out=ranges)
    return LaserScan(sensor, ranges)


def scan_to_points(scan: LaserScan) -> np.ndarray:
    """Cartesian world points for returning beams, shape (k, 2)."""
    ranges = np.asarray(scan.ranges_m, dtype=float)
    returned = ranges < MAX_RANGE_M - _RANGE_EPS
    angles = np.radians(scan.beam_angles_deg()[returned])
    r = ranges[returned]
    return np.column_stack(
        [scan.sensor_pose.x + r * np.cos(angles), scan.sensor_pose.y + r * np.sin(angles)]
    )
