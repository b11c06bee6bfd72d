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
from .seeding import SeedLike, derive_rng

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


@dataclass(frozen=True, eq=False)
class LaserParams:
    fov_deg: float = 240.0
    step_deg: float = 0.36
    max_range_m: float = 4.0
    noise_sigma_m: float = 0.01

    def __post_init__(self) -> None:
        if self.fov_deg <= 0 or self.step_deg <= 0:
            raise ValueError("fov_deg and step_deg must be positive")
        if self.max_range_m <= 0:
            raise ValueError("max_range_m must be positive")
        if self.noise_sigma_m < 0:
            raise ValueError("noise_sigma_m must be non-negative")

    @property
    def n_beams(self) -> int:
        # Fence-post count: one beam per whole step that fits in the fan.
        return int(math.floor(self.fov_deg / self.step_deg + 1e-9)) + 1


DEFAULT_LASER = LaserParams()


@dataclass(frozen=True, eq=False)
class LaserScan:
    """One sweep. Ranges equal to max_range_m mean no return."""

    sensor_pose: Pose2
    start_angle_deg: float
    angular_step_deg: float
    ranges_m: np.ndarray
    max_range_m: float
    timestamp_s: float = 0.0

    def beam_angles_deg(self) -> np.ndarray:
        """World-frame beam directions."""
        rel = self.start_angle_deg + self.angular_step_deg * np.arange(len(self.ranges_m))
        return self.sensor_pose.heading_deg + rel


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


def synthesize_scan(
    sensor: Pose2,
    body: EllipseBody,
    noise_sigma: float | None = None,
    seed: SeedLike = 0,
    params: LaserParams = DEFAULT_LASER,
    timestamp_s: float = 0.0,
) -> LaserScan:
    """Simulate one sweep of the scanner at the given pose.

    Deterministic for a given seed. noise_sigma defaults to the value in
    params.
    """
    sigma = params.noise_sigma_m if noise_sigma is None else float(noise_sigma)
    n = params.n_beams
    start = -0.5 * params.step_deg * (n - 1)
    rel = start + params.step_deg * np.arange(n)
    world = np.radians(sensor.heading_deg + rel)
    dirs = np.column_stack([np.cos(world), np.sin(world)])
    origin = np.array([sensor.x, sensor.y])

    t = _intersect_batch(origin, dirs, body)
    ranges = np.full(n, params.max_range_m)
    hit = ~np.isnan(t) & (t <= params.max_range_m)
    if sigma > 0.0 and hit.any():
        rng = derive_rng(seed)
        noise = rng.normal(0.0, sigma, size=int(hit.sum()))
        ranges[hit] = t[hit] + noise
    else:
        ranges[hit] = t[hit]
    np.clip(ranges, _RANGE_EPS, params.max_range_m, out=ranges)
    return LaserScan(
        sensor_pose=sensor,
        start_angle_deg=start,
        angular_step_deg=params.step_deg,
        ranges_m=ranges,
        max_range_m=params.max_range_m,
        timestamp_s=timestamp_s,
    )


def scan_to_points(scan: LaserScan) -> np.ndarray:
    """Cartesian world points for returning beams, shape (k, 2)."""
    ranges = np.asarray(scan.ranges_m, dtype=float)
    returned = ranges < scan.max_range_m - _RANGE_EPS
    angles = np.radians(scan.beam_angles_deg()[returned])
    r = ranges[returned]
    return np.column_stack(
        [scan.sensor_pose.x + r * np.cos(angles), scan.sensor_pose.y + r * np.sin(angles)]
    )

