"""Particle-filter torso tracking from planar range scans.

Each particle is a body hypothesis (x, y, theta): position of the torso
ellipse center and facing direction in degrees (the shoulder line runs
perpendicular to theta). Per frame the filter diffuses the particles
with Gaussian motion noise, weights them against the scan, estimates
the body state as the weighted mean (circular in theta), and then
systematically resamples.

The weight of a hypothesis comes from evaluation points spread evenly
around its ellipse contour. Only points on the sensor-facing side count:
a point is kept when its outward normal has a positive component toward
the sensor. For every kept point the distance to the nearest scan return
is collected; with d_max the largest of those distances and sigma_d
their population variance (floored to avoid division blowups) the
weight is

    alpha = exp(-d_max^2 / sigma_d)

which rewards hypotheses whose entire visible contour hugs the scan.

The facing direction is ambiguous by 180 degrees from shape alone. The
filter resolves it by initialization: particles start near the seat's
nominal facing, and per-frame motion continuity keeps the estimate on
the true branch as the person turns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .geometry import Pose2, normalize_angle
from .laser import LaserScan, scan_to_points
from .seeding import derive_rng

MIN_WEIGHT = 1e-300
N_PARTICLES = 500
MOTION_SIGMA_XY_M = 0.05
MOTION_SIGMA_THETA_DEG = 5.0
N_EVAL_POINTS = 20
# Floor for the distance-variance denominator, (3 * range noise sigma)^2.
# Anything tighter lets rotated hypotheses overfit per-frame scan noise
# (they dodge the sparse silhouette edges) and the estimate wanders.
SIGMA_FLOOR_M2 = 9e-4
INIT_SIGMA_XY_M = 0.2
INIT_SIGMA_THETA_DEG = 15.0
WARMUP_FRAMES = 10


@dataclass(frozen=True)
class BodyEstimate:
    x: float
    y: float
    theta_deg: float
    distance_m: float
    n_effective: float
    converged: bool


def init_particles(guess: Pose2, seed: int) -> np.ndarray:
    """Spread particles around an initial pose guess (e.g. the seat).

    A particle set is its (n, 3) states array: columns x, y, theta_deg.
    Every set between frames is freshly drawn or resampled, so its
    weights are uniform and are not stored.
    """
    rng = derive_rng(seed)
    n = N_PARTICLES
    states = np.empty((n, 3))
    states[:, 0] = rng.normal(guess.x, INIT_SIGMA_XY_M, n)
    states[:, 1] = rng.normal(guess.y, INIT_SIGMA_XY_M, n)
    states[:, 2] = _wrap(rng.normal(guess.heading_deg, INIT_SIGMA_THETA_DEG, n))
    return states


def _wrap(deg: np.ndarray) -> np.ndarray:
    wrapped = np.remainder(deg, 360.0)
    wrapped[wrapped > 180.0] -= 360.0
    return wrapped


@lru_cache(maxsize=8)
def _contour_local(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Evenly parameterized contour points and outward normals, ellipse frame.

    Cached per body shape, since the filter needs the same contour every
    frame. The arrays are shared by every caller, so they are read-only.
    """
    t = 2.0 * math.pi * np.arange(n) / n
    pts = np.column_stack([a * np.cos(t), b * np.sin(t)])
    normals = np.column_stack([np.cos(t) / a, np.sin(t) / b])
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    pts.setflags(write=False)
    normals.setflags(write=False)
    return pts, normals


def likelihood(
    eval_points: np.ndarray, scan_points: np.ndarray, sigma_floor_m2: float
) -> float:
    """Score one hypothesis's visible contour against the scan returns: one
    row of the filter's batched weights."""
    eval_points = np.asarray(eval_points, dtype=float)
    scan_points = np.asarray(scan_points, dtype=float)
    if len(eval_points) == 0 or len(scan_points) == 0:
        return MIN_WEIGHT
    d = _nearest_return_distances(eval_points[:, 0], eval_points[:, 1], scan_points)[None]
    return float(_reduce_likelihoods(d, np.ones_like(d, bool), sigma_floor_m2)[0])


def _nearest_return_distances(
    px: np.ndarray, py: np.ndarray, scan_points: np.ndarray
) -> np.ndarray:
    """Distance from each point (px[i], py[i]) to its nearest scan return.

    The loop runs over the returns (a few dozen per scan) and keeps a
    running minimum over all points (thousands per frame), so every
    temporary is one point-sized vector that stays in cache. Each pair is
    still computed as (px - sx)**2 + (py - sy)**2 in that order, so the
    result is bit-identical to a full (points x returns) broadcast.
    """
    best = np.full(len(px), np.inf)
    dx = np.empty(len(px))
    dy = np.empty(len(px))
    for sx, sy in scan_points.tolist():
        np.subtract(px, sx, out=dx)
        np.subtract(py, sy, out=dy)
        dx *= dx
        dy *= dy
        dx += dy
        np.minimum(best, dx, out=best)
    return np.sqrt(best, out=best)


def _batch_likelihoods(
    states: np.ndarray,
    sensor_xy: np.ndarray,
    scan_points: np.ndarray,
    semi_axes: tuple[float, float],
) -> np.ndarray:
    """The likelihood of every particle, one row per particle.

    Distances are computed only for visible contour points (about half of
    them) and scattered back into an (n, N_EVAL_POINTS) array padded with
    zeros for `_reduce_likelihoods`.
    """
    n = len(states)
    if len(scan_points) == 0:
        return np.full(n, MIN_WEIGHT)
    local_pts, local_nrm = _contour_local(*semi_axes, N_EVAL_POINTS)
    axis = np.radians(states[:, 2] + 90.0)
    c, s = np.cos(axis)[:, None], np.sin(axis)[:, None]
    lx, ly = local_pts[:, 0][None, :], local_pts[:, 1][None, :]
    nx, ny = local_nrm[:, 0][None, :], local_nrm[:, 1][None, :]
    px = states[:, 0][:, None] + c * lx - s * ly
    py = states[:, 1][:, None] + s * lx + c * ly
    wnx = c * nx - s * ny
    wny = s * nx + c * ny
    visible = wnx * (sensor_xy[0] - px) + wny * (sensor_xy[1] - py) > 0.0

    d = np.zeros(px.shape)
    d[visible] = _nearest_return_distances(px[visible], py[visible], scan_points)
    return _reduce_likelihoods(d, visible, SIGMA_FLOOR_M2)


def _reduce_likelihoods(
    d: np.ndarray, visible: np.ndarray, sigma_floor_m2: float
) -> np.ndarray:
    """alpha = exp(-d_max^2 / sigma_d) per row of nearest-return distances,
    over the entries that `visible` keeps; `d` holds 0 elsewhere.

    The zero padding cannot raise a row maximum, because distances are
    non-negative, and the variance takes np.nanvar's steps on the same
    rows (row sum, mean, masked squared deviations, row sum), so the
    weights are bit-identical to reducing NaN-padded rows with np.nanmax
    and np.nanvar.
    """
    counts = visible.sum(axis=1)
    # Rows without a visible point get MIN_WEIGHT below; dividing them by 1
    # only keeps their discarded arithmetic finite.
    divisor = np.maximum(counts, 1)
    d_max = d.max(axis=1)
    dev = d - d.sum(axis=1, keepdims=True) / divisor[:, None]
    dev[~visible] = 0.0
    dev *= dev
    sigma_d = np.maximum(dev.sum(axis=1) / divisor, sigma_floor_m2)
    alphas = np.maximum(np.exp(-(d_max * d_max) / sigma_d), MIN_WEIGHT)
    alphas[counts == 0] = MIN_WEIGHT
    return alphas


def systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Indices chosen by systematic (low-variance) resampling."""
    n = len(weights)
    positions = (np.arange(n) + rng.uniform()) / n
    cumulative = np.cumsum(weights)
    cumulative /= cumulative[-1]
    return np.searchsorted(cumulative, positions)


def _estimate(states: np.ndarray, weights: np.ndarray, sensor: Pose2) -> BodyEstimate:
    w = weights
    x = float(np.dot(w, states[:, 0]))
    y = float(np.dot(w, states[:, 1]))
    theta_rad = np.radians(states[:, 2])
    theta = math.degrees(
        math.atan2(float(np.dot(w, np.sin(theta_rad))), float(np.dot(w, np.cos(theta_rad))))
    )
    n_eff = 1.0 / float(np.dot(w, w))
    return BodyEstimate(
        x=x,
        y=y,
        theta_deg=normalize_angle(theta),
        distance_m=sensor.distance_to((x, y)),
        n_effective=n_eff,
        converged=True,
    )


def filter_step(
    states: np.ndarray,
    scan: LaserScan,
    semi_axes: tuple[float, float],
    seed: int,
) -> tuple[np.ndarray, BodyEstimate]:
    """One diffuse/weight/estimate/resample cycle on a uniformly weighted
    set; returns the resampled set and the estimate.

    Every weight is floored at MIN_WEIGHT, so the total weight is positive
    and finite and the set never needs reinitializing. The estimate is
    flagged converged; BodyTracker clears the flag during its warmup.
    """
    rng = derive_rng(seed)
    n = len(states)
    sensor = scan.sensor_pose
    uniform = np.full(n, 1.0 / n)

    states = states.copy()
    states[:, 0] += rng.normal(0.0, MOTION_SIGMA_XY_M, n)
    states[:, 1] += rng.normal(0.0, MOTION_SIGMA_XY_M, n)
    states[:, 2] = _wrap(states[:, 2] + rng.normal(0.0, MOTION_SIGMA_THETA_DEG, n))

    scan_points = scan_to_points(scan)
    alphas = _batch_likelihoods(
        states, np.array([sensor.x, sensor.y]), scan_points, semi_axes
    )
    # Not alphas / n: the product rounds differently.
    weights = uniform * alphas
    weights = weights / float(weights.sum())
    estimate = _estimate(states, weights, sensor)
    idx = systematic_resample(weights, rng)
    return states[idx], estimate


def body_orientation_for_srm(estimate: BodyEstimate, robot: Pose2) -> float | None:
    """Body facing relative to the body-to-robot direction, or None.

    None signals that the estimate is not ready to feed the situation
    rules: the tracker is still in its warmup frames.
    """
    if not estimate.converged:
        return None
    to_robot = math.degrees(math.atan2(robot.y - estimate.y, robot.x - estimate.x))
    return normalize_angle(estimate.theta_deg - to_robot)


class BodyTracker:
    """Stateful convenience wrapper: owns the particle set and warmup logic.
    `semi_axes` is the tracked body's (semi-major, semi-minor) in meters."""

    def __init__(self, semi_axes: tuple[float, float], guess: Pose2, seed: int) -> None:
        self.semi_axes = semi_axes
        self.particles = init_particles(guess, seed)
        self._frames = 0

    def step(self, scan: LaserScan, seed: int) -> BodyEstimate:
        self.particles, estimate = filter_step(self.particles, scan, self.semi_axes, seed)
        self._frames += 1
        if self._frames < WARMUP_FRAMES:
            estimate = replace(estimate, converged=False)
        return estimate
