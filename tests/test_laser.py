import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gazesim import laser
from gazesim.geometry import Pose2
from gazesim.laser import (
    MAX_RANGE_M,
    N_BEAMS,
    NOISE_SIGMA_M,
    EllipseBody,
    _intersect_batch,
    scan_to_points,
    synthesize_scan,
)
from gazesim.seeding import derive_rng


def clean_scan(monkeypatch, sensor: Pose2, body: EllipseBody):
    """A scan with NOISE_SIGMA_M at 0.0, whose draws add exactly +0.0 to
    each hit: the noise-free intersection ranges."""
    with monkeypatch.context() as patch:
        patch.setattr(laser, "NOISE_SIGMA_M", 0.0)
        return synthesize_scan(sensor, body, seed=0)


def implicit_value(point, body: EllipseBody) -> float:
    """Ellipse implicit form, 1.0 exactly on the boundary.

    The shoulder line (semi-major axis) runs perpendicular to the body
    heading, so the major axis direction is heading + 90 degrees.
    """
    px, py = point
    cx, cy = body.pose.x, body.pose.y
    axis = math.radians(body.pose.heading_deg + 90.0)
    dx, dy = px - cx, py - cy
    u = dx * math.cos(axis) + dy * math.sin(axis)
    v = -dx * math.sin(axis) + dy * math.cos(axis)
    return (u / body.semi_major_m) ** 2 + (v / body.semi_minor_m) ** 2


def unit(deg):
    rad = np.radians(np.atleast_1d(np.asarray(deg, dtype=float)))
    return np.column_stack([np.cos(rad), np.sin(rad)])


def ray_hits(origin, directions_deg, body):
    """Ranges the scanner's batched intersection gives, NaN on a miss."""
    return _intersect_batch(np.asarray(origin, dtype=float), unit(directions_deg), body)


class TestRayEllipseIntersect:
    def test_circle_head_on(self):
        body = EllipseBody(Pose2(2.0, 0.0, 0.0), semi_major_m=0.25, semi_minor_m=0.25)
        (t,) = ray_hits((0.0, 0.0), 0.0, body)
        assert t == pytest.approx(1.75)

    def test_ellipse_hit_along_minor_axis(self):
        # Heading 0 puts the short axis along x, so a head-on ray stops 0.15 early.
        body = EllipseBody(Pose2(2.0, 0.0, 0.0))
        (t,) = ray_hits((0.0, 0.0), 0.0, body)
        assert t == pytest.approx(1.85)

    def test_ellipse_hit_along_major_axis(self):
        body = EllipseBody(Pose2(2.0, 0.0, 90.0))
        (t,) = ray_hits((0.0, 0.0), 0.0, body)
        assert t == pytest.approx(1.75)

    def test_miss_returns_none(self):
        # A beam that misses carries NaN; its neighbours are unaffected.
        body = EllipseBody(Pose2(2.0, 0.0, 0.0))
        t = ray_hits((0.0, 0.0), [90.0, 180.0, 0.0], body)
        assert np.isnan(t[:2]).all()
        assert t[2] == pytest.approx(1.85)

    def test_origin_inside_rejected(self):
        body = EllipseBody(Pose2(0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            ray_hits((0.05, 0.0), 0.0, body)

    def test_grazing_ray_still_hits_inside_the_tangent(self):
        body = EllipseBody(Pose2(2.0, 0.0, 90.0), semi_major_m=0.25, semi_minor_m=0.25)
        graze = math.degrees(math.asin(0.25 / 2.0))
        inside = graze - 1e-3
        t, beyond = ray_hits((0.0, 0.0), [inside, graze + 0.1], body)
        assert not np.isnan(t)
        ((vx, vy),) = unit(inside)
        assert implicit_value((t * vx, t * vy), body) == pytest.approx(1.0, abs=1e-6)
        assert np.isnan(beyond)

    @settings(max_examples=200)
    @given(
        st.floats(min_value=1.0, max_value=3.5),
        st.floats(min_value=-100.0, max_value=100.0),
        st.floats(min_value=-180.0, max_value=180.0),
    )
    def test_hit_point_lies_on_boundary(self, r, bearing, body_heading):
        body = EllipseBody(
            Pose2(r * math.cos(math.radians(bearing)), r * math.sin(math.radians(bearing)), body_heading)
        )
        (t,) = ray_hits((0.0, 0.0), bearing, body)
        assert not np.isnan(t)  # the ray through the center always hits
        ((vx, vy),) = unit(bearing)
        assert implicit_value((t * vx, t * vy), body) == pytest.approx(1.0, abs=1e-9)
        assert 0.0 < t < r


class TestLaserParams:
    def test_beam_count(self):
        assert N_BEAMS == 667

    def test_fan_is_symmetric(self, monkeypatch):
        scan = clean_scan(monkeypatch, Pose2(0.0, 0.0, 0.0), EllipseBody(Pose2(2.0, 0.0, 0.0)))
        angles = scan.beam_angles_deg()
        assert len(angles) == 667
        assert angles[0] == pytest.approx(-119.88)
        assert angles[-1] == pytest.approx(119.88)
        assert np.allclose(np.diff(angles), 0.36)


class TestSynthesizeScan:
    def test_noise_free_hits_are_on_the_boundary(self, monkeypatch):
        body = EllipseBody(Pose2(1.8, 0.5, 40.0))
        scan = clean_scan(monkeypatch, Pose2(0.0, 0.0, 0.0), body)
        points = scan_to_points(scan)
        assert len(points) > 10
        for p in points:
            assert implicit_value(p, body) == pytest.approx(1.0, abs=1e-9)

    def test_misses_read_max_range_exactly(self):
        body = EllipseBody(Pose2(2.0, 0.0, 0.0))
        scan = synthesize_scan(Pose2(0.0, 0.0, 0.0), body, seed=5)
        ranges = np.asarray(scan.ranges_m)
        angles = scan.beam_angles_deg()
        far = np.abs(angles) > 30.0
        assert np.all(ranges[far] == MAX_RANGE_M)

    def test_noise_applies_only_to_hits(self, monkeypatch):
        body = EllipseBody(Pose2(2.0, 0.0, 0.0))
        clean = np.asarray(clean_scan(monkeypatch, Pose2(0.0, 0.0, 0.0), body).ranges_m)
        noisy = np.asarray(synthesize_scan(Pose2(0.0, 0.0, 0.0), body, seed=3).ranges_m)
        hits = clean < MAX_RANGE_M
        assert np.any(clean[hits] != noisy[hits])
        assert np.array_equal(clean[~hits], noisy[~hits])
        spread = noisy[hits] - clean[hits]
        assert np.std(spread) == pytest.approx(0.01, abs=0.004)

    def test_hit_ranges_are_the_intersection_plus_the_seeded_noise(self, monkeypatch):
        sensor, body = Pose2(0.0, 0.0, 0.0), EllipseBody(Pose2(1.8, 0.5, 40.0))
        clean = np.asarray(clean_scan(monkeypatch, sensor, body).ranges_m)
        hits = clean < MAX_RANGE_M
        for seed in range(10):
            ranges = np.asarray(synthesize_scan(sensor, body, seed=seed).ranges_m)
            noise = derive_rng(seed).normal(0.0, NOISE_SIGMA_M, int(hits.sum()))
            assert np.array_equal(ranges[hits], clean[hits] + noise)
            assert np.all(ranges[~hits] == MAX_RANGE_M)

    def test_ranges_clipped_to_sensor_limits(self):
        body = EllipseBody(Pose2(3.99, 0.0, 0.0))
        scan = synthesize_scan(Pose2(0.0, 0.0, 0.0), body, seed=1)
        ranges = np.asarray(scan.ranges_m)
        assert np.all(ranges > 0.0)
        assert np.all(ranges <= MAX_RANGE_M)

    def test_deterministic_per_seed(self):
        body = EllipseBody(Pose2(2.0, 0.3, 10.0))
        a = synthesize_scan(Pose2(0.0, 0.0, 0.0), body, seed=9)
        b = synthesize_scan(Pose2(0.0, 0.0, 0.0), body, seed=9)
        c = synthesize_scan(Pose2(0.0, 0.0, 0.0), body, seed=10)
        assert np.array_equal(a.ranges_m, b.ranges_m)
        assert not np.array_equal(a.ranges_m, c.ranges_m)

    def test_scan_respects_sensor_pose(self, monkeypatch):
        # Sensor turned 90 deg sees a body on +y exactly as an untampered
        # sensor sees the same body on +x.
        body_x = EllipseBody(Pose2(2.0, 0.0, 0.0))
        body_y = EllipseBody(Pose2(0.0, 2.0, 90.0))
        a = clean_scan(monkeypatch, Pose2(0.0, 0.0, 0.0), body_x)
        b = clean_scan(monkeypatch, Pose2(0.0, 0.0, 90.0), body_y)
        assert np.allclose(a.ranges_m, b.ranges_m)

    def test_scan_to_points_excludes_max_range(self, monkeypatch):
        body = EllipseBody(Pose2(2.0, 0.0, 0.0))
        scan = clean_scan(monkeypatch, Pose2(0.0, 0.0, 0.0), body)
        points = scan_to_points(scan)
        ranges = np.asarray(scan.ranges_m)
        assert len(points) == int(np.sum(ranges < MAX_RANGE_M))

