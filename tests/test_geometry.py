import math
import struct

import pytest
from hypothesis import example, given, strategies as st

import oracles

from gazesim.geometry import (
    HeadPose,
    Pose2,
    bearing_to,
    move_toward_angle,
    normalize_angle,
    relative_bearing,
)

finite_angles = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def angular_distance(a: float, b: float) -> float:
    return abs(normalize_angle(a - b))


def circ_close(a: float, b: float, tol: float = 1e-6) -> bool:
    return abs(normalize_angle(a - b)) <= tol


class TestNormalizeAngle:
    def test_known_values(self):
        assert normalize_angle(0.0) == 0.0
        assert normalize_angle(180.0) == 180.0
        assert normalize_angle(-180.0) == 180.0
        assert normalize_angle(540.0) == 180.0
        assert normalize_angle(-190.0) == pytest.approx(170.0)
        assert normalize_angle(360.0) == 0.0
        assert normalize_angle(359.0) == pytest.approx(-1.0)

    @given(finite_angles)
    def test_range_half_open(self, a):
        n = normalize_angle(a)
        assert -180.0 < n <= 180.0

    @given(finite_angles)
    def test_idempotent(self, a):
        n = normalize_angle(a)
        assert normalize_angle(n) == n

    @given(finite_angles, st.integers(min_value=-3, max_value=3))
    def test_periodic(self, a, k):
        assert circ_close(normalize_angle(a + 360.0 * k), normalize_angle(a))

    @given(
        st.floats(allow_nan=False, allow_infinity=False)
        | st.integers(min_value=-(10**308), max_value=10**308)
        | st.integers(min_value=-1000, max_value=1000)
    )
    @example(180.0)
    @example(-180.0)
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(-5e-324)
    @example(2.2250738585072014e-308)
    @example(1e308)
    @example(-1e308)
    @example(180)
    @example(-180)
    @example(math.nextafter(-180.0, 0.0))
    @example(math.nextafter(180.0, math.inf))
    def test_fast_path_matches_the_fmod_oracle_bit_for_bit(self, a):
        got, expected = normalize_angle(a), oracles.normalize_angle(a)
        assert type(got) is type(expected) is float
        assert struct.pack("<d", got) == struct.pack("<d", expected)

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, a):
        with pytest.raises(ValueError, match="finite"):
            normalize_angle(a)


class TestAngularDistance:
    def test_known_values(self):
        assert angular_distance(10.0, 350.0) == pytest.approx(20.0)
        assert angular_distance(-170.0, 170.0) == pytest.approx(20.0)
        assert angular_distance(0.0, 180.0) == pytest.approx(180.0)

    @given(finite_angles, finite_angles)
    def test_symmetric_and_bounded(self, a, b):
        d = angular_distance(a, b)
        assert 0.0 <= d <= 180.0
        assert d == pytest.approx(angular_distance(b, a), abs=1e-9)


class TestBearings:
    def test_bearing_to_axes(self):
        origin = (0.0, 0.0)
        assert bearing_to(origin, (1.0, 0.0)) == 0.0
        assert bearing_to(origin, (0.0, 2.0)) == pytest.approx(90.0)
        assert bearing_to(origin, (-3.0, 0.0)) == pytest.approx(180.0)
        assert bearing_to(origin, (0.0, -0.5)) == pytest.approx(-90.0)

    def test_bearing_to_coincident_rejected(self):
        with pytest.raises(ValueError):
            bearing_to((1.0, 2.0), (1.0, 2.0))

    def test_relative_bearing_examples(self):
        observer = Pose2(0.0, 0.0, 90.0)
        assert relative_bearing(observer, (0.0, 5.0)) == pytest.approx(0.0)
        assert relative_bearing(observer, (5.0, 0.0)) == pytest.approx(-90.0)
        observer = Pose2(1.0, 1.0, -45.0)
        assert relative_bearing(observer, (2.0, 0.0)) == pytest.approx(0.0)

    @given(
        st.floats(min_value=-50, max_value=50),
        st.floats(min_value=-50, max_value=50),
        finite_angles,
        finite_angles,
        st.floats(min_value=0.1, max_value=50),
        finite_angles,
    )
    def test_rotating_observer_shifts_bearing_oppositely(self, x, y, h, phi, r, t_ang):
        target = (x + r * math.cos(math.radians(t_ang)), y + r * math.sin(math.radians(t_ang)))
        base = relative_bearing(Pose2(x, y, h), target)
        rotated = relative_bearing(Pose2(x, y, h + phi), target)
        assert circ_close(rotated, base - phi, tol=1e-5)


class TestMoveTowardAngle:
    def test_reaches_target_within_step(self):
        assert move_toward_angle(10.0, 12.0, 5.0) == 12.0

    def test_partial_step_shortest_way(self):
        assert move_toward_angle(170.0, -170.0, 5.0) == pytest.approx(175.0)
        assert move_toward_angle(-170.0, 170.0, 5.0) == pytest.approx(-175.0)

    def test_zero_step_stays_put(self):
        assert move_toward_angle(0.0, 10.0, 0.0) == 0.0

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            move_toward_angle(0.0, 10.0, -1.0)

    @given(
        st.floats(min_value=-180, max_value=180),
        st.floats(min_value=-180, max_value=180),
        st.floats(min_value=1e-3, max_value=360),
    )
    def test_distance_shrinks_by_exactly_min_step_dist(self, cur, target, step):
        before = angular_distance(cur, target)
        after = angular_distance(move_toward_angle(cur, target, step), target)
        assert after == pytest.approx(max(0.0, before - step), abs=1e-9)


class TestPoses:
    def test_pose2_normalizes_heading(self):
        assert Pose2(0.0, 0.0, 190.0).heading_deg == pytest.approx(-170.0)

    def test_pose2_distance(self):
        assert Pose2(0.0, 0.0, 0.0).distance_to((3.0, 4.0)) == pytest.approx(5.0)

    def test_head_pose_position_is_planar(self):
        hp = HeadPose(1.0, 2.0, yaw_deg=30.0, pitch_deg=5.0)
        assert hp.position == (1.0, 2.0)
        assert hp.pitch_deg == 5.0
