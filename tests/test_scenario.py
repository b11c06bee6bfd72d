import dataclasses
import math

import pytest

from gazesim.geometry import Pose2, normalize_angle
from gazesim.scenario import (
    SEAT_DISTANCE_M,
    Painting,
    Scenario,
    default_scenario,
    map_consistency_errors,
    settled_instant,
)
from gazesim.situation import SITUATIONS, ViewingSituation


class TestDefaultScenario:
    def test_geometry(self):
        sc = default_scenario()
        assert sc.robot_pose == Pose2(0.0, 0.0, 0.0)
        assert sc.human_seat.distance_to(sc.robot_pose.position) == pytest.approx(
            SEAT_DISTANCE_M
        )
        # Seat faces straight back at the robot.
        rel = normalize_angle(
            math.degrees(
                math.atan2(-sc.human_seat.y, -sc.human_seat.x)
            )
            - sc.human_seat.heading_deg
        )
        assert rel == pytest.approx(0.0, abs=1e-9)

    def test_seven_paintings_with_unique_ids(self):
        sc = default_scenario()
        assert len(sc.paintings) == 7
        assert len({p.painting_id for p in sc.paintings}) == 7

    def test_every_situation_has_a_painting(self):
        sc = default_scenario()
        for s in SITUATIONS:
            p = sc.painting_for(s)
            assert sc.situation_map[p.painting_id] is s

    def test_situation_map_matches_settled_pipeline(self):
        sc = default_scenario()
        assert map_consistency_errors(sc) == []
        for pid, situation in sc.situation_map.items():
            assert settled_instant(sc, sc.painting(pid)) is situation

    def test_unmapped_painting_is_allowed(self):
        sc = default_scenario()
        unmapped = [p for p in sc.paintings if p.painting_id not in sc.situation_map]
        # One spare wall position stays out of the trial rotation.
        assert len(unmapped) == 1

    def test_painting_world_yaw(self):
        sc = default_scenario()
        for p in sc.paintings:
            assert sc.painting_world_yaw(p) == pytest.approx(
                normalize_angle(sc.human_seat.heading_deg + p.bearing_deg)
            )

    def test_straight_ahead_painting_is_central(self):
        sc = default_scenario()
        central = sc.painting_for(ViewingSituation.CFOV)
        assert abs(central.bearing_deg) <= 10.0


class TestSettledInstant:
    @pytest.mark.parametrize(
        "bearing,expected",
        [
            (0.0, ViewingSituation.CFOV),
            (9.0, ViewingSituation.CFOV),
            (45.0, ViewingSituation.NPFOV),
            (-60.0, ViewingSituation.NPFOV),
            (85.0, ViewingSituation.FPFOV),
            (150.0, ViewingSituation.OFOV),
            (-150.0, ViewingSituation.OFOV),
        ],
    )
    def test_bearing_maps_to_expected_band(self, bearing, expected):
        sc = default_scenario()
        assert settled_instant(sc, Painting("X", bearing)) is expected

    def test_map_consistency_errors_flags_bad_map(self):
        sc = default_scenario()
        bad_map = dict(sc.situation_map)
        # Claim the far-side painting is dead ahead.
        far = sc.painting_for(ViewingSituation.OFOV)
        bad_map[far.painting_id] = ViewingSituation.CFOV
        bad = dataclasses.replace(sc, situation_map=bad_map)
        errors = map_consistency_errors(bad)
        assert errors
        assert any(far.painting_id in e for e in errors)


class TestValidation:
    def test_wrong_painting_count_rejected(self):
        sc = default_scenario()
        with pytest.raises(ValueError):
            dataclasses.replace(sc, paintings=sc.paintings[:5])

    def test_duplicate_ids_rejected(self):
        sc = default_scenario()
        dup = sc.paintings[:6] + (Painting(sc.paintings[0].painting_id, 170.0),)
        with pytest.raises(ValueError):
            dataclasses.replace(sc, paintings=dup)

    def test_unknown_map_key_rejected(self):
        sc = default_scenario()
        bad_map = dict(sc.situation_map)
        bad_map["NOPE"] = ViewingSituation.CFOV
        with pytest.raises(ValueError):
            dataclasses.replace(sc, situation_map=bad_map)

    def test_painting_lookup_raises_for_unknown_id(self):
        sc = default_scenario()
        with pytest.raises(KeyError):
            sc.painting("NOPE")

    def test_bearing_normalized(self):
        assert Painting("A", 350.0).bearing_deg == pytest.approx(-10.0)
