import dataclasses
import math

import pytest

from gazesim.geometry import Pose2, normalize_angle
from gazesim.scenario import (
    NOISE_MARGIN_DEG,
    SEAT_DISTANCE_M,
    Painting,
    RoomError,
    Scenario,
    default_scenario,
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
        for pid, situation in sc.situation_map.items():
            assert settled_instant(sc, sc.painting(pid)) is situation
        # Map each painting to the situation after its own: the room no
        # longer builds, and every mapped painting is named in the errors.
        shifted = {
            pid: SITUATIONS[(SITUATIONS.index(s) + 1) % len(SITUATIONS)]
            for pid, s in sc.situation_map.items()
        }
        with pytest.raises(RoomError) as caught:
            dataclasses.replace(sc, situation_map=shifted)
        named = [e.split(":")[0] for e in caught.value.errors]
        assert named == [f"situation_map.{pid}" for pid in sc.situation_map]

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

    def test_contradicting_map_is_rejected_naming_the_painting(self):
        sc = default_scenario()
        bad_map = dict(sc.situation_map)
        # Claim the far-side painting is dead ahead.
        far = sc.painting_for(ViewingSituation.OFOV)
        bad_map[far.painting_id] = ViewingSituation.CFOV
        with pytest.raises(RoomError) as caught:
            dataclasses.replace(sc, situation_map=bad_map)
        assert caught.value.errors == (
            f"situation_map.{far.painting_id}: bearing +150.0 deg classifies as "
            "OFOV, but the map says CFOV",
        )


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

    def test_seat_beyond_face_range_rejected(self):
        # The default robot stands at the origin; FACE_RANGE_M is 3 m.
        with pytest.raises(ValueError, match=r"^human_seat: lies more than"):
            dataclasses.replace(default_scenario(), human_seat=Pose2(3.5, 0.0, 180.0))

    @pytest.mark.parametrize("key", ["sensor_pose", "camera_pose"])
    def test_sensor_or_camera_on_the_seat_rejected(self, key):
        sc = default_scenario()
        with pytest.raises(ValueError, match=rf"^{key}: lies within body_semi_major_m"):
            dataclasses.replace(sc, **{key: sc.human_seat})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("robot_pose", Pose2(math.nan, 0.0, 0.0)),
            ("sensor_pose", Pose2(math.nan, 0.0, 0.0)),
            ("camera_pose", Pose2(0.0, math.inf, 0.0)),
            ("human_seat", Pose2(-math.inf, 1.7, -120.0)),
            ("painting_pitch_deg", math.nan),
            ("body_semi_major_m", math.inf),
            ("body_semi_minor_m", math.nan),
        ],
    )
    def test_non_finite_value_rejected_naming_its_key(self, key, value):
        with pytest.raises(RoomError, match=rf"^{key}: expected finite values") as caught:
            dataclasses.replace(default_scenario(), **{key: value})
        assert len(caught.value.errors) == 1

    def test_every_contradicting_painting_is_named(self):
        # From (0.4, -0.3) the camera sees P1, P4 and P5 in other bands.
        sc = default_scenario()
        with pytest.raises(RoomError) as caught:
            dataclasses.replace(sc, camera_pose=Pose2(0.4, -0.3, 0.0))
        named = [e.split(":")[0] for e in caught.value.errors]
        assert named == [f"situation_map.{pid}" for pid in ("P1", "P4", "P5")]

    @pytest.mark.parametrize(
        "pid, bearing, edge",
        [("P1", 9.5, 10.0), ("P1", -7.5, 10.0), ("P2", 68.0, 70.0), ("P4", 71.1, 70.0),
         ("P4", 88.0, 90.0)],
    )
    def test_head_yaw_near_a_band_edge_rejected(self, pid, bearing, edge):
        # The default seat faces the camera, so a painting's settled head yaw
        # is its bearing. Within NOISE_MARGIN_DEG (3 deg) of a band edge the
        # camera noise keeps the label from persisting for 30 frames.
        sc = default_scenario()
        paintings = tuple(
            Painting(pid, bearing) if p.painting_id == pid else p for p in sc.paintings
        )
        assert abs(abs(bearing) - edge) < NOISE_MARGIN_DEG
        with pytest.raises(RoomError, match=rf"^situation_map\.{pid}: settled head yaw"):
            dataclasses.replace(sc, paintings=paintings)

    @pytest.mark.parametrize("pitch, accepted", [(6.9, True), (7.5, False), (-8.0, False)])
    def test_head_pitch_near_the_band_edge_rejected(self, pitch, accepted):
        sc = default_scenario()
        if accepted:
            dataclasses.replace(sc, painting_pitch_deg=pitch)
            return
        with pytest.raises(RoomError, match=r"^situation_map\.P1: settled head yaw"):
            dataclasses.replace(sc, painting_pitch_deg=pitch)

    @pytest.mark.parametrize("pid", ["P1", "P2", "P3", "P4", "P5"])
    @pytest.mark.parametrize("turn", [-5.0, 5.0])
    def test_default_room_clears_the_noise_margin_widely(self, pid, turn):
        # Each tracked painting may turn 5 deg either way and stay valid, so
        # the default room's trials never come near the margin rule.
        sc = default_scenario()
        paintings = tuple(
            Painting(pid, p.bearing_deg + turn) if p.painting_id == pid else p
            for p in sc.paintings
        )
        dataclasses.replace(sc, paintings=paintings)

    def test_painting_lookup_raises_for_unknown_id(self):
        sc = default_scenario()
        with pytest.raises(KeyError):
            sc.painting("NOPE")

    def test_body_wider_than_it_is_long_rejected(self):
        sc = default_scenario()
        with pytest.raises(RoomError, match=r"^body_semi_minor_m: require") as caught:
            dataclasses.replace(sc, body_semi_minor_m=sc.body_semi_major_m + 0.01)
        assert len(caught.value.errors) == 1

    def test_situation_lookup_raises_for_an_unmapped_situation(self):
        sc, ofov = default_scenario(), ViewingSituation.OFOV
        room = dataclasses.replace(
            sc, situation_map={p: s for p, s in sc.situation_map.items() if s is not ofov}
        )
        with pytest.raises(KeyError, match="no painting mapped to"):
            room.painting_for(ofov)

    def test_bearing_normalized(self):
        assert Painting("A", 350.0).bearing_deg == pytest.approx(-10.0)
