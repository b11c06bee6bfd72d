"""Desk-scale world layout.

One person sits on a fixed chair surrounded by seven wall paintings and
examines them. The robot wants to establish eye contact; a scanning
range sensor and the head-tracking camera observe the person. Painting
bearings are expressed in the seat frame, where bearing 0 points from
the seat toward the robot, so each painting pins the robot at a known
spot in the viewer's field of view.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import Pose2, bearing_to, normalize_angle
from .head_tracker import HeadObservation, TRACKING_LIMIT_DEG
from .situation import ViewingSituation, classify_instant

SEAT_DISTANCE_M = 2.0


@dataclass(frozen=True)
class Painting:
    painting_id: str
    bearing_deg: float  # seat frame; 0 = toward the robot

    def __post_init__(self) -> None:
        object.__setattr__(self, "bearing_deg", normalize_angle(self.bearing_deg))


@dataclass(frozen=True)
class Scenario:
    robot_pose: Pose2
    sensor_pose: Pose2
    camera_pose: Pose2
    human_seat: Pose2
    paintings: tuple[Painting, ...]
    situation_map: dict[str, ViewingSituation]
    body_semi_major_m: float = 0.25
    body_semi_minor_m: float = 0.15
    painting_pitch_deg: float = 5.0

    def __post_init__(self) -> None:
        ids = [p.painting_id for p in self.paintings]
        if len(self.paintings) != 7:
            raise ValueError(f"expected exactly 7 paintings, got {len(self.paintings)}")
        if len(set(ids)) != len(ids):
            raise ValueError("painting ids must be unique")
        unknown = set(self.situation_map) - set(ids)
        if unknown:
            raise ValueError(f"situation_map references unknown paintings: {sorted(unknown)}")
        if not (self.body_semi_major_m >= self.body_semi_minor_m > 0):
            raise ValueError("require body_semi_major_m >= body_semi_minor_m > 0")

    def painting(self, painting_id: str) -> Painting:
        for p in self.paintings:
            if p.painting_id == painting_id:
                return p
        raise KeyError(painting_id)

    def painting_for(self, situation: ViewingSituation) -> Painting:
        """First painting mapped to the situation, in listed order."""
        for p in self.paintings:
            if self.situation_map.get(p.painting_id) is situation:
                return p
        raise KeyError(f"no painting mapped to {situation}")

    def painting_world_yaw(self, painting: Painting) -> float:
        """World-frame gaze direction when looking at a painting from the seat."""
        return normalize_angle(self.human_seat.heading_deg + painting.bearing_deg)


def settled_instant(scenario: Scenario, painting: Painting) -> ViewingSituation | None:
    """Instantaneous label for a viewer settled on a painting, noise-free.

    Runs the same geometry the live pipeline uses: head yaw relative to
    the camera for the field-of-view bands, body orientation relative to
    the robot for the out-of-view rule.
    """
    seat = scenario.human_seat.position
    yaw = scenario.painting_world_yaw(painting)
    to_camera = bearing_to(seat, scenario.camera_pose.position)
    rel = normalize_angle(yaw - to_camera)
    if abs(rel) <= TRACKING_LIMIT_DEG:
        pitch = normalize_angle(scenario.painting_pitch_deg)
        obs = HeadObservation(frame=0, valid=True, yaw_deg=rel, pitch_deg=pitch)
    else:
        obs = HeadObservation(frame=0, valid=False)
    to_robot = bearing_to(seat, scenario.robot_pose.position)
    theta_rel = normalize_angle(yaw - to_robot)
    return classify_instant(obs, theta_rel)


def map_consistency_errors(scenario: Scenario) -> list[str]:
    """Check that every mapped painting classifies to its mapped situation.
    Each error starts with the painting id and a colon."""
    errors = []
    for p in scenario.paintings:
        expected = scenario.situation_map.get(p.painting_id)
        if expected is None:
            continue
        got = settled_instant(scenario, p)
        if got is not expected:
            errors.append(
                f"{p.painting_id}: bearing {p.bearing_deg:+.1f} deg classifies as "
                f"{got.value if got else 'unknown'}, but the map says {expected.value}"
            )
    return errors


def default_scenario() -> Scenario:
    """Reference layout used throughout the test and experiment suites.

    The robot sits at the origin looking along +x (not at the person).
    The seat is 2 m away at +60 degrees and faces the robot. The head
    camera is mounted at the robot; the range sensor stands on a tripod
    just beside it. Painting P1 hangs in line with the robot, P2/P3 sit
    40 degrees to either side, P4/P5 at 80 degrees, and P6/P7 are behind
    the viewer's shoulders at +-150 degrees; P7 is a spare that no trial
    condition uses.
    """
    robot = Pose2(0.0, 0.0, 0.0)
    seat_bearing = 60.0
    sx = SEAT_DISTANCE_M * math.cos(math.radians(seat_bearing))
    sy = SEAT_DISTANCE_M * math.sin(math.radians(seat_bearing))
    seat = Pose2(sx, sy, bearing_to((sx, sy), robot.position))
    sensor = Pose2(0.3, 0.0, bearing_to((0.3, 0.0), seat.position))
    camera = Pose2(0.0, 0.0, bearing_to((0.0, 0.0), seat.position))
    paintings = (
        Painting("P1", 0.0),
        Painting("P2", 40.0),
        Painting("P3", -40.0),
        Painting("P4", 80.0),
        Painting("P5", -80.0),
        Painting("P6", 150.0),
        Painting("P7", -150.0),
    )
    situation_map = {
        "P1": ViewingSituation.CFOV,
        "P2": ViewingSituation.NPFOV,
        "P3": ViewingSituation.NPFOV,
        "P4": ViewingSituation.FPFOV,
        "P5": ViewingSituation.FPFOV,
        "P6": ViewingSituation.OFOV,
    }
    scenario = Scenario(
        robot_pose=robot,
        sensor_pose=sensor,
        camera_pose=camera,
        human_seat=seat,
        paintings=paintings,
        situation_map=situation_map,
    )
    errors = map_consistency_errors(scenario)
    if errors:  # pragma: no cover - layout is static
        raise AssertionError("; ".join(errors))
    return scenario
