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
from dataclasses import dataclass, replace

from .controller import FACE_RANGE_M
from .geometry import Pose2, bearing_to, normalize_angle
from .head_tracker import DEFAULT_NOISE_SIGMA_DEG, HeadObservation, TRACKING_LIMIT_DEG
from .situation import ViewingSituation, classify_instant

SEAT_DISTANCE_M = 2.0
# A settled head angle this close to a band edge is pushed across it by the
# head camera's noise often enough that the persistence streak never fills.
NOISE_MARGIN_DEG = 3 * DEFAULT_NOISE_SIGMA_DEG


class RoomError(ValueError):
    """A room that cannot be run. `errors` holds one "<key path>: <reason>"
    per broken rule, the key path relative to the `Scenario`."""

    def __init__(self, *errors: str) -> None:
        super().__init__("; ".join(errors))
        self.errors = errors


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
        """Every rule a runnable room keeps; a broken one raises RoomError."""
        ids = [p.painting_id for p in self.paintings]
        if len(self.paintings) != 7:
            raise RoomError(f"paintings: expected 7 paintings, got {len(self.paintings)}")
        if len(set(ids)) != len(ids):
            raise RoomError("paintings: painting ids must be unique")
        unknown = sorted(set(self.situation_map) - set(ids))
        if unknown:
            raise RoomError(*(f"situation_map.{pid}: no such painting" for pid in unknown))
        if not (self.body_semi_major_m >= self.body_semi_minor_m > 0):
            raise RoomError(
                "body_semi_minor_m: require body_semi_major_m >= body_semi_minor_m > 0"
            )
        # The body turns on the seat, so any point this close can end up inside it.
        reach = self.body_semi_major_m
        seat = self.human_seat.position
        for key in ("sensor_pose", "camera_pose"):
            if getattr(self, key).distance_to(seat) <= reach:
                raise RoomError(
                    f"{key}: lies within body_semi_major_m ({reach} m) of "
                    "human_seat, inside the visitor's body"
                )
        # Beyond this range the robot never detects the visitor's face.
        if self.robot_pose.distance_to(seat) > FACE_RANGE_M:
            raise RoomError(
                "human_seat: lies more than the face detection range "
                f"({FACE_RANGE_M} m) from robot_pose, too far to detect a face"
            )
        # A painting the recognizer cannot confirm would abort its cells mid-run.
        errors = _map_consistency_errors(self)
        if errors:
            raise RoomError(*(f"situation_map.{e}" for e in errors))

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


def _settled_view(scenario: Scenario, painting: Painting) -> tuple[HeadObservation, float]:
    """What the recognizer sees of a viewer settled on a painting, noise-free:
    the head relative to the camera and the body orientation relative to the
    robot."""
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
    return obs, normalize_angle(yaw - to_robot)


def settled_instant(scenario: Scenario, painting: Painting) -> ViewingSituation | None:
    """Instantaneous label for a viewer settled on a painting, noise-free.

    Runs the same geometry the live pipeline uses: head yaw relative to
    the camera for the field-of-view bands, body orientation relative to
    the robot for the out-of-view rule.
    """
    return classify_instant(*_settled_view(scenario, painting))


def _map_consistency_errors(scenario: Scenario) -> list[str]:
    """Check that every mapped painting classifies to its mapped situation,
    and still does with its settled head yaw or pitch moved by
    NOISE_MARGIN_DEG either way. Each error starts with the painting id and
    a colon."""
    m = NOISE_MARGIN_DEG
    errors = []
    for p in scenario.paintings:
        expected = scenario.situation_map.get(p.painting_id)
        if expected is None:
            continue
        got = settled_instant(scenario, p)
        head, theta_rel = _settled_view(scenario, p)
        if got is not expected:
            errors.append(
                f"{p.painting_id}: bearing {p.bearing_deg:+.1f} deg classifies as "
                f"{got.value if got else 'unknown'}, but the map says {expected.value}"
            )
        elif head.valid and any(
            classify_instant(
                replace(head, yaw_deg=head.yaw_deg + dy, pitch_deg=head.pitch_deg + dp),
                theta_rel,
            )
            is not expected
            for dy, dp in ((m, 0.0), (-m, 0.0), (0.0, m), (0.0, -m))
        ):
            errors.append(
                f"{p.painting_id}: settled head yaw {head.yaw_deg:+.1f} deg, pitch "
                f"{head.pitch_deg:+.1f} deg lies within {m:g} deg of a band edge, "
                f"so head camera noise keeps {expected.value} from persisting"
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
    return Scenario(
        robot_pose=robot,
        sensor_pose=sensor,
        camera_pose=camera,
        human_seat=seat,
        paintings=paintings,
        situation_map=situation_map,
    )
