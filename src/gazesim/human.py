"""Simulated gallery visitor.

The person sits on a fixed chair examining paintings, turning head and
body toward whatever they attend to. Robot prompts succeed with a
probability that depends on the prompt and on where the robot sits in
the visitor's field of view; a successful prompt makes the person look
at the robot for a stochastic gaze span and then return to the painting.
The per-prompt probabilities are recovered from measured per-method
success rates by inverting the escalation structure: a later prompt is
only reached when every earlier one failed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .controller import TICK_S, Method, RobotAction
from .geometry import HeadPose, Pose2, bearing_to, move_toward_angle, normalize_angle
from .scenario import Scenario
from .seeding import PCG64Streams, derive_rng
from .situation import SITUATIONS, ViewingSituation

HEAD_TURN_SPEED_DEG_S = 90.0
BODY_TURN_SPEED_DEG_S = 60.0
LATENCY_MIN_S = 0.5
LATENCY_MAX_S = 3.5
GAZE_MIN_S = 0.1
GAZE_MEAN_BLINK_S = 2.51
GAZE_VAR_BLINK = 0.13
GAZE_MEAN_PLAIN_S = 1.10
GAZE_VAR_PLAIN = 0.01

ROBOT_TARGET = "robot"

# Measured cumulative success rates the response model is calibrated to
# reproduce, per method and viewing situation (CFOV, NPFOV, FPFOV, OFOV).
REFERENCE_SUCCESS_RATES: dict[Method, dict[ViewingSituation, float]] = {
    Method.M1: {
        ViewingSituation.CFOV: 0.92,
        ViewingSituation.NPFOV: 0.84,
        ViewingSituation.FPFOV: 0.08,
        ViewingSituation.OFOV: 0.08,
    },
    Method.M2: {
        ViewingSituation.CFOV: 1.00,
        ViewingSituation.NPFOV: 0.92,
        ViewingSituation.FPFOV: 0.84,
        ViewingSituation.OFOV: 0.16,
    },
    Method.M3: {
        ViewingSituation.CFOV: 1.00,
        ViewingSituation.NPFOV: 0.92,
        ViewingSituation.FPFOV: 0.92,
        ViewingSituation.OFOV: 0.92,
    },
    Method.M4: {
        ViewingSituation.CFOV: 1.00,
        ViewingSituation.NPFOV: 0.92,
        ViewingSituation.FPFOV: 0.92,
        ViewingSituation.OFOV: 0.92,
    },
}

CAPTURE_ACTIONS = (RobotAction.HT, RobotAction.HS, RobotAction.RT)


@cache
def derive_response_table() -> dict[RobotAction, dict[ViewingSituation, float]]:
    """Invert REFERENCE_SUCCESS_RATES, cumulative per-method success, into
    per-prompt probabilities, indexed action then situation. Computed once;
    every caller shares the table.

    With prompts tried in order and independently, the method reaching
    prompt k succeeds with rate 1 - prod(1 - p_i, i <= k), so each p is
    recovered by telescoping: p_k = (S_k - S_{k-1}) / (1 - S_{k-1}).
    A stage whose predecessor already saturates (S = 1) is unreachable;
    its probability is pinned at 1 so the forward model stays exact.
    """
    cumulative = REFERENCE_SUCCESS_RATES
    p_ht: dict[ViewingSituation, float] = {}
    p_hs: dict[ViewingSituation, float] = {}
    p_rt: dict[ViewingSituation, float] = {}
    for situation in SITUATIONS:
        m1 = cumulative[Method.M1][situation]
        m2 = cumulative[Method.M2][situation]
        m3 = cumulative[Method.M3][situation]
        p_ht[situation] = m1
        p_hs[situation] = 1.0 if m1 >= 1.0 else _clamp01((m2 - m1) / (1.0 - m1))
        p_rt[situation] = 1.0 if m2 >= 1.0 else _clamp01((m3 - m2) / (1.0 - m2))
    return {RobotAction.HT: p_ht, RobotAction.HS: p_hs, RobotAction.RT: p_rt}


def _clamp01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def escalation_success(method: Method, situation: ViewingSituation) -> float:
    """Forward model: probability that any prompt in the method's plan lands."""
    table = derive_response_table()
    miss = 1.0
    for action in method.capture_plan:
        miss *= 1.0 - table[action][situation]
    return 1.0 - miss


def respond(
    action: RobotAction, situation: ViewingSituation, seed: int
) -> tuple[bool, float | None]:
    """One response decision: does the person react to this prompt, and if
    so, how long until their eyes land on the robot. The latency draw is
    bounded so a positive decision always fits the response window."""
    if action not in CAPTURE_ACTIONS:
        raise ValueError(f"{action} is not a prompt the person reacts to")
    rng = derive_rng(seed)
    responds = bool(rng.random() < derive_response_table()[action][situation])
    if not responds:
        return False, None
    return True, float(rng.uniform(LATENCY_MIN_S, LATENCY_MAX_S))


def _gaze_normal(blinked: bool) -> tuple[float, float]:
    """Mean and standard deviation of the untruncated gaze span."""
    if blinked:
        return GAZE_MEAN_BLINK_S, math.sqrt(GAZE_VAR_BLINK)
    return GAZE_MEAN_PLAIN_S, math.sqrt(GAZE_VAR_PLAIN)


def gaze_duration(blinked: bool, seed: int) -> float:
    """How long the person keeps looking at the robot after gaze crossing."""
    mean, sd = _gaze_normal(blinked)
    rng = derive_rng(seed)
    while True:
        draw = float(rng.normal(mean, sd))
        if draw > GAZE_MIN_S:
            return draw


def gaze_durations(blinked: bool, streams: PCG64Streams) -> np.ndarray:
    """`gaze_duration` on every stream at once: streams whose draw is at
    or below GAZE_MIN_S draw again, and only they, until none is."""
    mean, sd = _gaze_normal(blinked)
    gaze = streams.normal(mean, sd)
    redo = np.flatnonzero(gaze <= GAZE_MIN_S)
    while len(redo):
        again = streams.take(redo)
        gaze[redo] = again.normal(mean, sd)
        streams.hi[redo], streams.lo[redo] = again.hi, again.lo
        redo = redo[gaze[redo] <= GAZE_MIN_S]
    return gaze


@dataclass
class HumanState:
    """Tick-level visitor state. World-frame angles, trial-local."""

    seat: Pose2
    head_yaw_deg: float
    head_pitch_deg: float
    body_theta_deg: float
    attending: str  # painting id or ROBOT_TARGET
    prior_painting: str
    pending_fire_s: float | None = None
    pending_gaze_s: float | None = None
    gaze_until_s: float | None = None

    @property
    def head(self) -> HeadPose:
        return HeadPose(
            self.seat.x,
            self.seat.y,
            yaw_deg=self.head_yaw_deg,
            pitch_deg=self.head_pitch_deg,
        )


def make_human(scenario: Scenario, painting_id: str) -> HumanState:
    """Visitor freshly seated, facing the robot, about to examine a painting."""
    scenario.painting(painting_id)  # validates the id
    seat = scenario.human_seat
    return HumanState(
        seat=seat,
        head_yaw_deg=seat.heading_deg,
        head_pitch_deg=0.0,
        body_theta_deg=seat.heading_deg,
        attending=painting_id,
        prior_painting=painting_id,
    )


def schedule_response(
    state: HumanState, fire_at_s: float, gaze_duration_s: float
) -> None:
    """Commit the visitor to looking at the robot, starting at fire_at_s."""
    state.pending_fire_s = fire_at_s
    state.pending_gaze_s = gaze_duration_s


def gaze_bearing_to(state: HumanState, point: tuple[float, float]) -> float:
    """Angle between the visitor's gaze and the direction to a point."""
    aim = bearing_to((state.seat.x, state.seat.y), point)
    return normalize_angle(state.head_yaw_deg - aim)


def _target_angles(state: HumanState, scenario: Scenario) -> tuple[float, float]:
    if state.attending == ROBOT_TARGET:
        yaw = bearing_to(
            (state.seat.x, state.seat.y), scenario.robot_pose.position
        )
        return yaw, 0.0
    painting = scenario.painting(state.attending)
    return scenario.painting_world_yaw(painting), scenario.painting_pitch_deg


def idle_until_s(state: HumanState, scenario: Scenario) -> float | None:
    """When `human_step` next changes a visitor at rest on a painting: their
    pending response, else inf. None while they turn or attend the robot."""
    if state.attending == ROBOT_TARGET:
        return None
    yaw, pitch = map(normalize_angle, _target_angles(state, scenario))
    if (state.head_yaw_deg, state.head_pitch_deg, state.body_theta_deg) != (yaw, pitch, yaw):
        return None
    return math.inf if state.pending_fire_s is None else state.pending_fire_s


def human_step(state: HumanState, scenario: Scenario, clock_s: float) -> HumanState:
    """Advance the visitor one tick of TICK_S: fire a pending response, servo
    head and body toward the attended target, start and expire gaze spans."""
    if state.pending_fire_s is not None and clock_s >= state.pending_fire_s:
        state.prior_painting = (
            state.attending if state.attending != ROBOT_TARGET else state.prior_painting
        )
        state.attending = ROBOT_TARGET
        state.pending_fire_s = None
    target_yaw, target_pitch = _target_angles(state, scenario)
    state.head_yaw_deg = move_toward_angle(
        state.head_yaw_deg, target_yaw, HEAD_TURN_SPEED_DEG_S * TICK_S
    )
    state.head_pitch_deg = move_toward_angle(
        state.head_pitch_deg, target_pitch, HEAD_TURN_SPEED_DEG_S * TICK_S
    )
    state.body_theta_deg = move_toward_angle(
        state.body_theta_deg, target_yaw, BODY_TURN_SPEED_DEG_S * TICK_S
    )
    if state.attending == ROBOT_TARGET:
        if (
            state.gaze_until_s is None
            and state.pending_gaze_s is not None
            and state.head_yaw_deg == target_yaw
        ):
            state.gaze_until_s = clock_s + state.pending_gaze_s
            state.pending_gaze_s = None
        elif state.gaze_until_s is not None and clock_s >= state.gaze_until_s:
            state.attending = state.prior_painting
            state.gaze_until_s = None
    return state
