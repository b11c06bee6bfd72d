"""Simulated gallery visitor.

The person sits on a fixed chair examining paintings, turning head and
body toward whatever they attend to. Robot prompts succeed with a
probability that depends on the prompt and on where the robot sits in
the visitor's field of view; a successful prompt makes the person look
at the robot for a stochastic gaze span and then return to the painting.
The per-prompt probabilities are recovered from measured per-method
success rates by inverting the escalation structure: a later prompt is
only reached when every earlier one failed. `draw_answers` draws every
trial's answer for all three fidelity modes, over arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .controller import METHODS, TICK_S, Method, RobotAction
from .geometry import HeadPose, Pose2, bearing_to, move_toward_angle, normalize_angle
from .scenario import Scenario
from .seeding import (
    STREAM_GAZE, STREAM_RESPOND, PCG64Streams, derive_rng, derive_rngs, derive_seeds,
)
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

    Method k's plan ends with prompt k, so with prompts tried in order and
    independently it succeeds with S_k = 1 - prod(1 - p_i, i <= k), and each
    p is recovered by telescoping: p_k = (S_k - S_{k-1}) / (1 - S_{k-1}),
    S_{-1} = 0, clamped to [0, 1]. A stage whose predecessor already saturates
    (S = 1) is unreachable; it is pinned at 1 so the forward model stays exact.
    """
    table, earlier = {}, dict.fromkeys(SITUATIONS, 0.0)
    for action, method in zip(CAPTURE_ACTIONS, METHODS):
        rates = REFERENCE_SUCCESS_RATES[method]
        table[action] = {s: 1.0 if earlier[s] >= 1.0 else
                         min(max((rates[s] - earlier[s]) / (1.0 - earlier[s]), 0.0), 1.0)
                         for s in SITUATIONS}
        earlier = rates
    return table


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
    """The scalar reference of one `draw_answers` decision: does the
    person react to this prompt, and if so, how long until their eyes land
    on the robot, a draw bounded so it always fits the response window."""
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
    """The gaze span after gaze crossing: the scalar reference of `gaze_durations`."""
    mean, sd = _gaze_normal(blinked)
    rng = derive_rng(seed)
    while True:
        draw = float(rng.normal(mean, sd))
        if draw > GAZE_MIN_S:
            return draw


def gaze_durations(blinked: bool | np.ndarray, streams: PCG64Streams) -> np.ndarray:
    """`gaze_duration` on every stream at once, blinked or not (one flag or one
    per stream): streams whose draw is at or below GAZE_MIN_S draw again, and
    only they, until none is. `mean + sd * z` is `normal(mean, sd)`'s own sum."""
    normals = np.array([_gaze_normal(True), _gaze_normal(False)])[:, :, None]
    mean, sd = np.where(np.broadcast_to(blinked, streams.hi.shape), *normals)
    gaze = mean + sd * streams.normal(0.0, 1.0)
    redo = np.flatnonzero(gaze <= GAZE_MIN_S)
    while len(redo):
        again = streams.take(redo)
        gaze[redo] = mean[redo] + sd[redo] * again.normal(0.0, 1.0)
        streams.hi[redo], streams.lo[redo] = again.hi, again.lo
        redo = redo[gaze[redo] <= GAZE_MIN_S]
    return gaze


@cache
def _response_table() -> np.ndarray:
    """Column METHODS index * 4 + SITUATIONS index: each prompt's response probability
    (NaN past the plan), then whether the method blinks (the gaze span's normal)."""
    table, plans = derive_response_table(), [m.capture_plan for m in METHODS]
    pad = [math.nan] * max(map(len, plans))
    return np.array([([table[a][s] for a in plan] + pad)[:len(pad)] + [m.ensure_blink]
                     for m, plan in zip(METHODS, plans) for s in SITUATIONS]).T.copy()


def draw_answers(seeds: np.ndarray, methods: np.ndarray | int, situations: np.ndarray | int,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each trial's answer from its seed and METHODS and SITUATIONS indexes, by
    the draws of `respond` and `gaze_duration` over arrays: the prompt it answers
    (-1 for none), the latency drawn there and the gaze span (NaN for none)."""
    n = len(seeds)
    cursor = np.full(n, -1)
    latency_s, gaze_s = np.full((2, n), math.nan)
    pending = np.arange(n)
    *probs, blinks = _response_table()
    cell = np.broadcast_to(np.asarray(methods) * len(SITUATIONS) + situations, n)
    for k, prob in enumerate(probs):
        pending = pending[~np.isnan(prob[cell[pending]])]  # NaN: past the cell's plan
        if not len(pending):
            break
        rngs = derive_rngs(derive_seeds(seeds[pending], STREAM_RESPOND, k))
        ok = rngs.random() < prob[cell[pending]]
        latency_s[pending[ok]] = rngs.uniform(LATENCY_MIN_S, LATENCY_MAX_S)[ok]
        cursor[pending[ok]] = k
        pending = pending[~ok]
    hit = np.flatnonzero(cursor >= 0)
    if len(hit):
        streams = derive_rngs(derive_seeds(seeds[hit], STREAM_GAZE))
        gaze_s[hit] = gaze_durations(blinks[cell[hit]] > 0, streams)
    return cursor, latency_s, gaze_s


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
