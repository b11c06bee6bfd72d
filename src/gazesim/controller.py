"""Attention-capture state machine and head kinematics.

The robot escalates through head turn (HT), head shake (HS), and a short
spoken prompt (RT), watching for the person's face after each action.
Once the face is seen it either blinks for three seconds to acknowledge
the gaze or holds still for the same span, depending on the method under
test. The machine is advanced by one call per 30 fps tick and reports
what happened as a list of timestamped events.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from .situation import ViewingSituation

FRAME_RATE_HZ = 30.0
TICK_S = 1.0 / FRAME_RATE_HZ

PAN_MIN_DEG = -159.0
PAN_MAX_DEG = 159.0
TILT_MIN_DEG = -47.0
TILT_MAX_DEG = 31.0
TURN_SPEED_DEG_S = 120.0
SHAKE_SPEED_DEG_S = 240.0
SHAKE_HALF_SWING_DEG = 30.0

RESPONSE_WINDOW_S = 4.0
ENSURE_DWELL_S = 3.0
BLINK_PERIOD_S = 1.0
BLINK_COUNT = 3
UTTERANCE_TEXT = "excuse me"
UTTERANCE_DURATION_S = 1.0

FACE_TOLERANCE_DEG = 10.0

# Deadline comparisons tolerate one float ulp of clock error so a caller
# that accumulates the clock by repeated addition hits the same tick as one
# that multiplies the frame index by the tick length.
TIME_EPS_S = 1e-9


class RobotAction(enum.Enum):
    HT = "HT"
    HS = "HS"
    RT = "RT"
    BLINK = "Blink"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Method(enum.Enum):
    M1 = "M1"
    M2 = "M2"
    M3 = "M3"
    M4 = "M4"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def capture_plan(self) -> tuple[RobotAction, ...]:
        return _CAPTURE_PLANS[self]

    @property
    def ensure_blink(self) -> bool:
        return _ENSURE_BLINK[self]


_CAPTURE_PLANS = {
    Method.M1: (RobotAction.HT,),
    Method.M2: (RobotAction.HT, RobotAction.HS),
    Method.M3: (RobotAction.HT, RobotAction.HS, RobotAction.RT),
    Method.M4: (RobotAction.HT, RobotAction.HS, RobotAction.RT),
}
_ENSURE_BLINK = {
    Method.M1: True,
    Method.M2: True,
    Method.M3: False,
    Method.M4: True,
}

METHODS = (Method.M1, Method.M2, Method.M3, Method.M4)


class EventKind(enum.Enum):
    HEAD_TURN_START = "HeadTurnStart"
    HEAD_TURN_END = "HeadTurnEnd"
    HEAD_SHAKE_START = "HeadShakeStart"
    HEAD_SHAKE_END = "HeadShakeEnd"
    UTTERANCE = "Utterance"
    BLINK_PULSE = "BlinkPulse"
    FACE_DETECTED = "FaceDetected"
    WINDOW_EXPIRED = "WindowExpired"
    SUCCESS = "Success"
    FAILURE = "Failure"


@dataclass(frozen=True)
class RobotEvent:
    time_s: float
    kind: EventKind
    detail: str | None = None


class Phase(enum.Enum):
    OBSERVE = "Observe"
    RECOGNIZE = "Recognize"
    EXECUTE_ACTION = "ExecuteAction"
    AWAIT_RESPONSE = "AwaitResponse"
    ENSURE_ATTENTION = "EnsureAttention"
    SUCCESS = "Success"
    FAILURE = "Failure"


TERMINAL_PHASES = (Phase.SUCCESS, Phase.FAILURE)


@dataclass(frozen=True)
class ControllerInputs:
    confirmed: ViewingSituation | None = None
    face_detected: bool = False
    human_bearing_deg: float | None = None  # pan target, robot frame


@dataclass(frozen=True)
class ControllerState:
    method: Method
    phase: Phase = Phase.OBSERVE
    pan_deg: float = 0.0
    tilt_deg: float = 0.0
    plan_cursor: int = 0
    action: RobotAction | None = None
    # End of the current timed span: speech, response window or dwell.
    deadline_s: float | None = None
    window_start_s: float | None = None  # when the current window opened
    waypoints: tuple[float, ...] = ()  # pan targets the motion still has to reach
    blinks_remaining: int = 0
    next_blink_s: float | None = None

    @property
    def terminal(self) -> bool:
        return self.phase in TERMINAL_PHASES

    @property
    def succeeded(self) -> bool:
        return self.phase is Phase.SUCCESS

    @property
    def reads_sensors(self) -> bool:
        """Whether this tick reads the recognizer or the body bearing: every
        plan's one head turn begins in RECOGNIZE; later, faces alone count."""
        return self.phase in (Phase.OBSERVE, Phase.RECOGNIZE)

    @property
    def idle_until_s(self) -> float | None:
        """What this state waits for if no face comes first: the next blink,
        else the deadline. None while the head moves or sensors are read."""
        if self.waypoints or self.reads_sensors or self.terminal:
            return None
        return self.next_blink_s if self.blinks_remaining else self.deadline_s


def make_controller(method: Method) -> ControllerState:
    return ControllerState(method=method)


def clamp_pan(deg: float) -> float:
    return min(max(deg, PAN_MIN_DEG), PAN_MAX_DEG)


def _move_joint(current: float, target: float, speed_deg_s: float) -> float:
    """Rate-limited joint motion over one tick. Joint space does not wrap:
    going from -150 to +150 means sweeping through zero, not through the back."""
    step = speed_deg_s * TICK_S
    delta = target - current
    if abs(delta) <= step:
        return target
    return current + (step if delta > 0 else -step)


def _begin_action(
    state: ControllerState,
    inputs: ControllerInputs,
    clock_s: float,
    events: list[RobotEvent],
) -> ControllerState:
    action = state.method.capture_plan[state.plan_cursor]
    state = replace(state, phase=Phase.EXECUTE_ACTION, action=action)
    if action is RobotAction.HT:
        if inputs.human_bearing_deg is None:
            raise ValueError("head turn needs a bearing toward the person")
        events.append(RobotEvent(clock_s, EventKind.HEAD_TURN_START))
        return replace(state, waypoints=(clamp_pan(inputs.human_bearing_deg),))
    if action is RobotAction.HS:
        center = state.pan_deg
        events.append(RobotEvent(clock_s, EventKind.HEAD_SHAKE_START))
        return replace(
            state,
            waypoints=(
                clamp_pan(center + SHAKE_HALF_SWING_DEG),
                clamp_pan(center - SHAKE_HALF_SWING_DEG),
                center,
            ),
        )
    # RobotAction.RT, the plan's one other action
    events.append(RobotEvent(clock_s, EventKind.UTTERANCE, UTTERANCE_TEXT))
    return replace(state, deadline_s=clock_s + UTTERANCE_DURATION_S)


def _open_window(state: ControllerState, start_s: float) -> ControllerState:
    return replace(
        state,
        phase=Phase.AWAIT_RESPONSE,
        deadline_s=start_s + RESPONSE_WINDOW_S,
        window_start_s=start_s,
    )


def _execute_step(
    state: ControllerState, clock_s: float, events: list[RobotEvent]
) -> ControllerState:
    action = state.action
    if action is RobotAction.RT:
        assert state.deadline_s is not None
        if clock_s >= state.deadline_s - TIME_EPS_S:
            # Window timed from the end of speech, not from this tick.
            return _open_window(state, state.deadline_s)
        return state
    if action is RobotAction.HT:
        speed, end = TURN_SPEED_DEG_S, EventKind.HEAD_TURN_END
    else:  # RobotAction.HS
        speed, end = SHAKE_SPEED_DEG_S, EventKind.HEAD_SHAKE_END
    target, *rest = state.waypoints
    pan = _move_joint(state.pan_deg, target, speed)
    if pan != target:
        return replace(state, pan_deg=pan)
    state = replace(state, pan_deg=pan, waypoints=tuple(rest))
    if rest:
        return state
    events.append(RobotEvent(clock_s, end))
    return _open_window(state, clock_s)


def _await_step(
    state: ControllerState,
    inputs: ControllerInputs,
    clock_s: float,
    events: list[RobotEvent],
) -> ControllerState:
    if inputs.face_detected:
        events.append(RobotEvent(clock_s, EventKind.FACE_DETECTED))
        blinks = 0
        if state.method.ensure_blink:
            # First pulse lands with the detection, the rest at 1/s.
            events.append(RobotEvent(clock_s, EventKind.BLINK_PULSE))
            blinks = BLINK_COUNT - 1
        return replace(
            state,
            phase=Phase.ENSURE_ATTENTION,
            blinks_remaining=blinks,
            next_blink_s=clock_s + BLINK_PERIOD_S,
            deadline_s=clock_s + ENSURE_DWELL_S,
        )
    assert state.deadline_s is not None
    if clock_s >= state.deadline_s - TIME_EPS_S:
        events.append(RobotEvent(clock_s, EventKind.WINDOW_EXPIRED))
        cursor = state.plan_cursor + 1
        state = replace(state, plan_cursor=cursor, deadline_s=None, window_start_s=None)
        if cursor < len(state.method.capture_plan):
            return _begin_action(state, inputs, clock_s, events)
        events.append(RobotEvent(clock_s, EventKind.FAILURE))
        return replace(state, phase=Phase.FAILURE, action=None)
    return state


def _ensure_step(
    state: ControllerState,
    clock_s: float,
    events: list[RobotEvent],
) -> ControllerState:
    if state.blinks_remaining > 0:
        assert state.next_blink_s is not None
        if clock_s >= state.next_blink_s - TIME_EPS_S:
            events.append(RobotEvent(clock_s, EventKind.BLINK_PULSE))
            state = replace(
                state,
                blinks_remaining=state.blinks_remaining - 1,
                next_blink_s=state.next_blink_s + BLINK_PERIOD_S,
            )
    assert state.deadline_s is not None
    if state.blinks_remaining == 0 and clock_s >= state.deadline_s - TIME_EPS_S:
        events.append(RobotEvent(clock_s, EventKind.SUCCESS))
        return replace(state, phase=Phase.SUCCESS)
    return state


def controller_step(
    state: ControllerState, inputs: ControllerInputs, clock_s: float
) -> tuple[ControllerState, list[RobotEvent]]:
    """Advance the machine one tick of TICK_S. Returns the new state and the
    events emitted during this tick, in order, each stamped with the tick clock."""
    events: list[RobotEvent] = []
    if state.terminal:
        return state, events
    if state.phase is Phase.OBSERVE:
        if inputs.confirmed is not None:
            state = replace(state, phase=Phase.RECOGNIZE)
        return state, events
    if state.phase is Phase.RECOGNIZE:
        return _begin_action(state, inputs, clock_s, events), events
    if state.phase is Phase.EXECUTE_ACTION:
        return _execute_step(state, clock_s, events), events
    if state.phase is Phase.AWAIT_RESPONSE:
        return _await_step(state, inputs, clock_s, events), events
    # Phase.ENSURE_ATTENTION, the one phase left
    return _ensure_step(state, clock_s, events), events


def face_detected(gaze_bearing_deg: float) -> bool:
    """Geometric face-visibility test: the gaze points at the robot within
    FACE_TOLERANCE_DEG. The room keeps the seat inside camera range
    (`scenario.FACE_RANGE_M`)."""
    return abs(gaze_bearing_deg) <= FACE_TOLERANCE_DEG
