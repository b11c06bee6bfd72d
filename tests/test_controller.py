from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gazesim.controller import (
    BLINK_PERIOD_S,
    ENSURE_DWELL_S,
    PAN_MAX_DEG,
    PAN_MIN_DEG,
    RESPONSE_WINDOW_S,
    SHAKE_SPEED_DEG_S,
    TICK_S,
    TILT_MAX_DEG,
    TILT_MIN_DEG,
    TURN_SPEED_DEG_S,
    UTTERANCE_DURATION_S,
    ControllerInputs,
    ControllerState,
    EventKind,
    METHODS,
    Method,
    Phase,
    RobotAction,
    _move_joint,
    clamp_pan,
    controller_step,
    face_detected,
    make_controller,
)
from gazesim.situation import ViewingSituation

CFOV = ViewingSituation.CFOV
OFOV = ViewingSituation.OFOV


def drive(method, face_fn, bearing_deg=60.0, confirmed=CFOV, max_s=40.0):
    """Run the controller at 30 fps with scripted inputs.

    face_fn(t, events) decides face visibility from the clock and the
    events emitted so far, so tests can key responses off robot actions.
    Returns (events, pan_trace, final_state).
    """
    state = make_controller(method)
    events = []
    pans = []
    t = 0.0
    while t <= max_s and not state.terminal:
        inputs = ControllerInputs(
            confirmed=confirmed,
            face_detected=face_fn(t, events),
            human_bearing_deg=bearing_deg,
        )
        state, new_events = controller_step(state, inputs, t)
        events.extend(new_events)
        pans.append(state.pan_deg)
        t += TICK_S
    return events, np.array(pans), state


def times_of(events, kind):
    return [e.time_s for e in events if e.kind is kind]


def kinds(events):
    return [e.kind for e in events]


def after_event(kind, delay_s):
    def fn(t, events):
        hits = times_of(events, kind)
        return bool(hits) and t >= hits[0] + delay_s

    return fn


def never(t, events):
    return False


class TestPlans:
    def test_capture_plans(self):
        HT, HS, RT = RobotAction.HT, RobotAction.HS, RobotAction.RT
        assert Method.M1.capture_plan == (HT,) and Method.M1.ensure_blink
        assert Method.M2.capture_plan == (HT, HS) and Method.M2.ensure_blink
        assert Method.M3.capture_plan == (HT, HS, RT) and not Method.M3.ensure_blink
        assert Method.M4.capture_plan == (HT, HS, RT) and Method.M4.ensure_blink

    @pytest.mark.parametrize("method", list(Method))
    def test_every_plan_turns_the_head_first_and_only_then(self, method):
        plan = method.capture_plan
        assert plan[0] is RobotAction.HT
        assert RobotAction.HT not in plan[1:]

    @pytest.mark.parametrize("method", list(Method))
    @pytest.mark.parametrize(
        "face_fn",
        [
            never,
            after_event(EventKind.HEAD_TURN_END, 0.5),
            after_event(EventKind.HEAD_SHAKE_END, 1.0),
            after_event(EventKind.UTTERANCE, 2.0),
        ],
    )
    def test_sensor_inputs_are_unread_once_the_head_turn_begins(self, method, face_fn):
        """The premise of sensing only up to the head turn: from the tick
        after HeadTurnStart, neither the confirmed situation nor the bearing
        changes what the controller does."""
        sensed = drive(method, face_fn)
        state = make_controller(method)
        events, pans = [], []
        t = 0.0
        while t <= 40.0 and not state.terminal:
            turned = EventKind.HEAD_TURN_START in kinds(events)
            assert state.reads_sensors is not turned
            inputs = ControllerInputs(
                confirmed=None if turned else CFOV,
                face_detected=face_fn(t, events),
                human_bearing_deg=None if turned else 60.0,
            )
            state, new_events = controller_step(state, inputs, t)
            events.extend(new_events)
            pans.append(state.pan_deg)
            t += TICK_S
        assert events == sensed[0]
        assert pans == sensed[1].tolist()
        assert state == sensed[2]


class TestJointLimits:
    def test_clamps(self):
        assert clamp_pan(200.0) == PAN_MAX_DEG
        assert clamp_pan(-200.0) == PAN_MIN_DEG
        assert clamp_pan(100.0) == 100.0

    def test_head_motion_reaches_target_at_turn_speed(self):
        pan = 0.0
        for _ in range(15):  # 0.5 s
            pan = _move_joint(pan, 60.0, TURN_SPEED_DEG_S)
        assert pan == pytest.approx(60.0)

    def test_head_motion_partial_step(self):
        pan = _move_joint(0.0, 60.0, TURN_SPEED_DEG_S)
        assert pan == pytest.approx(120.0 * TICK_S)

    def test_shake_mode_is_faster(self):
        pan = _move_joint(0.0, 60.0, SHAKE_SPEED_DEG_S)
        assert pan == pytest.approx(240.0 * TICK_S)


class TestHappyPathM1:
    def test_event_order_and_timing(self):
        events, pans, state = drive(
            Method.M1, after_event(EventKind.HEAD_TURN_END, 1.2)
        )
        assert kinds(events) == [
            EventKind.HEAD_TURN_START,
            EventKind.HEAD_TURN_END,
            EventKind.FACE_DETECTED,
            EventKind.BLINK_PULSE,
            EventKind.BLINK_PULSE,
            EventKind.BLINK_PULSE,
            EventKind.SUCCESS,
        ]
        assert state.succeeded
        t_start = times_of(events, EventKind.HEAD_TURN_START)[0]
        t_end = times_of(events, EventKind.HEAD_TURN_END)[0]
        # 60 degrees at 120 deg/s.
        assert 0.5 - 1e-9 <= t_end - t_start <= 0.5 + 2 * TICK_S
        assert np.max(pans) == pytest.approx(60.0)

    def test_blink_cadence_starts_at_detection(self):
        events, _, _ = drive(Method.M1, after_event(EventKind.HEAD_TURN_END, 1.2))
        t_face = times_of(events, EventKind.FACE_DETECTED)[0]
        blinks = times_of(events, EventKind.BLINK_PULSE)
        assert blinks[0] == pytest.approx(t_face)
        assert blinks[1] - blinks[0] == pytest.approx(BLINK_PERIOD_S, abs=1e-9)
        assert blinks[2] - blinks[1] == pytest.approx(BLINK_PERIOD_S, abs=1e-9)

    def test_success_after_dwell(self):
        events, _, _ = drive(Method.M1, after_event(EventKind.HEAD_TURN_END, 1.2))
        t_face = times_of(events, EventKind.FACE_DETECTED)[0]
        t_success = times_of(events, EventKind.SUCCESS)[0]
        assert ENSURE_DWELL_S - 1e-9 <= t_success - t_face <= ENSURE_DWELL_S + 2 * TICK_S


class TestFailurePathM1:
    def test_no_response_fails_after_one_window(self):
        events, _, state = drive(Method.M1, never)
        assert kinds(events) == [
            EventKind.HEAD_TURN_START,
            EventKind.HEAD_TURN_END,
            EventKind.WINDOW_EXPIRED,
            EventKind.FAILURE,
        ]
        assert state.phase is Phase.FAILURE
        t_end = times_of(events, EventKind.HEAD_TURN_END)[0]
        t_exp = times_of(events, EventKind.WINDOW_EXPIRED)[0]
        assert RESPONSE_WINDOW_S - 1e-9 <= t_exp - t_end <= RESPONSE_WINDOW_S + 2 * TICK_S
        assert times_of(events, EventKind.FAILURE)[0] == t_exp


class TestEscalation:
    def test_m4_full_ladder_with_reply_to_utterance(self):
        events, _, state = drive(
            Method.M4, after_event(EventKind.UTTERANCE, 2.0), confirmed=OFOV
        )
        assert kinds(events) == [
            EventKind.HEAD_TURN_START,
            EventKind.HEAD_TURN_END,
            EventKind.WINDOW_EXPIRED,
            EventKind.HEAD_SHAKE_START,
            EventKind.HEAD_SHAKE_END,
            EventKind.WINDOW_EXPIRED,
            EventKind.UTTERANCE,
            EventKind.FACE_DETECTED,
            EventKind.BLINK_PULSE,
            EventKind.BLINK_PULSE,
            EventKind.BLINK_PULSE,
            EventKind.SUCCESS,
        ]
        assert state.succeeded
        t_utter = times_of(events, EventKind.UTTERANCE)[0]
        t_face = times_of(events, EventKind.FACE_DETECTED)[0]
        # The reply lands 2 s after the utterance starts, inside the window
        # that opens when the utterance ends.
        assert t_face >= t_utter + UTTERANCE_DURATION_S
        assert t_face <= t_utter + UTTERANCE_DURATION_S + RESPONSE_WINDOW_S

    def test_m2_reply_during_shake_window(self):
        events, _, state = drive(
            Method.M2, after_event(EventKind.HEAD_SHAKE_END, 1.0)
        )
        got = kinds(events)
        assert got == [
            EventKind.HEAD_TURN_START,
            EventKind.HEAD_TURN_END,
            EventKind.WINDOW_EXPIRED,
            EventKind.HEAD_SHAKE_START,
            EventKind.HEAD_SHAKE_END,
            EventKind.FACE_DETECTED,
            EventKind.BLINK_PULSE,
            EventKind.BLINK_PULSE,
            EventKind.BLINK_PULSE,
            EventKind.SUCCESS,
        ]
        assert state.succeeded

    def test_shake_duration(self):
        events, pans, _ = drive(Method.M2, never)
        t0 = times_of(events, EventKind.HEAD_SHAKE_START)[0]
        t1 = times_of(events, EventKind.HEAD_SHAKE_END)[0]
        # Three legs: +30, -60, +30 degrees at 240 deg/s, tick-quantized.
        assert 0.5 - 1e-9 <= t1 - t0 <= 0.5 + 4 * TICK_S
        assert np.max(pans) == pytest.approx(90.0)
        assert np.min(pans[pans > 0]) >= 0.0  # never undershoots the seat side

    def test_shake_swings_around_the_turn_target(self):
        _, pans, _ = drive(Method.M2, never, bearing_deg=-45.0)
        assert np.min(pans) == pytest.approx(-75.0)
        # Both swing extremes sit 30 deg to either side of the -45 center,
        # and the head parks back at the center when the plan runs out.
        assert np.isclose(pans, -15.0).any()
        assert pans[-1] == pytest.approx(-45.0)

    def test_m3_success_is_silent_hold(self):
        events, _, state = drive(
            Method.M3, after_event(EventKind.HEAD_TURN_END, 1.0), confirmed=OFOV
        )
        assert kinds(events) == [
            EventKind.HEAD_TURN_START,
            EventKind.HEAD_TURN_END,
            EventKind.FACE_DETECTED,
            EventKind.SUCCESS,
        ]
        assert state.succeeded
        t_face = times_of(events, EventKind.FACE_DETECTED)[0]
        t_succ = times_of(events, EventKind.SUCCESS)[0]
        assert ENSURE_DWELL_S - 1e-9 <= t_succ - t_face <= ENSURE_DWELL_S + 2 * TICK_S

    def test_m4_failure_exhausts_all_three_windows(self):
        events, _, state = drive(Method.M4, never, confirmed=OFOV)
        assert kinds(events) == [
            EventKind.HEAD_TURN_START,
            EventKind.HEAD_TURN_END,
            EventKind.WINDOW_EXPIRED,
            EventKind.HEAD_SHAKE_START,
            EventKind.HEAD_SHAKE_END,
            EventKind.WINDOW_EXPIRED,
            EventKind.UTTERANCE,
            EventKind.WINDOW_EXPIRED,
            EventKind.FAILURE,
        ]
        assert state.phase is Phase.FAILURE
        t_utter = times_of(events, EventKind.UTTERANCE)[0]
        t_exp = times_of(events, EventKind.WINDOW_EXPIRED)[-1]
        want = UTTERANCE_DURATION_S + RESPONSE_WINDOW_S
        assert want - 1e-9 <= t_exp - t_utter <= want + 2 * TICK_S


class TestGating:
    def test_waits_for_confirmation(self):
        state = make_controller(Method.M1)
        t = 0.0
        for _ in range(60):
            state, events = controller_step(
                state, ControllerInputs(confirmed=None, human_bearing_deg=10.0), t
            )
            assert state.phase is Phase.OBSERVE
            assert events == []
            t += TICK_S

    def test_head_turn_requires_bearing(self):
        state = make_controller(Method.M1)
        state, _ = controller_step(state, ControllerInputs(confirmed=CFOV), 0.0)
        with pytest.raises(ValueError):
            controller_step(state, ControllerInputs(confirmed=CFOV), TICK_S)

    def test_terminal_state_stays_terminal(self):
        events, _, state = drive(Method.M1, never)
        assert state.terminal
        nxt, more = controller_step(
            state,
            ControllerInputs(confirmed=CFOV, face_detected=True, human_bearing_deg=0.0),
            100.0,
        )
        assert nxt is state
        assert more == []

    def test_face_before_window_means_instant_detection(self):
        events, _, state = drive(Method.M1, lambda t, e: True)
        t_end = times_of(events, EventKind.HEAD_TURN_END)[0]
        t_face = times_of(events, EventKind.FACE_DETECTED)[0]
        # The await phase polls on the tick after the window opens.
        assert 0.0 <= t_face - t_end <= 2 * TICK_S
        assert state.succeeded


class TestIdleUntil:
    """`idle_until_s`, the instant a state waits for when only a face could
    change it sooner; None when the next tick may change it anyway."""

    def test_a_moving_head_shake_is_never_idle(self):
        state = ControllerState(
            Method.M2,
            phase=Phase.EXECUTE_ACTION,
            pan_deg=75.0,
            action=RobotAction.HS,
            waypoints=(30.0, 60.0),
        )
        assert state.idle_until_s is None

    def test_ensure_with_blinks_left_waits_for_the_next_blink(self):
        state = ControllerState(
            Method.M1,
            phase=Phase.ENSURE_ATTENTION,
            blinks_remaining=2,
            next_blink_s=6.0,
            deadline_s=8.0,
        )
        assert state.idle_until_s == 6.0
        # No blink left, or none to give (M3 holds still): the dwell's end.
        assert replace(state, blinks_remaining=0, next_blink_s=8.0).idle_until_s == 8.0
        assert replace(state, method=Method.M3, blinks_remaining=0).idle_until_s == 8.0

    def test_speech_and_open_windows_wait_for_their_deadline(self):
        speech = ControllerState(
            Method.M4, phase=Phase.EXECUTE_ACTION, action=RobotAction.RT, deadline_s=9.5
        )
        assert speech.idle_until_s == 9.5
        window = replace(speech, phase=Phase.AWAIT_RESPONSE, deadline_s=13.5)
        assert window.idle_until_s == 13.5

    @pytest.mark.parametrize(
        "phase", [Phase.OBSERVE, Phase.RECOGNIZE, Phase.SUCCESS, Phase.FAILURE]
    )
    def test_sensing_and_terminal_states_are_never_idle(self, phase):
        state = ControllerState(Method.M4, phase=phase, deadline_s=4.0)
        assert state.idle_until_s is None

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize(
        "face_fn",
        [
            never,
            after_event(EventKind.HEAD_TURN_END, 0.5),
            after_event(EventKind.HEAD_SHAKE_END, 1.0),
            after_event(EventKind.UTTERANCE, 2.0),
        ],
    )
    def test_only_a_face_changes_an_idle_state_before_its_instant(self, method, face_fn):
        """Every idle state a run visits: a tick before its instant without a
        face changes nothing (in EnsureAttention, nor one with a face), and a
        tick on the instant moves it on."""
        state = make_controller(method)
        events = []
        t, idle = 0.0, 0
        while t <= 40.0 and not state.terminal:
            wake = state.idle_until_s
            if wake is not None:
                idle += 1
                before = wake - TICK_S
                assert controller_step(state, ControllerInputs(), before) == (state, [])
                if state.phase is Phase.ENSURE_ATTENTION:
                    face = ControllerInputs(face_detected=True)
                    assert controller_step(state, face, before) == (state, [])
                assert controller_step(state, ControllerInputs(), wake) != (state, [])
            inputs = ControllerInputs(
                confirmed=CFOV, face_detected=face_fn(t, events), human_bearing_deg=60.0
            )
            state, new_events = controller_step(state, inputs, t)
            events.extend(new_events)
            t += TICK_S
        assert idle > 0


class TestClampedTargets:
    def test_pan_saturates_at_the_stop(self):
        events, pans, state = drive(Method.M1, never, bearing_deg=170.0)
        assert np.max(pans) == PAN_MAX_DEG
        assert EventKind.HEAD_TURN_END in kinds(events)


class TestFaceDetected:
    def test_geometry_gate(self):
        # Range belongs to the room: Scenario rejects a seat beyond FACE_RANGE_M.
        assert face_detected(0.0)
        assert face_detected(10.0)
        assert not face_detected(10.1)
        assert not face_detected(-25.0)


@settings(max_examples=60, deadline=None)
@given(
    method=st.sampled_from(list(Method)),
    bearing=st.floats(min_value=-200.0, max_value=200.0),
    seed=st.integers(min_value=0, max_value=2**31),
    p_face=st.floats(min_value=0.0, max_value=0.3),
)
def test_fuzzed_runs_respect_invariants(method, bearing, seed, p_face):
    rng = np.random.default_rng(seed)
    face_bits = rng.random(40 * 30) < p_face
    state = make_controller(method)
    events = []
    t = 0.0
    for k in range(len(face_bits)):
        if state.terminal:
            break
        inputs = ControllerInputs(
            confirmed=CFOV, face_detected=bool(face_bits[k]), human_bearing_deg=bearing
        )
        state, new_events = controller_step(state, inputs, t)
        events.extend(new_events)
        assert PAN_MIN_DEG <= state.pan_deg <= PAN_MAX_DEG
        assert TILT_MIN_DEG <= state.tilt_deg <= TILT_MAX_DEG
        t += TICK_S
    terminal_events = [
        e for e in events if e.kind in (EventKind.SUCCESS, EventKind.FAILURE)
    ]
    assert len(terminal_events) <= 1
    assert state.terminal == (len(terminal_events) == 1)
    times = [e.time_s for e in events]
    assert times == sorted(times)
    blinks = len(times_of(events, EventKind.BLINK_PULSE))
    if state.succeeded and method.ensure_blink:
        assert blinks == 3
    else:
        assert blinks == 0
