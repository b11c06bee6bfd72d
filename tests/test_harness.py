import collections
import dataclasses
import io
import itertools
import math
import pickle
from unittest import mock

import hypothesis
import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from gazesim import controller, harness
from gazesim.config import ConfigError, RunConfig, scenario_from_dict, scenario_to_dict
from gazesim.controller import (
    FACE_TOLERANCE_DEG,
    METHODS,
    TICK_S,
    EventKind,
    Method,
    RobotAction,
    RobotEvent,
)
from gazesim.harness import (
    RESULTS_CSV_HEADER,
    TrialAbortError,
    TrialRecord,
    read_records_csv,
    run_experiment,
    run_trial,
    run_trial_detailed,
    trial_seeds,
    write_records_csv,
)
from gazesim.human import (
    HEAD_TURN_SPEED_DEG_S, draw_answers, gaze_bearing_to, gaze_duration, respond,
)
from gazesim.geometry import HeadPose, Pose2, bearing_to, normalize_angle
from gazesim.head_tracker import NOISE_SIGMA_DEG, observe_head, relative_yaw_deg
from gazesim.records import Records
from gazesim.scenario import default_scenario
from gazesim.seeding import (
    STREAM_FILTER,
    STREAM_GAZE,
    STREAM_HEAD,
    STREAM_LASER,
    STREAM_RESPOND,
    derive_rng,
    derive_seed,
)
from gazesim.situation import SITUATIONS, SrmState, ViewingSituation, classify_instant, srm_update
from gazesim.trace import TraceWriter
from oracles import record_ticks, trial_seed

# These hang off the drawn face instant, off the tick grid. The event engine
# has `controller_step` stamp them too, stepped from the responding window.
VISITOR_DRIVEN_EVENTS = (EventKind.FACE_DETECTED, EventKind.BLINK_PULSE, EventKind.SUCCESS)

CFOV = ViewingSituation.CFOV
NPFOV = ViewingSituation.NPFOV
FPFOV = ViewingSituation.FPFOV
OFOV = ViewingSituation.OFOV

SC = default_scenario()


def swing_room():
    """A room whose camera stands 1.5 m from the seat, 20 deg left of the
    seat heading. Turning to P2 at +40 deg, the head passes through the
    central band around the camera before it settles near-peripheral."""
    seat = SC.human_seat
    heading = math.radians(seat.heading_deg + 20.0)
    x, y = seat.x + 1.5 * math.cos(heading), seat.y + 1.5 * math.sin(heading)
    camera = Pose2(x, y, bearing_to((x, y), seat.position))
    situation_map = {"P2": NPFOV, "P3": NPFOV, "P4": NPFOV, "P6": OFOV}
    return dataclasses.replace(SC, camera_pose=camera, situation_map=situation_map)


def room_170():
    """The default room with the robot turned to face the seat and P6, the
    OFOV painting, moved to 170 deg. The head turn takes one tick, so the
    first window opens at about 2.53 s, while the visitor's body turns to P6
    until 2.83 s."""
    room = scenario_to_dict(SC)
    room["robot_pose"] = [0.0, 0.0, 60.0]
    room["paintings"][5] = {"id": "P6", "bearing_deg": 170.0}
    return scenario_from_dict(room)


def turning_room():
    """room_170 with the seat turned 60 deg off the robot and P6 at 179 deg,
    the one painting mapped (OFOV). The body is 90 deg off the robot after
    a 30 deg turn, so the recognizer confirms and the first window opens on
    frame 46, while the head still turns to P6 until frame 59."""
    room = scenario_to_dict(room_170())
    room["human_seat"][2] += 60.0
    room["paintings"][5] = {"id": "P6", "bearing_deg": 179.0}
    room["situation_map"] = {"P6": "OFOV"}
    return scenario_from_dict(room)


ROOMS = [(SC, SITUATIONS), (swing_room(), (NPFOV, OFOV)), (room_170(), SITUATIONS)]


class TestTrialRecordInvariants:
    def test_responded_requires_all_outcome_fields(self):
        with pytest.raises(ValueError):
            TrialRecord(0, Method.M1, CFOV, True, RobotAction.HT, 1.0, None, 42)
        with pytest.raises(ValueError):
            TrialRecord(0, Method.M1, CFOV, True, None, 1.0, 2.0, 42)

    def test_failed_requires_empty_outcome_fields(self):
        with pytest.raises(ValueError):
            TrialRecord(0, Method.M1, CFOV, False, RobotAction.HT, None, None, 42)
        TrialRecord(0, Method.M1, CFOV, False, None, None, None, 42)


    def test_pickles_and_converts_to_a_dict(self):
        record = TrialRecord(3, Method.M4, OFOV, True, RobotAction.RT, 1.25, 2.5, 2**64 - 1)
        assert pickle.loads(pickle.dumps(record)) == record
        assert dataclasses.asdict(record)["seed"] == 2**64 - 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.seed = 0


class TestSeedDiscipline:
    def test_trial_seed_depends_on_all_inputs(self):
        base = trial_seed(42, Method.M1, CFOV, 0)
        assert base == trial_seed(42, Method.M1, CFOV, 0)
        assert base != trial_seed(42, Method.M2, CFOV, 0)
        assert base != trial_seed(42, Method.M1, NPFOV, 0)
        assert base != trial_seed(42, Method.M1, CFOV, 1)
        assert base != trial_seed(43, Method.M1, CFOV, 0)

    def test_trial_identifier_layout(self):
        # Method-major over the full design, so a subset run keeps each id.
        n = 10

        def trial_id(records, method, situation, rep):
            seed = int(trial_seeds(42, method, situation, n)[rep])
            [row] = [r for r in records
                     if (r.method, r.situation, r.seed) == (method, situation, seed)]
            return row.trial_id

        full = run_experiment(RunConfig(n_per_cell=n, base_seed=42))
        assert trial_id(full, Method.M1, CFOV, 0) == 0
        assert trial_id(full, Method.M1, NPFOV, 0) == 10
        assert trial_id(full, Method.M2, CFOV, 3) == 43
        assert trial_id(full, Method.M4, OFOV, 9) == 159
        subset = RunConfig(n_per_cell=n, base_seed=42, methods=(Method.M2,), situations=(CFOV,))
        assert trial_id(run_experiment(subset), Method.M2, CFOV, 3) == 43


def scalar_outcome(method, situation, seed):
    """One trial's answer drawn decision by decision with the scalar
    reference draws, `respond` and `gaze_duration`: the prompt it answers
    (-1 for none), the latency drawn there and the gaze span."""
    for k, action in enumerate(method.capture_plan):
        ok, latency = respond(action, situation, derive_seed(seed, STREAM_RESPOND, k))
        if ok:
            return k, latency, gaze_duration(method.ensure_blink, derive_seed(seed, STREAM_GAZE))
    return -1, math.nan, math.nan


def nan_free(rows):
    """Answer rows with NaN, which marks a trial without response, as None."""
    return [tuple(None if v != v else v for v in row) for row in rows]


def count_drawn_rows(monkeypatch):
    """The row count of each `draw_answers` call from here on, in call order."""
    rows = []

    def counted(seeds, *axes):
        rows.append(len(seeds))
        return draw_answers(seeds, *axes)

    monkeypatch.setattr(harness, "draw_answers", counted)
    return rows


SeedlessRun = collections.namedtuple("SeedlessRun", "events windows")


def seedless_run(room, method, situation):
    """The cell's noise-free seedless run, as event mode has it: no head
    noise and no response, so the controller runs on to Failure. Its events,
    and the `_Window` of each response window it opened."""
    confirm = int(harness._confirm_frames(room, situation, None)[0])
    run = harness._run_ticks(room, method, situation, None, "ideal", None, None, confirm)
    return SeedlessRun(run[0].events, run[1])


def face_gate_s(cell, k, latency_s):
    """When the face gate opens on an answer to the cell's prompt k: the eyes
    land on the robot latency_s after the window opens, or once the head has
    turned, and the gate opens FACE_TOLERANCE_DEG before they land."""
    window = cell.windows[k]
    b0 = abs(gaze_bearing_to(window.visitor, SC.robot_pose.position))
    turn_s = b0 / HEAD_TURN_SPEED_DEG_S
    arrival_s = window.controller.window_start_s + max(latency_s, turn_s)
    return arrival_s - min(b0, FACE_TOLERANCE_DEG) / HEAD_TURN_SPEED_DEG_S


class TestEventEngine:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("situation", SITUATIONS)
    def test_cell_outcomes_equal_per_trial_draws(self, method, situation):
        """`draw_answers`, where every engine draws its trials' answers, gives
        the scalar reference draws, trial by trial."""
        seeds = trial_seeds(42, method, situation, 200)
        cell = np.full((2, 200), [[METHODS.index(method)], [SITUATIONS.index(situation)]])
        outcomes = draw_answers(seeds, *cell)
        batched = list(zip(*(column.tolist() for column in outcomes)))
        expected = [scalar_outcome(method, situation, seed) for seed in seeds.tolist()]
        assert nan_free(batched) == nan_free(expected)
        assert (outcomes[0] >= 0).any()

    def test_one_batch_of_all_cells_equals_per_trial_draws(self, monkeypatch):
        """A design draws its answers over whole cells at once: here all 16
        cells in one `draw_answers` call, whose rows mix every method and
        situation. Each trial's answer is still the scalar reference draws'."""
        n = 40
        cells = [((m * 4 + s) * n, method, situation, trial_seeds(42, method, situation, n))
                 for m, method in enumerate(METHODS) for s, situation in enumerate(SITUATIONS)]
        rows = count_drawn_rows(monkeypatch)
        drawn = list(harness._design_responses(cells, n))
        assert rows == [16 * n]
        assert [cell[0] for cell, _ in drawn] == [cell[0] for cell in cells]
        for (_, method, situation, seeds), answer in drawn:
            batched = list(zip(*(column.tolist() for column in answer)))
            expected = [scalar_outcome(method, situation, seed) for seed in seeds.tolist()]
            assert nan_free(batched) == nan_free(expected)
        cursors = np.concatenate([answer[0] for _, answer in drawn])
        assert set(cursors.tolist()) == {-1, 0, 1, 2}

    @pytest.mark.parametrize("seed", [0, 2**32, 2**63 + 7, 2**64 - 1, 2**64, 2**70 + 3])
    def test_single_trial_seeds_of_any_width(self, seed):
        # A one-row seed array of a seed of 2**64 or more holds Python ints:
        # every engine draws the answer from it, and answers that prompt.
        runs = [(method, "event", None) for method in METHODS]
        traces = (None, DiscardedTrace())
        runs += [(method, "ideal", trace) for method in METHODS for trace in traces]
        runs += [(Method.M4, "full", None)]
        for method, mode, trace in runs:
            k, latency_s, gaze_s = scalar_outcome(method, OFOV, seed)
            record = run_trial(SC, method, OFOV, seed, mode=mode, trace=trace)
            assert record.seed == seed
            if k < 0:
                assert not record.responded
                continue
            assert record.responding_action is method.capture_plan[k]
            assert record.gaze_time_s == gaze_s
            if mode == "event":
                cell = seedless_run(SC, method, OFOV)
                detect_s = face_gate_s(cell, k, latency_s)
                start_s = cell.windows[k].controller.window_start_s
                assert record.response_latency_s == detect_s - start_s

    def test_the_ensure_phase_is_the_controllers(self, monkeypatch):
        # Past the face the engine steps controller_step, so it keeps the
        # controller's own dwell and blink count.
        monkeypatch.setattr(controller, "ENSURE_DWELL_S", 2.0)
        monkeypatch.setattr(controller, "BLINK_COUNT", 2)
        detail = run_trial_detailed(SC, Method.M4, CFOV, seed=0, mode="event")
        face = [e.kind for e in detail.events].index(EventKind.FACE_DETECTED)
        detect_s = detail.events[face].time_s
        assert detail.events[face:] == (
            RobotEvent(detect_s, EventKind.FACE_DETECTED),
            RobotEvent(detect_s, EventKind.BLINK_PULSE),
            RobotEvent(detect_s + 1.0, EventKind.BLINK_PULSE),
            RobotEvent(detect_s + 2.0, EventKind.SUCCESS),
        )

    @pytest.mark.parametrize("room, situations", ROOMS)
    def test_gaze_offset_is_the_settled_painting_bearing(self, room, situations):
        # The recognizer confirms a label that persisted 30 frames, which only
        # a head settled on the painting gives, so every window sees it.
        to_robot = bearing_to(room.human_seat.position, room.robot_pose.position)
        for method in METHODS:
            for situation in situations:
                yaw = room.painting_world_yaw(room.painting_for(situation))
                cell = seedless_run(room, method, situation)
                offset = normalize_angle(yaw - to_robot)
                offsets = [gaze_bearing_to(w.visitor, room.robot_pose.position)
                           for w in cell.windows]
                assert offsets == [offset] * len(cell.windows)


class TestResponseWindows:
    """A cell run records each response window as it opens: the controller
    awaiting prompt k, the run's events up to that prompt, a copy of the
    visitor and the frame."""

    # The last event before each prompt's window: a head movement's end, or
    # the utterance, since speech opens its window with no event of its own.
    OPENED_BY = {
        RobotAction.HT: EventKind.HEAD_TURN_END,
        RobotAction.HS: EventKind.HEAD_SHAKE_END,
        RobotAction.RT: EventKind.UTTERANCE,
    }

    @pytest.mark.parametrize("room, situations", ROOMS)
    def test_each_window_is_its_prompt_as_it_opens(self, room, situations):
        for method in METHODS:
            for situation in situations:
                cell = seedless_run(room, method, situation)
                assert len(cell.windows) == len(method.capture_plan)
                for k, window in enumerate(cell.windows):
                    assert window.controller.phase is controller.Phase.AWAIT_RESPONSE
                    assert window.controller.plan_cursor == k
                    assert cell.events[: len(window.events)] == window.events
                    assert window.events[-1].kind is self.OPENED_BY[method.capture_plan[k]]
                    # No face comes in the seedless run: the window expires next.
                    assert cell.events[len(window.events)].kind is EventKind.WINDOW_EXPIRED
                frames = [window.frame for window in cell.windows]
                assert all(a < b for a, b in zip(frames, frames[1:]))

    def test_responders_equal_traced_trials_while_the_head_turns(self, monkeypatch):
        """An untraced ideal design takes a responder's face frame from the
        window it answers: its fire frame, plus the turn of the visitor the
        run has on the frame before. In this room the first window opens
        while the head still turns, so that visitor differs from trial to
        trial and from the window's."""
        room = turning_room()
        starts = []
        delay = harness._face_delay

        def spied(scenario, situation, start):
            starts.append(start)
            return delay(scenario, situation, start)

        monkeypatch.setattr(harness, "_face_delay", spied)
        config = RunConfig(n_per_cell=100, base_seed=42, scenario=room, situations=(OFOV,))
        records = run_experiment(config, mode="ideal")
        responders = [r for r in records if r.responded]
        for record in responders:
            traced = run_trial_detailed(
                room, record.method, OFOV, record.seed, mode="ideal",
                trial_id=record.trial_id, trace=DiscardedTrace(),
            )
            assert record == traced.record
        # Eight of the responders to the first prompt fire before the head
        # settles, from six head yaws that neither the window's visitor nor
        # the settled one has.
        assert len(starts) == len(responders) == 214
        states = harness._settling(room, OFOV)[0]
        window = seedless_run(room, Method.M1, OFOV).windows[0]
        assert window.frame == 46
        turning = {states[i].head_yaw_deg for i in starts} - {
            window.visitor.head_yaw_deg, states[-1].head_yaw_deg
        }
        assert len(turning) == 6

    def test_a_face_at_the_window_deadline_raises(self, monkeypatch):
        # A face comes about the longer of the latency (at most 3.5 s) and the
        # turn (at most 2 s) into its 4 s window. In a 1 s window it comes
        # past the deadline, and the design refuses to guess the record.
        monkeypatch.setattr(controller, "RESPONSE_WINDOW_S", 1.0)
        with pytest.raises(RuntimeError, match=r"face at window 0's deadline \(trial 20, M1\)"):
            run_experiment(M1_NPFOV_N20, mode="ideal")


class TestFireFrames:
    """A responder's fire frame is the first frame f at or past the first
    one it may fire on with f / 30 >= fire_s, as the tick loop compares."""

    @staticmethod
    def looped(fire_s, first):
        frame = max(first, math.floor(fire_s * 30) - 2)
        while frame / 30.0 < fire_s:
            frame += 1
        return frame

    @pytest.mark.parametrize("first", [0, 40, 1_000, 2_999])
    def test_equals_the_loops_comparison_at_every_frame_edge(self, first):
        # The ceiling of fire_s * 30 is a frame late or early on dozens of
        # these frame times and their neighbouring floats.
        times = [f / 30.0 for f in range(3_000)]
        fire_s = np.array([math.nextafter(t, d) for t in times for d in (-1.0, t, 99.0)])
        got = harness._fire_frames(fire_s, first)
        assert got.tolist() == [self.looped(x, first) for x in fire_s.tolist()]


class TestFrameDraws:
    # 2600 frames take the first block of 80 and six refills (at 80, 160,
    # 320, 640, 1280 and 2560), more frames than a trial reaches before the
    # 60 s cap.
    FRAMES = 2600

    @pytest.mark.parametrize("seed", [12_345, 2**32 - 1, 2**32, 2**64 - 59])
    def test_blocks_equal_the_per_frame_streams(self, seed):
        sigma = 1.7
        head = HeadPose(2.0, 0.0, yaw_deg=170.0, pitch_deg=3.0)
        camera = Pose2(0.0, 0.0, 0.0)
        rel = relative_yaw_deg(head, camera)
        draws = itertools.islice(harness._frame_draws(seed, full=True), self.FRAMES)
        for frame, (noise, laser_seed, filter_seed) in enumerate(draws):
            live = derive_rng(seed, STREAM_HEAD, frame).normal(0.0, sigma, size=2)
            assert [0.0 + sigma * z for z in noise] == live.tolist()
            assert laser_seed == derive_seed(seed, STREAM_LASER, frame)
            assert filter_seed == derive_seed(seed, STREAM_FILTER, frame)
            camera_noise = derive_rng(seed, STREAM_HEAD, frame).normal(
                0.0, NOISE_SIGMA_DEG, size=2
            )
            obs = observe_head(head, camera, frame=frame, noise=noise)
            assert (obs.yaw_deg, obs.pitch_deg) == (
                normalize_angle(rel + camera_noise[0]),
                normalize_angle(head.pitch_deg + camera_noise[1]),
            )
            drawn = derive_rng(seed, STREAM_HEAD, frame).standard_normal(2).tolist()
            assert obs == observe_head(head, camera, frame=frame, noise=drawn)
        assert frame == self.FRAMES - 1

    def test_ideal_mode_draws_no_laser_or_filter_seeds(self):
        draws = itertools.islice(harness._frame_draws(7, full=False), 400)
        full = itertools.islice(harness._frame_draws(7, full=True), 400)
        for (noise, laser_seed, filter_seed), (full_noise, _, _) in zip(draws, full):
            assert noise == full_noise
            assert laser_seed is filter_seed is None


def assert_same_outcome(ticked, ev):
    assert ticked.responded == ev.responded
    assert ticked.responding_action == ev.responding_action
    assert ticked.gaze_time_s == ev.gaze_time_s
    if ev.responded:
        assert abs(ticked.response_latency_s - ev.response_latency_s) <= TICK_S


class TestTrialModes:
    def test_same_seed_same_record(self):
        a = run_trial(SC, Method.M2, NPFOV, seed=11, mode="ideal")
        b = run_trial(SC, Method.M2, NPFOV, seed=11, mode="ideal")
        assert a == b

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("situation", SITUATIONS)
    def test_event_mode_matches_ideal_mode(self, method, situation):
        for seed in range(10):
            ev = run_trial_detailed(SC, method, situation, seed=seed, mode="event")
            ticked = run_trial_detailed(SC, method, situation, seed=seed, mode="ideal")
            assert_same_outcome(ticked.record, ev.record)
            # Both engines step the same controller, so the event timeline
            # starts and ends within two ticks of the tick loop's.
            for index in (0, -1):
                gap = abs(ev.events[index].time_s - ticked.events[index].time_s)
                assert gap <= 2 * TICK_S

    def test_full_mode_matches_event_mode_on_discrete_outcomes(self):
        for method in METHODS:
            for situation in SITUATIONS:
                seed = trial_seed(7, method, situation, 0)
                full = run_trial(SC, method, situation, seed=seed, mode="full")
                ev = run_trial(SC, method, situation, seed=seed, mode="event")
                assert_same_outcome(full, ev)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_trial(SC, Method.M1, CFOV, seed=0, mode="warp")

    def test_responded_latency_fits_the_window(self):
        for seed in range(60):
            r = run_trial(SC, Method.M4, FPFOV, seed=seed, mode="event")
            if r.responded:
                assert 0.0 <= r.response_latency_s <= 4.0 + 1.0 / 30.0
                assert r.gaze_time_s > 0.1

    def test_event_timeline_is_ordered_and_single_terminal(self):
        detail = run_trial_detailed(SC, Method.M4, OFOV, seed=5, mode="event")
        times = [e.time_s for e in detail.events]
        assert times == sorted(times)
        terminals = [
            e for e in detail.events if e.kind in (EventKind.SUCCESS, EventKind.FAILURE)
        ]
        assert len(terminals) == 1

    def test_head_stays_within_its_joint_limits(self, monkeypatch):
        ticks = record_ticks(monkeypatch)
        run_trial_detailed(SC, Method.M1, CFOV, seed=3, mode="ideal")
        assert len(ticks) > 30
        assert all(-159.0 <= pan <= 159.0 for _, pan, _ in ticks)
        assert all(tilt == 0.0 for _, _, tilt in ticks)


def no_head_noise(seed, frames):
    """The head camera's noise draws, zeroed: per frame in traced trials,
    over arrays in untraced ones."""
    return np.zeros(len(frames)), np.zeros(len(frames))


def robot_events(detail):
    """The events the robot makes whatever the visitor does: all but the
    face detection and the ensure phase that follows it."""
    return [e for e in detail.events if e.kind not in VISITOR_DRIVEN_EVENTS]


class TestNoiseFreeRobotEvents:
    """Without head camera noise, the tick loop makes every robot event on
    the tick the event engine takes from its one controller run per cell."""

    @pytest.mark.parametrize("room, situations", ROOMS)
    def test_event_and_ideal_robot_events_are_equal(self, monkeypatch, room, situations):
        monkeypatch.setattr(harness, "_head_noise", no_head_noise)
        for method in METHODS:
            for situation in situations:
                for seed in range(3):
                    ev = run_trial_detailed(room, method, situation, seed, mode="event")
                    ticked = run_trial_detailed(room, method, situation, seed, mode="ideal")
                    assert robot_events(ev) == robot_events(ticked)


# One cell whose trial ids start at 20.
M1_NPFOV_N20 = RunConfig(n_per_cell=20, base_seed=42, methods=(Method.M1,), situations=(NPFOV,))


class TestRecognizerAbort:
    """Every valid room confirms its situations, so these stand in an array
    labeler that labels every frame unknown. The trial then labels the
    frames up to the budget, steps none past it, and aborts."""

    @staticmethod
    def never_confirms(monkeypatch):
        """Label every frame unknown, and fail any controller step past the
        budget; return the number of frames each labeler call labels."""
        labeled = []

        def unknown(valid, yaw, pitch, theta_rel):
            labels = np.full(np.broadcast(valid, yaw, pitch, theta_rel).shape, -1)
            labeled.append(labels.shape[-1])
            return labels

        step = harness.controller_step

        def within_budget(state, inputs, t):
            assert t <= harness.ABORT_BUDGET_S
            return step(state, inputs, t)

        monkeypatch.setattr(harness, "classify_instants", unknown)
        monkeypatch.setattr(harness, "controller_step", within_budget)
        return labeled

    def test_ideal_mode_aborts_when_the_recognizer_never_confirms(self, monkeypatch):
        labeled = self.never_confirms(monkeypatch)
        with pytest.raises(TrialAbortError, match=r"did not confirm CFOV within 10 s \(trial"):
            run_trial(SC, Method.M1, CFOV, seed=0, mode="ideal")
        assert sum(labeled) == harness.ABORT_BUDGET_S * 30 + 1

    def test_ideal_design_aborts_name_the_first_trial_of_the_cell(self, monkeypatch):
        # The cell's trials share one run from their one confirm frame.
        labeled = self.never_confirms(monkeypatch)
        message = r"did not confirm NPFOV within 10 s \(trial 20, M1\)"
        with pytest.raises(TrialAbortError, match=message):
            run_experiment(M1_NPFOV_N20, mode="ideal")
        assert sum(labeled) == harness.ABORT_BUDGET_S * 30 + 1

    def test_event_mode_aborts_when_the_recognizer_never_confirms(self, monkeypatch):
        # The event engine runs the same recognizer and stops at the same
        # budget. Without the abort the cell would step on to the time cap.
        labeled = self.never_confirms(monkeypatch)
        with pytest.raises(TrialAbortError, match=r"did not confirm CFOV within 10 s \(event"):
            run_trial(SC, Method.M1, CFOV, seed=0, mode="event")
        assert sum(labeled) == harness.ABORT_BUDGET_S * 30 + 1


BUDGET_FRAME = int(harness.ABORT_BUDGET_S * 30)


def angles(*edges):
    """Angles in (-180, 180], the given band edges among them."""
    return st.sampled_from(edges) | st.floats(-180.0, 180.0, exclude_min=True)


PAST_90 = math.nextafter(90.0, 180.0)
# A view is the true head yaw off the camera, the head pitch and the body
# angle; a run of frames repeats one view.
VIEW_RUNS = st.lists(
    st.tuples(
        st.tuples(
            angles(0.0, 10.0, -10.0, 70.0, -70.0, 90.0, -90.0, PAST_90, -PAST_90, 180.0),
            angles(0.0, 5.0, 10.0, -10.0, math.nextafter(10.0, 11.0), 179.5),
            angles(0.0, 90.0, -90.0, PAST_90, -PAST_90, 150.0, 180.0),
        ),
        st.integers(1, 70),
    ),
    min_size=1,
    max_size=8,
)


def folded_confirm(views, noise, situation):
    """The scalar recognizer: `observe_head`, `classify_instant` and
    `srm_update` on each frame up to the abort budget's, the last view
    repeated. The first frame that confirms the situation, else the next
    one past the budget."""
    srm = SrmState()
    camera = Pose2(0.0, 0.0, 0.0)
    for frame in range(BUDGET_FRAME + 1):
        yaw, pitch, theta_rel = views[min(frame, len(views) - 1)]
        # From (-1, 0) the camera lies at bearing 0, so the relative yaw is yaw.
        head = HeadPose(-1.0, 0.0, yaw, pitch)
        observation = observe_head(head, camera, frame, noise=tuple(noise[frame]))
        srm = srm_update(srm, classify_instant(observation, theta_rel))
        if srm.confirmed is situation:
            return frame
    return BUDGET_FRAME + 1


class TestArrayRecognizer:
    """Untraced ideal trials take their confirm frame from
    `_confirm_frames`, which labels a cell's frames over arrays. It equals
    the scalar recognizer folded frame by frame, on any views and noise."""

    CFOV_VIEW, NPFOV_VIEW, UNKNOWN_VIEW = (0.0, 0.0, 0.0), (40.0, 0.0, 0.0), (0.0, 50.0, 0.0)

    @given(
        runs=VIEW_RUNS,
        situation=st.sampled_from(SITUATIONS),
        sigmas=st.lists(st.sampled_from([0.0, 0.3, 1.0, 3.0]), min_size=1, max_size=3),
        noise_seed=st.integers(0, 2**32 - 1),
        block=st.integers(1, 90),
    )
    @settings(deadline=None, max_examples=150)
    # CFOV confirms first, then NPFOV on frame 69; a streak one frame short,
    # then nothing that confirms; a head one ulp past the tracking limit.
    @example([(CFOV_VIEW, 40), (NPFOV_VIEW, 1)], NPFOV, [0.0], 0, 80)
    @example([(CFOV_VIEW, 29), (UNKNOWN_VIEW, 1), (NPFOV_VIEW, 29), (UNKNOWN_VIEW, 1)],
             CFOV, [0.0, 1.0], 5, 7)
    @example([((PAST_90, 0.0, 90.0), 10), ((90.0, 0.0, 150.0), 1)], FPFOV, [0.0, 1.0], 3, 16)
    @example([((-PAST_90, 0.0, PAST_90), 1)], OFOV, [0.0, 3.0], 1, 30)
    def test_equals_the_folded_scalar_recognizer(
        self, runs, situation, sigmas, noise_seed, block
    ):
        views = [view for view, frames in runs for _ in range(frames)]
        rng = np.random.default_rng(noise_seed)
        noise = np.stack([rng.normal(0.0, s, (BUDGET_FRAME + 1, 2)) for s in sigmas])
        settling = ((),) + tuple(np.array(views).T)

        def head_noise(seeds, frames):
            return noise[seeds, frames, 0], noise[seeds, frames, 1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "_settling", lambda scenario, situation: settling)
            patch.setattr(harness, "_head_noise", head_noise)
            patch.setattr(harness, "FRAME_BLOCK", block)
            patch.setattr(harness, "CONFIRM_CHUNK", 2)
            got = harness._confirm_frames(SC, situation, np.arange(len(sigmas)))
            seedless = harness._confirm_frames(SC, situation, None)
        assert got.tolist() == [folded_confirm(views, rows, situation) for rows in noise]
        assert seedless.tolist() == [folded_confirm(views, 0.0 * noise[0], situation)]

    def test_settling_is_cached_per_room_value(self):
        def room(**changes):
            return dataclasses.replace(scenario_from_dict(scenario_to_dict(SC)), **changes)

        first = harness._settling(room(), NPFOV)
        assert harness._settling(room(), NPFOV) is first
        camera = Pose2(SC.camera_pose.x, SC.camera_pose.y + 0.1, SC.camera_pose.heading_deg)
        for other in (
            room(camera_pose=camera),
            room(painting_pitch_deg=4.0),
            room(situation_map={**SC.situation_map, "P7": OFOV}),
        ):
            assert harness._settling(other, NPFOV) is not first


class TestSensingPrefix:
    """An untraced full-mode trial senses up to the frame that begins the
    head turn, the last one whose recognizer and bearing the controller
    reads. An untraced ideal trial senses no frame: its recognizer runs over
    arrays. A traced trial senses every frame. The trial is the same."""

    @staticmethod
    def counted_trial(mode, method, situation, traced):
        calls = collections.Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        trace = TraceWriter(io.StringIO()) if traced else None
        seed = trial_seed(42, method, situation, 0)
        with mock.patch.object(
            harness, "synthesize_scan", counting("scan", harness.synthesize_scan)
        ), mock.patch.object(
            harness, "observe_head", counting("head", harness.observe_head)
        ), mock.patch.object(
            harness, "classify_instant", counting("label", harness.classify_instant)
        ), mock.patch.object(
            harness, "srm_update", counting("srm", harness.srm_update)
        ), mock.patch.object(
            harness.BodyTracker, "step", counting("filter", harness.BodyTracker.step)
        ), pytest.MonkeyPatch.context() as patch:
            ticks = record_ticks(patch)
            detail = run_trial_detailed(SC, method, situation, seed, mode=mode, trace=trace)
        return detail, list(ticks), calls

    @pytest.mark.parametrize(
        "mode, method", [("ideal", m) for m in METHODS] + [("full", Method.M4)]
    )
    @pytest.mark.parametrize("situation", SITUATIONS)
    def test_untraced_trials_sense_until_the_head_turn(self, mode, method, situation):
        untraced, untraced_ticks, calls = self.counted_trial(mode, method, situation, traced=False)
        traced, traced_ticks, traced_calls = self.counted_trial(mode, method, situation, traced=True)
        assert untraced == traced
        assert untraced_ticks == traced_ticks
        frames = len(traced_ticks)
        # Left to skip its waits, the trial is the same.
        seed = trial_seed(42, method, situation, 0)
        assert run_trial_detailed(SC, method, situation, seed, mode=mode) == traced
        turn_s = next(
            e.time_s for e in untraced.events if e.kind is EventKind.HEAD_TURN_START
        )
        sensed = round(turn_s * 30) + 1 if mode == "full" else 0
        assert sensed < frames
        names = ("head", "label", "srm") + (("scan", "filter") if mode == "full" else ())
        assert calls == {name: sensed for name in names if sensed}
        assert traced_calls == {name: frames for name in names}


class DiscardedTrace(TraceWriter):
    """A trace that keeps nothing: the trial takes its traced path, stepping
    and sensing every frame, without the cost of writing JSON lines."""

    def __init__(self):
        super().__init__(io.StringIO())

    def emit(self, t_s, source, kind, detail=None):
        pass


def count_controller_steps(monkeypatch):
    """Count the harness's controller_step calls from here on."""
    steps = collections.Counter()
    step = harness.controller_step

    def counting(*args):
        steps["controller"] += 1
        return step(*args)

    monkeypatch.setattr(harness, "controller_step", counting)
    return steps


class TestSkippedWaits:
    """An untraced tick-mode trial jumps over the frames where neither the
    controller nor the visitor can change. It is the same trial as a traced
    one, which steps every frame."""

    @pytest.mark.parametrize(
        "mode, method", [("ideal", m) for m in METHODS] + [("full", Method.M4)]
    )
    @pytest.mark.parametrize("situation", SITUATIONS)
    def test_untraced_trials_equal_traced_ones(self, mode, method, situation):
        # Rep 0 is compared in TestSensingPrefix, beside its traced run.
        for rep in range(1, 4 if mode == "ideal" else 2):
            seed = trial_seed(42, method, situation, rep)
            untraced = run_trial_detailed(SC, method, situation, seed, mode=mode)
            traced = run_trial_detailed(
                SC, method, situation, seed, mode=mode, trace=TraceWriter(io.StringIO())
            )
            assert untraced == traced

    def test_frames_stepped_on_the_ideal_design(self, monkeypatch):
        steps = count_controller_steps(monkeypatch)
        run_experiment(RunConfig(n_per_cell=20, base_seed=42), mode="ideal")
        # Stepping every frame of these 320 trials takes 91,412 steps, and
        # starting each a tick or two short of its confirm frame 14,268. The
        # trials of a cell that confirm on one frame (28 frames in all) share
        # one run, and a responder's record comes from the window it answers
        # without a step of its own: the 28 runs step 978 frames.
        assert steps["controller"] == 978

    def test_no_jump_while_the_visitor_still_turns(self, monkeypatch):
        # In this room the first window opens before the visitor's body has
        # settled. Nothing reads the body after the head turn, so a jump
        # that ignored the turn would change no record or event, only this.
        room = room_170()
        trials = [(method, seed) for method in METHODS for seed in range(1000, 1020)]
        steps = count_controller_steps(monkeypatch)
        untraced = [run_trial_detailed(room, m, OFOV, seed, mode="ideal") for m, seed in trials]
        assert steps["controller"] == 4_543
        for (method, seed), detail in zip(trials, untraced):
            traced = run_trial_detailed(
                room, method, OFOV, seed, mode="ideal", trace=DiscardedTrace()
            )
            assert detail == traced

    @pytest.mark.parametrize("method, situation", [(Method.M4, OFOV), (Method.M1, CFOV)])
    def test_recorded_ticks_are_every_frame(self, method, situation):
        for rep in range(3):
            seed = trial_seed(42, method, situation, rep)
            skipped = run_trial_detailed(SC, method, situation, seed, mode="ideal")
            with pytest.MonkeyPatch.context() as patch:
                ticks = record_ticks(patch)
                detail = run_trial_detailed(SC, method, situation, seed, mode="ideal")
            times = [t for t, _, _ in ticks]
            assert times == [frame / 30.0 for frame in range(len(times))]
            assert times[-1] == detail.events[-1].time_s
            assert detail == skipped


class TestIdealDesignCells:
    """An untraced ideal design runs cell by cell. The trials that confirm
    on one frame share one seedless run, and no trial steps a tick of its
    own: a responder's record is computed over arrays from the window it
    answers. Each record equals the trial's traced run, which steps and
    senses every frame."""

    @pytest.mark.parametrize("room, situations", ROOMS)
    def test_records_equal_traced_trials(self, room, situations):
        config = RunConfig(n_per_cell=20, base_seed=42, scenario=room, situations=situations)
        records = run_experiment(config, mode="ideal")
        for record in records:
            traced = run_trial_detailed(
                room, record.method, record.situation, record.seed, mode="ideal",
                trial_id=record.trial_id, trace=DiscardedTrace(),
            )
            assert record == traced.record
        # The design shares runs and answers from their windows: its NPFOV
        # and FPFOV cells hold two or three confirm frames, and M4 has trials
        # that answer each of its prompts and trials that answer none.
        frames = {
            len(set(harness._confirm_frames(room, s, trial_seeds(42, m, s, 20)).tolist()))
            for m in METHODS for s in situations if s in (NPFOV, FPFOV)
        }
        assert frames <= {2, 3} and 3 in frames
        answered = {r.responding_action for r in records if r.method is Method.M4}
        assert answered == {None, *Method.M4.capture_plan}


ROOM_OFFSET_M = st.floats(-0.5, 0.5)
ROOM_TURN_DEG = st.floats(-20.0, 20.0)


class TestPerturbedRooms:
    """The room property: a room moved away from the default one is
    rejected when it is built, or runs every cell in event and ideal mode
    alike. Without head camera noise both make the same robot events and
    end within two ticks of each other, and in ideal mode an untraced trial
    equals a traced one. With noise the first event can be
    late: in a room whose settled head angle lies just outside the noise
    margin, a noise draw now and then breaks the persistence streak, and
    the tick loop confirms some 28 ticks later."""

    @staticmethod
    def room(robot, camera, sensor, seat, bearings):
        """The default room as a config object, each pose moved by its
        (dx, dy[, dheading]) offset and each painting turned by its own."""
        room = scenario_to_dict(SC)
        for key, offset in (
            ("robot_pose", robot),
            ("camera_pose", camera),
            ("sensor_pose", sensor),
            ("human_seat", seat),
        ):
            moved = itertools.zip_longest(room[key], offset, fillvalue=0.0)
            room[key] = [value + delta for value, delta in moved]
        for painting, turn in zip(room["paintings"], bearings):
            painting["bearing_deg"] += turn
        return room

    def test_rejected_at_construction_or_alike_in_event_and_ideal_mode(self):
        ran = []

        # No shrink phase: each candidate room reruns the n=2 design, so
        # shrinking a failure takes minutes; the first failing room is shown.
        # A fixed seed, not one derived from this test's source, keeps the
        # rooms drawn the same when the test's text changes.
        @hypothesis.seed(0)
        @settings(
            max_examples=80,
            database=None,
            deadline=None,
            phases=(Phase.explicit, Phase.reuse, Phase.generate),
        )
        @given(
            st.tuples(ROOM_OFFSET_M, ROOM_OFFSET_M, ROOM_TURN_DEG),
            st.tuples(ROOM_OFFSET_M, ROOM_OFFSET_M),
            st.tuples(ROOM_OFFSET_M, ROOM_OFFSET_M),
            st.tuples(ROOM_OFFSET_M, ROOM_OFFSET_M, ROOM_TURN_DEG),
            st.lists(st.floats(-10.0, 10.0), min_size=7, max_size=7),
        )
        def check(robot, camera, sensor, seat, bearings):
            try:
                room = scenario_from_dict(self.room(robot, camera, sensor, seat, bearings))
            except ConfigError:
                return
            for method in METHODS:
                for situation in SITUATIONS:
                    seeds = trial_seeds(RunConfig().base_seed, method, situation, 2)
                    for rep, seed in enumerate(seeds.tolist()):
                        ev = run_trial_detailed(room, method, situation, seed, mode="event")
                        ticked = run_trial_detailed(
                            room, method, situation, seed, mode="ideal"
                        )
                        assert_same_outcome(ticked.record, ev.record)
                        if rep == 0:
                            assert ticked == run_trial_detailed(
                                room, method, situation, seed, mode="ideal",
                                trace=DiscardedTrace(),
                            )
                        with mock.patch.object(harness, "_head_noise", no_head_noise):
                            quiet = run_trial_detailed(
                                room, method, situation, seed, mode="ideal"
                            )
                        assert_same_outcome(quiet.record, ev.record)
                        assert robot_events(quiet) == robot_events(ev)
                        gap = abs(quiet.events[-1].time_s - ev.events[-1].time_s)
                        assert gap <= 2 * TICK_S
            ran.append(room)

        check()
        # Not only rejections: the property held on every room the pinned
        # search loads (33 of 80).
        assert len(ran) >= 33


class TestRunExperiment:
    def test_full_crossing_in_trial_id_order(self):
        config = RunConfig(n_per_cell=2, base_seed=42)
        records = run_experiment(config, mode="event")
        assert len(records) == 32
        assert [r.trial_id for r in records] == list(range(32))
        assert records[0].method is Method.M1 and records[0].situation is CFOV
        assert records[-1].method is Method.M4 and records[-1].situation is OFOV

    @pytest.mark.parametrize("mode", ["event", "ideal"])
    def test_trial_id_order_whatever_the_config_order(self, mode):
        config = RunConfig(
            n_per_cell=2, base_seed=4, methods=(Method.M4, Method.M1), situations=(OFOV, CFOV)
        )
        ids = [r.trial_id for r in run_experiment(config, mode=mode)]
        assert ids == sorted(ids) and len(set(ids)) == 8

    def test_deterministic(self):
        config = RunConfig(n_per_cell=2, base_seed=7)
        assert run_experiment(config) == run_experiment(config)

    def test_subset_runs_reproduce_the_full_design(self):
        full = run_experiment(RunConfig(n_per_cell=3, base_seed=42))
        sub = run_experiment(
            RunConfig(n_per_cell=3, base_seed=42, methods=(Method.M4,), situations=(OFOV,))
        )
        matching = [r for r in full if r.method is Method.M4 and r.situation is OFOV]
        assert sub == matching

    @pytest.mark.parametrize("cap, rows", [
        (1, [3] * 16),  # every cell of 3 trials drawn alone
        (7, [6] * 8),  # two cells per batch
        (10, [9] * 5 + [3]),  # three cells per batch, the last batch one cell
    ])
    def test_answer_batches_cut_between_cells_give_the_same_records(self, cap, rows, monkeypatch):
        config = RunConfig(n_per_cell=3, base_seed=42)
        drawn = count_drawn_rows(monkeypatch)
        whole = {mode: run_experiment(config, mode=mode) for mode in ("event", "ideal")}
        assert drawn == [48, 48]
        drawn.clear()
        monkeypatch.setattr(harness, "RESPONSE_BATCH", cap)
        for mode, records in whole.items():
            assert run_experiment(config, mode=mode) == records
        assert drawn == rows * 2

    def test_parallel_equals_serial(self):
        config = RunConfig(n_per_cell=2, base_seed=5)
        assert run_experiment(config, mode="ideal", jobs=2) == run_experiment(
            config, mode="ideal", jobs=1
        )

    def test_parallel_trials_equal_serial_ones(self, tmp_path):
        # Full and traced designs run trial by trial: each trial is a task
        # that draws its own answer in the worker.
        full = RunConfig(n_per_cell=1, base_seed=5, methods=(Method.M4,))
        assert run_experiment(full, mode="full", jobs=2) == run_experiment(
            full, mode="full", jobs=1
        )
        traced = RunConfig(n_per_cell=2, base_seed=5, methods=(Method.M1, Method.M4))
        runs = [
            run_experiment(traced, mode="ideal", jobs=jobs, trace_dir=tmp_path / str(jobs))
            for jobs in (2, 1)
        ]
        assert runs[0] == runs[1]
        files = [sorted((tmp_path / str(jobs)).iterdir()) for jobs in (2, 1)]
        assert len(files[0]) == len(runs[0]) == 16
        assert [f.read_bytes() for f in files[0]] == [f.read_bytes() for f in files[1]]

    def test_ideal_time_cap_names_the_first_trial_of_the_cell(self, monkeypatch):
        # Trial 20 confirms on frame 32 and trial 24 on frame 31: the runs of
        # a cell go in the order of their first trial, so trial 20's aborts
        # first, not the run that starts earliest.
        monkeypatch.setattr(harness, "TRIAL_TIME_CAP_S", 0.5)
        message = r"exceeded 0.5 s without a terminal event \(trial 20, M1\)"
        with pytest.raises(TrialAbortError, match=message):
            run_experiment(M1_NPFOV_N20, mode="ideal")

    def test_event_mode_starts_no_process(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("event mode started a process pool")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        config = RunConfig(n_per_cell=4, base_seed=5)
        assert run_experiment(config, jobs=2) == run_experiment(config, jobs=1)

    def test_event_trace_files_equal_single_trial_traces(self, tmp_path):
        # All 16 cells at n=3 hold failures and responders to every prompt.
        records = run_experiment(RunConfig(n_per_cell=3, base_seed=42), trace_dir=tmp_path)
        actions = {None, RobotAction.HT, RobotAction.HS, RobotAction.RT}
        assert {r.responding_action for r in records} == actions
        files = sorted(tmp_path.iterdir())
        assert [f.name for f in files] == [f"trial_{r.trial_id:06d}.jsonl" for r in records]
        for record, path in zip(records, files):
            stream = io.StringIO()
            run_trial_detailed(SC, record.method, record.situation, record.seed, mode="event",
                               trial_id=record.trial_id, trace=TraceWriter(stream))
            assert path.read_bytes() == stream.getvalue().encode("utf-8")

    @pytest.mark.parametrize("base", [0, 2**32, 2**64 + 1, 2**128 + 3])
    def test_design_batches_equal_single_trials(self, base):
        records = run_experiment(RunConfig(n_per_cell=3, base_seed=base))
        for record in records:
            rep = record.trial_id % 3
            assert record.seed == trial_seed(base, record.method, record.situation, rep)
            single = run_trial(
                SC, record.method, record.situation, record.seed, mode="event",
                trial_id=record.trial_id,
            )
            assert single == record

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(dataclasses.replace(RunConfig(), n_per_cell=0))

    def test_unknown_mode_rejected(self, tmp_path):
        # Before any trace directory is made or any cell runs.
        with pytest.raises(ValueError, match="unknown trial mode 'fast'"):
            run_experiment(RunConfig(n_per_cell=1), mode="fast", trace_dir=tmp_path / "t")
        assert not (tmp_path / "t").exists()


class TestCsvRoundTrip:
    def test_header_is_stable(self):
        assert (
            RESULTS_CSV_HEADER
            == "trial_id,method,situation,responded,responding_action,response_latency_s,gaze_time_s,seed"
        )

    def test_round_trip_preserves_records(self):
        # Floats are written at six decimals, so one write quantizes them;
        # after that the file and the records are mutual fixed points.
        records = run_experiment(RunConfig(n_per_cell=2, base_seed=13))
        buf = io.StringIO()
        write_records_csv(buf, records)
        first = buf.getvalue()
        loaded = read_records_csv(io.StringIO(first))
        for got, want in zip(loaded, records):
            assert got.trial_id == want.trial_id
            assert got.method is want.method
            assert got.situation is want.situation
            assert got.responded == want.responded
            assert got.responding_action == want.responding_action
            assert got.seed == want.seed
            if want.responded:
                assert got.response_latency_s == pytest.approx(
                    want.response_latency_s, abs=5e-7
                )
                assert got.gaze_time_s == pytest.approx(want.gaze_time_s, abs=5e-7)
        buf2 = io.StringIO()
        write_records_csv(buf2, loaded)
        assert buf2.getvalue() == first
        assert read_records_csv(io.StringIO(buf2.getvalue())) == loaded

    @staticmethod
    def written_row(record):
        buf = io.StringIO()
        write_records_csv(buf, Records.from_rows([record]))
        header, row = buf.getvalue().splitlines()
        return row

    def test_format_row_for_failed_trial(self):
        row = self.written_row(TrialRecord(4, Method.M2, OFOV, False, None, None, None, 9))
        assert row == "4,M2,OFOV,false,,,,9"

    def test_format_row_for_responded_trial(self):
        row = self.written_row(
            TrialRecord(1, Method.M4, CFOV, True, RobotAction.HT, 1.25, 2.5, 3)
        )
        assert row == "1,M4,CFOV,true,HT,1.250000,2.500000,3"

    def test_reader_rejects_foreign_header(self):
        buf = io.StringIO("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_records_csv(buf)

    def test_reader_rejects_short_rows(self):
        buf = io.StringIO(RESULTS_CSV_HEADER + "\n1,M1,CFOV,true\n")
        with pytest.raises(ValueError):
            read_records_csv(buf)


class TestTrialSemantics:
    def test_responded_iff_outcome_fields_present(self):
        records = run_experiment(RunConfig(n_per_cell=6, base_seed=21))
        assert any(r.responded for r in records)
        assert any(not r.responded for r in records)
        for r in records:
            has = (
                r.responding_action is not None,
                r.response_latency_s is not None,
                r.gaze_time_s is not None,
            )
            assert all(has) if r.responded else not any(has)

    def test_responding_action_stays_inside_the_plan(self):
        records = run_experiment(RunConfig(n_per_cell=8, base_seed=3))
        for r in records:
            if r.responded:
                assert r.responding_action in r.method.capture_plan

    def test_all_situations_appear(self):
        records = run_experiment(RunConfig(n_per_cell=1, base_seed=1))
        assert {r.situation for r in records} == set(SITUATIONS)
