import dataclasses
import io
import itertools
import math
import pickle

import pytest
from hypothesis import Phase, given, settings, strategies as st

from gazesim import harness
from gazesim.config import ConfigError, RunConfig, scenario_from_dict, scenario_to_dict
from gazesim.controller import (
    FACE_TOLERANCE_DEG,
    METHODS,
    TICK_S,
    EventKind,
    Method,
    RobotAction,
)
from gazesim.harness import (
    RESULTS_CSV_HEADER,
    TrialAbortError,
    TrialRecord,
    read_records_csv,
    run_experiment,
    run_trial,
    run_trial_detailed,
    trial_identifier,
    trial_seeds,
    write_records_csv,
)
from gazesim.human import (
    HEAD_TURN_SPEED_DEG_S,
    derive_response_table,
    gaze_duration,
    respond,
)
from gazesim.geometry import HeadPose, Pose2, normalize_angle
from gazesim.head_tracker import observe_head, relative_yaw_deg
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
from gazesim.situation import SITUATIONS, ViewingSituation
from oracles import trial_seed

CFOV = ViewingSituation.CFOV
NPFOV = ViewingSituation.NPFOV
FPFOV = ViewingSituation.FPFOV
OFOV = ViewingSituation.OFOV

SC = default_scenario()


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
        n = 10
        assert trial_identifier(Method.M1, CFOV, 0, n) == 0
        assert trial_identifier(Method.M1, NPFOV, 0, n) == 10
        assert trial_identifier(Method.M2, CFOV, 3, n) == 43
        assert trial_identifier(Method.M4, OFOV, 9, n) == 159


def scalar_outcome(cell, seed):
    """One trial drawn decision by decision with `respond` and
    `gaze_duration`, the per-trial path the cell engine batches: the
    responding prompt (-1 for none), the face-gate time and the gaze."""
    table = derive_response_table()
    for k, action in enumerate(cell.method.capture_plan):
        ok, latency = respond(
            action, cell.situation, table, derive_seed(seed, STREAM_RESPOND, k)
        )
        if ok:
            b0 = abs(cell.gaze_offset_deg)
            turn_s = b0 / HEAD_TURN_SPEED_DEG_S
            arrival_s = cell.window_starts[k] + max(latency, turn_s)
            detect_s = arrival_s - min(b0, FACE_TOLERANCE_DEG) / HEAD_TURN_SPEED_DEG_S
            gaze_s = gaze_duration(cell.method.ensure_blink, derive_seed(seed, STREAM_GAZE))
            return k, detect_s, gaze_s
    return -1, math.nan, math.nan


class TestEventEngine:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("situation", SITUATIONS)
    def test_cell_outcomes_equal_per_trial_draws(self, method, situation):
        seeds = trial_seeds(42, method, situation, 200)
        cell = harness._event_cell(SC, method, situation)
        cursor, detect_s, gaze_s = harness._event_outcomes(cell, seeds)
        batched = list(zip(cursor.tolist(), detect_s.tolist(), gaze_s.tolist()))
        expected = [scalar_outcome(cell, seed) for seed in seeds.tolist()]
        # NaN marks a trial without response; compare it as None.
        def nan_free(rows):
            return [tuple(None if v != v else v for v in row) for row in rows]

        assert nan_free(batched) == nan_free(expected)
        assert (cursor >= 0).any()

    @pytest.mark.parametrize("seed", [0, 2**32, 2**63 + 7, 2**64 - 1, 2**64, 2**70 + 3])
    def test_single_trial_seeds_of_any_width(self, seed):
        for method in METHODS:
            cell = harness._event_cell(SC, method, OFOV)
            k, detect_s, gaze_s = scalar_outcome(cell, seed)
            record = run_trial(SC, method, OFOV, seed, mode="event")
            assert record.seed == seed
            if k < 0:
                assert not record.responded
                continue
            assert record.responding_action is method.capture_plan[k]
            assert record.response_latency_s == detect_s - cell.window_starts[k]
            assert record.gaze_time_s == gaze_s


class TestFrameDraws:
    # 2600 frames take the first block and three refills (at 320, 640 and
    # 1280), more frames than a trial reaches before the 60 s cap.
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
            obs = observe_head(head, camera, sigma, frame=frame, noise=noise)
            assert (obs.yaw_deg, obs.pitch_deg) == (
                normalize_angle(rel + live[0]),
                normalize_angle(head.pitch_deg + live[1]),
            )
            assert obs == observe_head(head, camera, sigma, seed=seed, frame=frame)
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
            # The closed-form timeline starts and ends where the ticks do.
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

    def test_ticks_collected_on_request(self):
        detail = run_trial_detailed(
            SC, Method.M1, CFOV, seed=3, mode="ideal", collect_ticks=True
        )
        assert detail.ticks is not None
        assert len(detail.ticks) > 30
        assert all(-159.0 <= s.pan_deg <= 159.0 for s in detail.ticks)
        assert all(s.tilt_deg == 0.0 for s in detail.ticks)


class TestRecognizerAbort:
    def test_ideal_mode_aborts_when_the_recognizer_never_confirms(self, monkeypatch):
        # Every valid room confirms its situations, so stand in a recognizer
        # that labels every frame unknown.
        monkeypatch.setattr(harness, "classify_instant", lambda head, theta_rel: None)
        with pytest.raises(TrialAbortError, match="did not confirm CFOV within 10 s"):
            run_trial(SC, Method.M1, CFOV, seed=0, mode="ideal")


ROOM_OFFSET_M = st.floats(-0.5, 0.5)
ROOM_TURN_DEG = st.floats(-20.0, 20.0)


class TestPerturbedRooms:
    """The room property: a room moved away from the default one is
    rejected when it is built, or runs every cell in event and ideal mode
    alike. The first-event and last-event bounds of
    test_event_mode_matches_ideal_mode are left out: the event engine's
    confirm time comes from the band constants, not from the room."""

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
        @settings(
            max_examples=80,
            derandomize=True,
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
            config = RunConfig(scenario=room, n_per_cell=2)
            event = run_experiment(config, mode="event")
            ideal = run_experiment(config, mode="ideal")
            assert len(event) == len(ideal) == 32
            for ticked, ev in zip(ideal, event):
                assert_same_outcome(ticked, ev)
            ran.append(room)

        check()
        # Not only rejections: the property held on rooms that ran.
        assert len(ran) >= 5


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

    def test_parallel_equals_serial(self):
        config = RunConfig(n_per_cell=2, base_seed=5)
        assert run_experiment(config, mode="ideal", jobs=2) == run_experiment(
            config, mode="ideal", jobs=1
        )

    def test_event_mode_starts_no_process(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("event mode started a process pool")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        config = RunConfig(n_per_cell=4, base_seed=5)
        assert run_experiment(config, jobs=2) == run_experiment(config, jobs=1)

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
        write_records_csv(buf, [record])
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
