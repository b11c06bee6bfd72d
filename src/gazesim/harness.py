"""Trial and experiment drivers.

A trial seats the visitor in front of one painting, lets the recognizer
settle on the intended viewing situation, then runs the robot's
escalation protocol against the stochastic visitor until it succeeds or
exhausts its plan. Three fidelity modes share one random-stream layout,
so a trial's decisions are identical whichever engine runs it:

- "full":  sensors simulated end to end (laser scans, particle filter,
           noisy head camera), 30 fps tick loop.
- "ideal": tick loop with ground-truth body orientation and the noisy
           head camera; no laser or filter.
- "event": closed-form timeline of the same protocol; no ticks at all.
           Decisions and latencies are drawn from the same per-decision
           streams, so records match the tick engines. The trials of a
           (method, situation) cell run as one batch: their seeds and
           draws are computed over arrays, bit for bit the values of the
           per-trial streams, and their records fill `Records` columns.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator, Literal, NamedTuple

import numpy as np

from .body_tracker import BodyTracker, FilterConfig, body_orientation_for_srm
from .config import ConfigError, RunConfig
from .controller import (
    ControllerInputs,
    EventKind,
    FACE_TOLERANCE_DEG,
    Method,
    METHODS,
    Phase,
    RESPONSE_WINDOW_S,
    RobotAction,
    RobotEvent,
    SHAKE_HALF_SWING_DEG,
    SHAKE_SPEED_DEG_S,
    TICK_S,
    TURN_SPEED_DEG_S,
    UTTERANCE_DURATION_S,
    UTTERANCE_TEXT,
    clamp_pan,
    controller_step,
    face_detected,
    make_controller,
)
from .geometry import Pose2, bearing_to, normalize_angle, relative_bearing
from .head_tracker import observe_head
from .human import (
    BODY_TURN_SPEED_DEG_S,
    HEAD_TURN_SPEED_DEG_S,
    LATENCY_MAX_S,
    LATENCY_MIN_S,
    ROBOT_TARGET,
    ResponseTable,
    derive_response_table,
    gaze_bearing_to,
    gaze_duration,
    gaze_durations,
    human_step,
    make_human,
    respond,
    schedule_response,
)
from .laser import EllipseBody, synthesize_scan
from .records import ACTIONS, Records, TrialRecord
from .records import (  # noqa: F401  re-exported: the CSV form of the records
    RESULTS_CSV_HEADER,
    read_records_csv,
    write_records_csv,
)
from .scenario import Scenario
from .seeding import (
    STREAM_FILTER,
    STREAM_GAZE,
    STREAM_HEAD,
    STREAM_INIT,
    STREAM_LASER,
    STREAM_RESPOND,
    derive_rngs,
    derive_seed,
    derive_seeds,
)
from .situation import (
    CENTRAL_HALF_WIDTH_DEG,
    NEAR_PERIPHERAL_LIMIT_DEG,
    OUT_OF_VIEW_BODY_DEG,
    PERSISTENCE_FRAMES,
    SITUATIONS,
    SrmState,
    ViewingSituation,
    classify_instant,
    srm_update,
)
from .trace import TraceWriter

ABORT_BUDGET_S = 10.0
TRIAL_TIME_CAP_S = 60.0
# Frames in the first block of a tick-mode trial's per-frame draws, a bit
# more than the ~280 frames of an average trial: each block costs about
# half a millisecond of NumPy call overhead whatever its length.
FRAME_BLOCK = 320

TrialMode = Literal["full", "ideal", "event"]
TRIAL_MODES = ("full", "ideal", "event")

class TrialAbortError(RuntimeError):
    """A tick-mode trial cannot finish: the recognizer never confirmed the
    intended situation within the startup budget, or the trial passed the
    trial time cap without a terminal event."""


class TickSample(NamedTuple):
    t_s: float
    pan_deg: float
    tilt_deg: float


@dataclass(frozen=True)
class TrialDetail:
    record: TrialRecord
    events: tuple[RobotEvent, ...]
    ticks: tuple[TickSample, ...] | None


_default_table: ResponseTable | None = None


def _table() -> ResponseTable:
    global _default_table
    if _default_table is None:
        _default_table = derive_response_table()
    return _default_table


def run_trial(
    scenario: Scenario,
    method: Method,
    situation: ViewingSituation,
    seed: int,
    mode: TrialMode = "full",
    trial_id: int = 0,
    trace: TraceWriter | None = None,
) -> TrialRecord:
    return run_trial_detailed(
        scenario, method, situation, seed, mode=mode, trial_id=trial_id, trace=trace
    ).record


def run_trial_detailed(
    scenario: Scenario,
    method: Method,
    situation: ViewingSituation,
    seed: int,
    mode: TrialMode = "full",
    trial_id: int = 0,
    trace: TraceWriter | None = None,
    collect_ticks: bool = False,
) -> TrialDetail:
    if mode not in TRIAL_MODES:
        raise ValueError(f"unknown trial mode {mode!r}")
    if mode == "event":
        seeds = np.asarray([seed])
        batch = _run_event_batch(scenario, method, situation, seeds, trial_id)
        events = tuple(batch.events(0))
        if trace:
            _trace_events(trace, events)
        return TrialDetail(record=batch.records[0], events=events, ticks=None)
    return _run_ticks(
        scenario, method, situation, seed, mode, trial_id, trace, collect_ticks
    )


def _plan_response(
    window_start_s: float,
    latency_s: float | np.ndarray,
    bearing_to_robot_deg: float,
) -> tuple[np.ndarray, np.ndarray]:
    """When the visitor starts turning and when the face gate opens, for
    one latency draw or an array of them.

    The latency draw is the time from window start until the eyes land on
    the robot, so the turn is scheduled backward from that arrival. The
    gate opens once the remaining gaze offset is inside the face
    tolerance, a moment before arrival.
    """
    b0 = abs(bearing_to_robot_deg)
    turn_s = b0 / HEAD_TURN_SPEED_DEG_S
    arrival_s = window_start_s + np.maximum(latency_s, turn_s)
    fire_s = arrival_s - turn_s
    detect_s = arrival_s - min(b0, FACE_TOLERANCE_DEG) / HEAD_TURN_SPEED_DEG_S
    return fire_s, detect_s


def _frame_draws(
    seed: int, full: bool
) -> Iterator[tuple[tuple[float, float], int | None, int | None]]:
    """Each frame's draws of a tick-mode trial, from frame 0 on: the head
    tracker's yaw and pitch standard normals, then in full mode the laser
    and filter seeds (None in ideal mode). They are those of the scalar
    streams (seed, STREAM_HEAD, frame) and derive_seed(seed, STREAM_LASER
    or STREAM_FILTER, frame), computed over a block of frames at a time.
    The first block has FRAME_BLOCK frames; each later one is as long as
    the trial so far, so a long trial needs few blocks."""
    start = 0
    while True:
        frames = np.arange(start, start + max(FRAME_BLOCK, start))
        head = derive_rngs(seed, STREAM_HEAD, frames)
        noise = zip(head.normal(0.0, 1.0).tolist(), head.normal(0.0, 1.0).tolist())
        if full:
            laser = derive_seeds(seed, STREAM_LASER, frames).tolist()
            filter_ = derive_seeds(seed, STREAM_FILTER, frames).tolist()
            yield from zip(noise, laser, filter_)
        else:
            yield from zip(noise, repeat(None), repeat(None))
        start += len(frames)


def _run_ticks(
    scenario: Scenario,
    method: Method,
    situation: ViewingSituation,
    seed: int,
    mode: TrialMode,
    trial_id: int,
    trace: TraceWriter | None,
    collect_ticks: bool,
) -> TrialDetail:
    painting = scenario.painting_for(situation)
    human = make_human(scenario, painting.painting_id)
    cstate = make_controller(method)
    srm = SrmState()
    robot = scenario.robot_pose
    seat = scenario.human_seat
    seat_to_robot_deg = bearing_to(seat.position, robot.position)
    seat_bearing_deg = relative_bearing(robot, seat.position)
    robot_distance_m = math.hypot(seat.x - robot.x, seat.y - robot.y)
    draws = _frame_draws(seed, full=mode == "full")

    tracker: BodyTracker | None = None
    if mode == "full":
        filter_config = FilterConfig(
            body_semi_major_m=scenario.body_semi_major_m,
            body_semi_minor_m=scenario.body_semi_minor_m,
        )
        tracker = BodyTracker(
            filter_config, guess=seat, seed=derive_seed(seed, STREAM_INIT)
        )

    events_all: list[RobotEvent] = []
    ticks: list[TickSample] = []
    drawn_gaze_s: float | None = None
    measured_latency_s: float | None = None
    responding_action: RobotAction | None = None
    prev_attending = human.attending
    prev_confirmed = srm.confirmed

    frame = 0
    while True:
        t = frame / 30.0
        if t > TRIAL_TIME_CAP_S:
            raise TrialAbortError(
                f"trial exceeded {TRIAL_TIME_CAP_S} s without a terminal event "
                f"(trial {trial_id}, {method.value})"
            )
        head_noise, laser_seed, filter_seed = next(draws)
        human_step(human, scenario, t, TICK_S)
        if trace and human.attending != prev_attending:
            trace.emit(t, "human", "attending", {"target": human.attending})
            prev_attending = human.attending

        if tracker is not None:
            body_pose = Pose2(seat.x, seat.y, human.body_theta_deg)
            scan = synthesize_scan(
                scenario.sensor_pose,
                EllipseBody(
                    body_pose,
                    semi_major_m=scenario.body_semi_major_m,
                    semi_minor_m=scenario.body_semi_minor_m,
                ),
                seed=laser_seed,
            )
            estimate = tracker.step(scan, seed=filter_seed)
            theta_rel = body_orientation_for_srm(estimate, robot)
            if trace:
                trace.emit(
                    t,
                    "btm",
                    "estimate",
                    {
                        "frame": frame,
                        "x": estimate.x,
                        "y": estimate.y,
                        "theta_deg": estimate.theta_deg,
                        "distance_m": estimate.distance_m,
                        "n_effective": estimate.n_effective,
                        "converged": estimate.converged,
                    },
                )
        else:
            estimate = None
            theta_rel = normalize_angle(human.body_theta_deg - seat_to_robot_deg)

        observation = observe_head(
            human.head, scenario.camera_pose, frame=frame, noise=head_noise
        )
        if trace:
            trace.emit(
                t,
                "hdtm",
                "observation",
                {
                    "frame": frame,
                    "valid": observation.valid,
                    "yaw_deg": observation.yaw_deg,
                    "pitch_deg": observation.pitch_deg,
                },
            )
        instant = classify_instant(observation, theta_rel)
        srm = srm_update(srm, instant)
        if trace and srm.confirmed is not prev_confirmed:
            trace.emit(t, "srm", "confirmed", {"situation": srm.confirmed})
            prev_confirmed = srm.confirmed

        confirmed_input = situation if srm.confirmed is situation else None
        if (
            cstate.phase is Phase.OBSERVE
            and confirmed_input is None
            and t >= ABORT_BUDGET_S
        ):
            raise TrialAbortError(
                f"recognizer did not confirm {situation.value} within "
                f"{ABORT_BUDGET_S:.0f} s (trial {trial_id}, {method.value})"
            )

        face = human.attending == ROBOT_TARGET and face_detected(
            gaze_bearing_to(human, robot.position), robot_distance_m
        )
        if estimate is not None and estimate.converged:
            bearing_input = relative_bearing(robot, (estimate.x, estimate.y))
        else:
            bearing_input = seat_bearing_deg

        prev_phase = cstate.phase
        cstate, events = controller_step(
            cstate,
            ControllerInputs(
                confirmed=confirmed_input,
                face_detected=face,
                human_bearing_deg=bearing_input,
            ),
            t,
            TICK_S,
        )

        if cstate.phase is Phase.AWAIT_RESPONSE and prev_phase is not Phase.AWAIT_RESPONSE:
            action = cstate.action
            assert action is not None and cstate.window_start_s is not None
            ok, latency = respond(
                action,
                situation,
                _table(),
                derive_seed(seed, STREAM_RESPOND, cstate.plan_cursor),
            )
            if ok:
                assert latency is not None
                drawn_gaze_s = gaze_duration(
                    method.ensure_blink, derive_seed(seed, STREAM_GAZE)
                )
                fire_s, _ = _plan_response(
                    cstate.window_start_s,
                    latency,
                    gaze_bearing_to(human, robot.position),
                )
                schedule_response(human, float(fire_s), drawn_gaze_s)

        for event in events:
            if event.kind is EventKind.FACE_DETECTED:
                assert cstate.window_start_s is not None
                measured_latency_s = t - cstate.window_start_s
                responding_action = cstate.action
            if trace:
                trace.emit(t, "ctrl", event.kind.value, event.detail)
        events_all.extend(events)
        if collect_ticks:
            ticks.append(TickSample(t, cstate.pan_deg, cstate.tilt_deg))
        if cstate.terminal:
            break
        frame += 1

    succeeded = cstate.succeeded
    record = TrialRecord(
        trial_id=trial_id,
        method=method,
        situation=situation,
        responded=succeeded,
        responding_action=responding_action if succeeded else None,
        response_latency_s=measured_latency_s if succeeded else None,
        gaze_time_s=drawn_gaze_s if succeeded else None,
        seed=seed,
    )
    return TrialDetail(
        record=record,
        events=tuple(events_all),
        ticks=tuple(ticks) if collect_ticks else None,
    )


def _analytic_confirm_s(situation: ViewingSituation) -> float:
    """When the recognizer settles, measured from trial start: the visitor
    turns from facing the robot toward the painting, crossing the band
    threshold, then the persistence counter must fill."""
    if situation is ViewingSituation.CFOV:
        stable_s = 0.0
    elif situation is ViewingSituation.NPFOV:
        stable_s = CENTRAL_HALF_WIDTH_DEG / HEAD_TURN_SPEED_DEG_S
    elif situation is ViewingSituation.FPFOV:
        stable_s = NEAR_PERIPHERAL_LIMIT_DEG / HEAD_TURN_SPEED_DEG_S
    else:
        stable_s = max(
            OUT_OF_VIEW_BODY_DEG / HEAD_TURN_SPEED_DEG_S,
            OUT_OF_VIEW_BODY_DEG / BODY_TURN_SPEED_DEG_S,
        )
    return stable_s + PERSISTENCE_FRAMES / 30.0


class _EventCell(NamedTuple):
    """The closed-form timeline of one (method, situation) cell. The robot's
    moves up to each prompt's response window depend on no draw, because a
    prompt is only reached when every earlier window expired."""

    method: Method
    situation: ViewingSituation
    prompts: tuple[tuple[RobotEvent, ...], ...]  # each prompt up to its window
    window_starts: tuple[float, ...]
    gaze_offset_deg: float


def _event_cell(
    scenario: Scenario, method: Method, situation: ViewingSituation
) -> _EventCell:
    painting = scenario.painting_for(situation)
    robot = scenario.robot_pose
    seat = scenario.human_seat
    seat_to_robot_deg = bearing_to(seat.position, robot.position)
    gaze_offset_deg = normalize_angle(
        scenario.painting_world_yaw(painting) - seat_to_robot_deg
    )
    target_pan_deg = clamp_pan(relative_bearing(robot, seat.position))

    t = _analytic_confirm_s(situation)
    pan = 0.0
    prompts = []
    window_starts = []
    for action in method.capture_plan:
        if action is RobotAction.HT:
            start = RobotEvent(t, EventKind.HEAD_TURN_START)
            t += abs(target_pan_deg - pan) / TURN_SPEED_DEG_S
            pan = target_pan_deg
            prompts.append((start, RobotEvent(t, EventKind.HEAD_TURN_END)))
        elif action is RobotAction.HS:
            start = RobotEvent(t, EventKind.HEAD_SHAKE_START)
            t += 4.0 * SHAKE_HALF_SWING_DEG / SHAKE_SPEED_DEG_S
            prompts.append((start, RobotEvent(t, EventKind.HEAD_SHAKE_END)))
        else:
            prompts.append((RobotEvent(t, EventKind.UTTERANCE, UTTERANCE_TEXT),))
            t += UTTERANCE_DURATION_S
        window_starts.append(t)
        t += RESPONSE_WINDOW_S
    return _EventCell(
        method, situation, tuple(prompts), tuple(window_starts), gaze_offset_deg
    )


def _event_outcomes(
    cell: _EventCell, seeds: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every trial of a cell at once: the index of the prompt each trial
    responds to (-1 when none does), when the face gate opens, and the
    gaze span. The draws are those of `respond` and `gaze_duration` on
    the same streams, computed over arrays."""
    n = len(seeds)
    cursor = np.full(n, -1)
    detect_s = np.full(n, math.nan)
    gaze_s = np.full(n, math.nan)
    pending = np.arange(n)
    for k, action in enumerate(cell.method.capture_plan):
        rngs = derive_rngs(derive_seeds(seeds[pending], STREAM_RESPOND, k))
        ok = rngs.random() < _table().probability(action, cell.situation)
        latency_s = rngs.uniform(LATENCY_MIN_S, LATENCY_MAX_S)[ok]
        hit = pending[ok]
        cursor[hit] = k
        _, detect_s[hit] = _plan_response(
            cell.window_starts[k], latency_s, cell.gaze_offset_deg
        )
        pending = pending[~ok]
        if not len(pending):
            break
    hit = np.flatnonzero(cursor >= 0)
    if len(hit):
        gaze_s[hit] = gaze_durations(
            cell.method.ensure_blink, derive_rngs(derive_seeds(seeds[hit], STREAM_GAZE))
        )
    return cursor, detect_s, gaze_s


class _EventBatch(NamedTuple):
    """The trials of one cell run by the event engine."""

    cell: _EventCell
    records: Records
    cursor: np.ndarray
    detect_s: np.ndarray

    def events(self, i: int) -> list[RobotEvent]:
        return _event_timeline(self.cell, int(self.cursor[i]), float(self.detect_s[i]))


def _run_event_batch(
    scenario: Scenario,
    method: Method,
    situation: ViewingSituation,
    seeds: np.ndarray,
    first_trial_id: int,
) -> _EventBatch:
    """Trials of one cell with consecutive ids, from their seeds."""
    cell = _event_cell(scenario, method, situation)
    cursor, detect_s, gaze_s = _event_outcomes(cell, seeds)
    # Cursor -1, no response, takes the trailing -1.
    plan = np.array([ACTIONS.index(a) for a in method.capture_plan] + [-1], np.int8)
    n = len(seeds)
    records = Records(
        trial_id=np.arange(first_trial_id, first_trial_id + n, dtype=np.int64),
        method=np.full(n, METHODS.index(method), np.int8),
        situation=np.full(n, SITUATIONS.index(situation), np.int8),
        action=plan[cursor],
        latency=detect_s - np.asarray(cell.window_starts)[np.maximum(cursor, 0)],
        gaze=gaze_s,
        seed=seeds,
    )
    return _EventBatch(cell, records, cursor, detect_s)


def _event_timeline(cell: _EventCell, cursor: int, detect_s: float) -> list[RobotEvent]:
    """One trial's events, from the prompt it responded to and when."""
    events: list[RobotEvent] = []
    for k, prompt in enumerate(cell.prompts):
        events.extend(prompt)
        if k == cursor:
            events.append(RobotEvent(detect_s, EventKind.FACE_DETECTED))
            if cell.method.ensure_blink:
                for i in range(3):
                    events.append(RobotEvent(detect_s + float(i), EventKind.BLINK_PULSE))
            events.append(RobotEvent(detect_s + 3.0, EventKind.SUCCESS))
            return events
        events.append(
            RobotEvent(cell.window_starts[k] + RESPONSE_WINDOW_S, EventKind.WINDOW_EXPIRED)
        )
    events.append(RobotEvent(events[-1].time_s, EventKind.FAILURE))
    return events


def _trace_events(trace: TraceWriter, events: Iterable[RobotEvent]) -> None:
    for event in events:
        trace.emit(event.time_s, "ctrl", event.kind.value, event.detail)


def trial_seeds(
    base_seed: int, method: Method, situation: ViewingSituation, n: int
) -> np.ndarray:
    """Per-trial seeds of reps 0..n-1, as uint64: element i is
    derive_seed(base_seed, method index, situation index, i), so a seed is
    stable under subsetting methods or situations."""
    return derive_seeds(
        base_seed, METHODS.index(method), SITUATIONS.index(situation), np.arange(n)
    )


def trial_identifier(
    method: Method, situation: ViewingSituation, rep: int, n_per_cell: int
) -> int:
    """Canonical trial id: stable across method/situation subsets."""
    m = METHODS.index(method)
    s = SITUATIONS.index(situation)
    return (m * len(SITUATIONS) + s) * n_per_cell + rep


def _trial_worker(
    args: tuple[Scenario, Method, ViewingSituation, int, str, int, str | None],
) -> TrialRecord:
    scenario, method, situation, seed, mode, trial_id, trace_path = args
    if trace_path is None:
        return run_trial(scenario, method, situation, seed, mode=mode, trial_id=trial_id)
    with open(trace_path, "w", encoding="utf-8") as fp:
        return run_trial(
            scenario,
            method,
            situation,
            seed,
            mode=mode,
            trial_id=trial_id,
            trace=TraceWriter(fp),
        )


def _trace_path(trace_dir: Path | None, trial_id: int) -> str | None:
    return str(trace_dir / f"trial_{trial_id:06d}.jsonl") if trace_dir else None


def run_experiment(
    config: RunConfig,
    mode: TrialMode = "event",
    jobs: int = 1,
    trace_dir: str | Path | None = None,
) -> Records:
    """All trials of the crossed design, sorted by trial id.

    Seeds depend only on (base_seed, method, situation, rep), so a subset
    run reproduces the corresponding records of the full design exactly,
    and workers can run trials in any order. Event mode runs each cell as
    one batch in this process, whatever `jobs` says. The tick modes run
    trial by trial on a pool that never holds more workers than there are
    cores or trials.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    if mode not in TRIAL_MODES:
        raise ValueError(f"unknown trial mode {mode!r}")
    if trace_dir is not None:
        trace_dir = Path(trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
    n = config.n_per_cell
    # In trial id order: each cell's ids are one consecutive block.
    cells = sorted(
        [
            (trial_identifier(method, situation, 0, n), method, situation,
             trial_seeds(config.base_seed, method, situation, n))
            for method in config.methods
            for situation in config.situations
        ],
        key=lambda cell: cell[0],
    )
    if mode == "event":
        parts = []
        for first_id, method, situation, seeds in cells:
            batch = _run_event_batch(config.scenario, method, situation, seeds, first_id)
            parts.append(batch.records)
            if trace_dir is None:
                continue
            for i in range(len(seeds)):
                path = _trace_path(trace_dir, first_id + i)
                with open(path, "w", encoding="utf-8") as fp:
                    _trace_events(TraceWriter(fp), batch.events(i))
        records = Records.concat(parts)
    else:
        tasks = [
            (config.scenario, method, situation, seed, mode, first_id + rep,
             _trace_path(trace_dir, first_id + rep))
            for first_id, method, situation, seeds in cells
            for rep, seed in enumerate(seeds.tolist())
        ]
        workers = min(jobs, os.cpu_count() or 1, len(tasks))
        if workers > 1:
            chunk = max(1, len(tasks) // (workers * 8))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(_trial_worker, tasks, chunksize=chunk))
        else:
            rows = [_trial_worker(task) for task in tasks]
        records = Records.from_rows(rows)
    return records
