"""Trial and experiment drivers.

A trial seats the visitor in front of one painting, lets the recognizer
settle on the intended viewing situation, then runs the robot's
escalation protocol against the stochastic visitor. Each prompt opens a
response window; the trial succeeds in the window the visitor answers, or
fails once the plan is spent. Each trial's answer (the prompt, the latency
and the gaze span) is drawn in one place for the three fidelity modes,
`human.draw_answers`, over arrays, so its decisions are the same in each. A
design draws them over as many whole cells at once as RESPONSE_BATCH holds
(`_design_responses`), and hands each engine its cell's; a trial draws its own.

- "full":  sensors simulated end to end (laser scans, particle filter,
           noisy head camera), 30 fps tick loop. Untraced, it senses only
           while the controller reads it (`ControllerState.reads_sensors`).
- "ideal": tick loop with ground-truth body orientation and the noisy head
           camera; no laser or filter. Untraced, it senses no frame: the
           visitor's turn is stepped once per room (`_settling`), and the
           recognizer labels its views plus each trial's head noise over
           arrays (`_confirm_frames`). Untraced, both tick modes skip frames
           where the controller and the visitor are idle (`idle_until_s`);
           traced, they step and sense every frame.
- "event": untraced ideal mode without head noise. Event and untraced ideal
           designs share one cell engine, `_cell_batch`: the trials that
           confirm on one frame share one seedless `_run_ticks` run, which
           steps on to Failure (event mode's aborts name the "event cell"),
           and each responder's record comes from the `_Window` it answers,
           at its face instant from `_plan_response`, on a frame in ideal mode.
"""
from __future__ import annotations

import math
import os
from contextlib import nullcontext
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from itertools import count, repeat
from pathlib import Path
from typing import Iterable, Iterator, Literal, NamedTuple

import numpy as np

from .body_tracker import BodyTracker, body_orientation_for_srm
from .config import ConfigError, RunConfig
from .controller import (
    ControllerInputs,
    ControllerState,
    EventKind,
    FACE_TOLERANCE_DEG,
    FRAME_RATE_HZ,
    Method,
    METHODS,
    Phase,
    RobotEvent,
    TIME_EPS_S,
    controller_step,
    face_detected,
    make_controller,
)
from .geometry import Pose2, bearing_to, normalize_angle, normalize_angles, relative_bearing
from .head_tracker import NOISE_SIGMA_DEG, TRACKING_LIMIT_DEG, observe_head, relative_yaw_deg
from .human import (
    HEAD_TURN_SPEED_DEG_S,
    HumanState,
    ROBOT_TARGET,
    draw_answers,
    gaze_bearing_to,
    human_step,
    idle_until_s,
    make_human,
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
    STREAM_HEAD,
    STREAM_INIT,
    STREAM_LASER,
    derive_rngs,
    derive_seed,
    derive_seeds,
)
from .situation import (
    PERSISTENCE_FRAMES,
    SITUATIONS,
    SrmState,
    ViewingSituation,
    classify_instant,
    classify_instants,
    srm_update,
)
from .trace import TraceWriter

ABORT_BUDGET_S = 10.0
TRIAL_TIME_CAP_S = 60.0
# Frames in the first block of a tick-mode trial's per-frame draws, and in
# each block of an ideal cell's head noise. The recognizer confirms on frame
# 29 to 74 in the default room, so one block covers it. Each block costs
# about 0.3-0.5 ms of NumPy call overhead whatever its length.
FRAME_BLOCK = 80
CONFIRM_CHUNK = 256  # trials whose head noise is drawn at once
RESPONSE_BATCH = 4096  # trials whose answers are drawn at once, in whole cells

TrialMode = Literal["full", "ideal", "event"]
TRIAL_MODES = ("full", "ideal", "event")

class TrialAbortError(RuntimeError):
    """A tick-mode trial cannot finish: the recognizer never confirmed the
    intended situation within the startup budget, or the trial passed the
    trial time cap without a terminal event."""


@dataclass(frozen=True)
class TrialDetail:
    record: TrialRecord
    events: tuple[RobotEvent, ...]


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
) -> TrialDetail:
    if mode not in TRIAL_MODES:
        raise ValueError(f"unknown trial mode {mode!r}")
    seeds = np.asarray([seed])
    answer = draw_answers(seeds, METHODS.index(method), SITUATIONS.index(situation))
    if mode == "event":
        batch = _cell_batch(scenario, trial_id, method, situation, seeds, answer, mode)
        events = tuple(batch.events(0))
        if trace:
            _trace_events(trace, events)
        return TrialDetail(record=batch.records[0], events=events)
    untraced_ideal = mode == "ideal" and not trace
    confirm = int(_confirm_frames(scenario, situation, seeds)[0]) if untraced_ideal else None
    answer = next(zip(*(a.tolist() for a in answer)))
    return _run_ticks(scenario, method, situation, seed, mode, trial_id, trace, confirm, answer)[0]


def _design_responses(cells: list, n: int) -> Iterator[tuple[tuple, tuple[np.ndarray, ...]]]:
    """Each (first id, method, situation, seeds) cell of n trials with its
    `draw_answers`, drawn over as many whole cells at once as RESPONSE_BATCH holds."""
    step = max(1, RESPONSE_BATCH // n)
    for batch in (cells[i:i + step] for i in range(0, len(cells), step)):
        _, methods, situations, seeds = zip(*batch)
        answers = draw_answers(np.concatenate(seeds),
                               np.repeat(list(map(METHODS.index, methods)), n),
                               np.repeat(list(map(SITUATIONS.index, situations)), n))
        yield from zip(batch, zip(*(column.reshape(len(batch), n) for column in answers)))


def _plan_response(window_start_s: float | np.ndarray, latency_s: float | np.ndarray,
                   bearing_to_robot_deg: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """When the visitor starts turning and when the face gate opens, for
    one response or an array of them.

    The latency draw is the time from window start until the eyes land on
    the robot, so the turn is scheduled backward from that arrival. The
    gate opens once the remaining gaze offset is inside the face
    tolerance, a moment before arrival.
    """
    b0 = np.abs(bearing_to_robot_deg)
    turn_s = b0 / HEAD_TURN_SPEED_DEG_S
    arrival_s = window_start_s + np.maximum(latency_s, turn_s)
    fire_s = arrival_s - turn_s
    detect_s = arrival_s - np.minimum(b0, FACE_TOLERANCE_DEG) / HEAD_TURN_SPEED_DEG_S
    return fire_s, detect_s


def _head_noise(seed, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The head tracker's yaw and pitch standard normals on each frame: the
    first two draws of stream (seed, STREAM_HEAD, frame), element-wise over
    the seeds and frames as in `derive_rngs`."""
    head = derive_rngs(seed, STREAM_HEAD, frames)
    return head.normal(0.0, 1.0), head.normal(0.0, 1.0)


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
        noise = zip(*(z.tolist() for z in _head_noise(seed, frames)))
        if full:
            laser = derive_seeds(seed, STREAM_LASER, frames).tolist()
            filter_ = derive_seeds(seed, STREAM_FILTER, frames).tolist()
            yield from zip(noise, laser, filter_)
        else:
            yield from zip(noise, repeat(None), repeat(None))
        start += len(frames)


def _wake_frame(frame: int, wake_s: float | None) -> int:
    """The next frame to step when nothing changes before wake_s: a tick or
    two short of it, so each comparison still first holds on a stepped frame."""
    return frame if wake_s is None else max(frame, int(wake_s * FRAME_RATE_HZ) - 1)


@lru_cache(maxsize=16)
def _settling(scenario: Scenario, situation: ViewingSituation) -> tuple:
    """The visitor's seedless turn to the situation's painting, by `human_step`
    from `make_human` until `idle_until_s` is set: the state after each frame,
    then the true head yaw off the camera, head pitch and body angle off the
    seat-to-robot bearing on each frame. Shared, so a state is copied to step."""
    human = make_human(scenario, scenario.painting_for(situation).painting_id)
    to_robot = bearing_to(scenario.human_seat.position, scenario.robot_pose.position)
    states, views = [], []
    for frame in count():
        human_step(human, scenario, frame / FRAME_RATE_HZ)
        states.append(replace(human))
        yaw = relative_yaw_deg(human.head, scenario.camera_pose)
        views.append((yaw, human.head.pitch_deg, normalize_angle(human.body_theta_deg - to_robot)))
        if idle_until_s(human, scenario) is not None:
            return tuple(states), *np.array(views).T


def _confirm_frames(
    scenario: Scenario, situation: ViewingSituation, seeds: np.ndarray | None
) -> np.ndarray:
    """Each seed's ideal-mode confirm frame: the first that closes
    PERSISTENCE_FRAMES labels of the situation in a row, by `classify_instant`
    on `_settling`'s views plus head noise, drawn FRAME_BLOCK frames at a time
    for the trials not yet confirmed; else the frame past the abort budget.
    Without seeds, one trial without noise."""
    _, true_yaw, true_pitch, theta_rel = _settling(scenario, situation)
    last = int(ABORT_BUDGET_S * FRAME_RATE_HZ)
    confirm = np.full(1 if seeds is None else len(seeds), last + 1)
    for chunk in range(0, len(confirm), CONFIRM_CHUNK):
        rows = np.arange(chunk, min(chunk + CONFIRM_CHUNK, len(confirm)))
        last_miss = np.full(len(rows), -1)
        for start in range(0, last + 1, FRAME_BLOCK):
            frames = np.arange(start, min(start + FRAME_BLOCK, last + 1))
            view = np.minimum(frames, len(true_yaw) - 1)
            noise = 0.0
            if seeds is not None:
                keys = np.repeat(seeds[rows], len(frames)), np.tile(frames, len(rows))
                noise = np.reshape(_head_noise(*keys), (2, len(rows), len(frames)))
            true = np.stack([true_yaw[view], true_pitch[view]])[:, None]
            yaw, pitch = normalize_angles(true + (0.0 + NOISE_SIGMA_DEG * noise))
            valid = np.abs(true_yaw[view]) <= TRACKING_LIMIT_DEG
            labels = classify_instants(valid, yaw, pitch, theta_rel[view])
            misses = np.where(labels == SITUATIONS.index(situation), -1, frames)
            last_miss = np.maximum(np.maximum.accumulate(misses, axis=1), last_miss[:, None])
            done = frames - last_miss >= PERSISTENCE_FRAMES
            hit = done.any(axis=1)
            confirm[rows[hit]] = frames[done[hit].argmax(axis=1)]
            rows, last_miss = rows[~hit], last_miss[~hit, -1]
            if not len(rows):
                break
    return confirm


class _Window(NamedTuple):
    """A response window as it opens: the controller, the run's events so
    far, a copy of the visitor and the frame."""

    controller: ControllerState
    events: tuple[RobotEvent, ...]
    visitor: HumanState
    frame: int


def _run_ticks(
    scenario: Scenario, method: Method, situation: ViewingSituation, seed: int | None,
    mode: TrialMode, trial_id: int, trace: TraceWriter | None, confirm: int | None,
    answer: tuple[int, float, float] = (-1, math.nan, math.nan),
) -> tuple[TrialDetail, list[_Window]]:
    """One tick-mode trial, and a `_Window` as each response window opens.
    Once window k of the `answer` (k, latency_s, gaze_s) from `draw_answers`
    opens, the visitor is scheduled to respond. Without a seed or an answer
    the run is a `_cell_batch` cell's: no head camera noise, and the
    visitor never turns to the robot. Given its confirm frame (untraced
    ideal mode), the trial senses nothing: it starts a tick or two short of
    that frame, with the visitor `_settling` gives there. Aborts name the
    trial, or the event cell if trial_id is None."""
    human = make_human(scenario, scenario.painting_for(situation).painting_id)
    cstate = make_controller(method)
    srm = SrmState()
    robot = scenario.robot_pose
    seat = scenario.human_seat
    seat_to_robot_deg = bearing_to(seat.position, robot.position)
    seat_bearing_deg = relative_bearing(robot, seat.position)
    draws = _frame_draws(seed, full=mode == "full")
    run = "event cell" if trial_id is None else f"trial {trial_id}"

    tracker: BodyTracker | None = None
    if mode == "full":
        tracker = BodyTracker(
            (scenario.body_semi_major_m, scenario.body_semi_minor_m),
            guess=seat,
            seed=derive_seed(seed, STREAM_INIT),
        )

    events_all: list[RobotEvent] = []
    windows: list[_Window] = []
    k, latency_s, gaze_s = answer

    frame = 0
    if confirm is not None:
        frame = _wake_frame(frame, confirm / FRAME_RATE_HZ)
        states = _settling(scenario, situation)[0]
        human = replace(states[min(frame, len(states)) - 1]) if frame else human
    while True:
        if cstate.phase is Phase.AWAIT_RESPONSE and cstate.plan_cursor == k:
            # Window k opened on the frame before: the visitor answers it.
            fire_s, _ = _plan_response(
                cstate.window_start_s, latency_s, gaze_bearing_to(human, robot.position)
            )
            schedule_response(human, float(fire_s), gaze_s)
            k = -1
        if not trace:
            wake = cstate.idle_until_s
            # EnsureAttention ignores its inputs; elsewhere the visitor counts.
            if wake is not None and cstate.phase is not Phase.ENSURE_ATTENTION:
                visitor = idle_until_s(human, scenario)
                wake = None if visitor is None else min(wake, visitor)
            frame = _wake_frame(frame, wake)
        t = frame / FRAME_RATE_HZ
        if t > TRIAL_TIME_CAP_S:
            raise TrialAbortError(
                f"trial exceeded {TRIAL_TIME_CAP_S} s without a terminal event "
                f"({run}, {method.value})"
            )
        attending = human.attending
        human_step(human, scenario, t)
        if trace and human.attending != attending:
            trace.emit(t, "human", "attending", {"target": human.attending})

        confirmed_input = bearing_input = None
        if confirm is not None:
            confirmed_input = situation if frame >= confirm else None
            bearing_input = seat_bearing_deg
        elif trace or cstate.reads_sensors:
            head_noise, laser_seed, filter_seed = next(draws)
            bearing_input = seat_bearing_deg
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
                if estimate.converged:
                    bearing_input = relative_bearing(robot, (estimate.x, estimate.y))
                if trace:
                    trace.emit(t, "btm", "estimate", {"frame": frame, **asdict(estimate)})
            else:
                theta_rel = normalize_angle(human.body_theta_deg - seat_to_robot_deg)

            observation = observe_head(
                human.head, scenario.camera_pose, frame=frame, noise=head_noise
            )
            if trace:
                trace.emit(t, "hdtm", "observation", observation)
            instant = classify_instant(observation, theta_rel)
            prior, srm = srm, srm_update(srm, instant)
            if trace and srm.confirmed is not prior.confirmed:
                trace.emit(t, "srm", "confirmed", {"situation": srm.confirmed})
            confirmed_input = situation if srm.confirmed is situation else None

        if cstate.phase is Phase.OBSERVE and confirmed_input is None and t >= ABORT_BUDGET_S:
            raise TrialAbortError(
                f"recognizer did not confirm {situation.value} within "
                f"{ABORT_BUDGET_S:.0f} s ({run}, {method.value})"
            )

        face = human.attending == ROBOT_TARGET and face_detected(
            gaze_bearing_to(human, robot.position)
        )
        prev_phase = cstate.phase
        cstate, events = controller_step(
            cstate,
            ControllerInputs(
                confirmed=confirmed_input,
                face_detected=face,
                human_bearing_deg=bearing_input,
            ),
            t,
        )
        events_all.extend(events)

        if cstate.phase is Phase.AWAIT_RESPONSE and prev_phase is not Phase.AWAIT_RESPONSE:
            windows.append(_Window(cstate, tuple(events_all), replace(human), frame))
        if trace:
            _trace_events(trace, events)
        if cstate.terminal:
            break
        frame += 1

    succeeded = cstate.succeeded
    face_s = next((e.time_s for e in events_all if e.kind is EventKind.FACE_DETECTED), None)
    outcome = (cstate.action, face_s - cstate.window_start_s, gaze_s) if succeeded else (None,) * 3
    record = TrialRecord(trial_id, method, situation, succeeded, *outcome, seed)
    return TrialDetail(record=record, events=tuple(events_all)), windows


def _cell_records(
    method: Method, situation: ViewingSituation, seeds: np.ndarray, first_id: int,
    cursor: np.ndarray, latency_s: np.ndarray, gaze_s: np.ndarray,
) -> Records:
    """A cell's records with consecutive ids, from each trial's answered
    prompt (-1 for none), latency and gaze span (NaN for none)."""
    plan = np.array([ACTIONS.index(a) for a in method.capture_plan] + [-1], np.int8)
    n = len(seeds)
    return Records(np.arange(first_id, first_id + n, dtype=np.int64),
                   np.full(n, METHODS.index(method), np.int8),
                   np.full(n, SITUATIONS.index(situation), np.int8),
                   plan[cursor], latency_s, gaze_s, seeds)


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


def _fire_frames(fire_s: np.ndarray, first: int) -> np.ndarray:
    """The frame the tick loop fires each response on: the first f >= first
    with f / FRAME_RATE_HZ >= fire_s. The ceiling of fire_s in frames, moved
    a frame where its rounding and that comparison disagree."""
    frames = np.maximum(np.ceil(fire_s * FRAME_RATE_HZ).astype(np.int64), first)
    frames -= (frames > first) & ((frames - 1) / FRAME_RATE_HZ >= fire_s)
    return frames + (frames / FRAME_RATE_HZ < fire_s)


@lru_cache(maxsize=1024)
def _face_delay(scenario: Scenario, situation: ViewingSituation, start: int) -> int:
    """The frames a visitor in `_settling`'s state `start` steps after the
    one it fires on until the face gate opens. Once fired, its head turns to
    the robot whatever the clock, so the state alone decides."""
    human = replace(_settling(scenario, situation)[0][start], pending_fire_s=-math.inf)
    robot = scenario.robot_pose.position
    for delay in count():
        human_step(human, scenario, 0.0)
        if face_detected(gaze_bearing_to(human, robot)):
            return delay


class _CellBatch(NamedTuple):
    """A cell's trials run by `_cell_batch`, with the last seedless run they
    share: its events and the windows it opened (event mode's one run)."""

    run_events: tuple[RobotEvent, ...]
    windows: list[_Window]
    records: Records
    cursor: np.ndarray
    face_s: np.ndarray

    def events(self, i: int) -> list[RobotEvent]:
        """Event trial i's events: its window's, then the controller stepped on
        with the face at its instant and at each instant it waits for until done."""
        if self.cursor[i] < 0:
            return list(self.run_events)
        window = self.windows[self.cursor[i]]
        events, cstate = list(window.events), window.controller
        inputs, t = ControllerInputs(face_detected=True), float(self.face_s[i])
        while not cstate.terminal:
            cstate, step_events = controller_step(cstate, inputs, t)
            events.extend(step_events)
            inputs, t = ControllerInputs(), cstate.idle_until_s
        return events


def _cell_batch(
    scenario: Scenario, first_id: int, method: Method, situation: ViewingSituation,
    seeds: np.ndarray, answers: tuple[np.ndarray, ...], mode: TrialMode,
) -> _CellBatch:
    """A cell's event or untraced ideal trials with consecutive ids, from their
    seeds and answers. The trials that confirm on one frame share its seedless
    untraced ideal run, in the order of their first trial, which its aborts
    name; event trials all share the noise-free run, whose aborts name the
    event cell. A prompt is only reached when every earlier window expired,
    and once a window opens the controller reads only the face, so a
    responder's record is its face instant's from `_plan_response`. Ideal mode
    takes it on a frame: its fire frame, plus the turn of the run's visitor
    (`_settling`'s) on the frame before."""
    ideal = mode == "ideal"
    cursor, latency_s, gaze_s = answers
    confirms = _confirm_frames(scenario, situation, seeds if ideal else None)
    last = len(_settling(scenario, situation)[0]) - 1
    robot = scenario.robot_pose.position
    face_s = np.full(len(seeds), math.nan)
    for first in np.sort(np.unique(confirms, return_index=True)[1]).tolist():
        confirm, run = int(confirms[first]), first_id + first if ideal else None
        detail, windows = _run_ticks(scenario, method, situation, None, "ideal", run, None, confirm)
        for k, window in enumerate(windows):
            rows = np.flatnonzero((confirms == confirm) & (cursor == k))
            start_s = window.controller.window_start_s
            fire_s, face_s[rows] = _plan_response(
                start_s, latency_s[rows], gaze_bearing_to(window.visitor, robot))
            if ideal:
                fire = _fire_frames(fire_s, window.frame + 1)
                delays = [_face_delay(scenario, situation, i)
                          for i in np.minimum(fire - 1, last).tolist()]
                face_s[rows] = (fire + np.array(delays, np.int64)) / FRAME_RATE_HZ
                if (face_s[rows] >= window.controller.deadline_s - TIME_EPS_S).any():
                    raise RuntimeError(
                        f"a face at window {k}'s deadline (trial {run}, {method.value})")
            latency_s[rows] = face_s[rows] - start_s
    records = _cell_records(method, situation, seeds, first_id, cursor, latency_s, gaze_s)
    return _CellBatch(detail.events, windows, records, cursor, face_s)


def _cell_worker(args: tuple) -> Records:
    """`_cell_batch`'s records, with each trial's events traced to its file
    under the trace directory if one is given (event mode only)."""
    *cell, trace_dir = args
    batch = _cell_batch(*cell)
    for i, trial_id in enumerate(batch.records.trial_id.tolist() if trace_dir else ()):
        with open(_trace_path(trace_dir, trial_id), "w", encoding="utf-8") as fp:
            _trace_events(TraceWriter(fp), batch.events(i))
    return batch.records


def _trial_worker(
    args: tuple[Scenario, Method, ViewingSituation, int, str, int, str | None],
) -> Records:
    *trial, trace_path = args
    with open(trace_path, "w", encoding="utf-8") if trace_path else nullcontext() as fp:
        return Records.from_rows([run_trial(*trial, TraceWriter(fp) if fp else None)])


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
    and workers can run trials in any order. Event and untraced ideal designs
    run cell by cell (`_cell_batch`), the full and traced ones trial by trial,
    on a pool that never holds more workers than there are cores or tasks.
    Event mode runs in this process, whatever `jobs` says.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    if mode not in TRIAL_MODES:
        raise ValueError(f"unknown trial mode {mode!r}")
    trace_dir = None if trace_dir is None else Path(trace_dir)
    n = config.n_per_cell
    # In trial id order; each cell's block of ids is numbered as in the full design.
    cells = [
        ((m * len(SITUATIONS) + s) * n, method, situation,
         trial_seeds(config.base_seed, method, situation, n))
        for m, method in enumerate(METHODS) if method in config.methods
        for s, situation in enumerate(SITUATIONS) if situation in config.situations
    ]
    if mode == "event" or (mode == "ideal" and trace_dir is None):
        worker = _cell_worker
        tasks = [(config.scenario, *cell, answer, mode, trace_dir)
                 for cell, answer in _design_responses(cells, n)]
    else:
        worker = _trial_worker
        tasks = [
            (config.scenario, method, situation, seed, mode, first_id + rep,
             _trace_path(trace_dir, first_id + rep))
            for first_id, method, situation, seeds in cells
            for rep, seed in enumerate(seeds.tolist())
        ]
    if trace_dir is not None:  # once the design's seeds and answers are held
        trace_dir.mkdir(parents=True, exist_ok=True)
    workers = min(1 if mode == "event" else jobs, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        chunk = max(1, len(tasks) // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(worker, tasks, chunksize=chunk))
    else:
        parts = [worker(task) for task in tasks]
    return Records.concat(parts)
