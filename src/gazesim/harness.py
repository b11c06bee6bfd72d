"""Trial and experiment drivers.

A trial seats the visitor in front of one painting, lets the recognizer
settle on the intended viewing situation, then runs the robot's
escalation protocol against the stochastic visitor until it succeeds or
exhausts its plan. Three fidelity modes share one random-stream layout,
and each trial's answer (the prompt it responds to, the latency and the
gaze span) is drawn in one place for all of them, `_responses`, over
arrays. So a trial's decisions are identical whichever engine runs it:

- "full":  sensors simulated end to end (laser scans, particle filter,
           noisy head camera), 30 fps tick loop.
- "ideal": tick loop with ground-truth body orientation and the noisy head
           camera; no laser or filter. Untraced, it senses no frame: the
           visitor's turn to the painting is stepped once per room
           (`_settling`), the recognizer labels its views plus each trial's head
           noise over arrays, a cell's trials at once (`_confirm_frames`), and
           the loop starts at the confirm frame. A design's trials that confirm
           on one frame share one event-cell run; only responders step on,
           from the window they answer. Untraced full mode senses
           only while the controller reads it (`ControllerState.reads_sensors`).
           Untraced, both skip frames where it and the visitor are idle
           (`idle_until_s`); traced, they step and sense every frame.
- "event": the untraced ideal tick loop (`_run_ticks`) run once per cell with
           no seed: no head camera noise and no response, so the controller
           runs on to Failure. TRIAL_TIME_CAP_S bounds that run, and its aborts
           name the "event cell". A trial keeps the run up to the window it
           responds in, and steps the controller on from that window with the
           face at its drawn instant. The trials of a (method, situation)
           cell run as one batch: their face instants are computed over arrays
           (`_plan_response`), and their records fill `Records` columns.
"""
from __future__ import annotations

import math
import os
from contextlib import nullcontext
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from itertools import chain, count, repeat
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
    Method,
    METHODS,
    Phase,
    RobotAction,
    RobotEvent,
    controller_step,
    face_detected,
    make_controller,
)
from .geometry import Pose2, bearing_to, normalize_angle, normalize_angles, relative_bearing
from .head_tracker import NOISE_SIGMA_DEG, TRACKING_LIMIT_DEG, observe_head, relative_yaw_deg
from .human import (
    HEAD_TURN_SPEED_DEG_S,
    HumanState,
    LATENCY_MAX_S,
    LATENCY_MIN_S,
    ROBOT_TARGET,
    derive_response_table,
    gaze_bearing_to,
    gaze_durations,
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
    if mode == "event":
        batch = _run_event_batch(scenario, method, situation, seeds, trial_id)
        events = tuple(batch.events(0))
        if trace:
            _trace_events(trace, events)
        return TrialDetail(record=batch.records[0], events=events)
    untraced_ideal = mode == "ideal" and not trace
    confirm = int(_confirm_frames(scenario, situation, seeds)[0]) if untraced_ideal else None
    answer = next(zip(*(a.tolist() for a in _responses(method, situation, seeds))))
    return _run_ticks(scenario, method, situation, seed, mode, trial_id, trace, confirm, answer)[0]


def _responses(
    method: Method, situation: ViewingSituation, seeds: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each trial's answer: the index of the prompt it responds to (-1 when
    none does), the latency drawn there and the gaze span (NaN without a
    response). The one place any engine draws them: the draws of `respond`
    and `gaze_duration` on the per-decision streams, over arrays."""
    n = len(seeds)
    cursor = np.full(n, -1)
    latency_s, gaze_s = np.full((2, n), math.nan)
    pending = np.arange(n)
    table = derive_response_table()
    for k, action in enumerate(method.capture_plan):
        rngs = derive_rngs(derive_seeds(seeds[pending], STREAM_RESPOND, k))
        ok = rngs.random() < table[action][situation]
        latency_s[pending[ok]] = rngs.uniform(LATENCY_MIN_S, LATENCY_MAX_S)[ok]
        cursor[pending[ok]] = k
        pending = pending[~ok]
        if not len(pending):
            break
    hit = np.flatnonzero(cursor >= 0)
    if len(hit):
        gaze_s[hit] = gaze_durations(
            method.ensure_blink, derive_rngs(derive_seeds(seeds[hit], STREAM_GAZE))
        )
    return cursor, latency_s, gaze_s


def _plan_response(
    window_start_s: float | np.ndarray,
    latency_s: float | np.ndarray,
    bearing_to_robot_deg: float | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
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
    return frame if wake_s is None else max(frame, int(wake_s * 30.0) - 1)


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
        human_step(human, scenario, frame / 30.0)
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
    last = int(ABORT_BUDGET_S * 30.0)
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


def _run_ticks(
    scenario: Scenario,
    method: Method,
    situation: ViewingSituation,
    seed: int | None,
    mode: TrialMode,
    trial_id: int,
    trace: TraceWriter | None,
    confirm: int | None,
    answer: tuple[int, float, float] = (-1, math.nan, math.nan),
    resume: _EventCell | None = None,
) -> tuple[TrialDetail, list[tuple[ControllerState, int, HumanState, int]]]:
    """One tick-mode trial, and the controller, the number of events, a copy
    of the visitor and the frame as each response window opens. Once window
    k of the `answer` (k, latency_s, gaze_s) from `_responses` opens, the
    visitor is scheduled to respond. Without a seed or an answer the run is
    the event engine's cell: no head camera noise, and the visitor never
    turns to the robot. Given its confirm frame (untraced ideal mode), the
    trial senses nothing: it starts a tick or two short of that frame, with
    the visitor `_settling` gives there. Given `resume`, such a cell run, it
    goes on after window k's frame. Aborts name the trial, or the event cell
    if trial_id is None."""
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
    windows: list[tuple[ControllerState, int, HumanState, int]] = []
    k, latency_s, gaze_s = answer
    measured_latency_s: float | None = None
    responding_action: RobotAction | None = None
    prev_attending = human.attending
    prev_confirmed = srm.confirmed

    frame = 0
    if resume is not None:
        cstate, human, frame = resume.windows[k], replace(resume.visitors[k]), resume.frames[k] + 1
        events_all = list(resume.events[: resume.window_events[k]])
    elif confirm is not None:
        frame = _wake_frame(frame, confirm / 30.0)
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
        t = frame / 30.0
        if t > TRIAL_TIME_CAP_S:
            raise TrialAbortError(
                f"trial exceeded {TRIAL_TIME_CAP_S} s without a terminal event "
                f"({run}, {method.value})"
            )
        human_step(human, scenario, t)
        if trace and human.attending != prev_attending:
            trace.emit(t, "human", "attending", {"target": human.attending})
            prev_attending = human.attending

        confirmed_input = bearing_input = None
        if confirm is not None:
            confirmed_input = situation if frame >= confirm else None
            bearing_input = seat_bearing_deg
        elif trace or cstate.reads_sensors:
            head_noise, laser_seed, filter_seed = next(draws)
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
                    trace.emit(t, "btm", "estimate", {"frame": frame, **asdict(estimate)})
            else:
                estimate = None
                theta_rel = normalize_angle(human.body_theta_deg - seat_to_robot_deg)

            observation = observe_head(
                human.head, scenario.camera_pose, frame=frame, noise=head_noise
            )
            if trace:
                trace.emit(t, "hdtm", "observation", observation)
            instant = classify_instant(observation, theta_rel)
            srm = srm_update(srm, instant)
            if trace and srm.confirmed is not prev_confirmed:
                trace.emit(t, "srm", "confirmed", {"situation": srm.confirmed})
                prev_confirmed = srm.confirmed
            confirmed_input = situation if srm.confirmed is situation else None
            if estimate is not None and estimate.converged:
                bearing_input = relative_bearing(robot, (estimate.x, estimate.y))
            else:
                bearing_input = seat_bearing_deg

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
            windows.append((cstate, len(events_all), replace(human), frame))

        for event in events:
            if event.kind is EventKind.FACE_DETECTED:
                assert cstate.window_start_s is not None
                measured_latency_s = t - cstate.window_start_s
                responding_action = cstate.action
            if trace:
                trace.emit(t, "ctrl", event.kind.value, event.detail)
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
        gaze_time_s=gaze_s if succeeded else None,
        seed=seed,
    )
    return TrialDetail(record=record, events=tuple(events_all)), windows


class _EventCell(NamedTuple):
    """One (method, situation) cell: the controller stepped without a face
    from the first prompt to Failure. A prompt is only reached when every
    earlier window expired, so a trial whose answer is prompt k has this
    run's events up to window k, and goes on from the controller and the
    visitor as it opened that window: the event engine over arrays, an
    untraced ideal trial by resuming `_run_ticks` there."""

    method: Method
    situation: ViewingSituation
    events: tuple[RobotEvent, ...]  # the run without a face
    windows: tuple[ControllerState, ...]  # the controller as each window opens
    window_events: tuple[int, ...]  # len(events) when each window opens
    visitors: tuple[HumanState, ...]  # the visitor as each window opens, shared
    frames: tuple[int, ...]  # the frame each window opens on
    gaze_offsets_deg: tuple[float, ...]  # the visitor's gaze off the robot there


def _event_cell(
    scenario: Scenario, method: Method, situation: ViewingSituation,
    confirm: int | None = None, trial_id: int | None = None,
) -> _EventCell:
    """The untraced ideal trial without a seed, from the given confirm frame
    or the noise-free one: no head camera noise and no response, so the
    controller runs on to Failure. Aborts name trial_id, else the cell."""
    if confirm is None:
        confirm = int(_confirm_frames(scenario, situation, None)[0])
    run = _run_ticks(scenario, method, situation, None, "ideal", trial_id, None, confirm)
    states, counts, visitors, frames = zip(*run[1])
    offsets = tuple(gaze_bearing_to(v, scenario.robot_pose.position) for v in visitors)
    return _EventCell(method, situation, run[0].events, states, counts, visitors, frames, offsets)


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
    cursor, latency_s, gaze_s = _responses(method, situation, seeds)
    # Cursor -1, no response, takes the trailing -1 and a NaN latency.
    plan = np.array([ACTIONS.index(a) for a in method.capture_plan] + [-1], np.int8)
    n = len(seeds)
    window_starts = np.array([window.window_start_s for window in cell.windows])[cursor]
    _, detect_s = _plan_response(
        window_starts, latency_s, np.array(cell.gaze_offsets_deg)[cursor]
    )
    records = Records(
        trial_id=np.arange(first_trial_id, first_trial_id + n, dtype=np.int64),
        method=np.full(n, METHODS.index(method), np.int8),
        situation=np.full(n, SITUATIONS.index(situation), np.int8),
        action=plan[cursor],
        latency=detect_s - window_starts,
        gaze=gaze_s,
        seed=seeds,
    )
    return _EventBatch(cell, records, cursor, detect_s)


def _event_timeline(cell: _EventCell, cursor: int, detect_s: float) -> list[RobotEvent]:
    """One trial's events, from the prompt it responded to and when: the
    cell's run up to that window, then the controller stepped on from it
    with the face at detect_s and at each instant it waits for until done."""
    if cursor < 0:
        return list(cell.events)
    events = list(cell.events[: cell.window_events[cursor]])
    cstate, inputs, t = cell.windows[cursor], ControllerInputs(face_detected=True), detect_s
    while not cstate.terminal:
        cstate, step_events = controller_step(cstate, inputs, t)
        events.extend(step_events)
        inputs, t = ControllerInputs(), cstate.idle_until_s
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


def _ideal_cell(
    args: tuple[Scenario, Method, ViewingSituation, np.ndarray, int],
) -> list[TrialRecord]:
    """An untraced ideal cell's trials, with consecutive ids. The trials that
    confirm on one frame share its seedless run, in the order of their first
    trial, which its aborts name. A trial that never responds steps no tick of
    its own; a responder goes on from the run's window it answers."""
    scenario, method, situation, seeds, first_id = args
    confirms = _confirm_frames(scenario, situation, seeds)
    answers = list(zip(*(a.tolist() for a in _responses(method, situation, seeds))))
    rows = [TrialRecord(first_id + i, method, situation, False, None, None, None, seed)
            for i, seed in enumerate(seeds.tolist())]
    for first in np.sort(np.unique(confirms, return_index=True)[1]).tolist():
        confirm, group = int(confirms[first]), np.flatnonzero(confirms == confirms[first])
        cell = _event_cell(scenario, method, situation, confirm, first_id + first)
        for i in group.tolist():
            if answers[i][0] >= 0:
                rows[i] = _run_ticks(scenario, method, situation, rows[i].seed, "ideal",
                                     first_id + i, None, confirm, answers[i], cell)[0].record
    return rows


def _trial_worker(
    args: tuple[Scenario, Method, ViewingSituation, int, str, int, str | None],
) -> list[TrialRecord]:
    scenario, method, situation, seed, mode, trial_id, trace_path = args
    with open(trace_path, "w", encoding="utf-8") if trace_path else nullcontext() as fp:
        trace = TraceWriter(fp) if fp else None
        return [run_trial(scenario, method, situation, seed, mode, trial_id, trace)]


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
    one batch in this process, whatever `jobs` says. An untraced ideal design
    runs cell by cell, the other tick designs trial by trial, on a pool that
    never holds more workers than there are cores or tasks.
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
        return Records.concat(parts)
    if mode == "ideal" and trace_dir is None:
        worker = _ideal_cell
        tasks = [(config.scenario, method, situation, seeds, first_id)
                 for first_id, method, situation, seeds in cells]
    else:
        worker = _trial_worker
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
            parts = list(pool.map(worker, tasks, chunksize=chunk))
    else:
        parts = [worker(task) for task in tasks]
    return Records.from_rows(chain.from_iterable(parts))
