#!/usr/bin/env python3
"""Check that the test suite still kills every recorded mutant.

Each entry of MUTANTS is a small slip in the program: one exact text in
one file, and what it becomes. CHANGES.md records each as caught by a
test once; this script checks that it still is. For each entry it copies
`src/`, `tests/` and `pyproject.toml` to a scratch directory, applies the
entry there, and runs `pytest -x -q` on the entry's tests against the
copy. A mutant is killed when that run fails a test (pytest exit 1).

The script exits 1 when a mutant survives, when an entry's old text does
not occur exactly once in its file (so a refactor that moves the code
must move the entry too), or when a pytest run ends any other way: a
test that no longer exists, an error at collection, or a run past
TIMEOUT_S.

Usage:
    python scripts/mutants.py
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml")
TIMEOUT_S = 300
JOBS = 2  # pytest processes at once; each entry takes 1-4 s on a 2-core box


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest ids, relative to the repository root
    record: str  # the title of the CHANGES.md entry that records the check


RECORDS_RECORD = "Columnar trial records from the event engine to `stats.json`"
ZIGGURAT_RECORD = "A bit-exact, vectorised ziggurat `normal()` on `PCG64Streams`"
ARRAY_RECORD = "Ideal mode finds each trial's confirm frame from arrays"
CELL_RECORD = "Ideal designs share each cell's seedless run"
DRAW_RECORD = "One draw site for the visitor's response"
WINDOW_RECORD = "One snapshot per response window"
FACADE_RECORD = "One import path per name"
RESPONDER_RECORD = "Ideal-mode responders over arrays"
BATCH_RECORD = "A design's answers drawn once per batch of cells"
ENGINE_RECORD = "One cell engine for event and untraced ideal designs"
TABLES_RECORD = "NumPy's ziggurat tables read off NumPy's own generator"

MUTANTS = (
    Mutant(
        "wake_frame_late",
        "src/gazesim/harness.py",
        "max(frame, int(wake_s * FRAME_RATE_HZ) - 1)",
        "max(frame, int(wake_s * FRAME_RATE_HZ) + 1)",
        ("tests/test_harness.py::TestSkippedWaits::test_untraced_trials_equal_traced_ones",
         "tests/test_digests.py::test_event_engine_timeline"),
        "Tick modes jump over the frames where nothing can change",
    ),
    Mutant(
        "next_blink_ignored",
        "src/gazesim/controller.py",
        "return self.next_blink_s if self.blinks_remaining else self.deadline_s",
        "return self.deadline_s",
        ("tests/test_controller.py::TestIdleUntil"
         "::test_ensure_with_blinks_left_waits_for_the_next_blink",),
        "Tick modes jump over the frames where nothing can change",
    ),
    Mutant(
        "idle_while_turning",
        "src/gazesim/human.py",
        "    if (state.head_yaw_deg, state.head_pitch_deg, state.body_theta_deg)"
        " != (yaw, pitch, yaw):\n        return None\n",
        "",
        ("tests/test_harness.py::TestSkippedWaits"
         "::test_no_jump_while_the_visitor_still_turns",
         "tests/test_human.py::TestIdleUntil::test_a_visitor_still_turning_is_never_idle"),
        "The event engine runs the recognizer it used to re-derive",
    ),
    Mutant(
        "idle_while_attending_the_robot",
        "src/gazesim/human.py",
        "    if state.attending == ROBOT_TARGET:\n        return None\n"
        "    yaw, pitch = map(",
        "    yaw, pitch = map(",
        ("tests/test_human.py::TestIdleUntil::test_a_visitor_attending_the_robot_is_never_idle",),
        "Tick modes jump over the frames where nothing can change",
    ),
    Mutant(
        "responder_events_one_late",
        "src/gazesim/harness.py",
        "list(window.events), window.controller",
        "list(self.run_events[: len(window.events) + 1]), window.controller",
        ("tests/test_harness.py::TestNoiseFreeRobotEvents",),
        "The event engine takes its robot timeline from `controller_step`",
    ),
    Mutant(
        "untraced_pan_nudged",
        "src/gazesim/harness.py",
        "        events_all.extend(events)\n",
        "        events_all.extend(events)\n"
        "        if not trace and not cstate.reads_sensors:\n"
        "            cstate = __import__('dataclasses').replace("
        "cstate, pan_deg=cstate.pan_deg + 1e-9)\n",
        ("tests/test_harness.py::TestSensingPrefix",),
        "Replace, don't fork: the event engine's ensure phase comes from `controller_step`",
    ),
    Mutant(
        "frame_blocks_restart_at_zero",
        "src/gazesim/harness.py",
        "        start += len(frames)\n",
        "        start = 0\n",
        ("tests/test_harness.py::TestFrameDraws::test_blocks_equal_the_per_frame_streams",),
        "The tick modes draw each trial's per-frame noise and seeds a block of frames",
    ),
    Mutant(
        "one_normal_for_yaw_and_pitch",
        "src/gazesim/harness.py",
        "return head.normal(0.0, 1.0), head.normal(0.0, 1.0)",
        "return (head.normal(0.0, 1.0),) * 2",
        ("tests/test_harness.py::TestFrameDraws::test_blocks_equal_the_per_frame_streams",
         "tests/test_digests.py::test_ideal_mode_all_methods"),
        "The tick modes draw each trial's per-frame noise and seeds a block of frames",
    ),
    Mutant(
        "laser_and_filter_seeds_swapped",
        "src/gazesim/harness.py",
        "zip(noise, laser, filter_)",
        "zip(noise, filter_, laser)",
        ("tests/test_harness.py::TestFrameDraws::test_blocks_equal_the_per_frame_streams",),
        "The tick modes draw each trial's per-frame noise and seeds a block of frames",
    ),
    Mutant(
        "head_noise_axes_swapped",
        "src/gazesim/head_tracker.py",
        "yaw_z, pitch_z = noise",
        "pitch_z, yaw_z = noise",
        ("tests/test_harness.py::TestFrameDraws::test_blocks_equal_the_per_frame_streams",),
        "The tick modes draw each trial's per-frame noise and seeds a block of frames",
    ),
    Mutant(
        "camera_check_dropped",
        "src/gazesim/scenario.py",
        'for key in ("sensor_pose", "camera_pose"):',
        'for key in ("sensor_pose",):',
        ("tests/test_scenario.py::TestValidation::test_sensor_or_camera_on_the_seat_rejected",),
        "The tick modes draw each trial's per-frame noise and seeds a block of frames",
    ),
    Mutant(
        "seat_bound_inclusive",
        "src/gazesim/scenario.py",
        "if self.robot_pose.distance_to(seat) > FACE_RANGE_M:",
        "if self.robot_pose.distance_to(seat) >= FACE_RANGE_M:",
        ("tests/test_config.py::TestValidation"
         "::test_seat_must_be_within_face_range_of_the_robot",),
        "The tick modes draw each trial's per-frame noise and seeds a block of frames",
    ),
    Mutant(
        "time_cap_untyped",
        "src/gazesim/harness.py",
        "            raise TrialAbortError(\n                f\"trial exceeded",
        "            raise RuntimeError(\n                f\"trial exceeded",
        ("tests/test_cli.py::TestSimulate::test_trial_time_cap_exits_two",),
        "Columnar trial records from the event engine to `stats.json`",
    ),
    Mutant(
        "shake_legs_swapped",
        "src/gazesim/controller.py",
        "clamp_pan(center + SHAKE_HALF_SWING_DEG),\n"
        "                clamp_pan(center - SHAKE_HALF_SWING_DEG),",
        "clamp_pan(center - SHAKE_HALF_SWING_DEG),\n"
        "                clamp_pan(center + SHAKE_HALF_SWING_DEG),",
        ("tests/test_digests.py::test_tick_engine_event_timeline",),
        "Removed the state no run varies",
    ),
    Mutant(
        "variance_as_moment_difference",
        "src/gazesim/body_tracker.py",
        "    dev = d - d.sum(axis=1, keepdims=True) / divisor[:, None]\n"
        "    dev[~visible] = 0.0\n"
        "    dev *= dev\n"
        "    sigma_d = np.maximum(dev.sum(axis=1) / divisor, sigma_floor_m2)\n",
        "    mean = d.sum(axis=1) / divisor\n"
        "    sigma_d = np.maximum("
        "(d * d).sum(axis=1) / divisor - mean * mean, sigma_floor_m2)\n",
        ("tests/test_body_tracker.py::TestBatchLikelihoods"
         "::test_bit_identical_to_broadcast_kernel_on_a_tracker_run",),
        "Exact visible-only particle likelihood",
    ),
    Mutant(
        "seed_extra_entropy_unmixed",
        "src/gazesim/seeding.py",
        "    for word in entropy[_POOL_SIZE:]:\n",
        "    for word in entropy[_POOL_SIZE:0]:\n",
        ("tests/test_seeding.py::TestWordGroups::test_array_keys_beyond_four_words",),
        "One batched, bit-exact event engine",
    ),
    Mutant(
        "pcg_carry_dropped",
        "src/gazesim/seeding.py",
        "self.hi = hi + self.inc_hi + (self.lo < lo)",
        "self.hi = hi + self.inc_hi",
        ("tests/test_seeding.py::TestBatchedSeeding::test_pcg64_testset",),
        "One batched, bit-exact event engine",
    ),
    Mutant(
        "seed_word_counts_unsplit",
        "src/gazesim/seeding.py",
        "if len(words) == 1 or words[-1].all():",
        "if True:",
        ("tests/test_seeding.py::TestWordGroups::test_two_arguments_straddling_two_to_the_32",),
        "One batched, bit-exact event engine",
    ),
    Mutant(
        "random_without_shift",
        "src/gazesim/seeding.py",
        "(self.next64() >> 11).astype(np.float64)",
        "self.next64().astype(np.float64)",
        ("tests/test_seeding.py::TestBatchedSeeding"
         "::test_matches_live_numpy_on_one_and_two_word_seeds",),
        "One batched, bit-exact event engine",
    ),
    # Traced trials and full mode recognize frame by frame; untraced ideal
    # trials and the event cell take their confirm frame from arrays.
    Mutant(
        "recognizer_on_even_frames",
        "src/gazesim/harness.py",
        "prior, srm = srm, srm_update(srm, instant)",
        "prior, srm = srm, (srm_update(srm, instant) if frame % 2 == 0 else srm)",
        ("tests/test_digests.py::test_simulate_trace",
         "tests/test_harness.py::TestSkippedWaits::test_untraced_trials_equal_traced_ones"),
        "One tick loop",
    ),
    Mutant(
        "recognizer_abort_removed",
        "src/gazesim/harness.py",
        "        if cstate.phase is Phase.OBSERVE and confirmed_input is None"
        " and t >= ABORT_BUDGET_S:\n",
        "        if False:\n",
        ("tests/test_harness.py::TestRecognizerAbort"
         "::test_event_mode_aborts_when_the_recognizer_never_confirms",
         "tests/test_harness.py::TestRecognizerAbort"
         "::test_ideal_mode_aborts_when_the_recognizer_never_confirms"),
        "One tick loop",
    ),
    Mutant(
        "persistence_window_one_frame_short",
        "src/gazesim/harness.py",
        "done = frames - last_miss >= PERSISTENCE_FRAMES",
        "done = frames - last_miss >= PERSISTENCE_FRAMES - 1",
        ("tests/test_harness.py::TestArrayRecognizer::test_equals_the_folded_scalar_recognizer",
         "tests/test_digests.py::test_event_engine_timeline"),
        ARRAY_RECORD,
    ),
    Mutant(
        "validity_from_the_noisy_yaw",
        "src/gazesim/harness.py",
        "valid = np.abs(true_yaw[view]) <= TRACKING_LIMIT_DEG",
        "valid = np.abs(yaw) <= TRACKING_LIMIT_DEG",
        ("tests/test_harness.py::TestArrayRecognizer::test_equals_the_folded_scalar_recognizer",),
        ARRAY_RECORD,
    ),
    Mutant(
        "visitor_adopted_one_frame_late",
        "src/gazesim/harness.py",
        "replace(states[min(frame, len(states)) - 1])",
        "replace(states[min(frame, len(states)) - 2])",
        ("tests/test_harness.py::TestSkippedWaits::test_no_jump_while_the_visitor_still_turns",),
        ARRAY_RECORD,
    ),
    # An untraced ideal design shares one seedless run per confirm frame, and
    # takes each responder's record from the window it answers.
    Mutant(
        "cell_runs_keyed_by_cell_only",
        "src/gazesim/harness.py",
        "confirm, run = int(confirms[first]),",
        "confirm, run = int(confirms[0]),",
        ("tests/test_harness.py::TestIdealDesignCells::test_records_equal_traced_trials",
         "tests/test_harness.py::TestSkippedWaits::test_frames_stepped_on_the_ideal_design"),
        CELL_RECORD,
    ),
    Mutant(
        "empty_array_rows_from_the_longest",
        "src/gazesim/seeding.py",
        "n = 0 if 0 in lengths else max(lengths, default=1)",
        "n = max(lengths, default=1)",
        ("tests/test_seeding.py::TestBatchedSeeding"
         "::test_empty_and_non_empty_arrays_give_no_rows",),
        CELL_RECORD,
    ),
    # Every engine takes each trial's answer from `_responses`; the tick loop
    # schedules it as window k opens.
    Mutant(
        "answer_scheduled_one_window_late",
        "src/gazesim/harness.py",
        "cstate.plan_cursor == k:",
        "cstate.plan_cursor == k + 1:",
        ("tests/test_digests.py::test_ideal_mode_all_methods",
         "tests/test_harness.py::TestEventEngine::test_single_trial_seeds_of_any_width"),
        DRAW_RECORD,
    ),
    Mutant(
        "face_gate_uncapped",
        "src/gazesim/harness.py",
        "np.minimum(b0, FACE_TOLERANCE_DEG)",
        "b0",
        ("tests/test_digests.py::test_event_mode_all_methods",),
        DRAW_RECORD,
    ),
    # A response window is one `_Window` snapshot, and a trial's outcome is
    # read off its run: the final controller and the face event.
    Mutant(
        "window_events_one_short",
        "src/gazesim/harness.py",
        "_Window(cstate, tuple(events_all), ",
        "_Window(cstate, tuple(events_all[:-1]), ",
        ("tests/test_harness.py::TestResponseWindows::test_each_window_is_its_prompt_as_it_opens",
         "tests/test_digests.py::test_event_engine_timeline"),
        WINDOW_RECORD,
    ),
    Mutant(
        "responding_action_of_the_first_prompt",
        "src/gazesim/harness.py",
        "(cstate.action, face_s",
        "(method.capture_plan[0], face_s",
        ("tests/test_digests.py::test_ideal_mode_all_methods",
         "tests/test_harness.py::TestEventEngine::test_single_trial_seeds_of_any_width"),
        WINDOW_RECORD,
    ),
    Mutant(
        "attending_read_after_the_step",
        "src/gazesim/harness.py",
        "        attending = human.attending\n        human_step(human, scenario, t)\n",
        "        human_step(human, scenario, t)\n        attending = human.attending\n",
        ("tests/test_digests.py::test_simulate_trace",),
        WINDOW_RECORD,
    ),
    # An untraced ideal responder's face frame: its fire frame, the first the
    # tick loop would fire on, plus the turn of the visitor `_settling` has
    # on the frame before.
    Mutant(
        "fire_frame_floor_at_the_window_frame",
        "src/gazesim/harness.py",
        "_fire_frames(fire_s, window.frame + 1)",
        "_fire_frames(fire_s, window.frame)",
        ("tests/test_harness.py::TestIdealDesignCells::test_records_equal_traced_trials",),
        RESPONDER_RECORD,
    ),
    Mutant(
        "fire_frame_ceiling_never_lowered",
        "src/gazesim/harness.py",
        "    frames -= (frames > first) & ((frames - 1) / FRAME_RATE_HZ >= fire_s)\n",
        "",
        ("tests/test_harness.py::TestFireFrames",),
        RESPONDER_RECORD,
    ),
    Mutant(
        "turn_from_the_window_visitor",
        "src/gazesim/harness.py",
        "np.minimum(fire - 1, last)",
        "np.minimum(window.frame, last)",
        ("tests/test_harness.py::TestResponseWindows"
         "::test_responders_equal_traced_trials_while_the_head_turns",),
        RESPONDER_RECORD,
    ),
    Mutant(
        "face_past_the_deadline_accepted",
        "src/gazesim/harness.py",
        "if (face_s[rows] >= window.controller.deadline_s - TIME_EPS_S).any():",
        "if False:",
        ("tests/test_harness.py::TestResponseWindows::test_a_face_at_the_window_deadline_raises",),
        RESPONDER_RECORD,
    ),
    # A design draws its answers over batches of whole cells, each row at its
    # own method and situation, and hands each cell its slice.
    Mutant(
        "probability_at_the_next_situation",
        "src/gazesim/harness.py",
        "np.asarray(methods) * len(SITUATIONS) + situations,",
        "np.asarray(methods) * len(SITUATIONS) + (np.asarray(situations) + 1) % 4,",
        ("tests/test_harness.py::TestEventEngine::test_cell_outcomes_equal_per_trial_draws",
         "tests/test_digests.py::test_event_mode_all_methods"),
        BATCH_RECORD,
    ),
    Mutant(
        "answer_slices_shifted_one_row",
        "src/gazesim/harness.py",
        "column.reshape(len(batch), n)",
        "np.roll(column, 1).reshape(len(batch), n)",
        ("tests/test_harness.py::TestEventEngine"
         "::test_one_batch_of_all_cells_equals_per_trial_draws",
         "tests/test_digests.py::test_ideal_mode_all_methods"),
        BATCH_RECORD,
    ),
    Mutant(
        "blink_of_the_first_responder",
        "src/gazesim/harness.py",
        "gaze_durations(blinks[cell[hit]] > 0, streams)",
        "gaze_durations(blinks[cell[hit[:1]]] > 0, streams)",
        ("tests/test_harness.py::TestEventEngine"
         "::test_one_batch_of_all_cells_equals_per_trial_draws",),
        BATCH_RECORD,
    ),
    Mutant(
        "batch_past_the_row_cap",
        "src/gazesim/harness.py",
        "step = max(1, RESPONSE_BATCH // n)",
        "step = RESPONSE_BATCH // n + 1",
        ("tests/test_harness.py::TestRunExperiment"
         "::test_answer_batches_cut_between_cells_give_the_same_records",),
        BATCH_RECORD,
    ),
    # Event and untraced ideal designs share `_cell_batch`: event trials all
    # share the noise-free run, and only ideal responders face on a frame.
    Mutant(
        "event_trials_grouped_by_noisy_confirms",
        "src/gazesim/harness.py",
        "seeds if ideal else None)",
        "seeds)",
        ("tests/test_digests.py::test_event_engine_timeline",
         "tests/test_harness.py::TestRunExperiment"
         "::test_event_trace_files_equal_single_trial_traces"),
        ENGINE_RECORD,
    ),
    Mutant(
        "ideal_face_instant_unrounded",
        "src/gazesim/harness.py",
        "            if ideal:\n",
        "            if False:\n",
        ("tests/test_harness.py::TestIdealDesignCells::test_records_equal_traced_trials",
         "tests/test_digests.py::test_ideal_mode_all_methods"),
        ENGINE_RECORD,
    ),
    # `run_experiment` numbers each cell's ids method-major, as in the full design.
    Mutant(
        "trial_ids_situation_major",
        "src/gazesim/harness.py",
        "((m * len(SITUATIONS) + s) * n, method, situation,",
        "((s * len(METHODS) + m) * n, method, situation,",
        ("tests/test_harness.py::TestRunExperiment::test_full_crossing_in_trial_id_order",
         "tests/test_harness.py::TestSeedDiscipline::test_trial_identifier_layout"),
        FACADE_RECORD,
    ),
    Mutant(
        "running_sum_as_numpy_sum",
        "src/gazesim/stats.py",
        "return float(np.cumsum(values)[-1]) if len(values) else 0.0",
        "return float(np.sum(values)) if len(values) else 0.0",
        ("tests/test_records.py::TestStatisticsEqualTheListOracles",),
        RECORDS_RECORD,
    ),
    Mutant(
        "squares_as_products",
        "src/gazesim/stats.py",
        "return np.array([v**2 for v in values.tolist()])",
        "return values * values",
        ("tests/test_records.py::TestStatisticsEqualTheListOracles",),
        RECORDS_RECORD,
    ),
    Mutant(
        "cells_in_index_order",
        "src/gazesim/stats.py",
        "first = sorted((int(m.argmax()), c) for c, m in enumerate(members) if m.any())",
        "first = [(0, c) for c, m in enumerate(members) if m.any()]",
        ("tests/test_records.py::TestStatisticsEqualTheListOracles",),
        RECORDS_RECORD,
    ),
    Mutant(
        "field_count_unchecked",
        "src/gazesim/records.py",
        "        if len(parts) != 8:\n",
        "        if False:\n",
        ("tests/test_records.py::TestReader::test_malformed_line_reports_its_number",),
        RECORDS_RECORD,
    ),
    Mutant(
        "nan_spans_accepted",
        "src/gazesim/records.py",
        "span is not None and math.isnan(span) for span in spans",
        "False for span in spans",
        ("tests/test_records.py::TestReader",),
        RECORDS_RECORD,
    ),
    Mutant(
        "sensor_boundary_exclusive",
        "src/gazesim/scenario.py",
        "if getattr(self, key).distance_to(seat) <= reach:",
        "if getattr(self, key).distance_to(seat) < reach:",
        ("tests/test_config.py::TestValidation::test_sensor_must_clear_the_turning_body",),
        RECORDS_RECORD,
    ),
    Mutant(
        "normal_sign_unflipped",
        "src/gazesim/seeding.py",
        "        np.negative(x, out=x, where=((r >> 8) & 1).astype(bool))\n",
        "",
        ("tests/test_seeding.py::TestBatchedSeeding::test_normal_matches_live_numpy",),
        ZIGGURAT_RECORD,
    ),
    Mutant(
        "slow_path_state_not_written_back",
        "src/gazesim/seeding.py",
        "self.hi[i], self.lo[i] = state >> 64, state & 0xFFFFFFFFFFFFFFFF",
        "pass",
        ("tests/test_seeding.py::TestBatchedSeeding::test_normal_matches_live_numpy",),
        ZIGGURAT_RECORD,
    ),
    Mutant(
        "slow_path_from_the_post_draw_state",
        "src/gazesim/seeding.py",
        "before.take(slow).states()",
        "self.take(slow).states()",
        ("tests/test_seeding.py::TestBatchedSeeding::test_normal_matches_live_numpy",),
        ZIGGURAT_RECORD,
    ),
    Mutant(
        "rabs_mask_51_bits",
        "src/gazesim/seeding.py",
        "rabs = (r >> 9) & 0x000FFFFFFFFFFFFF",
        "rabs = (r >> 9) & 0x0007FFFFFFFFFFFF",
        ("tests/test_seeding.py::TestBatchedSeeding::test_normal_matches_live_numpy",),
        ZIGGURAT_RECORD,
    ),
    Mutant(
        "slow_path_bound_raised",
        "src/gazesim/seeding.py",
        "slow = np.flatnonzero(rabs >= ki[layer])",
        "slow = np.flatnonzero(rabs >= ki[layer] + np.uint64(2**44))",
        ("tests/test_seeding.py::TestBatchedSeeding::test_normal_matches_live_numpy",),
        ZIGGURAT_RECORD,
    ),
    Mutant(
        "slow_path_bound_inclusive",
        "src/gazesim/seeding.py",
        "slow = np.flatnonzero(rabs >= ki[layer])",
        "slow = np.flatnonzero(rabs > ki[layer])",
        ("tests/test_seeding.py::TestBatchedSeeding::test_normal_at_every_layer_bound",),
        TABLES_RECORD,
    ),
    Mutant(
        "layer_one_bound_not_zeroed",
        "src/gazesim/seeding.py",
        "    ki[1] = 0  # as NumPy's\n",
        "",
        ("tests/test_seeding.py::TestBatchedSeeding::test_normal_at_every_layer_bound",
         "tests/test_seeding.py::TestBatchedSeeding::test_normal_matches_live_numpy"),
        TABLES_RECORD,
    ),
)


def run(mutant: Mutant) -> tuple[bool, str]:
    """Whether the mutant was killed, and what happened."""
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    found = text.count(mutant.old)
    if found != 1:
        return False, f"old text occurs {found} times in {mutant.path}"
    with tempfile.TemporaryDirectory(prefix=f"mutant-{mutant.name}-") as scratch:
        copy = Path(scratch)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".pytest_cache", "*.egg-info"
                ))
            else:
                shutil.copy2(source, copy / name)
        (copy / mutant.path).write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        command = [sys.executable, "-m", "pytest", "-x", "-q", *mutant.tests]
        try:
            proc = subprocess.run(
                command, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return False, f"pytest ran past {TIMEOUT_S} s"
    last = (proc.stdout.strip().splitlines() or ["no output"])[-1]
    if proc.returncode == 1:
        return True, last
    if proc.returncode == 0:
        return False, f"survived: {last}"
    return False, f"pytest exit {proc.returncode}: {last}"


def main() -> int:
    def timed(mutant: Mutant) -> tuple[bool, str, float]:
        start = time.perf_counter()
        return *run(mutant), time.perf_counter() - start

    t0 = time.perf_counter()
    failed = 0
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        for mutant, (killed, detail, seconds) in zip(MUTANTS, pool.map(timed, MUTANTS)):
            failed += not killed
            status = "killed" if killed else "FAILED"
            print(f"{status:7} {mutant.name:30} {seconds:5.1f} s  {detail}", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} killed in {time.perf_counter() - t0:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
