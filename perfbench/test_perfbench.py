"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import dataclasses
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
from gazesim import RunConfig, run_experiment  # noqa: E402
from gazesim.controller import Method  # noqa: E402


def span(name, start, end, parent=None, trial=None):
    return [name, start, end, parent, trial]


def test_self_time_subtracts_direct_children_only():
    recorded = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 3.0, parent=0),
        span("b", 4.0, 8.0, parent=0),
        span("b.child", 5.0, 6.0, parent=2),
    ]
    assert spans.self_times(recorded) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_counts_overlap_once_and_clips_to_parent():
    recorded = [
        span("root", 0.0, 10.0),
        span("x", 2.0, 6.0, parent=0),
        span("y", 4.0, 8.0, parent=0),
        span("z", 9.0, 12.0, parent=0),
    ]
    # Children cover [2, 8] and [9, 10] of the parent: 7 of its 10 s.
    assert spans.self_times(recorded)[0] == pytest.approx(3.0)


def test_aggregate_sums_calls_total_and_self_per_name():
    recorded = [
        span("outer", 0.0, 5.0),
        span("leaf", 1.0, 2.0, parent=0),
        span("leaf", 3.0, 4.5, parent=0),
    ]
    layers = spans.aggregate(recorded)
    assert layers["leaf"] == {"calls": 2, "total_s": 2.5, "self_s": 2.5}
    assert layers["outer"]["self_s"] == pytest.approx(2.5)


def test_recorder_nests_spans_and_carries_the_trial_id():
    ticks = iter(range(100))
    recorder = spans.Recorder(clock=lambda: float(next(ticks)))
    leaf = recorder.wrap(lambda: "done", "leaf")
    trial = recorder.wrap(lambda trial_id: leaf(), "trial", trial_kwarg="trial_id")
    with recorder.span("design"):
        assert trial(trial_id=7) == "done"
    names = [s[spans.NAME] for s in recorder.spans]
    assert names == ["design", "trial", "leaf"]
    assert [s[spans.PARENT] for s in recorder.spans] == [None, 0, 1]
    assert [s[spans.TRIAL] for s in recorder.spans] == [None, 7, 7]
    # Clock reads: design 0..5, trial 1..4, leaf 2..3.
    assert spans.self_times(recorder.spans) == [2.0, 2.0, 1.0]


def test_installed_wraps_every_lookup_site_and_restores_them():
    home = types.ModuleType("fakepkg.home")
    home.work = lambda: 3
    caller = types.ModuleType("fakepkg.caller")
    caller.work = home.work
    original = home.work
    sys.modules.update({"fakepkg.home": home, "fakepkg.caller": caller})
    try:
        recorder = spans.Recorder()
        with recorder.installed("fakepkg", [("home", "work")]):
            assert caller.work() == 3 and home.work() == 3
        assert [s[spans.NAME] for s in recorder.spans] == ["home.work"] * 2
        assert caller.work is original and home.work is original
    finally:
        del sys.modules["fakepkg.home"], sys.modules["fakepkg.caller"]


@pytest.fixture(scope="module")
def ideal_and_event():
    config = RunConfig(n_per_cell=3, base_seed=5, methods=(Method.M4,))
    return run_experiment(config, mode="ideal"), run_experiment(config, mode="event")


def test_cross_mode_accepts_the_tick_engine_as_is(ideal_and_event):
    ideal, event = ideal_and_event
    assert checks.cross_mode_failures(ideal, event) == set()


def _first_responded(records):
    return next(i for i, r in enumerate(records) if r.responded)


def test_cross_mode_rejects_a_shifted_latency(ideal_and_event):
    ideal, event = ideal_and_event
    i = _first_responded(ideal)
    within = list(ideal)
    within[i] = dataclasses.replace(
        ideal[i], response_latency_s=event[i].response_latency_s + 0.03
    )
    assert checks.cross_mode_failures(within, event) == set()
    shifted = list(ideal)
    shifted[i] = dataclasses.replace(
        ideal[i], response_latency_s=event[i].response_latency_s + 0.05
    )
    assert checks.cross_mode_failures(shifted, event) == {ideal[i].trial_id}


def test_cross_mode_rejects_a_flipped_responded(ideal_and_event):
    ideal, event = ideal_and_event
    i = _first_responded(ideal)
    flipped = list(ideal)
    flipped[i] = dataclasses.replace(
        ideal[i],
        responded=False,
        responding_action=None,
        response_latency_s=None,
        gaze_time_s=None,
    )
    assert checks.cross_mode_failures(flipped, event) == {ideal[i].trial_id}


def test_cross_mode_rejects_a_missing_reference(ideal_and_event):
    ideal, event = ideal_and_event
    assert checks.cross_mode_failures(ideal, event[1:]) == {event[0].trial_id}


def test_round_trip_compares_at_the_written_precision(ideal_and_event):
    ideal, _ = ideal_and_event
    i = _first_responded(ideal)
    read = [
        dataclasses.replace(
            r,
            response_latency_s=r.response_latency_s and round(r.response_latency_s, 6),
            gaze_time_s=r.gaze_time_s and round(r.gaze_time_s, 6),
        )
        for r in ideal
    ]
    assert checks.round_trip_failures(ideal, read) == set()
    read[i] = dataclasses.replace(read[i], gaze_time_s=read[i].gaze_time_s + 1e-6)
    assert checks.round_trip_failures(ideal, read) == {ideal[i].trial_id}


def test_cell_tolerance_is_criterion_one_at_n_10000():
    assert checks.cell_tolerance(10_000) == pytest.approx(0.02)
    assert checks.cell_tolerance(1_000) == pytest.approx(0.02 * 10**0.5)
