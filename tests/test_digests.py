"""Pinned sha256 digests of results.csv: the "same behaviour" contract.

A change that alters any of these bytes changes what the simulator
computes, and must say why when it updates the digest. results.csv holds
decisions and latencies only, so the tick engine's event times and head
trajectory are pinned separately.
"""
import hashlib
import json

import pytest

from gazesim import harness
from gazesim.cli import main
from gazesim.controller import METHODS, EventKind
from gazesim.harness import run_trial_detailed
from gazesim.scenario import default_scenario
from gazesim.situation import SITUATIONS
from oracles import record_ticks, trial_seed

FULL_M4_SEED42 = "53f3f2f0ec5f526e06816ae10c74c60ae2ea6d343e92340237b0f243d2d25370"
EVENT_N1000_SEED42 = "8b56f3a611b02213e0ef477e8c38492a8a19f2f2b1918a2ae681b6b120d5f13e"
IDEAL_N10_SEED42 = "df4569188143a78459eb0a32f564ad8b9b28a462de294088eeba3722afc5e0da"
IDEAL_TIMELINE_SEED42 = "c067f7ff02fb8629725079f56f9e548f67eef89f28e3b4473538901306e14f8b"
EVENT_TIMELINE_SEED42 = "7c85acae52bb4528eef1259f1b96beff580da05dc374bda6d77ca542f33cdb78"
EVENT_N1000_STATS_SEED42 = "79c2dbe57055f95d6c66524afc8cd414d957b0852cead2519fc15dd72c5ad0f5"
# `report` on the n=1000 event design's results.csv.
EVENT_N1000_REPORT_SUMMARY_SEED42 = "a4dfd3356a4052ea144116ca0510412b8fb3e3160231c5b2538fe476d9c7e93e"
EVENT_N1000_REPORT_CHART_SEED42 = "79fa4aa422774d9ea16601f1e8a520ff70a01892d6c5874ea5f38397311c2801"
IDEAL_N10_SUMMARY_SEED42 = "cb391211ca29923e8180882779dae01d92bf19ba8d6749bec7e02d5f4b026ca5"
IDEAL_N10_STATS_SEED42 = "7bdacaf9c2503a74d9da820368ad64736df025e5d570ddbae0e4fe10fc7ffa5c"
# The JSONL trace of `gazesim simulate --seed 42`, which senses every frame.
FULL_M4_OFOV_TRACE_SEED42 = "ae0497933b077768bb838444347fc6ba7edf664a5885a43ee4870882b0f417fa"
IDEAL_M2_NPFOV_TRACE_SEED42 = "f55a50f1cb9c67fb0a36013fde6d096955225375daaf2f797cbe2fc3dbf04a63"
TIMELINE_REPS = 8
ALL_METHODS = ["M1", "M2", "M3", "M4"]


def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_design(tmp_path, config, mode):
    """The output directory of `gazesim experiment` on `config`."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main(
        ["experiment", "--config", str(config_path), "--out", str(out), "--mode", mode]
    )
    assert code == 0
    return out


def test_full_mode_m4_on_each_situation(tmp_path, capsys):
    config = {"methods": ["M4"], "n_per_cell": 1, "base_seed": 42}
    out = run_design(tmp_path, config, "full")
    assert file_digest(out / "results.csv") == FULL_M4_SEED42


def test_event_mode_all_methods(tmp_path, capsys):
    config = {"methods": ALL_METHODS, "n_per_cell": 1000, "base_seed": 42}
    out = run_design(tmp_path, config, "event")
    assert file_digest(out / "results.csv") == EVENT_N1000_SEED42
    report = tmp_path / "report"
    assert main(["report", str(out / "results.csv"), "--out", str(report)]) == 0
    assert file_digest(report / "summary.csv") == EVENT_N1000_REPORT_SUMMARY_SEED42
    assert file_digest(report / "chart.json") == EVENT_N1000_REPORT_CHART_SEED42


def test_ideal_mode_all_methods(tmp_path, capsys):
    config = {"methods": ALL_METHODS, "n_per_cell": 10, "base_seed": 42}
    out = run_design(tmp_path, config, "ideal")
    assert file_digest(out / "results.csv") == IDEAL_N10_SEED42
    assert file_digest(out / "summary.csv") == IDEAL_N10_SUMMARY_SEED42
    assert file_digest(out / "stats.json") == IDEAL_N10_STATS_SEED42


@pytest.mark.parametrize(
    "mode, method, situation, digest",
    [
        ("full", "M4", "OFOV", FULL_M4_OFOV_TRACE_SEED42),
        ("ideal", "M2", "NPFOV", IDEAL_M2_NPFOV_TRACE_SEED42),
    ],
    ids=["full-M4-OFOV", "ideal-M2-NPFOV"],
)
def test_simulate_trace(capsys, mode, method, situation, digest):
    argv = ["simulate", "--seed", "42", "--mode", mode]
    assert main(argv + ["--method", method, "--situation", situation]) == 0
    trace = capsys.readouterr().out
    assert hashlib.sha256(trace.encode()).hexdigest() == digest


def test_tick_engine_event_timeline(monkeypatch):
    """Every ideal-mode event (time, kind, detail) and tick sample (time,
    pan, tilt) of the every-frame loop, over 8 trials of each of the 16 cells."""
    scenario = default_scenario()
    digest = hashlib.sha256()
    kinds = set()
    ticks = record_ticks(monkeypatch)
    for method in METHODS:
        for situation in SITUATIONS:
            for rep in range(TIMELINE_REPS):
                ticks.clear()
                detail = run_trial_detailed(
                    scenario,
                    method,
                    situation,
                    trial_seed(42, method, situation, rep),
                    mode="ideal",
                )
                for event in detail.events:
                    kinds.add(event.kind)
                    line = f"{event.time_s!r} {event.kind.value} {event.detail}\n"
                    digest.update(line.encode())
                for t, pan, tilt in ticks:
                    digest.update(f"{t!r} {pan!r} {tilt!r}\n".encode())
                digest.update(b"\n")
    assert kinds == set(EventKind)
    assert digest.hexdigest() == IDEAL_TIMELINE_SEED42


def test_tick_engine_pins_hold_across_frame_block_refills(tmp_path, capsys, monkeypatch):
    """The ideal-mode pins again, with the per-frame draws made 3 frames at
    a time at first, so that every trial refills its block several times."""
    blocks = []
    derive_rngs = harness.derive_rngs

    def counted(*args):
        blocks.append(args)
        return derive_rngs(*args)

    monkeypatch.setattr(harness, "FRAME_BLOCK", 3)
    monkeypatch.setattr(harness, "derive_rngs", counted)
    test_ideal_mode_all_methods(tmp_path, capsys)
    test_tick_engine_event_timeline(monkeypatch)
    # Blocks of 3, 3, 6 and 12 frames cover only the first 24 frames, and an
    # untraced trial draws for the 31 or more frames up to its head turn.
    trials = len(METHODS) * len(SITUATIONS) * (10 + TIMELINE_REPS)
    assert len(blocks) >= 5 * trials


def test_event_engine_timeline(tmp_path, capsys):
    """Full-precision event-mode outputs, which results.csv rounds to six
    decimals: every event (time, kind, detail) and each record's latency
    and gaze over 8 trials of each of the 16 cells, and the stats.json of
    the n=1000 design."""
    scenario = default_scenario()
    digest = hashlib.sha256()
    for method in METHODS:
        for situation in SITUATIONS:
            for rep in range(TIMELINE_REPS):
                detail = run_trial_detailed(
                    scenario,
                    method,
                    situation,
                    trial_seed(42, method, situation, rep),
                    mode="event",
                )
                for event in detail.events:
                    line = f"{event.time_s!r} {event.kind.value} {event.detail!r}\n"
                    digest.update(line.encode())
                record = detail.record
                line = f"{record.response_latency_s!r} {record.gaze_time_s!r}\n\n"
                digest.update(line.encode())
    assert digest.hexdigest() == EVENT_TIMELINE_SEED42

    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({"methods": ALL_METHODS, "n_per_cell": 1000, "base_seed": 42})
    )
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config_path), "--out", str(out)]) == 0
    stats_digest = hashlib.sha256((out / "stats.json").read_bytes()).hexdigest()
    assert stats_digest == EVENT_N1000_STATS_SEED42
