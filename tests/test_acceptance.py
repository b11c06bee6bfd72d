"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line with the measured numbers so a plain
`pytest tests/test_acceptance.py -v -s` reads as a checklist. The big
crossed experiment is run once at module scope and shared by the first
three checks.
"""
import hashlib
import io
import json
import math
import time

import numpy as np
import pytest
from scipy.stats import f as f_distribution

from gazesim.body_tracker import (
    MIN_WEIGHT,
    BodyTracker,
    likelihood,
)
from gazesim.cli import _chart_payload, stats_payload
from gazesim.config import RunConfig
from gazesim.controller import (
    EventKind,
    Method,
    RobotAction,
    TICK_S,
    TILT_MAX_DEG,
    TILT_MIN_DEG,
    PAN_MAX_DEG,
    PAN_MIN_DEG,
    UTTERANCE_DURATION_S,
    RESPONSE_WINDOW_S,
)
from gazesim.geometry import HeadPose, Pose2, normalize_angle
from gazesim.harness import (
    run_experiment,
    run_trial_detailed,
    write_records_csv,
)
from gazesim.head_tracker import HeadObservation, observe_head
from gazesim.human import REFERENCE_SUCCESS_RATES, escalation_success
from gazesim.laser import EllipseBody, synthesize_scan
from gazesim.scenario import default_scenario
from gazesim.seeding import (
    STREAM_FILTER,
    STREAM_HEAD,
    STREAM_INIT,
    STREAM_LASER,
    derive_rng,
    derive_seed,
)
from gazesim.situation import (
    PERSISTENCE_FRAMES,
    SITUATIONS,
    SrmState,
    ViewingSituation,
    classify_instant,
    srm_update,
)
from gazesim.stats import (
    anova_two_way,
    gaze_stats,
    overall_ratio,
    records_to_cells,
    success_ratio,
    to_jsonable,
    write_summary_csv,
)
from oracles import record_ticks, trial_seed

SC = default_scenario()

N_PER_CELL = 10_000
TIME_BUDGET_S = 120.0
# sha256 of results.csv for the big run (event mode, all methods, seed 42).
BIG_RUN_DIGEST = "61ad38a1d40cd6311b29ae8f9b21134c0380a40ba5aa96a0299ec4ac4528b9df"
# sha256 of the big run's summary.csv, stats.json and chart.json documents.
BIG_RUN_SUMMARY_DIGEST = "c3c5f2634697d4715af3dcf87ef079a48d49f59637250e65b35eef6715fc31a3"
BIG_RUN_STATS_DIGEST = "50a3f0264488fe7b7b90da8d0cdcbe49853f16c29ba641a04f6932fd9d48543c"
BIG_RUN_CHART_DIGEST = "f4b7fe02a4cbff4d7c3cfd1b36471eca3d66b95565a0bd3ee83363b1d5cb75f2"


def report(number, ok, text):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'}: {text}")


@pytest.fixture(scope="module")
def big_run():
    config = RunConfig(n_per_cell=N_PER_CELL, base_seed=42)
    t0 = time.perf_counter()
    records = run_experiment(config, mode="event")
    elapsed = time.perf_counter() - t0
    return records, elapsed


def test_criterion_01_success_table(big_run):
    records, elapsed = big_run
    by_cell = {}
    for r in records:
        by_cell.setdefault((r.method, r.situation), []).append(r.responded)
    deviations = {}
    for method in Method:
        reference = REFERENCE_SUCCESS_RATES[method]
        for situation in SITUATIONS:
            outcomes = by_cell[(method, situation)]
            assert len(outcomes) == N_PER_CELL
            mean = sum(outcomes) / len(outcomes)
            deviations[(method.value, situation.value)] = mean - reference[situation]
    worst = max(deviations.items(), key=lambda kv: abs(kv[1]))
    ok = all(abs(d) <= 0.02 for d in deviations.values()) and elapsed < TIME_BUDGET_S
    report(
        1,
        ok,
        f"16 cells at n={N_PER_CELL} within +/-0.02 of the reference table; "
        f"worst cell {worst[0]} off by {worst[1]:+.4f}; "
        f"{len(records)} trials in {elapsed:.1f} s (budget {TIME_BUDGET_S:.0f} s)",
    )
    assert elapsed < TIME_BUDGET_S
    for key, dev in deviations.items():
        assert abs(dev) <= 0.02, f"cell {key} off by {dev:+.4f}"


def test_big_run_results_digest(big_run):
    records, _ = big_run
    buf = io.StringIO()
    write_records_csv(buf, records)
    digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
    assert digest == BIG_RUN_DIGEST


def test_big_run_report_digests(big_run):
    records, _ = big_run
    buf = io.StringIO()
    write_summary_csv(buf, success_ratio(records))
    assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == (
        BIG_RUN_SUMMARY_DIGEST
    )
    for payload, pinned in (
        (stats_payload(records), BIG_RUN_STATS_DIGEST),
        (_chart_payload(records), BIG_RUN_CHART_DIGEST),
    ):
        buf = io.StringIO()
        buf.write(json.dumps(to_jsonable(payload), indent=2) + "\n")
        assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == pinned


def test_criterion_02_overall_ratios(big_run):
    records, _ = big_run
    targets = {Method.M1: 0.48, Method.M2: 0.73, Method.M4: 0.94}
    got = {m: overall_ratio(records, m) for m in targets}
    ok = all(abs(got[m] - t) <= 0.02 for m, t in targets.items())
    report(
        2,
        ok,
        "overall success "
        + ", ".join(
            f"{m.value} {got[m]:.4f} (target {t:.2f})" for m, t in targets.items()
        ),
    )
    for m, t in targets.items():
        assert abs(got[m] - t) <= 0.02, f"{m.value}: {got[m]:.4f} vs {t}"


def test_criterion_03_gaze_moments(big_run):
    records, _ = big_run
    m4_n = sum(1 for r in records if r.method is Method.M4 and r.responded)
    m3_n = sum(1 for r in records if r.method is Method.M3 and r.responded)
    m4_mean, m4_var = gaze_stats(records, Method.M4)
    m3_mean, m3_var = gaze_stats(records, Method.M3)
    ok = (
        m4_n >= 10_000
        and m3_n >= 10_000
        and abs(m4_mean - 2.51) <= 0.05
        and abs(m4_var - 0.13) <= 0.02
        and abs(m3_mean - 1.10) <= 0.02
        and abs(m3_var - 0.01) <= 0.005
    )
    report(
        3,
        ok,
        f"gaze with blinks mean {m4_mean:.4f} var {m4_var:.4f} over {m4_n} successes; "
        f"without blinks mean {m3_mean:.4f} var {m3_var:.4f} over {m3_n} successes",
    )
    assert m4_n >= 10_000 and m3_n >= 10_000
    assert m4_mean == pytest.approx(2.51, abs=0.05)
    assert m4_var == pytest.approx(0.13, abs=0.02)
    assert m3_mean == pytest.approx(1.10, abs=0.02)
    assert m3_var == pytest.approx(0.01, abs=0.005)


def test_criterion_04_tracker_accuracy_and_rate():
    runs, frames = 100, 100
    seat = SC.human_seat
    sensor = SC.sensor_pose
    semi_axes = (SC.body_semi_major_m, SC.body_semi_minor_m)
    body = EllipseBody(seat, *semi_axes)
    theta_errors = []
    position_errors = []
    t0 = time.perf_counter()
    for run in range(runs):
        base = derive_seed(42, run)
        tracker = BodyTracker(semi_axes, guess=seat, seed=derive_seed(base, STREAM_INIT))
        for frame in range(frames):
            scan = synthesize_scan(
                sensor, body, seed=derive_seed(base, STREAM_LASER, frame)
            )
            est = tracker.step(scan, seed=derive_seed(base, STREAM_FILTER, frame))
            if frame >= 30:
                theta_errors.append(
                    abs(normalize_angle(est.theta_deg - seat.heading_deg))
                )
                position_errors.append(
                    math.hypot(est.x - seat.x, est.y - seat.y)
                )
    elapsed = time.perf_counter() - t0
    fps = runs * frames / elapsed
    theta_errors = np.asarray(theta_errors)
    position_errors = np.asarray(position_errors)
    share_under_6 = float(np.mean(theta_errors < 6.0))
    worst_position = float(position_errors.max())
    ok = share_under_6 >= 0.95 and worst_position < 0.1 and fps >= 30.0
    report(
        4,
        ok,
        f"{runs} runs x {frames} frames at 2 m: {share_under_6:.4f} of settled "
        f"frames under 6 deg (need 0.95), max position error {worst_position:.3f} m "
        f"(need < 0.1), {fps:.0f} frames/s (need 30)",
    )
    assert share_under_6 >= 0.95
    assert worst_position < 0.1
    assert fps >= 30.0


def test_criterion_05_head_sensor_noise_and_validity():
    camera = Pose2(0.0, 0.0, 0.0)
    rng = np.random.default_rng(7)
    yaws = rng.uniform(-89.9, 89.9, 100_000)
    within = 0
    for i, yaw in enumerate(yaws):
        noise = derive_rng(1234, STREAM_HEAD, i).standard_normal(2).tolist()
        obs = observe_head(
            HeadPose(2.0, 0.0, yaw_deg=180.0 + yaw), camera, frame=i, noise=noise
        )
        if abs(normalize_angle(obs.yaw_deg - yaw)) <= 3.0:
            within += 1
    coverage = within / len(yaws)

    def valid_at(rel_yaw):
        head = HeadPose(2.0, 0.0, yaw_deg=180.0 + rel_yaw)
        return observe_head(head, camera, noise=(0.0, 0.0)).valid

    boundary_ok = (
        valid_at(90.0)
        and valid_at(-90.0)
        and not valid_at(90.0 + 1e-9)
        and not valid_at(-90.0 - 1e-9)
    )
    ok = coverage >= 0.997 and boundary_ok
    report(
        5,
        ok,
        f"{len(yaws)} observations: {coverage:.5f} within 3 deg of truth "
        f"(need 0.997); validity flips exactly at +/-90 deg: {boundary_ok}",
    )
    assert coverage >= 0.997
    assert boundary_ok


def _expected_gaze_label(yaw, pitch):
    if abs(pitch) > 10.0:
        return None
    mag = abs(yaw)
    if mag <= 10.0:
        return ViewingSituation.CFOV
    if mag <= 70.0:
        return ViewingSituation.NPFOV
    if mag <= 90.0:
        return ViewingSituation.FPFOV
    return None


def test_criterion_06_classification_grid_and_persistence():
    grid = np.arange(-180.0, 181.0, 1.0)
    mismatches = 0
    asymmetries = 0
    for yaw in grid:
        for pitch in grid:
            obs = HeadObservation(0, True, yaw, pitch)
            got = classify_instant(obs, 0.0)
            if got is not _expected_gaze_label(yaw, pitch):
                mismatches += 1
            mirrored = HeadObservation(0, True, -yaw, pitch)
            if classify_instant(mirrored, 0.0) is not got:
                asymmetries += 1

    invalid = HeadObservation(0, False, None, None)
    invalid_bad = 0
    for theta in np.arange(-180.0, 180.25, 0.25):
        want = ViewingSituation.OFOV if abs(theta) > 90.0 else None
        if classify_instant(invalid, float(theta)) is not want:
            invalid_bad += 1
    if classify_instant(invalid, None) is not None:
        invalid_bad += 1

    early_changes = 0
    for label in SITUATIONS:
        srm = SrmState()
        for _ in range(PERSISTENCE_FRAMES - 1):
            srm = srm_update(srm, label)
            if srm.confirmed is not None:
                early_changes += 1
        srm = srm_update(srm, label)
        if srm.confirmed is not label:
            early_changes += 1
        for other in SITUATIONS:
            if other is label:
                continue
            probe = srm
            for _ in range(PERSISTENCE_FRAMES - 1):
                probe = srm_update(probe, other)
                if probe.confirmed is not label:
                    early_changes += 1
            probe = srm_update(probe, other)
            if probe.confirmed is not other:
                early_changes += 1

    rng = np.random.default_rng(3)
    choices = list(SITUATIONS) + [None]
    for _ in range(20):
        srm = SrmState()
        window = []
        for idx in rng.integers(0, len(choices), 200):
            label = choices[int(idx)]
            before = srm.confirmed
            srm = srm_update(srm, label)
            window.append(label)
            if srm.confirmed is not before:
                tail = window[-PERSISTENCE_FRAMES:]
                if len(tail) < PERSISTENCE_FRAMES or any(
                    x is not srm.confirmed for x in tail
                ):
                    early_changes += 1

    ok = mismatches == 0 and asymmetries == 0 and invalid_bad == 0 and early_changes == 0
    report(
        6,
        ok,
        f"1-deg gaze grid ({len(grid)}x{len(grid)}): {mismatches} label mismatches, "
        f"{asymmetries} mirror asymmetries; invalid-face sweep: {invalid_bad} wrong; "
        f"sub-{PERSISTENCE_FRAMES}-frame confirmation changes: {early_changes}",
    )
    assert mismatches == 0
    assert asymmetries == 0
    assert invalid_bad == 0
    assert early_changes == 0


_PROMPT_STARTS = {
    RobotAction.HT: EventKind.HEAD_TURN_START,
    RobotAction.HS: EventKind.HEAD_SHAKE_START,
    RobotAction.RT: EventKind.UTTERANCE,
}


def _check_protocol(detail, ticks, method):
    """Returns a list of violation strings for one detailed trial and its
    (t, pan, tilt) tick samples."""
    problems = []
    events = detail.events
    record = detail.record

    starts = [
        e.kind
        for e in events
        if e.kind
        in (EventKind.HEAD_TURN_START, EventKind.HEAD_SHAKE_START, EventKind.UTTERANCE)
    ]
    want = [_PROMPT_STARTS[a] for a in method.capture_plan]
    if starts != want[: len(starts)] or not starts:
        problems.append(f"prompt order {starts}")

    window_open = None
    for event in events:
        if event.kind in (EventKind.HEAD_TURN_END, EventKind.HEAD_SHAKE_END):
            window_open = event.time_s
        elif event.kind is EventKind.UTTERANCE:
            window_open = event.time_s + UTTERANCE_DURATION_S
        elif event.kind in (EventKind.WINDOW_EXPIRED, EventKind.FACE_DETECTED):
            if window_open is None:
                problems.append(f"{event.kind.value} with no open window")
            else:
                span = event.time_s - window_open
                if span > RESPONSE_WINDOW_S + TICK_S + 1e-6:
                    problems.append(f"window ran {span:.4f} s")
                window_open = None

    terminals = [
        e for e in events if e.kind in (EventKind.SUCCESS, EventKind.FAILURE)
    ]
    if len(terminals) != 1:
        problems.append(f"{len(terminals)} terminal events")
    elif (terminals[0].kind is EventKind.SUCCESS) != record.responded:
        problems.append("terminal event disagrees with the record")

    blinks = sum(1 for e in events if e.kind is EventKind.BLINK_PULSE)
    expected_blinks = 3 if (record.responded and method.ensure_blink) else 0
    if blinks != expected_blinks:
        problems.append(f"{blinks} blink pulses, expected {expected_blinks}")

    faces = sum(1 for e in events if e.kind is EventKind.FACE_DETECTED)
    if faces != (1 if record.responded else 0):
        problems.append(f"{faces} face detections")

    times = [e.time_s for e in events]
    if times != sorted(times):
        problems.append("events out of order")

    for t, pan, tilt in ticks:
        if not (PAN_MIN_DEG <= pan <= PAN_MAX_DEG) or not (TILT_MIN_DEG <= tilt <= TILT_MAX_DEG):
            problems.append(f"joint limits broken at t={t:.3f}")
            break
    return problems


def test_criterion_07_protocol_invariants(monkeypatch):
    n_trials = 1000
    ticks = record_ticks(monkeypatch)
    methods = list(Method)
    violations = []
    blink_trials_m3 = 0
    responded = 0
    for i in range(n_trials):
        method = methods[i % 4]
        situation = SITUATIONS[(i // 4) % 4]
        ticks.clear()
        detail = run_trial_detailed(
            SC, method, situation, trial_seed(777, method, situation, i), mode="ideal"
        )
        responded += detail.record.responded
        if method is Method.M3:
            blink_trials_m3 += sum(
                1 for e in detail.events if e.kind is EventKind.BLINK_PULSE
            )
        for problem in _check_protocol(detail, ticks, method):
            violations.append(f"trial {i} ({method.value}/{situation.value}): {problem}")
    ok = not violations and blink_trials_m3 == 0
    report(
        7,
        ok,
        f"{n_trials} tick-level trials ({responded} responded): "
        f"{len(violations)} protocol violations; silent method produced "
        f"{blink_trials_m3} blink pulses",
    )
    assert blink_trials_m3 == 0
    assert not violations, violations[:5]


def test_criterion_08_likelihood_behaviour():
    eval_pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    scan_pts = np.array([[0.0, 0.01], [1.0, 0.02], [2.0, 0.05]])
    got = likelihood(eval_pts, scan_pts, sigma_floor_m2=1e-4)

    dists = [0.01, 0.02, 0.05]
    mean = sum(dists) / 3.0
    var = sum(d * d for d in dists) / 3.0 - mean * mean
    brute = math.exp(-max(dists) ** 2 / max(var, 1e-4))
    rel_err = abs(got - brute) / brute

    rng = np.random.default_rng(11)
    in_range = True
    for _ in range(500):
        k = int(rng.integers(2, 12))
        e = rng.uniform(-2.0, 2.0, (k, 2))
        s = e + rng.normal(0.0, 0.05, (k, 2))
        w = likelihood(e, s, sigma_floor_m2=1e-4)
        if not (0.0 < w <= 1.0):
            in_range = False
            break

    monotone = True
    previous = None
    for d in np.linspace(0.005, 0.3, 60):
        w = likelihood(np.array([[0.0, 0.0]]), np.array([[d, 0.0]]), 1e-4)
        if previous is not None and w > MIN_WEIGHT and w >= previous:
            monotone = False
        previous = w

    ok = rel_err <= 1e-12 and in_range and monotone
    report(
        8,
        ok,
        f"worked example matches a brute-force oracle to {rel_err:.2e} rel "
        f"(need 1e-12); 500 random weights all in (0, 1]: {in_range}; "
        f"weight strictly falls as the worst gap grows: {monotone}",
    )
    assert rel_err <= 1e-12
    assert in_range
    assert monotone


def test_criterion_09_calibration_round_trip():
    worst = 0.0
    for method in Method:
        reference = REFERENCE_SUCCESS_RATES[method]
        for situation in SITUATIONS:
            got = escalation_success(method, situation)
            worst = max(worst, abs(got - reference[situation]))
    ok = worst <= 1e-12
    report(
        9,
        ok,
        f"per-prompt probabilities reproduce all 16 cumulative rates; "
        f"largest deviation {worst:.2e} (need 1e-12)",
    )
    assert worst <= 1e-12


def test_criterion_10_anova_power():
    reps = 100
    critical = float(f_distribution.isf(0.01, 3, 176))
    method_hits = 0
    situation_hits = 0
    for rep in range(reps):
        config = RunConfig(n_per_cell=12, base_seed=derive_seed(4242, rep))
        records = run_experiment(config, mode="event")
        result = anova_two_way(records_to_cells(records))
        if result["method"]["F"] > critical:
            method_hits += 1
        if result["situation"]["F"] > critical:
            situation_hits += 1
    ok = method_hits >= 90 and situation_hits >= 90
    report(
        10,
        ok,
        f"{reps} replications at n=12: method effect past F_crit({critical:.3f}) "
        f"in {method_hits}, situation effect in {situation_hits} (need 90 each)",
    )
    assert method_hits >= 90
    assert situation_hits >= 90
