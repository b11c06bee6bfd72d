"""Output checks. Each returns the trial ids of the records it rejects, so
the benchmark can report failed records as a share of those attempted."""
from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

# Criterion 1 allows 0.02 at n=10000 per cell; other sizes keep the same
# number of standard errors.
CELL_TOLERANCE_AT_10000 = 0.02

# Tick engines measure latency on 30 Hz frames, the event engine in closed
# form, so the two may differ by up to one tick.
TICK_S = 1.0 / 30.0


def cell_tolerance(n_per_cell: int) -> float:
    return CELL_TOLERANCE_AT_10000 * math.sqrt(10_000 / n_per_cell)


def id_failures(records: Sequence, expected: set[int]) -> set[int]:
    """Records whose trial id is duplicated or not expected, and every
    expected id that no record carries."""
    seen: dict[int, int] = {}
    for record in records:
        seen[record.trial_id] = seen.get(record.trial_id, 0) + 1
    bad = {tid for tid, count in seen.items() if count > 1 or tid not in expected}
    return bad | (expected - set(seen))


def cell_failures(
    records: Iterable,
    reference: Mapping,
    n_per_cell: int,
) -> set[int]:
    """Records of every cell whose success rate is further from the
    reference table than `cell_tolerance(n_per_cell)`."""
    cells: dict[tuple, list] = {}
    for record in records:
        cells.setdefault((record.method, record.situation), []).append(record)
    tolerance = cell_tolerance(n_per_cell)
    bad: set[int] = set()
    for (method, situation), members in cells.items():
        rate = sum(r.responded for r in members) / len(members)
        if abs(rate - reference[method][situation]) > tolerance:
            bad.update(r.trial_id for r in members)
    return bad


def _as_written(value: float | None) -> float | None:
    return None if value is None else float(f"{value:.6f}")


def round_trip_failures(written: Sequence, read_back: Sequence) -> set[int]:
    """Records that `read_records_csv` did not return exactly as written.
    The CSV keeps six decimals, so floats are compared at that precision."""
    by_id = {r.trial_id: r for r in read_back}
    bad = set()
    for record in written:
        got = by_id.get(record.trial_id)
        if got is None or (
            got.method,
            got.situation,
            got.responded,
            got.responding_action,
            got.seed,
            got.response_latency_s,
            got.gaze_time_s,
        ) != (
            record.method,
            record.situation,
            record.responded,
            record.responding_action,
            record.seed,
            _as_written(record.response_latency_s),
            _as_written(record.gaze_time_s),
        ):
            bad.add(record.trial_id)
    bad.update(set(by_id) - {r.trial_id for r in written})
    return bad


def cross_mode_failures(records: Sequence, event_records: Sequence) -> set[int]:
    """Tick-engine records that disagree with the event-mode record of the
    same trial id: decisions, gaze time and seed must be equal, latency
    within one tick."""
    reference = {r.trial_id: r for r in event_records}
    bad = set()
    for record in records:
        ref = reference.get(record.trial_id)
        if ref is None or (
            record.responded,
            record.responding_action,
            record.gaze_time_s,
            record.seed,
        ) != (ref.responded, ref.responding_action, ref.gaze_time_s, ref.seed):
            bad.add(record.trial_id)
        elif record.responded and not (
            abs(record.response_latency_s - ref.response_latency_s) <= TICK_S
        ):
            bad.add(record.trial_id)
    return bad
