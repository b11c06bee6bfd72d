"""Trial records, as rows and as columns, and their CSV form.

A `TrialRecord` is one trial's outcome. `Records` holds the trials of a
design as columns, one NumPy array per field, so 160k trials are seven
arrays rather than 160k objects; it still reads as a sequence of
`TrialRecord` rows. The CSV writer and reader move whole columns at once.
"""
from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import IO, ContextManager, Iterable, Iterator

import numpy as np

from .controller import METHODS, Method, RobotAction
from .situation import SITUATIONS, ViewingSituation

RESULTS_CSV_HEADER = (
    "trial_id,method,situation,responded,responding_action,"
    "response_latency_s,gaze_time_s,seed"
)
ACTIONS = tuple(RobotAction)
_DTYPES = (np.int64, np.int8, np.int8, np.int8, np.float64, np.float64, np.uint64)

# One %-template per CSV row. A failed row's three empty fields still take
# a value each, printed at width zero, so every row takes seven values.
_ROW_TEMPLATES = np.array(
    ["%d,%s,%s,false,%.0s,%.0s,%.0s,%d", "%d,%s,%s,true,%s,%.6f,%.6f,%d"], dtype=object
)
_METHOD_NAMES = np.array([m.value for m in METHODS], dtype=object)
_SITUATION_NAMES = np.array([s.value for s in SITUATIONS], dtype=object)
_ACTION_NAMES = np.array([a.value for a in ACTIONS] + [""], dtype=object)  # -1: ""
_METHOD_INDEX = {m.value: i for i, m in enumerate(METHODS)}
_SITUATION_INDEX = {s.value: i for i, s in enumerate(SITUATIONS)}
_ACTION_INDEX = {a.value: i for i, a in enumerate(ACTIONS)} | {"": -1}
_RESPONDED = {"true": True, "false": False}
# Rows per chunk that the CSV writer formats and the reader parses at once,
# which bounds the strings alive at a time.
_CHUNK_ROWS = 16_384


@dataclass(frozen=True, slots=True)
class TrialRecord:
    trial_id: int
    method: Method
    situation: ViewingSituation
    responded: bool
    responding_action: RobotAction | None
    response_latency_s: float | None
    gaze_time_s: float | None
    seed: int

    def __post_init__(self) -> None:
        present = (
            self.responding_action is not None,
            self.response_latency_s is not None,
            self.gaze_time_s is not None,
        )
        if self.responded and not all(present):
            raise ValueError("responded trial must carry action, latency and gaze")
        if not self.responded and any(present):
            raise ValueError("failed trial must not carry action, latency or gaze")


def _row(tid: int, m: int, s: int, a: int, latency: float, gaze: float, seed: int):
    if a < 0:
        return TrialRecord(tid, METHODS[m], SITUATIONS[s], False, None, None, None, seed)
    return TrialRecord(tid, METHODS[m], SITUATIONS[s], True, ACTIONS[a], latency, gaze, seed)


@dataclass(frozen=True, eq=False)
class Records:
    """Trial records as columns. `method`, `situation` and `action` index
    METHODS, SITUATIONS and ACTIONS. A trial responded exactly when its
    action is set: a failed trial has action -1 and NaN latency and gaze.

    Reads as a read-only sequence of `TrialRecord` rows: len, iteration,
    int indexing, slicing (to Records) and ==, against other Records or a
    list of rows.
    """

    trial_id: np.ndarray  # int64
    method: np.ndarray  # int8
    situation: np.ndarray  # int8
    action: np.ndarray  # int8, -1 for none
    latency: np.ndarray  # float64, NaN for none
    gaze: np.ndarray  # float64, NaN for none
    seed: np.ndarray  # uint64

    __hash__ = None  # type: ignore[assignment]

    @classmethod
    def from_rows(cls, rows: Iterable[TrialRecord]) -> Records:
        fields = [
            (r.trial_id, METHODS.index(r.method), SITUATIONS.index(r.situation),
             ACTIONS.index(r.responding_action) if r.responded else -1,
             math.nan if r.response_latency_s is None else r.response_latency_s,
             math.nan if r.gaze_time_s is None else r.gaze_time_s, r.seed)
            for r in rows
        ]
        columns = list(zip(*fields)) or [()] * len(_DTYPES)
        return cls(*(np.array(c, dtype) for c, dtype in zip(columns, _DTYPES)))

    @classmethod
    def concat(cls, parts: Iterable[Records]) -> Records:
        return cls(*map(np.concatenate, zip(*(part.columns() for part in parts))))

    def columns(self) -> tuple[np.ndarray, ...]:
        return (self.trial_id, self.method, self.situation, self.action,
                self.latency, self.gaze, self.seed)

    def take(self, index: np.ndarray) -> Records:
        return Records(*(column[index] for column in self.columns()))

    @property
    def responded(self) -> np.ndarray:
        return self.action >= 0

    def __len__(self) -> int:
        return len(self.trial_id)

    def __iter__(self) -> Iterator[TrialRecord]:
        return map(_row, *(column.tolist() for column in self.columns()))

    def __getitem__(self, i: int | slice) -> TrialRecord | Records:
        if isinstance(i, slice):
            return self.take(i)
        return _row(*(column.item(i) for column in self.columns()))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Records):
            return len(self) == len(other) and all(
                np.array_equal(a, b, equal_nan=True)
                for a, b in zip(self.columns(), other.columns())
            )
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented


def as_records(records: Records | Iterable[TrialRecord]) -> Records:
    return records if isinstance(records, Records) else Records.from_rows(records)


def _opened(path: str | Path | IO[str], mode: str) -> ContextManager[IO[str]]:
    """An open file at `path`, or `path` itself, left open, when it is a stream."""
    if hasattr(path, "read" if mode == "r" else "write"):
        return nullcontext(path)  # type: ignore[arg-type]
    return open(path, mode, encoding="utf-8", newline="")


def write_records_csv(
    path: str | Path | IO[str], records: Records | Iterable[TrialRecord]
) -> None:
    """One %-format call per chunk of rows: each row's template and its
    seven values, taken from the columns."""
    records = as_records(records)
    with _opened(path, "w") as fp:
        fp.write(RESULTS_CSV_HEADER + "\n")
        for start in range(0, len(records), _CHUNK_ROWS):
            chunk = records[start:start + _CHUNK_ROWS]
            values: list = [None] * (7 * len(chunk))
            values[0::7] = chunk.trial_id.tolist()
            values[1::7] = _METHOD_NAMES[chunk.method].tolist()
            values[2::7] = _SITUATION_NAMES[chunk.situation].tolist()
            values[3::7] = _ACTION_NAMES[chunk.action].tolist()
            values[4::7] = chunk.latency.tolist()
            values[5::7] = chunk.gaze.tolist()
            values[6::7] = chunk.seed.tolist()
            template = "\n".join(_ROW_TEMPLATES[chunk.responded.view(np.int8)].tolist())
            fp.write(template % tuple(values) + "\n")


def read_records_csv(path: str | Path | IO[str]) -> Records:
    """Whole columns at a time, a chunk of lines after another. On a
    malformed line the rows are re-scanned one by one for its error."""
    with _opened(path, "r") as fp:
        header = fp.readline().rstrip("\n")
        if header != RESULTS_CSV_HEADER:
            raise ValueError(f"unexpected results header: {header!r}")
        body = fp.read()
    lines = body.split("\n")
    if "" in lines:  # blank lines are skipped
        lines = [line for line in lines if line]
    parts = [_parse(lines[i:i + _CHUNK_ROWS]) for i in range(0, len(lines), _CHUNK_ROWS)]
    if None in parts:
        raise _row_error(body)
    return Records.concat(parts) if parts else Records.from_rows(())


def _parse(lines: list[str]) -> Records | None:
    """The records of non-blank CSV lines, or None when one is malformed."""
    n = len(lines)
    if set(map(str.count, lines, repeat(",", n))) != {7}:
        return None
    fields = ",".join(lines).split(",")
    try:
        responded = np.fromiter(map(_RESPONDED.__getitem__, fields[3::8]), bool, n)
        records = Records(
            np.array(list(map(int, fields[0::8])), dtype=np.int64),
            np.fromiter(map(_METHOD_INDEX.__getitem__, fields[1::8]), np.int8, n),
            np.fromiter(map(_SITUATION_INDEX.__getitem__, fields[2::8]), np.int8, n),
            np.fromiter(map(_ACTION_INDEX.__getitem__, fields[4::8]), np.int8, n),
            _floats(fields[5::8]),
            _floats(fields[6::8]),
            np.array(list(map(int, fields[7::8])), dtype=np.uint64),
        )
    except (KeyError, ValueError, OverflowError):
        return None
    missing = (records.action < 0, np.isnan(records.latency), np.isnan(records.gaze))
    return records if all(np.array_equal(m, ~responded) for m in missing) else None


def _floats(texts: list[str]) -> np.ndarray:
    """NaN for an empty field; a field that reads as NaN is an error."""
    values = np.array([float(text) if text else math.nan for text in texts])
    if np.count_nonzero(np.isnan(values)) != texts.count(""):
        raise ValueError("nan field")
    return values


def _row_error(body: str) -> ValueError:
    """The error of the first malformed line, with its line number."""
    for line_no, line in enumerate(body.split("\n"), start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 8:
            return ValueError(f"line {line_no}: expected 8 fields, got {len(parts)}")
        (tid, method, situation, responded, action, latency, gaze, seed) = parts
        if responded not in _RESPONDED:
            return ValueError(
                f"line {line_no}: responded must be true or false, got {responded!r}"
            )
        try:
            TrialRecord(
                trial_id=int(tid),
                method=Method(method),
                situation=ViewingSituation(situation),
                responded=responded == "true",
                responding_action=RobotAction(action) if action else None,
                response_latency_s=float(latency) if latency else None,
                gaze_time_s=float(gaze) if gaze else None,
                seed=int(seed),
            )
        except ValueError as exc:
            return ValueError(f"line {line_no}: {exc}")
        if _parse([line]) is None:
            return ValueError(
                f"line {line_no}: trial_id must fit int64 and seed uint64, "
                "and latency and gaze must not be nan"
            )
    return ValueError("malformed results")
