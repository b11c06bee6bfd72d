"""Trial records, as rows and as columns, and their CSV form.

A `TrialRecord` is one trial's outcome. `Records` holds the trials of a
design as columns, one NumPy array per field, so 160k trials are seven
arrays rather than 160k objects; it still reads as a sequence of
`TrialRecord` rows. The CSV writer formats whole columns as bytes, and
Python's '%d' or '%.6f' one value at a time outside its fast domain (ids
>= 0; floats finite, >= +0.0 and below 2**33). The reader parses a chunk
of lines as bytes when all are as the writer writes that domain, and any
other chunk one line at a time with `_parse`.
"""
from __future__ import annotations

import io
import math
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import chain, product
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .controller import METHODS, Method, RobotAction
from .situation import SITUATIONS, ViewingSituation

RESULTS_CSV_HEADER = (
    "trial_id,method,situation,responded,responding_action,"
    "response_latency_s,gaze_time_s,seed"
)
ACTIONS = tuple(RobotAction)
_DTYPES = (np.int64, np.int8, np.int8, np.int8, np.float64, np.float64, np.uint64)

_HEADER = (RESULTS_CSV_HEADER + "\n").encode()
# Rows per chunk that the CSV writer formats and the reader parses at once,
# which bounds the bytes alive at a time.
_CHUNK_ROWS = 16_384
# Each (method, situation, action)'s text from the comma after the trial id to the one
# before the latency, 0-padded to three 64-bit words, at `(m * 4 + s) * 5 + action + 1`.
_CATEGORY_BYTES = np.array([
    list(f",{m.value},{s.value},{'false,' if a is None else 'true,' + a.value},".encode()
         .ljust(24, b"\0"))
    for m, s, a in product(METHODS, SITUATIONS, (None, *ACTIONS))
], np.uint8)
_MIX = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9], np.uint64)
_HASHES = _CATEGORY_BYTES.view(np.uint64) @ _MIX  # how the reader finds a row's text
_HASH_ORDER = np.argsort(_HASHES)
_PAD = 24  # 0 bytes on each side of a chunk the reader parses
_POWERS = 10.0 ** np.arange(19, -1, -1)  # exact as float64
_SEED_HIGH, _SEED_LOW = divmod(2**64 - 1, 10**10)


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


def write_records_csv(path: str | Path | IO, records: Records) -> None:
    """The CSV as bytes, a chunk of rows at a time; a text stream gets text."""
    chunks = (records[i:i + _CHUNK_ROWS] for i in range(0, len(records), _CHUNK_ROWS))
    with nullcontext(path) if hasattr(path, "write") else open(path, "wb") as fp:
        text = isinstance(fp, io.TextIOBase)  # a stream is left open
        for buf in chain([_HEADER], map(_csv_bytes, chunks)):
            fp.write(buf.decode("ascii") if text else buf)


def _csv_bytes(chunk: Records) -> bytes:
    """Fields as (width, n) byte blocks, 0 where a row's text is shorter: stacked,
    transposed to rows, and the 0 bytes dropped with one mask."""
    n, responded = len(chunk), chunk.responded
    key = (chunk.method * len(SITUATIONS) + chunk.situation.astype(np.intp)) * (len(ACTIONS) + 1)
    comma = np.full((1, n), 44, np.uint8)
    high = chunk.seed // np.uint64(10**10)  # int64 halves: uint64 // costs 3x more
    low = (chunk.seed - high * np.uint64(10**10)).astype(np.int64)
    high = high.astype(np.int64)
    rows = np.concatenate((
        _block(chunk.trial_id, True, "%d"), _CATEGORY_BYTES[key + chunk.action + 1].T,
        _block(chunk.latency, responded, "%.6f"), comma,
        _block(chunk.gaze, responded, "%.6f"), comma,
        _digits(high, 10, 0, high), _digits(low, 10, 1, low + (high > 0) * 10**10),
        np.full((1, n), 10, np.uint8),
    )).T
    return rows[rows != 0].tobytes()


def _block(x: np.ndarray, shown, fmt: str) -> np.ndarray:
    """`fmt % value` in shown rows, empty in others; by Python outside the fast domain."""
    point = fmt == "%.6f"
    fast = shown & ~np.signbit(x) & (x < 2**33)  # NaN fails `<`
    slow = np.flatnonzero(shown & ~fast)
    texts = [fmt % v for v in x[slow].tolist()]
    r = _fixed6(np.where(fast, x, 0.0)) if point else np.where(fast, x, 0)
    least = 7 if point else 1
    block = _digits(r, max(least, len(str(r.max())), *(len(t) - point for t in texts)), least, r)
    if point:
        block = np.concatenate((block[:-6], np.full((1, len(x)), 46, np.uint8), block[-6:]))
    block *= fast
    for column, text in zip(slow.tolist(), texts):
        block[len(block) - len(text):, column] = list(text.encode())
    return block


def _fixed6(x: np.ndarray) -> np.ndarray:
    """x * 1e6 rounded half to even, as int64: the digits '%.6f' prints for
    0 <= x < 2**33. Dekker's two-product (a Veltkamp split, no FMA) gives
    the exact error e of p = x * 1e6. With r = rint(p), only a tie of p
    (p - r is a half) can leave r: then the sign of e decides. (A half in
    e comes only with an even integer p, the product's own tie.)"""
    p = x * 1e6
    c = x * 134217729.0
    high = c - (c - x)
    e = (high * 1e6 - p) + (x - high) * 1e6
    r = np.rint(p)
    h = p - r
    return r.astype(np.int64) + ((h == 0.5) & (e > 0)) - ((h == -0.5) & (e < 0))


def _digits(values: np.ndarray, width: int, shown: int, magnitude: np.ndarray) -> np.ndarray:
    """The ASCII digits of int64 `values` >= 0 right-aligned in a (width, n) block; a
    digit above the last `shown` is a 0 byte where its place exceeds `magnitude`."""
    out = np.empty((width, len(values)), np.uint8)
    for row in range(width - 1, -1, -1):
        tens = values // 10
        out[row] = values - tens * 10 + 48
        values = tens
    least = int(magnitude.min())
    for row, place in enumerate(10**k for k in range(width - 1, shown - 1, -1)):
        if place > least:  # comparing with powers of ten finds the leading zeros
            out[row] *= magnitude >= place
    return out


def read_records_csv(path: str | Path | IO) -> Records:
    """A chunk of lines at a time: by `_columns` when all are canonical, else by
    `_parse` one line at a time, and a malformed line is reported with its number."""
    data = path.read() if hasattr(path, "read") else Path(path).read_bytes()
    data = data.encode("utf-8") if isinstance(data, str) else data
    header, _, body = data.partition(b"\n")
    if header + b"\n" != _HEADER:
        raise ValueError(f"unexpected results header: {header.decode('utf-8')!r}")
    ends = np.flatnonzero(np.frombuffer(body, np.uint8) == 10) + 1
    cuts = [0, *ends[_CHUNK_ROWS - 1::_CHUNK_ROWS].tolist(), len(body)]
    parts = [_columns(body[lo:hi]) if lo < hi else Records.from_rows(())
             for lo, hi in zip(cuts, cuts[1:])]
    lines = None
    for k in (k for k, part in enumerate(parts) if part is None):
        lines = lines or data.decode("utf-8").split("\n")[1:]  # whole: errors give file offsets
        parts[k] = _parse(lines[k * _CHUNK_ROWS:(k + 1) * _CHUNK_ROWS], first=k * _CHUNK_ROWS + 2)
    return Records.concat(parts)


def _columns(chunk: bytes) -> Records | None:
    """The records of a chunk of canonical lines, or None. A '%.6f' field reads as
    its digits' integer N / 1e6: both exact doubles, the quotient equals float(text)."""
    newline = b"" if chunk.endswith(b"\n") else b"\n"  # a last line without its own
    a = np.frombuffer(bytes(_PAD) + chunk + newline + bytes(_PAD), np.uint8)
    ends = np.flatnonzero(a == 10)
    c = np.flatnonzero(a == 44)
    if len(c) != 7 * len(ends):
        return None
    c = c.reshape(-1, 7).T
    span = c[4] + 1 - c[0]  # ",method,situation,responded,action,", at most 21 bytes if valid
    text = sliding_window_view(a, _PAD)[c[0]] * (np.arange(_PAD) < span[:, None])
    index = np.searchsorted(_HASHES, text.view(np.uint64) @ _MIX, sorter=_HASH_ORDER)
    key = _HASH_ORDER[index.clip(max=len(_HASHES) - 1)]
    mid = np.maximum(c[6] + 1, ends - 10)  # the seed in two halves, each exact
    numbers = [_number(a, np.r_[_PAD, ends[:-1] + 1], c[0], 1, 15),
               _number(a, c[4] + 1, c[5], 0, 17, True), _number(a, c[5] + 1, c[6], 0, 17, True),
               _number(a, c[6] + 1, mid, 0, 10), _number(a, mid, ends, 1, 10)]
    if any(number is None for number in numbers):
        return None
    tid, latency, gaze, high, low = numbers
    responded = key % (len(ACTIONS) + 1) > 0
    point = np.where(responded, a[c[5:7] - 7] == 46, c[5:7] == c[4:6] + 1)  # or empty
    if not (point.all() and (_CATEGORY_BYTES[key] == text).all()
            and max(latency.max(), gaze.max()) < 2**53
            and ((high < _SEED_HIGH) | (high == _SEED_HIGH) & (low <= _SEED_LOW)).all()):
        return None
    return _from_keys(
        tid.astype(np.int64), key,
        np.where(responded, latency / 1e6, np.nan), np.where(responded, gaze / 1e6, np.nan),
        high.astype(np.uint64) * np.uint64(10**10) + low.astype(np.uint64),
    )


def _number(a: np.ndarray, lo: np.ndarray, hi: np.ndarray, least: int, most: int, point=False):
    """The digits of each field a[lo:hi] as a float64 integer, or None unless each has `least`
    to `most` bytes, all digits but, with `point`, the '.' 7th from the right."""
    length = hi - lo
    if length.min() < least or length.max() > most:
        return None
    width = max(8 if point else 1, int(length.max()))
    d = sliding_window_view(a, width)[hi - width] - np.uint8(48)
    d *= np.arange(width) >= (width - length)[:, None]  # the bytes before the field
    if point:
        d[:, -7] = 0
    powers = _POWERS[point - width:]
    return None if (d > 9).any() else d @ (np.insert(powers, width - 7, 0.0) if point else powers)


def _from_keys(trial_id, key, latency, gaze, seed) -> Records:
    """Records whose method, situation and action are given by `_CATEGORY_BYTES` keys."""
    category, action = np.divmod(key, len(ACTIONS) + 1)
    method, situation = np.divmod(category, len(SITUATIONS))
    return Records(trial_id, method.astype(np.int8), situation.astype(np.int8),
                   (action - 1).astype(np.int8), latency, gaze, seed)


def _parse(lines: list[str], first: int) -> Records:
    """The records of CSV lines, one at a time; `lines[0]` is line `first`. A
    malformed line raises ValueError with its number."""
    rows = []
    for line_no, line in enumerate(lines, start=first):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 8:
            raise ValueError(f"line {line_no}: expected 8 fields, got {len(parts)}")
        (tid, method, situation, responded, action, latency, gaze, seed) = parts
        if responded not in ("true", "false"):
            raise ValueError(
                f"line {line_no}: responded must be true or false, got {responded!r}"
            )
        try:
            row = TrialRecord(
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
            raise ValueError(f"line {line_no}: {exc}") from None
        spans = (row.response_latency_s, row.gaze_time_s)
        if not (-2**63 <= row.trial_id < 2**63 and 0 <= row.seed < 2**64) or any(
            span is not None and math.isnan(span) for span in spans
        ):
            raise ValueError(
                f"line {line_no}: trial_id must fit int64 and seed uint64, "
                "and latency and gaze must not be nan"
            )
        rows.append(row)
    return Records.from_rows(rows)
