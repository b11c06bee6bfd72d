"""Line-delimited JSON trace stream.

One object per line: {"t": seconds, "source": module tag, "kind": what
happened, "detail": free-form payload or null}. Sources are fixed so
downstream tooling can filter reliably.
"""
from __future__ import annotations

import enum
import json
from dataclasses import asdict, is_dataclass
from typing import Any, IO

TRACE_SOURCES = ("btm", "hdtm", "srm", "ctrl", "human")


def _plain(value: Any) -> Any:
    if isinstance(value, enum.Enum):
        return value.value
    if is_dataclass(value) and not isinstance(value, type):
        return _plain(asdict(value))
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, float):
        return round(value, 9)
    return value


class TraceWriter:
    def __init__(self, stream: IO[str]):
        self._stream = stream

    def emit(self, t_s: float, source: str, kind: str, detail: Any = None) -> None:
        if source not in TRACE_SOURCES:
            raise ValueError(f"unknown trace source {source!r}")
        line = {
            "t": round(float(t_s), 6),
            "source": source,
            "kind": str(kind),
            "detail": _plain(detail),
        }
        self._stream.write(json.dumps(line, separators=(",", ":")) + "\n")
