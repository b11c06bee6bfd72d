import enum
import io
import json
from dataclasses import dataclass

import pytest

from gazesim.trace import TRACE_SOURCES, TraceWriter


class Color(enum.Enum):
    RED = "red"


@dataclass
class Payload:
    angle: float
    label: Color


class TestTraceWriter:
    def test_one_json_object_per_line(self):
        buf = io.StringIO()
        writer = TraceWriter(buf)
        writer.emit(0.0, "ctrl", "HeadTurnStart")
        writer.emit(1.0 / 3.0, "srm", "Confirmed", "CFOV")
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {"t": 0.0, "source": "ctrl", "kind": "HeadTurnStart", "detail": None}
        second = json.loads(lines[1])
        assert second["t"] == 0.333333
        assert second["detail"] == "CFOV"

    def test_detail_flattens_dataclasses_and_enums(self):
        buf = io.StringIO()
        TraceWriter(buf).emit(2.0, "human", "gaze", Payload(angle=1.23456789012, label=Color.RED))
        entry = json.loads(buf.getvalue())
        assert entry["detail"] == {"angle": 1.23456789, "label": "red"}

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError):
            TraceWriter(io.StringIO()).emit(0.0, "telepathy", "what")

    def test_known_sources_cover_the_pipeline(self):
        assert set(TRACE_SOURCES) == {"btm", "hdtm", "srm", "ctrl", "human"}
