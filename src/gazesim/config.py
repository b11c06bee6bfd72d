"""Run configuration: strict JSON in, dataclass out, JSON back.

Each key of RunConfig and of its Scenario is listed once, with its parser
and writer, in _CONFIG_SCHEMA or _SCENARIO_SCHEMA. Unknown keys are
rejected with their full path so a typo never silently falls back to a
default. parse_config(serialize_config(c)) == c for any valid config.
"""
from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Mapping

from .controller import METHODS, Method
from .geometry import Pose2
from .scenario import Painting, RoomError, Scenario, default_scenario
from .situation import SITUATIONS, ViewingSituation

DEFAULT_N_PER_CELL = 12
DEFAULT_BASE_SEED = 42
DEFAULT_OUTPUT_DIR = "results"
MAX_N_PER_CELL = (2**63 - 1) // (len(METHODS) * len(SITUATIONS))  # so trial ids fit int64


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key path."""


@dataclass(frozen=True)
class RunConfig:
    scenario: Scenario = field(default_factory=default_scenario)
    methods: tuple[Method, ...] = METHODS
    situations: tuple[ViewingSituation, ...] = SITUATIONS
    n_per_cell: int = DEFAULT_N_PER_CELL
    base_seed: int = DEFAULT_BASE_SEED
    output_dir: str = DEFAULT_OUTPUT_DIR
    trace: bool = False

    def __post_init__(self) -> None:
        for key in ("methods", "situations"):
            entries = getattr(self, key)
            if not entries:
                raise ConfigError(f"{key}: must not be empty")
            if len(set(entries)) != len(entries):
                raise ConfigError(f"{key}: duplicate entries")
        if not 1 <= self.n_per_cell <= MAX_N_PER_CELL:
            raise ConfigError(f"n_per_cell: must be in 1..{MAX_N_PER_CELL}, got {self.n_per_cell}")
        if self.base_seed < 0:
            raise ConfigError(
                f"base_seed: expected a non-negative integer, got {self.base_seed}"
            )
        mapped = set(self.scenario.situation_map.values())
        unmapped = [s.value for s in self.situations if s not in mapped]
        if unmapped:
            raise ConfigError(
                f"scenario.situation_map: maps no painting to {', '.join(unmapped)}, "
                "which situations lists"
            )


def _require_keys(obj: Mapping[str, Any], allowed: set[str], path: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        names = ", ".join(sorted(unknown))
        raise ConfigError(f"{path}: unknown keys: {names}")


def _as_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return number


def _of_type(kind: type, expected: str) -> Callable[[Any, str], Any]:
    """The parser of a JSON value of type `kind`, where a bool is not an int."""
    def parse(value: Any, path: str) -> Any:
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise ConfigError(f"{path}: expected {expected}, got {value!r}")
        return value
    return parse


_as_int = _of_type(int, "an integer")
_as_str = _of_type(str, "a string")
_as_bool = _of_type(bool, "true or false")


def _parse_pose(value: Any, path: str) -> Pose2:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"{path}: expected [x, y, heading_deg]")
    x, y, heading = (_as_number(v, f"{path}[{i}]") for i, v in enumerate(value))
    return Pose2(x, y, heading)


def _parse_paintings(value: Any, path: str) -> tuple[Painting, ...]:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list")
    paintings = []
    for i, entry in enumerate(value):
        entry_path = f"{path}[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{entry_path}: expected an object")
        _require_keys(entry, {"id", "bearing_deg"}, entry_path)
        if "id" not in entry or "bearing_deg" not in entry:
            raise ConfigError(f"{entry_path}: needs id and bearing_deg")
        paintings.append(
            Painting(
                _as_str(entry["id"], f"{entry_path}.id"),
                _as_number(entry["bearing_deg"], f"{entry_path}.bearing_deg"),
            )
        )
    return tuple(paintings)


def _parse_situation_map(value: Any, path: str) -> dict[str, ViewingSituation]:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    return {pid: _parse_name(SITUATIONS, name, f"{path}.{pid}") for pid, name in value.items()}


def _parse_name(canonical: tuple, name: Any, path: str):
    """The member of `canonical`, METHODS or SITUATIONS, named `name`."""
    for member in canonical:
        if member.value == name:
            return member
    valid = ", ".join(m.value for m in canonical)
    raise ConfigError(f"{path}: expected one of {valid}, got {name!r}")


def _names(canonical: tuple) -> tuple[Callable, Callable]:
    """The parser and writer of a list of names of members of `canonical`."""
    def parse(value: Any, path: str) -> tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list")
        parsed = [_parse_name(canonical, v, f"{path}[{i}]") for i, v in enumerate(value)]
        return tuple(sorted(parsed, key=canonical.index))
    return parse, lambda members, _: [m.value for m in members]


def _scalar(parse: Callable) -> tuple[Callable, Callable]:
    """The parser and writer of a key whose value JSON holds as it is."""
    return parse, lambda value, _: value


# Each key of a room or a run config, in its dataclass's field order, with
# its parser, of (JSON value, key path), and its writer, of (value, owner).
_Schema = dict[str, tuple[Callable[[Any, str], Any], Callable[[Any, Any], Any]]]
_POSE = (_parse_pose, lambda pose, _: [pose.x, pose.y, pose.heading_deg])
_NUMBER = _scalar(_as_number)
_SCENARIO_SCHEMA: _Schema = {
    "robot_pose": _POSE, "sensor_pose": _POSE, "camera_pose": _POSE, "human_seat": _POSE,
    "paintings": (_parse_paintings, lambda paintings, _: [
        {"id": p.painting_id, "bearing_deg": p.bearing_deg} for p in paintings]),
    # In paintings order, so equal rooms write the same bytes.
    "situation_map": (_parse_situation_map, lambda situations, room: {
        p.painting_id: situations[p.painting_id].value
        for p in room.paintings if p.painting_id in situations}),
    "body_semi_major_m": _NUMBER, "body_semi_minor_m": _NUMBER, "painting_pitch_deg": _NUMBER,
}
_CONFIG_SCHEMA: _Schema = {  # every RunConfig key but `scenario`, which parse_config reads
    "methods": _names(METHODS), "situations": _names(SITUATIONS),
    "n_per_cell": _scalar(_as_int), "base_seed": _scalar(_as_int),
    "output_dir": _scalar(_as_str), "trace": _scalar(_as_bool),
}


def _parse_keys(obj: Mapping[str, Any], schema: _Schema, prefix: str) -> dict[str, Any]:
    """The keys of `obj` that `schema` lists, each parsed with its key path."""
    return {key: parse(obj[key], prefix + key) for key, (parse, _) in schema.items() if key in obj}


def _write_keys(owner: Any, schema: _Schema) -> dict[str, Any]:
    return {key: write(getattr(owner, key), owner) for key, (_, write) in schema.items()}


def scenario_from_dict(obj: Any, path: str = "scenario") -> Scenario:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    _require_keys(obj, set(_SCENARIO_SCHEMA), path)
    for f in fields(Scenario):
        if f.default is MISSING and f.default_factory is MISSING and f.name not in obj:
            raise ConfigError(f"{path}.{f.name}: required")
    try:
        return Scenario(**_parse_keys(obj, _SCENARIO_SCHEMA, f"{path}."))
    except RoomError as exc:
        raise ConfigError("; ".join(f"{path}.{e}" for e in exc.errors)) from exc


def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    return _write_keys(scenario, _SCENARIO_SCHEMA)


def parse_config(text: str, base_dir: str | Path = ".") -> RunConfig:
    """Parse a JSON config document. A scenario given as a string is read
    from that file path, resolved against base_dir."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config: expected a JSON object")
    _require_keys(obj, {"scenario", *_CONFIG_SCHEMA}, "config")

    room = obj.get("scenario")
    if isinstance(room, str):
        scenario_path = Path(base_dir) / room
        try:
            room = json.loads(scenario_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"scenario: {scenario_path} is not valid JSON: {exc}") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"scenario: cannot read {scenario_path}: {exc}") from exc
    scenario = scenario_from_dict(room) if "scenario" in obj else default_scenario()
    return RunConfig(scenario=scenario, **_parse_keys(obj, _CONFIG_SCHEMA, ""))


def serialize_config(config: RunConfig) -> str:
    obj = {"scenario": scenario_to_dict(config.scenario), **_write_keys(config, _CONFIG_SCHEMA)}
    return json.dumps(obj, indent=2) + "\n"
