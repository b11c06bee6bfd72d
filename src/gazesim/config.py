"""Run configuration: strict JSON in, dataclass out, JSON back.

Unknown keys are rejected with their full path so a typo never silently
falls back to a default. parse_config(serialize_config(c)) == c for any
valid config.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping

from .controller import METHODS, Method
from .geometry import Pose2
from .scenario import Painting, RoomError, Scenario, default_scenario
from .situation import SITUATIONS, ViewingSituation

DEFAULT_N_PER_CELL = 12
DEFAULT_BASE_SEED = 42
DEFAULT_OUTPUT_DIR = "results"


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
        if self.n_per_cell < 1:
            raise ConfigError(f"n_per_cell: must be >= 1, got {self.n_per_cell}")
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


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


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


def _as_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true or false, got {value!r}")
    return value


def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    return value


def _parse_pose(value: Any, path: str) -> Pose2:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"{path}: expected [x, y, heading_deg]")
    x, y, heading = (_as_number(v, f"{path}[{i}]") for i, v in enumerate(value))
    return Pose2(x, y, heading)


def _pose_to_list(pose: Pose2) -> list[float]:
    return [pose.x, pose.y, pose.heading_deg]


_POSE_KEYS = ("robot_pose", "sensor_pose", "camera_pose", "human_seat")
_SCENARIO_KEYS = {f.name for f in fields(Scenario)}


def scenario_from_dict(obj: Any, path: str = "scenario") -> Scenario:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    _require_keys(obj, _SCENARIO_KEYS, path)
    for key in _POSE_KEYS + ("paintings", "situation_map"):
        if key not in obj:
            raise ConfigError(f"{path}.{key}: required")
    paintings_raw = obj["paintings"]
    if not isinstance(paintings_raw, list):
        raise ConfigError(f"{path}.paintings: expected a list")
    paintings = []
    for i, entry in enumerate(paintings_raw):
        entry_path = f"{path}.paintings[{i}]"
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
    map_raw = obj["situation_map"]
    if not isinstance(map_raw, dict):
        raise ConfigError(f"{path}.situation_map: expected an object")
    situation_map = {}
    for painting_id, name in map_raw.items():
        situation_map[painting_id] = _parse_name(
            SITUATIONS, name, f"{path}.situation_map.{painting_id}"
        )
    kwargs: dict[str, Any] = {}
    for key in ("body_semi_major_m", "body_semi_minor_m", "painting_pitch_deg"):
        if key in obj:
            kwargs[key] = _as_number(obj[key], f"{path}.{key}")
    for key in _POSE_KEYS:
        kwargs[key] = _parse_pose(obj[key], f"{path}.{key}")
    try:
        return Scenario(paintings=tuple(paintings), situation_map=situation_map, **kwargs)
    except RoomError as exc:
        raise ConfigError("; ".join(f"{path}.{e}" for e in exc.errors)) from exc


def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    return {
        "robot_pose": _pose_to_list(scenario.robot_pose),
        "sensor_pose": _pose_to_list(scenario.sensor_pose),
        "camera_pose": _pose_to_list(scenario.camera_pose),
        "human_seat": _pose_to_list(scenario.human_seat),
        "paintings": [
            {"id": p.painting_id, "bearing_deg": p.bearing_deg}
            for p in scenario.paintings
        ],
        "situation_map": {
            pid: scenario.situation_map[pid].value
            for pid in (p.painting_id for p in scenario.paintings)
            if pid in scenario.situation_map
        },
        "body_semi_major_m": scenario.body_semi_major_m,
        "body_semi_minor_m": scenario.body_semi_minor_m,
        "painting_pitch_deg": scenario.painting_pitch_deg,
    }


def _parse_name(canonical: tuple, name: Any, path: str):
    """The member of `canonical`, METHODS or SITUATIONS, named `name`."""
    for member in canonical:
        if member.value == name:
            return member
    valid = ", ".join(m.value for m in canonical)
    raise ConfigError(f"{path}: expected one of {valid}, got {name!r}")


def _parse_name_list(value: Any, path: str, canonical: tuple) -> tuple:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list")
    parsed = [_parse_name(canonical, v, f"{path}[{i}]") for i, v in enumerate(value)]
    return tuple(sorted(parsed, key=canonical.index))


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}
_OPTIONAL = {  # the RunConfig keys besides `scenario`, each optional, and their parsers
    "methods": lambda value, path: _parse_name_list(value, path, METHODS),
    "situations": lambda value, path: _parse_name_list(value, path, SITUATIONS),
    "n_per_cell": _as_int, "base_seed": _as_int, "output_dir": _as_str, "trace": _as_bool,
}


def parse_config(text: str, base_dir: str | Path = ".") -> RunConfig:
    """Parse a JSON config document. A scenario given as a string is read
    from that file path, resolved against base_dir."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config: expected a JSON object")
    _require_keys(obj, _CONFIG_KEYS, "config")

    if "scenario" not in obj:
        scenario = default_scenario()
    elif isinstance(obj["scenario"], str):
        scenario_path = Path(base_dir) / obj["scenario"]
        try:
            scenario_text = scenario_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"scenario: cannot read {scenario_path}: {exc}") from exc
        try:
            scenario_obj = json.loads(scenario_text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"scenario: {scenario_path} is not valid JSON: {exc}"
            ) from exc
        scenario = scenario_from_dict(scenario_obj)
    else:
        scenario = scenario_from_dict(obj["scenario"])

    optional = {key: parse(obj[key], key) for key, parse in _OPTIONAL.items() if key in obj}
    return RunConfig(scenario=scenario, **optional)


def serialize_config(config: RunConfig) -> str:
    obj = {
        "scenario": scenario_to_dict(config.scenario),
        "methods": [m.value for m in config.methods],
        "situations": [s.value for s in config.situations],
        "n_per_cell": config.n_per_cell,
        "base_seed": config.base_seed,
        "output_dir": config.output_dir,
        "trace": config.trace,
    }
    return json.dumps(obj, indent=2) + "\n"
