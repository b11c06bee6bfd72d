import hashlib
import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from gazesim.config import (
    _CONFIG_SCHEMA,
    _SCENARIO_SCHEMA,
    MAX_N_PER_CELL,
    ConfigError,
    RunConfig,
    parse_config,
    scenario_from_dict,
    scenario_to_dict,
    serialize_config,
)
from gazesim.controller import METHODS, Method
from gazesim.scenario import Scenario, default_scenario
from gazesim.situation import SITUATIONS, ViewingSituation


class TestDefaults:
    def test_empty_object_gives_defaults(self):
        config = parse_config("{}")
        assert config == RunConfig()
        assert config.n_per_cell == 12
        assert config.base_seed == 42
        assert config.output_dir == "results"
        assert config.methods == METHODS
        assert config.situations == SITUATIONS
        assert config.trace is False
        assert config.scenario == default_scenario()

    def test_partial_override(self):
        config = parse_config('{"n_per_cell": 100, "base_seed": 7}')
        assert config.n_per_cell == 100
        assert config.base_seed == 7
        assert config.methods == METHODS


class TestValidation:
    def test_unknown_top_level_key_named(self):
        with pytest.raises(ConfigError, match="config: unknown keys: n_percell"):
            parse_config('{"n_percell": 5}')

    def test_bad_json_rejected(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config("{nope}")

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError, match="expected a JSON object"):
            parse_config("[1, 2]")

    def test_zero_trials_named(self):
        with pytest.raises(ConfigError, match="n_per_cell"):
            parse_config('{"n_per_cell": 0}')

    def test_negative_base_seed_rejected(self):
        with pytest.raises(ConfigError, match="base_seed: expected a non-negative integer"):
            parse_config('{"base_seed": -5}')
        with pytest.raises(ConfigError, match="base_seed"):
            RunConfig(base_seed=-1)

    @pytest.mark.parametrize("offset, accepted", [(0.0, False), (0.25, False), (0.26, True)])
    def test_sensor_must_clear_the_turning_body(self, offset, accepted):
        # The default body's semi-major axis is 0.25 m.
        scenario = scenario_to_dict(default_scenario())
        seat = scenario["human_seat"]
        scenario["sensor_pose"] = [seat[0] + offset, seat[1], 0.0]
        text = json.dumps({"scenario": scenario})
        if accepted:
            parse_config(text)
            return
        with pytest.raises(ConfigError, match=r"^scenario\.sensor_pose: lies within"):
            parse_config(text)

    @pytest.mark.parametrize("offset, accepted", [(0.0, False), (0.25, False), (0.26, True)])
    def test_camera_must_clear_the_turning_body(self, offset, accepted):
        # Along the seat's heading, toward the robot, so that an accepted
        # camera still sees every painting in its mapped band.
        scenario = scenario_to_dict(default_scenario())
        x, y, heading = scenario["human_seat"]
        scenario["camera_pose"] = [
            x + offset * math.cos(math.radians(heading)),
            y + offset * math.sin(math.radians(heading)),
            0.0,
        ]
        if accepted:
            scenario_from_dict(scenario)
            return
        with pytest.raises(ConfigError, match=r"^scenario\.camera_pose: lies within"):
            scenario_from_dict(scenario)

    @pytest.mark.parametrize("distance, accepted", [(3.0, True), (3.01, False)])
    def test_seat_must_be_within_face_range_of_the_robot(self, distance, accepted):
        # The default robot stands at the origin; FACE_RANGE_M is 3 m.
        scenario = scenario_to_dict(default_scenario())
        scenario["human_seat"] = [distance, 0.0, 180.0]
        if accepted:
            scenario_from_dict(scenario)
            return
        with pytest.raises(ConfigError, match=r"^scenario\.human_seat: lies more than"):
            scenario_from_dict(scenario)

    def test_situation_without_a_painting_rejected(self):
        room = scenario_to_dict(default_scenario())
        del room["situation_map"]["P6"]
        with pytest.raises(
            ConfigError, match=r"^scenario\.situation_map: maps no painting to OFOV"
        ):
            parse_config(json.dumps({"scenario": room}))
        config = parse_config(json.dumps({"scenario": room, "situations": ["CFOV"]}))
        assert config.situations == (ViewingSituation.CFOV,)

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigError, match="n_per_cell"):
            parse_config('{"n_per_cell": true}')

    def test_unknown_method_named(self):
        with pytest.raises(ConfigError, match="methods"):
            parse_config('{"methods": ["M1", "M9"]}')

    def test_duplicate_method_rejected(self):
        with pytest.raises(ConfigError, match="methods"):
            parse_config('{"methods": ["M1", "M1"]}')

    def test_empty_method_list_rejected(self):
        with pytest.raises(ConfigError, match="methods"):
            parse_config('{"methods": []}')

    @pytest.mark.parametrize("key", ["methods", "situations"])
    def test_empty_design_axis_rejected_in_python(self, key):
        with pytest.raises(ConfigError, match=rf"^{key}: must not be empty$"):
            RunConfig(**{key: ()})

    # A repeated entry would run its cells twice under the same trial ids.
    @pytest.mark.parametrize(
        "key, entry", [("methods", Method.M1), ("situations", ViewingSituation.OFOV)]
    )
    def test_repeated_design_axis_entry_rejected_in_python(self, key, entry):
        with pytest.raises(ConfigError, match=rf"^{key}: duplicate entries$"):
            RunConfig(n_per_cell=1, **{key: (entry, entry)})

    def test_methods_canonical_order(self):
        config = parse_config('{"methods": ["M4", "M1"]}')
        assert config.methods == (Method.M1, Method.M4)

    def test_situations_canonical_order(self):
        config = parse_config('{"situations": ["OFOV", "CFOV"]}')
        assert config.situations == (
            ViewingSituation.CFOV,
            ViewingSituation.OFOV,
        )

    def test_unknown_scenario_key_has_full_path(self):
        scenario = scenario_to_dict(default_scenario())
        scenario["wallpaper"] = "red"
        with pytest.raises(ConfigError, match="scenario: unknown keys: wallpaper"):
            parse_config(json.dumps({"scenario": scenario}))

    def test_bad_pose_shape_has_full_path(self):
        scenario = scenario_to_dict(default_scenario())
        scenario["robot_pose"] = [1.0]
        with pytest.raises(ConfigError, match="scenario.robot_pose"):
            parse_config(json.dumps({"scenario": scenario}))

    def test_bad_situation_name_in_map(self):
        scenario = scenario_to_dict(default_scenario())
        first = next(iter(scenario["situation_map"]))
        scenario["situation_map"][first] = "MIDFOV"
        with pytest.raises(ConfigError, match="situation_map"):
            parse_config(json.dumps({"scenario": scenario}))

    @pytest.mark.parametrize(
        "key",
        ["robot_pose", "sensor_pose", "camera_pose", "human_seat", "paintings", "situation_map"],
    )
    def test_missing_required_scenario_field(self, key):
        scenario = scenario_to_dict(default_scenario())
        del scenario[key]
        with pytest.raises(ConfigError, match=rf"^scenario\.{key}: required$"):
            parse_config(json.dumps({"scenario": scenario}))

    @pytest.mark.parametrize("key", ["body_semi_major_m", "body_semi_minor_m", "painting_pitch_deg"])
    def test_optional_scenario_field_takes_its_default(self, key):
        scenario = scenario_to_dict(default_scenario())
        del scenario[key]
        assert parse_config(json.dumps({"scenario": scenario})).scenario == default_scenario()

    def test_n_per_cell_bounded_so_trial_ids_fit_int64(self):
        assert MAX_N_PER_CELL * len(METHODS) * len(SITUATIONS) - 1 <= np.iinfo(np.int64).max
        assert RunConfig(n_per_cell=MAX_N_PER_CELL).n_per_cell == MAX_N_PER_CELL
        with pytest.raises(ConfigError, match=r"^n_per_cell: must be in 1\.\."):
            RunConfig(n_per_cell=MAX_N_PER_CELL + 1)

    def test_eye_height_is_not_a_scenario_key(self):
        scenario = scenario_to_dict(default_scenario())
        scenario["eye_height_m"] = 1.15
        with pytest.raises(ConfigError, match="scenario: unknown keys: eye_height_m"):
            parse_config(json.dumps({"scenario": scenario}))

    def test_infinite_pose_coordinate_rejected(self):
        scenario = scenario_to_dict(default_scenario())
        scenario["robot_pose"] = [float("inf"), 0.0, 0.0]
        text = json.dumps({"scenario": scenario})
        assert "[Infinity, 0.0, 0.0]" in text
        with pytest.raises(ConfigError, match=r"scenario\.robot_pose\[0\]: expected a finite"):
            parse_config(text)

    def test_nan_painting_bearing_rejected(self):
        scenario = scenario_to_dict(default_scenario())
        scenario["paintings"][2]["bearing_deg"] = float("nan")
        text = json.dumps({"scenario": scenario})
        assert '"bearing_deg": NaN' in text
        with pytest.raises(
            ConfigError, match=r"scenario\.paintings\[2\]\.bearing_deg: expected a finite"
        ):
            parse_config(text)


class TestRoundTrip:
    def test_default_config_round_trips(self):
        config = RunConfig()
        assert parse_config(serialize_config(config)) == config

    def test_custom_config_round_trips(self):
        config = parse_config(
            json.dumps(
                {
                    "methods": ["M2", "M3"],
                    "situations": ["NPFOV"],
                    "n_per_cell": 5,
                    "base_seed": 99,
                    "output_dir": "out",
                    "trace": True,
                }
            )
        )
        again = parse_config(serialize_config(config))
        assert again == config

    def test_scenario_dict_round_trips(self):
        sc = default_scenario()
        assert scenario_from_dict(scenario_to_dict(sc)) == sc

    def test_each_dataclass_field_is_listed_once_in_field_order(self):
        assert list(_SCENARIO_SCHEMA) == [f.name for f in fields(Scenario)]
        assert ["scenario", *_CONFIG_SCHEMA] == [f.name for f in fields(RunConfig)]

    def test_equal_configs_serialize_to_the_same_bytes(self):
        room = default_scenario()
        reordered = replace(room, situation_map=dict(reversed(room.situation_map.items())))
        assert list(reordered.situation_map) != list(room.situation_map)
        config = RunConfig(scenario=reordered)
        assert config == RunConfig()
        assert serialize_config(config) == serialize_config(RunConfig())
        digest = hashlib.sha256(serialize_config(config).encode()).hexdigest()
        assert digest == "27414f0e8b756a8a94350b6554167064f3b191888eade229702902eebde27fb5"

    def test_serialized_form_is_strict_json(self):
        blob = json.loads(serialize_config(RunConfig()))
        assert blob["n_per_cell"] == 12
        assert blob["scenario"]["paintings"][0]["id"]


class TestScenarioFromFile:
    def test_scenario_path_resolved_against_base_dir(self, tmp_path):
        scenario_file = tmp_path / "scene.json"
        scenario_file.write_text(json.dumps(scenario_to_dict(default_scenario())))
        config = parse_config('{"scenario": "scene.json"}', base_dir=tmp_path)
        assert config.scenario == default_scenario()

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config('{"scenario": "absent.json"}', base_dir=tmp_path)

    def test_malformed_file_reported(self, tmp_path):
        scenario_file = tmp_path / "scene.json"
        scenario_file.write_text("{broken")
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config('{"scenario": "scene.json"}', base_dir=tmp_path)
