import errno
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gazesim import cli, harness
from gazesim.cli import main, stats_payload
from gazesim.config import RunConfig, scenario_from_dict, scenario_to_dict
from gazesim.harness import RESULTS_CSV_HEADER
from gazesim.scenario import default_scenario
from gazesim.stats import SUMMARY_CSV_HEADER
from gazesim.trace import TRACE_SOURCES


def run_cli(argv, capsys):
    # Argument errors leave main() via SystemExit(1); command errors return
    # their code. A shell cannot tell the difference and neither should we.
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def room_without_ofov():
    """The default room with P6, its one OFOV painting, left out of the map."""
    scenario = scenario_to_dict(default_scenario())
    del scenario["situation_map"]["P6"]
    return scenario


def moved_camera_room():
    """The default room with the head camera moved to (0.4, -0.3): from
    there P1, P4 and P5 no longer classify as their mapped situations."""
    scenario = scenario_to_dict(default_scenario())
    scenario["camera_pose"][:2] = [0.4, -0.3]
    return scenario


class TestCalibrate:
    def test_table_output(self, capsys):
        code, out, _ = run_cli(["calibrate"], capsys)
        assert code == 0
        assert "0.826087" in out  # conditional head-shake rate far to the side
        assert "0.904762" in out  # conditional utterance rate out of view
        assert "response probability per prompt" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(["calibrate", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        probs = payload["response_probabilities"]
        assert probs["HT"]["CFOV"] == pytest.approx(0.92)
        reproduced = payload["reproduced_success_rates"]
        assert reproduced["M1"]["CFOV"] == pytest.approx(0.92, abs=1e-12)
        assert reproduced["M4"]["OFOV"] == pytest.approx(0.92, abs=1e-12)
        assert reproduced["M3"] == reproduced["M4"]

    # calibrate's output waits in stdout's buffer until the flush; full
    # mode's trace fills it and fails mid-run. Stdout is block-buffered, as
    # on any pipe, and no bytes left in its buffer fail again at exit.
    @pytest.mark.parametrize("argv", [["calibrate"], ["simulate", "--mode", "full"]])
    def test_closed_stdout_exits_one_naming_stdout(self, argv):
        # Printing to a pipe whose reader has gone raises BrokenPipeError,
        # an OSError without a filename.
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        try:
            result = subprocess.run(
                [sys.executable, "-m", "gazesim", *argv], stdout=write_end,
                stderr=subprocess.PIPE, text=True, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 1
        assert result.stderr == f"gazesim: cannot write stdout: {os.strerror(errno.EPIPE)}\n"


class TestSimulate:
    def test_trace_stream_and_summary(self, capsys):
        code, out, err = run_cli(
            [
                "simulate",
                "--method",
                "M1",
                "--situation",
                "CFOV",
                "--seed",
                "3",
                "--mode",
                "ideal",
            ],
            capsys,
        )
        assert code == 0
        assert err.startswith("trial: method=M1 situation=CFOV")
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert lines
        for entry in lines:
            assert set(entry) == {"t", "source", "kind", "detail"}
        kinds = [e["kind"] for e in lines]
        assert "HeadTurnStart" in kinds
        assert ("Success" in kinds) or ("Failure" in kinds)
        times = [e["t"] for e in lines]
        assert times == sorted(times)

    def test_full_mode_emits_every_declared_source(self, capsys):
        code, out, _ = run_cli(["simulate", "--mode", "full", "--seed", "42"], capsys)
        assert code == 0
        sources = {json.loads(line)["source"] for line in out.strip().splitlines()}
        assert sources == set(TRACE_SOURCES)

    def test_event_mode_runs(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--method", "M4", "--situation", "OFOV", "--seed", "7", "--mode", "event"],
            capsys,
        )
        assert code == 0
        assert "responded=true" in err

    def test_unknown_method_exits_one(self, capsys):
        code, _, _ = run_cli(
            ["simulate", "--method", "M9", "--situation", "CFOV"], capsys
        )
        assert code == 1

    def test_inconsistent_scene_exits_one(self, tmp_path, capsys):
        scenario = scenario_to_dict(default_scenario())
        # Swap the labels of the central and far-side paintings.
        swapped = {}
        for pid, name in scenario["situation_map"].items():
            if name == "CFOV":
                swapped[pid] = "OFOV"
            elif name == "OFOV":
                swapped[pid] = "CFOV"
            else:
                swapped[pid] = name
        scenario["situation_map"] = swapped
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"scenario": scenario}))
        code, out, err = run_cli(
            [
                "simulate",
                "--config",
                str(config_path),
                "--method",
                "M1",
                "--situation",
                "CFOV",
                "--mode",
                "event",
            ],
            capsys,
        )
        assert code == 1
        assert err.startswith("gazesim: scenario.situation_map.P1: ")
        assert "scenario.situation_map.P6: " in err
        assert "Traceback" not in out + err

    def test_unmapped_situation_exits_one(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"scenario": room_without_ofov(), "situations": ["CFOV"]})
        )
        argv = ["simulate", "--config", str(config_path), "--mode", "event"]
        code, out, err = run_cli(argv + ["--situation", "OFOV"], capsys)
        assert code == 1
        assert err.startswith("gazesim: scenario.situation_map: maps no painting to OFOV")
        assert "Traceback" not in out + err
        assert out == ""
        code, _, err = run_cli(argv + ["--situation", "CFOV"], capsys)
        assert code == 0
        assert "situation=CFOV" in err

    def test_sensor_on_the_seat_exits_one(self, tmp_path, capsys):
        scenario = scenario_to_dict(default_scenario())
        scenario["sensor_pose"] = list(scenario["human_seat"])
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"scenario": scenario}))
        code, out, err = run_cli(
            ["simulate", "--config", str(config_path), "--mode", "full"], capsys
        )
        assert code == 1
        assert "scenario.sensor_pose" in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize(
        "key, value",
        [("camera_pose", None), ("human_seat", [3.5, 0.0, 180.0])],
        ids=["camera_on_the_seat", "seat_beyond_face_range"],
    )
    def test_impossible_geometry_exits_one(self, tmp_path, capsys, key, value):
        scenario = scenario_to_dict(default_scenario())
        scenario[key] = value or list(scenario["human_seat"])  # None: on the seat
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"scenario": scenario}))
        code, out, err = run_cli(
            ["simulate", "--config", str(config_path), "--mode", "ideal"], capsys
        )
        assert code == 1
        assert err.startswith(f"gazesim: scenario.{key}: ")
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("mode", ["ideal", "full", "event"])
    def test_trial_time_cap_exits_two(self, capsys, monkeypatch, mode):
        # The event engine's cell run is the tick loop too, so the cap
        # bounds it, and its abort names the cell rather than a trial.
        monkeypatch.setattr(harness, "TRIAL_TIME_CAP_S", 0.5)
        code, _, err = run_cli(
            ["simulate", "--method", "M4", "--situation", "OFOV", "--mode", mode], capsys
        )
        run = "event cell" if mode == "event" else "trial 0"
        assert code == 2
        assert f"aborted: trial exceeded 0.5 s without a terminal event ({run}, M4)" in err
        assert "Traceback" not in err


# An --out that names a regular file, or a path under one.
OUT_ON_A_FILE = [("f", "File exists"), ("f/sub", "Not a directory")]


class TestExperiment:
    @pytest.mark.parametrize("out, reason", OUT_ON_A_FILE)
    def test_out_on_a_regular_file_exits_one(self, tmp_path, capsys, out, reason):
        (tmp_path / "f").touch()
        code, stdout, err = run_cli(["experiment", "--out", str(tmp_path / out)], capsys)
        assert code == 1
        assert err == f"gazesim: --out: {tmp_path / out}: {reason}\n"
        assert "Traceback" not in err
        assert stdout == ""

    def test_results_csv_a_directory_exits_one(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"n_per_cell": 2}))
        results = tmp_path / "o3" / "results.csv"
        results.mkdir(parents=True)
        argv = ["experiment", "--config", str(config_path), "--out", str(tmp_path / "o3")]
        code, stdout, err = run_cli(argv, capsys)
        assert code == 1
        assert err == f"gazesim: cannot write {results}: Is a directory\n"
        assert stdout == ""

    def test_a_write_error_without_a_filename_exits_one(self, tmp_path, capsys, monkeypatch):
        # A write that fails midway, on a full disk say, names no file.
        def disk_full(path, records):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli, "write_records_csv", disk_full)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"n_per_cell": 2}))
        argv = ["experiment", "--config", str(config_path), "--out", str(tmp_path / "o")]
        code, stdout, err = run_cli(argv, capsys)
        assert code == 1
        assert err == f"gazesim: cannot write output: {os.strerror(errno.ENOSPC)}\n"
        assert stdout == ""

    def test_writes_all_outputs(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"n_per_cell": 2, "base_seed": 7, "output_dir": str(tmp_path / "out")})
        )
        code, out, _ = run_cli(["experiment", "--config", str(config_path)], capsys)
        assert code == 0
        results = (tmp_path / "out" / "results.csv").read_text()
        lines = results.strip().splitlines()
        assert lines[0] == RESULTS_CSV_HEADER
        assert len(lines) == 1 + 32
        summary = (tmp_path / "out" / "summary.csv").read_text()
        assert summary.splitlines()[0] == SUMMARY_CSV_HEADER
        stats = json.loads((tmp_path / "out" / "stats.json").read_text())
        assert set(stats) == {"overall", "anova", "bonferroni"}
        assert stats["anova"]["method"]["df"] == [3, 16]
        assert len(stats["bonferroni"]) == 6
        assert not (tmp_path / "out" / "chart.json").exists()

    def test_deterministic_across_runs(self, tmp_path, capsys):
        for name in ("a", "b"):
            code, _, _ = run_cli(
                [
                    "experiment",
                    "--seed",
                    "11",
                    "--out",
                    str(tmp_path / name),
                    "--mode",
                    "event",
                    "--config",
                    str(self._tiny_config(tmp_path)),
                ],
                capsys,
            )
            assert code == 0
        a = (tmp_path / "a" / "results.csv").read_bytes()
        b = (tmp_path / "b" / "results.csv").read_bytes()
        assert a == b

    @staticmethod
    def _tiny_config(tmp_path):
        path = tmp_path / "tiny.json"
        if not path.exists():
            path.write_text(json.dumps({"n_per_cell": 2}))
        return path

    def test_trace_files_written(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"n_per_cell": 1, "methods": ["M1"], "situations": ["CFOV"]}))
        code, _, _ = run_cli(
            [
                "experiment",
                "--config",
                str(config_path),
                "--out",
                str(tmp_path / "out"),
                "--trace",
            ],
            capsys,
        )
        assert code == 0
        traces = list((tmp_path / "out" / "traces").glob("trial_*.jsonl"))
        assert len(traces) == 1
        first_line = traces[0].read_text().strip().splitlines()[0]
        assert json.loads(first_line)["source"]

    @pytest.mark.parametrize("mode", ["event", "ideal"])
    def test_trace_file_a_directory_exits_one(self, tmp_path, capsys, mode):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"n_per_cell": 1, "methods": ["M1"], "situations": ["CFOV"]}))
        trace = tmp_path / "o5" / "traces" / "trial_000000.jsonl"
        trace.mkdir(parents=True)
        argv = ["experiment", "--config", str(config_path), "--out", str(tmp_path / "o5"),
                "--trace", "--mode", mode]
        code, stdout, err = run_cli(argv, capsys)
        assert code == 1
        assert err == f"gazesim: cannot write {trace}: Is a directory\n"
        assert stdout == ""

    def test_bad_config_exits_one(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"n_per_cell": 0}')
        code, _, err = run_cli(["experiment", "--config", str(config_path)], capsys)
        assert code == 1
        assert "n_per_cell" in err

    # One bad value for each type check of the config and its scenario.
    @pytest.mark.parametrize(
        "keys, value, message",
        [
            (("scenario", "body_semi_major_m"), "0.3",
             "scenario.body_semi_major_m: expected a number, got '0.3'"),
            (("trace",), "yes", "trace: expected true or false, got 'yes'"),
            (("output_dir",), 3, "output_dir: expected a string, got 3"),
            (("scenario",), [1], "scenario: expected an object"),
            (("scenario", "paintings"), {}, "scenario.paintings: expected a list"),
            (("scenario", "paintings", 0), "P1", "scenario.paintings[0]: expected an object"),
            (("scenario", "paintings", 0), {"id": "P1"},
             "scenario.paintings[0]: needs id and bearing_deg"),
            (("scenario", "situation_map"), [], "scenario.situation_map: expected an object"),
        ],
    )
    def test_each_type_check_exits_one_naming_its_key(
        self, tmp_path, capsys, keys, value, message
    ):
        config = {"scenario": scenario_to_dict(default_scenario())}
        *parents, last = keys
        target = config
        for key in parents:
            target = target[key]
        target[last] = value
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            ["experiment", "--config", str(config_path), "--out", str(out_dir)], capsys
        )
        assert code == 1
        assert err == f"gazesim: {message}\n"
        assert out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "key,value",
        [
            ("robot_pose", [float("inf"), 0.0, 0.0]),
            ("bearing_deg", float("nan")),
            ("human_seat", [10**400, 0.0, 0.0]),
        ],
    )
    def test_non_finite_config_exits_one(self, tmp_path, capsys, key, value):
        scenario = scenario_to_dict(default_scenario())
        if key == "bearing_deg":
            scenario["paintings"][0]["bearing_deg"] = value
        else:
            scenario[key] = value
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"scenario": scenario, "n_per_cell": 1}))
        code, _, err = run_cli(
            ["experiment", "--config", str(config_path), "--out", str(tmp_path / "out")],
            capsys,
        )
        assert code == 1
        assert err.startswith("gazesim: scenario.")
        assert "finite" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_unreachable_situation_map_exits_one(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"scenario": moved_camera_room()}))
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            ["experiment", "--config", str(config_path), "--out", str(out_dir)], capsys
        )
        assert code == 1
        assert err.startswith("gazesim: scenario.situation_map.P1: ")
        for pid in ("P4", "P5"):
            assert f"scenario.situation_map.{pid}: " in err
        assert "Traceback" not in out + err
        assert out == ""
        assert not out_dir.exists()

    def test_unmapped_situation_exits_one(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"scenario": room_without_ofov()}))
        out_dir = tmp_path / "out"
        argv = ["experiment", "--config", str(config_path), "--out", str(out_dir)]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert err.startswith("gazesim: scenario.situation_map: maps no painting to OFOV")
        assert "Traceback" not in out + err
        assert out == ""
        assert not out_dir.exists()
        config_path.write_text(
            json.dumps({"scenario": room_without_ofov(), "situations": ["CFOV"], "n_per_cell": 2})
        )
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
        assert (out_dir / "results.csv").read_text().count(",CFOV,") == 8

    def test_missing_config_exits_one(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["experiment", "--config", str(tmp_path / "absent.json")], capsys
        )
        assert code == 1
        assert "cannot read" in err

    def test_config_not_utf8_exits_one(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_bytes(b'{"n_per_cell": 2}\xff')
        code, out, err = run_cli(["experiment", "--config", str(config_path)], capsys)
        assert code == 1
        assert err.startswith(f"gazesim: cannot read config {config_path}: ")
        assert "can't decode byte 0xff" in err
        assert "Traceback" not in out + err

    def test_scenario_file_not_utf8_exits_one(self, tmp_path, capsys):
        (tmp_path / "room.json").write_bytes(b"\xff")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"scenario": "room.json"}))
        code, out, err = run_cli(
            ["simulate", "--config", str(config_path), "--mode", "event"], capsys
        )
        assert code == 1
        assert err.startswith(f"gazesim: scenario: cannot read {tmp_path / 'room.json'}: ")
        assert "can't decode byte 0xff" in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "--seed", "-1"],
            ["experiment", "--config", "{config}"],
            ["simulate", "--seed", "-1", "--mode", "event"],
            ["track-demo", "--seed", "-1", "--runs", "1", "--frames", "40"],
        ],
    )
    def test_negative_seed_exits_one(self, tmp_path, capsys, argv):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"base_seed": -5, "n_per_cell": 1}))
        argv = [arg.format(config=config_path) for arg in argv]
        if argv[0] == "experiment":
            argv += ["--out", str(tmp_path / "out")]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert "expected a non-negative integer" in err
        assert "Traceback" not in err
        assert out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_one(self, tmp_path, capsys, jobs):
        code, _, err = run_cli(
            [
                "experiment",
                "--config",
                str(self._tiny_config(tmp_path)),
                "--out",
                str(tmp_path / "out"),
                "--jobs",
                jobs,
            ],
            capsys,
        )
        assert code == 1
        assert "jobs" in err
        assert not (tmp_path / "out").exists()

    def test_out_made_a_file_during_the_run_exits_one(self, tmp_path, capsys, monkeypatch):
        out_dir = tmp_path / "out"

        def run_then_block_out(*args, **kwargs):
            records = harness.run_experiment(*args, **kwargs)
            out_dir.touch()
            return records

        monkeypatch.setattr(cli, "run_experiment", run_then_block_out)
        argv = ["experiment", "--config", str(self._tiny_config(tmp_path)), "--out", str(out_dir)]
        code, stdout, err = run_cli(argv, capsys)
        assert code == 1
        assert err == f"gazesim: cannot write {out_dir}: File exists\n"
        assert stdout == ""

    def test_trial_time_cap_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(harness, "TRIAL_TIME_CAP_S", 0.5)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"n_per_cell": 1}))
        out_dir = tmp_path / "out"
        argv = ["experiment", "--config", str(config_path), "--out", str(out_dir),
                "--mode", "ideal"]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("gazesim: aborted: trial exceeded 0.5 s")
        assert "Traceback" not in out + err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "situations, jobs, workers",
        [
            (["CFOV", "NPFOV", "FPFOV", "OFOV"], "64", 4),  # capped at the cores
            (["CFOV", "NPFOV"], "64", 2),  # capped at the trials
            (["CFOV", "NPFOV", "FPFOV", "OFOV"], "3", 3),
        ],
    )
    def test_pool_size_capped_at_cores_and_trials(
        self, tmp_path, capsys, monkeypatch, situations, jobs, workers
    ):
        # A stand-in pool records its size and runs the trials in-process,
        # so no worker process is started whatever --jobs says. Only the
        # tick modes use the pool.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"n_per_cell": 1, "methods": ["M1"], "situations": situations})
        )
        code, _, _ = run_cli(
            [
                "experiment",
                "--config",
                str(config_path),
                "--out",
                str(tmp_path / "out"),
                "--jobs",
                jobs,
                "--mode",
                "ideal",
            ],
            capsys,
        )
        assert code == 0
        assert sizes == [workers]
        rows = (tmp_path / "out" / "results.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + len(situations)


class TestReport:
    def test_report_adds_chart(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"n_per_cell": 3}))
        run_cli(
            [
                "experiment",
                "--config",
                str(config_path),
                "--out",
                str(tmp_path / "out"),
            ],
            capsys,
        )
        code, _, _ = run_cli(
            ["report", str(tmp_path / "out" / "results.csv"), "--out", str(tmp_path / "rep")],
            capsys,
        )
        assert code == 0
        chart = json.loads((tmp_path / "rep" / "chart.json").read_text())
        assert {c["method"] for c in chart["success_by_cell"]} == {"M1", "M2", "M3", "M4"}
        points = sum(len(c["points"]) for c in chart["success_by_cell"])
        assert points == 16
        assert (tmp_path / "rep" / "summary.csv").exists()
        assert (tmp_path / "rep" / "stats.json").exists()

    @pytest.mark.parametrize("out, reason", OUT_ON_A_FILE)
    def test_out_on_a_regular_file_exits_one(self, tmp_path, capsys, out, reason):
        results = tmp_path / "results.csv"
        results.write_text(RESULTS_CSV_HEADER + "\n0,M1,CFOV,false,,,,11\n")
        (tmp_path / "f").touch()
        code, _, err = run_cli(["report", str(results), "--out", str(tmp_path / out)], capsys)
        assert code == 1
        assert err == f"gazesim: --out: {tmp_path / out}: {reason}\n"
        assert "Traceback" not in err

    def test_summary_csv_a_directory_exits_one(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        results.write_text(RESULTS_CSV_HEADER + "\n0,M1,CFOV,false,,,,11\n")
        summary = tmp_path / "o4" / "summary.csv"
        summary.mkdir(parents=True)
        code, stdout, err = run_cli(["report", str(results), "--out", str(tmp_path / "o4")], capsys)
        assert code == 1
        assert err == f"gazesim: cannot write {summary}: Is a directory\n"
        assert stdout == ""

    def test_missing_results_exits_one(self, tmp_path, capsys):
        code, _, err = run_cli(["report", str(tmp_path / "nope.csv")], capsys)
        assert code == 1

    def test_header_only_results_exits_one(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        results.write_text(RESULTS_CSV_HEADER + "\n")
        code, out, err = run_cli(["report", str(results), "--out", str(tmp_path / "rep")], capsys)
        assert code == 1
        assert err == f"gazesim: {results}: no records\n"
        assert out == ""
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("responded", ["yes", "True", "1", ""])
    def test_non_boolean_responded_exits_one(self, tmp_path, capsys, responded):
        bad = tmp_path / "results.csv"
        bad.write_text(
            RESULTS_CSV_HEADER
            + "\n0,M1,CFOV,false,,,,11\n"
            + f"1,M1,CFOV,{responded},,,,12\n"
        )
        code, _, err = run_cli(["report", str(bad), "--out", str(tmp_path / "rep")], capsys)
        assert code == 1
        assert "line 3" in err
        assert "responded" in err
        assert not (tmp_path / "rep").exists()

    def test_foreign_csv_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n")
        code, _, err = run_cli(["report", str(bad)], capsys)
        assert code == 1
        assert "header" in err or "bad.csv" in err


def load_reproduce_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_results.py"
    spec = importlib.util.spec_from_file_location("reproduce_results", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestReproduceScript:
    def test_jobs_zero_exits_one(self, capsys):
        code = load_reproduce_script().main(["--n-per-cell", "2", "--jobs", "0"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("reproduce_results: jobs must be at least 1")
        assert "Traceback" not in err

    def test_negative_seed_exits_one(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = load_reproduce_script().main(
            ["--n-per-cell", "2", "--seed", "-1", "--out", str(out_dir)]
        )
        out, err = capsys.readouterr()
        assert code == 1
        assert err.startswith("reproduce_results: base_seed: expected a non-negative")
        assert "Traceback" not in err
        assert out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("out, reason", OUT_ON_A_FILE)
    def test_out_on_a_regular_file_exits_one_before_the_run(
        self, tmp_path, capsys, monkeypatch, out, reason
    ):
        script = load_reproduce_script()
        runs = []
        monkeypatch.setattr(script, "run_experiment", lambda *a, **k: runs.append(a))
        (tmp_path / "f").touch()
        code = script.main(["--n-per-cell", "2", "--out", str(tmp_path / out)])
        stdout, err = capsys.readouterr()
        assert code == 1
        assert err == f"reproduce_results: --out: {tmp_path / out}: {reason}\n"
        assert "Traceback" not in stdout + err
        assert stdout == "" and runs == []

    def test_results_csv_a_directory_exits_one(self, tmp_path, capsys):
        results = tmp_path / "out" / "results.csv"
        results.mkdir(parents=True)
        code = load_reproduce_script().main(["--n-per-cell", "2", "--out", str(results.parent)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"reproduce_results: cannot write {results}: Is a directory\n"

    def test_trial_time_cap_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(harness, "TRIAL_TIME_CAP_S", 0.5)
        out_dir = tmp_path / "out"
        code = load_reproduce_script().main(
            ["--n-per-cell", "1", "--mode", "ideal", "--out", str(out_dir)]
        )
        out, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("reproduce_results: aborted: trial exceeded 0.5 s")
        assert "Traceback" not in out + err
        assert not out_dir.exists()

    def test_unreachable_situation_map_exits_one(self, tmp_path, capsys, monkeypatch):
        script = load_reproduce_script()

        def moved_camera_config(**kwargs):
            # The room cannot be built, so the config fails inside main().
            return RunConfig(scenario=scenario_from_dict(moved_camera_room()), **kwargs)

        monkeypatch.setattr(script, "RunConfig", moved_camera_config)
        out_dir = tmp_path / "out"
        code = script.main(["--n-per-cell", "2", "--out", str(out_dir)])
        out, err = capsys.readouterr()
        assert code == 1
        assert err.startswith("reproduce_results: scenario.situation_map.P1: ")
        assert "Traceback" not in out + err
        assert out == ""
        assert not out_dir.exists()

    def test_statistics_computed_once(self, tmp_path, capsys, monkeypatch):
        script = load_reproduce_script()
        calls = []

        def counting_payload(records):
            calls.append(len(records))
            return stats_payload(records)

        monkeypatch.setattr(script, "stats_payload", counting_payload)
        assert script.main(["--n-per-cell", "2", "--out", str(tmp_path / "out")]) == 0
        assert calls == [32]

    def test_stats_json_has_the_cli_schema(self, tmp_path, capsys):
        script_out = tmp_path / "script"
        code = load_reproduce_script().main(
            ["--n-per-cell", "2", "--out", str(script_out)]
        )
        assert code == 0
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"n_per_cell": 2}))
        cli_out = tmp_path / "cli"
        code, _, _ = run_cli(
            ["experiment", "--config", str(config_path), "--out", str(cli_out)], capsys
        )
        assert code == 0
        script_stats = json.loads((script_out / "stats.json").read_text())
        cli_stats = json.loads((cli_out / "stats.json").read_text())
        assert set(script_stats) == set(cli_stats) == {"overall", "anova", "bonferroni"}
        for name in ("results.csv", "summary.csv", "stats.json"):
            assert (script_out / name).read_bytes() == (cli_out / name).read_bytes()

    def test_one_trial_per_cell_prints_na_and_writes_null_anova(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = load_reproduce_script().main(
            ["--n-per-cell", "1", "--out", str(out_dir)]
        )
        out, err = capsys.readouterr()
        assert code == 0
        assert "Traceback" not in out + err
        assert "method       n/a" in out
        assert json.loads((out_dir / "stats.json").read_text())["anova"] is None


class TestTrackDemo:
    def test_runs_and_reports(self, capsys):
        code, out, _ = run_cli(
            ["track-demo", "--runs", "1", "--frames", "40", "--seed", "1"], capsys
        )
        assert code == 0
        assert "orientation error" in out
        assert "throughput" in out

    def test_turn_statistics_are_pinned(self, capsys):
        code, out, _ = run_cli(
            ["track-demo", "--seed", "42", "--runs", "3", "--frames", "100", "--motion", "turn"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[:3] == [
            "runs=3 frames=100 motion=turn",
            "orientation error: median 2.68 deg, p95 8.16 deg, max 10.52 deg, "
            "share under 6 deg 0.771",
            "position error: median 0.014 m, p95 0.032 m, max 0.038 m",
        ]

    def test_too_few_frames_exits_one(self, capsys):
        code, _, err = run_cli(["track-demo", "--frames", "10"], capsys)
        assert code == 1


class TestArgumentErrors:
    def test_unknown_subcommand_exits_one(self, capsys):
        code, _, _ = run_cli(["transmogrify"], capsys)
        assert code == 1

    def test_no_subcommand_exits_one(self, capsys):
        code, _, _ = run_cli([], capsys)
        assert code == 1
