"""Command-line surface.

Subcommands:
  simulate    one trial, JSONL trace on stdout
  experiment  the crossed design; writes results.csv, summary.csv, stats.json
  calibrate   print the response probabilities derived from the built-in rates
  track-demo  body-tracker error statistics on synthetic motion
  report      recompute summary/stats/chart files from an existing results.csv

Exit codes: 0 success, 1 invalid arguments or config, 2 runtime abort.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .body_tracker import BodyTracker
from .config import ConfigError, RunConfig, parse_config
from .controller import FRAME_RATE_HZ, METHODS, Method
from .geometry import Pose2, normalize_angle
from .harness import (
    TrialAbortError,
    TRIAL_MODES,
    _frame_draws,
    read_records_csv,
    run_experiment,
    run_trial,
    write_records_csv,
)
from .human import (
    CAPTURE_ACTIONS,
    REFERENCE_SUCCESS_RATES,
    derive_response_table,
    escalation_success,
)
from .laser import EllipseBody, synthesize_scan
from .scenario import default_scenario
from .seeding import STREAM_INIT, derive_seed
from .situation import SITUATIONS, ViewingSituation
from .stats import (
    anova_two_way,
    bonferroni_pairwise,
    gaze_stats,
    overall_ratio,
    records_to_cells,
    success_ratio,
    to_jsonable,
    write_summary_csv,
)
from .trace import TraceWriter


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="gazesim", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    simulate = sub.add_parser("simulate", help="run one trial, trace to stdout")
    simulate.add_argument("--config", type=str, default=None)
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument(
        "--method", choices=[m.value for m in METHODS], default="M4"
    )
    simulate.add_argument(
        "--situation", choices=[s.value for s in SITUATIONS], default="CFOV"
    )
    simulate.add_argument("--mode", choices=TRIAL_MODES, default="full")

    experiment = sub.add_parser("experiment", help="run the crossed design")
    experiment.add_argument("--config", type=str, default=None)
    experiment.add_argument("--seed", type=int, default=None)
    experiment.add_argument("--out", type=str, default=None)
    experiment.add_argument("--jobs", type=int, default=1)
    experiment.add_argument("--trace", action="store_true")
    experiment.add_argument("--mode", choices=TRIAL_MODES, default="event")

    calibrate = sub.add_parser(
        "calibrate", help="print derived response probabilities"
    )
    calibrate.add_argument("--json", action="store_true", dest="as_json")

    demo = sub.add_parser("track-demo", help="body-tracker error statistics")
    demo.add_argument("--seed", type=int, default=42)
    demo.add_argument("--runs", type=int, default=20)
    demo.add_argument("--frames", type=int, default=100)
    demo.add_argument("--motion", choices=("static", "turn"), default="static")

    report = sub.add_parser("report", help="summaries from an existing results.csv")
    report.add_argument("results_csv", type=str)
    report.add_argument("--out", type=str, default=None)

    return parser


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    file_path = Path(path)
    try:
        text = file_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, base_dir=file_path.parent)


def _seed_flag(seed: int | None) -> int | None:
    if seed is not None and seed < 0:
        raise ConfigError(f"--seed: expected a non-negative integer, got {seed}")
    return seed


def _supported(fn, *args):
    """fn(*args), or None when the records cannot support that statistic."""
    try:
        return fn(*args)
    except ValueError:
        return None


def stats_payload(records) -> dict:
    """The stats.json document. A statistic the records cannot support
    (a method missing a situation, fewer than two trials per cell, one
    method only) is left out or null."""
    return {
        "overall": {m.value: r for m in METHODS
                    if (r := _supported(overall_ratio, records, m)) is not None},
        "anova": _supported(lambda: anova_two_way(records_to_cells(records))),
        "bonferroni": _supported(bonferroni_pairwise, records),
    }


def _chart_payload(records) -> dict:
    by_method: dict[str, list] = {}
    for cell in success_ratio(records):
        by_method.setdefault(cell.method.value, []).append({
            "situation": cell.situation.value, "mean": cell.mean_success,
            "sd": cell.sd_success, "n": cell.n,
        })
    return {
        "success_by_cell": [{"method": name, "points": p} for name, p in by_method.items()],
        "overall": [{"method": m.value, "ratio": r} for m in METHODS
                    if (r := _supported(overall_ratio, records, m)) is not None],
        "gaze": [{"method": m.value, "mean": g[0], "variance": g[1]} for m in METHODS
                 if (g := _supported(gaze_stats, records, m)) is not None],
    }


def _write_json(path: Path, payload) -> None:
    path.write_text(
        json.dumps(to_jsonable(payload), indent=2) + "\n", encoding="utf-8"
    )


def make_out_dir(path: Path, name: str = "--out") -> None:
    """mkdir -p `path`, with an OSError as a ConfigError naming `name`."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{name}: {path}: {exc.strerror or exc}") from exc


def check_out_dir(path: Path, name: str) -> None:
    """Fail before the run where making `path` after it would: when the
    nearest part of it that exists is not a directory."""
    if not next(p for p in (path, *path.parents) if p.exists()).is_dir():
        make_out_dir(path, name)  # raises, with the system's reason


def write_run(out_dir: Path, records, stats: dict) -> list[Path]:
    """Write a run's results.csv, summary.csv and stats.json (`stats`, from
    `stats_payload(records)`), making `out_dir` first."""
    out_dir.mkdir(parents=True, exist_ok=True)
    write_records_csv(out_dir / "results.csv", records)
    return [out_dir / "results.csv"] + write_report_files(
        out_dir, records, stats, include_chart=False
    )


def write_report_files(
    out_dir: Path, records, stats: dict, include_chart: bool
) -> list[Path]:
    """Write summary.csv, stats.json (`stats`, from `stats_payload(records)`)
    and optionally chart.json into the existing `out_dir`."""
    write_summary_csv(out_dir / "summary.csv", success_ratio(records))
    _write_json(out_dir / "stats.json", stats)
    if include_chart:
        _write_json(out_dir / "chart.json", _chart_payload(records))
    names = ("summary.csv", "stats.json", "chart.json")[:3 if include_chart else 2]
    return [out_dir / name for name in names]


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    seed = config.base_seed if args.seed is None else _seed_flag(args.seed)
    method = Method(args.method)
    situation = ViewingSituation(args.situation)
    # The design check: the room must map a painting to the situation.
    config = replace(config, situations=(situation,))
    trace = TraceWriter(sys.stdout)
    record = run_trial(
        config.scenario, method, situation, seed, mode=args.mode, trace=trace
    )
    print(
        f"trial: method={record.method.value} situation={record.situation.value} "
        f"responded={str(record.responded).lower()} "
        f"action={record.responding_action.value if record.responding_action else '-'} "
        f"latency={record.response_latency_s if record.response_latency_s is not None else '-'} "
        f"gaze={record.gaze_time_s if record.gaze_time_s is not None else '-'} "
        f"seed={record.seed}",
        file=sys.stderr,
    )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    seed = _seed_flag(args.seed)
    if seed is not None:
        config = replace(config, base_seed=seed)
    out_dir = Path(args.out if args.out is not None else config.output_dir)
    check_out_dir(out_dir, "--out" if args.out is not None else "output_dir")
    trace_dir = out_dir / "traces" if (args.trace or config.trace) else None
    records = run_experiment(config, mode=args.mode, jobs=args.jobs, trace_dir=trace_dir)
    for path in write_run(out_dir, records, stats_payload(records)):
        print(f"wrote {path}")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    table = derive_response_table()
    reproduced = {
        method.value: {
            situation.value: escalation_success(method, situation)
            for situation in SITUATIONS
        }
        for method in METHODS
    }
    if args.as_json:
        payload = {
            "response_probabilities": {
                action.value: {
                    situation.value: table[action][situation]
                    for situation in SITUATIONS
                }
                for action in CAPTURE_ACTIONS
            },
            "reproduced_success_rates": reproduced,
        }
        print(json.dumps(to_jsonable(payload), indent=2))
        return 0
    header = "          " + "".join(f"{s.value:>10}" for s in SITUATIONS)
    print("response probability per prompt")
    print(header)
    for action in CAPTURE_ACTIONS:
        row = "".join(f"{table[action][s]:>10.6f}" for s in SITUATIONS)
        print(f"{action.value:<10}{row}")
    print("\nreproduced cumulative success per method")
    print(header)
    for method in METHODS:
        row = "".join(f"{reproduced[method.value][s.value]:>10.6f}" for s in SITUATIONS)
        reference = REFERENCE_SUCCESS_RATES[method]
        ref_row = "".join(f"{reference[s]:>10.2f}" for s in SITUATIONS)
        print(f"{method.value:<10}{row}")
        print(f"{'  target':<10}{ref_row}")
    return 0


def _cmd_track_demo(args: argparse.Namespace) -> int:
    if args.runs < 1 or args.frames < 31:
        raise ConfigError("track-demo needs --runs >= 1 and --frames >= 31")
    _seed_flag(args.seed)
    scenario = default_scenario()
    seat = scenario.human_seat
    sensor = scenario.sensor_pose
    semi_axes = (scenario.body_semi_major_m, scenario.body_semi_minor_m)
    theta_errors: list[float] = []
    position_errors: list[float] = []
    t0 = time.perf_counter()
    for run in range(args.runs):
        base = derive_seed(args.seed, run)
        tracker = BodyTracker(semi_axes, guess=seat, seed=derive_seed(base, STREAM_INIT))
        heading = seat.heading_deg
        draws = zip(range(args.frames), _frame_draws(base, full=True))
        for frame, (_, laser_seed, filter_seed) in draws:
            if args.motion == "turn" and frame >= 30:
                heading = normalize_angle(heading + 60.0 / FRAME_RATE_HZ)
            body = EllipseBody(Pose2(seat.x, seat.y, heading), *semi_axes)
            scan = synthesize_scan(sensor, body, seed=laser_seed)
            estimate = tracker.step(scan, seed=filter_seed)
            if frame >= 30:
                theta_errors.append(
                    abs(normalize_angle(estimate.theta_deg - heading))
                )
                position_errors.append(
                    float(np.hypot(estimate.x - seat.x, estimate.y - seat.y))
                )
    elapsed = time.perf_counter() - t0
    frames_total = args.runs * args.frames
    theta = np.asarray(theta_errors)
    position = np.asarray(position_errors)
    print(f"runs={args.runs} frames={args.frames} motion={args.motion}")
    print(
        f"orientation error: median {np.median(theta):.2f} deg, "
        f"p95 {np.percentile(theta, 95):.2f} deg, max {theta.max():.2f} deg, "
        f"share under 6 deg {np.mean(theta < 6.0):.3f}"
    )
    print(
        f"position error: median {np.median(position):.3f} m, "
        f"p95 {np.percentile(position, 95):.3f} m, max {position.max():.3f} m"
    )
    print(f"throughput: {frames_total / elapsed:.0f} frames/s")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    csv_path = Path(args.results_csv)
    try:
        records = read_records_csv(csv_path)
    except OSError as exc:
        raise ConfigError(f"cannot read {csv_path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{csv_path}: {exc}") from exc
    if not records:
        raise ConfigError(f"{csv_path}: no records")
    out_dir = Path(args.out) if args.out is not None else csv_path.parent
    make_out_dir(out_dir)
    for path in write_report_files(
        out_dir, records, stats_payload(records), include_chart=True
    ):
        print(f"wrote {path}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "experiment": _cmd_experiment,
    "calibrate": _cmd_calibrate,
    "track-demo": _cmd_track_demo,
    "report": _cmd_report,
}


def guarded(prog: str, command, args: argparse.Namespace) -> int:
    """command(args), with its errors as exit codes: 1 for a ConfigError or
    an output that cannot be written, 2 for a trial that aborts."""
    try:
        code = command(args)
        sys.stdout.flush()  # a reader that has gone fails here, not in the flush at exit
        return code
    except ConfigError as exc:
        print(f"{prog}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # inputs are read as ConfigErrors, so this is an output
        if isinstance(exc, BrokenPipeError):  # stdout's: its flush at exit writes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        name = exc.filename or ("stdout" if isinstance(exc, BrokenPipeError) else "output")
        print(f"{prog}: cannot write {name}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    except TrialAbortError as exc:
        print(f"{prog}: aborted: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return guarded("gazesim", _COMMANDS[args.command], args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
