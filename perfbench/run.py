#!/usr/bin/env python3
"""gazesim benchmark: one workload per run.

    python3 perfbench/run.py --workload event_design --seed 42 --seconds 20 --trace 0

Run from the root of a gazesim checkout; the package is imported from its
`src/` directory and driven through its public API and `gazesim.cli.main`,
exactly as a user runs `gazesim experiment` and `gazesim report`.

`--trace 0` times the workload with tracing off and reports the end-to-end
metrics. `--trace 1` runs the workload once untraced and once with every
layer wrapped in spans (see spans.py) and reports the per-layer metrics.
Both check the outputs. The last stdout line is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`; the lines before it
print every metric by name and unit, and the machine facts. Exit code 0
when every check passes, 1 when one fails or the checkout has no gazesim
sources, 2 on bad arguments.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import checks
import spans

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_tmp"

DEFAULT_SEED = 42
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
# Simulated time is read off the event-mode timeline of at most this many
# trials per cell, scaled to the cell size.
SIM_SAMPLE_PER_CELL = 500
ALL_METHODS = ("M1", "M2", "M3", "M4")
SITUATION_COUNT = 4


@dataclass(frozen=True)
class Workload:
    mode: str
    methods: tuple[str, ...]
    n_per_cell: int
    traced_n_per_cell: int
    report_repeats: int

    def trials(self, n: int) -> int:
        return len(self.methods) * SITUATION_COUNT * n


WORKLOADS = {
    # The headline run of scripts/reproduce_results.py (160k trials), then
    # `report` on its CSV. Seeding and human draws dominate; no sensing.
    "event_design": Workload("event", ALL_METHODS, 10_000, 1_000, 3),
    # The 30 Hz tick loop on ground truth: controller, human_step, head
    # tracker and situation every frame, one rng per frame; no laser/filter.
    "ideal_ticks": Workload("ideal", ALL_METHODS, 20, 10, 20),
    # Laser scan and particle filter every frame; M4 on each situation.
    "full_tracking": Workload("full", ("M4",), 1, 1, 50),
}

# sha256 of results.csv at seed 42, by (workload, n_per_cell).
PINNED_DIGESTS = {
    ("event_design", 10_000): "61ad38a1d40cd6311b29ae8f9b21134c0380a40ba5aa96a0299ec4ac4528b9df",
    ("event_design", 1_000): "8b56f3a611b02213e0ef477e8c38492a8a19f2f2b1918a2ae681b6b120d5f13e",
    ("ideal_ticks", 20): "864fbe69a8b33b351b8f9cdc5832e5404760e4fc83b1ec6f460c1b12d8ecb17e",
    ("ideal_ticks", 10): "df4569188143a78459eb0a32f564ad8b9b28a462de294088eeba3722afc5e0da",
    ("full_tracking", 1): "53f3f2f0ec5f526e06816ae10c74c60ae2ea6d343e92340237b0f243d2d25370",
}

# Layers wrapped in the traced run, as (module, function) of gazesim.
CALL_LAYERS = (
    "seeding.derive_seed",
    "seeding.derive_rng",
    "human.respond",
    "human.gaze_duration",
    "human.human_step",
    "scenario.settled_instant",
    "controller.controller_step",
    "head_tracker.observe_head",
    "situation.classify_instant",
    "situation.srm_update",
    "laser.synthesize_scan",
    "laser.scan_to_points",
    "body_tracker.filter_step",
    "body_tracker.systematic_resample",
    "harness.run_trial",
)
DURATION_LAYERS = (
    "config.parse_config",
    "harness.write_records_csv",
    "harness.read_records_csv",
    "stats.success_ratio",
    "stats.overall_ratio",
    "stats.gaze_stats",
    "stats.anova_two_way",
    "stats.bonferroni_pairwise",
)
TRACE_POINTS = tuple(
    tuple(name.split("."))
    for name in CALL_LAYERS + DURATION_LAYERS + ("harness.run_experiment",)
)
IMPORT_SELF = (
    "gazesim",
    "gazesim.geometry",
    "gazesim.seeding",
    "gazesim.laser",
    "gazesim.body_tracker",
    "gazesim.head_tracker",
    "gazesim.situation",
    "gazesim.controller",
    "gazesim.scenario",
    "gazesim.config",
    "gazesim.human",
    "gazesim.trace",
    "gazesim.harness",
    "gazesim.stats",
)
IMPORT_CUMULATIVE = ("gazesim", "numpy", "scipy.stats")

SETUP_PROBE = """\
import sys, time
from pathlib import Path
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import gazesim
gazesim.parse_config(Path(sys.argv[2]).read_text(encoding="utf-8"))
gazesim.derive_response_table()
print(time.perf_counter() - start)
"""


class Capture:
    """Stands in for one function: times each call, keeps the last result."""

    def __init__(self, fn: Callable) -> None:
        self.fn = fn
        self.seconds = 0.0
        self.result: Any = None

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        self.result = self.fn(*args, **kwargs)
        self.seconds = time.perf_counter() - start
        return self.result


@dataclass
class DesignRun:
    """One `gazesim experiment` plus `gazesim report` on its CSV."""

    exit_code: int
    experiment_s: float
    run_experiment_s: float
    report_s: list[float] = field(default_factory=list)
    records: list = field(default_factory=list)
    read_back: list = field(default_factory=list)
    digest: str = ""
    csv_bytes: int = 0


def load_gazesim():
    package = SRC / "gazesim"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gazesim sources at {package}")
    sys.path.insert(0, str(SRC))
    import gazesim
    import gazesim.cli

    if Path(gazesim.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported gazesim from {gazesim.__file__}")
    return gazesim


def python(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )


def setup_seconds(config_path: Path) -> float:
    """Import gazesim, parse the config, derive the response table, in a
    fresh interpreter; the median of several."""
    return statistics.median(
        float(python(["-c", SETUP_PROBE, str(SRC), str(config_path)]).stdout)
        for _ in range(SETUP_REPEATS)
    )


def import_times() -> dict[str, float]:
    """Median `python -X importtime` figures of `import gazesim`, in us."""
    probe = f"import sys; sys.path.insert(0, {str(SRC)!r}); import gazesim"
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORT_REPEATS):
        seen = {}
        for line in python(["-X", "importtime", "-c", probe]).stderr.splitlines():
            if not line.startswith("import time:") or "[us]" in line:
                continue
            own, cumulative, module = line[len("import time:"):].split("|")
            seen[module.strip()] = (int(own), int(cumulative))
        for module in IMPORT_SELF:
            samples.setdefault(f"import.{module}.self_us", []).append(
                seen.get(module, (0, 0))[0]
            )
        for module in IMPORT_CUMULATIVE:
            samples.setdefault(f"import.{module}.cumulative_us", []).append(
                seen.get(module, (0, 0))[1]
            )
    return {name: statistics.median(values) for name, values in samples.items()}


def cli_main(cli, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def run_design(
    cli,
    config_path: Path,
    mode: str,
    out_dir: Path,
    report_repeats: int,
    span: Callable[[str], Any] = lambda name: contextlib.nullcontext(),
) -> DesignRun:
    run_capture = Capture(cli.run_experiment)
    read_capture = Capture(cli.read_records_csv)
    results = out_dir / "results.csv"
    with spans.patched(cli, "run_experiment", run_capture), spans.patched(
        cli, "read_records_csv", read_capture
    ):
        start = time.perf_counter()
        try:
            with span("bench.experiment"):
                code = cli_main(
                    cli,
                    ["experiment", "--config", str(config_path), "--out", str(out_dir),
                     "--mode", mode],
                )
        except Exception:  # a crash fails the design; the run still reports
            traceback.print_exc()
            code = -1
        run = DesignRun(code, time.perf_counter() - start, run_capture.seconds)
        for _ in range(report_repeats if code == 0 else 0):
            start = time.perf_counter()
            try:
                with span("bench.report"):
                    run.exit_code = cli_main(
                        cli, ["report", str(results), "--out", str(out_dir / "report")]
                    )
            except Exception:
                traceback.print_exc()
                run.exit_code = -1
            run.report_s.append(time.perf_counter() - start)
            if run.exit_code != 0:
                break
    run.records = run_capture.result or []
    run.read_back = read_capture.result or []
    if results.is_file():
        data = results.read_bytes()
        run.digest = hashlib.sha256(data).hexdigest()
        run.csv_bytes = len(data)
    return run


def trial_ids(workload: Workload, n: int) -> set[int]:
    """The design's trial ids, numbered over the whole method-by-situation
    grid as `gazesim.harness` numbers them."""
    return {
        (ALL_METHODS.index(method) * SITUATION_COUNT + situation) * n + rep
        for method in workload.methods
        for situation in range(SITUATION_COUNT)
        for rep in range(n)
    }


def design_failures(
    gazesim, name: str, seed: int, n: int, run: DesignRun, event_records: list
) -> set[int]:
    """Trial ids of the records that fail an output check."""
    workload = WORKLOADS[name]
    every = trial_ids(workload, n)
    if run.exit_code != 0:
        return every
    pinned = PINNED_DIGESTS.get((name, n)) if seed == DEFAULT_SEED else None
    if pinned and run.digest != pinned:
        return every
    bad = checks.id_failures(run.records, every)
    bad |= checks.cell_failures(
        run.records, gazesim.human.REFERENCE_SUCCESS_RATES, n
    )
    bad |= checks.round_trip_failures(run.records, run.read_back)
    if workload.mode != "event":
        bad |= checks.cross_mode_failures(run.records, event_records)
    return bad


def simulated_seconds(gazesim, scenario, event_records: list, n: int) -> float:
    """Trial time the design simulates, from the event-mode timeline."""
    sample = [r for r in event_records if r.trial_id % n < SIM_SAMPLE_PER_CELL]
    total = sum(
        gazesim.run_trial_detailed(
            scenario, r.method, r.situation, r.seed, mode="event",
            trial_id=r.trial_id,
        ).events[-1].time_s
        for r in sample
    )
    return total * len(event_records) / len(sample)


def write_config(work_dir: Path, workload: Workload, seed: int, n: int) -> Path:
    path = work_dir / f"config_n{n}.json"
    path.write_text(
        json.dumps(
            {"methods": list(workload.methods), "n_per_cell": n, "base_seed": seed}
        ),
        encoding="utf-8",
    )
    return path


def event_reference(gazesim, workload: Workload, config_path: Path) -> list:
    """Event-mode records of the design, the reference for tick engines."""
    if workload.mode == "event":
        return []
    config = gazesim.parse_config(config_path.read_text(encoding="utf-8"))
    return gazesim.run_experiment(config, mode="event")


def timed_run(gazesim, name: str, seed: int, seconds: int, work_dir: Path):
    """End-to-end metrics, tracing off. The design is repeated, one run
    after the other, until the next would end past `seconds`."""
    workload = WORKLOADS[name]
    n = workload.n_per_cell
    trials = workload.trials(n)
    config_path = write_config(work_dir, workload, seed, n)
    setup_s = setup_seconds(config_path)
    event_records = event_reference(gazesim, workload, config_path)

    runs: list[DesignRun] = []
    failed = 0
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        run = run_design(
            gazesim.cli, config_path, workload.mode, work_dir / f"run{len(runs)}",
            workload.report_repeats,
        )
        now = time.perf_counter()
        if not runs:
            if workload.mode == "event":
                event_records = run.records
            first = run
        bad = design_failures(gazesim, name, seed, n, run, event_records)
        if run.digest != first.digest:
            bad = trial_ids(workload, n)
        failed += len(bad)
        run.records = run.read_back = []
        runs.append(run)
        if now - begin + (now - start) > seconds:
            break

    scenario = gazesim.parse_config(config_path.read_text(encoding="utf-8")).scenario
    sim_s = simulated_seconds(gazesim, scenario, event_records, n) if event_records else 0.0
    experiment_s = statistics.median(r.experiment_s for r in runs)
    run_experiment_s = statistics.median(r.run_experiment_s for r in runs)
    report_s = statistics.median(s for r in runs for s in r.report_s or [0.0])
    attempted = trials * len(runs)
    gated = {
        "setup_s": (setup_s, "s"),
        "realtime_factor": (sim_s / experiment_s, "s/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    shown = {
        "experiment_s": (experiment_s, "s"),
        "report_s": (report_s, "s"),
        "trials_per_s": (trials / run_experiment_s if run_experiment_s else 0.0, "1/s"),
        "failed_share": (failed / attempted, "ratio"),
        "simulated_s": (sim_s, "s"),
    }
    facts = machine_facts(name, seed, n, len(runs))
    return gated, shown, facts, attempted, failed


def traced_run(gazesim, name: str, seed: int, work_dir: Path):
    """Per-layer metrics from one traced design, next to an untraced one of
    the same size for the tracing overhead."""
    workload = WORKLOADS[name]
    n = workload.traced_n_per_cell
    config_path = write_config(work_dir, workload, seed, n)
    imports = import_times()
    untraced = run_design(gazesim.cli, config_path, workload.mode, work_dir / "untraced", 1)
    recorder = spans.Recorder()
    observers = {
        "laser.scan_to_points": len,
        "body_tracker.filter_step": lambda result: (
            result[1].converged, result[1].n_effective / len(result[0])
        ),
    }
    with recorder.installed(
        "gazesim", TRACE_POINTS, {"harness.run_trial": "trial_id"}, observers
    ):
        traced = run_design(
            gazesim.cli, config_path, workload.mode, work_dir / "traced", 1,
            span=recorder.span,
        )
    event_records = event_reference(gazesim, workload, config_path)
    bad = design_failures(gazesim, name, seed, n, traced, event_records)
    if traced.digest != untraced.digest:
        bad = trial_ids(workload, n)
    metrics = layer_metrics(recorder, traced, untraced)
    metrics.update((metric, (value, "us")) for metric, value in imports.items())
    facts = machine_facts(name, seed, n, 1)
    return metrics, {}, facts, workload.trials(n), len(bad)


def layer_metrics(
    recorder: spans.Recorder, traced: DesignRun, untraced: DesignRun
) -> dict[str, tuple[float, str]]:
    own = spans.self_times(recorder.spans)
    layers = spans.aggregate(recorder.spans, own)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    metrics: dict[str, tuple[float, str]] = {}
    for layer in CALL_LAYERS:
        entry = layers.get(layer, empty)
        metrics[f"{layer}.calls"] = (entry["calls"], "count")
        metrics[f"{layer}.self_us"] = (entry["self_s"] * 1e6, "us")
    for layer in DURATION_LAYERS:
        metrics[f"{layer}.s"] = (layers.get(layer, empty)["total_s"], "s")
    metrics["harness.run_experiment.self_s"] = (
        layers.get("harness.run_experiment", empty)["self_s"], "s"
    )
    metrics["harness.results_csv_bytes"] = (traced.csv_bytes, "bytes")

    points = recorder.observed.get("laser.scan_to_points", [])
    steps = recorder.observed.get("body_tracker.filter_step", [])
    metrics["laser.points_per_scan"] = (statistics.fmean(points) if points else 0.0, "count")
    metrics["body_tracker.reinit_share"] = (
        sum(not converged for converged, _ in steps) / len(steps) if steps else 0.0, "ratio"
    )
    metrics["body_tracker.n_eff_ratio"] = (
        statistics.fmean(ratio for _, ratio in steps) if steps else 0.0, "ratio"
    )

    trial_s = layers.get("harness.run_trial", empty)["total_s"]
    in_trial = sum(
        t for span, t in zip(recorder.spans, own)
        if span[spans.TRIAL] is not None
        and span[spans.NAME].startswith(("seeding.", "human."))
    )
    ticks = layers.get("controller.controller_step", empty)["calls"]
    metrics["profile.seeding_human_share"] = (in_trial / trial_s if trial_s else 0.0, "ratio")
    metrics["profile.filter_step_share"] = (
        layers.get("body_tracker.filter_step", empty)["self_s"] / trial_s if trial_s else 0.0,
        "ratio",
    )
    metrics["profile.frame_us"] = (trial_s / ticks * 1e6 if ticks else 0.0, "us")
    metrics["trace.spans"] = (len(recorder.spans), "count")
    metrics["trace.overhead_share"] = (
        traced.run_experiment_s / untraced.run_experiment_s - 1.0
        if untraced.run_experiment_s else 0.0,
        "ratio",
    )
    return metrics


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine_facts(name: str, seed: int, n: int, runs: int) -> dict[str, Any]:
    import numpy
    import scipy

    workload = WORKLOADS[name]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "workload": name,
        "mode": workload.mode,
        "methods": list(workload.methods),
        "n_per_cell": n,
        "trials": workload.trials(n),
        "design_runs": runs,
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    gazesim = load_gazesim()
    work_dir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            gated, shown, facts, attempted, failed = traced_run(
                gazesim, args.workload, args.seed, work_dir
            )
        else:
            gated, shown, facts, attempted, failed = timed_run(
                gazesim, args.workload, args.seed, args.seconds, work_dir
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    print("facts " + json.dumps(facts))
    for metric, (value, unit) in {**gated, **shown}.items():
        print(f"{metric} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in gated.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
