#!/usr/bin/env python3
"""Run the full crossed experiment and print the headline numbers.

Reproduces, from simulation alone, the quantities the package is
calibrated against: the per-cell success table, the overall success
ratio per method, gaze-duration moments for the two ensuring methods,
and the two-way ANOVA over per-cell success. With --out the raw and
summarized results are also written as CSV/JSON, in the same formats
the `gazesim experiment` subcommand uses.

Examples:
    python3 scripts/reproduce_results.py
    python3 scripts/reproduce_results.py --n-per-cell 500 --seed 7
    python3 scripts/reproduce_results.py --out results/ --mode ideal
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gazesim.cli import check_out_dir, guarded, stats_payload, write_run
from gazesim.config import RunConfig
from gazesim.controller import METHODS, Method
from gazesim.harness import TRIAL_MODES, run_experiment
from gazesim.human import REFERENCE_SUCCESS_RATES
from gazesim.situation import SITUATIONS
from gazesim.stats import gaze_stats, success_ratio

NOT_AVAILABLE = "n/a"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-per-cell", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--mode", choices=TRIAL_MODES, default="event")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", default=None, help="directory for results/summary/stats files")
    args = parser.parse_args(argv)
    return guarded("reproduce_results", _run, args)


def _run(args: argparse.Namespace) -> int:
    config = RunConfig(n_per_cell=args.n_per_cell, base_seed=args.seed)
    if args.out is not None:
        check_out_dir(Path(args.out), "--out")
    t0 = time.perf_counter()
    records = run_experiment(config, mode=args.mode, jobs=args.jobs)
    elapsed = time.perf_counter() - t0
    print(f"{len(records)} trials ({args.mode} mode, seed {args.seed}) in {elapsed:.1f} s\n")

    cells = {(c.method, c.situation): c for c in success_ratio(records)}
    print("success rate per cell (simulated / reference)")
    print("          " + "".join(f"{s.value:>16}" for s in SITUATIONS))
    for method in METHODS:
        row = []
        for situation in SITUATIONS:
            got = cells[(method, situation)].mean_success
            ref = REFERENCE_SUCCESS_RATES[method][situation]
            row.append(f"{got:.3f} / {ref:.2f}")
        print(f"{method.value:>6}    " + "".join(f"{v:>16}" for v in row))

    payload = stats_payload(records)
    print("\noverall success ratio")
    for method in (Method.M1, Method.M2, Method.M4):
        print(f"  {method.value}: {payload['overall'][method.value]:.4f}")

    print("\ngaze duration on success (mean, variance)")
    for method in (Method.M4, Method.M3):
        label = "with blinks" if method.ensure_blink else "without blinks"
        try:
            mean, var = gaze_stats(records, method)
        except ValueError:
            print(f"  {method.value} ({label}): {NOT_AVAILABLE}")
            continue
        print(f"  {method.value} ({label}): {mean:.3f} s, {var:.4f} s^2")

    anova = payload["anova"]
    print("\ntwo-way ANOVA on per-cell success")
    for effect in ("method", "situation", "interaction"):
        if anova is None:
            print(f"  {effect:<12} {NOT_AVAILABLE}")
            continue
        e = anova[effect]
        print(
            f"  {effect:<12} F({e['df'][0]}, {e['df'][1]}) = {e['F']:.2f}, "
            f"p = {e['p']:.3g}, eta^2 = {e['eta_squared']:.3f}"
        )

    print("\npairwise method comparisons (Bonferroni-corrected z-tests)")
    for pair in payload["bonferroni"]:
        flag = "significant" if pair["significant"] else "n.s."
        name = " vs ".join(pair["pair"])
        print(f"  {name}: z = {pair['z']:.2f}, p_adj = {pair['p_adj']:.3g} ({flag})")

    if args.out is not None:
        for path in write_run(Path(args.out), records, payload):
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
