import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import f as f_distribution

import oracles

from gazesim.controller import Method, RobotAction
from gazesim.harness import TrialRecord
from gazesim.records import Records
from gazesim.situation import SITUATIONS, ViewingSituation
from gazesim.stats import (
    SUMMARY_CSV_HEADER,
    CellStats,
    _f_sf,
    anova_two_way,
    bonferroni_pairwise,
    gaze_stats,
    overall_ratio,
    records_to_cells,
    success_ratio,
    to_jsonable,
    write_summary_csv,
)
from test_digests import IDEAL_N10_STATS_SEED42

CFOV = ViewingSituation.CFOV
NPFOV = ViewingSituation.NPFOV
FPFOV = ViewingSituation.FPFOV
OFOV = ViewingSituation.OFOV

_counter = [0]


def rec(method, situation, responded, gaze=None):
    _counter[0] += 1
    return TrialRecord(
        trial_id=_counter[0],
        method=method,
        situation=situation,
        responded=responded,
        responding_action=RobotAction.HT if responded else None,
        response_latency_s=1.0 if responded else None,
        gaze_time_s=(gaze if gaze is not None else 2.0) if responded else None,
        seed=_counter[0],
    )


def grid(success_counts, n):
    """Records for a full 4x4 design from per-cell success counts."""
    records = []
    for m in Method:
        for s in SITUATIONS:
            wins = success_counts[(m, s)]
            for i in range(n):
                records.append(rec(m, s, i < wins))
    return records


class TestSuccessRatio:
    def test_eleven_of_twelve(self):
        records = [rec(Method.M1, CFOV, i < 11) for i in range(12)]
        (cell,) = success_ratio(Records.from_rows(records))
        assert cell.n == 12
        assert cell.mean_success == pytest.approx(11.0 / 12.0)
        # Sample standard deviation of eleven ones and a zero.
        assert cell.sd_success == pytest.approx(0.2887, abs=5e-4)

    def test_cells_in_canonical_order(self):
        records = grid({(m, s): 1 for m in Method for s in SITUATIONS}, 2)
        cells = success_ratio(Records.from_rows(records))
        assert [(c.method, c.situation) for c in cells] == [
            (m, s) for m in Method for s in SITUATIONS
        ]

    def test_all_or_nothing_cells(self):
        records = [rec(Method.M2, OFOV, True) for _ in range(5)]
        (cell,) = success_ratio(Records.from_rows(records))
        assert cell.mean_success == 1.0
        assert cell.sd_success == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            success_ratio(Records.from_rows([]))


class TestOverallRatio:
    def test_weights_situations_equally(self):
        counts = {
            (Method.M1, CFOV): 23,
            (Method.M1, NPFOV): 21,
            (Method.M1, FPFOV): 2,
            (Method.M1, OFOV): 2,
        }
        records = []
        for (m, s), wins in counts.items():
            records.extend(rec(m, s, i < wins) for i in range(25))
        # (0.92 + 0.84 + 0.08 + 0.08) / 4
        got = overall_ratio(Records.from_rows(records), Method.M1)
        assert got == pytest.approx(0.48, abs=1e-12)

    def test_missing_situation_rejected(self):
        records = [rec(Method.M1, CFOV, True)]
        with pytest.raises(ValueError):
            overall_ratio(Records.from_rows(records), Method.M1)


class TestGazeStats:
    def test_population_moments(self):
        records = [
            rec(Method.M4, CFOV, True, gaze=1.0),
            rec(Method.M4, NPFOV, True, gaze=2.0),
            rec(Method.M4, OFOV, True, gaze=3.0),
            rec(Method.M4, FPFOV, False),
            rec(Method.M3, CFOV, True, gaze=9.0),
        ]
        mean, var = gaze_stats(Records.from_rows(records), Method.M4)
        assert mean == pytest.approx(2.0)
        assert var == pytest.approx(2.0 / 3.0)

    def test_single_success_has_zero_variance(self):
        records = [rec(Method.M3, CFOV, True, gaze=2.0)]
        mean, var = gaze_stats(Records.from_rows(records), Method.M3)
        assert (mean, var) == (2.0, 0.0)

    def test_no_successes_rejected(self):
        with pytest.raises(ValueError):
            gaze_stats(Records.from_rows([rec(Method.M3, CFOV, False)]), Method.M3)


class TestAnova:
    def test_pure_method_effect_on_a_2x2_grid(self):
        cells = {
            (Method.M1, CFOV): [0.0, 0.0],
            (Method.M1, NPFOV): [0.0, 0.0],
            (Method.M2, CFOV): [1.0, 1.0],
            (Method.M2, NPFOV): [1.0, 1.0],
        }
        result = anova_two_way(cells)
        # SS_method = 2 (rows 0 and 1 around a grand mean of 0.5), zero
        # within-cell variance, so the F statistic diverges.
        assert result["method"]["F"] == math.inf
        assert result["method"]["p"] == 0.0
        assert result["method"]["eta_squared"] == pytest.approx(1.0)
        assert result["situation"]["F"] == 0.0
        assert result["situation"]["p"] == 1.0
        assert result["interaction"]["F"] == 0.0
        assert result["grand_mean"] == pytest.approx(0.5)

    def test_hand_computed_f(self):
        cells = {
            (Method.M1, CFOV): [1.0, 0.0],
            (Method.M1, NPFOV): [0.0, 0.0],
            (Method.M2, CFOV): [1.0, 1.0],
            (Method.M2, NPFOV): [1.0, 0.0],
        }
        result = anova_two_way(cells)
        # Row means 0.25 and 0.75, col means 0.75 and 0.25, grand 0.5:
        # SS_method = SS_situation = 4 * 0.25^2 * 2... worked out to 0.5 each,
        # SS_within = 0.5 + 0 + 0 + 0.5 = 1.0, df_within = 4, MS_within = 0.25.
        assert result["method"]["F"] == pytest.approx((0.5 / 1) / 0.25)
        assert result["situation"]["F"] == pytest.approx(2.0)
        assert result["method"]["df"] == [1, 4]
        assert 0.0 < result["method"]["p"] < 1.0

    def test_no_effect_at_all(self):
        cells = {
            (m, s): [1.0, 1.0]
            for m in (Method.M1, Method.M2)
            for s in (CFOV, NPFOV)
        }
        result = anova_two_way(cells)
        for name in ("method", "situation", "interaction"):
            assert result[name]["F"] == 0.0
            assert result[name]["p"] == 1.0
            assert result[name]["eta_squared"] == 0.0

    def test_full_grid_degrees_of_freedom(self):
        records = grid({(m, s): 6 for m in Method for s in SITUATIONS}, 12)
        result = anova_two_way(records_to_cells(Records.from_rows(records)))
        assert result["method"]["df"] == [3, 176]
        assert result["situation"]["df"] == [3, 176]
        assert result["interaction"]["df"] == [9, 176]
        assert result["n_per_cell"] == 12

    def test_unbalanced_rejected(self):
        cells = {
            (Method.M1, CFOV): [1.0, 0.0],
            (Method.M1, NPFOV): [0.0],
            (Method.M2, CFOV): [1.0, 1.0],
            (Method.M2, NPFOV): [1.0, 0.0],
        }
        with pytest.raises(ValueError):
            anova_two_way(cells)

    def test_partial_crossing_rejected(self):
        cells = {
            (Method.M1, CFOV): [1.0, 0.0],
            (Method.M2, NPFOV): [1.0, 0.0],
        }
        with pytest.raises(ValueError):
            anova_two_way(cells)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="^empty grid$"):
            anova_two_way({})

    def test_single_observation_cells_rejected(self):
        cells = {
            (m, s): [1.0]
            for m in (Method.M1, Method.M2)
            for s in (CFOV, NPFOV)
        }
        with pytest.raises(ValueError):
            anova_two_way(cells)


    def test_p_values_match_scipy_stats_f_sf(self):
        # anova_two_way computes the F tail with _f_sf. SciPy's F distribution
        # is itself off from the true tail by up to 5e-12 relative at large
        # df_within, so the two agree to 1e-11, not to the bit.
        rng = np.random.default_rng(3)
        compared = 0
        for _ in range(40):
            n = int(rng.integers(2, 300))
            methods, situations = rng.integers(2, 5, size=2)
            rates = rng.uniform(0.05, 0.95, (methods, situations))
            cells = {
                (m, s): (rng.random(n) < rates[i, j]).astype(float).tolist()
                for i, m in enumerate(list(Method)[:methods])
                for j, s in enumerate(SITUATIONS[:situations])
            }
            result = anova_two_way(cells)
            for effect in ("method", "situation", "interaction"):
                row = result[effect]
                if 0.0 < row["F"] < math.inf:
                    expected = float(f_distribution.sf(row["F"], *row["df"]))
                    assert row["p"] == pytest.approx(expected, rel=1e-11, abs=0.0)
                    compared += 1
        assert compared >= 100

    def test_import_leaves_scipy_stats_unloaded(self, tmp_path):
        """With every scipy import failing, gazesim imports, runs the pinned
        ideal n=10 design and reports on its CSV, and loads no scipy module."""
        (tmp_path / "config.json").write_text(
            json.dumps({"methods": ["M1", "M2", "M3", "M4"], "n_per_cell": 10, "base_seed": 42})
        )
        probe = """\
import hashlib, sys
from pathlib import Path

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
import gazesim, gazesim.cli

tmp = Path(sys.argv[1])
out, report = tmp / "out", tmp / "report"
assert gazesim.cli.main(["experiment", "--config", str(tmp / "config.json"),
                         "--out", str(out), "--mode", "ideal"]) == 0
assert gazesim.cli.main(["report", str(out / "results.csv"), "--out", str(report)]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
for path in (out / "stats.json", report / "stats.json"):
    print(hashlib.sha256(path.read_bytes()).hexdigest())
"""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        result = subprocess.run(
            [sys.executable, "-c", probe, str(tmp_path)], capture_output=True,
            text=True, env=env, check=True, timeout=120,
        )
        loaded, *digests = result.stdout.splitlines()[-3:]
        assert loaded == "[]"
        assert digests == [IDEAL_N10_STATS_SEED42] * 2


# The true tails of the pinned ideal n=10 design's three effects, to 60
# digits: (df1, df2, F, p).
IDEAL_N10_TAILS = [
    (3, 144, 37.02197802197802, 8.506803621433933e-18),
    (3, 144, 21.725274725274712, 1.1530890369385121e-11),
    (9, 144, 12.494505494505496, 1.6193695344393878e-14),
]
EDGE_F = [5e-324, 1e-300, 1e-4, 0.5, 1.0, 3.0, 1e4, 1e300, sys.float_info.max]


class TestFTail:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=1, max_value=15),
        st.floats(min_value=0.0, max_value=math.log10(200_000)),
        st.floats(min_value=-4.0, max_value=4.0),
    )
    def test_within_1e13_of_the_true_tail(self, df1, log10_df2, log10_f):
        # df2 and F log-uniform, so that small df2 is drawn as often as large.
        df2, f = round(10.0**log10_df2), 10.0**log10_f
        p = _f_sf(df1, df2, f)
        truth = oracles.true_f_sf(df1, df2, f)
        if truth > 1e-290:
            # Below 1e-50 the bound grows as exp(ln p) loses digits.
            bound = 1e-13 * max(1.0, abs(float(mpmath.log10(truth))) / 50)
            assert abs(p - truth) <= bound * truth
        scipy_p = oracles.scipy_f_sf(df1, df2, f)
        if scipy_p > 1e-290:
            assert p == pytest.approx(scipy_p, rel=1e-11, abs=0.0)
        elif scipy_p == 0.0:
            assert p < 1e-290

    @pytest.mark.parametrize(
        "df1, df2, f",
        [
            (3, 154345, 1.9083),  # SciPy is right here, a plain continued fraction is not
            (12, 197386, 2.1245),  # SciPy is off by 3.8e-12 here
            (1, 1, 1.0),
            (15, 1, 3.0),
            (2, 10, 3.0),
        ],
    )
    def test_known_points(self, df1, df2, f):
        truth = oracles.true_f_sf(df1, df2, f)
        assert _f_sf(df1, df2, f) == pytest.approx(float(truth), rel=1e-14, abs=0.0)

    def test_true_tail_agrees_with_mpmath_betainc(self):
        for df1, df2, f in [(3, 154345, 1.9083), (5, 100000, 30.0), (1, 50000, 800.0),
                            (7, 12, 0.01), (4, 3, 20.0)]:
            with mpmath.workdps(40):
                x = mpmath.mpf(df2) / (df2 + df1 * mpmath.mpf(f))
                expected = mpmath.betainc(mpmath.mpf(df2) / 2, mpmath.mpf(df1) / 2, 0, x,
                                          regularized=True)
            truth = oracles.true_f_sf(df1, df2, f)
            assert abs(truth - expected) <= mpmath.mpf(10) ** -35 * expected

    def test_tail_underflows_where_scipy_returns_zero(self):
        # The true tail is 2.33e-306; SciPy returns 0.0.
        assert oracles.scipy_f_sf(14, 81234, 106.20823747528799) == 0.0
        assert _f_sf(14, 81234, 106.20823747528799) < 1e-290

    def test_pinned_design_tails(self):
        for df1, df2, f, truth in IDEAL_N10_TAILS:
            assert _f_sf(df1, df2, f) == pytest.approx(truth, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("df1", [1, 2, 3, 8, 9, 15])
    @pytest.mark.parametrize("df2", [1, 2, 29, 30, 31, 144, 5000, 200_000])
    def test_edges_stay_in_the_unit_interval_and_fall_with_f(self, df1, df2):
        grid = sorted(EDGE_F + [10.0**e for e in np.linspace(-4.0, 4.0, 161).tolist()])
        tails = [_f_sf(df1, df2, f) for f in grid]
        assert all(0.0 <= p <= 1.0 for p in tails)
        assert all(later <= earlier for earlier, later in zip(tails, tails[1:]))
        assert tails[0] == 1.0

    def test_each_call_takes_under_a_millisecond(self):
        for df1 in (1, 2, 9, 15):
            for df2 in (1, 29, 144, 200_000):
                for f in EDGE_F:
                    best = min(timed_call(df1, df2, f) for _ in range(3))
                    assert best < 1e-3, (df1, df2, f, best)


def timed_call(df1, df2, f):
    start = time.perf_counter()
    _f_sf(df1, df2, f)
    return time.perf_counter() - start


class TestBonferroni:
    def test_clear_separation_is_significant(self):
        records = []
        records += [rec(Method.M1, CFOV, i < 10) for i in range(40)]
        records += [rec(Method.M4, CFOV, i < 38) for i in range(40)]
        (result,) = bonferroni_pairwise(Records.from_rows(records))
        assert result["pair"] == ["M1", "M4"]
        assert result["significant"]
        assert result["z"] < 0
        assert result["p_adj"] == pytest.approx(min(1.0, result["p_raw"] * 1))

    def test_equal_methods_are_not_significant(self):
        records = []
        records += [rec(Method.M3, CFOV, i < 20) for i in range(40)]
        records += [rec(Method.M4, CFOV, i < 20) for i in range(40)]
        (result,) = bonferroni_pairwise(Records.from_rows(records))
        assert result["z"] == pytest.approx(0.0)
        assert result["p_adj"] == 1.0
        assert not result["significant"]

    def test_six_pairs_for_four_methods(self):
        records = grid({(m, s): 3 for m in Method for s in SITUATIONS}, 6)
        results = bonferroni_pairwise(Records.from_rows(records))
        assert len(results) == 6
        pairs = {tuple(r["pair"]) for r in results}
        assert ("M1", "M2") in pairs and ("M3", "M4") in pairs

    def test_degenerate_pool_does_not_crash(self):
        records = []
        records += [rec(Method.M1, CFOV, True) for _ in range(10)]
        records += [rec(Method.M2, CFOV, True) for _ in range(10)]
        (result,) = bonferroni_pairwise(Records.from_rows(records))
        assert result["z"] == 0.0
        assert not result["significant"]

    def test_single_method_rejected(self):
        with pytest.raises(ValueError):
            bonferroni_pairwise(Records.from_rows([rec(Method.M1, CFOV, True)]))


class TestSerialization:
    def test_to_jsonable_sentinels(self):
        blob = to_jsonable(
            {"a": math.inf, "b": -math.inf, "c": math.nan, "d": [1.5, math.inf], "e": "x"}
        )
        assert blob == {"a": "inf", "b": "-inf", "c": "nan", "d": [1.5, "inf"], "e": "x"}
        json.dumps(blob, allow_nan=False)

    def test_anova_with_inf_survives_json(self):
        cells = {
            (Method.M1, CFOV): [0.0, 0.0],
            (Method.M1, NPFOV): [0.0, 0.0],
            (Method.M2, CFOV): [1.0, 1.0],
            (Method.M2, NPFOV): [1.0, 1.0],
        }
        blob = to_jsonable(anova_two_way(cells))
        text = json.dumps(blob, allow_nan=False)
        assert json.loads(text)["method"]["F"] == "inf"

    def test_summary_csv(self, tmp_path):
        cells = [
            CellStats(Method.M1, CFOV, 12, 11.0 / 12.0, 0.2887),
            CellStats(Method.M2, OFOV, 12, 0.25, 0.4523),
        ]
        path = tmp_path / "summary.csv"
        write_summary_csv(path, cells)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == SUMMARY_CSV_HEADER
        assert lines[1].startswith("M1,CFOV,12,0.916667,")
        assert len(lines) == 3

    def test_cell_stats_validation(self):
        with pytest.raises(ValueError):
            CellStats(Method.M1, CFOV, 0, 0.5, 0.1)
        with pytest.raises(ValueError):
            CellStats(Method.M1, CFOV, 5, 1.5, 0.1)
