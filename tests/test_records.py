"""The columnar `Records` path against the row-at-a-time oracles in
`oracles.py`: the same CSV bytes, the same parsed rows, the same errors
and line numbers, and statistics equal to the last bit."""
import io
import math

import numpy as np
import pytest

import oracles
from gazesim import stats
from gazesim.cli import _chart_payload, stats_payload
from gazesim.config import RunConfig
from gazesim.controller import METHODS, Method, RobotAction
from gazesim.harness import run_experiment
from gazesim.records import (
    ACTIONS,
    RESULTS_CSV_HEADER,
    Records,
    TrialRecord,
    read_records_csv,
    write_records_csv,
)
from gazesim.situation import SITUATIONS, ViewingSituation

CFOV = ViewingSituation.CFOV
OFOV = ViewingSituation.OFOV


def random_rows(rng, balanced):
    """A shuffled design. A balanced one crosses random subsets of the
    methods and situations, gives every cell the same size and sometimes
    drops a cell; an unbalanced one takes a random subset of the 16 cells
    and varies their sizes."""
    if balanced:
        methods = [m for m in range(4) if rng.random() < 0.7] or [1]
        situations = [s for s in range(4) if rng.random() < 0.7] or [2]
        chosen = [m * 4 + s for m in methods for s in situations]
        if len(chosen) > 1 and rng.random() < 0.2:
            chosen.pop(int(rng.integers(len(chosen))))
    else:
        chosen = [c for c in range(16) if rng.random() < 0.8] or [0]
    size = int(rng.integers(1, 12))
    rows = []
    for c in chosen:
        n = size if balanced else int(rng.integers(1, 40))
        rate = rng.random()
        for _ in range(n):
            ok = rng.random() < rate
            rows.append(
                TrialRecord(
                    trial_id=len(rows),
                    method=METHODS[c // 4],
                    situation=SITUATIONS[c % 4],
                    responded=ok,
                    responding_action=ACTIONS[rng.integers(len(ACTIONS))] if ok else None,
                    response_latency_s=float(rng.uniform(0.0, 5.0)) if ok else None,
                    gaze_time_s=float(rng.normal(2.5, 1.0)) if ok else None,
                    seed=int(rng.integers(0, 2**64, dtype=np.uint64)),
                )
            )
    order = rng.permutation(len(rows))
    return [rows[i] for i in order]


def outcome(fn, *args):
    """fn(*args), or the type of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def oracle_csv(rows):
    return "".join(
        [RESULTS_CSV_HEADER + "\n"] + [oracles.format_record_row(r) + "\n" for r in rows]
    )


def written(records):
    buf = io.StringIO()
    write_records_csv(buf, records)
    return buf.getvalue()


class TestRowView:
    ROWS = [
        TrialRecord(5, Method.M2, OFOV, True, RobotAction.HS, 1.5, 2.25, 2**64 - 1),
        TrialRecord(6, Method.M4, CFOV, False, None, None, None, 0),
    ]

    def test_reads_as_a_sequence_of_rows(self):
        records = Records.from_rows(self.ROWS)
        assert len(records) == 2
        assert list(records) == self.ROWS
        assert records[0] == self.ROWS[0]
        assert records[-1] == self.ROWS[1]
        assert records[1].responded is False and records[1].seed == 0
        with pytest.raises(IndexError):
            records[2]
        assert records.responded.tolist() == [True, False]

    def test_columns_have_their_documented_types(self):
        records = Records.from_rows(self.ROWS)
        dtypes = [column.dtype for column in records.columns()]
        assert dtypes == [np.int64, np.int8, np.int8, np.int8, np.float64, np.float64,
                          np.uint64]
        assert records.action.tolist() == [ACTIONS.index(RobotAction.HS), -1]
        assert math.isnan(records.latency[1]) and math.isnan(records.gaze[1])

    def test_equality(self):
        records = Records.from_rows(self.ROWS)
        assert records == Records.from_rows(self.ROWS)
        assert records == self.ROWS
        assert records != self.ROWS[:1]
        assert records != Records.from_rows(self.ROWS[::-1])
        assert Records.concat([records.take([0]), records.take([1])]) == records
        assert records[1:] == self.ROWS[1:] and isinstance(records[1:], Records)

    def test_design_rows_equal_their_columns(self):
        records = run_experiment(RunConfig(n_per_cell=5, base_seed=3))
        assert Records.from_rows(list(records)) == records
        assert [r.trial_id for r in records] == list(range(80))


class TestWriter:
    def test_equals_the_row_oracle_on_random_designs(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            rows = random_rows(rng, balanced=False)
            assert written(Records.from_rows(rows)) == oracle_csv(rows)

    def test_equals_the_row_oracle_on_edge_values(self):
        rows = [
            TrialRecord(0, Method.M1, CFOV, True, RobotAction.BLINK, 0.0, -0.0, 0),
            TrialRecord(2**62, Method.M3, OFOV, True, RobotAction.RT, 5e-7, 4.9999995, 1),
            TrialRecord(7, Method.M4, CFOV, True, RobotAction.HT, 1e9, math.inf, 2**64 - 1),
            TrialRecord(-3, Method.M2, OFOV, False, None, None, None, 2**63),
        ]
        assert written(Records.from_rows(rows)) == oracle_csv(rows)

    def test_design_equals_the_row_oracle(self):
        records = run_experiment(RunConfig(n_per_cell=50, base_seed=8))
        assert written(records) == oracle_csv(list(records))
        assert written(list(records)) == written(records)

    def test_empty(self):
        assert written(Records.from_rows([])) == RESULTS_CSV_HEADER + "\n"


class TestReader:
    def test_equals_the_row_oracle_on_random_designs(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            text = oracle_csv(random_rows(rng, balanced=False))
            records = read_records_csv(io.StringIO(text))
            assert list(records) == oracles.read_rows(io.StringIO(text))
            assert written(records) == text

    def test_accepts_what_the_row_oracle_accepts(self):
        text = (
            RESULTS_CSV_HEADER + "\n"
            + "\n"
            + " 007,M1,CFOV,true,HT,1e-3, 2.5 ,+12\n"
            + "\n\n"
            + "8,M4,OFOV,false,,,,1_000\n"
            + "9,M3,CFOV,true,Blink,inf,0,18446744073709551615"
        )
        records = read_records_csv(io.StringIO(text))
        assert list(records) == oracles.read_rows(io.StringIO(text))
        assert len(records) == 3

    def test_header_only_reads_as_empty(self):
        assert len(read_records_csv(io.StringIO(RESULTS_CSV_HEADER + "\n"))) == 0

    @pytest.mark.parametrize(
        "bad",
        [
            "1,M1,CFOV,true,HT,1.0,2.0",  # 7 fields
            "1,M1,CFOV,true,HT,1.0,2.0,5,6",  # 9 fields
            "1,M1,CFOV,yes,HT,1.0,2.0,5",
            "1,M9,CFOV,true,HT,1.0,2.0,5",
            "1,M1,XFOV,true,HT,1.0,2.0,5",
            "1,M1,CFOV,true,XX,1.0,2.0,5",
            "1,M1,CFOV,true,HT,1.0.0,2.0,5",
            "1.5,M1,CFOV,false,,,,5",
            "1,M1,CFOV,false,,,,five",
            "1,M1,CFOV,true,,1.0,2.0,5",  # responded without action
            "1,M1,CFOV,true,HT,,2.0,5",  # responded without latency
            "1,M1,CFOV,false,HT,,,5",  # failed with action
            "1,M1,CFOV,false,,,2.0,5",  # failed with gaze
            "1,M1,CFOV,false,,nan,,5",  # failed with a nan latency
        ],
    )
    def test_malformed_line_reports_its_number(self, bad):
        good = "0,M2,NPFOV,true,HS,1.000000,2.000000,3"
        lines = [good, "", good, bad, good]  # the bad row is line 5
        text = RESULTS_CSV_HEADER + "\n" + "\n".join(lines) + "\n"
        with pytest.raises(ValueError) as new:
            read_records_csv(io.StringIO(text))
        assert str(new.value).startswith("line 5: ")
        with pytest.raises(ValueError) as old:
            oracles.read_rows(io.StringIO(text))
        assert str(old.value).removeprefix("line 5: ") in str(new.value)

    @pytest.mark.parametrize(
        "bad",
        [
            "1,M1,CFOV,false,,,,-1",
            "1,M1,CFOV,false,,,,18446744073709551616",
            "9223372036854775808,M1,CFOV,false,,,,5",
            "1,M1,CFOV,true,HT,nan,2.0,5",
        ],
    )
    def test_values_the_columns_cannot_hold_report_their_line(self, bad):
        # The row oracle accepted these; a column has no place for them.
        text = RESULTS_CSV_HEADER + "\n0,M1,CFOV,false,,,,1\n" + bad + "\n"
        with pytest.raises(ValueError, match="^line 3: "):
            read_records_csv(io.StringIO(text))

    def test_blocks_that_only_balance_out_are_rejected(self):
        # 16 + 4 + 4 fields make three rows' worth, but no line has 8.
        lines = [
            "0,M1,CFOV,false,,,,11,1,M1,CFOV,false,,,,12",
            "2,M1,CFOV,false",
            ",,,13",
        ]
        text = RESULTS_CSV_HEADER + "\n" + "\n".join(lines) + "\n"
        with pytest.raises(ValueError, match="^line 2: expected 8 fields, got 16$"):
            read_records_csv(io.StringIO(text))


class TestStatisticsEqualTheListOracles:
    @pytest.mark.parametrize("balanced", [True, False])
    def test_random_designs(self, balanced):
        rng = np.random.default_rng(13 + balanced)
        anovas = 0
        for _ in range(60):
            rows = random_rows(rng, balanced)
            records = Records.from_rows(rows)
            assert stats.success_ratio(records) == oracles.success_ratio(rows)
            cells = stats.records_to_cells(records)
            expected = oracles.records_to_cells(rows)
            assert list(cells) == list(expected)
            assert [v.tolist() for v in cells.values()] == list(expected.values())
            anova = outcome(stats.anova_two_way, cells)
            assert anova == outcome(oracles.anova_two_way, expected)
            anovas += anova is not ValueError
            assert outcome(stats.bonferroni_pairwise, records) == outcome(
                oracles.bonferroni_pairwise, rows
            )
            for method in METHODS:
                assert outcome(stats.overall_ratio, records, method) == outcome(
                    oracles.overall_ratio, rows, method
                )
                assert outcome(stats.gaze_stats, records, method) == outcome(
                    oracles.gaze_stats, rows, method
                )
        if balanced:  # they must reach the ANOVA, not only its errors
            assert anovas >= 20

    def test_gaze_moments_follow_python_rounding(self):
        # numpy's d * d and Python's d ** 2 differ in the last bit on about
        # one value in a thousand, which shows in a sum of three terms.
        rng = np.random.default_rng(15)
        for _ in range(3000):
            rows = [
                TrialRecord(i, Method.M4, CFOV, True, RobotAction.HT, 1.0, gaze, i)
                for i, gaze in enumerate(rng.normal(2.5, 1.0, 3).tolist())
            ]
            assert stats.gaze_stats(Records.from_rows(rows), Method.M4) == (
                oracles.gaze_stats(rows, Method.M4)
            )

    def test_design_payloads(self):
        records = run_experiment(RunConfig(n_per_cell=200, base_seed=21))
        rows = list(records)
        assert stats_payload(records) == stats_payload(rows)
        assert _chart_payload(records) == _chart_payload(rows)
        assert stats.anova_two_way(stats.records_to_cells(records)) == (
            oracles.anova_two_way(oracles.records_to_cells(rows))
        )
