"""The columnar `Records` path against the row-at-a-time oracles in
`oracles.py`: the same CSV bytes, the same parsed rows, the same errors
and line numbers, and statistics equal to the last bit."""
import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from gazesim import records as records_module
from gazesim import stats
from gazesim.cli import _chart_payload, main, stats_payload
from gazesim.config import RunConfig
from gazesim.controller import METHODS, Method, RobotAction
from gazesim.harness import run_experiment
from gazesim.records import (
    _CHUNK_ROWS,
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
        # Anything else is left to its own __eq__, and so is unequal.
        assert records.__eq__(3) is NotImplemented and records != "records"

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
        assert written(Records.from_rows(list(records))) == written(records)

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


def fixed6(x):
    """'%.6f' % x from the writer's array rounding."""
    r = int(records_module._fixed6(np.array([x], dtype=np.float64))[0])
    return f"{r // 10**6}.{r % 10**6:06d}"


BELOW_2_33 = float(np.nextafter(2.0**33, 0.0))


class TestFixed6Rounding:
    """`_fixed6` rounds x * 1e6 half to even on the exact binary value, as
    '%.6f' does, over the whole fast domain [0, 2**33)."""

    @pytest.mark.parametrize(
        "x",
        [0.0, 0.0078125, 1.0000005, float(np.nextafter(1.0000005, 0.0)),
         float(np.nextafter(1.0000005, 2.0)), 5e-7, float(np.nextafter(5e-7, 1.0)),
         2.5e-7, 4.9999995, 99.9999995, 2.0**32 + 0.5**7, BELOW_2_33],
    )
    def test_explicit_cases(self, x):
        assert fixed6(x) == "%.6f" % x

    def test_an_exact_binary_tie_rounds_to_even(self):
        assert fixed6(0.0078125) == "0.007812"

    @given(st.floats(0.0, 100.0))
    def test_equals_percent_format_on_0_to_100(self, x):
        assert fixed6(x) == "%.6f" % x

    @given(st.floats(0.0, BELOW_2_33))
    def test_equals_percent_format_on_the_fast_domain(self, x):
        assert fixed6(x) == "%.6f" % x

    def test_every_odd_multiple_of_2_to_the_minus_7_is_a_tie(self):
        # x = odd / 128 makes x * 1e6 an exact half-integer. Below 2**45 / 1e6
        # p holds the half and rint settles it; from 2**52 / 1e6 on p is an
        # integer and the half is the product's error e.
        rng = np.random.default_rng(5)
        odd = np.concatenate([np.arange(1, 25600, 2), 2 * rng.integers(2**38, 2**39, 4000) + 1])
        x = odd / 128.0
        got = records_module._fixed6(x)
        want = ["%.6f" % v for v in x.tolist()]
        assert [f"{r // 10**6}.{r % 10**6:06d}" for r in got.tolist()] == want


# Rows the row oracle accepts that the writer would not write.
VARIANTS = [
    " 007,M1,CFOV,true,HT,1e-3, 2.5 ,+12",
    "8,M4,OFOV,false,,,,1_000",
    "9,M3,CFOV,true,Blink,inf,0,18446744073709551615",
    "10,M2,NPFOV,true,RT,.500000,12.50,007",
    "11,M1,OFOV,true,HS,12345678,1.000000,5",
    "11,M1,OFOV,true,HS,1.000000,1.0000005,5",
    "12,M1,CFOV,true,HT,9999999999.999999,1.000000,5",
    "13,M1,CFOV,true,HT,1.000000,-0.000000,5",
    "0014,M1,CFOV,false,,,,00000000000000000000018",
]


def two_chunk_design():
    """A design of more than one chunk, as records and as canonical CSV lines."""
    records = run_experiment(RunConfig(n_per_cell=1100, base_seed=4))
    assert len(records) > _CHUNK_ROWS
    return records, written(records).split("\n")


class TestChunkBoundaries:
    def test_non_canonical_rows_in_the_second_chunk_read_as_the_row_oracle(self):
        _, lines = two_chunk_design()
        for offset, variant in enumerate(VARIANTS):
            lines[_CHUNK_ROWS + 3 + 2 * offset] = variant
        text = "\n".join(lines)
        records = read_records_csv(io.StringIO(text))
        assert list(records) == oracles.read_rows(io.StringIO(text))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_a_lone_non_canonical_row_reads_as_the_row_oracle(self, variant):
        # Alone in its chunk, so that the byte parser alone must turn it down.
        lines = written(run_experiment(RunConfig(n_per_cell=2, base_seed=3))).split("\n")
        lines[5] = variant
        text = "\n".join(lines)
        assert list(read_records_csv(io.StringIO(text))) == oracles.read_rows(io.StringIO(text))

    @pytest.mark.parametrize(
        "bad",
        [
            "1,M1,CFOV,false,,2.000000,,5",
            "1,M1,CFOV,false,,,2.000000,5",
            "1,M1,CFOV,true,HT,,2.000000,5",
            "1,M1,CFOV,true,HT,2.000000,,5",
            "1,M1,CFOV,true,,1.000000,2.000000,5",
            "1,M1,CFOV,false,HT,,,5",
        ],
    )
    def test_a_lone_row_that_breaks_the_record_rules_reports_its_line(self, bad):
        lines = written(run_experiment(RunConfig(n_per_cell=2, base_seed=3))).split("\n")
        lines[5] = bad
        with pytest.raises(ValueError) as new:
            read_records_csv(io.StringIO("\n".join(lines)))
        with pytest.raises(ValueError) as old:
            oracles.read_rows(io.StringIO("\n".join(lines)))
        assert str(new.value) == "line 6: " + str(old.value).removeprefix("line 6: ")

    def test_a_malformed_row_in_the_second_chunk_reports_its_line(self):
        _, lines = two_chunk_design()
        lines[16390 - 1] = "1,M1,CFOV,yes,HT,1.0,2.0,5"
        with pytest.raises(ValueError) as error:
            read_records_csv(io.StringIO("\n".join(lines)))
        assert str(error.value) == "line 16390: responded must be true or false, got 'yes'"

    @pytest.mark.parametrize("line_no", [3, 16390])
    def test_a_non_utf8_byte_exits_one_through_report(self, tmp_path, capsys, line_no):
        _, lines = two_chunk_design()
        data = "\n".join(lines).encode()
        offset = sum(len(line) + 1 for line in lines[:line_no - 1]) + 2
        path = tmp_path / "results.csv"
        path.write_bytes(data[:offset] + b"\xff" + data[offset + 1:])
        assert main(["report", str(path), "--out", str(tmp_path / "rep")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        # The offset counts from the start of the file.
        assert err == (
            f"gazesim: {path}: 'utf-8' codec can't decode byte 0xff in position {offset}: "
            "invalid start byte\n"
        )

    def test_fallback_values_on_both_sides_of_a_boundary_equal_the_row_oracle(self):
        records, _ = two_chunk_design()
        rows = list(records)
        edits = [
            dict(gaze_time_s=-0.0), dict(response_latency_s=math.inf), dict(gaze_time_s=1e9),
            dict(trial_id=-3), dict(seed=2**64 - 1), dict(response_latency_s=2.0**33),
            dict(gaze_time_s=-1e-9), dict(trial_id=2**62),
        ]
        for i, edit in zip([_CHUNK_ROWS - 2, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1] * 2,
                           edits):
            row = next(r for r in rows[i:] if r.responded)
            rows[rows.index(row)] = replace(row, **edit)
        text = written(Records.from_rows(rows))
        assert text == oracle_csv(rows)
        assert read_records_csv(io.StringIO(text)) == oracles.read_rows(io.StringIO(text))

    def test_a_path_and_a_text_stream_get_the_same_text(self, tmp_path):
        records, lines = two_chunk_design()
        write_records_csv(tmp_path / "results.csv", records)
        assert (tmp_path / "results.csv").read_text() == "\n".join(lines)
        binary = io.BytesIO()
        write_records_csv(binary, records)
        assert binary.getvalue().decode() == "\n".join(lines)

    def test_canonical_chunks_never_reach_the_text_parser(self, tmp_path, monkeypatch):
        records, _ = two_chunk_design()
        write_records_csv(tmp_path / "results.csv", records)
        monkeypatch.setattr(records_module, "_parse", None)
        back = read_records_csv(tmp_path / "results.csv")
        assert list(back) == oracles.read_rows(io.StringIO(written(records)))


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
        assert stats_payload(records) == stats_payload(Records.from_rows(rows))
        assert _chart_payload(records) == _chart_payload(Records.from_rows(rows))
        assert stats.anova_two_way(stats.records_to_cells(records)) == (
            oracles.anova_two_way(oracles.records_to_cells(rows))
        )
