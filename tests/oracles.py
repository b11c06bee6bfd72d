"""Row-at-a-time reference implementations.

These are the list-based CSV and statistics code that the columnar
`Records` path replaced, the one-seed-per-call `trial_seed` and the
`fmod`-only `normalize_angle`. The tests check the production functions
against them: the same CSV bytes, the same parsed rows, seeds and angles,
and statistics equal to the last bit. `record_ticks` makes the tick loop
step every frame, the loop its skipped waits are checked against.

Two F tails check `gazesim.stats._f_sf`: SciPy's `fdtrc`, which the ANOVA
called before, and `true_f_sf`, the tail to 40 digits in mpmath.
"""
from __future__ import annotations

import math
from typing import IO, Any, Iterable, Mapping, Sequence

import mpmath
from scipy.special import fdtrc

from gazesim import harness
from gazesim.controller import METHODS, Method, RobotAction
from gazesim.records import RESULTS_CSV_HEADER, TrialRecord
from gazesim.seeding import derive_seed
from gazesim.situation import SITUATIONS, ViewingSituation
from gazesim.stats import CellStats, _f_sf, _two_proportion_z


def scipy_f_sf(df1: int, df2: int, f: float) -> float:
    """SciPy's F tail (Boost.Math's `fisher_f` complement)."""
    return float(fdtrc(df1, df2, f))


def true_f_sf(df1: int, df2: int, f: float, digits: int = 40) -> mpmath.mpf:
    """P(F > f) = I_x(df2/2, df1/2) at x = df2/(df2 + df1 f), to `digits`
    significant digits, or 0 where it is surely below 1e-300.

    Both forms of DLMF 8.17.8 sum positive terms:
      I_x(a, b) = x^a y^b / (a B(a, b)) * sum_k (a+b)_k / (a+1)_k x^k
      I_y(b, a) = x^a y^b / (b B(a, b)) * sum_k (a+b)_k / (b+1)_k y^k
    The one with fewer terms is summed; the second gives I_x = 1 - I_y, with
    as many more digits as the tail has leading zeros. Where
    `mpmath.betainc` converges it agrees to 1e-36, but on 12 of 1500 random
    points with df2 up to 2e5 it raised NoConvergence or ValueError.
    """
    a, b, t = df2 / 2, df1 / 2, df1 * f / df2
    y = t / (1 + t)
    log_front = (-a * math.log1p(t) + b * math.log(y) + math.lgamma(a + b)
                 - math.lgamma(a) - math.lgamma(b))
    if log_front < -345 * math.log(10):
        return mpmath.mpf(0)
    # Terms to 1e-43: the x series falls like x^k, the y series like a
    # Poisson tail about its largest term, k near (a + b) y.
    in_x = 120 / math.log1p(t) <= (a + b) * y + 10 * math.sqrt((a + b) * y) + 120
    if not in_x:
        digits += max(0, int(-log_front / math.log(10))) + 10
    with mpmath.workdps(digits):
        a, b, f = mpmath.mpf(df2) / 2, mpmath.mpf(df1) / 2, mpmath.mpf(f)
        x, y = df2 / (df2 + df1 * f), df1 * f / (df2 + df1 * f)
        front = mpmath.exp(a * mpmath.log(x) + b * mpmath.log(y) + mpmath.loggamma(a + b)
                           - mpmath.loggamma(a) - mpmath.loggamma(b))
        z, c = (x, a + 1) if in_x else (y, b + 1)
        total, term, k = mpmath.mpf(1), mpmath.mpf(1), 0
        while True:
            ratio = (a + b + k) / (c + k) * z
            term *= ratio
            total += term
            k += 1
            if term < mpmath.mpf(10) ** (-digits - 3) * total and ratio < 0.9:  # past the peak
                break
        return front / a * total if in_x else 1 - front / b * total


def normalize_angle(deg: float) -> float:
    """Wrap an angle in degrees onto (-180, +180] by `math.fmod` alone."""
    if not math.isfinite(deg):
        raise ValueError(f"angle must be finite, got {deg!r}")
    wrapped = math.fmod(deg, 360.0)
    if wrapped > 180.0:
        wrapped -= 360.0
    elif wrapped <= -180.0:
        wrapped += 360.0
    return wrapped + 0.0  # -0.0 -> 0.0


def trial_seed(base_seed: int, method: Method, situation: ViewingSituation, rep: int) -> int:
    """Per-trial seed, stable under subsetting methods or situations."""
    return derive_seed(
        base_seed, METHODS.index(method), SITUATIONS.index(situation), rep
    )


def record_ticks(monkeypatch) -> list[tuple[float, float, float]]:
    """Make the harness's tick loop step every frame, and return the list that
    each of its controller steps appends (t, pan_deg, tilt_deg) to."""
    monkeypatch.setattr(harness, "_wake_frame", lambda frame, wake: frame)
    samples = []
    step = harness.controller_step

    def recording(state, inputs, t):
        state, events = step(state, inputs, t)
        samples.append((t, state.pan_deg, state.tilt_deg))
        return state, events

    monkeypatch.setattr(harness, "controller_step", recording)
    return samples


def _fmt_opt_float(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def format_record_row(record: TrialRecord) -> str:
    return ",".join(
        (
            str(record.trial_id),
            record.method.value,
            record.situation.value,
            "true" if record.responded else "false",
            record.responding_action.value if record.responding_action else "",
            _fmt_opt_float(record.response_latency_s),
            _fmt_opt_float(record.gaze_time_s),
            str(record.seed),
        )
    )


def read_rows(fp: IO[str]) -> list[TrialRecord]:
    header = fp.readline().rstrip("\n")
    if header != RESULTS_CSV_HEADER:
        raise ValueError(f"unexpected results header: {header!r}")
    records = []
    for line_no, line in enumerate(fp, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 8:
            raise ValueError(f"line {line_no}: expected 8 fields, got {len(parts)}")
        (tid, method, situation, responded, action, latency, gaze, seed) = parts
        if responded not in ("true", "false"):
            raise ValueError(
                f"line {line_no}: responded must be true or false, got {responded!r}"
            )
        records.append(
            TrialRecord(
                trial_id=int(tid),
                method=Method(method),
                situation=ViewingSituation(situation),
                responded=responded == "true",
                responding_action=RobotAction(action) if action else None,
                response_latency_s=float(latency) if latency else None,
                gaze_time_s=float(gaze) if gaze else None,
                seed=int(seed),
            )
        )
    return records


def _cell_key(record: TrialRecord) -> tuple[Method, ViewingSituation]:
    return (record.method, record.situation)


def records_to_cells(
    records: Iterable[TrialRecord],
) -> dict[tuple[Method, ViewingSituation], list[float]]:
    cells: dict[tuple[Method, ViewingSituation], list[float]] = {}
    for record in records:
        cells.setdefault(_cell_key(record), []).append(1.0 if record.responded else 0.0)
    return cells


def _sample_sd(values: Sequence[float]) -> float:
    n = len(values)
    if n < 2:
        return 0.0
    mean = sum(values) / n
    return math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))


def success_ratio(records: Iterable[TrialRecord]) -> list[CellStats]:
    """Per-cell success mean and sample standard deviation, in canonical
    method-then-situation order over the cells that appear."""
    cells = records_to_cells(records)
    if not cells:
        raise ValueError("no records given")
    out = []
    for method in METHODS:
        for situation in SITUATIONS:
            outcomes = cells.get((method, situation))
            if outcomes is None:
                continue
            mean = sum(outcomes) / len(outcomes)
            out.append(
                CellStats(
                    method=method,
                    situation=situation,
                    n=len(outcomes),
                    mean_success=mean,
                    sd_success=_sample_sd(outcomes),
                )
            )
    return out


def overall_ratio(records: Iterable[TrialRecord], method: Method) -> float:
    """Pooled success for one method, weighting the four situations equally."""
    cells = records_to_cells(r for r in records if r.method is method)
    missing = [s.value for s in SITUATIONS if (method, s) not in cells]
    if missing:
        raise ValueError(
            f"{method.value}: records missing situations {', '.join(missing)}"
        )
    means = [
        sum(cells[(method, s)]) / len(cells[(method, s)]) for s in SITUATIONS
    ]
    return sum(means) / len(means)


def gaze_stats(records: Iterable[TrialRecord], method: Method) -> tuple[float, float]:
    """Mean and variance of gaze time over the method's successful trials."""
    times = [
        r.gaze_time_s
        for r in records
        if r.method is method and r.responded and r.gaze_time_s is not None
    ]
    if not times:
        raise ValueError(f"{method.value}: no successful trials with gaze times")
    n = len(times)
    mean = sum(times) / n
    variance = sum((t - mean) ** 2 for t in times) / n
    return mean, variance


def anova_two_way(
    cells: Mapping[tuple[Method, ViewingSituation], Sequence[float]],
) -> dict[str, Any]:
    """Balanced fixed-effects two-way ANOVA over a method-by-situation grid.

    Returns per-effect F, degrees of freedom, p value, and eta squared.
    F is 0 when the effect's sum of squares is 0, and infinity when the
    within-cell variance is 0 while the effect is real.
    """
    if not cells:
        raise ValueError("empty grid")
    methods = [m for m in METHODS if any(key[0] is m for key in cells)]
    situations = [s for s in SITUATIONS if any(key[1] is s for key in cells)]
    expected = {(m, s) for m in methods for s in situations}
    if set(cells) != expected:
        raise ValueError("grid is not fully crossed")
    sizes = {len(v) for v in cells.values()}
    if len(sizes) != 1:
        raise ValueError(f"unbalanced grid: cell sizes {sorted(sizes)}")
    n = sizes.pop()
    if n < 2:
        raise ValueError("need at least 2 observations per cell")

    a, b = len(methods), len(situations)
    total = a * b * n
    grand = sum(sum(v) for v in cells.values()) / total
    row_means = {
        m: sum(sum(cells[(m, s)]) for s in situations) / (b * n) for m in methods
    }
    col_means = {
        s: sum(sum(cells[(m, s)]) for m in methods) / (a * n) for s in situations
    }
    cell_means = {key: sum(v) / n for key, v in cells.items()}

    ss_method = b * n * sum((row_means[m] - grand) ** 2 for m in methods)
    ss_situation = a * n * sum((col_means[s] - grand) ** 2 for s in situations)
    ss_cells = n * sum((cell_means[key] - grand) ** 2 for key in cells)
    ss_interaction = max(ss_cells - ss_method - ss_situation, 0.0)
    ss_within = sum(
        sum((x - cell_means[key]) ** 2 for x in values)
        for key, values in cells.items()
    )
    ss_total = ss_method + ss_situation + ss_interaction + ss_within

    df_method = a - 1
    df_situation = b - 1
    df_interaction = df_method * df_situation
    df_within = a * b * (n - 1)
    ms_within = ss_within / df_within if df_within else 0.0

    def effect(ss: float, df: int) -> dict[str, Any]:
        if ss <= 0.0 or df == 0:
            f_value = 0.0
        elif ms_within == 0.0:
            f_value = math.inf
        else:
            f_value = (ss / df) / ms_within
        p_value = _f_sf(df, df_within, f_value)
        eta_squared = ss / ss_total if ss_total > 0 else 0.0
        return {
            "F": f_value,
            "df": [df, df_within],
            "p": p_value,
            "eta_squared": eta_squared,
        }

    return {
        "method": effect(ss_method, df_method),
        "situation": effect(ss_situation, df_situation),
        "interaction": effect(ss_interaction, df_interaction),
        "grand_mean": grand,
        "n_per_cell": n,
    }


def bonferroni_pairwise(
    records: Iterable[TrialRecord], alpha: float = 0.05
) -> list[dict[str, Any]]:
    """All method pairs, two-proportion z-test on pooled success, p values
    Bonferroni-corrected by the number of pairs."""
    counts: dict[Method, tuple[int, int]] = {}
    for record in records:
        wins, n = counts.get(record.method, (0, 0))
        counts[record.method] = (wins + (1 if record.responded else 0), n + 1)
    methods = [m for m in METHODS if m in counts]
    if len(methods) < 2:
        raise ValueError("need at least two methods to compare")
    pairs = [
        (methods[i], methods[j])
        for i in range(len(methods))
        for j in range(i + 1, len(methods))
    ]
    results = []
    for first, second in pairs:
        w1, n1 = counts[first]
        w2, n2 = counts[second]
        z = _two_proportion_z(w1, n1, w2, n2)
        p_raw = math.erfc(abs(z) / math.sqrt(2.0)) if math.isfinite(z) else 0.0
        p_adj = min(1.0, p_raw * len(pairs))
        results.append(
            {
                "pair": [first.value, second.value],
                "z": z,
                "p_raw": p_raw,
                "p_adj": p_adj,
                "significant": p_adj < alpha,
            }
        )
    return results
