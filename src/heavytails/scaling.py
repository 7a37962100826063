"""Log-log scaling regression of citation impact against output.

Fits cbp = k * size^n by ordinary least squares on base-10 logarithms of
per-subfield totals.  The slope n is the scaling exponent; 2^n is the
factor by which impact is expected to grow when a subfield doubles its
output, and observed/expected ratios give scale-independent performance
indicators.

The two-sided p-value of the slope comes from the Student t distribution's
tail, which for an integer number of degrees of freedom is a finite sum
(Abramowitz & Stegun, Handbook of Mathematical Functions, 26.7.3-4).  The
module needs no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from typing import Iterable, Sequence

from ._constants import MODES
from .dataset import SubfieldAggregate, _whole

__all__ = [
    "MODES",
    "ScalingPoint",
    "ScalingFit",
    "scaling_fit",
    "matthew_factor",
    "expected_cbp",
    "performance_indicator",
    "points_from_aggregates",
    "scatter_table",
]


@dataclass(frozen=True, slots=True)
class ScalingPoint:
    """One subfield: paper count (size) and citations to those papers (cbp)."""

    subfield_id: str
    size: int
    cbp: int

    def __post_init__(self):
        size, cbp = _whole(self.size), _whole(self.cbp)
        if size is None or cbp is None or min(size, cbp) < 1:
            raise ValueError("size and cbp must be positive integers")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "cbp", cbp)


@dataclass(frozen=True, slots=True)
class ScalingFit:
    """OLS fit of log10(cbp) on log10(size); intercept_log is log10(k)."""

    exponent: float
    intercept_log: float
    k: float
    exponent_se: float
    r2: float
    t_stat: float
    p_value: float
    df: int
    n_points: int


def _t_two_sided(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with an integer df >= 1.

    A&S 26.7.3-4 write P(|T| < |t|) as 2 atan(|t| / sqrt(df)) / pi (odd df
    only) plus the first df // 2 terms of a positive series in
    u = df / (df + t^2) whose whole sum is 1.  Below |t| = 1, where p > 0.31,
    p is 1 minus that; from |t| = 1 on it is the rest of the series, which
    has no cancellation.
    """
    t = abs(t)
    odd = df % 2
    r = math.hypot(t, math.sqrt(df))
    term = t / r * (2 / math.pi * math.sqrt(df) / r if odd else 1.0)
    exact = Fraction(df) / (df + Fraction(t) ** 2)
    u = float(exact)
    ratios = (u * (k + 0.5 + 0.5 * odd) / (k + 1 + 0.5 * odd) for k in count())
    a = 2 / math.pi * math.atan(t / math.sqrt(df)) if odd else 0.0
    for ratio in islice(ratios, df // 2):
        a += term
        term *= ratio
    if t < 1:
        return 1.0 - a
    # a term in u**k carries k times the rounding of u: undo it to first order
    drift = float(exact / Fraction(u) - 1) if u else 0.0
    rest = 1 + df / (t * t)  # 1 / (1 - u); each term is below u times the last
    parts, total = [], 0.0
    # ends at once when the first tail term underflows to 0
    for k, ratio in enumerate(ratios, start=df // 2):
        if term * rest <= 2.0 ** -56 * total:
            return math.fsum(parts)
        parts.append(term * (1 + k * drift))
        total += term
        term *= ratio


def scaling_fit(points: Sequence[ScalingPoint]) -> ScalingFit:
    """Ordinary least squares in log-log space over subfield points."""
    n = len(points)
    if n < 3:
        raise ValueError("need at least 3 points")
    # logs of float(v): a sum past 2**53 rounds to a double first
    x = [math.log10(float(p.size)) for p in points]
    y = [math.log10(float(p.cbp)) for p in points]
    # equal sizes need not give a mean that rounds back to their log
    if min(x) == max(x):
        raise ValueError("no size variation")
    x_mean, y_mean = math.fsum(x) / n, math.fsum(y) / n
    xc = [v - x_mean for v in x]
    yc = [v - y_mean for v in y]
    sxx = math.fsum(v * v for v in xc)
    slope = math.fsum(a * b for a, b in zip(xc, yc)) / sxx
    intercept = y_mean - slope * x_mean
    # residuals from the centered data carry no rounding of the intercept,
    # which matters most when the fit is nearly exact
    resid = [b - slope * a for a, b in zip(xc, yc)]
    sse = math.fsum(v * v for v in resid)
    sst = math.fsum(v * v for v in yc)
    df = n - 2
    se = math.sqrt(sse / df / sxx)
    r2 = 1.0 - sse / sst if sst > 0 else 1.0
    if se > 0:
        t_stat = slope / se
        p_value = _t_two_sided(t_stat, df)
    else:
        t_stat = math.inf if slope > 0 else (-math.inf if slope < 0 else 0.0)
        p_value = 0.0 if slope != 0 else 1.0
    return ScalingFit(exponent=slope, intercept_log=intercept,
                      k=10.0 ** intercept, exponent_se=se, r2=r2,
                      t_stat=t_stat, p_value=p_value, df=df, n_points=n)


def matthew_factor(exponent: float) -> float:
    """Growth multiplier of impact when output doubles: 2**exponent."""
    return 2.0 ** exponent


def expected_cbp(fit: ScalingFit, size: int) -> float:
    """k * size**n, the impact the regression predicts at the given size."""
    if size < 1:
        raise ValueError("size must be positive")
    return fit.k * float(size) ** fit.exponent


def performance_indicator(point: ScalingPoint, fit: ScalingFit) -> float:
    """Observed over expected impact; 1.0 means exactly as predicted."""
    return point.cbp / expected_cbp(fit, point.size)


def points_from_aggregates(aggregates: Iterable[SubfieldAggregate],
                           mode: str) -> tuple[list[ScalingPoint],
                                               list[tuple[str, str]]]:
    """Extract regression points for one mode; zero rows are excluded.

    Returns ``(points, excluded)`` where excluded holds (subfield, reason)
    pairs for rows that cannot enter a log-log regression.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode: {mode!r}")
    points: list[ScalingPoint] = []
    excluded: list[tuple[str, str]] = []
    for agg in aggregates:
        if mode == "overall":
            size, cbp = agg.papers_total, agg.citations_total
        elif mode == "collaboration":
            size, cbp = agg.papers_collab, agg.citations_collab
        else:
            size, cbp = agg.papers_single, agg.citations_single
        if size == 0:
            excluded.append((agg.subfield_id, "zero papers"))
        elif cbp == 0:
            excluded.append((agg.subfield_id, "zero citations"))
        else:
            points.append(ScalingPoint(agg.subfield_id, size, cbp))
    return points, excluded


def scatter_table(points: Sequence[ScalingPoint],
                  fit: ScalingFit) -> list[tuple[str, int, int, float, float]]:
    """Rows (subfield, size, cbp, expected_cbp, indicator) for CSV export."""
    return [(p.subfield_id, p.size, p.cbp, expected_cbp(fit, p.size),
             performance_indicator(p, fit)) for p in points]
