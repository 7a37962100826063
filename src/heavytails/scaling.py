"""Log-log scaling regression of citation impact against output.

Fits cbp = k * size^n by ordinary least squares on base-10 logarithms of
per-subfield totals.  The slope n is the scaling exponent; 2^n is the
factor by which impact is expected to grow when a subfield doubles its
output, and observed/expected ratios give scale-independent performance
indicators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.special import stdtr

from ._constants import MODES
from .dataset import SubfieldAggregate

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
        if int(self.size) < 1 or int(self.cbp) < 1:
            raise ValueError("size and cbp must be positive")
        object.__setattr__(self, "size", int(self.size))
        object.__setattr__(self, "cbp", int(self.cbp))


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


def scaling_fit(points: Sequence[ScalingPoint]) -> ScalingFit:
    """Ordinary least squares in log-log space over subfield points."""
    if len(points) < 3:
        raise ValueError("need at least 3 points")
    # float(v) rounds as numpy's int64 and uint64 casts do, and it also
    # takes sums past 2**64, which numpy would hold as Python objects
    x = np.log10([float(p.size) for p in points])
    y = np.log10([float(p.cbp) for p in points])
    xc = x - x.mean()
    sxx = float(np.sum(xc * xc))
    if sxx == 0.0:
        raise ValueError("no size variation")
    slope = float(np.sum(xc * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    sse = float(np.sum(resid * resid))
    sst = float(np.sum((y - y.mean()) ** 2))
    df = len(points) - 2
    se = math.sqrt(sse / df / sxx)
    r2 = 1.0 - sse / sst if sst > 0 else 1.0
    if se > 0:
        t_stat = slope / se
        p_value = float(2.0 * stdtr(df, -abs(t_stat)))
    else:
        t_stat = math.inf if slope > 0 else (-math.inf if slope < 0 else 0.0)
        p_value = 0.0 if slope != 0 else 1.0
    return ScalingFit(exponent=slope, intercept_log=intercept,
                      k=10.0 ** intercept, exponent_se=se, r2=r2,
                      t_stat=t_stat, p_value=p_value, df=df,
                      n_points=len(points))


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
