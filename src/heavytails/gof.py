"""Monte Carlo goodness-of-fit test for a fitted power-law tail.

Each synthetic dataset keeps the empirical sample size n: one multinomial
draw of n resamples the empirical values below x_min, each with its share
of the sample, and gives the tail its share n_tail/n, whose observations
are drawn from the fitted model.  Every synthetic dataset is refit from
scratch, by its own x_min scan or at the pinned x_min, as the data were,
and the p-value is the fraction of synthetic KS distances at least as large
as the empirical one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._constants import DEFAULT_SIMS
from ._rng import DOMAIN_GOF, derived_rng
from .dataset import CitationSample, _at_least
from .powerlaw import (DEFAULT_MIN_TAIL, PowerLawFit, _replicates,
                       _tail_draws, ks_distance)

__all__ = ["GofResult", "required_sims", "gof_test", "RULE_OUT_THRESHOLD",
           "DEFAULT_SIMS"]

RULE_OUT_THRESHOLD = 0.10


@dataclass(frozen=True, slots=True)
class GofResult:
    """Plausibility verdict: the power law is ruled out when p <= 0.10."""

    ks_empirical: float
    n_sims: int
    n_exceeding: int
    p_value: float
    ruled_out: bool


def required_sims(epsilon: float) -> int:
    """Simulations needed for p-value precision epsilon: ceil(1/(4 eps^2)).

    epsilon must be finite and at least 0.001 (250,000 simulations, 100
    times the default): a finer one would run for days."""
    if not (math.isfinite(epsilon) and epsilon >= 0.001):
        raise ValueError("epsilon must be finite and at least 0.001 "
                         "(250000 simulations); use --sims for a larger run")
    # past eps ~ 1e154 the quotient underflows to 0; the count is still 1
    return max(1, math.ceil(1.0 / (4.0 * epsilon * epsilon)))


def _synthetic(body: np.ndarray, p: np.ndarray, x_min: int, alpha: float,
               n: int, seed: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The digest of synthetic sample r: one multinomial draw of n over the
    values ``body`` below x_min and the tail, with shares ``p``, then the
    tail's model draws.  A body value that is not drawn keeps count 0."""
    rng = derived_rng(seed, DOMAIN_GOF, r)
    mult = rng.multinomial(n, p)
    tail, tail_mult = np.unique(_tail_draws(alpha, x_min, int(mult[-1]), rng),
                                return_counts=True)
    # every body value lies below x_min and every tail value at or above it
    return (np.concatenate([body, tail]),
            np.concatenate([mult[:-1], tail_mult]))


def gof_test(sample: CitationSample, fit: PowerLawFit,
             n_sims: int = DEFAULT_SIMS, seed: int = 0, *,
             workers: int = 1,
             min_tail: int = DEFAULT_MIN_TAIL,
             x_min: int | None = None) -> GofResult:
    """Semi-parametric bootstrap p-value for the fitted power law.

    ``fit`` must have been produced from ``sample``; the empirical KS is
    recomputed and compared against ``fit.ks`` to catch stale pairings.
    Each synthetic sample is refit as the data were (Clauset et al. 2009,
    sec. 4.1): by its own x_min scan, with ``min_tail``, or, given
    ``x_min``, which must be ``fit.x_min``, at that pinned x_min.  One
    without a usable tail counts as exceeding the empirical KS.  The
    result is identical for any ``workers`` count, a positive whole number.
    """
    n_sims = _at_least(n_sims, 1, "n_sims")
    # _candidates trusts these: a synthetic fit reads its ValueError as no tail
    min_tail = _at_least(min_tail, 0, "min_tail")
    workers = _at_least(workers, 1, "workers")
    if x_min is not None:
        x_min = _at_least(x_min, 1, "x_min")
        if x_min != fit.x_min:
            raise ValueError(f"x_min {x_min} is not the fit's, {fit.x_min}")
    recomputed = ks_distance(sample, fit.model())
    # a NaN on either side is stale too
    if not abs(recomputed - fit.ks) <= 1e-12:
        raise ValueError("stale fit")

    # the shares of the distinct values below x_min, then the tail's
    start = np.searchsorted(sample.values, fit.x_min)
    n = len(sample)
    body_mult = sample.multiplicities[:start]
    p = np.append(body_mult, n - body_mult.sum()) / n
    fits = _replicates(partial(_synthetic, sample.values[:start], p,
                               fit.x_min, fit.alpha, n, seed),
                       n_sims, workers, min_tail, x_min)
    # a synthetic draw without an admissible tail is scored as exceeding
    ks_values = np.array([np.inf if f is None else f.ks for f in fits])

    n_exceeding = int(np.sum(ks_values >= fit.ks))
    p_value = n_exceeding / n_sims
    return GofResult(ks_empirical=fit.ks, n_sims=n_sims,
                     n_exceeding=n_exceeding, p_value=p_value,
                     ruled_out=p_value <= RULE_OUT_THRESHOLD)
