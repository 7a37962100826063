"""Monte Carlo goodness-of-fit test for a fitted power-law tail.

Each synthetic dataset keeps the empirical sample size: observations fall
in the tail with probability n_tail/n and are then drawn from the fitted
model, otherwise they are resampled uniformly from the empirical values
below x_min.  Every synthetic dataset is refit from scratch, including its
own x_min scan, and the p-value is the fraction of synthetic KS distances
at least as large as the empirical one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import DOMAIN_GOF, derived_rng
from .dataset import CitationSample
from .powerlaw import (DEFAULT_MIN_TAIL, PowerLawFit, _replicates, _scan,
                       _tail_draws, ks_distance)

__all__ = ["GofResult", "required_sims", "gof_test", "RULE_OUT_THRESHOLD",
           "DEFAULT_SIMS"]

RULE_OUT_THRESHOLD = 0.10
DEFAULT_SIMS = 2500


@dataclass(frozen=True, slots=True)
class GofResult:
    """Plausibility verdict: the power law is ruled out when p <= 0.10."""

    ks_empirical: float
    n_sims: int
    n_exceeding: int
    p_value: float
    ruled_out: bool


def required_sims(epsilon: float) -> int:
    """Simulations needed for p-value precision epsilon: ceil(1/(4 eps^2))."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return math.ceil(1.0 / (4.0 * epsilon * epsilon))


def _gof_chunk(args) -> list[float]:
    start, stop, body, x_min, alpha, n, seed, min_tail = args
    p_tail = 1.0 - body.size / n
    ks_values = []
    for r in range(start, stop):
        rng = derived_rng(seed, DOMAIN_GOF, r)
        n_tail = int(rng.binomial(n, p_tail))
        synth = np.concatenate([
            _tail_draws(alpha, x_min, n_tail, rng),
            body[rng.integers(0, body.size, size=n - n_tail)]])
        positive = np.sort(synth[synth >= 1])
        try:
            ks_values.append(_scan(positive, min_tail).ks)
        except ValueError:
            # no admissible tail in the synthetic draw; scored as exceeding
            ks_values.append(np.inf)
    return ks_values


def gof_test(sample: CitationSample, fit: PowerLawFit,
             n_sims: int = DEFAULT_SIMS, seed: int = 0, *,
             workers: int = 1,
             min_tail: int = DEFAULT_MIN_TAIL) -> GofResult:
    """Semi-parametric bootstrap p-value for the fitted power law.

    ``fit`` must have been produced from ``sample``; the empirical KS is
    recomputed and compared against ``fit.ks`` to catch stale pairings.
    The result is identical for any ``workers`` count.
    """
    if n_sims < 1:
        raise ValueError("n_sims must be at least 1")
    recomputed = ks_distance(sample, fit.model())
    if abs(recomputed - fit.ks) > 1e-12:
        raise ValueError("stale fit")

    counts = sample.counts
    n = counts.size
    body = counts[counts < fit.x_min]
    ks_values = _replicates(_gof_chunk,
                            (body, fit.x_min, fit.alpha, n, seed, min_tail),
                            n_sims, workers)

    n_exceeding = int(np.sum(np.asarray(ks_values) >= fit.ks))
    p_value = n_exceeding / n_sims
    return GofResult(ks_empirical=fit.ks, n_sims=n_sims,
                     n_exceeding=n_exceeding, p_value=p_value,
                     ruled_out=p_value <= RULE_OUT_THRESHOLD)
