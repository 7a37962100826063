"""Chi-square frequency tests of each family's sampler.

Expected counts come from the package's own pmf and ccdf functions, never
from a sampler.
"""

import numpy as np
import pytest
from scipy.stats import chi2

from heavytails import (AltFit, DiscretePowerLaw, sample_alternative,
                        sample_power_law)
from heavytails.altmodels import _cutoff_logpmf, _lognormal_logpmf

N_DRAWS = 20_000
MIN_EXPECTED = 20.0
DENSE_CAP = 1 << 21


def _edges(q: int, top: float) -> np.ndarray:
    """Every integer from q on, then steps of about 5%, all below top."""
    grid = np.floor(q * 1.05 ** np.arange(2000))
    return np.unique(grid[grid < top]).astype(np.int64)


def _dense_ccdf(pmf: np.ndarray, q: int, edges: np.ndarray) -> np.ndarray:
    """P(X >= e) at each edge e, from the pmf at q, q + 1, ..."""
    tail = 1.0 - np.concatenate([[0.0], np.cumsum(pmf)])
    return tail[edges - q]


def _chi2_p(draws: np.ndarray, edges: np.ndarray, ccdf: np.ndarray) -> float:
    """p-value of the counts in [edges[i], edges[i + 1]) and [edges[-1], inf)
    against ccdf[i] = P(X >= edges[i]).  Neighbouring bins merge until each
    expects MIN_EXPECTED draws."""
    assert draws.min() >= edges[0]
    observed = np.bincount(np.searchsorted(edges, draws, side="right") - 1,
                           minlength=edges.size)
    expected = draws.size * -np.diff(np.append(ccdf, 0.0))
    obs, exp = [], []
    o_run = e_run = 0.0
    for o, e in zip(observed, expected):
        o_run, e_run = o_run + o, e_run + e
        if e_run >= MIN_EXPECTED:
            obs.append(o_run)
            exp.append(e_run)
            o_run = e_run = 0.0
    obs[-1] += o_run
    exp[-1] += e_run
    obs, exp = np.array(obs), np.array(exp)
    assert obs.size >= 2
    return float(chi2.sf(np.sum((obs - exp) ** 2 / exp), obs.size - 1))


# alpha = 1.2 is left out: about 1 draw in 6,000 then passes 2**62 and
# raises the documented integer-range error
@pytest.mark.parametrize("x_min", [1, 10, 1000])
@pytest.mark.parametrize("alpha", [1.5, 2.5, 3.5])
def test_power_law_frequencies(alpha, x_min):
    model = DiscretePowerLaw(x_min, alpha)
    draws = sample_power_law(model, N_DRAWS, seed=1).counts
    edges = _edges(x_min, 2.0 ** 62)
    assert _chi2_p(draws, edges, model.ccdf(edges)) > 1e-3


# mu = -10 at sigma = 9 keeps the mass past 2**62, where a draw raises, at
# 2e-8; about 3% of it lies past DENSE_CAP, in the open last bin
@pytest.mark.parametrize("mu,sigma,x_min", [
    (1.0, 0.8, 3), (0.0, 2.0, 10), (-10.0, 9.0, 3)])
def test_lognormal_frequencies(mu, sigma, x_min):
    fit = AltFit("lognormal", (mu, sigma), x_min, 0.0)
    draws = sample_alternative(fit, N_DRAWS, seed=1).counts
    xs = np.arange(x_min, DENSE_CAP, dtype=np.float64)
    pmf = np.exp(_lognormal_logpmf(xs, mu, sigma, x_min))
    edges = _edges(x_min, DENSE_CAP)
    assert _chi2_p(draws, edges, _dense_ccdf(pmf, x_min, edges)) > 1e-3


# (1, 1e-7) spreads its mass far out: about 8% of it lies past DENSE_CAP,
# in the open last bin
@pytest.mark.parametrize("alpha,rate", [
    (a, r) for a in (-2.0, 0.5, 1.2, 2.5) for r in (1e-4, 0.1, 5.0)
] + [(1.0, 1e-7)])
def test_cutoff_frequencies(alpha, rate):
    x_min = 5
    fit = AltFit("powerlaw_cutoff", (alpha, rate), x_min, 0.0)
    draws = sample_alternative(fit, N_DRAWS, seed=1).counts
    top = min(x_min + 80.0 / rate, DENSE_CAP)
    xs = np.arange(x_min, top, dtype=np.float64)
    pmf = np.exp(_cutoff_logpmf(xs, alpha, rate, x_min))
    edges = _edges(x_min, top)
    assert _chi2_p(draws, edges, _dense_ccdf(pmf, x_min, edges)) > 1e-3
