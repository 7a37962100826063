"""Tests for the alternative tail families and likelihood-ratio tests."""

import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import chi2, norm

from heavytails import (CitationSample, DiscretePowerLaw, compare_models,
                        fit_alternative, fit_power_law, hurwitz_zeta,
                        sample_alternative, sample_power_law)
from heavytails.altmodels import (FAMILIES, AltFit, _cutoff_log_z,
                                  _lognormal_logpmf, _vuong)
from heavytails.powerlaw import PowerLawFit


def _lerch_log_z(alpha: float, rate: float, q: int) -> float:
    # sum_{x>=q} x^-alpha e^-(rate x) = e^-(rate q) Phi(e^-rate, alpha, q)
    with mpmath.workdps(30):
        z = mpmath.e ** (-rate * q) * mpmath.lerchphi(
            mpmath.e ** -mpmath.mpf(rate), alpha, q)
        return float(mpmath.log(z))


class TestCutoffNormalizer:
    @pytest.mark.parametrize("alpha,rate,q", [
        (2.35, 0.001, 1),      # tiny rate, deep Euler-Maclaurin branch
        (2.0, 0.01, 10),
        (1.0, 0.1, 1),         # alpha at the zeta pole: only rate saves it
        (-2.0, 0.5, 1),        # rising pmf until the cutoff bites
        (2.5, 0.24, 3),        # just below the branch seam
        (2.5, 0.26, 3),        # just above it
        (0.5, 5.0, 7),
    ])
    def test_against_lerch_transcendent(self, alpha, rate, q):
        assert_allclose(_cutoff_log_z(alpha, rate, q),
                        _lerch_log_z(alpha, rate, q), rtol=1e-13)

    def test_zero_rate_reduces_to_zeta(self):
        got = _cutoff_log_z(2.35, 0.0, 4)
        assert_allclose(got, math.log(hurwitz_zeta(2.35, 4)), rtol=1e-14)

    def test_zero_rate_divergent_for_small_alpha(self):
        assert _cutoff_log_z(0.8, 0.0, 1) == np.inf


class TestExponentialFit:
    def test_closed_form_rate(self):
        # tail {10,10,11,12,14,20,30}: mean excess 37/7, so the discrete
        # MLE is log(1 + 7/37) = log(44/37)
        s = CitationSample(np.array([1, 2, 10, 10, 11, 12, 14, 20, 30]),
                           label="fixture")
        fit = fit_alternative(s, 10, "exponential")
        assert fit.family == "exponential"
        assert fit.x_min == 10
        assert_allclose(fit.params[0], math.log(44.0 / 37.0), rtol=1e-15)

    def test_log_likelihood_matches_direct_sum(self):
        s = CitationSample(np.array([1, 2, 10, 10, 11, 12, 14, 20, 30]),
                           label="fixture")
        fit = fit_alternative(s, 10, "exponential")
        rate = fit.params[0]
        tail = np.array([10, 10, 11, 12, 14, 20, 30], dtype=float)
        direct = np.sum(-rate * (tail - 10) + np.log(1.0 - np.exp(-rate)))
        assert_allclose(fit.log_likelihood, direct, rtol=1e-14)

    def test_pmf_sums_to_one(self):
        # geometric mass: remainder past x is e^-(rate (x+1-q))
        rate = 0.5
        xs = np.arange(10, 150, dtype=float)
        pmf = np.exp(-rate * (xs - 10)) * (1.0 - np.exp(-rate))
        assert_allclose(pmf.sum() + math.exp(-rate * 140), 1.0, rtol=1e-15)

    def test_recovers_planted_rate(self):
        planted = AltFit("exponential", (0.5,), 10, 0.0)
        s = sample_alternative(planted, 20_000, seed=42)
        fit = fit_alternative(s, 10, "exponential")
        assert_allclose(fit.params[0], 0.5, rtol=0.02)

    def test_degenerate_tail_rejected(self):
        s = CitationSample(np.array([1, 7, 7, 7]), label="flat")
        with pytest.raises(ValueError, match="degenerate tail"):
            fit_alternative(s, 7, "exponential")


class TestLognormalFit:
    def test_pmf_sums_to_one(self):
        xs = np.arange(1, 5000, dtype=float)
        pmf = np.exp(_lognormal_logpmf(xs, 1.0, 0.8, 1))
        assert_allclose(pmf.sum(), 1.0, rtol=1e-12)

    def test_recovers_planted_params(self):
        planted = AltFit("lognormal", (1.0, 0.8), 1, 0.0)
        s = sample_alternative(planted, 20_000, seed=43)
        fit = fit_alternative(s, 1, "lognormal")
        assert_allclose(fit.params[0], 1.0, atol=0.05)
        assert_allclose(fit.params[1], 0.8, rtol=0.05)

    def test_survives_power_law_data(self, pl_tail_sample):
        # on scale-free data the tail lognormal likelihood has no interior
        # maximum; the fit must still terminate at a boundary-ish point
        fit = fit_alternative(pl_tail_sample, 10, "lognormal")
        assert fit.family == "lognormal"
        assert np.isfinite(fit.log_likelihood)


class TestCutoffFit:
    def test_recovers_planted_params(self):
        planted = AltFit("powerlaw_cutoff", (2.0, 0.01), 1, 0.0)
        s = sample_alternative(planted, 20_000, seed=44)
        fit = fit_alternative(s, 1, "powerlaw_cutoff")
        assert_allclose(fit.params[0], 2.0, atol=0.1)
        assert 0.004 < fit.params[1] < 0.02

    def test_pmf_sums_to_one(self):
        alpha, rate, q = 2.0, 0.05, 3
        lz = _cutoff_log_z(alpha, rate, q)
        xs = np.arange(q, 2000, dtype=float)
        pmf = np.exp(-alpha * np.log(xs) - rate * xs - lz)
        assert_allclose(pmf.sum(), 1.0, rtol=1e-13)


class TestVuong:
    def test_hand_computed(self):
        # lr = 6, mean = 2, sum of squared deviations = 2, z = 6 / sqrt(2)
        lr, z, p = _vuong(np.array([1.0, 2.0, 3.0]), np.ones(3))
        assert_allclose(lr, 6.0, rtol=1e-15)
        assert_allclose(z, 6.0 / math.sqrt(2.0), rtol=1e-14)
        assert_allclose(p, 2.0 * norm.sf(6.0 / math.sqrt(2.0)), rtol=1e-14)

    def test_weights_match_repetition(self):
        d = np.array([0.3, -1.2, 0.9])
        w = np.array([4.0, 1.0, 2.0])
        expanded = np.repeat(d, w.astype(int))
        assert_allclose(_vuong(d, w), _vuong(expanded, np.ones(7)), rtol=1e-12)

    def test_zero_variance(self):
        lr, z, p = _vuong(np.full(5, 0.7), np.ones(5))
        assert_allclose(lr, 3.5, rtol=1e-15)
        assert z == 0.0
        assert p == 1.0


class TestCompareModels:
    def test_power_law_data_beats_exponential(self, pl_tail_sample):
        pl = fit_power_law(pl_tail_sample, bootstrap_reps=0)
        (res,) = compare_models(pl_tail_sample, pl,
                                alternatives=("exponential",))
        assert res.alternative == "exponential"
        assert res.lr > 0
        assert res.p < 0.05
        assert res.verdict == "power_law_favored"

    def test_power_law_data_lognormal_inconclusive(self, pl_tail_sample):
        pl = fit_power_law(pl_tail_sample, bootstrap_reps=0)
        (res,) = compare_models(pl_tail_sample, pl,
                                alternatives=("lognormal",))
        assert res.verdict == "inconclusive"
        assert res.p > 0.10

    def test_cutoff_is_nested(self, pl_tail_sample):
        pl = fit_power_law(pl_tail_sample, bootstrap_reps=0)
        (res,) = compare_models(pl_tail_sample, pl,
                                alternatives=("powerlaw_cutoff",))
        assert res.lr <= 0.0
        assert res.z is None
        assert_allclose(res.p, chi2.sf(2.0 * abs(res.lr), df=1), rtol=1e-14)

    def test_nesting_over_seeds(self):
        for seed in range(10):
            s = sample_power_law(DiscretePowerLaw(1, 2.5), 3000, seed=seed)
            pl = fit_power_law(s, bootstrap_reps=0)
            (res,) = compare_models(s, pl, alternatives=("powerlaw_cutoff",))
            assert res.lr <= 0.0, f"seed {seed} broke nesting"

    def test_exponential_data_favors_exponential(self):
        planted = AltFit("exponential", (0.1,), 10, 0.0)
        s = sample_alternative(planted, 10_000, seed=50)
        pl = fit_power_law(s, x_min=10, bootstrap_reps=0)
        (res,) = compare_models(s, pl, alternatives=("exponential",))
        assert res.lr < 0
        assert res.p < 0.05
        assert res.verdict == "alternative_favored"

    def test_cutoff_data_favors_cutoff(self):
        planted = AltFit("powerlaw_cutoff", (2.0, 0.01), 1, 0.0)
        s = sample_alternative(planted, 10_000, seed=51)
        pl = fit_power_law(s, x_min=1, bootstrap_reps=0)
        (res,) = compare_models(s, pl, alternatives=("powerlaw_cutoff",))
        assert res.lr < 0
        assert res.p < 0.05
        assert res.verdict == "alternative_favored"

    def test_default_families_and_order(self, pl_tail_sample):
        pl = fit_power_law(pl_tail_sample, bootstrap_reps=0)
        results = compare_models(pl_tail_sample, pl)
        assert tuple(r.alternative for r in results) == FAMILIES

    def test_empty_tail_rejected(self, tiny_sample):
        pl = PowerLawFit(x_min=10**9, alpha=2.5, n_tail=0, ks=0.0,
                         alpha_sd=0.0, x_min_sd=0.0, log_likelihood=0.0)
        with pytest.raises(ValueError, match="empty tail"):
            compare_models(tiny_sample, pl)

    def test_unknown_family_rejected(self, pl_tail_sample):
        with pytest.raises(ValueError, match="unknown family"):
            fit_alternative(pl_tail_sample, 10, "weibull")


class TestSampleAlternative:
    def test_deterministic(self):
        fit = AltFit("powerlaw_cutoff", (2.0, 0.1), 1, 0.0)
        a = sample_alternative(fit, 500, seed=3)
        b = sample_alternative(fit, 500, seed=3)
        assert np.array_equal(a.counts, b.counts)

    @pytest.mark.parametrize("fit", [
        AltFit("exponential", (0.5,), 10, 0.0),
        AltFit("lognormal", (1.0, 0.8), 3, 0.0),
        AltFit("powerlaw_cutoff", (2.0, 0.1), 5, 0.0),
    ])
    def test_support(self, fit):
        s = sample_alternative(fit, 2000, seed=8)
        assert s.counts.min() >= fit.x_min

    def test_exponential_mean_anchor(self):
        fit = AltFit("exponential", (0.5,), 10, 0.0)
        s = sample_alternative(fit, 20_000, seed=42)
        theory = 10.0 + 1.0 / (math.exp(0.5) - 1.0)
        assert_allclose(s.counts.mean(), theory, rtol=0.01)

    def test_lognormal_median_anchor(self):
        # continuous median exp(mu) = e, landing in the discrete bin 3
        fit = AltFit("lognormal", (1.0, 0.8), 1, 0.0)
        s = sample_alternative(fit, 20_000, seed=43)
        assert float(np.median(s.counts)) == 3.0

    def test_cutoff_mean_anchor(self):
        fit = AltFit("powerlaw_cutoff", (2.0, 0.1), 1, 0.0)
        s = sample_alternative(fit, 20_000, seed=45)
        xs = np.arange(1, 4000, dtype=float)
        w = xs**-2.0 * np.exp(-0.1 * xs)
        assert_allclose(s.counts.mean(), (xs * w).sum() / w.sum(), rtol=0.02)

    def test_exponential_past_integer_range_is_an_error(self):
        # mean 1e19: most draws pass 2**62
        fit = AltFit("exponential", (1e-19,), 1, 0.0)
        with pytest.raises(ValueError, match="exceeds the integer range"):
            sample_alternative(fit, 5, seed=1)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError, match="n must be"):
            sample_alternative(AltFit("exponential", (0.5,), 1, 0.0), 0, 1)
        with pytest.raises(ValueError, match="rate must be positive"):
            sample_alternative(AltFit("exponential", (0.0,), 1, 0.0), 5, 1)
        with pytest.raises(ValueError, match="sigma"):
            sample_alternative(AltFit("lognormal", (1.0, 0.0), 1, 0.0), 5, 1)
        with pytest.raises(ValueError, match="non-normalizable"):
            sample_alternative(
                AltFit("powerlaw_cutoff", (0.9, 0.0), 1, 0.0), 5, 1)
