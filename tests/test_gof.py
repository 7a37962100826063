"""Tests for the Monte Carlo goodness-of-fit machinery."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heavytails import (CitationSample, DiscretePowerLaw, fit_power_law,
                        gof_test, required_sims, sample_power_law)
from heavytails.gof import RULE_OUT_THRESHOLD, GofResult, _synthetic


class TestRequiredSims:
    @pytest.mark.parametrize("epsilon,expected", [
        (0.01, 2500),
        (0.5, 1),
        (0.02, 625),
        (0.1, 25),
        (1e200, 1),     # 1/(4 eps^2) underflows to 0
    ])
    def test_known_values(self, epsilon, expected):
        assert required_sims(epsilon) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="epsilon"):
            required_sims(0.0)
        with pytest.raises(ValueError, match="epsilon"):
            required_sims(-0.01)

    @given(st.floats(min_value=1e-3, max_value=0.9))
    def test_meets_precision_bound(self, epsilon):
        m = required_sims(epsilon)
        assert m >= 1
        assert m >= 1.0 / (4.0 * epsilon * epsilon)
        # minimality: one fewer simulation would miss the bound
        assert m - 1 < 1.0 / (4.0 * epsilon * epsilon)


class TestGofTest:
    def test_null_data_not_ruled_out(self, pl_tail_sample):
        fit = fit_power_law(pl_tail_sample, bootstrap_reps=0)
        result = gof_test(pl_tail_sample, fit, n_sims=200, seed=4)
        assert isinstance(result, GofResult)
        assert not result.ruled_out
        assert result.p_value > RULE_OUT_THRESHOLD

    def test_fields_consistent(self, pl_tail_sample):
        fit = fit_power_law(pl_tail_sample, bootstrap_reps=0)
        result = gof_test(pl_tail_sample, fit, n_sims=150, seed=1)
        assert result.n_sims == 150
        assert result.p_value == result.n_exceeding / result.n_sims
        assert result.ruled_out == (result.p_value <= RULE_OUT_THRESHOLD)
        assert result.ks_empirical == fit.ks

    def test_deterministic(self, pl_tail_sample):
        fit = fit_power_law(pl_tail_sample, bootstrap_reps=0)
        a = gof_test(pl_tail_sample, fit, n_sims=80, seed=5)
        b = gof_test(pl_tail_sample, fit, n_sims=80, seed=5)
        assert a == b

    def test_seed_matters(self):
        # a dataset whose p-value sits mid-range, so the exceedance count
        # is sensitive to the synthetic stream
        s = sample_power_law(DiscretePowerLaw(1, 2.5), 2000, seed=185)
        fit = fit_power_law(s, bootstrap_reps=0)
        a = gof_test(s, fit, n_sims=80, seed=5)
        b = gof_test(s, fit, n_sims=80, seed=6)
        assert a.n_exceeding != b.n_exceeding

    def test_worker_count_invariance(self, pl_tail_sample):
        fit = fit_power_law(pl_tail_sample, bootstrap_reps=0)
        serial = gof_test(pl_tail_sample, fit, n_sims=60, seed=2)
        pooled = gof_test(pl_tail_sample, fit, n_sims=60, seed=2, workers=3)
        assert serial == pooled

    def test_stale_fit_rejected(self, pl_tail_sample, pl_sample):
        fit = fit_power_law(pl_tail_sample, bootstrap_reps=0)
        with pytest.raises(ValueError, match="stale fit"):
            gof_test(pl_sample, fit, n_sims=10, seed=0)

    def test_pinned_xmin_must_be_the_fits(self, pl_tail_sample):
        # a synthetic tail is drawn from fit.x_min: refit elsewhere, its KS
        # is no match for the empirical one
        fit = fit_power_law(pl_tail_sample, x_min=10, bootstrap_reps=0)
        for x_min in (9, 11):
            with pytest.raises(ValueError, match="^x_min .* is not the fit's"):
                gof_test(pl_tail_sample, fit, n_sims=10, x_min=x_min)

    def test_nan_fit_rejected(self, pl_tail_sample):
        # a NaN alpha once drew synthetic tails forever
        fit = fit_power_law(pl_tail_sample, bootstrap_reps=0)
        with pytest.raises(ValueError, match="alpha must be finite"):
            gof_test(pl_tail_sample, replace(fit, alpha=math.nan), n_sims=10)
        with pytest.raises(ValueError, match="stale fit"):
            gof_test(pl_tail_sample, replace(fit, ks=math.nan), n_sims=10)

    def test_rejects_bad_sims(self, pl_tail_sample):
        fit = fit_power_law(pl_tail_sample, bootstrap_reps=0)
        with pytest.raises(ValueError, match="n_sims"):
            gof_test(pl_tail_sample, fit, n_sims=0, seed=0)

    def test_rejects_non_whole_sims(self, pl_tail_sample):
        # truncated, 2.5 would run 2 simulations and report p = 2 / 2.5
        fit = fit_power_law(pl_tail_sample, bootstrap_reps=0)
        for n_sims in (2.5, True):
            with pytest.raises(ValueError,
                               match="^n_sims must be a positive integer$"):
                gof_test(pl_tail_sample, fit, n_sims=n_sims, seed=0)
        result = gof_test(pl_tail_sample, fit, n_sims=3.0, seed=0)
        assert result == gof_test(pl_tail_sample, fit, n_sims=3, seed=0)
        assert type(result.n_sims) is int

    def test_rejects_non_whole_seed_min_tail_and_xmin(self):
        # truncated, seed 2.5 ran on seed 2's streams and min_tail 50.7 as
        # 50; a pinned x_min of True, equal to the fit's 1, failed every
        # synthetic fit, for p = 1
        s = sample_power_law(DiscretePowerLaw(1, 2.5), 2000, seed=1)
        fit = fit_power_law(s, x_min=1, bootstrap_reps=0)
        for seed in (2.5, True):
            with pytest.raises(ValueError,
                               match="^seed must be a nonnegative integer$"):
                gof_test(s, fit, n_sims=3, seed=seed)
        for min_tail in (50.7, -1):
            with pytest.raises(ValueError,
                               match="^min_tail must be a nonnegative "
                                     "integer$"):
                gof_test(s, fit, n_sims=3, seed=0, min_tail=min_tail)
        with pytest.raises(ValueError,
                           match="^x_min must be a positive integer$"):
            gof_test(s, fit, n_sims=3, seed=0, x_min=True)
        # under 64 simulations these ran in process, and from 320 on 2.5
        # raised a TypeError while the simulations were split among workers
        for workers in (0, -3, True, 2.5):
            with pytest.raises(ValueError,
                               match="^workers must be a positive integer$"):
                gof_test(s, fit, n_sims=320, seed=0, workers=workers)
        assert gof_test(s, fit, n_sims=3, seed=np.int64(0), x_min=1.0,
                        workers=np.int64(2)) == \
            gof_test(s, fit, n_sims=3, seed=0, x_min=1)

    def test_detects_gross_misfit(self):
        # geometric data decays far too fast for a power law over its whole
        # range; with x_min pinned at 1 the test must rule the power law out
        rng = np.random.default_rng(21)
        counts = rng.geometric(0.2, size=5_000)
        from heavytails import CitationSample

        s = CitationSample(counts, label="geometric")
        fit = fit_power_law(s, x_min=1, bootstrap_reps=0)
        result = gof_test(s, fit, n_sims=100, seed=9, x_min=1)
        assert result.ruled_out
        assert result.p_value <= 0.05


class TestSyntheticDraw:
    def test_body_is_one_multinomial_over_its_values(self):
        # a body of 10 distinct values below x_min 10, which the null
        # samples of c05 (x_min 1 or 2) never give
        rng = np.random.default_rng(5)
        sample = CitationSample(np.floor(rng.pareto(1.5, 2000) * 3)
                                .astype(np.int64))
        fit = fit_power_law(sample, bootstrap_reps=0)
        start = int(np.searchsorted(sample.values, fit.x_min))
        assert start >= 5
        n = len(sample)
        body, body_mult = sample.values[:start], sample.multiplicities[:start]
        p = np.append(body_mult, n - body_mult.sum()) / n
        reps = 2000
        drawn = np.empty((reps, start))
        for r in range(reps):
            values, mult = _synthetic(body, p, fit.x_min, fit.alpha, n, 9, r)
            assert np.all(np.diff(values) > 0) and mult.sum() == n
            np.testing.assert_array_equal(values[:start], body)
            assert np.all(values[start:] >= fit.x_min)
            drawn[r] = mult[:start]
        # each body cell is binomial(n, p_i): its mean over the replicates
        # lies within 4 standard errors of n p_i
        expected = n * p[:-1]
        se = np.sqrt(n * p[:-1] * (1.0 - p[:-1]) / reps)
        assert np.all(np.abs(drawn.mean(axis=0) - expected) <= 4.0 * se)
