"""Tests for the alternative tail families and likelihood-ratio tests."""

import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special
from scipy.stats import chi2, norm

import heavytails.altmodels as altmodels_module
from heavytails import (CitationSample, DiscretePowerLaw, compare_models,
                        fit_alpha, fit_alternative, fit_power_law,
                        sample_alternative, sample_power_law)
from heavytails.altmodels import (_ERFCX_CHEB, _GL_NODES, _GL_WEIGHTS,
                                  FAMILIES, AltFit, _chi2_1_sf, _cutoff_model, _cutoff_moments, _erfcx,
                                  _log_ndtr, _lognormal_logpmf,
                                  _lognormal_model, _mills, _vuong)
from heavytails.powerlaw import PowerLawFit, _distinct


def _lerch_log_z(alpha: float, rate: float, q: int) -> float:
    # sum_{x>=q} x^-alpha e^-(rate x) = e^-(rate q) Phi(e^-rate, alpha, q)
    with mpmath.workdps(30):
        z = mpmath.e ** (-rate * q) * mpmath.lerchphi(
            mpmath.e ** -mpmath.mpf(rate), alpha, q)
        return float(mpmath.log(z))


def _rel_err(got, ref):
    return float(np.max(np.abs(got - ref) / np.abs(ref)))


class TestNormalKernel:
    """The erfcx kernel and what is built on it, against mpmath and scipy.
    Each bound sits a little above the error measured on its grid."""

    def test_chebyshev_table_regenerates(self):
        # the recipe in altmodels: the 64-node Chebyshev coefficients of
        # g(y) = log(erfcx(x) / t), t = (1 + y) / 2, x = 2 / t - 2, at 40 digits
        nodes = 64
        with mpmath.workdps(40):
            theta = [mpmath.pi * (j + mpmath.mpf(0.5)) / nodes
                     for j in range(nodes)]
            g = []
            for a in theta:
                t = (1 + mpmath.cos(a)) / 2
                x = 2 / t - 2
                g.append(mpmath.log(mpmath.erfc(x) * mpmath.exp(x * x) / t))
            coef = [2 * mpmath.fsum(v * mpmath.cos(k * a)
                                    for v, a in zip(g, theta)) / nodes
                    for k in range(nodes)]
        assert tuple(float(c) for c in coef[:len(_ERFCX_CHEB)]) == _ERFCX_CHEB
        assert float(mpmath.fsum(abs(c) for c in coef[len(_ERFCX_CHEB):])) < 4e-18

    def test_log_ndtr_against_mpmath(self):
        z = np.concatenate([-np.logspace(150, 2, 40), -np.logspace(2, -3, 200),
                            np.linspace(-40.0, 10.0, 401), [0.0]])
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.log(mpmath.ncdf(v))) for v in z])
        # measured: 5.6e-15; scipy.special.log_ndtr's is 1.5e-14 here
        assert _rel_err(_log_ndtr(z), ref) < 1e-14
        assert _log_ndtr(np.inf) == 0.0 and _log_ndtr(-np.inf) == -np.inf

    def test_erfcx_and_mills_ratio_on_both_sides(self):
        # x < 0 takes the reflection 2 exp(x^2) - erfcx(-x)
        z = np.concatenate([np.linspace(-37.0, 40.0, 771), np.logspace(-8, 8, 50)])
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.ncdf(-v) / mpmath.npdf(v)) for v in z])
        # measured: 1.9e-13, at z = -34.8, where exp(z^2 / 2) nears overflow;
        # scipy.special.erfcx gives the same error there
        assert _rel_err(_mills(z), ref) < 3e-13
        x = z * math.sqrt(0.5)
        # measured: 7.1e-16
        assert_allclose(_erfcx(x), special.erfcx(x), rtol=2e-15)

    def test_vuong_p_against_ndtr(self):
        # d = (m + 1, m - 1) gives z = sqrt(2) m
        for m in np.linspace(-26.0, 26.0, 521):
            _, z, p = _vuong(np.array([m + 1.0, m - 1.0]), np.ones(2))
            # measured: 5.4e-14, from the rounding of z / sqrt(2)
            assert p == pytest.approx(2.0 * special.ndtr(-abs(z)), rel=1e-13,
                                      abs=0.0)

    def test_chi2_1_sf_against_chdtrc(self):
        x = np.concatenate([np.linspace(0.0, 1400.0, 2801), np.logspace(-12, 3, 301)])
        got = np.array([_chi2_1_sf(v) for v in x])
        # measured: 1.9e-13, at x = 1167, from the rounding of sqrt(x / 2)
        assert_allclose(got, special.chdtrc(1, x), rtol=5e-13)


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
        assert_allclose(_cutoff_moments(alpha, rate, q)[0],
                        _lerch_log_z(alpha, rate, q), rtol=1e-13)

    def test_gauss_legendre_table_is_leggauss(self):
        # the module keeps a literal table, so that it never loads
        # numpy.polynomial
        nodes, weights = np.polynomial.legendre.leggauss(20)
        assert _GL_NODES.tobytes() == nodes.tobytes()
        assert _GL_WEIGHTS.tobytes() == weights.tobytes()


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

    # a tail of one distinct value fits no family
    @pytest.mark.parametrize("family", ["lognormal", "powerlaw_cutoff"])
    def test_degenerate_tail_rejected_by_every_family(self, family):
        s = CitationSample(np.array([1, 7, 7, 7]), label="flat")
        with pytest.raises(ValueError, match="degenerate tail"):
            fit_alternative(s, 7, family)


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

    def test_nests_at_fit_alpha(self):
        # where the cutoff's rate is 0, its fit is powerlaw's, bit for bit
        nested = 0
        for seed in range(40):
            s = sample_power_law(DiscretePowerLaw(3, 2.6), 3000, seed)
            fit = fit_alternative(s, 3, "powerlaw_cutoff")
            if fit.params[1] == 0.0:
                nested += 1
                assert (fit.params[0], fit.log_likelihood) == fit_alpha(s, 3)
        assert nested > 0

    @pytest.mark.parametrize("fallback", ["no-start", "newton-fails",
                                          "below-anchor"])
    def test_failed_search_returns_nested_fit(self, monkeypatch, fallback):
        # alpha <= 2 has no finite mean, so the rate score cannot return the
        # nested fit before the search; unpatched, this fit has rate > 0
        s = sample_power_law(DiscretePowerLaw(1, 1.5), 5000, seed=3)
        alpha_pl, ll_pl = fit_alpha(s, 1)
        assert alpha_pl <= 2.0
        assert fit_alternative(s, 1, "powerlaw_cutoff").params[1] > 0.0

        def fail(*args):
            raise RuntimeError("no convergence")

        if fallback == "no-start":
            monkeypatch.setattr(altmodels_module, "_line_search",
                                lambda *args: None)
        elif fallback == "newton-fails":
            monkeypatch.setattr(altmodels_module, "_newton", fail)
        else:
            monkeypatch.setattr(altmodels_module, "_newton",
                                lambda model, start, lo, hi:
                                (start, ll_pl - 1.0))
        assert fit_alternative(s, 1, "powerlaw_cutoff") == AltFit(
            "powerlaw_cutoff", (alpha_pl, 0.0), 1, ll_pl)
        pl = fit_power_law(s, x_min=1, bootstrap_reps=0)
        [cutoff] = compare_models(s, pl, ("powerlaw_cutoff",))
        assert cutoff.lr == 0.0

    def test_pmf_sums_to_one(self):
        alpha, rate, q = 2.0, 0.05, 3
        lz = _cutoff_moments(alpha, rate, q)[0]
        xs = np.arange(q, 2000, dtype=float)
        pmf = np.exp(-alpha * np.log(xs) - rate * xs - lz)
        assert_allclose(pmf.sum(), 1.0, rtol=1e-13)


def _mp_score_and_hessian(ll, point):
    """Score and Hessian of ll at point, by mpmath.diff."""
    p = tuple(mpmath.mpf(v) for v in point)
    with mpmath.workdps(12):
        g = [mpmath.diff(ll, p, order) for order in ((1, 0), (0, 1))]
        h = [mpmath.diff(ll, p, order) for order in ((2, 0), (1, 1), (0, 2))]
    return (np.array(g, dtype=float),
            np.array([[h[0], h[1]], [h[1], h[2]]], dtype=float))


def _mp_lognormal_ll(values, counts, q):
    half = mpmath.mpf(0.5)

    def sf(z):
        return mpmath.erfc(z / mpmath.sqrt(2)) / 2

    def ll(mu, var):
        sigma = mpmath.sqrt(var)
        total = -int(counts.sum()) * mpmath.log(
            sf((mpmath.log(q - half) - mu) / sigma))
        for x, k in zip(values.tolist(), counts.tolist()):
            a = (mpmath.log(x - half) - mu) / sigma
            b = (mpmath.log(x + half) - mu) / sigma
            # each cell's mass from its own side of the mode
            mass = sf(a) - sf(b) if b > 0 else sf(-b) - sf(-a)
            total += int(k) * mpmath.log(mass)
        return total
    return ll


def _mp_cutoff_ll(values, counts, q):
    def ll(alpha, rate):
        # Z = Li_alpha(e^-rate) less the terms below q
        z = mpmath.polylog(alpha, mpmath.exp(-rate)) - mpmath.fsum(
            mpmath.mpf(k) ** -alpha * mpmath.exp(-rate * k) for k in range(1, q))
        return (-alpha * log_sum - rate * lin_sum
                - int(counts.sum()) * mpmath.log(z))
    log_sum = mpmath.fsum(int(k) * mpmath.log(int(x))
                          for x, k in zip(values.tolist(), counts.tolist()))
    lin_sum = int(np.sum(counts * values))
    return ll


@pytest.fixture(scope="module")
def narrow_sample():
    """Lognormal draws so concentrated (sigma = 0.01) that every cell lies
    within a few dozen standard deviations of the mode at sigma = 2e-3."""
    return sample_alternative(AltFit("lognormal", (3.0, 0.01), 1, 0.0), 500,
                              seed=5)


class TestDerivatives:
    """The analytic score and Hessian against mpmath.diff of the mpmath
    log-likelihood, at points spread over each family's box."""

    @pytest.mark.parametrize("name,q,point", [
        ("pl_tail_sample", 11, (-140.0, 9.8)),     # the far ridge of the fit
        ("pl_tail_sample", 11, (1.0, 2.0)),
        ("pl_tail_sample", 11, (2.0, 99.5)),        # sigma near its top
        ("pl_tail_sample", 11, ("top", 60.0)),      # mu near its top
        ("narrow_sample", 1, ("bottom", 30.0)),     # mu near its bottom
        ("narrow_sample", 1, (3.0, 2e-3)),          # sigma near its bottom
    ])
    def test_lognormal(self, name, q, point, request):
        values, counts = np.array(
            _distinct(request.getfixturevalue(name), q), dtype=float)
        # the fit's box is mu0 - 200 <= mu <= mu0 + 50, mu0 the mean log x
        mu0 = float(np.sum(counts * np.log(values)) / counts.sum())
        mu = {"top": mu0 + 49.5, "bottom": mu0 - 199.5}.get(point[0], point[0])
        # the model's coordinates are (mu, sigma^2)
        ll, score, hess = _lognormal_model(values, counts, q)(
            np.array([mu, point[1] ** 2]))
        g, h = _mp_score_and_hessian(_mp_lognormal_ll(values, counts, q),
                                     (mu, point[1] ** 2))
        assert_allclose(score, g, rtol=1e-8)
        assert_allclose(hess, h, rtol=1e-8)

    @pytest.mark.parametrize("name,q,point", [
        ("pl_tail_sample", 11, (2.4, 2e-5)),
        ("pl_tail_sample", 11, (-4.9, 0.3)),        # alpha near its bottom
        ("heavy_sample", 1, (1.5, 1e-8)),           # rate near 0
        ("heavy_sample", 1, (0.5, 9.9)),            # rate near its top
        ("pl_sample", 1, (2.0, 0.5)),
        ("pl_sample", 1, (29.5, 1e-3)),             # alpha near its top
    ])
    def test_cutoff(self, name, q, point, request):
        values, counts = np.array(
            _distinct(request.getfixturevalue(name), q), dtype=float)
        ll, score, hess = _cutoff_model(values, counts, q)(np.array(point))
        g, h = _mp_score_and_hessian(_mp_cutoff_ll(values, counts, q), point)
        assert_allclose(score, g, rtol=1e-8)
        assert_allclose(hess, h, rtol=1e-8)


# (x_min, lognormal ll, cutoff ll) of the coordinate-descent fits that the
# Newton fits replaced, at each fixture's fitted x_min
_DESCENT_LL = {
    "pl_sample": (1, -23418.687846155706, -23411.574964369756),
    "pl_tail_sample": (11, -24737.65562126773, -24737.691784096893),
    "heavy_sample": (1, -15980.846036631378, -15977.749039291797),
}


class TestOptimum:
    @pytest.mark.parametrize("name", sorted(_DESCENT_LL))
    def test_no_worse_than_coordinate_descent(self, name, request):
        sample = request.getfixturevalue(name)
        x_min, ll_lognormal, ll_cutoff = _DESCENT_LL[name]
        for family, pin in (("lognormal", ll_lognormal),
                            ("powerlaw_cutoff", ll_cutoff)):
            fit = fit_alternative(sample, x_min, family)
            assert fit.log_likelihood >= pin - 1e-9 * abs(pin), family

    def test_heavy_cutoff_above_coordinate_descent(self, heavy_sample):
        # the descent stopped early here
        fit = fit_alternative(heavy_sample, 1, "powerlaw_cutoff")
        assert fit.log_likelihood >= _DESCENT_LL["heavy_sample"][2] + 4e-3

    @pytest.mark.parametrize("name", sorted(_DESCENT_LL))
    def test_score_vanishes_off_the_box_edges(self, name, request):
        sample = request.getfixturevalue(name)
        x_min = _DESCENT_LL[name][0]
        values, counts = np.array(_distinct(sample, x_min),
                                  dtype=float)
        n = counts.sum()
        mu0 = float(np.sum(counts * np.log(values)) / n)
        for family, model, lo, hi in (
                ("lognormal", _lognormal_model(values, counts, x_min),
                 (mu0 - 200.0, 1e-6), (mu0 + 50.0, 1e4)),
                ("powerlaw_cutoff", _cutoff_model(values, counts, x_min),
                 (-5.0, 0.0), (30.0, 10.0))):
            params = np.array(fit_alternative(sample, x_min, family).params)
            if family == "lognormal":
                params[1] **= 2.0  # the model's coordinates are (mu, sigma^2)
            # every cutoff optimum here has rate > 0, where the model is defined
            assert params[-1] > 0.0
            _, score, _ = model(params)
            free = (params > lo) & (params < hi)
            assert np.all(np.abs(score[free]) <= 1e-6 * n), (family, score)


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

    def test_statistics_are_python_floats(self, heavy_sample):
        # documents and tables print them with repr
        pl = fit_power_law(heavy_sample, bootstrap_reps=0)
        for r in compare_models(heavy_sample, pl):
            assert all(type(v) is float for v in (r.lr, r.p)), r
            assert r.z is None or type(r.z) is float, r

    def test_empty_tail_rejected(self, tiny_sample):
        pl = PowerLawFit(x_min=10**9, alpha=2.5, n_tail=0, ks=0.0,
                         alpha_sd=0.0, x_min_sd=0.0, log_likelihood=0.0)
        with pytest.raises(ValueError, match="empty tail"):
            compare_models(tiny_sample, pl)

    def test_unknown_family_rejected(self, pl_tail_sample):
        with pytest.raises(ValueError, match="unknown family"):
            fit_alternative(pl_tail_sample, 10, "weibull")
        pl = fit_power_law(pl_tail_sample, x_min=10, bootstrap_reps=0)
        with pytest.raises(ValueError, match="^unknown family: 'weibull'$"):
            compare_models(pl_tail_sample, pl, ("lognormal", "weibull"))

    def test_repeated_family_rejected(self, pl_tail_sample):
        # two identical rows would read as two independent tests
        pl = fit_power_law(pl_tail_sample, x_min=10, bootstrap_reps=0)
        with pytest.raises(ValueError,
                           match="^repeated family: exponential, lognormal$"):
            compare_models(pl_tail_sample, pl, ("lognormal", "exponential",
                                                "lognormal", "exponential"))


class TestSampleAlternative:
    def test_deterministic(self):
        fit = AltFit("powerlaw_cutoff", (2.0, 0.1), 1, 0.0)
        a = sample_alternative(fit, 500, seed=3)
        # the label names the seed as used: 3.0 once gave "seed=3.0)"
        for seed in (3, 3.0, np.int64(3)):
            b = sample_alternative(fit, 500, seed=seed)
            assert np.array_equal(a.counts, b.counts)
            assert b.label == a.label

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
        # truncated, n 2.5 drew 2 variates and seed 2.5 ran as seed 2
        for n in (2.5, True):
            with pytest.raises(ValueError,
                               match="^n must be a positive integer$"):
                sample_alternative(AltFit("exponential", (0.5,), 1, 0.0),
                                   n, 1)
        for seed in (2.5, True):
            with pytest.raises(ValueError,
                               match="^seed must be a nonnegative integer$"):
                sample_alternative(AltFit("exponential", (0.5,), 1, 0.0),
                                   5, seed)
        with pytest.raises(ValueError, match="rate must be positive"):
            sample_alternative(AltFit("exponential", (0.0,), 1, 0.0), 5, 1)
        with pytest.raises(ValueError, match="sigma"):
            sample_alternative(AltFit("lognormal", (1.0, 0.0), 1, 0.0), 5, 1)
        with pytest.raises(ValueError, match="non-normalizable"):
            sample_alternative(
                AltFit("powerlaw_cutoff", (0.9, 0.0), 1, 0.0), 5, 1)
        with pytest.raises(ValueError, match="x_min must be a positive"):
            sample_alternative(AltFit("exponential", (0.5,), 0, 0.0), 5, 1)
        with pytest.raises(ValueError, match="parameters must be finite"):
            sample_alternative(
                AltFit("powerlaw_cutoff", (1.5, np.nan), 1, 0.0), 5, 1)
        # the cutoff fit's lower edge; below it the sampler slows without bound
        with pytest.raises(ValueError, match="^alpha must be at least -5$"):
            sample_alternative(
                AltFit("powerlaw_cutoff", (-5.000001, 1.0), 1, 0.0), 5, 1)

    @pytest.mark.parametrize("fit, message", [
        (AltFit("weibull", (2.0, 0.1), 1, 0.0), "unknown family: 'weibull'"),
        (AltFit("lognormal", (1.0,), 1, 0.0),
         r"lognormal takes \(mu, sigma\), got \(1.0,\)"),
        (AltFit("exponential", (0.5, 0.1), 1, 0.0),
         r"exponential takes \(rate\), got \(0.5, 0.1\)"),
        (AltFit("powerlaw_cutoff", (2.0,), 1, 0.0),
         r"powerlaw_cutoff takes \(alpha, rate\), got \(2.0,\)"),
    ], ids=["unknown", "lognormal", "exponential", "cutoff"])
    def test_rejects_unknown_family_and_wrong_arity(self, fit, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            sample_alternative(fit, 5, seed=1)
