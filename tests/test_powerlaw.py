"""Hurwitz zeta, the discrete power law, MLE, the x_min scan, and sampling."""

import concurrent.futures
import hashlib
import math
import os
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import heavytails.powerlaw as powerlaw_module
from heavytails import (
    AltFit,
    CitationSample,
    DiscretePowerLaw,
    ccdf_table,
    fit_alpha,
    fit_power_law,
    gof_test,
    hurwitz_zeta,
    ks_distance,
    sample_alternative,
    sample_power_law,
)
from heavytails.gof import _synthetic
from heavytails.powerlaw import (PowerLawFit, _candidates, _distinct, _ks,
                                 _mle, _replicates, _resample, _TailIndex,
                                 _zeta)

mpmath.mp.dps = 30


class TestHurwitzZeta:
    def test_riemann_anchors(self):
        assert_allclose(hurwitz_zeta(2.0, 1), math.pi**2 / 6.0, rtol=0, atol=1e-12)
        assert_allclose(hurwitz_zeta(4.0, 1), math.pi**4 / 90.0, rtol=0, atol=1e-12)

    def test_shift_identity_exhaustively(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            s = float(rng.uniform(1.05, 12.0))
            q = int(rng.integers(1, 60))
            lhs = hurwitz_zeta(s, q + 1)
            rhs = hurwitz_zeta(s, q) - float(q) ** -s
            assert_allclose(lhs, rhs, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("s,q", [(1.5, 1), (2.35, 1), (3.5, 10),
                                     (1.05, 3), (8.0, 2), (25.0, 1),
                                     (2.0, 1000)])
    def test_against_mpmath(self, s, q):
        ref = float(mpmath.zeta(s, q))
        assert_allclose(hurwitz_zeta(s, q), ref, rtol=5e-14)

    @pytest.mark.parametrize("s,q", [(1.5, 1), (2.35, 1), (3.5, 10),
                                     (1.05, 3), (8.0, 2), (25.0, 1),
                                     (2.0, 1000)])
    def test_derivatives_against_mpmath(self, s, q):
        got = _zeta(s, q, derivs=True)
        for d in (1, 2):
            ref = float(mpmath.zeta(s, q, d))
            assert_allclose(got[d], ref, rtol=1e-12)

    def test_every_near_q_against_mpmath(self):
        # q = 1 .. 70: direct sums of 63 down to 1 powers, then the
        # Euler-Maclaurin rest alone from q = 64 on
        s = np.array([1.001, 1.1, 2.5, 8.0, 16.0, 30.0])
        q = np.arange(1, 71)
        got = _zeta(s[:, None], q, derivs=True)
        with mpmath.workdps(50):
            ref = [[[float(mpmath.zeta(x, int(k), d)) for k in q] for x in s]
                   for d in range(3)]
        assert_allclose(got, ref, rtol=1e-13, atol=0)

    def test_kernel_is_elementwise(self):
        # each element's bits are the same alone as in a multi-chunk call
        rng = np.random.default_rng(3)
        s = rng.uniform(1.01, 30.0, 9000)
        q = rng.integers(1, 500, 9000).astype(np.float64)
        batch = _zeta(s, q, derivs=True)
        for i in rng.choice(9000, 60, replace=False):
            assert_array_equal(_zeta(s[i], q[i], derivs=True), batch[:, i])
        assert_array_equal(_zeta(s, q)[0], batch[0])

    def test_huge_exponent_drops_the_remainder(self):
        # (q + 64)**(1 - s) underflows, and the Euler-Maclaurin rest with
        # it; its Horner factors would overflow, and 0 * inf once gave NaN
        assert hurwitz_zeta(1e300, 1) == 1.0
        assert hurwitz_zeta(1e300, 3) == 0.0
        got = _zeta([1e300, 1e300, 1e5], [1.0, 70.0, 1.0], derivs=True)
        assert_array_equal(got, [[1.0, 0.0, 1.0], [0.0, 0.0, 0.0],
                                 [0.0, 0.0, 0.0]])

    def test_nonnormalizable_rejected(self):
        with pytest.raises(ValueError, match="non-normalizable"):
            hurwitz_zeta(1.0, 1)
        with pytest.raises(ValueError, match="non-normalizable"):
            hurwitz_zeta(0.3, 5)

    @pytest.mark.parametrize("q", [0, -2])
    def test_nonpositive_q_rejected(self, q):
        with pytest.raises(ValueError, match="q must be a positive integer"):
            hurwitz_zeta(2.0, q)

    @pytest.mark.parametrize("q", [2.5, True])
    def test_non_whole_q_rejected(self, q):
        # truncated, 2.5 would give zeta(2, 2); True would read as 1
        with pytest.raises(ValueError, match="q must be a positive integer"):
            hurwitz_zeta(2.0, q)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_nonfinite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            hurwitz_zeta(alpha, 1)
        with pytest.raises(ValueError, match="alpha must be finite"):
            DiscretePowerLaw(1, alpha)


class TestDiscretePowerLaw:
    def test_pmf_matches_direct_ratio(self):
        m = DiscretePowerLaw(3, 2.5)
        xs = np.arange(3, 50)
        expect = xs**-2.5 / hurwitz_zeta(2.5, 3)
        assert_allclose(m.pmf(xs), expect, rtol=1e-13)

    def test_ccdf_anchors(self):
        m = DiscretePowerLaw(2, 2.2)
        assert m.ccdf(2) == 1.0
        assert m.cdf(2) == pytest.approx(m.pmf(2), abs=1e-14)

    def test_cdf_ccdf_complementary(self):
        m = DiscretePowerLaw(1, 2.8)
        for x in (1, 2, 7, 40):
            assert_allclose(m.cdf(x) + m.ccdf(x + 1), 1.0, atol=1e-13)

    @given(st.floats(min_value=1.2, max_value=6.0),
           st.integers(min_value=1, max_value=30))
    @settings(max_examples=40, deadline=None)
    def test_pmf_mass_is_one(self, alpha, x_min):
        m = DiscretePowerLaw(x_min, alpha)
        xs = np.arange(x_min, x_min + 2000)
        mass = float(np.sum(m.pmf(xs))) + float(m.ccdf(x_min + 2000))
        assert_allclose(mass, 1.0, atol=1e-11)

    def test_values_below_support(self):
        m = DiscretePowerLaw(5, 2.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert m.ccdf(1) == 1.0
            assert m.cdf(2) == 0.0
            assert m.cdf(4) == 0.0
            assert m.pmf(0) == 0.0
            assert m.pmf(-3) == 0.0
            assert m.logpmf(0) == -np.inf

    @given(st.floats(min_value=1.05, max_value=12.0),
           st.integers(min_value=1, max_value=1000),
           st.lists(st.integers(min_value=-2**62, max_value=2**62),
                    min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_in_range_and_monotone_at_any_integer(self, alpha, x_min, xs):
        m = DiscretePowerLaw(x_min, alpha)
        # neighbors of each point and of the support's edge
        xs = np.array(sorted(set(xs) | {x + 1 for x in xs}
                             | {x_min - 1, x_min, x_min + 1}), dtype=np.float64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ccdf, cdf, pmf = m.ccdf(xs), m.cdf(xs), m.pmf(xs)
        for values in (ccdf, cdf, pmf):
            assert np.all((values >= 0.0) & (values <= 1.0))
        assert np.all(np.diff(ccdf) <= 0.0)
        assert np.all(np.diff(cdf) >= 0.0)

    def test_off_the_integers(self):
        m = DiscretePowerLaw(1, 2.5)
        assert m.pmf(2.5) == 0.0 and m.logpmf(2.5) == -np.inf
        assert m.ccdf(2.5) == m.ccdf(3) and m.cdf(2.5) == m.cdf(2)
        # both sides of the support's edge and of q = 64
        m = DiscretePowerLaw(3, 1.7)
        xs = np.linspace(-2.0, 80.0, 411)
        assert_array_equal(m.ccdf(xs), m.ccdf(np.ceil(xs)))
        assert_array_equal(m.cdf(xs), m.cdf(np.floor(xs)))
        off = np.floor(xs) != xs
        assert np.all(m.pmf(xs[off]) == 0.0)
        assert np.all(m.logpmf(xs[off]) == -np.inf)
        assert_array_equal(m.pmf(xs[~off]), m.pmf(np.rint(xs[~off])))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DiscretePowerLaw(0, 2.5)
        with pytest.raises(ValueError):
            DiscretePowerLaw(1, 1.0)


class TestFitAlpha:
    def test_fixed_xmin_recovery(self, pl_sample):
        alpha, ll = fit_alpha(pl_sample, 1)
        assert abs(alpha - 2.35) < 0.03
        assert ll < 0.0

    def test_local_optimality(self, tiny_sample):
        alpha, _ = fit_alpha(tiny_sample, 2)
        tail = tiny_sample.tail(2).astype(np.float64)

        def ll(a):
            return -a * np.sum(np.log(tail)) \
                - tail.size * np.log(hurwitz_zeta(a, 2))

        assert ll(alpha) >= ll(alpha - 1e-4)
        assert ll(alpha) >= ll(alpha + 1e-4)

    def test_clauset_form_agrees_at_high_xmin(self, pl_tail_sample):
        # the closed-form approximation is only trusted as a starting
        # point, and only once x_min is a few times the half-unit shift
        tail = pl_tail_sample.tail(10).astype(np.float64)
        approx = 1.0 + tail.size / float(np.sum(np.log(tail / 9.5)))
        alpha, _ = fit_alpha(pl_tail_sample, 10)
        assert abs(alpha - approx) < 0.02

    def test_agrees_with_pinned_fit(self, pl_tail_sample):
        for q in (10, 13):
            fit = fit_power_law(pl_tail_sample, x_min=q, bootstrap_reps=0)
            assert fit_alpha(pl_tail_sample, q) == (fit.alpha,
                                                    fit.log_likelihood)

    def test_empty_tail_rejected(self, tiny_sample):
        with pytest.raises(ValueError, match="empty tail"):
            fit_alpha(tiny_sample, 1000)

    def test_degenerate_tail_rejected(self):
        s = CitationSample(np.array([7, 7, 7, 7]), label="flat")
        with pytest.raises(ValueError, match="degenerate tail"):
            fit_alpha(s, 7)


class TestKsDistance:
    def test_hand_computed_fixture(self):
        s = CitationSample(np.array([1, 1, 2, 4]), label="s")
        m = DiscretePowerLaw(1, 2.0)
        z = hurwitz_zeta(2.0, 1)
        # empirical CDF at the observed values 1, 2, 4 is 1/2, 3/4, 1;
        # the model CDF there is 1 - zeta(2, x + 1) / zeta(2, 1)
        model = 1.0 - np.array([hurwitz_zeta(2.0, 2),
                                hurwitz_zeta(2.0, 3),
                                hurwitz_zeta(2.0, 5)]) / z
        expect = np.max(np.abs(np.array([0.5, 0.75, 1.0]) - model))
        assert_allclose(ks_distance(s, m), expect, rtol=1e-13)

    def test_zero_on_ideal_tail(self):
        # sample whose empirical CCDF is met exactly is unconstructible for
        # a power law; instead check the distance is small on its own draws
        m = DiscretePowerLaw(1, 2.35)
        s = sample_power_law(m, 50_000, seed=9)
        assert ks_distance(s, m) < 0.01


def _scan_candidates(sample):
    """Tail index, candidate positions and x_min values of the scan."""
    index = _TailIndex(*_distinct(sample, 1))
    m = index.values.size
    starts = np.nonzero((index.suffix_n >= 50) & (np.arange(m) <= m - 2))[0]
    return index, starts, index.values[starts]


class TestScan:
    def test_recovers_planted_xmin(self):
        rng = np.random.default_rng(11)
        noise = rng.integers(1, 10, size=12_000)
        tail = sample_power_law(DiscretePowerLaw(10, 2.5), 8_000, seed=11)
        s = CitationSample(np.concatenate([noise, tail.counts]), label="mix")
        fit = fit_power_law(s, bootstrap_reps=0)
        assert 5 <= fit.x_min <= 20
        assert abs(fit.alpha - 2.5) < 0.15

    def test_scan_beats_every_candidate(self, pl_sample):
        fit = fit_power_law(pl_sample, bootstrap_reps=0)
        for cand in (1, 2, 3, 5):
            other = fit_power_law(pl_sample, x_min=cand, bootstrap_reps=0)
            assert fit.ks <= other.ks + 1e-12

    def test_candidates_solved_together_equal_solved_alone(self,
                                                          pl_tail_sample):
        index, starts, q = _scan_candidates(pl_tail_sample)
        alpha, ll, z = _mle(index.suffix_logsum[starts],
                            index.suffix_n[starts], q)
        ks = _ks(index, starts, alpha, z)
        assert starts.size > 150
        for c, x_min in enumerate(q):
            alone = fit_power_law(pl_tail_sample, x_min=int(x_min),
                                  bootstrap_reps=0)
            assert (alone.alpha, alone.ks, alone.log_likelihood) == (
                alpha[c], ks[c], ll[c]), f"x_min={x_min}"

    @pytest.mark.parametrize("fixture", ["pl_sample", "pl_tail_sample",
                                         "heavy_sample"])
    def test_alpha_is_a_root_of_the_score(self, fixture, request):
        index, starts, q = _scan_candidates(request.getfixturevalue(fixture))
        log_sum, n = index.suffix_logsum[starts], index.suffix_n[starts]
        alpha, _, _ = _mle(log_sum, n, q)
        # no candidate is clamped at the bracket's upper end, 512
        assert np.all(alpha < 512.0)
        z, dz, _ = _zeta(alpha, q, derivs=True)
        assert np.max(np.abs(log_sum / n + dz / z)) <= 1e-12

    def test_alpha_capped_where_zeta_stays_normal(self):
        # 60 of 61 values at 150 put the score root near alpha = 620, where
        # 150**-alpha is no longer a normal float
        s = CitationSample(np.array([150] * 60 + [151]), label="flat")
        fit = fit_power_law(s, bootstrap_reps=0)
        z, dz, _ = _zeta(fit.alpha, fit.x_min, derivs=True)
        assert z >= np.finfo(np.float64).tiny
        score = math.log(150 ** 60 * 151) / 61 + dz / z
        cap = min(512.0, 1022 * math.log(2) / math.log(fit.x_min))
        assert abs(score) <= 1e-12 or fit.alpha == pytest.approx(cap,
                                                                 rel=1e-15)
        assert math.isfinite(fit.ks) and math.isfinite(fit.log_likelihood)

    def test_min_tail_respected(self, pl_sample):
        fit = fit_power_law(pl_sample, min_tail=500, bootstrap_reps=0)
        assert fit.n_tail >= 500

    def test_insufficient_tail_rejected(self):
        s = CitationSample(np.array([1, 2, 3]), label="small")
        with pytest.raises(ValueError, match="insufficient tail"):
            fit_power_law(s, bootstrap_reps=0)

    @pytest.mark.parametrize("x_min", [0, -3])
    def test_nonpositive_pinned_xmin_rejected(self, pl_sample, x_min):
        with pytest.raises(ValueError, match="x_min must be a positive"):
            fit_power_law(pl_sample, x_min=x_min, bootstrap_reps=4)

    @pytest.mark.parametrize("pin", [
        lambda s: fit_power_law(s, x_min=2.7, bootstrap_reps=0),
        lambda s: fit_alpha(s, 2.7),
        lambda s: DiscretePowerLaw(2.7, 2.5),
        lambda s: DiscretePowerLaw(True, 2.5),
    ], ids=["fit_power_law", "fit_alpha", "model", "model-bool"])
    def test_non_whole_xmin_rejected(self, pin):
        # truncated, x_min 2.7 would slice the tail at 3 but normalize the
        # model at 2
        s = sample_power_law(DiscretePowerLaw(1, 2.5), 5000, seed=1)
        with pytest.raises(ValueError,
                           match="^x_min must be a positive integer$"):
            pin(s)

    @pytest.mark.parametrize("x_min", [3.0, np.int64(3)],
                             ids=["float", "int64"])
    def test_whole_xmin_accepted(self, x_min):
        s = sample_power_law(DiscretePowerLaw(1, 2.5), 5000, seed=1)
        fit = fit_power_law(s, x_min=x_min, bootstrap_reps=0)
        assert fit == fit_power_law(s, x_min=3, bootstrap_reps=0)
        assert type(fit.x_min) is int
        assert fit_alpha(s, x_min) == (fit.alpha, fit.log_likelihood)
        assert DiscretePowerLaw(x_min, 2.5) == DiscretePowerLaw(3, 2.5)


_UNIT = DiscretePowerLaw(1, 2.5)


class TestWholeArguments:
    # truncated, n 2.5 drew 2 variates, seed 2.5 ran on seed 2's stream,
    # min_tail 50.7 acted as 50 and bootstrap_reps 2.5 ran 2 replicates; a
    # negative min_tail or bootstrap_reps acted as 2 or 0
    @pytest.mark.parametrize("call, name, kind", [
        (lambda s: sample_power_law(_UNIT, 2.5, seed=1), "n", "positive"),
        (lambda s: sample_power_law(_UNIT, True, seed=1), "n", "positive"),
        (lambda s: sample_power_law(_UNIT, 50, seed=2.5), "seed",
         "nonnegative"),
        (lambda s: sample_power_law(_UNIT, 50, seed=True), "seed",
         "nonnegative"),
        (lambda s: fit_power_law(s, bootstrap_reps=2, seed=2.5), "seed",
         "nonnegative"),
        (lambda s: fit_power_law(s, bootstrap_reps=2, seed=True), "seed",
         "nonnegative"),
        (lambda s: fit_power_law(s, min_tail=50.7, bootstrap_reps=0),
         "min_tail", "nonnegative"),
        (lambda s: fit_power_law(s, min_tail=-1, bootstrap_reps=0),
         "min_tail", "nonnegative"),
        (lambda s: fit_power_law(s, bootstrap_reps=2.5), "bootstrap_reps",
         "nonnegative"),
        (lambda s: fit_power_law(s, bootstrap_reps=True), "bootstrap_reps",
         "nonnegative"),
        (lambda s: fit_power_law(s, bootstrap_reps=-1), "bootstrap_reps",
         "nonnegative"),
        # under 64 replicates these ran in process, and from 320 on 2.5
        # raised a TypeError while the replicates were split among workers
        (lambda s: fit_power_law(s, bootstrap_reps=320, workers=0),
         "workers", "positive"),
        (lambda s: fit_power_law(s, bootstrap_reps=320, workers=-3),
         "workers", "positive"),
        (lambda s: fit_power_law(s, bootstrap_reps=320, workers=True),
         "workers", "positive"),
        (lambda s: fit_power_law(s, bootstrap_reps=320, workers=2.5),
         "workers", "positive"),
    ], ids=["n-fraction", "n-bool", "seed-fraction", "seed-bool",
            "bootstrap-seed-fraction", "bootstrap-seed-bool",
            "min_tail-fraction", "min_tail-negative", "reps-fraction",
            "reps-bool", "reps-negative", "workers-zero", "workers-negative",
            "workers-bool", "workers-fraction"])
    def test_non_whole_rejected(self, call, name, kind):
        s = sample_power_law(_UNIT, 2000, seed=1)
        with pytest.raises(ValueError,
                           match=f"^{name} must be a {kind} integer$"):
            call(s)

    def test_whole_values_accepted(self):
        b = sample_power_law(_UNIT, 5, seed=3)
        # the label names the seed as used: 3.0 once gave "seed=3.0)"
        for a in (sample_power_law(_UNIT, 5.0, seed=np.int64(3)),
                  sample_power_law(_UNIT, 5, seed=3.0)):
            assert_array_equal(a.counts, b.counts)
            assert a.label == b.label
        s = sample_power_law(_UNIT, 2000, seed=1)
        assert fit_power_law(s, min_tail=50.0, bootstrap_reps=2.0,
                             seed=np.int64(3), workers=np.int64(2)) == \
            fit_power_law(s, min_tail=50, bootstrap_reps=2, seed=3)


def _exhaustive_fit(digest, min_tail=50):
    """The scan's reference: every candidate's full KS, then np.argmin."""
    values, counts = digest
    keep = (values >= 1) & (counts > 0)
    index = _TailIndex(values[keep], counts[keep])
    m = index.values.size
    starts = np.nonzero((index.suffix_n >= max(min_tail, 2))
                        & (np.arange(m) < m - 1))[0]
    if starts.size == 0:
        return None
    q, n = index.values[starts], index.suffix_n[starts]
    alpha, ll, z = _mle(index.suffix_logsum[starts], n, q)
    # looked up on the module, so that a test can replace the kernel
    ks = powerlaw_module._ks(index, starts, alpha, z)
    b = int(np.argmin(ks))
    return PowerLawFit(int(q[b]), float(alpha[b]), int(n[b]), float(ks[b]),
                       0.0, 0.0, float(ll[b]))


@pytest.fixture()
def span_solves(monkeypatch):
    """Record the samples and fits of every span solve of the replicates."""
    solves = []
    real = powerlaw_module._fit_each

    def recording(draw, replicates, min_tail, x_min):
        samples = [draw(r) for r in replicates]
        fits = real(samples.__getitem__, range(len(samples)), min_tail, x_min)
        solves.append((samples, min_tail, fits))
        return fits

    monkeypatch.setattr(powerlaw_module, "_fit_each", recording)
    return solves


# (x_min, alpha, n) of the benchmark's two GoF workloads and of c05's draws
SHAPES = {"tail_gof": (10, 2.5, 8000), "heavy_gof": (1, 1.5, 5000),
          "c05": (1, 2.5, 2000)}


class TestPrunedScan:
    """The pruned, span-solved scan against the exhaustive one, bit for bit."""

    def test_probe_bounds_the_ks_in_a_joined_index(self):
        indexes = [_TailIndex(*_distinct(sample_power_law(
            DiscretePowerLaw(x_min, alpha), n, seed=3), 1))
            for x_min, alpha, n in SHAPES.values()]
        alone = []
        for index in indexes:
            # every tail of at least two values
            starts = np.arange(index.values.size - 1)
            alpha, _, z = _mle(index.suffix_logsum[starts],
                               index.suffix_n[starts], index.values[starts])
            alone.append([_ks(index, starts, alpha, z, probe=True),
                          _ks(index, starts, alpha, z), alpha, z, starts])
        joined = _TailIndex.join(indexes)
        shift = np.cumsum([0] + [ix.values.size for ix in indexes[:-1]])
        starts = np.concatenate([a[4] + s for a, s in zip(alone, shift)])
        alpha, z = (np.concatenate([a[k] for a in alone]) for k in (2, 3))
        bound = _ks(joined, starts, alpha, z, probe=True)
        full = _ks(joined, starts, alpha, z)
        assert_array_equal(bound, np.concatenate([a[0] for a in alone]))
        assert_array_equal(full, np.concatenate([a[1] for a in alone]))
        assert np.all(bound <= full)
        short = joined.end[starts] - starts <= 2 * powerlaw_module._PROBE
        assert_array_equal(bound[short], full[short])
        assert np.sum(short) > 30 and np.sum(bound[~short] < full[~short]) > 30

    @pytest.mark.parametrize("span_values", [None, 1 << 10])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_replicates_match_exhaustive(self, monkeypatch, span_solves,
                                         shape, span_values):
        if span_values is not None:
            # several solves per span
            monkeypatch.setattr(powerlaw_module, "_SPAN_VALUES", span_values)
        x_min, alpha, n = SHAPES[shape]
        sample = sample_power_law(DiscretePowerLaw(x_min, alpha), n, seed=17)
        fit = fit_power_law(sample, bootstrap_reps=20, seed=5)
        assert replace(fit, alpha_sd=0.0, x_min_sd=0.0) == _exhaustive_fit(
            _distinct(sample, 0))
        gof_test(sample, fit, n_sims=20, seed=6)
        assert [len(s) for s, _, _ in span_solves] == [20, 20]
        for samples, min_tail, fits in span_solves:
            assert fits == [_exhaustive_fit(s, min_tail) for s in samples]

    def test_replicates_without_a_tail_keep_their_place(self, span_solves,
                                                        heavy_sample):
        # with zeros in the sample, about half the replicates have fewer
        # positive values than min_tail
        counts = np.concatenate([heavy_sample.counts, np.zeros(500, int)])
        sample = CitationSample(counts, label="zeros")
        fit_power_law(sample, min_tail=5_000, bootstrap_reps=30, seed=1)
        ((samples, min_tail, fits),) = span_solves
        assert 5 < fits.count(None) < 25
        assert fits == [_exhaustive_fit(s, min_tail) for s in samples]

    def test_ties_go_to_the_first_candidate(self, monkeypatch, span_solves,
                                            pl_tail_sample):
        # KS rounded to 0.01 keeps the bound below the KS and makes ties
        real = powerlaw_module._ks
        monkeypatch.setattr(powerlaw_module, "_ks",
                            lambda *a, **k: np.round(real(*a, **k), 2))
        positive = _distinct(pl_tail_sample, 0)
        index, starts, q = _scan_candidates(pl_tail_sample)
        alpha, _, z = _mle(index.suffix_logsum[starts],
                           index.suffix_n[starts], q)
        ks = np.round(real(index, starts, alpha, z), 2)
        assert np.sum(ks == ks.min()) >= 2
        fit = fit_power_law(pl_tail_sample, bootstrap_reps=10, seed=2)
        assert fit.x_min == q[np.argmin(ks)]
        assert replace(fit, alpha_sd=0.0, x_min_sd=0.0) == _exhaustive_fit(
            positive)
        ((samples, min_tail, fits),) = span_solves
        assert fits == [_exhaustive_fit(s, min_tail) for s in samples]

    def test_two_value_tails_and_min_tail_edge(self, pl_tail_sample):
        positive = _distinct(pl_tail_sample, 0)
        best = _exhaustive_fit(positive)
        samples = [_distinct(CitationSample([3] * 30 + [4] * 20), 0), positive,
                   _distinct(CitationSample([7, 7, 9]), 0),
                   _distinct(CitationSample([5] * 9), 0)]
        second = []
        for min_tail in (2, best.n_tail, best.n_tail + 1):
            fits = powerlaw_module._fit_each(samples.__getitem__,
                                             range(len(samples)), min_tail,
                                             None)
            assert fits == [_exhaustive_fit(s, min_tail) for s in samples]
            assert fits[-1] is None
            second.append(fits[1])
        # the winner's own tail size admits it; one more rules it out
        assert second[1] == best and second[2] != best

    @pytest.mark.parametrize("fixed", [False, True])
    def test_chunks_equal_for_any_span(self, heavy_sample, fixed):
        fit = fit_power_law(heavy_sample, bootstrap_reps=0)
        values, mult = _distinct(heavy_sample, 0)
        n = len(heavy_sample)
        for draw, x_min in (
                (_gof_draw(heavy_sample, fit, 3), None),
                (partial(_resample, values, mult / n, n, 3),
                 fit.x_min if fixed else None)):
            whole = _replicates(draw, 12, 1, 50, x_min)
            alone = [x for r in range(12) for x in powerlaw_module._fit_each(
                draw, range(r, r + 1), 50, x_min)]
            assert whole == alone


class TestBestFirstScan:
    """The scan's rounds on a sample of many distinct values, and a NaN."""

    def test_full_ks_pairs_bounded_on_distinct_values(self, monkeypatch):
        pairs = []
        real = powerlaw_module._ks

        def counting(index, starts, alpha, z_q, probe=False):
            if not probe:
                pairs.append(int(np.sum(index.end[starts] - starts)))
            return real(index, starts, alpha, z_q, probe)

        monkeypatch.setattr(powerlaw_module, "_ks", counting)
        fit_power_law(CitationSample(np.arange(1, 20_001)), bootstrap_reps=0)
        # the full KS of every candidate whose bound was under the KS of the
        # one with the least bound took 26.5 million pairs here, and time
        # grew as the square of the number of distinct values
        assert sum(pairs) <= 100_000

    def test_distinct_values_match_exhaustive(self, span_solves):
        sample = CitationSample(np.arange(1, 2_001))
        fit = fit_power_law(sample, bootstrap_reps=8, seed=5)
        assert replace(fit, alpha_sd=0.0, x_min_sd=0.0) == _exhaustive_fit(
            _distinct(sample, 0))
        gof_test(sample, fit, n_sims=8, seed=6)
        assert [len(s) for s, _, _ in span_solves] == [8, 8]
        for samples, min_tail, fits in span_solves:
            assert fits == [_exhaustive_fit(s, min_tail) for s in samples]

    @pytest.mark.parametrize("c", [0, 3, 50, 150])
    def test_nan_alpha_wins_as_argmin_picks_it(self, monkeypatch, c,
                                               pl_tail_sample, heavy_sample):
        # a NaN alpha makes the candidate's bound and KS NaN; solved with a
        # second sample, which keeps its own winner
        real = powerlaw_module._mle

        def spoiled(log_sum, n, q):
            alpha, ll, z = real(log_sum, n, q)
            alpha[c] = np.nan
            return alpha, ll, z

        monkeypatch.setattr(powerlaw_module, "_mle", spoiled)
        samples = [_distinct(pl_tail_sample, 0), _distinct(heavy_sample, 0)]
        fits = powerlaw_module._fit_each(samples.__getitem__, range(2), 50,
                                         None)
        _, _, q = _scan_candidates(pl_tail_sample)
        assert fits[0].x_min == q[c]
        assert math.isnan(fits[0].alpha) and math.isnan(fits[0].ks)
        assert fits[1] == _exhaustive_fit(samples[1])


def _gof_draw(sample, fit, seed):
    """gof_test's draw of synthetic sample r, as it passes it on."""
    start = np.searchsorted(sample.values, fit.x_min)
    n = len(sample)
    body_mult = sample.multiplicities[:start]
    p = np.append(body_mult, n - body_mult.sum()) / n
    return partial(_synthetic, sample.values[:start], p, fit.x_min, fit.alpha,
                   n, seed)


def _zeta_ks(index, starts, alpha, z_q):
    """Each tail's full KS, with its model CDF from one _zeta call."""
    out = []
    for s, a, z in zip(starts, alpha, z_q):
        j = np.arange(s, index.end[s])
        n = index.suffix_n[s]
        model = 1.0 - _zeta(a, index.values[j] + 1.0)[0] / z
        out.append(np.max(np.abs((n - index.above[j]) / n - model)))
    return np.array(out)


class TestKsGroups:
    """_ks's power tables and its groups of _KS_PAIRS pairs."""

    def test_table_lookups_have_the_bits_of_zeta(self):
        rng = np.random.default_rng(8)
        # every value below 64, and values past it
        values = np.concatenate([np.arange(1, 90), [97, 150, 1000, 5 ** 20]])
        index = _TailIndex(values, rng.integers(1, 40, values.size))
        starts = np.arange(values.size - 1)
        alpha = rng.uniform(1.001, 30.0, starts.size)
        z = _zeta(alpha, values[starts])[0]
        assert_array_equal(_ks(index, starts, alpha, z),
                           _zeta_ks(index, starts, alpha, z))

    @pytest.mark.parametrize("pairs", [1, 7, 64])
    def test_group_size_changes_no_result(self, monkeypatch, pairs):
        sample = sample_power_law(DiscretePowerLaw(1, 1.7), 3000, seed=11)
        # the lead tail spans several groups of 64 pairs
        assert np.unique(sample.counts).size > 2 * 64
        runs = []
        for size in (powerlaw_module._KS_PAIRS, pairs):
            monkeypatch.setattr(powerlaw_module, "_KS_PAIRS", size)
            fit = fit_power_law(sample, bootstrap_reps=6, seed=2)
            pinned = fit_power_law(sample, x_min=2, bootstrap_reps=0)
            runs.append((fit, pinned, gof_test(sample, fit, n_sims=6, seed=3),
                         ks_distance(sample, pinned.model())))
        assert runs[0] == runs[1]

    def test_working_set_bounded_in_a_long_tail(self, monkeypatch):
        # a group holds about 16 arrays of _KS_PAIRS 8-byte elements, so
        # twice that bounds every _ks call, however long the tail
        bound = 2 * 16 * 8 * powerlaw_module._KS_PAIRS
        sample = CitationSample(np.arange(1, 50_001), label="long tail")
        assert sample.counts.size > 8 * powerlaw_module._KS_PAIRS
        real, peaks = powerlaw_module._ks, []

        def traced(*args, **kwargs):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = real(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1] - held)
            return out

        monkeypatch.setattr(powerlaw_module, "_ks", traced)
        tracemalloc.start()
        try:
            fit_power_law(sample, x_min=1, bootstrap_reps=0)
        finally:
            tracemalloc.stop()
        assert len(peaks) >= 2 and max(peaks) <= bound, peaks


def _assert_expansion_index(index, tail):
    """``index`` equals, bit for bit, the tail index built from ``tail``,
    a sorted expansion of positive values, one element per observation."""
    values, first, counts = np.unique(tail, return_index=True,
                                      return_counts=True)
    suffix_n = tail.size - first
    logsums = counts * np.log(values.astype(np.float64))
    expect = {"values": values, "suffix_n": suffix_n,
              "above": suffix_n - counts,
              "suffix_logsum": np.cumsum(logsums[::-1])[::-1],
              "rank": first, "end": np.full(values.size, values.size)}
    for name in expect:
        got = getattr(index, name)
        assert got.dtype == expect[name].dtype, name
        assert got.tobytes() == expect[name].tobytes(), name


# zeros, repeats, and values up to 2**62
_COUNT_LISTS = st.lists(st.one_of(st.integers(0, 4), st.integers(0, 1 << 62)),
                        min_size=1, max_size=50)


class TestDigest:
    @given(counts=_COUNT_LISTS, least=st.integers(1, 6))
    @example(counts=[0, 0], least=1)          # zeros only: no tail
    @example(counts=[7, 7, 7], least=1)       # a single distinct value
    @example(counts=[1 << 62, 0, 1 << 62, 3], least=4)
    @settings(max_examples=300, deadline=None)
    def test_index_from_the_digest(self, counts, least):
        sample = CitationSample(counts)
        counts = np.array(counts, dtype=np.int64)
        tail = np.sort(counts[counts >= least])
        if tail.size == 0:
            with pytest.raises(ValueError, match="empty tail"):
                _distinct(sample, least)
        else:
            _assert_expansion_index(_TailIndex(*_distinct(sample, least)),
                                    tail)

    @given(counts=_COUNT_LISTS,
           x_min=st.one_of(st.none(), st.integers(1, 6)),
           undrawn=st.lists(st.booleans(), max_size=50))
    @example(counts=[5, 5], x_min=None, undrawn=[])
    @example(counts=[0, 2, 9], x_min=3, undrawn=[False, False, True])
    @settings(max_examples=300, deadline=None)
    def test_candidates_filter_the_digest(self, counts, x_min, undrawn):
        values, mult = _distinct(CitationSample(counts), 0)
        # a value a replicate did not draw keeps multiplicity 0
        gone = (undrawn + [False] * values.size)[:values.size]
        mult = np.where(gone, 0, mult)
        expansion = np.repeat(values, mult)
        tail = expansion[expansion >= (x_min or 1)]
        if np.unique(tail).size < 2:
            reason = "insufficient tail" if x_min is None else "degenerate tail"
            with pytest.raises(ValueError, match=reason):
                _candidates(values, mult, 2, x_min)
        else:
            _assert_expansion_index(_candidates(values, mult, 2, x_min)[0],
                                    tail)


class TestBootstrap:
    def test_sds_positive_and_plausible(self, pl_sample):
        fit = fit_power_law(pl_sample, x_min=1, bootstrap_reps=60, seed=4)
        # large-sample MLE sd is near (alpha-1)/sqrt(n)
        assert 0.2 * 0.0135 / 1.414 < fit.alpha_sd < 5 * 0.0135
        assert fit.x_min_sd == 0.0

    def test_worker_count_never_changes_results(self, pl_sample):
        a = fit_power_law(pl_sample, bootstrap_reps=40, seed=2, workers=1)
        b = fit_power_law(pl_sample, bootstrap_reps=40, seed=2, workers=3)
        assert a == b

    def test_negative_seed_rejected(self, pl_sample):
        with pytest.raises(ValueError,
                           match="^seed must be a nonnegative integer$"):
            fit_power_law(pl_sample, bootstrap_reps=2, seed=-1)

    def test_seed_changes_replicates(self, pl_sample):
        a = fit_power_law(pl_sample, x_min=1, bootstrap_reps=40, seed=1)
        b = fit_power_law(pl_sample, x_min=1, bootstrap_reps=40, seed=2)
        assert a.alpha == b.alpha
        assert a.alpha_sd != b.alpha_sd


def _replicate_ids(tag, r):
    return tag, r


def _draws(draw, replicates, min_tail, x_min):
    """A stand-in span solver: each replicate's draw itself."""
    return [draw(r) for r in replicates]


@pytest.fixture()
def pool_sizes(monkeypatch):
    """Swap the process pool for an in-process one; record its sizes."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    # _replicates imports the pool class only when it starts a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes


SPAN = powerlaw_module._SPAN_MIN


class TestReplicates:
    @pytest.mark.parametrize("workers,total,cores,pool", [
        (5000, 4, 64, None),       # never more processes than replicates
        (5000, 4 * SPAN, 64, 4),   # nor than spans
        (8, 40, 3, None),
        (8, 40 * SPAN, 3, 3),      # nor than cores
        (2, 1, 8, None),           # one replicate runs in process
        (2, 2 * SPAN - 1, 8, None),  # so does a job smaller than two spans
        (2, 2 * SPAN, 8, 2),
        (1, 10, 8, None),
        (3, 10, 1, None),
        (3, 10 * SPAN, 1, None),
    ])
    def test_pool_size_is_bounded(self, monkeypatch, pool_sizes,
                                  workers, total, cores, pool):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        monkeypatch.setattr(powerlaw_module, "_fit_each", _draws)
        out = _replicates(partial(_replicate_ids, "t"), total, workers, 0,
                          None)
        assert out == [("t", r) for r in range(total)]
        assert pool_sizes == ([] if pool is None else [pool])

    def test_many_workers_few_replicates(self, monkeypatch, pool_sizes,
                                         pl_sample):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        serial = fit_power_law(pl_sample, x_min=1, bootstrap_reps=4, seed=2)
        wide = fit_power_law(pl_sample, x_min=1, bootstrap_reps=4, seed=2,
                             workers=5000)
        assert wide == serial
        assert pool_sizes == []

    def test_started_pool_equals_serial(self, heavy_sample):
        # two spans' worth of replicates on two workers start a real pool
        fit = fit_power_law(heavy_sample, bootstrap_reps=0)
        serial = gof_test(heavy_sample, fit, n_sims=2 * SPAN, seed=4)
        pooled = gof_test(heavy_sample, fit, n_sims=2 * SPAN, seed=4,
                          workers=2)
        assert pooled == serial

    def test_started_pool_scores_tailless_sims_like_serial(self,
                                                           heavy_sample):
        # with 500 zeros in the body, about half the synthetic draws have
        # fewer positive values than min_tail, and their None fits cross
        # the pool
        counts = np.concatenate([heavy_sample.counts, np.zeros(500, int)])
        sample = CitationSample(counts, label="zeros")
        fit = fit_power_law(sample, min_tail=5_000, bootstrap_reps=0)
        draw = _gof_draw(sample, fit, 4)
        assert None in _replicates(draw, 2 * SPAN, 1, 5_000, None)
        serial, pooled = (gof_test(sample, fit, n_sims=2 * SPAN, seed=4,
                                   workers=w, min_tail=5_000)
                          for w in (1, 2))
        assert pooled == serial

    @pytest.mark.parametrize("zeros,min_tail", [(0, 50), (500, 5_000)],
                             ids=["heavy", "zeros"])
    def test_started_pool_bootstraps_like_serial(self, heavy_sample, zeros,
                                                 min_tail):
        # with 500 zeros, replicates without a tail cross the pool
        counts = np.concatenate([heavy_sample.counts, np.zeros(zeros, int)])
        sample = CitationSample(counts, label="pool")
        serial, pooled = (fit_power_law(sample, min_tail=min_tail,
                                        bootstrap_reps=2 * SPAN, seed=4,
                                        workers=w) for w in (1, 2))
        assert pooled == serial
        values, mult = _distinct(sample, 0)
        draw = partial(_resample, values, mult / counts.size, counts.size, 4)
        serial, pooled = (np.array([
            (np.nan, np.nan) if fit is None else (fit.alpha, float(fit.x_min))
            for fit in _replicates(draw, 2 * SPAN, w, min_tail, None)])
            for w in (1, 2))
        assert_array_equal(pooled, serial)
        assert (np.isnan(serial[:, 0]).sum() > 0) == (zeros > 0)


def _stream_digest(sample: CitationSample) -> str:
    counts = np.ascontiguousarray(sample.counts, dtype="<i8")
    return hashlib.sha256(counts.tobytes()).hexdigest()


class TestSampling:
    def test_deterministic_per_seed(self):
        m = DiscretePowerLaw(1, 2.35)
        a = sample_power_law(m, 1000, seed=5)
        b = sample_power_law(m, 1000, seed=5)
        c = sample_power_law(m, 1000, seed=6)
        assert_array_equal(a.counts, b.counts)
        assert (a.counts != c.counts).any()

    def test_support_starts_at_xmin(self):
        m = DiscretePowerLaw(4, 2.1)
        s = sample_power_law(m, 5000, seed=1)
        assert s.counts.min() >= 4

    def test_tail_frequencies_match_pmf(self):
        m = DiscretePowerLaw(1, 2.5)
        s = sample_power_law(m, 200_000, seed=12)
        for x in (1, 2, 3, 5):
            observed = float(np.mean(s.counts == x))
            assert_allclose(observed, float(m.pmf(x)), rtol=0.05)

    def test_far_tail_inversion(self):
        # alpha near 1 puts draws far out, past 2**23; rejection-inversion
        # must still return valid ones there
        m = DiscretePowerLaw(1, 1.3)
        s = sample_power_law(m, 2000, seed=3)
        assert s.counts.min() >= 1
        assert s.counts.max() > 1 << 23

    def test_alpha_near_one_exceeds_integer_range(self):
        with pytest.raises(ValueError, match="exceeds the integer range"):
            sample_power_law(DiscretePowerLaw(1, 1.05), 300, seed=4)

    # Seeded draws must not change under refactoring.  A deliberate change
    # of a sampler's algorithm updates these digests and says so.
    @pytest.mark.parametrize("draw,digest", [
        (lambda: sample_power_law(DiscretePowerLaw(1, 1.5), 3000, seed=5),
         "b98427b62fa195565af95ee5aa96b9cb37aeee11b0f26358408ead427708bc76"),
        # about 9% of these draws lie past 2**23, one past 1e14; at c = 0.10
        # they come from the exponential envelope
        (lambda: sample_alternative(AltFit("lognormal", (0.0, 9.0), 3, 0.0),
                                    3000, seed=5),
         "d7e7f0915593acf663b58d6c69be4d3812a974b50f01c5cf1f06cf2f4576e8de"),
        (lambda: sample_alternative(AltFit("exponential", (0.05,), 1, 0.0),
                                    3000, seed=5),
         "a1e55f92dfdd8961f0a9cd0208d732c6372be24bfa37021df26807f28ec564d4"),
        (lambda: sample_alternative(
            AltFit("powerlaw_cutoff", (1.7, 1e-3), 1, 0.0), 3000, seed=5),
         "05f81b67572d74ed7804000dbaf26c64b8428b87c11a501d6d12ee987b138a26"),
    ], ids=["powerlaw", "lognormal", "exponential", "powerlaw_cutoff"])
    def test_seeded_streams_pinned(self, draw, digest):
        assert _stream_digest(draw()) == digest

    # Seeded fits must not change under refactoring either.  A deliberate
    # change of a stream updates these pins and says so.
    def test_seeded_scan_pinned(self, heavy_sample):
        fit = fit_power_law(heavy_sample, bootstrap_reps=0)
        assert (fit.x_min, fit.alpha, fit.ks) == (
            1, 1.5039143792026504, 0.004734452028348879)

    def test_seeded_gof_pinned(self, heavy_sample):
        # one multinomial over the body's distinct values and the tail per
        # simulation
        fit = fit_power_law(heavy_sample, bootstrap_reps=0)
        assert gof_test(heavy_sample, fit, n_sims=40, seed=7).n_exceeding == 36

    def test_seeded_bootstrap_pinned(self, heavy_sample):
        # one multinomial over the distinct values per replicate
        fit = fit_power_law(heavy_sample, bootstrap_reps=40, seed=3)
        assert (fit.alpha_sd, fit.x_min_sd) == (0.00789609056328207,
                                                1.3528223109958695)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            sample_power_law(DiscretePowerLaw(1, 2.0), 0, seed=0)


class TestCcdfTable:
    def test_layout_and_anchors(self, pl_sample):
        fit = fit_power_law(pl_sample, x_min=1, bootstrap_reps=0)
        rows = ccdf_table(pl_sample, fit.model())
        xs = [r[0] for r in rows]
        emp = [r[1] for r in rows]
        mod = [r[2] for r in rows]
        assert xs == sorted(set(pl_sample.counts.tolist()))
        assert emp[0] == 1.0
        assert mod[0] == 1.0
        assert all(a >= b for a, b in zip(emp, emp[1:]))
        assert all(a >= b for a, b in zip(mod, mod[1:]))
