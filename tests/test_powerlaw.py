"""Hurwitz zeta, the discrete power law, MLE, the x_min scan, and sampling."""

import hashlib
import math
import os
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import heavytails.powerlaw as powerlaw_module
from heavytails import (
    AltFit,
    CitationSample,
    DiscretePowerLaw,
    ccdf_table,
    fit_alpha,
    fit_power_law,
    hurwitz_zeta,
    ks_distance,
    sample_alternative,
    sample_power_law,
)
from heavytails.powerlaw import _ks, _mle, _replicates, _TailIndex, _zeta

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

    def test_kernel_is_elementwise(self):
        # each element's bits are the same alone as in a multi-chunk call
        rng = np.random.default_rng(3)
        s = rng.uniform(1.01, 30.0, 9000)
        q = rng.integers(1, 500, 9000).astype(np.float64)
        batch = _zeta(s, q, derivs=True)
        for i in rng.choice(9000, 60, replace=False):
            assert_array_equal(_zeta(s[i], q[i], derivs=True), batch[:, i])
        assert_array_equal(_zeta(s, q)[0], batch[0])

    def test_nonnormalizable_rejected(self):
        with pytest.raises(ValueError, match="non-normalizable"):
            hurwitz_zeta(1.0, 1)
        with pytest.raises(ValueError, match="non-normalizable"):
            hurwitz_zeta(0.3, 5)


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
    counts = np.sort(sample.counts)
    index = _TailIndex(counts[counts >= 1])
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

    def test_seed_changes_replicates(self, pl_sample):
        a = fit_power_law(pl_sample, x_min=1, bootstrap_reps=40, seed=1)
        b = fit_power_law(pl_sample, x_min=1, bootstrap_reps=40, seed=2)
        assert a.alpha == b.alpha
        assert a.alpha_sd != b.alpha_sd


def _replicate_ids(args):
    start, stop, tag = args
    return [(tag, r) for r in range(start, stop)]


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

    monkeypatch.setattr(powerlaw_module, "ProcessPoolExecutor", SerialPool)
    return sizes


class TestReplicates:
    @pytest.mark.parametrize("workers,total,cores,pool", [
        (5000, 4, 64, 4),   # never more processes than replicates
        (8, 40, 3, 3),      # nor than cores
        (2, 1, 8, None),    # one replicate runs in process
        (1, 10, 8, None),
        (3, 10, 1, None),
    ])
    def test_pool_size_is_bounded(self, monkeypatch, pool_sizes,
                                  workers, total, cores, pool):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        out = _replicates(_replicate_ids, ("t",), total, workers)
        assert out == [("t", r) for r in range(total)]
        assert pool_sizes == ([] if pool is None else [pool])

    def test_many_workers_few_replicates(self, monkeypatch, pool_sizes,
                                         pl_sample):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        serial = fit_power_law(pl_sample, x_min=1, bootstrap_reps=4, seed=2)
        wide = fit_power_law(pl_sample, x_min=1, bootstrap_reps=4, seed=2,
                             workers=5000)
        assert wide == serial
        assert pool_sizes == [4]


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
        # about 9% of these draws lie past 2**23, some past 1e13
        (lambda: sample_alternative(AltFit("lognormal", (0.0, 9.0), 3, 0.0),
                                    3000, seed=5),
         "1e64bce8ad0e21577c8635bb52b67dd226fae8e875cf5abb95733ff0498b5b37"),
        (lambda: sample_alternative(AltFit("exponential", (0.05,), 1, 0.0),
                                    3000, seed=5),
         "a1e55f92dfdd8961f0a9cd0208d732c6372be24bfa37021df26807f28ec564d4"),
        (lambda: sample_alternative(
            AltFit("powerlaw_cutoff", (1.7, 1e-3), 1, 0.0), 3000, seed=5),
         "05f81b67572d74ed7804000dbaf26c64b8428b87c11a501d6d12ee987b138a26"),
    ], ids=["powerlaw", "lognormal", "exponential", "powerlaw_cutoff"])
    def test_seeded_streams_pinned(self, draw, digest):
        assert _stream_digest(draw()) == digest

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
