"""Tests for the log-log scaling regression and derived indicators."""

import json
import math
import os
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import stdtr
from scipy.stats import linregress

import heavytails
from heavytails import (ScalingFit, ScalingPoint, SubfieldAggregate,
                        expected_cbp, matthew_factor, performance_indicator,
                        points_from_aggregates, read_aggregates, scaling_fit,
                        scatter_table)
from heavytails.cli import main
from heavytails.scaling import MODES, _t_two_sided

from conftest import EXPORT_HEADER, export_row


def _exact_points():
    # cbp = 3 * size^1.5 with size = 4^k keeps every value an integer
    return [ScalingPoint(f"s{k}", 4**k, 3 * 8**k) for k in range(1, 11)]


def _noisy_points(seed=14, n=40):
    rng = np.random.default_rng(seed)
    size = rng.integers(50, 100_000, size=n)
    cbp = np.maximum(1, (2.0 * size**1.1 *
                         np.exp(rng.normal(0, 0.4, size=n))).astype(int))
    return [ScalingPoint(f"s{i}", int(size[i]), int(cbp[i]))
            for i in range(n)]


class TestScalingFit:
    def test_exact_power_law_recovered(self):
        fit = scaling_fit(_exact_points())
        assert_allclose(fit.exponent, 1.5, rtol=0, atol=1e-12)
        assert_allclose(fit.k, 3.0, rtol=1e-12)
        assert fit.r2 > 1.0 - 1e-12
        assert fit.n_points == 10
        assert fit.df == 8

    def test_matches_linregress(self):
        points = _noisy_points()
        fit = scaling_fit(points)
        ref = linregress(np.log10([p.size for p in points]),
                         np.log10([p.cbp for p in points]))
        assert_allclose(fit.exponent, ref.slope, rtol=1e-12)
        assert_allclose(fit.intercept_log, ref.intercept, rtol=1e-12)
        assert_allclose(fit.r2, ref.rvalue**2, rtol=1e-12)
        assert_allclose(fit.exponent_se, ref.stderr, rtol=1e-12)
        assert_allclose(fit.t_stat, ref.slope / ref.stderr, rtol=1e-12)
        assert_allclose(fit.p_value, ref.pvalue, rtol=1e-10)

    def test_needs_three_points(self):
        with pytest.raises(ValueError, match="need at least 3 points"):
            scaling_fit(_exact_points()[:2])

    def test_needs_size_variation(self):
        points = [ScalingPoint(s, 100, c) for s, c in
                  [("a", 10), ("b", 20), ("c", 40)]]
        with pytest.raises(ValueError, match="no size variation"):
            scaling_fit(points)
        # 3 * log10(6) / 3 rounds away from log10(6): this once gave a fit
        # whose slope had a standard error of 1.4e15
        with pytest.raises(ValueError, match="no size variation"):
            scaling_fit([ScalingPoint(s, 6, c) for s, c in
                         [("a", 10), ("b", 17), ("c", 24)]])

    def test_flat_response(self):
        # constant cbp: slope exactly zero, residuals exactly zero
        points = [ScalingPoint(s, n, 100) for s, n in
                  [("a", 10), ("b", 100), ("c", 1000)]]
        fit = scaling_fit(points)
        assert fit.exponent == 0.0
        assert fit.r2 == 1.0
        assert fit.t_stat == 0.0
        assert fit.p_value == 1.0

    def test_noiseless_slope_is_infinitely_significant(self):
        # powers of ten make the base-10 logs exact, so sse is exactly 0
        points = [ScalingPoint(s, n, c) for s, n, c in
                  [("a", 10, 100), ("b", 100, 10_000), ("c", 1000, 1_000_000)]]
        fit = scaling_fit(points)
        assert fit.exponent == 2.0
        assert fit.exponent_se == 0.0
        assert fit.t_stat == math.inf
        assert fit.p_value == 0.0
        assert fit.r2 == 1.0


def _numpy_scaling_fit(points):
    """The reference: the same regression with numpy sums and scipy's stdtr."""
    x = np.log10([float(p.size) for p in points])
    y = np.log10([float(p.cbp) for p in points])
    xc = x - x.mean()
    sxx = float(np.sum(xc * xc))
    slope = float(np.sum(xc * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    sse = float(np.sum(resid * resid))
    sst = float(np.sum((y - y.mean()) ** 2))
    df = len(points) - 2
    se = math.sqrt(sse / df / sxx)
    t_stat = slope / se
    return ScalingFit(exponent=slope, intercept_log=intercept,
                      k=10.0 ** intercept, exponent_se=se,
                      r2=1.0 - sse / sst, t_stat=t_stat,
                      p_value=float(2.0 * stdtr(df, -abs(t_stat))), df=df,
                      n_points=len(points))


def _assert_fit_matches(fit, ref):
    for got, want in zip(astuple(fit), astuple(ref)):
        assert got == pytest.approx(want, rel=1e-13, abs=0)


class TestAgainstNumpyFormula:
    def test_noisy_points(self):
        for seed in (14, 15, 16):
            points = _noisy_points(seed)
            _assert_fit_matches(scaling_fit(points),
                                _numpy_scaling_fit(points))

    def test_ingest_then_scaling(self, tmp_path):
        # 30 subfields of 20-400 papers, cbp ~ size**1.2, through the CLI
        rng = np.random.default_rng(8)
        rows, lines = [EXPORT_HEADER], ["journal,field,subfield"]
        for j in range(30):
            lines.append(f"j{j},f,s{j}")
            for i in range(int(rng.integers(20, 400))):
                authors = "Solo, S" if rng.random() < 0.3 else "A, A; B, B"
                cites = int(rng.poisson(3 * (j + 1) ** 0.2 + 5 * rng.random()))
                rows.append(export_row(f"WOS:{len(rows):05d}", authors,
                                       f"J{j}", citations=cites))
        (tmp_path / "export.tsv").write_text("\n".join(rows) + "\n")
        (tmp_path / "map.csv").write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(tmp_path / "export.tsv"),
                     "--map", str(tmp_path / "map.csv"), "--outdir",
                     str(out)]) == 0
        assert main(["scaling", "--input", str(out / "aggregates.tsv"),
                     "--outdir", str(out)]) == 0
        doc = json.loads((out / "scaling.json").read_text())
        aggregates = read_aggregates(out / "aggregates.tsv")
        for mode in MODES:
            points, _ = points_from_aggregates(aggregates, mode)
            fit, ref = scaling_fit(points), _numpy_scaling_fit(points)
            _assert_fit_matches(fit, ref)
            entry = doc["modes"][mode]
            assert entry["exponent"] == fit.exponent
            assert entry["p_value"] == fit.p_value
            assert entry["intercept_log10"] == fit.intercept_log


def _grid():
    """(df, t, reference) with the reference two-sided tail from mpmath's
    regularized incomplete beta; each df's t stops where it underflows."""
    out = []
    with mpmath.workdps(40):
        for df in [*range(1, 61), 100, 118, 119, 500, 1000]:
            for e in range(-20, 13):
                t = 10.0 ** (e / 2)
                u = df / (df + mpmath.mpf(t) ** 2)
                ref = float(mpmath.betainc(df / 2, 0.5, 0, u,
                                           regularized=True))
                if ref < 1e-300:
                    break
                out.append((df, t, ref))
    return out


class TestTwoSidedTail:
    @pytest.fixture(scope="class")
    def grid(self):
        return _grid()

    def test_against_incomplete_beta(self, grid):
        for df, t, ref in grid:
            assert _t_two_sided(t, df) == pytest.approx(ref, rel=1e-13), \
                (df, t)
            assert _t_two_sided(-t, df) == _t_two_sided(t, df)
        assert len(grid) > 1500

    def test_against_stdtr(self, grid):
        for df, t, _ in grid:
            if t >= 0.01:
                ref = float(2.0 * stdtr(df, -t))
                assert _t_two_sided(t, df) == pytest.approx(ref, rel=1e-13), \
                    (df, t)

    def test_exact_cases(self):
        for df in (1, 2, 3, 60, 119, 1000):
            assert _t_two_sided(0.0, df) == 1.0
        for t in (1e-10, 0.3, 1.0, 2.0, 7.5, 1e3):
            assert _t_two_sided(t, 2) == pytest.approx(
                1.0 - t / math.sqrt(t * t + 2.0), rel=1e-14)
        for df in (2, 3, 10, 119, 1000):
            assert _t_two_sided(1e200, df) == 0.0
        # df = 1 is Cauchy: 2 / (pi t) for large t, far above underflow
        assert _t_two_sided(1e200, 1) == pytest.approx(2 / math.pi / 1e200,
                                                       rel=1e-15)

    def test_ends_where_the_first_term_underflows(self):
        # in a fresh interpreter with a timeout: a relative stop test on a
        # sum of zeros never fires, so this once looped forever
        code = ("from heavytails.scaling import _t_two_sided\n"
                "print([_t_two_sided(t, df) for t, df in ((1e6, 119), "
                "(1e6, 1000), (1e30, 119), (1e30, 1000), (1e200, 4), "
                "(1e200, 1000))])")
        env = dict(os.environ)
        root = str(Path(heavytails.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (root, env.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0.0] * 6


class TestMatthewFactor:
    def test_doubling_semantics(self):
        assert matthew_factor(0.0) == 1.0
        assert matthew_factor(1.0) == 2.0
        assert matthew_factor(2.0) == 4.0

    def test_reported_rounding(self):
        assert round(matthew_factor(1.20), 2) == 2.30
        assert round(matthew_factor(0.85), 2) == 1.80


class TestIndicators:
    def test_expected_on_the_line(self):
        fit = scaling_fit(_exact_points())
        assert_allclose(expected_cbp(fit, 16), 3.0 * 16**1.5, rtol=1e-10)

    def test_indicator_is_one_on_the_line(self):
        points = _exact_points()
        fit = scaling_fit(points)
        for p in points:
            assert_allclose(performance_indicator(p, fit), 1.0, rtol=1e-10)

    def test_indicator_direction(self):
        points = _noisy_points()
        fit = scaling_fit(points)
        over = ScalingPoint("over", 1000,
                            int(expected_cbp(fit, 1000) * 2.0))
        under = ScalingPoint("under", 1000,
                             max(1, int(expected_cbp(fit, 1000) * 0.5)))
        assert performance_indicator(over, fit) > 1.0
        assert performance_indicator(under, fit) < 1.0

    def test_rejects_bad_size(self):
        fit = scaling_fit(_exact_points())
        with pytest.raises(ValueError, match="size must be positive"):
            expected_cbp(fit, 0)

    def test_point_validation(self):
        with pytest.raises(ValueError, match="must be positive"):
            ScalingPoint("x", 0, 10)
        with pytest.raises(ValueError, match="must be positive"):
            ScalingPoint("x", 10, 0)


def _agg(sid, pc, ps, cc, cs, field="f1"):
    return SubfieldAggregate(subfield_id=sid, field_id=field,
                             papers_total=pc + ps, papers_collab=pc,
                             papers_single=ps, citations_total=cc + cs,
                             citations_collab=cc, citations_single=cs)


class TestPointsFromAggregates:
    def test_mode_selection(self):
        aggs = [_agg("a", 60, 40, 900, 100), _agg("b", 10, 5, 50, 25)]
        overall, excluded = points_from_aggregates(aggs, "overall")
        assert [(p.size, p.cbp) for p in overall] == [(100, 1000), (15, 75)]
        collab, _ = points_from_aggregates(aggs, "collaboration")
        assert [(p.size, p.cbp) for p in collab] == [(60, 900), (10, 50)]
        single, _ = points_from_aggregates(aggs, "single")
        assert [(p.size, p.cbp) for p in single] == [(40, 100), (5, 25)]
        assert excluded == []

    def test_zero_rows_excluded_with_reason(self):
        aggs = [_agg("a", 60, 40, 900, 100),
                _agg("nopapers", 5, 0, 10, 0),
                _agg("nocites", 3, 2, 0, 0)]
        points, excluded = points_from_aggregates(aggs, "single")
        assert [p.subfield_id for p in points] == ["a"]
        assert ("nopapers", "zero papers") in excluded
        assert ("nocites", "zero citations") in excluded

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            points_from_aggregates([], "both")

    def test_modes_constant(self):
        assert MODES == ("overall", "collaboration", "single")


class TestScatterTable:
    def test_rows_align_with_points(self):
        points = _exact_points()
        fit = scaling_fit(points)
        rows = scatter_table(points, fit)
        assert len(rows) == len(points)
        for row, p in zip(rows, points):
            sid, size, cbp, expected, indicator = row
            assert (sid, size, cbp) == (p.subfield_id, p.size, p.cbp)
            assert_allclose(expected, expected_cbp(fit, size), rtol=1e-14)
            assert_allclose(indicator, cbp / expected, rtol=1e-14)
