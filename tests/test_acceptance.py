"""Acceptance gate: one end-to-end check per release criterion.

Each test states its tolerance and time budget inline and runs the public
API (or the CLI) the way a user would.  Run with ``pytest -v
tests/test_acceptance.py`` to get one pass/fail line per criterion.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.stats import kstest

import heavytails
from heavytails import (CitationSample, DiscretePowerLaw, ScalingPoint,
                        build_aggregates, compare_models, fit_alpha,
                        fit_power_law, gof_test, hurwitz_zeta,
                        matthew_factor, mode_samples, parse_export,
                        partition_shares, read_classification,
                        sample_power_law, scaling_fit, summarize)
from heavytails.altmodels import AltFit, sample_alternative
from heavytails.powerlaw import _zeta

from conftest import EXPORT_HEADER, export_row


def test_c01_zeta_anchor_and_shift_identity():
    t0 = time.perf_counter()
    assert abs(hurwitz_zeta(2.0, 1) - math.pi**2 / 6.0) <= 1e-10
    rng = np.random.default_rng(42)
    for _ in range(20):
        s = float(rng.uniform(1.05, 12.0))
        q = int(rng.integers(1, 50))
        lhs = hurwitz_zeta(s, q + 1)
        rhs = hurwitz_zeta(s, q) - float(q) ** -s
        assert abs(lhs - rhs) <= 1e-10
    assert time.perf_counter() - t0 < 1.0


def test_c02_alpha_recovery_on_100k_draws():
    t0 = time.perf_counter()
    sample = sample_power_law(DiscretePowerLaw(1, 2.35), 100_000, seed=1)
    fit = fit_power_law(sample, x_min=1, bootstrap_reps=0)
    assert abs(fit.alpha - 2.35) <= 0.02
    assert time.perf_counter() - t0 < 10.0


def test_c03_mle_matches_dense_grid_on_small_fixtures():
    fixtures = [
        (np.array([1, 1, 2, 3, 5]), 1),
        (np.array([2, 2, 3, 4, 4, 5, 8, 9, 12, 18]), 2),
        (np.array([1] * 10 + [2, 3, 4, 7, 9, 15]), 1),
        (np.array([5, 5, 6, 7, 8, 9, 10, 12, 14, 20, 31, 50]), 5),
        (np.array([3, 4, 4, 4, 5, 6, 6, 7, 8, 9, 10, 11, 13,
                   17, 19, 23, 29, 37, 41, 53]), 3),
    ]
    grid = np.arange(1.0001, 6.0, 1e-4)
    for i, (counts, q) in enumerate(fixtures):
        sample = CitationSample(counts, label=f"fixture{i}")
        alpha, _ = fit_alpha(sample, q)
        tail = counts[counts >= q]
        logsum = float(np.sum(np.log(tail)))
        zetas = _zeta(grid, q)[0]
        ll = -grid * logsum - tail.size * np.log(zetas)
        best = grid[int(np.argmax(ll))]
        assert abs(alpha - best) <= 2e-4, f"fixture {i}"


def test_c04_xmin_scan_recovers_planted_cutpoint():
    t0 = time.perf_counter()
    hits = 0
    for seed in range(50):
        rng = np.random.default_rng([seed, 1234])
        noise = rng.integers(1, 10, size=30_000)
        tail = sample_power_law(DiscretePowerLaw(10, 2.5), 20_000, seed=seed)
        sample = CitationSample(np.concatenate([noise, tail.counts]),
                                label="spliced")
        fit = fit_power_law(sample, bootstrap_reps=0)
        hits += 5 <= fit.x_min <= 20
    assert hits >= 45, f"only {hits}/50 scans landed in [5, 20]"
    assert time.perf_counter() - t0 < 120.0


def test_c05_gof_pvalues_calibrated_on_null_data():
    t0 = time.perf_counter()
    pvals = []
    for d in range(200):
        sample = sample_power_law(DiscretePowerLaw(1, 2.5), 2000, seed=d)
        fit = fit_power_law(sample, bootstrap_reps=0)
        result = gof_test(sample, fit, n_sims=250, seed=1000 + d)
        pvals.append(result.p_value)
    pvals = np.array(pvals)
    frac = float(np.mean(pvals <= 0.10))
    assert 0.04 <= frac <= 0.18, f"rule-out rate {frac}"
    ks = kstest(pvals, "uniform").statistic
    assert ks <= 0.10, f"p-value KS vs uniform {ks}"
    assert time.perf_counter() - t0 < 1800.0


def test_c14_gof_at_pinned_xmin_calibrated_on_null_data():
    # 100 null samples fitted at a pinned x_min of 5, above the true 1: each
    # synthetic sample must be refit at x_min 5 too, so p <= 0.10 must occur
    # at about its nominal 10% rate, within 3 binomial SDs, sqrt(0.1 * 0.9 /
    # 100) = 0.03 each, so in [0.01, 0.19].  Synthetic samples whose x_min
    # is scanned instead all fit closer than the data, and all 100 p-values
    # fall to 0.
    t0 = time.perf_counter()
    pvals = []
    for s in range(5000, 5100):
        sample = sample_power_law(DiscretePowerLaw(1, 2.5), 2000, seed=s)
        fit = fit_power_law(sample, x_min=5, bootstrap_reps=0)
        result = gof_test(sample, fit, n_sims=100, seed=1000 + s, x_min=5)
        pvals.append(result.p_value)
    frac = float(np.mean(np.array(pvals) <= 0.10))
    assert 0.01 <= frac <= 0.19, f"rule-out rate {frac}"
    assert time.perf_counter() - t0 < 120.0


def test_c06_comparison_power_on_known_generators():
    # exponential truth: the exponential must win decisively
    s = sample_alternative(AltFit("exponential", (0.1,), 10, 0.0),
                           10_000, seed=60)
    pl = fit_power_law(s, x_min=10, bootstrap_reps=0)
    (res,) = compare_models(s, pl, alternatives=("exponential",))
    assert res.lr < 0 and res.p < 0.05
    assert res.verdict == "alternative_favored"

    # power-law truth: the exponential must lose
    s = sample_power_law(DiscretePowerLaw(10, 2.5), 10_000, seed=61)
    pl = fit_power_law(s, x_min=10, bootstrap_reps=0)
    (res,) = compare_models(s, pl, alternatives=("exponential",))
    assert res.lr > 0
    assert res.verdict == "power_law_favored"

    # cutoff truth: the nested cutoff must win
    s = sample_alternative(AltFit("powerlaw_cutoff", (2.0, 0.01), 1, 0.0),
                           10_000, seed=62)
    pl = fit_power_law(s, x_min=1, bootstrap_reps=0)
    (res,) = compare_models(s, pl, alternatives=("powerlaw_cutoff",))
    assert res.lr < 0 and res.p < 0.05
    assert res.verdict == "alternative_favored"


def test_c07_cutoff_nesting_never_violated():
    inconclusive = 0
    for seed in range(50):
        s = sample_power_law(DiscretePowerLaw(1, 2.5), 3000, seed=seed)
        pl = fit_power_law(s, bootstrap_reps=0)
        (res,) = compare_models(s, pl, alternatives=("powerlaw_cutoff",))
        assert res.lr <= 0.0, f"seed {seed}: lr={res.lr}"
        inconclusive += res.verdict == "inconclusive"
    # on scale-free data the cutoff should rarely be distinguishable
    assert inconclusive >= 40, f"only {inconclusive}/50 inconclusive"


def test_c08_noiseless_scaling_recovered_to_machine_precision():
    # cbp = 2.5 * size^1.2 with size = (2k)^5 keeps every cbp an integer
    points = [ScalingPoint(f"s{k}", (2 * k)**5, 160 * k**6)
              for k in range(1, 34)]
    fit = scaling_fit(points)
    assert abs(fit.exponent - 1.2) <= 1e-12
    assert abs(fit.k - 2.5) <= 1e-12 * 2.5
    assert fit.r2 >= 1.0 - 1e-12
    # the slope must not depend on the logarithm base
    x = np.log([p.size for p in points])
    y = np.log([p.cbp for p in points])
    xc = x - x.mean()
    slope_ln = float(np.sum(xc * (y - y.mean())) / np.sum(xc * xc))
    assert abs(slope_ln - fit.exponent) <= 1e-12


def test_c09_matthew_factor_reported_values():
    assert round(matthew_factor(1.20), 2) == 2.30
    assert round(matthew_factor(0.85), 2) == 1.80


def _corpus_lines():
    journals = [f"Journal {i:02d}" for i in range(20)]
    lines = [EXPORT_HEADER]
    for i in range(880):
        cites = 11 if i < 500 else 10
        lines.append(export_row(f"WOS:{i:04d}", f"A{i}, X; B{i}, Y",
                                journals[i % 20], citations=cites))
    for i in range(880, 1000):
        cites = 6 if i < 980 else 5
        lines.append(export_row(f"WOS:{i:04d}", f"S{i}, Z",
                                journals[i % 20], citations=cites))
    # noise the pipeline must reject or divert, never absorb silently
    for i in range(10):
        lines.append(export_row(f"WOS:{i:04d}", "Dup, D", journals[0],
                                citations=999))
    for i in range(5):
        lines.append(export_row(f"WOS:junk{i}", "Ed, E", journals[0],
                                doc_type="Editorial"))
    for i in range(7):
        lines.append(export_row(f"WOS:um{i}", "Lost, L; Found, F",
                                "Unknown Rag", citations=50))
    return lines


def test_c10_ingest_conserves_counts_and_partition_shares():
    parsed = parse_export(_corpus_lines())
    assert len(parsed.records) == 1007
    assert len(parsed.rejections) == 15
    mapping = read_classification(
        ["journal,field,subfield"]
        + [f"journal {i:02d},field{i % 4},subfield {i:02d}"
           for i in range(20)])
    aggregates, unmapped = build_aggregates(parsed.records, mapping,
                                            parsed.source_rows)
    assert len(unmapped) == 7
    mapped = len(parsed.records) - len(unmapped)
    assert sum(a.papers_total for a in aggregates) == mapped == 1000
    assert sum(a.citations_total for a in aggregates) == 10_000
    assert len(aggregates) == 20

    kept = [rec for rec in parsed.records
            if rec.journal.lower().startswith("journal")]
    samples = mode_samples(kept)
    collab = summarize(samples["collaboration"], total_papers=1000,
                       total_citations=10_000)
    single = summarize(samples["single"], total_papers=1000,
                       total_citations=10_000)
    assert abs(collab.share_papers - 0.88) <= 1e-12
    assert abs(single.share_papers - 0.12) <= 1e-12
    shares = partition_shares(collab, single)
    assert abs(shares.share_collab - 0.93) <= 1e-12
    assert abs(shares.share_single - 0.07) <= 1e-12


_CLI = "from heavytails.cli import entry; entry()"
_PKG_ROOT = str(Path(heavytails.__file__).resolve().parent.parent)


def _cli_run(cwd, *args):
    # The directory holding the imported package goes first on PYTHONPATH,
    # so the child runs the heavytails under test, not an installed copy.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (_PKG_ROOT, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", _CLI, *map(str, args)],
                          cwd=cwd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_c11_artifacts_byte_identical_across_thread_counts(tmp_path):
    blobs = {}
    for threads in (1, 2, 8):
        cwd = tmp_path / f"threads{threads}"
        (cwd / "out").mkdir(parents=True)
        _cli_run(cwd, "simulate", "--family", "powerlaw", "--n", 4000,
                 "--alpha", 2.35, "--xmin", 1, "--seed", 9,
                 "--output", "counts.txt")
        _cli_run(cwd, "fit", "--input", "counts.txt", "--outdir", "out",
                 "--bootstrap", 50, "--gof", "--sims", 60, "--seed", 3,
                 "--threads", threads)
        blobs[threads] = {
            name: (cwd / name).read_bytes()
            for name in ("counts.txt", "out/fit.json", "out/gof.json",
                         "out/ccdf.csv")
        }
    for threads in (2, 8):
        for name, blob in blobs[1].items():
            assert blobs[threads][name] == blob, \
                f"{name} differs between --threads 1 and --threads {threads}"


def test_c12_bootstrap_sd_calibrated_on_null_data():
    # 100 null samples, each with x_min scanned and 100 bootstrap
    # replicates: the median alpha_sd must estimate the SD of alpha-hat
    # across the samples.  That SD, over 100 samples, has a relative
    # sampling error of about 1 / sqrt(2 * 99) = 7.1%, so the ratio may miss
    # 1 by three times that, 0.213.
    t0 = time.perf_counter()
    fits = [fit_power_law(sample_power_law(DiscretePowerLaw(1, 2.5), 2000,
                                           seed=s),
                          bootstrap_reps=100, seed=s)
            for s in range(7000, 7100)]
    spread = float(np.std([fit.alpha for fit in fits], ddof=1))
    ratio = float(np.median([fit.alpha_sd for fit in fits])) / spread
    tol = 3.0 / math.sqrt(2 * 99)
    assert abs(ratio - 1.0) <= tol, f"median alpha_sd / SD(alpha) = {ratio}"
    assert time.perf_counter() - t0 < 120.0


def test_c13_comparison_size_on_null_data():
    # 200 power-law samples, each with x_min scanned: the lognormal
    # comparison's p <= 0.10 must occur at about its nominal 10% rate,
    # within 3 binomial SDs, sqrt(0.1 * 0.9 / 200) = 0.0212 each, so in
    # [0.036, 0.164].  The cutoff's chi-square(1) p is conservative on the
    # boundary rate = 0 of the nested family, so its share has only the
    # upper bound 0.164.
    t0 = time.perf_counter()
    lognormal, cutoff = [], []
    for s in range(5000, 5200):
        sample = sample_power_law(DiscretePowerLaw(1, 2.5), 2000, seed=s)
        fit = fit_power_law(sample, bootstrap_reps=0)
        ln, pc = compare_models(sample, fit,
                                alternatives=("lognormal", "powerlaw_cutoff"))
        lognormal.append(ln.p)
        cutoff.append(pc.p)
    share_ln = float(np.mean(np.array(lognormal) <= 0.10))
    share_pc = float(np.mean(np.array(cutoff) <= 0.10))
    assert 0.036 <= share_ln <= 0.164, f"lognormal p <= 0.10 share {share_ln}"
    assert share_pc <= 0.164, f"cutoff p <= 0.10 share {share_pc}"
    assert time.perf_counter() - t0 < 120.0
