"""A citation sample is its value–count digest, from the counts file to every
fit: no command and no fit expands it to one entry per paper."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_array_equal

from heavytails import (CitationSample, DiscretePowerLaw, ccdf_table,
                        compare_models, fit_alpha, fit_alternative,
                        fit_power_law, gof_test, ks_distance, read_counts,
                        sample_power_law, summarize, write_counts)
from heavytails.cli import main

from conftest import EXPORT_HEADER, export_row


def _refuse(self, *args):
    raise AssertionError("a CitationSample was expanded")


@pytest.fixture()
def no_expansion(monkeypatch):
    """Every expansion of a sample, one entry per paper, raises."""
    monkeypatch.setattr(CitationSample, "counts", property(_refuse))
    monkeypatch.setattr(CitationSample, "tail", _refuse)
    monkeypatch.setattr(CitationSample, "__iter__", _refuse)
    return monkeypatch


class TestNoExpansion:
    def test_commands(self, tmp_path, no_expansion, classification_lines):
        counts = tmp_path / "counts.txt"
        assert main(["simulate", "--family", "powerlaw", "--alpha", "2.2",
                     "--n", "3000", "--seed", "5",
                     "--output", str(counts)]) == 0
        for argv in (
                ["fit", "--gof", "--bootstrap", "4", "--sims", "4"],
                ["gof", "--sims", "4"],
                ["compare"]):
            assert main([*argv, "--input", str(counts), "--outdir",
                         str(tmp_path / argv[0]), "--seed", "5"]) == 0
        export, journals = tmp_path / "export.tsv", tmp_path / "map.csv"
        export.write_text("\n".join([EXPORT_HEADER] + [
            export_row(f"W{i}", "A, A; B, B" if i % 3 else "C, C",
                       ("Physics World", "Botany Letters", "Unlisted")[i % 3],
                       citations=i % 7) for i in range(60)]) + "\n")
        journals.write_text("".join(classification_lines))
        assert main(["ingest", "--input", str(export), "--map", str(journals),
                     "--outdir", str(tmp_path / "corpus")]) == 0

        # simulate wrote the same bytes as the counts of its sample
        no_expansion.undo()
        sample = sample_power_law(DiscretePowerLaw(1, 2.2), 3000, seed=5)
        body = "".join(f"{value}\n" for value in sample.counts.tolist())
        text = counts.read_text()
        assert text.endswith("\n" + body)
        assert all(line.startswith("# ")
                   for line in text[:-len(body)].splitlines())

    def test_library_calls(self, no_expansion):
        rng = np.random.default_rng(2)
        sample = CitationSample(np.concatenate([
            rng.integers(0, 5, 400), 5 * (1.0 - rng.random(1500)) ** -0.8
        ]).astype(np.int64), label="mix")
        fit = fit_power_law(sample, bootstrap_reps=4, seed=3)
        gof_test(sample, fit, n_sims=4, seed=3)
        compare_models(sample, fit)
        fit_alternative(sample, fit.x_min, "lognormal")
        fit_alpha(sample, fit.x_min)
        ks_distance(sample, fit.model())
        ccdf_table(sample, fit.model())
        summarize(sample)
        sample.relabel("again")
        assert len(sample) == 1900


def _outcome(call, *args, **kwargs):
    """What a call returns, or the message of the ValueError it raises."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        return f"ValueError: {exc}"


# a body of small counts and a heavy tail, with many ties
_COUNTS = st.lists(st.one_of(st.integers(0, 6), st.integers(1, 2_000)),
                   min_size=30, max_size=300)


class TestDigestEquivalence:
    @given(values=_COUNTS, x_min=st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_counts_and_their_counter_give_one_sample(self, values, x_min):
        a = CitationSample(values, label="s")
        b = CitationSample(Counter(values), label="s")
        assert_array_equal(a.counts, b.counts)
        assert a.counts.tolist() == sorted(values)
        assert (len(a), a.n_citations) == (len(b), b.n_citations)
        assert (len(a), a.n_citations) == (len(values), sum(values))
        assert summarize(a) == summarize(b)
        assert_array_equal(a.tail(x_min), b.tail(x_min))
        fits = [_outcome(fit_power_law, s, min_tail=10, bootstrap_reps=3,
                         seed=1) for s in (a, b)]
        assert fits[0] == fits[1]
        if isinstance(fits[0], str):
            return
        fit = fits[0]
        assert _outcome(gof_test, a, fit, n_sims=3, seed=2, min_tail=10) == \
            _outcome(gof_test, b, fit, n_sims=3, seed=2, min_tail=10)
        assert compare_models(a, fit) == compare_models(b, fit)
        assert ccdf_table(a, fit.model()) == ccdf_table(b, fit.model())


def _traced_peak(call, *args, **kwargs):
    """The result of a call and the peak of the memory tracemalloc sees it
    allocate."""
    tracemalloc.start()
    try:
        result = call(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_read_and_fit_hold_no_array_of_every_count(self, tmp_path):
        # 200,000 counts in 200 distinct values: an int64 array of every
        # count is 1.6 MB, and a read and fit that expand the counts hold
        # several at once (4.9 MB read_counts peak, 5.2 MB fit peak).  The
        # counts file is read in 16 KiB blocks, and every step works on
        # the digest.
        rng = np.random.default_rng(3)
        x = np.minimum(np.floor(rng.pareto(1.5, 200_000) * 3), 199)
        digest = Counter(x.astype(np.int64).tolist())
        assert len(digest) == 200
        path = tmp_path / "counts.txt"
        write_counts(path, digest)

        def read_and_fit():
            sample = read_counts(path)
            return fit_power_law(sample, bootstrap_reps=4, seed=1)
        fit, peak = _traced_peak(read_and_fit)
        assert fit.n_tail > 1_000
        assert peak < 1 << 20, f"peak {peak / 1e6:.2f} MB"

    def test_gof_holds_no_array_of_every_count(self):
        # the same 200,000 counts in 200 values: a GoF simulation draws its
        # body as one multinomial over the values below x_min, so neither
        # the test nor a simulation holds an array of n values (5.15 MB
        # peak when the body was expanded and resampled by index)
        rng = np.random.default_rng(3)
        x = np.minimum(np.floor(rng.pareto(1.5, 200_000) * 3), 199)
        sample = CitationSample(Counter(x.astype(np.int64).tolist()))
        fit = fit_power_law(sample, bootstrap_reps=0)
        assert fit.x_min > 1 and fit.n_tail < len(sample) // 2
        result, peak = _traced_peak(gof_test, sample, fit, 4, 1)
        assert result.n_sims == 4
        assert peak < 2 << 20, f"peak {peak / 1e6:.2f} MB"
