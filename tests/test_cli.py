"""End-to-end tests of the command-line interface via cli.main."""

import ast
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import heavytails
from heavytails import SubfieldAggregate, __version__, read_counts
from heavytails.cli import _COLUMN_FLAGS, build_parser, main
from heavytails.dataset import write_aggregates, write_counts
from heavytails.documents import file_digest, gof_document, validate_document
from heavytails.ingest import DEFAULT_COLUMNS

from conftest import EXPORT_HEADER, export_row


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def counts_file(tmp_path):
    path = tmp_path / "counts.txt"
    assert run("simulate", "--family", "powerlaw", "--n", 5000,
               "--alpha", 2.5, "--xmin", 1, "--seed", 11,
               "--output", path) == 0
    return path


@pytest.fixture()
def aggregates_file(tmp_path):
    aggs = [SubfieldAggregate(f"sub{k}", "f", 4**k, 3 * 4**k // 4,
                              4**k - 3 * 4**k // 4, 3 * 8**k,
                              2 * 8**k, 8**k)
            for k in range(1, 7)]
    path = tmp_path / "aggregates.tsv"
    write_aggregates(path, aggs)
    return path


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"heavytails {__version__}"

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == 2

    def test_sims_and_epsilon_exclusive(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("gof", "--input", tmp_path / "x", "--sims", 10,
                "--epsilon", 0.1)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (["fit", "--bootstrap", -3], "--bootstrap must be at least 0"),
        (["fit", "--min-tail", -5], "--min-tail must be at least 0"),
        (["fit", "--bootstrap", 0, "--seed", -1], "--seed must be at least 0"),
        (["fit", "--gof", "--bootstrap", 0, "--seed", -1, "--sims", 5],
         "--seed must be at least 0"),
        (["compare", "--seed", -2], "--seed must be at least 0"),
        (["compare", "--alternatives", ","], "--alternatives names no family"),
        (["scaling", "--seed", -3], "--seed must be at least 0"),
        (["ingest", "--map", "map.csv", "--seed", -3],
         "--seed must be at least 0"),
        (["fit", "--sims", 5], "--sims and --epsilon need --gof"),
        (["fit", "--epsilon", "nan"], "--sims and --epsilon need --gof"),
    ], ids=["bootstrap", "min-tail", "fit-seed", "fit-gof-seed",
            "compare-seed", "no-family", "scaling-seed", "ingest-seed",
            "fit-sims-without-gof", "fit-epsilon-without-gof"])
    def test_out_of_range_option_writes_nothing(self, counts_file, tmp_path,
                                                capsys, argv, message):
        out = tmp_path / "out"
        command, *rest = argv
        assert run(command, "--input", counts_file, "--outdir", out,
                   *rest) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    # compare fits without a bootstrap and scaling draws nothing, so only
    # fit and gof, which run replicates, take --threads
    @pytest.mark.parametrize("command", ["compare", "scaling"])
    def test_threads_rejected_where_no_replicate_runs(
            self, counts_file, aggregates_file, tmp_path, capsys, command):
        given = counts_file if command == "compare" else aggregates_file
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(command, "--input", given, "--outdir", out, "--threads", 2)
        assert exc.value.code == 2
        assert "error: unrecognized arguments: --threads 2\n" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_gof_takes_threads(self, counts_file, tmp_path):
        # as fit does (TestFit)
        out = tmp_path / "out"
        assert run("gof", "--input", counts_file, "--outdir", out, "--sims",
                   5, "--threads", 2) == 0
        assert (out / "gof.json").exists()

    def test_zero_stays_legal(self, counts_file, tmp_path):
        out = tmp_path / "out"
        assert run("fit", "--input", counts_file, "--outdir", out,
                   "--bootstrap", 0, "--min-tail", 0, "--seed", 0) == 0
        doc = json.loads((out / "fit.json").read_text())
        validate_document(doc)
        assert doc["bootstrap_reps"] == 0


class TestSimulate:
    def test_writes_commented_counts(self, counts_file):
        text = counts_file.read_text()
        assert text.startswith(f"# heavytails {__version__}\n")
        assert "# command: simulate --family powerlaw" in text
        assert "--threads" not in text
        sample = read_counts(counts_file)
        assert len(sample) == 5000
        assert sample.counts.min() >= 1

    def test_deterministic(self, tmp_path, monkeypatch):
        # identical argv from two working directories: identical bytes,
        # including the command line recorded in the header
        for sub in ("one", "two"):
            cwd = tmp_path / sub
            cwd.mkdir()
            monkeypatch.chdir(cwd)
            assert run("simulate", "--family", "exponential", "--n", 200,
                       "--rate", 0.5, "--xmin", 3, "--seed", 2,
                       "--output", "x.txt") == 0
        assert (tmp_path / "one" / "x.txt").read_bytes() == \
            (tmp_path / "two" / "x.txt").read_bytes()

    def test_draw_past_integer_range_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "x.txt"
        code = run("simulate", "--family", "lognormal", "--mu", 0,
                   "--sigma", 50, "--n", 200, "--seed", 1, "--output", path)
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: sampled value exceeds the integer range")
        assert not path.exists()

    @pytest.mark.parametrize("family, given, message", [
        ("powerlaw", ["--alpha", "nan"], "alpha must be finite"),
        ("powerlaw", ["--alpha", "inf"], "alpha must be finite"),
        ("powerlaw_cutoff", ["--alpha", 1.5, "--rate", 0.01, "--xmin", -3],
         "x_min must be a positive integer"),
        ("powerlaw_cutoff", ["--alpha", 1.5, "--rate", 0.01, "--xmin", 0],
         "x_min must be a positive integer"),
        ("lognormal", ["--mu", 1, "--sigma", 1, "--xmin", 0],
         "x_min must be a positive integer"),
        ("lognormal", ["--mu", "nan", "--sigma", 1],
         "lognormal parameters must be finite"),
        ("lognormal", ["--mu", 1, "--sigma", "nan"],
         "lognormal parameters must be finite"),
        ("exponential", ["--rate", "nan"],
         "exponential parameters must be finite"),
        ("exponential", ["--rate", 0.5, "--xmin", 0],
         "x_min must be a positive integer"),
        # nearly all of the target's mass lies past 2**62
        ("powerlaw_cutoff", ["--alpha", 0.5, "--rate", 1e-300],
         "sampled value exceeds the integer range; the tail is too heavy "
         "for exact inversion"),
        # the sampler's acceptance falls as 1 / sqrt(-alpha)
        ("powerlaw_cutoff", ["--alpha=-1e300", "--rate", 1],
         "alpha must be at least -5"),
        ("powerlaw_cutoff", ["--alpha", 1.5, "--rate", -0.1],
         "rate must be nonnegative"),
    ], ids=["powerlaw-nan", "powerlaw-inf", "cutoff-xmin-neg", "cutoff-xmin-0",
            "lognormal-xmin-0", "lognormal-mu-nan", "lognormal-sigma-nan",
            "exponential-nan", "exponential-xmin-0", "cutoff-rate-tiny",
            "cutoff-alpha-very-negative", "cutoff-rate-negative"])
    def test_bad_model_rejected_promptly(self, tmp_path, family, given,
                                         message):
        # in a fresh interpreter with a timeout: some of these once hung
        path = tmp_path / "x" / "y.txt"
        proc = fresh_process("heavytails.cli", "simulate", "--family",
                             family, *given, "--n", 5, "--output", path,
                             module=True, timeout=10)
        assert proc.returncode == 1
        assert proc.stderr == f"error: {message}\n"
        # the output's directory is made only once the sample is drawn
        assert not path.parent.exists()

    def test_huge_cutoff_exponent_warns_nothing(self, tmp_path):
        # the Zipf envelope's zeta at s = 1e300 once printed two warnings
        path = tmp_path / "x.txt"
        proc = fresh_process("heavytails.cli", "simulate", "--family",
                             "powerlaw_cutoff", "--alpha", 1e300, "--rate", 1,
                             "--n", 5, "--output", path, module=True,
                             timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert read_counts(path).counts.tolist() == [1] * 5

    @pytest.mark.parametrize("given, xmin, draw", [
        # the truncation point lies 1e300 and 1e160 sigmas above mu
        (["--mu=-1e300", "--sigma", 1], 1, 1),
        (["--mu=-1e150", "--sigma", 1e-10], 1, 1),
        # a point mass at e^mu, rounded, or x_min if that is larger
        (["--mu", 3, "--sigma", 5e-324], 1, 20),
        (["--mu", 3, "--sigma", 5e-324], 25, 25),
    ], ids=["mu-far-below", "sigma-tiny-mu-far-below", "sigma-least",
            "sigma-least-below-xmin"])
    def test_extreme_lognormal_draws_promptly(self, tmp_path, given, xmin,
                                              draw):
        path = tmp_path / "x.txt"
        proc = fresh_process("heavytails.cli", "simulate", "--family",
                             "lognormal", *given, "--xmin", xmin, "--n", 5,
                             "--output", path, module=True, timeout=10)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert read_counts(path).counts.tolist() == [draw] * 5

    @pytest.mark.parametrize("family, given, missing", [
        ("powerlaw", [], "--alpha"),
        ("lognormal", ["--mu", 1.0], "--sigma"),
        ("exponential", ["--alpha", 2.0], "--rate"),
        ("powerlaw_cutoff", [], "--alpha, --rate"),
    ], ids=["powerlaw", "lognormal", "exponential", "powerlaw_cutoff"])
    def test_missing_param_rejected(self, tmp_path, capsys, family, given,
                                    missing):
        path = tmp_path / "x.txt"
        code = run("simulate", "--family", family, "--n", 10, *given,
                   "--output", path)
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: family {family} requires {missing}\n")
        assert not path.exists()

    @pytest.mark.parametrize("params, command", [
        (["--family", "powerlaw", "--alpha", 2.5],
         "simulate --family powerlaw --xmin 2 --alpha 2.5"),
        (["--family", "lognormal", "--sigma", 1.5, "--mu", 1],
         "simulate --family lognormal --xmin 2 --mu 1.0 --sigma 1.5"),
        (["--family", "exponential", "--rate", 0.25, "--alpha", 9],
         "simulate --family exponential --xmin 2 --rate 0.25"),
        (["--family", "powerlaw_cutoff", "--rate", 0.01, "--alpha", 1.8],
         "simulate --family powerlaw_cutoff --xmin 2 --alpha 1.8 --rate 0.01"),
    ], ids=["powerlaw", "lognormal", "exponential", "powerlaw_cutoff"])
    def test_recorded_command(self, tmp_path, monkeypatch, params, command):
        # each family records its own flags, in model order, as floats
        monkeypatch.chdir(tmp_path)
        assert run("simulate", *params, "--xmin", 2, "--n", 3000,
                   "--seed", 4, "--output", "x.txt") == 0
        assert (tmp_path / "x.txt").read_text().splitlines()[:3] == [
            f"# heavytails {__version__}",
            f"# command: {command} --n 3000 --seed 4 --output x.txt",
            "# seed: 4"]

    @pytest.mark.parametrize("name", ["nl\nx.txt", "cr\rx.txt",
                                      "crlf\r\nx.txt"],
                             ids=["lf", "cr", "crlf"])
    def test_line_break_in_output_path(self, tmp_path, monkeypatch, name):
        # the recorded command holds the break; each piece is a # line
        monkeypatch.chdir(tmp_path)
        for output in ("plain.txt", name):
            assert run("simulate", "--family", "powerlaw", "--alpha", 2.5,
                       "--n", 300, "--seed", 4, "--output", output) == 0
        assert read_counts(name).counts.tolist() == \
            read_counts("plain.txt").counts.tolist()
        assert run("fit", "--input", name, "--outdir", "out",
                   "--bootstrap", 0) == 0


class TestFit:
    def test_fit_with_gof(self, counts_file, tmp_path):
        out = tmp_path / "out"
        assert run("fit", "--input", counts_file, "--outdir", out,
                   "--bootstrap", 25, "--gof", "--sims", 50,
                   "--seed", 5) == 0
        fit_doc = json.loads((out / "fit.json").read_text())
        gof_doc = json.loads((out / "gof.json").read_text())
        validate_document(fit_doc)
        validate_document(gof_doc)
        assert abs(fit_doc["alpha"] - 2.5) < 0.1
        assert fit_doc["input_sha256"] == file_digest(counts_file)
        assert fit_doc["command"] == gof_doc["command"]
        assert "--threads" not in fit_doc["command"]
        assert "--gof" in fit_doc["command"]
        assert gof_doc["n_sims"] == 50
        ccdf = (out / "ccdf.csv").read_text().splitlines()
        assert ccdf[0] == "x,ccdf_empirical,ccdf_model"
        first = ccdf[1].split(",")
        assert first[0] == str(fit_doc["x_min"])
        assert float(first[1]) == 1.0
        assert float(first[2]) == 1.0

    def test_label_defaults_to_stem(self, counts_file, tmp_path):
        out = tmp_path / "out"
        assert run("fit", "--input", counts_file, "--outdir", out,
                   "--bootstrap", 0) == 0
        doc = json.loads((out / "fit.json").read_text())
        assert doc["label"] == "counts"

    def test_threads_do_not_change_bytes(self, counts_file, tmp_path,
                                         monkeypatch):
        # --threads is absent from the recorded command, so runs from
        # different cwds with different worker counts must agree byte-wise
        for threads, sub in ((1, "serial"), (3, "pooled")):
            cwd = tmp_path / sub
            cwd.mkdir()
            (cwd / "counts.txt").write_bytes(counts_file.read_bytes())
            monkeypatch.chdir(cwd)
            assert run("fit", "--input", "counts.txt", "--outdir", "out",
                       "--bootstrap", 20, "--gof", "--sims", 40,
                       "--seed", 5, "--threads", threads) == 0
        for name in ("fit.json", "gof.json", "ccdf.csv"):
            assert (tmp_path / "serial" / "out" / name).read_bytes() == \
                (tmp_path / "pooled" / "out" / name).read_bytes(), name

    def test_pinned_xmin_recorded(self, counts_file, tmp_path):
        out = tmp_path / "out"
        assert run("fit", "--input", counts_file, "--outdir", out,
                   "--bootstrap", 0, "--xmin", 4) == 0
        doc = json.loads((out / "fit.json").read_text())
        assert doc["x_min"] == 4
        assert "--xmin 4" in doc["command"]

    def test_nonpositive_xmin_writes_nothing(self, counts_file, tmp_path,
                                             capsys):
        out = tmp_path / "out"
        assert run("fit", "--input", counts_file, "--outdir", out,
                   "--bootstrap", 0, "--xmin", 0) == 1
        assert capsys.readouterr().err.startswith(
            "error: x_min must be a positive integer")
        assert not (out / "fit.json").exists()

    def test_error_line_escapes_control_characters(self, tmp_path):
        # a raw carriage return would let the rest of the line overwrite
        # its start on a terminal
        (tmp_path / "a\rb.txt").write_text("3\nfour\n")
        proc = fresh_process("heavytails.cli", "fit", "--input", "a\rb.txt",
                             "--outdir", "out", module=True, cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: a\\rb.txt:2: ")
        # text mode reads a raw carriage return as a line end
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("command", ["fit", "gof", "compare"])
    def test_file_without_counts_is_named(self, tmp_path, capsys, command):
        # every other read_counts error names the file too
        path = tmp_path / "empty.txt"
        path.write_text("# heavytails\n\n  \n# mode: overall\n")
        out = tmp_path / "out"
        assert run(command, "--input", path, "--outdir", out) == 1
        assert capsys.readouterr().err == "error: empty.txt: empty dataset\n"
        assert not out.exists()

    def test_missing_input_fails(self, tmp_path, capsys):
        code = run("fit", "--input", tmp_path / "absent.txt",
                   "--outdir", tmp_path)
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", ["fit", "gof"])
    @pytest.mark.parametrize("threads", [0, -2])
    def test_threads_below_one_rejected(self, counts_file, tmp_path, capsys,
                                        command, threads):
        out = tmp_path / "out"
        assert run(command, "--input", counts_file, "--outdir", out,
                   "--sims", 5, "--threads", threads) == 1
        assert capsys.readouterr().err == (
            "error: --threads must be at least 1\n")
        assert not out.exists()

    def test_many_distinct_values_fit_promptly(self, tmp_path):
        # in a fresh interpreter with a timeout: on 50,000 distinct values
        # the x_min scan once took about 11 s
        path = tmp_path / "uniform.txt"
        write_counts(path, range(1, 50_001))
        proc = fresh_process("heavytails.cli", "fit", "--input", path,
                             "--outdir", tmp_path / "out", "--bootstrap", 0,
                             module=True, timeout=5)
        assert (proc.returncode, proc.stderr) == (0, "")
        fit_doc = json.loads((tmp_path / "out" / "fit.json").read_text())
        assert 1 < fit_doc["x_min"] < 50_000


class TestGofCommand:
    def test_epsilon_resolves_sims(self, counts_file, tmp_path):
        out = tmp_path / "out"
        assert run("gof", "--input", counts_file, "--outdir", out,
                   "--epsilon", 0.05, "--seed", 1) == 0
        doc = json.loads((out / "gof.json").read_text())
        assert doc["n_sims"] == 100
        assert "--sims 100" in doc["command"]

    # the finest legal epsilon is 0.001, 250,000 simulations: a finer one
    # would run for days, and inf, nan and 0 give no usable count
    @pytest.mark.parametrize("epsilon", ["inf", "nan", "1e-200", "1e-4",
                                         "0.00099", "0"])
    def test_unusable_epsilon_writes_nothing(self, counts_file, tmp_path,
                                             capsys, epsilon):
        out = tmp_path / "out"
        assert run("fit", "--input", counts_file, "--outdir", out, "--gof",
                   "--epsilon", epsilon, "--bootstrap", 0) == 1
        assert capsys.readouterr().err == (
            "error: epsilon must be finite and at least 0.001 (250000 "
            "simulations); use --sims for a larger run\n")
        assert not out.exists()

    def test_epsilon_checked_before_the_input_is_read(self, tmp_path,
                                                      capsys):
        # as every other option is, and so before any fit
        out = tmp_path / "out"
        assert run("fit", "--input", tmp_path / "missing.txt", "--outdir",
                   out, "--gof", "--epsilon", 0) == 1
        assert capsys.readouterr().err == (
            "error: epsilon must be finite and at least 0.001 (250000 "
            "simulations); use --sims for a larger run\n")
        assert not out.exists()

    def test_bad_sims_rejected(self, counts_file, tmp_path, capsys):
        code = run("gof", "--input", counts_file, "--outdir", tmp_path,
                   "--sims", 0)
        assert code == 1
        assert "--sims must be at least 1" in capsys.readouterr().err

    def test_same_test_as_fit_gof(self, counts_file, tmp_path):
        alone, with_fit = tmp_path / "gof", tmp_path / "fit"
        assert run("gof", "--input", counts_file, "--outdir", alone,
                   "--sims", 20, "--seed", 3) == 0
        assert run("fit", "--input", counts_file, "--outdir", with_fit,
                   "--gof", "--bootstrap", 0, "--sims", 20, "--seed", 3) == 0
        assert sorted(p.name for p in alone.iterdir()) == ["gof.json"]
        doc = json.loads((alone / "gof.json").read_text())
        other = json.loads((with_fit / "gof.json").read_text())
        assert doc.pop("command").startswith("gof ")
        assert other.pop("command").startswith("fit ")
        assert doc == other

    def test_pinned_xmin_refits_each_simulation_at_it(self, counts_file,
                                                      tmp_path):
        out = tmp_path / "out"
        assert run("gof", "--input", counts_file, "--outdir", out,
                   "--sims", 40, "--seed", 3, "--xmin", 5) == 0
        doc = json.loads((out / "gof.json").read_text())
        sample = read_counts(counts_file)
        fit = heavytails.fit_power_law(sample, x_min=5, bootstrap_reps=0)
        result = heavytails.gof_test(sample, fit, 40, 3, x_min=5)
        assert doc == gof_document(
            result, fit, sample.label, command=doc["command"], seed=3,
            input_digest=file_digest(counts_file))

    def test_failed_test_writes_no_gof_output(self, tmp_path, capsys):
        data = tmp_path / "heavy.txt"
        assert run("simulate", "--family", "powerlaw", "--alpha", 1.2,
                   "--n", 3000, "--seed", 1, "--output", data) == 0
        alone, with_fit = tmp_path / "gof", tmp_path / "fit"
        assert run("gof", "--input", data, "--outdir", alone,
                   "--sims", 20) == 1
        assert not alone.exists()
        assert run("fit", "--input", data, "--outdir", with_fit, "--gof",
                   "--bootstrap", 0, "--sims", 20) == 1
        # fit's own outputs are written before its GoF test runs
        assert sorted(p.name for p in with_fit.iterdir()) == [
            "ccdf.csv", "fit.json"]
        err = capsys.readouterr().err.splitlines()
        assert err[1] == err[3] == ("error: sampled value exceeds the integer "
                                    "range; the tail is too heavy for exact "
                                    "inversion")


class TestCompareCommand:
    def test_exponential_data_verdict(self, tmp_path):
        data = tmp_path / "exp.txt"
        assert run("simulate", "--family", "exponential", "--n", 5000,
                   "--rate", 0.1, "--xmin", 10, "--seed", 8,
                   "--output", data) == 0
        out = tmp_path / "out"
        assert run("compare", "--input", data, "--outdir", out,
                   "--xmin", 10, "--alternatives", "exponential") == 0
        doc = json.loads((out / "compare.json").read_text())
        validate_document(doc)
        (row,) = doc["comparisons"]
        assert row["alternative"] == "exponential"
        assert row["lr"] < 0
        assert row["verdict"] == "alternative_favored"
        tsv = (out / "comparison.tsv").read_text().splitlines()
        assert tsv[0] == "alternative\tlr\tp\tverdict"
        assert tsv[1].split("\t")[0] == "exponential"

    def test_unknown_family_rejected(self, counts_file, tmp_path, capsys):
        code = run("compare", "--input", counts_file, "--outdir", tmp_path,
                   "--alternatives", "weibull")
        assert code == 1
        assert "unknown family" in capsys.readouterr().err

    def test_family_checked_before_the_input_is_read(self, tmp_path, capsys):
        # and so before any fit
        code = run("compare", "--input", tmp_path / "missing.txt",
                   "--outdir", tmp_path, "--alternatives",
                   "lognormal,weibull")
        assert code == 1
        assert capsys.readouterr().err == "error: unknown family: 'weibull'\n"

    def test_repeated_family_writes_nothing(self, counts_file, tmp_path,
                                            capsys):
        out = tmp_path / "out"
        code = run("compare", "--input", counts_file, "--outdir", out,
                   "--alternatives", "lognormal, exponential,lognormal")
        assert code == 1
        assert capsys.readouterr().err == "error: repeated family: lognormal\n"
        assert not out.exists()


class TestScalingCommand:
    def test_all_modes(self, aggregates_file, tmp_path):
        out = tmp_path / "out"
        assert run("scaling", "--input", aggregates_file,
                   "--outdir", out) == 0
        doc = json.loads((out / "scaling.json").read_text())
        validate_document(doc)
        assert sorted(doc["modes"]) == ["collaboration", "overall", "single"]
        assert abs(doc["modes"]["overall"]["exponent"] - 1.5) < 1e-9
        assert abs(doc["modes"]["overall"]["matthew_factor"] - 2**1.5) < 1e-9
        for mode in ("overall", "collaboration", "single"):
            table = (out / f"scatter_{mode}.csv").read_text().splitlines()
            assert table[0] == "subfield,size,cbp,expected_cbp,indicator"
            assert len(table) == 7

    def test_single_mode_writes_one_table(self, aggregates_file, tmp_path):
        out = tmp_path / "out"
        assert run("scaling", "--input", aggregates_file, "--outdir", out,
                   "--mode", "single") == 0
        assert (out / "scatter_single.csv").exists()
        assert not (out / "scatter_overall.csv").exists()
        doc = json.loads((out / "scaling.json").read_text())
        assert list(doc["modes"]) == ["single"]

    def test_subfield_sums_past_int64(self, tmp_path):
        # three rows at the largest count in one subfield: ingest sums them
        # exactly, to more than 2**64, and scaling takes their logs
        big = 2 ** 63 - 1
        rows = [EXPORT_HEADER]
        for journal, cites in (("J1", [big, big, big]), ("J2", [4, 9]),
                               ("J3", [50, 70, 30, 8])):
            for i, c in enumerate(cites):
                authors = "Solo, S" if i % 2 else "A, A; B, B"
                rows.append(export_row(f"WOS:{len(rows):03d}", authors,
                                       journal, citations=c))
        (tmp_path / "export.tsv").write_text("\n".join(rows) + "\n")
        (tmp_path / "map.csv").write_text(
            "journal,field,subfield\nj1,f,s1\nj2,f,s2\nj3,f,s3\n")
        out = tmp_path / "out"
        assert run("ingest", "--input", tmp_path / "export.tsv", "--map",
                   tmp_path / "map.csv", "--outdir", out) == 0
        assert "\t27670116110564327421\t" in \
            (out / "aggregates.tsv").read_text()
        assert run("scaling", "--input", out / "aggregates.tsv",
                   "--outdir", out) == 0
        doc = json.loads((out / "scaling.json").read_text())
        validate_document(doc)
        assert [doc["modes"][m]["n_points"] for m in
                ("overall", "collaboration", "single")] == [3, 3, 3]

    def test_byte_order_mark_accepted(self, aggregates_file, tmp_path):
        marked = tmp_path / "marked.tsv"
        marked.write_text("\ufeff" + aggregates_file.read_text(),
                          encoding="utf-8")
        docs = []
        for path in (aggregates_file, marked):
            out = tmp_path / path.stem
            assert run("scaling", "--input", path, "--outdir", out) == 0
            docs.append(json.loads((out / "scaling.json").read_text()))
        assert docs[0]["modes"] == docs[1]["modes"]

    def test_too_few_points_fails(self, tmp_path, capsys):
        aggs = [SubfieldAggregate("a", "f", 10, 5, 5, 100, 60, 40),
                SubfieldAggregate("b", "f", 20, 10, 10, 300, 200, 100)]
        path = tmp_path / "small.tsv"
        write_aggregates(path, aggs)
        code = run("scaling", "--input", path, "--outdir", tmp_path)
        assert code == 1
        assert "error: mode overall: need at least 3 points" in \
            capsys.readouterr().err


class TestIngestCommand:
    @pytest.fixture()
    def export_file(self, tmp_path, export_lines):
        path = tmp_path / "export.tsv"
        path.write_text("".join(export_lines), encoding="utf-8")
        return path

    @pytest.fixture()
    def map_file(self, tmp_path, classification_lines):
        path = tmp_path / "map.csv"
        path.write_text("".join(classification_lines), encoding="utf-8")
        return path

    def test_full_run(self, export_file, map_file, tmp_path):
        out = tmp_path / "out"
        assert run("ingest", "--input", export_file, "--map", map_file,
                   "--outdir", out) == 0
        doc = json.loads((out / "ingest.json").read_text())
        validate_document(doc)
        assert doc["n_records"] == 4
        assert doc["n_rejections"] == 0
        assert doc["n_subfields"] == 2
        assert doc["mode_counts"] == {"overall": 4, "collaboration": 2,
                                      "single": 2}
        assert doc["map_sha256"] == file_digest(map_file)
        overall = read_counts(out / "counts_overall.txt")
        assert overall.counts.tolist() == [0, 3, 12, 30]
        lines = (out / "aggregates.tsv").read_text().splitlines()
        assert lines[0].startswith("subfield\tfield\t")
        assert (out / "rejections.tsv").read_text() == "row\treason\n"

    def test_year_window(self, export_file, map_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("ingest", "--input", export_file, "--map", map_file,
                   "--outdir", out, "--year-min", 2000,
                   "--year-max", 2004) == 0
        doc = json.loads((out / "ingest.json").read_text())
        assert doc["n_records"] == 1
        assert "--year-min 2000 --year-max 2004" in doc["command"]
        assert capsys.readouterr().err == (
            "ingest: 3 records outside the year window\n")

    def test_reversed_year_window_writes_nothing(self, export_file, map_file,
                                                 tmp_path, capsys):
        out = tmp_path / "out"
        assert run("ingest", "--input", export_file, "--map", map_file,
                   "--outdir", out, "--year-min", 2010,
                   "--year-max", 2000) == 1
        assert capsys.readouterr().err == (
            "error: --year-min 2010 is after --year-max 2000\n")
        assert not out.exists()

    def test_no_year_note_without_window(self, export_file, map_file,
                                         tmp_path, capsys):
        assert run("ingest", "--input", export_file, "--map", map_file,
                   "--outdir", tmp_path / "out") == 0
        assert "year window" not in capsys.readouterr().err

    def test_unmapped_journal_lands_in_rejections(self, export_file,
                                                  tmp_path):
        small_map = tmp_path / "small.csv"
        small_map.write_text("journal,field,subfield\n"
                             "physics world,natural,applied physics\n")
        out = tmp_path / "out"
        assert run("ingest", "--input", export_file, "--map", small_map,
                   "--outdir", out) == 0
        doc = json.loads((out / "ingest.json").read_text())
        assert doc["n_records"] == 2
        assert doc["n_rejections"] == 2
        rej = (out / "rejections.tsv").read_text().splitlines()
        assert rej[1] == "4\tunmapped journal: Botany Letters"

    def test_custom_columns(self, tmp_path, map_file):
        path = tmp_path / "odd.tsv"
        path.write_text("id\twho\tyear\tkind\tcites\twhere\n"
                        "X1\tSolo, S\t2010\tArticle\t9\tPhysics World\n"
                        "X2\tA, A; B, B\t2011\tReview\t4\tPhysics World\n")
        out = tmp_path / "out"
        assert run("ingest", "--input", path, "--map", map_file,
                   "--outdir", out, "--col-authors", "who",
                   "--col-journal", "where", "--col-doctype", "kind",
                   "--col-cited", "cites", "--col-year", "year",
                   "--col-id", "id") == 0
        doc = json.loads((out / "ingest.json").read_text())
        assert doc["n_records"] == 2
        assert doc["mode_counts"] == {"overall": 2, "collaboration": 1,
                                      "single": 1}
        assert read_counts(out / "counts_overall.txt").counts.tolist() == [
            4, 9]
        # each renamed column needs its flag
        assert run("ingest", "--input", path, "--map", map_file,
                   "--outdir", tmp_path / "bad", "--col-authors", "who") == 1


# column name of each record field, as the export header of
# TestIngestSinglePass spells it by default and renamed
_EXPORT_COLUMNS = {
    "default": DEFAULT_COLUMNS,
    "renamed": {"authors": "who", "journal": "where", "doc_type": "kind",
                "citations": "cites", "year": "when", "record_id": "id"},
}
# the defects benchmarks/corpus.py plants, one rule each
_DEFECTS = ("short", "doctype", "cites", "negative", "year", "authors",
            "noid", "duplicate", "unmapped")


def _defective_export(path: Path, names: dict) -> None:
    """An export with every planted defect kind, a duplicate whose first
    copy lies outside 2000-2009, blank lines and mixed LF/CRLF endings."""
    journals = ["Annals of Area 1 & Topic 1", "annals of area 1 and topic 1",
                "Physics  World", "Botany Letters", "Acta Mathematica"]
    header = ["PT", names["authors"], "TI", names["journal"],
              names["doc_type"], names["citations"], names["year"],
              names["record_id"]]
    lines = ["\t".join(header)]
    clean_ids = []
    for i in range(240):
        authors = "; ".join(f"Author{(i * 7 + a) % 31}, A"
                            for a in range(1 + i % 3 + (i % 5 == 0)))
        fields = ["J", authors, f"Paper {i}", journals[i % len(journals)],
                  ("Article", "Review", "Letter", "Note")[i % 4],
                  str((i * 37) % 101 + (i % 11) ** 3), str(1995 + i % 20),
                  f"WOS:{i:06d}"]
        kind = _DEFECTS[i % 20] if i % 20 < len(_DEFECTS) and i else None
        if kind == "short":
            fields = fields[:4]
        elif kind == "doctype":
            fields[4] = "Editorial Material"
        elif kind == "cites":
            fields[5] = "n/a"
        elif kind == "negative":
            fields[5] = f"-{1 + i % 9}"
        elif kind == "year":
            fields[6] = "20x5"
        elif kind == "authors":
            fields[1] = " ; "
        elif kind == "noid":
            fields[7] = ""
        elif kind == "duplicate":
            fields[7] = clean_ids[i % len(clean_ids)]
        elif kind == "unmapped":
            fields[3] = f"Unlisted Bulletin {i % 3}"
        else:
            clean_ids.append(fields[7])
        lines.append("\t".join(fields))
        if i % 17 == 0:
            lines.append("" if i % 2 else "  \t ")
    # WOS:000000 is from 1995; its copy falls inside the window
    lines.append("\t".join(["J", "Late, L", "Copy", "Botany Letters",
                            "Article", "9", "2005", "WOS:000000"]))
    path.write_bytes("".join(line + ("\r\n" if k % 3 else "\n")
                             for k, line in enumerate(lines)).encode())


def _reference_ingest(export: Path, map_path: Path, out: Path, command: str,
                      columns: dict, year_min=None, year_max=None) -> str:
    """What `ingest` writes, by the public list path: parse_export,
    filter_years, build_aggregates and mode_samples.  Returns the year
    window note."""
    from heavytails import documents
    from heavytails.ingest import (build_aggregates, filter_years,
                                   mode_samples, parse_export,
                                   read_classification)

    with open(export, encoding="utf-8-sig", newline=None) as fh:
        parsed = parse_export(fh, columns)
    records = filter_years(parsed.records, year_min, year_max)
    row_of = dict(zip((rec.record_id for rec in parsed.records),
                      parsed.source_rows))
    rows = [row_of[rec.record_id] for rec in records]
    with open(map_path, encoding="utf-8-sig", newline=None) as fh:
        classification = read_classification(fh)
    aggregates, unmapped = build_aggregates(records, classification, rows)
    rejections = sorted(list(parsed.rejections) + unmapped)
    unmapped_rows = {row for row, _ in unmapped}
    mapped = [rec for rec, row in zip(records, rows)
              if row not in unmapped_rows]
    samples = mode_samples(mapped)
    out.mkdir()
    write_aggregates(out / "aggregates.tsv", aggregates)
    (out / "rejections.tsv").write_text(
        "row\treason\n" + "".join(f"{r}\t{why}\n" for r, why in rejections))
    for mode, sample in samples.items():
        write_counts(out / f"counts_{mode}.txt", sample.counts,
                     [f"heavytails {__version__}", f"command: {command}",
                      f"mode: {mode}"])
    documents.write_document(documents.ingest_document(
        command=command, seed=0, input_digest=file_digest(export),
        map_digest=file_digest(map_path),
        n_records=len(mapped),
        n_rejections=len(rejections), n_subfields=len(aggregates),
        mode_counts={mode: len(s) for mode, s in samples.items()}),
        out / "ingest.json")
    if year_min is None and year_max is None:
        return ""
    return (f"ingest: {len(parsed.records) - len(records)} records outside "
            "the year window\n")


class TestIngestSinglePass:
    @pytest.fixture()
    def map_file(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("journal,field,subfield\n"
                        "Annals of Area 1 & Topic 1,natural,area one\n"
                        "physics world,natural,applied physics\n"
                        "BOTANY LETTERS,life,plant sciences\n"
                        "acta mathematica,formal,pure mathematics\n")
        return path

    @pytest.mark.parametrize("names, window", [
        ("default", (None, None)),
        ("default", (2000, 2009)),
        ("renamed", (None, 2004)),
    ], ids=["no-window", "window", "renamed-columns"])
    def test_outputs_equal_the_list_path(self, tmp_path, map_file, capsys,
                                         names, window):
        export = tmp_path / "export.tsv"
        _defective_export(export, _EXPORT_COLUMNS[names])
        argv = ["ingest", "--input", export, "--map", map_file,
                "--outdir", tmp_path / "out"]
        columns = {}
        if names == "renamed":
            columns = _EXPORT_COLUMNS[names]
            for field, column in columns.items():
                argv += [f"--col-{_COLUMN_FLAGS[field]}", column]
        for flag, year in zip(("--year-min", "--year-max"), window):
            if year is not None:
                argv += [flag, year]
        assert run(*argv) == 0
        captured = capsys.readouterr()
        command = json.loads((tmp_path / "out" / "ingest.json")
                             .read_text())["command"]
        note = _reference_ingest(export, map_file, tmp_path / "ref", command,
                                 columns, *window)
        assert (captured.out, captured.err) == ("", note)
        got = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        want = {p.name: p.read_bytes() for p in (tmp_path / "ref").iterdir()}
        assert got == want
        rejected = (tmp_path / "out" / "rejections.tsv").read_text()
        for reason in ("expected at least 8 fields", "excluded document",
                       "unparseable citation", "negative citation",
                       "unparseable year", "no authors", "missing record id",
                       "duplicate record id: WOS:000000", "unmapped journal"):
            assert reason in rejected

    def test_bad_header_is_reported_before_the_map_is_opened(self, tmp_path,
                                                             capsys):
        export = tmp_path / "export.tsv"
        export.write_text("AU\tSO\tDT\tPY\tUT\n")
        assert run("ingest", "--input", export, "--map",
                   tmp_path / "missing.csv", "--outdir", tmp_path / "out") == 1
        assert capsys.readouterr().err == (
            "error: missing required column: TC\n")
        assert not (tmp_path / "out").exists()

    def test_column_read_twice_is_reported_before_the_map_is_opened(
            self, tmp_path, capsys):
        export = tmp_path / "export.tsv"
        export.write_text("PT\tAU\tSO\tDT\tTC\tPY\tUT\tTC\n"
                          "J\tA; B\tJ1\tArticle\t5\t2001\tW1\t99\n")
        assert run("ingest", "--input", export, "--map",
                   tmp_path / "missing.csv", "--outdir", tmp_path / "out") == 1
        assert capsys.readouterr().err == "error: duplicate column: TC\n"
        assert not (tmp_path / "out").exists()

    def test_window_note_comes_before_a_bad_map(self, tmp_path, capsys,
                                                export_lines):
        export = tmp_path / "export.tsv"
        export.write_text("".join(export_lines))
        bad_map = tmp_path / "map.csv"
        bad_map.write_text("name,area,topic\n")
        assert run("ingest", "--input", export, "--map", bad_map,
                   "--outdir", tmp_path / "out", "--year-min", 2000) == 1
        assert capsys.readouterr().err == (
            "ingest: 1 records outside the year window\n"
            "error: classification header must be journal,field,subfield\n")
        assert not (tmp_path / "out").exists()

    def test_missing_map_is_reported_after_the_window_note(
            self, tmp_path, capsys, export_lines):
        export = tmp_path / "export.tsv"
        export.write_text("".join(export_lines))
        missing = tmp_path / "missing.csv"
        assert run("ingest", "--input", export, "--map", missing,
                   "--outdir", tmp_path / "out", "--year-min", 2000) == 1
        assert capsys.readouterr().err == (
            "ingest: 1 records outside the year window\n"
            f"error: [Errno 2] No such file or directory: '{missing}'\n")
        assert not (tmp_path / "out").exists()

    def test_unmapped_journal_outside_the_window_is_only_outside(
            self, tmp_path, capsys, map_file):
        export = tmp_path / "export.tsv"
        export.write_text("\n".join([
            EXPORT_HEADER,
            export_row("W1", "A, A", "Physics World", year=2005),
            export_row("W2", "B, B", "Unlisted Bulletin", year=1990),
            export_row("W3", "C, C", "Unlisted Bulletin", year=2006)]) + "\n")
        out = tmp_path / "out"
        assert run("ingest", "--input", export, "--map", map_file,
                   "--outdir", out, "--year-min", 2000) == 0
        assert capsys.readouterr().err == (
            "ingest: 1 records outside the year window\n")
        assert (out / "rejections.tsv").read_text() == (
            "row\treason\n4\tunmapped journal: Unlisted Bulletin\n")
        doc = json.loads((out / "ingest.json").read_text())
        assert (doc["n_records"], doc["n_rejections"]) == (1, 1)

    def test_builds_no_record(self, tmp_path, map_file, monkeypatch):
        import heavytails.ingest

        def refuse(*args):
            raise AssertionError("ingest built a BiblioRecord")
        monkeypatch.setattr(heavytails.ingest, "BiblioRecord", refuse)
        export = tmp_path / "export.tsv"
        _defective_export(export, _EXPORT_COLUMNS["default"])
        with open(export, encoding="utf-8") as fh, \
                pytest.raises(AssertionError, match="BiblioRecord"):
            heavytails.ingest.parse_export(fh)
        assert run("ingest", "--input", export, "--map", map_file,
                   "--outdir", tmp_path / "out") == 0


def _recorded_command(path: Path) -> str:
    if path.suffix == ".json":
        return json.loads(path.read_text())["command"]
    # a counts file records its command on its second header line
    return path.read_text().splitlines()[1].removeprefix("# command: ")


class TestRecordedCommand:
    @pytest.fixture()
    def workdir(self, tmp_path, counts_file, aggregates_file, export_lines,
                classification_lines, monkeypatch):
        (tmp_path / "export.tsv").write_text("".join(export_lines))
        (tmp_path / "renamed.tsv").write_text(
            "id\twho\tyear\tkind\tcites\twhere\n"
            "X1\tSolo, S\t2010\tArticle\t9\tPhysics World\n"
            "X2\tA, A; B, B\t2011\tReview\t4\tPhysics World\n")
        (tmp_path / "map.csv").write_text("".join(classification_lines))
        monkeypatch.chdir(tmp_path)
        return tmp_path

    # argv, the file that records its command, and the options whose
    # recorded value differs from the one given: --threads is left out,
    # and --epsilon is recorded as the --sims count it resolves to
    @pytest.mark.parametrize("argv, recorded_in, resolved", [
        (["fit", "--input", "counts.txt", "--outdir", "out", "--bootstrap",
          3, "--xmin", 2, "--label", "", "--seed", 0, "--threads", 2],
         "out/fit.json", {"threads": 1}),
        (["fit", "--input", "counts.txt", "--outdir", "out", "--gof",
          "--epsilon", 0.2, "--bootstrap", 2, "--min-tail", 30],
         "out/gof.json", {"sims": 7, "epsilon": None}),
        (["gof", "--input", "counts.txt", "--outdir", "out", "--sims", 5,
          "--seed", 2], "out/gof.json", {}),
        (["compare", "--input", "counts.txt", "--outdir", "out", "--label",
          "my label", "--alternatives", "lognormal, exponential"],
         "out/compare.json", {}),
        (["scaling", "--input", "aggregates.tsv", "--outdir", "out",
          "--mode", "collaboration", "--seed", 3], "out/scaling.json", {}),
        (["simulate", "--family", "powerlaw", "--alpha", 2.5, "--xmin", 2,
          "--n", 200, "--seed", 4, "--output", "sim.txt"], "sim.txt", {}),
        (["simulate", "--family", "lognormal", "--sigma", 1.5, "--mu", 1,
          "--n", 200, "--output", "sims/a sample.txt"],
         "sims/a sample.txt", {}),
        (["simulate", "--family", "exponential", "--rate", 0.25, "--n", 200,
          "--seed", 4, "--output", "sim.txt"], "sim.txt", {}),
        (["simulate", "--family", "powerlaw_cutoff", "--rate", 0.01,
          "--alpha", 1.8, "--n", 200, "--output", "sim.txt"], "sim.txt", {}),
        (["ingest", "--input", "export.tsv", "--map", "map.csv", "--outdir",
          "out", "--year-min", 2000, "--year-max", 2004], "out/ingest.json",
         {}),
        (["ingest", "--input", "renamed.tsv", "--map", "map.csv", "--outdir",
          "out", "--col-authors", "who", "--col-journal", "where",
          "--col-doctype", "kind", "--col-cited", "cites", "--col-year",
          "year", "--col-id", "id", "--seed", 5], "out/ingest.json", {}),
    ], ids=["fit", "fit-gof-epsilon", "gof", "compare", "scaling",
            "simulate-powerlaw", "simulate-lognormal", "simulate-exponential",
            "simulate-powerlaw_cutoff", "ingest-years", "ingest-columns"])
    def test_rerun_reproduces_every_output(self, workdir, argv, recorded_in,
                                           resolved):
        inputs = set(workdir.rglob("*"))

        def outputs():
            return {path: path.read_bytes() for path in workdir.rglob("*")
                    if path.is_file() and path not in inputs}

        assert run(*argv) == 0
        first = outputs()
        command = shlex.split(_recorded_command(workdir / recorded_in))
        want = vars(build_parser().parse_args([str(a) for a in argv]))
        assert vars(build_parser().parse_args(command)) == {**want,
                                                            **resolved}
        for path in first:
            path.unlink()
        assert main(command) == 0
        assert outputs() == first


class TestReportCommand:
    def test_renders_each_kind(self, counts_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("fit", "--input", counts_file, "--outdir", out,
                   "--bootstrap", 10, "--gof", "--sims", 25) == 0
        capsys.readouterr()
        assert run("report", "--input", out / "fit.json") == 0
        text = capsys.readouterr().out
        assert text.startswith("power-law fit")
        assert "+/-" in text
        assert run("report", "--input", out / "gof.json") == 0
        assert "power law" in capsys.readouterr().out

    def test_control_characters_escaped_before_layout(self, counts_file,
                                                      tmp_path, capsys):
        # a raw carriage return would overwrite the row's start on a
        # terminal, and count as one column of width
        out = tmp_path / "out"
        assert run("fit", "--input", counts_file, "--outdir", out,
                   "--bootstrap", 0, "--label", "evil\rX\x85") == 0
        capsys.readouterr()
        assert run("report", "--input", out / "fit.json") == 0
        header, rule, row = capsys.readouterr().out.splitlines()[1:]
        assert row.startswith("evil\\rX\\x85  1 +/- ")
        assert rule.split()[0] == "-" * len("evil\\rX\\x85")
        assert header.index("x_min") == row.index("1 +/- ")

    def test_renders_a_document_nested_as_deep_as_json_parses(self, tmp_path,
                                                              capsys):
        # the escape pass copies the document without recursing
        depth = 450
        doc = {"document": "gof", "label": "x", "x_min": 1, "alpha": 2.5,
               "ks_empirical": 0.1, "n_sims": 3, "n_exceeding": 1,
               "p_value": 0.3, "ruled_out": False}
        text = json.dumps(doc)[:-1] + (', "extra": ' + '{"a": [' * depth
                                       + "]}" * depth + "}")
        deep = tmp_path / "deep.json"
        deep.write_text(text)
        json.loads(text)  # within what json parses
        assert run("report", "--input", deep) == 0
        assert capsys.readouterr().out.startswith(
            "goodness of fit for x (x_min 1, alpha 2.5)\n")

    def test_rejects_unknown_document(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"document": "mystery"}')
        assert run("report", "--input", bad) == 1
        assert "unknown document kind" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ('{"document": "fit", "seed": 1}',
         "fit document lacks field 'label'"),
        ('{"document": "gof", "label": "x", "x_min": 1, "alpha": 2.5}',
         "gof document lacks field 'ruled_out'"),
        ('[1, 2]', "a result document must be a JSON object"),
        ('{"document": ["fit"]}', "unknown document kind: ['fit']"),
        ('{"document": "compare", "label": "x", "x_min": 1, "alpha": 2.5,'
         ' "comparisons": [1]}', "malformed compare document"),
        ('{"document": "scaling", "modes": []}',
         "scaling document needs 'modes' to be a non-empty object"),
        ('{"document": "scaling", "modes": {}}',
         "scaling document needs 'modes' to be a non-empty object"),
    ], ids=["fit-field", "gof-field", "array", "kind", "nested",
            "scaling-modes-list", "scaling-modes-empty"])
    def test_malformed_document_is_an_error(self, tmp_path, capsys, text,
                                            message):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert run("report", "--input", bad) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == ""


def fresh_process(code, *args, cwd=None, module=False, timeout=None):
    """Run ``code`` (or, with ``module``, the module it names) in a fresh
    interpreter, with the package under test first on the path; return the
    finished process.  Past ``timeout`` seconds it is killed and the call
    raises."""
    env = dict(os.environ)
    root = str(Path(heavytails.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (root, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m" if module else "-c", code,
                           *map(str, args)], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def fresh_python(code, *args, cwd=None, module=False):
    """Run ``code`` as fresh_process does; return its standard output."""
    proc = fresh_process(code, *args, cwd=cwd, module=module)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# runs one command, then prints its exit code and which of the modules named
# by its first argument (comma-separated) it loaded, as a Python literal: it
# imports no json, so that a command can be seen not to load it
COMMAND_PROBE = """
import sys
from heavytails.cli import main
watched = sys.argv.pop(1).split(",")
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(repr([code, [m for m in watched if m in sys.modules]]))
"""


def probe_command(watched, *argv, cwd):
    """[exit code, the watched modules loaded] of one command."""
    out = fresh_python(COMMAND_PROBE, ",".join(watched), *argv, cwd=cwd)
    return ast.literal_eval(out.splitlines()[-1])


# wraps export_rows to note, once ingest's row loop has run dry, whether
# hashlib is loaded; then prints the exit code, that note, and whether
# hashlib is loaded at the end
INGEST_PROBE = """
import sys
import heavytails.ingest as ingest
from heavytails.cli import main
rows, seen = ingest.export_rows, []
def export_rows(*args):
    yield from rows(*args)
    seen.append("hashlib" in sys.modules)
ingest.export_rows = export_rows
print(repr([main(sys.argv[1:]), seen, "hashlib" in sys.modules]))
"""

NAMESPACE_PROBE = """
import sys, types
import heavytails
assert "numpy" not in sys.modules
for name in ("documents", "report", "powerlaw"):
    assert isinstance(getattr(heavytails, name), types.ModuleType), name
listed = dir(heavytails)
for name in heavytails.__all__:
    getattr(heavytails, name)
    assert name in listed, name
try:
    heavytails.no_such_name
except AttributeError:
    print("ok")
"""


class TestImports:
    def test_cli_imports_no_scipy_optimize_or_stats(self):
        # nor any other part of scipy, with the module that once needed it
        probe = ("import sys, heavytails.cli, heavytails.altmodels; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == "
                 "'scipy'))")
        assert fresh_python(probe).strip() == "[]"

    @pytest.fixture()
    def workdir(self, tmp_path, counts_file, aggregates_file, export_lines,
                classification_lines):
        (tmp_path / "counts.txt").write_bytes(counts_file.read_bytes())
        (tmp_path / "export.tsv").write_text("".join(export_lines))
        (tmp_path / "map.csv").write_text("".join(classification_lines))
        assert run("fit", "--input", tmp_path / "counts.txt", "--outdir",
                   tmp_path / "doc", "--bootstrap", 0) == 0
        return tmp_path

    # numpy.random loads hashlib itself; the commands that write a document
    # load it, with json and shlex, only to record and digest their inputs
    WATCHED = ("numpy", "scipy", "concurrent.futures", "numpy.polynomial",
               "statistics", "hashlib", "shlex", "json",
               "heavytails.documents", "heavytails.report")
    RECORDED = ["hashlib", "shlex"]
    WRITER = ["hashlib", "shlex", "json", "heavytails.documents"]

    @pytest.mark.parametrize("argv, loaded", [
        (["--version"], []),
        (["report", "--input", "doc/fit.json"], ["json", "heavytails.report"]),
        (["simulate", "--family", "powerlaw", "--n", 100, "--alpha", 2.5,
          "--output", "sim.txt"], ["numpy", *RECORDED]),
        (["simulate", "--family", "lognormal", "--n", 100, "--mu", 1.0,
          "--sigma", 1.5, "--output", "sim.txt"], ["numpy", *RECORDED]),
        (["fit", "--input", "counts.txt", "--outdir", "out", "--bootstrap",
          5, "--gof", "--sims", 5], ["numpy", *WRITER]),
        # a job this small starts no process pool
        (["fit", "--input", "counts.txt", "--outdir", "out", "--bootstrap",
          5, "--gof", "--sims", 5, "--threads", 2], ["numpy", *WRITER]),
        (["gof", "--input", "counts.txt", "--outdir", "out", "--sims", 5],
         ["numpy", *WRITER]),
        (["ingest", "--input", "export.tsv", "--map", "map.csv", "--outdir",
          "out"], WRITER),
        (["compare", "--input", "counts.txt", "--outdir", "out"],
         ["numpy", *WRITER]),
        (["scaling", "--input", "aggregates.tsv", "--outdir", "out"], WRITER),
    ], ids=["version", "report", "simulate", "simulate-lognormal", "fit",
            "fit-threads", "gof", "ingest", "compare", "scaling"])
    def test_command_imports_only_what_it_runs(self, workdir, argv, loaded):
        assert probe_command(self.WATCHED, *argv, cwd=workdir) == [0, loaded]

    def test_ingest_keeps_its_rows_before_hashlib_loads(self, workdir):
        # the row loop sets ingest's peak memory; OpenSSL loads after it,
        # for the digests
        out = fresh_python(INGEST_PROBE, "ingest", "--input", "export.tsv",
                           "--map", "map.csv", "--outdir", "out", cwd=workdir)
        assert ast.literal_eval(out.splitlines()[-1]) == [0, [False], True]

    def test_reading_aggregates_loads_no_numpy(self, workdir):
        probe = ("import sys\nfrom heavytails.dataset import read_aggregates\n"
                 "assert len(read_aggregates(sys.argv[1])) == 6\n"
                 "print('numpy' in sys.modules)")
        assert fresh_python(probe, workdir / "aggregates.tsv").strip() == "False"

    def test_counts_work_before_numpy_is_loaded(self, tmp_path):
        # dataset imports numpy inside the functions that use it
        probe = ("import sys\n"
                 "from heavytails.dataset import CitationSample, read_counts, "
                 "write_counts\n"
                 "assert 'numpy' not in sys.modules\n"
                 "write_counts(sys.argv[1], [3, 1, 1, 7], header=['h'])\n"
                 "print(list(CitationSample([2, 0, 2], 'x')), "
                 "list(read_counts(sys.argv[1])))")
        out = fresh_python(probe, tmp_path / "c.txt")
        assert out.strip() == "[0, 2, 2] [1, 1, 3, 7]"
        assert (tmp_path / "c.txt").read_text() == "# h\n3\n1\n1\n7\n"

    def test_writing_counts_loads_no_numpy(self, tmp_path):
        probe = ("import sys\nfrom array import array\n"
                 "from heavytails.dataset import write_counts\n"
                 "values = [0, 3, 3, 12]\n"
                 "for name, counts in (('list', values), "
                 "('array', array('q', values)), "
                 "('digest', {12: 1, 0: 1, 3: 2})):\n"
                 "    write_counts(name, counts, header=['h'])\n"
                 "assert 'numpy' not in sys.modules\n"
                 "import numpy as np\n"
                 "write_counts('ndarray', np.array(values), header=['h'])\n")
        fresh_python(probe, cwd=tmp_path)
        for name in ("list", "array", "digest", "ndarray"):
            assert (tmp_path / name).read_bytes() == b"# h\n0\n3\n3\n12\n"

    # documents itself loads dataclasses, and with it inspect; `--version`
    # and `report` never load documents
    @pytest.mark.parametrize("argv", [
        ["--version"], ["report", "--input", "doc/fit.json"],
    ], ids=["version", "report"])
    def test_light_commands_load_no_dataclasses(self, workdir, argv):
        assert probe_command(["dataclasses", "inspect"], *argv,
                             cwd=workdir) == [0, []]

    def test_module_runs_as_a_script(self):
        out = fresh_python("heavytails.cli", "--version", module=True)
        assert out.strip() == f"heavytails {__version__}"

    def test_exports_load_on_first_use(self):
        assert fresh_python(NAMESPACE_PROBE).strip() == "ok"
