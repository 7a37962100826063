"""Command-line front end for the analysis pipeline.

Commands: ingest, fit, gof, compare, scaling, simulate, report.  Machine
documents and plot CSVs go to files; human tables come from `report`;
progress notes go to stderr so data streams stay clean.  All randomness
flows from --seed, and results are identical for any --threads value.
Each command imports the package modules it runs, when it runs, so that
`report` and `--version` start without numpy or scipy.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
from pathlib import Path

from . import documents
from ._constants import (DEFAULT_BOOTSTRAP_REPS, DEFAULT_MIN_TAIL,
                         DEFAULT_SIMS, FAMILIES, MODES)
from ._version import __version__
from .report import render

__all__ = ["build_parser", "main", "entry"]


def _q(value) -> str:
    return shlex.quote(str(value))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heavytails",
        description="Heavy-tailed citation analysis: power-law fitting, "
                    "goodness of fit, model comparison, and scaling "
                    "regressions.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, bootstrap=False, sims=False, xmin=False):
        p.add_argument("--input", required=True, type=Path,
                       help="input file")
        p.add_argument("--outdir", type=Path, default=Path("."),
                       help="directory for output artifacts")
        p.add_argument("--seed", type=int, default=0,
                       help="base seed; all randomness derives from it")
        p.add_argument("--threads", type=int, default=1,
                       help="worker processes (never changes results)")
        if xmin:
            p.add_argument("--label", help="sample label (default: file stem)")
            p.add_argument("--xmin", type=int,
                           help="pin x_min instead of scanning")
            p.add_argument("--min-tail", type=int, default=DEFAULT_MIN_TAIL,
                           help="smallest admissible tail in the x_min scan")
        if bootstrap:
            p.add_argument("--bootstrap", type=int,
                           default=DEFAULT_BOOTSTRAP_REPS,
                           help="bootstrap replicates for the +/- values")
        if sims:
            group = p.add_mutually_exclusive_group()
            group.add_argument("--sims", type=int,
                               help="Monte Carlo simulations for the p-value")
            group.add_argument("--epsilon", type=float,
                               help="p-value precision; sims = ceil(1/(4 eps^2))")

    p_fit = sub.add_parser("fit", help="fit x_min and alpha to a counts file")
    common(p_fit, bootstrap=True, sims=True, xmin=True)
    p_fit.add_argument("--gof", action="store_true",
                       help="also run the goodness-of-fit test")

    p_gof = sub.add_parser("gof", help="goodness-of-fit test only")
    common(p_gof, sims=True, xmin=True)

    p_cmp = sub.add_parser("compare",
                           help="likelihood-ratio tests against alternatives")
    common(p_cmp, xmin=True)
    p_cmp.add_argument("--alternatives", default=",".join(FAMILIES),
                       help="comma-separated families to test")

    p_sca = sub.add_parser("scaling",
                           help="log-log scaling regression over subfields")
    common(p_sca)
    p_sca.add_argument("--mode", choices=MODES + ("all",), default="all")

    p_sim = sub.add_parser("simulate", help="write a synthetic counts file")
    p_sim.add_argument("--family", required=True,
                       choices=("powerlaw",) + FAMILIES)
    p_sim.add_argument("--n", required=True, type=int)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--xmin", type=int, default=1)
    p_sim.add_argument("--alpha", type=float)
    p_sim.add_argument("--rate", type=float)
    p_sim.add_argument("--mu", type=float)
    p_sim.add_argument("--sigma", type=float)
    p_sim.add_argument("--output", required=True, type=Path)

    p_rep = sub.add_parser("report", help="render a result document")
    p_rep.add_argument("--input", required=True, type=Path)

    p_ing = sub.add_parser("ingest",
                           help="parse a bibliographic export into samples "
                                "and aggregates")
    p_ing.add_argument("--input", required=True, type=Path)
    p_ing.add_argument("--map", required=True, type=Path,
                       help="journal classification CSV journal,field,subfield")
    p_ing.add_argument("--outdir", type=Path, default=Path("."))
    p_ing.add_argument("--seed", type=int, default=0)
    p_ing.add_argument("--year-min", type=int)
    p_ing.add_argument("--year-max", type=int)
    p_ing.add_argument("--col-authors", default="AU")
    p_ing.add_argument("--col-journal", default="SO")
    p_ing.add_argument("--col-doctype", default="DT")
    p_ing.add_argument("--col-cited", default="TC")
    p_ing.add_argument("--col-year", default="PY")
    p_ing.add_argument("--col-id", default="UT")
    return parser


def _resolve_sims(args) -> int:
    if getattr(args, "sims", None) is not None:
        if args.sims < 1:
            raise ValueError("--sims must be at least 1")
        return args.sims
    if getattr(args, "epsilon", None) is not None:
        from .gof import required_sims
        return required_sims(args.epsilon)
    return DEFAULT_SIMS


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def _cell(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


# --threads is deliberately left out of recorded command lines: it cannot
# change results, and documents must be byte-identical across worker counts
def _fit_like_command(args, n_sims=None) -> str:
    parts = [args.command, "--input", _q(args.input), "--outdir",
             _q(args.outdir)]
    if args.label:
        parts += ["--label", _q(args.label)]
    if args.xmin is not None:
        parts += ["--xmin", str(args.xmin)]
    parts += ["--min-tail", str(args.min_tail)]
    if args.command == "fit":
        parts += ["--bootstrap", str(args.bootstrap)]
    parts += ["--seed", str(args.seed)]
    if args.command == "compare":
        parts += ["--alternatives", args.alternatives]
    if n_sims is not None:
        if args.command == "fit":
            parts.append("--gof")
        parts += ["--sims", str(n_sims)]
    return " ".join(parts)


def _cmd_fit(args) -> None:
    from .dataset import read_counts
    from .gof import gof_test
    from .powerlaw import ccdf_table, fit_power_law

    sample = read_counts(args.input, label=args.label)
    n_sims = _resolve_sims(args) if args.gof else None
    if args.bootstrap > 0:
        print(f"bootstrap: {args.bootstrap} replicates", file=sys.stderr)
    fit = fit_power_law(sample, x_min=args.xmin, min_tail=args.min_tail,
                        bootstrap_reps=args.bootstrap, seed=args.seed,
                        workers=args.threads)
    command = _fit_like_command(args, n_sims)
    digest = documents.file_digest(args.input)
    args.outdir.mkdir(parents=True, exist_ok=True)
    doc = documents.fit_document(fit, sample.label, command=command,
                                 seed=args.seed, input_digest=digest,
                                 min_tail=args.min_tail,
                                 bootstrap_reps=args.bootstrap)
    documents.write_document(doc, args.outdir / "fit.json")
    _write_csv(args.outdir / "ccdf.csv", "x,ccdf_empirical,ccdf_model",
               ccdf_table(sample, fit.model()))
    if args.gof:
        print(f"gof: {n_sims} simulations", file=sys.stderr)
        result = gof_test(sample, fit, n_sims, args.seed,
                          workers=args.threads, min_tail=args.min_tail)
        gdoc = documents.gof_document(result, fit, sample.label,
                                      command=command, seed=args.seed,
                                      input_digest=digest)
        documents.write_document(gdoc, args.outdir / "gof.json")


def _cmd_gof(args) -> None:
    from .dataset import read_counts
    from .gof import gof_test
    from .powerlaw import fit_power_law

    sample = read_counts(args.input, label=args.label)
    n_sims = _resolve_sims(args)
    fit = fit_power_law(sample, x_min=args.xmin, min_tail=args.min_tail,
                        bootstrap_reps=0, seed=args.seed)
    print(f"gof: {n_sims} simulations", file=sys.stderr)
    result = gof_test(sample, fit, n_sims, args.seed, workers=args.threads,
                      min_tail=args.min_tail)
    command = _fit_like_command(args, n_sims)
    args.outdir.mkdir(parents=True, exist_ok=True)
    doc = documents.gof_document(result, fit, sample.label, command=command,
                                 seed=args.seed,
                                 input_digest=documents.file_digest(args.input))
    documents.write_document(doc, args.outdir / "gof.json")


def _cmd_compare(args) -> None:
    from .altmodels import compare_models
    from .dataset import read_counts
    from .powerlaw import fit_power_law

    sample = read_counts(args.input, label=args.label)
    alternatives = tuple(a.strip() for a in args.alternatives.split(",")
                         if a.strip())
    for family in alternatives:
        if family not in FAMILIES:
            raise ValueError(f"unknown family: {family!r}")
    fit = fit_power_law(sample, x_min=args.xmin, min_tail=args.min_tail,
                        bootstrap_reps=0, seed=args.seed)
    comparisons = compare_models(sample, fit, alternatives)
    command = _fit_like_command(args)
    args.outdir.mkdir(parents=True, exist_ok=True)
    doc = documents.compare_document(comparisons, fit, sample.label,
                                     command=command, seed=args.seed,
                                     input_digest=documents.file_digest(args.input))
    documents.write_document(doc, args.outdir / "compare.json")
    with open(args.outdir / "comparison.tsv", "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write("alternative\tlr\tp\tverdict\n")
        for c in comparisons:
            fh.write(f"{c.alternative}\t{c.lr!r}\t{c.p!r}\t{c.verdict}\n")


def _cmd_scaling(args) -> None:
    from .dataset import read_aggregates
    from .scaling import points_from_aggregates, scaling_fit, scatter_table

    aggregates = read_aggregates(args.input)
    modes = MODES if args.mode == "all" else (args.mode,)
    results = {}
    tables = {}
    for mode in modes:
        points, excluded = points_from_aggregates(aggregates, mode)
        try:
            fit = scaling_fit(points)
        except ValueError as exc:
            raise ValueError(f"mode {mode}: {exc}") from None
        results[mode] = (fit, excluded)
        tables[mode] = scatter_table(points, fit)
    command = " ".join(["scaling", "--input", _q(args.input), "--outdir",
                        _q(args.outdir), "--mode", args.mode,
                        "--seed", str(args.seed)])
    args.outdir.mkdir(parents=True, exist_ok=True)
    doc = documents.scaling_document(results, command=command, seed=args.seed,
                                     input_digest=documents.file_digest(args.input))
    documents.write_document(doc, args.outdir / "scaling.json")
    for mode, rows in tables.items():
        _write_csv(args.outdir / f"scatter_{mode}.csv",
                   "subfield,size,cbp,expected_cbp,indicator", rows)


def _cmd_simulate(args) -> None:
    from .dataset import write_counts

    if args.n < 1:
        raise ValueError("--n must be at least 1")

    def need(**params):
        missing = [f"--{name}" for name, v in params.items() if v is None]
        if missing:
            raise ValueError(f"family {args.family} requires "
                             + ", ".join(missing))

    command_parts = ["simulate", "--family", args.family,
                     "--xmin", str(args.xmin)]
    if args.family == "powerlaw":
        from .powerlaw import DiscretePowerLaw, sample_power_law
        need(alpha=args.alpha)
        model = DiscretePowerLaw(args.xmin, args.alpha)
        command_parts += ["--alpha", repr(args.alpha)]
        sample = sample_power_law(model, args.n, args.seed)
    else:
        from .altmodels import AltFit, sample_alternative
        if args.family == "exponential":
            need(rate=args.rate)
            params = (args.rate,)
            command_parts += ["--rate", repr(args.rate)]
        elif args.family == "lognormal":
            need(mu=args.mu, sigma=args.sigma)
            params = (args.mu, args.sigma)
            command_parts += ["--mu", repr(args.mu), "--sigma",
                              repr(args.sigma)]
        else:
            need(alpha=args.alpha, rate=args.rate)
            params = (args.alpha, args.rate)
            command_parts += ["--alpha", repr(args.alpha),
                              "--rate", repr(args.rate)]
        fit = AltFit(args.family, params, args.xmin, 0.0)
        sample = sample_alternative(fit, args.n, args.seed)
    command_parts += ["--n", str(args.n), "--seed", str(args.seed),
                      "--output", _q(args.output)]
    header = [f"heavytails {__version__}",
              f"command: {' '.join(command_parts)}",
              f"seed: {args.seed}"]
    args.output.parent.mkdir(parents=True, exist_ok=True)
    write_counts(args.output, sample.counts, header)


def _cmd_ingest(args) -> None:
    from .dataset import write_aggregates, write_counts
    from .ingest import (build_aggregates, filter_years, mode_samples,
                         normalize_journal, parse_export, read_classification)

    if (args.year_min is not None and args.year_max is not None
            and args.year_min > args.year_max):
        raise ValueError(f"--year-min {args.year_min} is after "
                         f"--year-max {args.year_max}")
    columns = {
        "authors": args.col_authors,
        "journal": args.col_journal,
        "doc_type": args.col_doctype,
        "citations": args.col_cited,
        "year": args.col_year,
        "record_id": args.col_id,
    }
    with open(args.input, "r", encoding="utf-8-sig", newline=None) as fh:
        parsed = parse_export(fh, columns)
    records = filter_years(parsed.records, args.year_min, args.year_max)
    if args.year_min is not None or args.year_max is not None:
        print(f"ingest: {len(parsed.records) - len(records)} records outside "
              "the year window", file=sys.stderr)
    # record ids are unique once parse_export has rejected duplicates
    row_of = dict(zip((rec.record_id for rec in parsed.records),
                      parsed.source_rows))
    rows = [row_of[rec.record_id] for rec in records]
    with open(args.map, "r", encoding="utf-8-sig", newline=None) as fh:
        classification = read_classification(fh)
    aggregates, unmapped = build_aggregates(records, classification, rows)
    rejections = sorted(list(parsed.rejections) + list(unmapped))
    # counts samples cover the same corpus as the aggregates: mapped journals
    mapped = [rec for rec in records
              if normalize_journal(rec.journal) in classification]

    args.outdir.mkdir(parents=True, exist_ok=True)
    write_aggregates(args.outdir / "aggregates.tsv", aggregates)
    with open(args.outdir / "rejections.tsv", "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write("row\treason\n")
        for row, reason in rejections:
            fh.write(f"{row}\t{reason}\n")
    samples = mode_samples(mapped)
    command = ["ingest", "--input", _q(args.input), "--map", _q(args.map),
               "--outdir", _q(args.outdir)]
    if args.year_min is not None:
        command += ["--year-min", str(args.year_min)]
    if args.year_max is not None:
        command += ["--year-max", str(args.year_max)]
    command += ["--seed", str(args.seed)]
    command_str = " ".join(command)
    for mode, sample in samples.items():
        write_counts(args.outdir / f"counts_{mode}.txt", sample.counts,
                     [f"heavytails {__version__}", f"command: {command_str}",
                      f"mode: {mode}"])
    doc = documents.ingest_document(
        command=command_str, seed=args.seed,
        input_digest=documents.file_digest(args.input),
        map_digest=documents.file_digest(args.map),
        n_records=len(mapped), n_rejections=len(rejections),
        n_subfields=len(aggregates),
        mode_counts={mode: len(s) for mode, s in samples.items()})
    documents.write_document(doc, args.outdir / "ingest.json")


def _cmd_report(args) -> None:
    doc = json.loads(Path(args.input).read_text(encoding="utf-8"))
    print(render(doc))


_RUNNERS = {
    "fit": _cmd_fit,
    "gof": _cmd_gof,
    "compare": _cmd_compare,
    "scaling": _cmd_scaling,
    "simulate": _cmd_simulate,
    "ingest": _cmd_ingest,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "threads", 1) < 1:
            raise ValueError("--threads must be at least 1")
        _RUNNERS[args.command](args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
