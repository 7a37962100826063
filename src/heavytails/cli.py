"""Command-line front end for the analysis pipeline.

Commands: ingest, fit, gof, compare, scaling, simulate, report.  Machine
documents and plot CSVs go to files; human tables come from `report`;
progress notes go to stderr so data streams stay clean.  All randomness
flows from --seed, and results are identical for any --threads value.
Each command imports the package modules it runs, when it runs, so that
`ingest`, `scaling`, `report` and `--version` run without numpy, and the
other commands with numpy alone.  `--version` and `report` load neither
OpenSSL, through hashlib, nor the document writer.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ._constants import (DEFAULT_BOOTSTRAP_REPS, DEFAULT_MIN_TAIL,
                         DEFAULT_SIMS, FAMILIES, FAMILY_PARAMS, MODES)
from ._version import __version__

__all__ = ["build_parser", "main", "entry"]

# simulate family -> its parameter flags, in the order the model takes them
# and the recorded command lists them
_SIM_PARAMS = {"powerlaw": ("alpha",), **FAMILY_PARAMS}

# record field -> its ingest flag, --col-<flag>
_COLUMN_FLAGS = {
    "authors": "authors",
    "journal": "journal",
    "doc_type": "doctype",
    "citations": "cited",
    "year": "year",
    "record_id": "id",
}

# command -> the options its recorded command lists, in this order.
# --threads is deliberately left out: it cannot change results, and
# documents must be byte-identical across worker counts.  --epsilon is
# recorded as the --sims count it resolves to.
_RECORDED = {
    "fit": ("input", "outdir", "label", "xmin", "min_tail", "bootstrap",
            "seed", "gof", "sims"),
    "gof": ("input", "outdir", "label", "xmin", "min_tail", "seed", "sims"),
    "compare": ("input", "outdir", "label", "xmin", "min_tail", "seed",
                "alternatives"),
    "scaling": ("input", "outdir", "mode", "seed"),
    "ingest": ("input", "map", "outdir", "year_min", "year_max", "seed",
               *(f"col_{flag}" for flag in _COLUMN_FLAGS.values())),
}

# option -> its smallest legal value, checked before any output
_LEAST = {"threads": 1, "seed": 0, "bootstrap": 0, "min_tail": 0, "sims": 1,
          "n": 1}


def _deferred(name: str):
    """This module's global ``documents`` or ``render``, imported on first
    use: documents itself loads hashlib, and with it OpenSSL, which
    `report` and `--version` never load.  The commands call through these
    globals, so that whoever replaces one (a tracer) sees every call."""
    if name not in globals():
        if name == "documents":
            from . import documents as value
        else:
            from .report import render as value
        globals()[name] = value
    return globals()[name]


def __getattr__(name: str):
    if name in ("documents", "render"):
        return _deferred(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _recorded(args, names) -> str:
    """The command line that reruns ``args``: each named option that is
    set, in the given order, a true switch as a bare flag."""
    import shlex

    parts = [args.command]
    for name in names:
        value = getattr(args, name)
        if value is None or value is False:
            continue
        parts.append(f"--{name.replace('_', '-')}")
        if value is not True:
            parts.append(shlex.quote(str(value)))
    return " ".join(parts)


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
        if bootstrap or sims:  # where replicates run
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
    p_fit.set_defaults(run=_cmd_fit)

    p_gof = sub.add_parser("gof", help="goodness-of-fit test only")
    common(p_gof, sims=True, xmin=True)
    p_gof.set_defaults(run=_cmd_fit, bootstrap=0, gof=True)

    p_cmp = sub.add_parser("compare",
                           help="likelihood-ratio tests against alternatives")
    common(p_cmp, xmin=True)
    p_cmp.add_argument("--alternatives", default=",".join(FAMILIES),
                       help="comma-separated families to test")
    p_cmp.set_defaults(run=_cmd_compare)

    p_sca = sub.add_parser("scaling",
                           help="log-log scaling regression over subfields")
    common(p_sca)
    p_sca.add_argument("--mode", choices=MODES + ("all",), default="all")
    p_sca.set_defaults(run=_cmd_scaling)

    p_sim = sub.add_parser("simulate", help="write a synthetic counts file")
    p_sim.add_argument("--family", required=True, choices=tuple(_SIM_PARAMS))
    p_sim.add_argument("--n", required=True, type=int)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--xmin", type=int, default=1)
    for name in ("alpha", "rate", "mu", "sigma"):  # _SIM_PARAMS' flags
        p_sim.add_argument(f"--{name}", type=float)
    p_sim.add_argument("--output", required=True, type=Path)
    p_sim.set_defaults(run=_cmd_simulate)

    p_rep = sub.add_parser("report", help="render a result document")
    p_rep.add_argument("--input", required=True, type=Path)
    p_rep.set_defaults(run=_cmd_report)

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
    for field, flag in _COLUMN_FLAGS.items():
        p_ing.add_argument(f"--col-{flag}")
    p_ing.set_defaults(run=_cmd_ingest)
    return parser


def _publisher(args):
    """publish(kind, *results, **fields): ``documents.<kind>_document``,
    recording the command, the seed and the input's SHA-256 (hashed once
    per command), written to ``<kind>.json`` in --outdir."""
    documents = _deferred("documents")
    envelope = {"command": _recorded(args, _RECORDED[args.command]),
                "seed": args.seed,
                "input_digest": documents.file_digest(args.input)}

    def publish(kind: str, *results, **fields) -> None:
        args.outdir.mkdir(parents=True, exist_ok=True)
        build = getattr(documents, f"{kind}_document")
        documents.write_document(build(*results, **envelope, **fields),
                                 args.outdir / f"{kind}.json")
    return publish


def _read_and_fit(args, bootstrap_reps: int = 0, workers: int = 1):
    """The --input counts as a sample, and its power-law fit."""
    from .dataset import read_counts
    from .powerlaw import fit_power_law

    sample = read_counts(args.input, label=args.label)
    if bootstrap_reps > 0:
        print(f"bootstrap: {bootstrap_reps} replicates", file=sys.stderr)
    return sample, fit_power_law(sample, x_min=args.xmin,
                                 min_tail=args.min_tail,
                                 bootstrap_reps=bootstrap_reps,
                                 seed=args.seed, workers=workers)


def _cmd_fit(args) -> None:
    """`fit`, and `gof`, which is `fit --gof --bootstrap 0` writing only
    gof.json: nothing at all when its test fails."""
    from .dataset import write_table
    from .gof import gof_test, required_sims
    from .powerlaw import ccdf_table

    if not args.gof and (args.sims is not None or args.epsilon is not None):
        raise ValueError("--sims and --epsilon need --gof")
    if args.epsilon is not None:  # then --sims is not given
        args.sims = required_sims(args.epsilon)
    elif args.gof and args.sims is None:
        args.sims = DEFAULT_SIMS
    sample, fit = _read_and_fit(args, args.bootstrap, args.threads)
    publish = _publisher(args)
    if args.command == "fit":
        publish("fit", fit, sample.label, min_tail=args.min_tail,
                bootstrap_reps=args.bootstrap)
        write_table(args.outdir / "ccdf.csv",
                    ("x", "ccdf_empirical", "ccdf_model"),
                    ccdf_table(sample, fit.model()))
    if args.gof:
        print(f"gof: {args.sims} simulations", file=sys.stderr)
        result = gof_test(sample, fit, args.sims, args.seed,
                          workers=args.threads, min_tail=args.min_tail,
                          x_min=args.xmin)
        publish("gof", result, fit, sample.label)


def _cmd_compare(args) -> None:
    from .altmodels import _check_families, compare_models
    from .dataset import write_table

    alternatives = tuple(a.strip() for a in args.alternatives.split(",")
                         if a.strip())
    if not alternatives:
        raise ValueError("--alternatives names no family")
    _check_families(alternatives)
    sample, fit = _read_and_fit(args)
    comparisons = compare_models(sample, fit, alternatives)
    _publisher(args)("compare", comparisons, fit, sample.label)
    write_table(args.outdir / "comparison.tsv",
                ("alternative", "lr", "p", "verdict"),
                ((c.alternative, c.lr, c.p, c.verdict) for c in comparisons),
                sep="\t")


def _cmd_scaling(args) -> None:
    from .dataset import read_aggregates, write_table
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
    _publisher(args)("scaling", results)
    for mode, rows in tables.items():
        write_table(args.outdir / f"scatter_{mode}.csv",
                    ("subfield", "size", "cbp", "expected_cbp", "indicator"),
                    rows)


def _cmd_simulate(args) -> None:
    from .dataset import write_counts

    names = _SIM_PARAMS[args.family]
    params = tuple(getattr(args, name) for name in names)
    missing = [f"--{name}" for name, v in zip(names, params) if v is None]
    if missing:
        raise ValueError(f"family {args.family} requires {', '.join(missing)}")
    if args.family == "powerlaw":
        from .powerlaw import DiscretePowerLaw, sample_power_law
        sample = sample_power_law(DiscretePowerLaw(args.xmin, *params),
                                  args.n, args.seed)
    else:
        from .altmodels import AltFit, sample_alternative
        fit = AltFit(args.family, params, args.xmin, 0.0)
        sample = sample_alternative(fit, args.n, args.seed)
    command = _recorded(args, ("family", "xmin", *names, "n", "seed",
                               "output"))
    header = [f"heavytails {__version__}", f"command: {command}",
              f"seed: {args.seed}"]
    args.output.parent.mkdir(parents=True, exist_ok=True)
    write_counts(args.output, dict(zip(sample.values.tolist(),
                                       sample.multiplicities.tolist())),
                 header)


def _cmd_ingest(args) -> None:
    from .dataset import write_aggregates, write_counts, write_table
    from .ingest import Tally, export_rows, in_window, read_classification

    if (args.year_min is not None and args.year_max is not None
            and args.year_min > args.year_max):
        raise ValueError(f"--year-min {args.year_min} is after "
                         f"--year-max {args.year_max}")
    # export_rows reads a field whose flag is not given from its
    # DEFAULT_COLUMNS column
    columns = {field: column for field, flag in _COLUMN_FLAGS.items()
               if (column := getattr(args, f"col_{flag}")) is not None}
    window = args.year_min is not None or args.year_max is not None
    # rows are tallied as they pass, so the map is read first; its error
    # waits for the export's own errors and the window note
    try:
        with open(args.map, "r", encoding="utf-8-sig", newline=None) as fh:
            classification, map_error = read_classification(fh), None
    except (ValueError, OSError) as exc:
        classification, map_error = None, exc
    tally, outside = Tally(classification), 0
    with open(args.input, "r", encoding="utf-8-sig", newline=None) as fh:
        # row: record_id, authors, journal, doc_type, citations, year
        for lineno, row, reason in export_rows(fh, columns):
            if row is None:
                tally.rejections.append((lineno, reason))
            elif window and not in_window(row[5], args.year_min,
                                          args.year_max):
                outside += 1
            else:
                tally.add(lineno, row[1], row[2], row[4])
    if window:
        print(f"ingest: {outside} records outside the year window",
              file=sys.stderr)
    if map_error is not None:
        raise map_error
    # counts files cover the same corpus as the aggregates: mapped journals
    aggregates, modes = tally.result()

    args.outdir.mkdir(parents=True, exist_ok=True)
    write_aggregates(args.outdir / "aggregates.tsv", aggregates)
    write_table(args.outdir / "rejections.tsv", ("row", "reason"),
                tally.rejections, sep="\t")
    command = _recorded(args, _RECORDED["ingest"])
    for mode, digest in modes.items():
        write_counts(args.outdir / f"counts_{mode}.txt", digest,
                     [f"heavytails {__version__}", f"command: {command}",
                      f"mode: {mode}"])
    # documents loads OpenSSL, through hashlib, only now, once export_rows
    # has freed the record ids it kept to find duplicates
    _publisher(args)(
        "ingest", map_digest=_deferred("documents").file_digest(args.map),
        n_records=modes["overall"].total() if modes else 0,
        n_rejections=len(tally.rejections), n_subfields=len(aggregates),
        mode_counts={mode: digest.total() for mode, digest in modes.items()})


def _cmd_report(args) -> None:
    import json

    doc = json.loads(Path(args.input).read_text(encoding="utf-8"))
    print(_deferred("render")(doc))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, least in _LEAST.items():
            value = getattr(args, name, None)
            if value is not None and value < least:
                raise ValueError(f"--{name.replace('_', '-')} must be at "
                                 f"least {least}")
        args.run(args)
    except (ValueError, OSError, RuntimeError) as exc:
        from .report import _CONTROL_ESCAPES
        print("error: " + str(exc).translate(_CONTROL_ESCAPES), file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
