"""Seeded benchmark of the heavytails command chains.

    python3 benchmarks/run.py --workload tail_gof --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --self-check

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the chain runs as `heavytails` subprocesses, repeated
until ``--seconds`` is spent, and the end-to-end metrics are medians over
the repetitions.  With ``--trace 1`` the chain runs in process through
`heavytails.cli.main`, once plain and once with spans around the package
functions the CLI calls, followed by the per-layer replays; the per-layer
metrics come from those spans.  Every run checks the outputs it produced.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

from chain import cli_env, run_chain, run_command, run_inprocess  # noqa: E402
from checks import Tally, check_identical, check_rep, outputs  # noqa: E402
from spans import LAYERS, Tracer, instrument_cli, self_by  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# a run must end within 180 s; commands still running after this are killed
RUN_LIMIT_S = 165.0
MIN_SETUPS = 3
IMPORT_PROBES = 3
COMMANDS = ("simulate", "ingest", "scaling", "fit", "compare", "report")


def machine_facts() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "revision": git_revision(ROOT)}


def git_revision(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _reports(pairs) -> dict:
    """{document path: stdout} for the report commands of a chain."""
    return {argv[2]: out for argv, out in pairs if argv[0] == "report"}


def _fit_with_one_thread(plan) -> list:
    argv = list(next(c for c in plan.commands if c[0] == "fit"))
    argv[argv.index("--threads") + 1] = "1"
    return argv


def _threads_check(tally, plan, rep: Path) -> None:
    """The chain's --threads N fit outputs equal a --threads 1 run's.

    The reference fit runs in this process; it is a check, not a timing.
    """
    import heavytails.cli as cli

    other = rep.parent / "threads1"
    other.mkdir()
    shutil.copy(rep / plan.counts, other / plan.counts)
    argv = _fit_with_one_thread(plan)
    [(code, _)], _ = run_inprocess(cli.main, [argv], other)
    tally.command(argv, code)
    fit_files = [k for k in outputs(rep) if k.startswith("out/") and
                 k.rsplit("/", 1)[1] in ("fit.json", "gof.json", "ccdf.csv")]
    check_identical(tally, f"--threads {plan.threads} documents = --threads 1",
                    outputs(rep), outputs(other), only=fit_files)


# ---------------------------------------------------------------------------
# end-to-end: subprocess chains
# ---------------------------------------------------------------------------

def measure_chains(plan, work: Path, seconds: float, deadline: float,
                   tally: Tally, validate,
                   min_reps: int = 1) -> tuple[dict, dict, list]:
    env = cli_env(SRC)
    # untimed: the first interpreter of a run starts with colder caches
    warm = run_command(["--version"], work, env, deadline)
    tally.command(warm.argv, warm.returncode, warm.stderr)
    setups, reps = [], []
    start = time.perf_counter()
    while True:
        setups.append(run_command(["--version"], work, env, deadline))
        reps.append(run_chain(plan.commands, work / f"rep{len(reps)}", env,
                              deadline))
        now = time.perf_counter()
        per_rep = (now - start) / len(reps)
        # stop at the repetition count whose end lies nearest the window's
        # end, so that a run measures for about ``seconds`` on average
        if len(reps) >= min_reps and (now + per_rep / 2 - start > seconds
                                      or now + per_rep > deadline):
            break
    while len(setups) < MIN_SETUPS:
        setups.append(run_command(["--version"], work, env, deadline))

    for s in setups:
        tally.command(s.argv, s.returncode, s.stderr)
        tally.check("--version output", s.stdout.startswith("heavytails "),
                    s.stdout[:40])
    reference = outputs(work / "rep0")
    for k, (results, _) in enumerate(reps):
        for res in results:
            tally.command(res.argv, res.returncode, res.stderr)
        check_rep(tally, plan, work / f"rep{k}",
                  _reports((r.argv, r.stdout) for r in results), validate)
        if k:
            check_identical(tally, f"rep{k} documents = rep0", reference,
                            outputs(work / f"rep{k}"))
    if plan.threads > 1:
        _threads_check(tally, plan, work / "rep0")

    def per_rep(results, wall):
        walls = {}
        for res in results:
            walls[res.argv[0]] = walls.get(res.argv[0], 0.0) + res.wall_s
        walls["chain"] = wall
        walls["peak_rss_mb"] = max(res.maxrss_mb for res in results)
        return walls
    table = [per_rep(*rep) for rep in reps]
    med = {key: statistics.median(row[key] for row in table)
           for key in table[0]}
    metrics = {
        "setup_s": {"value": statistics.median(s.wall_s for s in setups),
                    "unit": "s"},
        "chain_s": {"value": med["chain"], "unit": "s"},
        "peak_rss_mb": {"value": med["peak_rss_mb"], "unit": "MB"},
    }
    # every command's median wall time, for the text report
    extra = {f"{c}_s": (med[c], "s") for c in COMMANDS if c in med}
    return metrics, extra, table


# ---------------------------------------------------------------------------
# per-layer: in-process chains with and without spans, then replays
# ---------------------------------------------------------------------------

def measure_layers(plan, work: Path, seed: int, sizes: dict, tiny: bool,
                   tally: Tally, ht) -> tuple[dict, dict, Tracer]:
    from replay import import_seconds, run_replays
    import heavytails.cli as cli

    metrics = {"cli.import_s": {
        "value": import_seconds(cli_env(SRC), IMPORT_PROBES), "unit": "s"}}
    # the first chain pays for first calls and allocations; checked, not timed
    warm, _ = run_inprocess(cli.main, plan.commands, work / "warm")
    tracer = Tracer()
    restore = instrument_cli(cli, tracer)
    try:
        traced, traced_s = run_inprocess(cli.main, plan.commands,
                                         work / "traced", tracer.span)
    finally:
        restore()
    plain, plain_s = run_inprocess(cli.main, plan.commands, work / "plain")
    for name, results in (("warm", warm), ("traced", traced),
                          ("plain", plain)):
        for argv, (code, _) in zip(plan.commands, results):
            tally.command(argv, code)
        check_rep(tally, plan, work / name,
                  _reports((argv, out) for argv, (_, out)
                           in zip(plan.commands, results)),
                  ht.documents.validate_document)
    check_identical(tally, "traced documents = plain", outputs(work / "plain"),
                    outputs(work / "traced"))
    if plan.threads > 1:
        _threads_check(tally, plan, work / "plain")

    chain = list(tracer.spans)
    scratch = work / "replay"
    scratch.mkdir()
    run_replays(ht, tracer, tally, plan, work / "traced", scratch, seed,
                sizes, tiny, metrics)

    # layer self times cover the traced chain and the replays
    by_layer = self_by(tracer.spans, lambda s: s[3])
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = {"value": by_layer.get(layer, 0.0),
                                      "unit": "s"}
    by_name = self_by(chain, lambda s: s[2])
    for command in ("fit", "report"):
        metrics[f"cli.{command}.self_s"] = {
            "value": by_name[f"cli.{command}"], "unit": "s"}
    metrics["cli.inproc_chain_s"] = {"value": plain_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_s - plain_s, "unit": "s"}

    # the chain alone, for the text report
    extra = {f"chain {layer}.self_s": (value, "s") for layer, value
             in sorted(self_by(chain, lambda s: s[3]).items())}
    extra.update({f"chain {name}.self_s": (by_name[name], "s")
                  for name in sorted(by_name) if name.startswith("cli.")})
    return metrics, extra, tracer


# ---------------------------------------------------------------------------

def print_table(table: list) -> None:
    keys = [k for k in COMMANDS if k in table[0]] + ["chain", "peak_rss_mb"]
    print("rep  " + "  ".join(f"{k:>11}" for k in keys))
    for k, row in enumerate(table):
        print(f"{k:<4} " + "  ".join(f"{row[key]:>11.3f}" for key in keys))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, min_reps: int = 1,
                 tally: Tally | None = None) -> dict:
    import heavytails as ht
    import heavytails.cli  # noqa: F401  loads documents and report too

    deadline = time.perf_counter() + RUN_LIMIT_S
    workload = WORKLOADS[name]
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    sizes = workload.tiny if tiny else workload.sizes
    plan = workload.plan(work / "inputs", seed, tiny)
    tally = tally if tally is not None else Tally()
    if trace:
        metrics, extra, tracer = measure_layers(plan, work, seed, sizes,
                                                tiny, tally, ht)
        tracer.write(work / "spans.jsonl")
    else:
        metrics, extra, table = measure_chains(
            plan, work, seconds, deadline, tally,
            ht.documents.validate_document, min_reps)
        print_table(table)
    for failure in tally.failures:
        print(f"FAILED {failure}")
    for key, (value, unit) in extra.items():
        print(f"{key:32s} {value:14.6g} {unit}")
    for key, metric in metrics.items():
        print(f"{key:32s} {metric['value']:14.6g} {metric['unit']}")
    # keep the spans; drop the chain outputs, which can be large
    for path in work.iterdir():
        if path.is_dir():
            shutil.rmtree(path)
        elif path.name != "spans.jsonl":
            path.unlink()
    if not trace:
        work.rmdir()
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="tiny chains with every check, and the span "
                             "arithmetic on a known tree")
    args = parser.parse_args(argv)
    if not (SRC / "heavytails" / "cli.py").is_file():
        print(f"error: no heavytails package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_check:
        from selfcheck import self_check
        return self_check(run_workload, ROOT / "BENCHMARK.json")
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    facts = machine_facts()
    print("machine " + json.dumps(facts, sort_keys=True))
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
