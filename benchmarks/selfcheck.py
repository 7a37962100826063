"""Fast check of the harness itself: `python3 benchmarks/run.py --self-check`.

Runs every workload's chain at tiny sizes, as subprocesses and traced in
process, and requires that every output check fired and passed.  Then it
shows that the checks can fail, and feeds the self-time arithmetic a
hand-built span tree whose answer is known.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import jsonschema

from checks import Tally, check_identical
from spans import self_by, self_times
from workloads import WORKLOADS

# every check a full round of the three workloads must have made
EXPECTED_CHECKS = (
    "--version output",
    "schema out/fit.json", "schema out/gof.json", "schema out/compare.json",
    "schema out/scaling.json", "schema corpus/ingest.json",
    "report out/fit.json", "report out/gof.json", "report out/scaling.json",
    "planted alpha recovered", "sample starts at planted x_min",
    "fitted x_min within support", "cutoff lr <= 0",
    "rows parsed = records + rejections", "mode sample sizes",
    "planted rejections recovered", "aggregates equal planted totals",
    "planted scaling exponent recovered",
    "rep1 documents = rep0", "--threads 2 documents = --threads 1",
    "traced documents = plain", "gof_test equal on 1 and 2 workers",
    "replayed cutoff lr <= 0",
)


def span_arithmetic(tally: Tally) -> None:
    """A root with overlapping children, a grandchild, and a child that
    runs past its parent's end."""
    spans = [
        [0, None, "a", "cli", 0.0, 10.0],
        [1, 0, "b", "powerlaw", 1.0, 4.0],
        [2, 0, "c", "gof", 3.0, 6.0],
        [3, 1, "d", "dataset", 2.0, 3.0],
        [4, 0, "e", "documents", 8.0, 12.0],
        [5, None, "f", "powerlaw", 20.0, 20.5],
    ]
    # a: 10 - |[1,6] u [8,10]| = 3; b: 3 - 1 = 2; c, d, e, f: no children
    want = {0: 3.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 4.0, 5: 0.5}
    got = self_times(spans)
    tally.check("span self times", all(math.isclose(got[k], v)
                                       for k, v in want.items()), str(got))
    layers = self_by(spans, lambda s: s[3])
    tally.check("layer self times", layers == {
        "cli": 3.0, "powerlaw": 2.5, "gof": 3.0, "dataset": 1.0,
        "documents": 4.0}, str(layers))


def checks_can_fail(tally: Tally, validate) -> None:
    probe = Tally()
    check_identical(probe, "identical", {"a": "1", "b": "2"}, {"a": "1", "b": "3"})
    check_identical(probe, "missing", {"a": "1"}, {})
    tally.check("byte-identity check fails on a changed file",
                probe.failed == 2, str(probe.failures))
    try:
        validate({"document": "fit", "alpha": "not a number"})
        rejected = False
    except (ValueError, jsonschema.ValidationError):
        rejected = True
    tally.check("schema check rejects a broken document", rejected)


def self_check(run_workload, benchmark: Path) -> int:
    """``benchmark`` is BENCHMARK.json; each run must print its metrics."""
    import heavytails.documents as documents

    spec = json.loads(benchmark.read_text(encoding="utf-8"))
    tally = Tally()
    span_arithmetic(tally)
    checks_can_fail(tally, documents.validate_document)
    for name in WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result = run_workload(name, seed=3, seconds=0.0, trace=trace,
                                  tiny=True, min_reps=2, tally=tally)
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            tally.check(f"{name} prints every {kind} metric", got == want,
                        str(set(got.items()) ^ set(want.items())))
            tally.check(f"{name} {kind} values finite", all(
                math.isfinite(m["value"]) for m in result["metrics"].values()))
    missing = [name for name in EXPECTED_CHECKS if name not in tally.names]
    tally.check("every output check fired", not missing, ", ".join(missing))
    for failure in tally.failures:
        print(f"FAILED {failure}")
    print(f"self-check: {tally.attempted - tally.failed}/{tally.attempted} "
          f"checks passed")
    return 0 if tally.failed == 0 else 1
