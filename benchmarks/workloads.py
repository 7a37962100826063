"""The three benchmark workloads: their inputs, command chains and facts.

A workload turns a seed into input files and a chain of `heavytails`
commands.  Commands run in a per-repetition directory and name every file
by a path relative to it, so the documents of two repetitions (which
record their command lines) are comparable byte for byte.  Why each
workload was chosen is recorded in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from corpus import write_corpus

INPUTS = "../inputs"


@dataclass(frozen=True)
class Plan:
    """What one workload runs for one seed, and what it planted."""

    commands: list          # argv lists, without the launcher
    counts: str             # counts file fit reads, relative to a rep dir
    documents: list         # result documents the chain writes
    alpha: float | None = None      # planted power-law exponent
    floor: int | None = None        # planted x_min: every draw is >= it
    threads: int = 1
    corpus: object = None           # corpus.Corpus for the export workload
    export: str = ""                # export the ingest layer replays parse


@dataclass(frozen=True)
class Workload:
    planner: object   # (inputs dir, seed, sizes) -> Plan
    sizes: dict       # full-size parameters
    tiny: dict        # self-check parameters: same chain, small inputs

    def plan(self, inputs: Path, seed: int, tiny: bool = False) -> Plan:
        return self.planner(inputs, seed, self.tiny if tiny else self.sizes)


def _simulate(alpha, xmin, n, seed):
    return ["simulate", "--family", "powerlaw", "--alpha", repr(alpha),
            "--xmin", str(xmin), "--n", str(n), "--seed", str(seed),
            "--output", "counts.txt"]


def _plan_tail_gof(inputs: Path, seed: int, p: dict) -> Plan:
    return Plan(
        commands=[
            _simulate(2.5, 10, p["n"], seed),
            ["fit", "--input", "counts.txt", "--outdir", "out", "--gof",
             "--sims", str(p["sims"]), "--bootstrap", str(p["bootstrap"]),
             "--threads", "1", "--seed", str(seed)],
            ["report", "--input", "out/fit.json"],
            ["report", "--input", "out/gof.json"],
        ],
        counts="counts.txt", documents=["out/fit.json", "out/gof.json"],
        alpha=2.5, floor=10, threads=1)


def _plan_heavy_gof(inputs: Path, seed: int, p: dict) -> Plan:
    return Plan(
        commands=[
            _simulate(1.5, 1, p["n"], seed),
            ["fit", "--input", "counts.txt", "--outdir", "out", "--gof",
             "--sims", str(p["sims"]), "--bootstrap", str(p["bootstrap"]),
             "--threads", "2", "--seed", str(seed)],
            ["compare", "--input", "counts.txt", "--outdir", "out",
             "--seed", str(seed)],
            ["report", "--input", "out/gof.json"],
        ],
        counts="counts.txt",
        documents=["out/fit.json", "out/gof.json", "out/compare.json"],
        alpha=1.5, floor=1, threads=2)


def _plan_corpus(inputs: Path, seed: int, p: dict) -> Plan:
    corpus = write_corpus(inputs / "export.tsv", inputs / "journals.csv",
                          seed, rows=p["rows"], journals=p["journals"],
                          subfields=p["subfields"])
    counts = "corpus/counts_overall.txt"
    return Plan(
        commands=[
            ["ingest", "--input", f"{INPUTS}/export.tsv",
             "--map", f"{INPUTS}/journals.csv", "--outdir", "corpus",
             "--seed", str(seed)],
            ["scaling", "--input", "corpus/aggregates.tsv", "--outdir", "out",
             "--mode", "all", "--seed", str(seed)],
            ["fit", "--input", counts, "--outdir", "out",
             "--bootstrap", str(p["bootstrap"]), "--seed", str(seed)],
            ["compare", "--input", counts, "--outdir", "out",
             "--seed", str(seed)],
            ["report", "--input", "out/scaling.json"],
        ],
        counts=counts,
        documents=["corpus/ingest.json", "out/scaling.json", "out/fit.json",
                   "out/compare.json"],
        corpus=corpus, export=f"{INPUTS}/export.tsv")


WORKLOADS = {
    "tail_gof": Workload(
        _plan_tail_gof,
        sizes={"n": 8000, "sims": 12, "bootstrap": 8, "replay_sims": 8},
        tiny={"n": 1500, "sims": 2, "bootstrap": 2, "replay_sims": 2}),
    "heavy_gof": Workload(
        _plan_heavy_gof,
        sizes={"n": 5000, "sims": 8, "bootstrap": 4, "replay_sims": 8},
        tiny={"n": 800, "sims": 2, "bootstrap": 2, "replay_sims": 2}),
    "corpus": Workload(
        _plan_corpus,
        sizes={"rows": 200_000, "journals": 400, "subfields": 120,
               "bootstrap": 4, "replay_sims": 4},
        tiny={"rows": 6000, "journals": 60, "subfields": 24, "bootstrap": 2,
              "replay_sims": 2}),
}
