"""Output checks on the files a chain writes.

No check rests on a p-value or a verdict: each one holds for any correct
program whatever its random draws, or is a statistical recovery with a
margin of several standard errors.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import jsonschema

# planted values must lie within this many standard errors: the
# bootstrap SD (never below the MLE's own) or the regression's
ALPHA_SDS = 5.0
SCALING_SES = 6.0
REPORT_HEADINGS = {
    "fit": "power-law fit",
    "gof": "goodness of fit for",
    "compare": "model comparison for",
    "scaling": "scaling regression",
    "ingest": "ingestion summary",
}


def alpha_se(alpha: float, n_tail: int) -> float:
    """Large-sample standard error of the power-law MLE, (alpha - 1) / sqrt(n).

    A bootstrap of a few replicates can estimate the SD at a fraction of
    its true size, so the recovery margin never falls below this.
    """
    return (alpha - 1.0) / n_tail ** 0.5


class Tally:
    """Counts checks and commands attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.names: set[str] = set()

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        self.names.add(name)
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def command(self, argv, returncode, stderr: str = "") -> bool:
        return self.check(f"command {' '.join(map(str, argv))}",
                          returncode == 0,
                          f"exit {returncode}; {stderr.strip()[-300:]}")


def outputs(rep: Path) -> dict[str, str]:
    """SHA-256 of every file a chain wrote under ``rep``."""
    return {str(p.relative_to(rep)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(rep.rglob("*"))
            if p.is_file() and not p.name.startswith(".")}


def _load(tally: Tally, path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        tally.check(f"read {path.name}", False, str(exc))
        return None


def check_rep(tally: Tally, plan, rep: Path, reports, validate) -> None:
    """Check one repetition's outputs.

    ``reports`` maps each document path a `report` command rendered to its
    standard output; ``validate`` is `heavytails.documents.validate_document`.
    """
    docs = {}
    for rel in plan.documents:
        doc = _load(tally, rep / rel)
        if doc is None:
            continue
        docs[doc.get("document")] = doc
        try:
            validate(doc)
            tally.check(f"schema {rel}", True)
        except (ValueError, jsonschema.ValidationError) as exc:
            tally.check(f"schema {rel}", False, f"{type(exc).__name__}: {exc}")

    for rel, text in reports.items():
        kind = rel.rsplit("/", 1)[-1].removesuffix(".json")
        tally.check(f"report {rel}",
                    text.startswith(REPORT_HEADINGS[kind]), text[:80])

    fit = docs.get("fit")
    if fit is not None and plan.alpha is not None:
        sd, alpha = fit["alpha_sd"] or 0.0, fit["alpha"]
        tally.check("planted alpha recovered",
                    sd > 0 and fit["n_tail"] > 0 and abs(alpha - plan.alpha)
                    <= ALPHA_SDS * max(sd, alpha_se(alpha, fit["n_tail"])),
                    f"alpha {alpha} +/- {sd} (n_tail {fit['n_tail']}), "
                    f"planted {plan.alpha}")
    if fit is not None and plan.floor is not None:
        lowest = min(int(line) for line in
                     (rep / plan.counts).read_text(encoding="utf-8").split("\n")
                     if line and not line.startswith("#"))
        tally.check("sample starts at planted x_min",
                    lowest == plan.floor, f"min {lowest}")
        tally.check("fitted x_min within support",
                    fit["x_min"] >= plan.floor, f"x_min {fit['x_min']}")

    compare = docs.get("compare")
    if compare is not None:
        lr = {c["alternative"]: c["lr"] for c in compare["comparisons"]}
        tally.check("cutoff lr <= 0", lr.get("powerlaw_cutoff", 1.0) <= 0.0,
                    f"lr {lr.get('powerlaw_cutoff')}")

    if plan.corpus is not None:
        _check_corpus(tally, plan.corpus, rep, docs)


def _check_corpus(tally: Tally, corpus, rep: Path, docs: dict) -> None:
    ingest = docs.get("ingest")
    if ingest is not None:
        tally.check("rows parsed = records + rejections",
                    ingest["n_records"] + ingest["n_rejections"] == corpus.rows,
                    f"{ingest['n_records']} + {ingest['n_rejections']} "
                    f"!= {corpus.rows}")
        tally.check("mode sample sizes", ingest["mode_counts"]
                    == corpus.mode_counts, str(ingest["mode_counts"]))
    try:
        lines = (rep / "corpus/rejections.tsv").read_text(
            encoding="utf-8").splitlines()[1:]
        got = (rep / "corpus/aggregates.tsv").read_text(encoding="utf-8")
    except OSError as exc:
        tally.check("ingest outputs readable", False, str(exc))
        return
    rejected = {int(line.split("\t", 1)[0]) for line in lines}
    tally.check("planted rejections recovered",
                rejected == corpus.rejected_lines and len(lines) == len(rejected),
                f"{len(rejected ^ corpus.rejected_lines)} rows differ")
    expected = ["subfield\tfield\tpapers_total\tpapers_collab\tpapers_single"
                "\tcitations_total\tcitations_collab\tcitations_single"]
    for sub, (field, pc, ps, cc, cs) in sorted(corpus.aggregates.items()):
        expected.append("\t".join(map(str, (sub, field, pc + ps, pc, ps,
                                            cc + cs, cc, cs))))
    tally.check("aggregates equal planted totals",
                got == "\n".join(expected) + "\n")
    scaling = docs.get("scaling")
    if scaling is not None:
        overall = scaling["modes"]["overall"]
        tally.check("planted scaling exponent recovered",
                    abs(overall["exponent"] - corpus.exponent)
                    <= SCALING_SES * overall["exponent_se"],
                    f"{overall['exponent']} +/- {overall['exponent_se']}, "
                    f"planted {corpus.exponent}")


def check_identical(tally: Tally, name: str, reference: dict, other: dict,
                    only=None) -> None:
    """Outputs (from :func:`outputs`) must match byte for byte."""
    keys = sorted(only if only is not None else set(reference) | set(other))
    differ = [k for k in keys if reference.get(k) != other.get(k)
              or k not in reference]
    tally.check(name, not differ, "differ: " + ", ".join(differ[:5]))
