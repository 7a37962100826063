"""Seeded synthetic bibliographic export and journal classification.

The export follows the tab-delimited convention `heavytails ingest` reads.
Journals sit in subfields; a subfield with P papers has mean citations per
paper proportional to P**(n - 1), so subfield citation totals follow the
planted scaling law k * P**n.  Per-paper counts are a scale mixture of
Pareto draws, so the overall sample is heavy-tailed with a few hundred
distinct values.  About ``reject_share`` of the rows carry exactly one
planted defect each.  The returned :class:`Corpus` holds what a correct
ingest must report: the rejected line numbers, the per-subfield aggregates
and the per-mode sample sizes.

Only numpy and the standard library are used; the package under test is
never imported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

HEADER = ("PT", "AU", "TI", "SO", "DT", "TC", "PY", "UT")
DOC_TYPES = ("Article", "Article", "Article", "Review", "Letter", "Note",
             "Proceedings Paper")
# one defect per rejected row; each trips exactly one ingest rule
DEFECTS = ("short", "doctype", "cites", "negative", "year", "authors",
           "noid", "duplicate", "unmapped")
_AUTHOR_POOL = [f"Author{k}, {chr(65 + k % 26)}" for k in range(9973)]


@dataclass(frozen=True)
class Corpus:
    rows: int                  # data rows in the export, header excluded
    rejected_lines: frozenset  # 1-based line numbers; the header is line 1
    exponent: float            # planted scaling exponent n
    # subfield -> (field, papers_collab, papers_single,
    #              citations_collab, citations_single) over clean rows
    aggregates: dict
    mode_counts: dict          # ingest's counts_<mode>.txt sizes


def _journal_name(j: int, subfield: int) -> str:
    return f"Annals of Area {subfield} & Topic {j}"


def write_corpus(export: Path, classification: Path, seed: int, *,
                 rows: int = 300_000, journals: int = 400,
                 subfields: int = 120, fields: int = 12,
                 reject_share: float = 0.05,
                 citations: np.ndarray | None = None) -> Corpus:
    """Write the export and its classification CSV; return what was planted.

    ``citations``, when given, replaces the planted per-paper counts and its
    length sets ``rows``; the scaling law then does not hold.
    """
    rng = np.random.default_rng([seed, 0x5EED])
    if citations is not None:
        rows = int(np.asarray(citations).size)
    exponent = float(rng.uniform(1.1, 1.3))

    # every subfield owns at least one journal
    owner = np.concatenate([np.arange(subfields),
                            rng.integers(0, subfields, journals - subfields)])
    rng.shuffle(owner)
    by_subfield = [np.nonzero(owner == s)[0] for s in range(subfields)]
    weight = 10.0 ** rng.uniform(0.0, 1.2, subfields)
    paper_subfield = rng.choice(subfields, size=rows, p=weight / weight.sum())
    size = np.bincount(paper_subfield, minlength=subfields)
    paper_journal = np.empty(rows, dtype=np.int64)
    for s in range(subfields):
        members = np.nonzero(paper_subfield == s)[0]
        paper_journal[members] = rng.choice(by_subfield[s], members.size)

    if citations is None:
        # Pareto(beta) has mean beta/(beta-1); floor(m*Y + U) has mean m*E[Y]
        beta = 1.6
        mean = 3.0 * (size / size.mean()) ** (exponent - 1.0)
        scale = (mean * (beta - 1.0) / beta)[paper_subfield]
        y = rng.random(rows) ** (-1.0 / beta)
        cites = np.floor(scale * y + rng.random(rows)).astype(np.int64)
    else:
        cites = rng.permutation(np.asarray(citations, dtype=np.int64))
    n_authors = rng.geometric(0.5, rows)
    years = rng.integers(1995, 2015, rows)
    doc_types = rng.integers(0, len(DOC_TYPES), rows)

    n_bad = int(round(reject_share * rows))
    # row 0 stays clean so every duplicate has an earlier id to copy
    bad_rows = np.sort(rng.choice(np.arange(1, rows), n_bad, replace=False))
    defects = dict(zip(bad_rows.tolist(),
                       rng.integers(0, len(DEFECTS), n_bad).tolist()))
    clean = np.ones(rows, dtype=bool)
    clean[bad_rows] = False
    clean_rows = np.nonzero(clean)[0]

    out = ["\t".join(HEADER)]
    for i in range(rows):
        j = int(paper_journal[i])
        fields_ = ["J",
                   "; ".join(_AUTHOR_POOL[(i * 7 + a) % 9973]
                             for a in range(int(n_authors[i]))),
                   f"Paper {i}", _journal_name(j, int(owner[j])),
                   DOC_TYPES[doc_types[i]], str(int(cites[i])),
                   str(int(years[i])), f"WOS:{i:09d}"]
        kind = DEFECTS[defects[i]] if i in defects else None
        if kind == "short":
            fields_ = fields_[:4]
        elif kind == "doctype":
            fields_[4] = "Editorial Material"
        elif kind == "cites":
            fields_[5] = "n/a"
        elif kind == "negative":
            fields_[5] = f"-{1 + i % 9}"
        elif kind == "year":
            fields_[6] = "20x5"
        elif kind == "authors":
            fields_[1] = " ; "
        elif kind == "noid":
            fields_[7] = ""
        elif kind == "duplicate":
            earlier = clean_rows[:np.searchsorted(clean_rows, i)]
            fields_[7] = f"WOS:{int(earlier[i % earlier.size]):09d}"
        elif kind == "unmapped":
            fields_[3] = f"Unlisted Bulletin {i % 17}"
        out.append("\t".join(fields_))
    export.write_text("\n".join(out) + "\n", encoding="utf-8")

    # half the map spells names the way normalize_journal folds them
    lines = ["journal,field,subfield"]
    for j in range(journals):
        s = int(owner[j])
        name = _journal_name(j, s)
        if j % 2:
            name = name.replace("&", "and").lower()
        lines.append(f"{name},field-{s % fields},subfield-{s:03d}")
    classification.write_text("\n".join(lines) + "\n", encoding="utf-8")

    collab = n_authors > 1
    aggregates = {}
    for s in np.unique(paper_subfield[clean]).tolist():
        sel = clean & (paper_subfield == s)
        aggregates[f"subfield-{s:03d}"] = (
            f"field-{s % fields}",
            int(np.sum(sel & collab)), int(np.sum(sel & ~collab)),
            int(cites[sel & collab].sum()), int(cites[sel & ~collab].sum()))
    mode_counts = {"overall": int(clean.sum()),
                   "collaboration": int(np.sum(clean & collab)),
                   "single": int(np.sum(clean & ~collab))}
    return Corpus(rows=rows,
                  rejected_lines=frozenset((bad_rows + 2).tolist()),
                  exponent=exponent, aggregates=aggregates,
                  mode_counts={k: v for k, v in mode_counts.items() if v})
