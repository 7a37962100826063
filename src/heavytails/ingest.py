"""Tab-delimited bibliographic export parsing, dedup, and aggregation.

Reads the export convention of citation databases: one header row naming
columns, one record per row, UTF-8.  Records keep their source line
numbers so that every dropped row lands in a rejection report with a
reason; nothing is discarded silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._constants import DEFAULT_COLUMNS
from .dataset import CitationSample, SubfieldAggregate, _parse_int

__all__ = [
    "DOC_TYPES",
    "DEFAULT_COLUMNS",
    "BiblioRecord",
    "ParseResult",
    "parse_export",
    "write_export",
    "classify_collaboration",
    "normalize_journal",
    "read_classification",
    "build_aggregates",
    "mode_samples",
    "filter_years",
]

DOC_TYPES = frozenset({"Article", "Review", "Letter", "Note",
                       "Proceedings Paper"})


@dataclass(frozen=True, slots=True)
class BiblioRecord:
    """One deduplicated bibliographic record."""

    record_id: str
    authors: tuple[str, ...]
    journal: str
    doc_type: str
    citations: int
    year: int


@dataclass(frozen=True, slots=True)
class ParseResult:
    """Parsed records, their source line numbers, and rejected rows.

    ``rejections`` holds (line_number, reason) pairs; line numbers are
    1-based over the input including the header line.
    """

    records: tuple[BiblioRecord, ...]
    source_rows: tuple[int, ...]
    rejections: tuple[tuple[int, str], ...]


def parse_export(lines: Iterable[str],
                 columns: Mapping[str, str] | None = None) -> ParseResult:
    """Parse a tab-delimited export into records.

    Rows failing validation (bad citation count or year, no authors,
    excluded document type, duplicate id) are collected as rejections,
    never silently dropped.  Raises on a missing header or a header
    lacking a required column.
    """
    cols = dict(DEFAULT_COLUMNS)
    if columns:
        cols.update(columns)
    it = iter(lines)
    try:
        header_line = next(it)
    except StopIteration:
        raise ValueError("empty file") from None
    header = header_line.rstrip("\r\n").split("\t")
    position = {name.strip(): i for i, name in enumerate(header)}
    index: dict[str, int] = {}
    for field, name in cols.items():
        if name not in position:
            raise ValueError(f"missing required column: {name}")
        index[field] = position[name]
    width = max(index.values()) + 1

    records: list[BiblioRecord] = []
    source_rows: list[int] = []
    rejections: list[tuple[int, str]] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(it, start=2):
        line = raw.rstrip("\r\n")
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) < width:
            rejections.append((lineno, f"expected at least {width} fields, "
                                       f"got {len(fields)}"))
            continue
        doc_type = fields[index["doc_type"]].strip()
        if doc_type not in DOC_TYPES:
            rejections.append((lineno, f"excluded document type: {doc_type}"))
            continue
        try:
            citations = _parse_int(fields[index["citations"]].strip())
        except ValueError:
            rejections.append((lineno, "unparseable citation count"))
            continue
        if citations < 0:
            rejections.append((lineno, "negative citation count"))
            continue
        try:
            year = _parse_int(fields[index["year"]].strip())
        except ValueError:
            rejections.append((lineno, "unparseable year"))
            continue
        authors = tuple(a.strip() for a in fields[index["authors"]].split(";")
                        if a.strip())
        if not authors:
            rejections.append((lineno, "no authors"))
            continue
        record_id = fields[index["record_id"]].strip()
        if not record_id:
            rejections.append((lineno, "missing record id"))
            continue
        if record_id in seen:
            rejections.append((lineno, f"duplicate record id: {record_id}"))
            continue
        seen.add(record_id)
        records.append(BiblioRecord(record_id, authors,
                                    fields[index["journal"]].strip(),
                                    doc_type, citations, year))
        source_rows.append(lineno)
    return ParseResult(tuple(records), tuple(source_rows), tuple(rejections))


def write_export(records: Iterable[BiblioRecord],
                 columns: Mapping[str, str] | None = None) -> list[str]:
    """Serialize records back to export lines; inverse of parse_export."""
    cols = dict(DEFAULT_COLUMNS)
    if columns:
        cols.update(columns)
    order = ("authors", "journal", "doc_type", "citations", "year", "record_id")
    lines = ["\t".join(cols[f] for f in order)]
    for rec in records:
        lines.append("\t".join(("; ".join(rec.authors), rec.journal,
                                rec.doc_type, str(rec.citations),
                                str(rec.year), rec.record_id)))
    return lines


def classify_collaboration(record: BiblioRecord) -> str:
    """'collaboration' iff more than one author; affiliations are ignored."""
    if len(record.authors) == 0:
        raise ValueError("anonymous record")
    return "collaboration" if len(record.authors) > 1 else "no_collaboration"


def normalize_journal(name: str) -> str:
    """Casefold, trim, collapse whitespace, and treat '&' as 'and'."""
    return " ".join(name.replace("&", " and ").casefold().split())


def read_classification(lines: Iterable[str]) -> dict[str, tuple[str, str]]:
    """Read a journal classification CSV `journal,field,subfield`.

    Keys are normalized journal names.  A journal mapping to two different
    subfields, or a subfield to two different fields, is an error.
    """
    import csv

    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty classification map") from None
    expected = ["journal", "field", "subfield"]
    if [h.strip().lower() for h in header[:3]] != expected:
        raise ValueError("classification header must be journal,field,subfield")
    mapping: dict[str, tuple[str, str]] = {}
    subfield_field: dict[str, str] = {}
    for row in reader:
        if not row or not any(cell.strip() for cell in row):
            continue
        journal, field, subfield = (cell.strip() for cell in row[:3])
        key = normalize_journal(journal)
        target = (field, subfield)
        if key in mapping and mapping[key] != target:
            raise ValueError(f"journal mapped twice: {journal}")
        if subfield in subfield_field and subfield_field[subfield] != field:
            raise ValueError(f"subfield in two fields: {subfield}")
        mapping[key] = target
        subfield_field[subfield] = field
    if not mapping:
        raise ValueError("empty classification map")
    return mapping


def build_aggregates(records: Sequence[BiblioRecord],
                     classification: Mapping[str, tuple[str, str]],
                     source_rows: Sequence[int] | None = None,
                     ) -> tuple[list[SubfieldAggregate],
                                list[tuple[int, str]]]:
    """Sum papers and citations per subfield, split by collaboration.

    Records whose journal is missing from the classification go to the
    rejection list with their source line number (0 when unknown).
    Every mapped record lands in exactly one aggregate.
    """
    if not classification:
        raise ValueError("empty classification map")
    if source_rows is None:
        source_rows = [0] * len(records)
    sums: dict[str, list] = {}
    rejections: list[tuple[int, str]] = []
    for rec, row in zip(records, source_rows):
        target = classification.get(normalize_journal(rec.journal))
        if target is None:
            rejections.append((row, f"unmapped journal: {rec.journal}"))
            continue
        field, subfield = target
        entry = sums.setdefault(subfield, [field, 0, 0, 0, 0])
        collab = classify_collaboration(rec) == "collaboration"
        entry[1 if collab else 2] += 1
        entry[3 if collab else 4] += rec.citations
    aggregates = [
        SubfieldAggregate(subfield_id=subfield, field_id=entry[0],
                          papers_total=entry[1] + entry[2],
                          papers_collab=entry[1], papers_single=entry[2],
                          citations_total=entry[3] + entry[4],
                          citations_collab=entry[3],
                          citations_single=entry[4])
        for subfield, entry in sorted(sums.items())
    ]
    return aggregates, rejections


def mode_samples(records: Sequence[BiblioRecord]) -> dict[str, CitationSample]:
    """Citation-count samples for overall/collaboration/single partitions."""
    overall = [rec.citations for rec in records]
    collab = [rec.citations for rec in records
              if classify_collaboration(rec) == "collaboration"]
    single = [rec.citations for rec in records
              if classify_collaboration(rec) == "no_collaboration"]
    out: dict[str, CitationSample] = {}
    for mode, values in (("overall", overall), ("collaboration", collab),
                         ("single", single)):
        if values:
            out[mode] = CitationSample(np.asarray(values, dtype=np.int64),
                                       label=mode)
    return out


def filter_years(records: Sequence[BiblioRecord],
                 year_min: int | None = None,
                 year_max: int | None = None) -> list[BiblioRecord]:
    """Keep records within the inclusive publication-year window."""
    return [rec for rec in records
            if (year_min is None or rec.year >= year_min)
            and (year_max is None or rec.year <= year_max)]
