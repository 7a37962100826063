"""Tab-delimited bibliographic export parsing, dedup, and aggregation.

Reads the export convention of citation databases: one header row naming
columns, one record per row, UTF-8.  Records keep their source line
numbers so that every dropped row lands in a rejection report with a
reason; nothing is discarded silently.  Kept rows are added up as they
pass, into sums and value -> count digests: nothing is held per row.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from ._constants import DEFAULT_COLUMNS
from .dataset import (_COUNT_LIMIT, CitationSample, SubfieldAggregate,
                      _parse_int)

__all__ = [
    "DOC_TYPES",
    "DEFAULT_COLUMNS",
    "BiblioRecord",
    "ParseResult",
    "export_rows",
    "parse_export",
    "write_export",
    "classify_collaboration",
    "normalize_journal",
    "read_classification",
    "build_aggregates",
    "mode_samples",
    "filter_years",
    "in_window",
    "Tally",
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


def export_rows(lines: Iterable[str],
                columns: Mapping[str, str] | None = None,
                ) -> Iterator[tuple[int, tuple | None, str | None]]:
    """Validate a tab-delimited export one line at a time.

    Yields ``(line_number, row, reason)`` for each non-blank data line:
    ``row`` holds the :class:`BiblioRecord` fields of an accepted line; a
    line failing validation (too few fields, excluded document type, bad
    citation count or year, a count of 2**63 or more, no authors, missing
    or duplicate id) has ``row`` None and a ``reason``.  Line numbers are
    1-based, header included.  The header is checked at the first
    ``next()``, which raises on a missing header, or a header lacking a
    required column or naming one twice.  Ids are compared as their
    UTF-8 bytes.
    """
    cols = dict(DEFAULT_COLUMNS)
    if columns:
        cols.update(columns)
    it = iter(lines)
    try:
        header_line = next(it)
    except StopIteration:
        raise ValueError("empty file") from None
    header = [name.strip()
              for name in header_line.rstrip("\r\n").split("\t")]
    position = {name: i for i, name in enumerate(header)}
    index: dict[str, int] = {}
    for field, name in cols.items():
        if name not in position:
            raise ValueError(f"missing required column: {name}")
        if header.count(name) > 1:
            raise ValueError(f"duplicate column: {name}")
        index[field] = position[name]
    width = max(index.values()) + 1
    i_authors, i_journal, i_doc_type, i_citations, i_year, i_id = (
        index[field] for field in ("authors", "journal", "doc_type",
                                   "citations", "year", "record_id"))

    # the ids' UTF-8 bytes take less memory than the ids; surrogatepass
    # encodes every str, lone surrogates too, and no two strs alike
    seen: set[bytes] = set()
    for lineno, line in enumerate(it, start=2):
        if not line or line.isspace():
            continue
        # every field used is stripped, so the line ending may stay on
        fields = line.split("\t")
        if len(fields) < width:
            yield lineno, None, (f"expected at least {width} fields, "
                                 f"got {len(fields)}")
            continue
        doc_type = fields[i_doc_type].strip()
        if doc_type not in DOC_TYPES:
            yield lineno, None, f"excluded document type: {doc_type}"
            continue
        # bare ASCII digits, the common case, need no _parse_int call
        text = fields[i_citations].strip()
        try:
            citations = (int(text) if text.isdigit() and text.isascii()
                         else _parse_int(text))
        except ValueError:
            yield lineno, None, "unparseable citation count"
            continue
        if citations < 0:
            yield lineno, None, "negative citation count"
            continue
        if citations >= _COUNT_LIMIT:
            yield lineno, None, "citation count out of range"
            continue
        text = fields[i_year].strip()
        try:
            year = (int(text) if text.isdigit() and text.isascii()
                    else _parse_int(text))
        except ValueError:
            yield lineno, None, "unparseable year"
            continue
        authors = tuple(filter(None, map(str.strip,
                                         fields[i_authors].split(";"))))
        if not authors:
            yield lineno, None, "no authors"
            continue
        record_id = fields[i_id].strip()
        if not record_id:
            yield lineno, None, "missing record id"
            continue
        key = record_id.encode("utf-8", "surrogatepass")
        if key in seen:
            yield lineno, None, f"duplicate record id: {record_id}"
            continue
        seen.add(key)
        yield lineno, (record_id, authors, fields[i_journal].strip(),
                       doc_type, citations, year), None


def parse_export(lines: Iterable[str],
                 columns: Mapping[str, str] | None = None) -> ParseResult:
    """Parse a tab-delimited export into records; every row that fails
    :func:`export_rows`' validation is kept as a rejection."""
    records: list[BiblioRecord] = []
    source_rows: list[int] = []
    rejections: list[tuple[int, str]] = []
    for lineno, row, reason in export_rows(lines, columns):
        if row is None:
            rejections.append((lineno, reason))
        else:
            records.append(BiblioRecord(*row))
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
    return ("collaboration" if _collaborative(record.authors)
            else "no_collaboration")


def _collaborative(authors: Sequence[str]) -> bool:
    """The collaboration rule: more than one author."""
    if len(authors) == 0:
        raise ValueError("anonymous record")
    return len(authors) > 1


def normalize_journal(name: str) -> str:
    """Casefold, trim, collapse whitespace, and treat '&' as 'and'."""
    return " ".join(name.replace("&", " and ").casefold().split())


def read_classification(lines: Iterable[str]) -> dict[str, tuple[str, str]]:
    """Read a journal classification CSV `journal,field,subfield`.

    Keys are normalized journal names.  A journal mapping to two different
    subfields, or a subfield to two different fields, is an error.
    """
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
    :class:`Tally`'s rejections, in record order, with their source line
    number (0 when unknown).  Every mapped record lands in one aggregate.
    """
    rows = [0] * len(records) if source_rows is None else source_rows
    if len(rows) != len(records):
        raise ValueError(f"{len(rows)} source rows for {len(records)} "
                         "records")
    tally = Tally(classification)
    for rec, row in zip(records, rows):
        tally.add(row, rec.authors, rec.journal, rec.citations)
    return tally.result()[0], tally.rejections


def mode_samples(records: Sequence[BiblioRecord]) -> dict[str, CitationSample]:
    """Citation-count samples for overall/collaboration/single partitions,
    built from the digests of a :class:`Tally` with no classification, so
    every record counts; an empty partition is left out."""
    tally = Tally(None)
    for rec in records:
        tally.add(0, rec.authors, rec.journal, rec.citations)
    return {mode: CitationSample(digest, label=mode)
            for mode, digest in tally.result()[1].items()}


def filter_years(records: Sequence[BiblioRecord],
                 year_min: int | None = None,
                 year_max: int | None = None) -> list[BiblioRecord]:
    """Keep records within the inclusive publication-year window."""
    return [rec for rec in records if in_window(rec.year, year_min, year_max)]


def in_window(year: int, year_min: int | None, year_max: int | None) -> bool:
    """Whether ``year`` lies in the inclusive window; None is an open end."""
    return ((year_min is None or year >= year_min)
            and (year_max is None or year <= year_max))


class Tally:
    """Kept rows added up as they pass, with nothing kept per row: the
    papers and citations of each subfield, split by collaboration, and the
    citations of each collaboration class as a value -> count digest.
    Each raw journal string is looked up in the classification once; a row
    whose journal it lacks goes to ``rejections``.  With no classification
    (None) no subfield is summed and no row rejected."""

    def __init__(self, classification: Mapping[str, tuple[str, str]] | None):
        if classification is not None and not classification:
            raise ValueError("empty classification map")
        self._classification = classification
        self.rejections: list[tuple[int, str]] = []
        # subfield -> [field, papers_collab, papers_single,
        # citations_collab, citations_single]
        self._sums: dict[str, list] = {}
        # raw journal -> its subfield's sums, None when unmapped
        self._sums_of: dict[str, list | None] = {}
        # plain dicts: a Counter's item updates take a slower path
        self._collab: dict[int, int] = {}
        self._single: dict[int, int] = {}

    def add(self, lineno: int, authors: Sequence[str], journal: str,
            citations: int) -> None:
        """Add the row at line ``lineno``, or reject it when its journal is
        not in the classification."""
        collaborative = _collaborative(authors)
        if self._classification is not None:
            try:
                sums = self._sums_of[journal]
            except KeyError:
                target = self._classification.get(normalize_journal(journal))
                sums = self._sums_of[journal] = (
                    None if target is None else
                    self._sums.setdefault(target[1], [target[0], 0, 0, 0, 0]))
            if sums is None:
                self.rejections.append((lineno, f"unmapped journal: {journal}"))
                return
            # Python-int sums: exact past 2**63
            i = 1 if collaborative else 2
            sums[i] += 1
            sums[i + 2] += citations
        digest = self._collab if collaborative else self._single
        digest[citations] = digest.get(citations, 0) + 1

    def result(self) -> tuple[list[SubfieldAggregate], dict[str, Counter]]:
        """The aggregates sorted by subfield, and the added rows' citations
        per mode as value -> count digests; an empty mode is left out."""
        sums = sorted(self._sums.items())
        collab, single = Counter(self._collab), Counter(self._single)
        modes = {"overall": collab + single, "collaboration": collab,
                 "single": single}
        return ([SubfieldAggregate(sub, field, pc + ps, pc, ps, cc + cs, cc, cs)
                 for sub, (field, pc, ps, cc, cs) in sums],
                {mode: digest for mode, digest in modes.items() if digest})
