"""Tests for export parsing, journal classification, and aggregation."""

import tracemalloc
from collections import Counter
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heavytails import (BiblioRecord, build_aggregates,
                        classify_collaboration, filter_years, mode_samples,
                        normalize_journal, parse_export, read_classification,
                        write_export)
from heavytails.ingest import DEFAULT_COLUMNS, DOC_TYPES, Tally

from conftest import EXPORT_HEADER, export_row


class TestParseExport:
    def test_parses_valid_rows(self, export_lines):
        result = parse_export(export_lines)
        assert len(result.records) == 4
        assert result.rejections == ()
        assert result.source_rows == (2, 3, 4, 5)
        first = result.records[0]
        assert first.record_id == "WOS:001"
        assert first.authors == ("Smith, J", "Lee, K")
        assert first.journal == "Physics World"
        assert first.citations == 12
        assert first.year == 2005

    @pytest.mark.parametrize("row,reason", [
        (export_row("WOS:101", "A, B", doc_type="Editorial"),
         "excluded document type: Editorial"),
        (export_row("WOS:102", "A, B", citations="many"),
         "unparseable citation count"),
        (export_row("WOS:103", "A, B", citations=-4),
         "negative citation count"),
        (export_row("WOS:104", "A, B", year="199x"),
         "unparseable year"),
        (export_row("WOS:106", "A, B", citations="1_000"),
         "unparseable citation count"),
        (export_row("WOS:107", "A, B", citations="+5"),
         "unparseable citation count"),
        (export_row("WOS:108", "A, B", citations="\u0663"),
         "unparseable citation count"),
        (export_row("WOS:109", "A, B", citations="\uff15"),
         "unparseable citation count"),
        (export_row("WOS:110", "A, B", year="+2005"), "unparseable year"),
        (export_row("WOS:111", "A, B", year="\uff12\uff10\uff10\uff15"),
         "unparseable year"),
        (export_row("WOS:112", "A, B", citations="99999999999999999999"),
         "citation count out of range"),
        (export_row("WOS:105", " ; "), "no authors"),
        (export_row("", "A, B"), "missing record id"),
        ("too\tfew", "expected at least 6 fields, got 2"),
    ])
    def test_rejection_reasons(self, row, reason):
        result = parse_export([EXPORT_HEADER, row])
        assert result.records == ()
        assert result.rejections == ((2, reason),)

    def test_duplicate_id_keeps_first(self):
        # ids are compared as their UTF-8 bytes, after stripping
        for first, second, duplicate in [
                ("WOS:9", "WOS:9", True),
                ("WOS:9", " WOS:9 ", True),
                ("WOS:\ud800", "WOS:\ud800", True),
                ("WOS:\u00e99", "WOS:\u00e89", False)]:
            lines = [EXPORT_HEADER,
                     export_row(first, "A, B", citations=1),
                     export_row(second, "C, D", citations=2)]
            result = parse_export(lines)
            if duplicate:
                assert [rec.citations for rec in result.records] == [1]
                assert result.rejections == (
                    (3, f"duplicate record id: {first}"),)
            else:
                assert [rec.citations for rec in result.records] == [1, 2]
                assert result.rejections == ()

    def test_blank_lines_skipped_in_numbering(self):
        lines = [EXPORT_HEADER, "", export_row("WOS:1", "A"),
                 "   ", export_row("WOS:2", "B", doc_type="Abstract")]
        result = parse_export(lines)
        assert result.source_rows == (3,)
        assert result.rejections == ((5, "excluded document type: Abstract"),)

    def test_missing_column_rejected(self):
        with pytest.raises(ValueError, match="missing required column: TC"):
            parse_export(["AU\tSO\tDT\tPY\tUT"])

    @pytest.mark.parametrize("last", ["TC", " TC "])
    def test_column_read_twice_rejected(self, last):
        with pytest.raises(ValueError, match="^duplicate column: TC$"):
            parse_export([f"PT\tAU\tSO\tDT\tTC\tPY\tUT\t{last}",
                          "J\tA; B\tJ1\tArticle\t5\t2001\tW1\t99"])

    def test_unread_column_may_repeat(self):
        result = parse_export(["PT\tAU\tSO\tDT\tTC\tPY\tUT\tPT",
                               "J\tA; B\tJ1\tArticle\t5\t2001\tW1\tJ"])
        assert [rec.citations for rec in result.records] == [5]

    def test_empty_file_rejected(self):
        with pytest.raises(ValueError, match="empty file"):
            parse_export([])

    def test_custom_column_names(self):
        header = "who\twhere\tkind\tcites\twhen\tid"
        row = "Nils, N\tActa\tArticle\t7\t2003\tX1"
        result = parse_export([header, row],
                              columns={"authors": "who", "journal": "where",
                                       "doc_type": "kind", "citations": "cites",
                                       "year": "when", "record_id": "id"})
        assert result.records[0] == BiblioRecord(
            "X1", ("Nils, N",), "Acta", "Article", 7, 2003)

    def test_extra_columns_ignored(self):
        header = EXPORT_HEADER + "\tIGNORED"
        row = export_row("WOS:7", "A") + "\textra stuff"
        result = parse_export([header, row])
        assert len(result.records) == 1

    def test_round_trip(self, export_lines):
        records = parse_export(export_lines).records
        again = parse_export(write_export(records)).records
        assert again == records

    def test_default_columns_are_export_convention(self):
        assert DEFAULT_COLUMNS == {"authors": "AU", "journal": "SO",
                                   "doc_type": "DT", "citations": "TC",
                                   "year": "PY", "record_id": "UT"}
        assert "Article" in DOC_TYPES and "Editorial" not in DOC_TYPES


class TestCollaboration:
    def test_single_author(self):
        rec = BiblioRecord("r", ("Solo, S",), "J", "Article", 1, 2000)
        assert classify_collaboration(rec) == "no_collaboration"

    def test_multi_author(self):
        rec = BiblioRecord("r", ("A", "B"), "J", "Article", 1, 2000)
        assert classify_collaboration(rec) == "collaboration"

    def test_anonymous_rejected(self):
        rec = BiblioRecord("r", (), "J", "Article", 1, 2000)
        with pytest.raises(ValueError, match="anonymous"):
            classify_collaboration(rec)
        # the tally behind mode_samples and build_aggregates applies the
        # same rule, whatever the journal
        for call in (lambda: mode_samples([rec]),
                     lambda: build_aggregates([rec], {"j": ("f", "s")}),
                     lambda: build_aggregates([rec], {"x": ("f", "s")})):
            with pytest.raises(ValueError, match="^anonymous record$"):
                call()

    @given(st.integers(min_value=1, max_value=60))
    def test_threshold_is_two(self, k):
        rec = BiblioRecord("r", tuple(f"A{i}" for i in range(k)),
                           "J", "Article", 0, 2000)
        expected = "collaboration" if k > 1 else "no_collaboration"
        assert classify_collaboration(rec) == expected


class TestNormalizeJournal:
    @pytest.mark.parametrize("raw,expected", [
        ("Physics World", "physics world"),
        ("  PHYSICS   WORLD  ", "physics world"),
        ("Annals of Physics & Chemistry", "annals of physics and chemistry"),
        ("A&B", "a and b"),
    ])
    def test_examples(self, raw, expected):
        assert normalize_journal(raw) == expected

    def test_idempotent(self):
        n = normalize_journal("  Journal  of   THINGS & Stuff ")
        assert normalize_journal(n) == n


class TestReadClassification:
    def test_reads_map(self, classification_lines):
        mapping = read_classification(classification_lines)
        assert mapping["physics world"] == ("natural", "applied physics")
        assert mapping["botany letters"] == ("natural", "plant sciences")

    def test_normalizes_keys(self):
        mapping = read_classification(["journal,field,subfield",
                                       "ACTA & FRIENDS,nat,sub"])
        assert mapping["acta and friends"] == ("nat", "sub")

    def test_blank_rows_skipped(self):
        mapping = read_classification(["journal,field,subfield", ",,",
                                       "acta,nat,sub", "  ,  ,", ""])
        assert mapping == {"acta": ("nat", "sub")}

    def test_conflicting_journal_rejected(self):
        lines = ["journal,field,subfield",
                 "acta,nat,sub-a",
                 "Acta,nat,sub-b"]
        with pytest.raises(ValueError, match="journal mapped twice: Acta"):
            read_classification(lines)

    def test_duplicate_consistent_rows_allowed(self):
        lines = ["journal,field,subfield",
                 "acta,nat,sub-a",
                 "acta,nat,sub-a"]
        assert len(read_classification(lines)) == 1

    def test_subfield_in_two_fields_rejected(self):
        lines = ["journal,field,subfield",
                 "acta,natural,shared",
                 "other,social,shared"]
        with pytest.raises(ValueError, match="subfield in two fields: shared"):
            read_classification(lines)

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="journal,field,subfield"):
            read_classification(["name,area,topic", "a,b,c"])

    def test_empty_map_rejected(self):
        with pytest.raises(ValueError, match="empty classification map"):
            read_classification([])
        with pytest.raises(ValueError, match="empty classification map"):
            read_classification(["journal,field,subfield"])


class TestBuildAggregates:
    def test_totals_and_split(self, export_lines, classification_lines):
        result = parse_export(export_lines)
        mapping = read_classification(classification_lines)
        aggs, rejections = build_aggregates(result.records, mapping,
                                            result.source_rows)
        assert rejections == []
        by_id = {a.subfield_id: a for a in aggs}
        phys = by_id["applied physics"]
        assert (phys.papers_collab, phys.papers_single) == (1, 1)
        assert (phys.citations_collab, phys.citations_single) == (12, 3)
        plants = by_id["plant sciences"]
        assert (plants.papers_total, plants.citations_total) == (2, 30)

    def test_conservation(self, export_lines, classification_lines):
        result = parse_export(export_lines)
        mapping = read_classification(classification_lines)
        aggs, rejections = build_aggregates(result.records, mapping,
                                            result.source_rows)
        assert sum(a.papers_total for a in aggs) + len(rejections) == \
            len(result.records)
        assert sum(a.citations_total for a in aggs) == \
            sum(r.citations for r in result.records)

    def test_unmapped_journal_reported_with_line(self, export_lines):
        result = parse_export(export_lines)
        mapping = read_classification(["journal,field,subfield",
                                       "physics world,natural,applied physics"])
        aggs, rejections = build_aggregates(result.records, mapping,
                                            result.source_rows)
        assert sum(a.papers_total for a in aggs) == 2
        assert rejections == [(4, "unmapped journal: Botany Letters"),
                              (5, "unmapped journal: Botany Letters")]

    def test_sorted_by_subfield(self, export_lines, classification_lines):
        result = parse_export(export_lines)
        mapping = read_classification(classification_lines)
        aggs, _ = build_aggregates(result.records, mapping)
        ids = [a.subfield_id for a in aggs]
        assert ids == sorted(ids)

    def test_empty_map_rejected(self, export_lines):
        result = parse_export(export_lines)
        with pytest.raises(ValueError, match="empty classification map"):
            build_aggregates(result.records, {})
        # an empty map is an error; no map (None) is a tally of classes
        with pytest.raises(ValueError, match="empty classification map"):
            Tally({})

    def test_one_source_row_per_record(self, export_lines,
                                       classification_lines):
        result = parse_export(export_lines)
        mapping = read_classification(classification_lines)
        with pytest.raises(ValueError, match="2 source rows for 4 records"):
            build_aggregates(result.records, mapping, (2, 3))

    @pytest.mark.parametrize("source_rows, rows", [
        (None, [0, 0, 0]), ((9, 4, 12), [9, 4, 12]),
    ], ids=["no-rows", "rows"])
    def test_unmapped_rejections_keep_record_order(self, source_rows, rows):
        records = [BiblioRecord(f"r{i}", ("A",), journal, "Article", i, 2000)
                   for i, journal in enumerate(("X", "Y", "X"))]
        mapping = {"z": ("f", "s")}
        _, rejections = build_aggregates(records, mapping, source_rows)
        assert rejections == [(row, f"unmapped journal: {journal}")
                              for row, journal in zip(rows, "XYX")]
        # an unmapped row adds nothing, to the sums or to the digests
        tally = Tally(mapping)
        for rec, row in zip(records, rows):
            tally.add(row, rec.authors, rec.journal, rec.citations)
        assert tally.rejections == rejections
        assert tally.result() == ([], {})


class TestModeSamples:
    def test_partition(self, export_lines):
        records = parse_export(export_lines).records
        samples = mode_samples(records)
        assert sorted(samples) == ["collaboration", "overall", "single"]
        assert samples["overall"].counts.tolist() == [0, 3, 12, 30]
        assert samples["collaboration"].counts.tolist() == [12, 30]
        assert samples["single"].counts.tolist() == [0, 3]

    def test_absent_class_omitted(self):
        records = (BiblioRecord("r", ("A", "B"), "J", "Article", 4, 2000),
                   BiblioRecord("s", ("A", "C"), "J", "Article", 4, 2000))
        samples = mode_samples(records)
        assert "single" not in samples
        assert samples["overall"].counts.tolist() == [4, 4]


class TestTally:
    def test_no_classification_keeps_every_row(self, export_lines):
        # each row goes to its class digest; nothing is summed or rejected,
        # whatever the journal
        records = parse_export(export_lines).records
        tally = Tally(None)
        for k, rec in enumerate(records):
            tally.add(k + 2, rec.authors, rec.journal, rec.citations)
        aggregates, modes = tally.result()
        assert (aggregates, tally.rejections) == ([], [])
        assert modes == {"overall": Counter({0: 1, 3: 1, 12: 1, 30: 1}),
                         "collaboration": Counter({12: 1, 30: 1}),
                         "single": Counter({0: 1, 3: 1})}


class TestFilterYears:
    def test_window(self, export_lines):
        records = parse_export(export_lines).records
        kept = filter_years(records, year_min=2000, year_max=2004)
        assert [r.record_id for r in kept] == ["WOS:003"]

    def test_open_ends(self, export_lines):
        records = parse_export(export_lines).records
        assert len(filter_years(records)) == 4
        assert len(filter_years(records, year_min=2005)) == 2
        assert len(filter_years(records, year_max=1999)) == 1

    @given(st.lists(st.integers(min_value=1900, max_value=2030), max_size=30),
           st.integers(min_value=1900, max_value=2030),
           st.integers(min_value=1900, max_value=2030))
    def test_never_keeps_outsiders(self, years, lo, hi):
        records = [BiblioRecord(f"r{i}", ("A",), "J", "Article", 0, y)
                   for i, y in enumerate(years)]
        kept = filter_years(records, year_min=lo, year_max=hi)
        assert all(lo <= r.year <= hi for r in kept)
        assert len(kept) == sum(1 for y in years if lo <= y <= hi)


class _Rows(Sequence):
    """200,000 records cycled from a pool of 199, so that reading them
    allocates nothing."""

    POOL = [BiblioRecord(f"W{k}", ("A", "B")[:1 + k % 2],
                         ("Physics World", "Botany Letters",
                          "Acta Mathematica")[k % 3], "Article", k, 2000)
            for k in range(199)]

    def __len__(self):
        return 200_000

    def __getitem__(self, i):
        if not 0 <= i < len(self):
            raise IndexError(i)
        return self.POOL[i % len(self.POOL)]


class TestTallyMemory:
    # a tally holds per-subfield sums and one digest per collaboration
    # class; keeping three int64 entries per row until the end peaks at
    # 3.3 MB in build_aggregates and 7.3 MB in mode_samples
    BOUND = 1 << 18

    def _peak(self, call, *args):
        import numpy  # noqa: F401  (mode_samples' samples load it)
        tracemalloc.start()
        try:
            result = call(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_build_aggregates(self):
        mapping = {"physics world": ("natural", "physics"),
                   "botany letters": ("natural", "botany"),
                   "acta mathematica": ("formal", "mathematics")}
        rows = _Rows()
        (aggregates, rejections), peak = self._peak(
            build_aggregates, rows, mapping, range(2, len(rows) + 2))
        assert peak < self.BOUND, f"peak {peak / 1e6:.2f} MB"
        assert rejections == []
        assert sum(a.papers_total for a in aggregates) == len(rows)
        assert sum(a.citations_total for a in aggregates) == sum(
            rec.citations for rec in rows)

    def test_mode_samples(self):
        rows = _Rows()
        samples, peak = self._peak(mode_samples, rows)
        assert peak < self.BOUND, f"peak {peak / 1e6:.2f} MB"
        assert len(samples["overall"]) == len(rows)
        assert samples["overall"].values.tolist() == list(range(199))
