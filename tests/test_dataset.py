"""Sample containers, summaries, partition shares, and file round trips."""

import statistics
from array import array
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from heavytails import (
    AGGREGATE_COLUMNS,
    CitationSample,
    SubfieldAggregate,
    dataset,
    partition_shares,
    read_aggregates,
    read_counts,
    summarize,
    write_aggregates,
    write_counts,
)


class TestCitationSample:
    def test_basic_accessors(self, tiny_sample):
        assert len(tiny_sample) == 12
        assert tiny_sample.n_citations == 65
        assert tiny_sample.label == "tiny"

    def test_tail_is_inclusive(self, tiny_sample):
        assert_array_equal(tiny_sample.tail(4), [4, 4, 5, 8, 13, 21])
        assert tiny_sample.tail(22).size == 0

    def test_relabel_keeps_counts(self, tiny_sample):
        renamed = tiny_sample.relabel("other")
        assert renamed.label == "other"
        assert_array_equal(renamed.counts, tiny_sample.counts)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            CitationSample(np.array([3, -1]), label="bad")

    @pytest.mark.parametrize("counts", [
        [3, 2 ** 63], [3, 2 ** 70], np.array([3, 2 ** 63], dtype=np.uint64),
        [3.0, 1e19]], ids=["int", "object", "uint64", "float"])
    def test_rejects_counts_of_2_63_or_more(self, counts):
        # never wrapped through the int64 cast
        with pytest.raises(ValueError, match="citation count out of range"):
            CitationSample(counts, label="big")

    @pytest.mark.parametrize("values, typecode, message", [
        ([5, 0, 3, 3, 2 ** 63 - 1], "q", None),
        ([4, 1.5], "d", "citation counts must be integers"),
        ([3, -1], "q", "citation counts must be nonnegative"),
        ([3, 2 ** 63], "Q", "citation count out of range"),
        ([], "q", "empty dataset"),
    ], ids=["valid", "fraction", "negative", "2**63", "empty"])
    def test_list_buffer_and_ndarray_alike(self, values, typecode, message):
        # an array.array is read through its buffer, a list item by item
        buffer = array(typecode, values)
        inputs = (values, buffer, np.array(values))
        if message is not None:
            for counts in inputs:
                with pytest.raises(ValueError, match=f"^{message}$"):
                    CitationSample(counts)
            return
        samples = [CitationSample(counts, label="x") for counts in inputs]
        buffer[0] = 7  # the sample holds a copy
        for s in samples:
            assert s.counts.dtype == np.int64
            assert s.counts.tolist() == sorted(values)

    def test_keeps_the_largest_int64(self):
        big = CitationSample([2 ** 63 - 1, 3], label="big")
        assert big.counts.tolist() == [3, 2 ** 63 - 1]

    def test_citation_total_is_exact_past_int64(self):
        big = CitationSample([2 ** 62, 2 ** 62, 3], label="big")
        assert big.n_citations == 2 ** 63 + 3
        assert summarize(big).n_citations == 2 ** 63 + 3

    def test_digest_form(self):
        s = CitationSample({3: 2, 1: 1, 0: 4}, label="d")
        assert s.values.tolist() == [0, 1, 3]
        assert s.multiplicities.tolist() == [4, 1, 2]
        assert s.counts.tolist() == [0, 0, 0, 0, 1, 3, 3]
        assert len(s) == 7
        assert s.n_citations == 7
        assert list(s) == [0, 0, 0, 0, 1, 3, 3]
        assert summarize(s).median_citations == 0.0
        for arr in (s.values, s.multiplicities, s.counts, s.tail(1)):
            assert arr.dtype == np.int64
            assert not arr.flags.writeable

    @pytest.mark.parametrize("counts, message", [
        ([[4, 3], [2, 1]], "one-dimensional"),
        (np.array(5), "one-dimensional"),
        ([True, False], "^citation counts must be integers$"),
        (["1", "2"], "^citation counts must be integers$"),
        ([1, "2"], "^citation counts must be integers$"),
        ([1, 2.5 + 1j], "^citation counts must be integers$"),
        ([float("nan"), 1.0], "^citation counts must be integers$"),
        ({1.5: 2}, "^citation counts must be integers$"),
        ({True: 2}, "^citation counts must be integers$"),
        ({"x": 1}, "^citation counts must be integers$"),
        ({-3: 1}, "^citation counts must be nonnegative$"),
        ({2 ** 63: 1}, "^citation count out of range$"),
        ({5: -1, 7: 2}, "multiplicity of 5 must be a positive integer"),
        ({6: 0}, "multiplicity of 6 must be a positive integer"),
        ({6: 1.5}, "multiplicity of 6 must be a positive integer"),
        ({6: True}, "multiplicity of 6 must be a positive integer"),
        ({1: 2 ** 62, 2: 2 ** 62}, "2\\*\\*63 or more citation counts"),
        ({}, "^empty dataset$"),
    ], ids=["2-d", "0-d", "bool", "str", "mixed-str", "complex", "nan",
            "digest-fraction", "digest-bool", "digest-str", "digest-negative",
            "digest-2**63", "digest-negative-multiplicity",
            "digest-zero-multiplicity", "digest-fractional-multiplicity",
            "digest-bool-multiplicity", "digest-total-2**63", "digest-empty"])
    def test_rejects_what_it_cannot_hold(self, counts, message):
        with pytest.raises(ValueError, match=message):
            CitationSample(counts)

    def test_digest_total_just_below_2_63(self):
        s = CitationSample({1: 2 ** 62, 2: 2 ** 62 - 1})
        assert len(s) == 2 ** 63 - 1
        assert s.n_citations == 2 ** 62 + 2 * (2 ** 62 - 1)


class TestSummarize:
    # the two central counts are summed as Python ints: 2**63 - 1 twice
    # overflows int64
    @pytest.mark.parametrize("values", [
        [7], [3, 1, 2], [1, 2], [4, 0, 9, 9], [2**63 - 1, 2**63 - 1],
        [0, 2**63 - 1, 2**63 - 1, 2**63 - 1], [0, 2**63 - 1], [5, 2**62 + 1],
    ])
    def test_median_is_statistics_median(self, values):
        median = summarize(CitationSample(values)).median_citations
        assert type(median) is float
        assert median == float(statistics.median(values))

    def test_median_even_sample(self):
        s = CitationSample(np.array([1, 2, 3, 10]), label="s")
        stats = summarize(s)
        assert stats.median_citations == 2.5
        assert stats.n_papers == 4
        assert stats.n_citations == 16
        assert stats.share_papers == 1.0

    def test_shares_against_totals(self):
        s = CitationSample(np.array([5, 5]), label="s")
        stats = summarize(s, total_papers=8, total_citations=40)
        assert_allclose(stats.share_papers, 0.25)
        assert_allclose(stats.share_citations, 0.25)

    def test_totals_cannot_undercut_sample(self):
        s = CitationSample(np.array([5, 5]), label="s")
        with pytest.raises(ValueError):
            summarize(s, total_papers=1)

    def test_empty_rejected_at_construction(self):
        with pytest.raises(ValueError, match="empty dataset"):
            CitationSample(np.array([], dtype=np.int64), label="e")

    @given(st.lists(st.integers(min_value=0, max_value=10_000),
                    min_size=1, max_size=60),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_permutation_invariance(self, values, seed):
        arr = np.array(values, dtype=np.int64)
        shuffled = arr.copy()
        np.random.default_rng(seed).shuffle(shuffled)
        a = summarize(CitationSample(arr, label="a"))
        b = summarize(CitationSample(shuffled, label="b"))
        assert a.n_citations == b.n_citations
        assert a.median_citations == b.median_citations


class TestPartitionShares:
    def test_two_way_split(self):
        collab = summarize(CitationSample(np.array([8, 8]), label="c"))
        single = summarize(CitationSample(np.array([2, 2]), label="s"))
        shares = partition_shares(collab, single)
        assert_allclose(shares.share_collab, 0.8)
        assert_allclose(shares.share_single, 0.2)
        assert_allclose(shares.ratio, 4.0)

    def test_ratio_undefined_without_single_citations(self):
        collab = summarize(CitationSample(np.array([8]), label="c"))
        single = summarize(CitationSample(np.array([0]), label="s"))
        shares = partition_shares(collab, single)
        assert shares.ratio is None
        assert shares.share_collab == 1.0

    def test_no_citations_at_all(self):
        collab = summarize(CitationSample(np.array([0, 0]), label="c"))
        single = summarize(CitationSample(np.array([0]), label="s"))
        assert partition_shares(collab, single) == (0.0, 0.0, None)


class TestCountsIO:
    def test_round_trip(self, tmp_path, tiny_sample):
        path = tmp_path / "counts.txt"
        write_counts(path, tiny_sample.counts)
        back = read_counts(path)
        assert_array_equal(back.counts, tiny_sample.counts)
        assert back.label == "counts"

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# generated\n\n3\n1\n\n# trailing\n4\n")
        assert_array_equal(read_counts(path).counts, [1, 3, 4])

    def test_header_lines_written(self, tmp_path):
        path = tmp_path / "c.txt"
        write_counts(path, [1, 2], header=("alpha", "beta"))
        lines = path.read_text().splitlines()
        assert lines[:2] == ["# alpha", "# beta"]
        assert_array_equal(read_counts(path).counts, [1, 2])

    def test_written_bytes(self, tmp_path):
        path = tmp_path / "c.txt"
        for counts in (np.array([3, 3, 0, 12, 12, 12]), [3, 3, 0, 12, 12, 12]):
            write_counts(path, counts, header=("h",))
            assert path.read_bytes() == b"# h\n3\n3\n0\n12\n12\n12\n"

    def test_digest_written_ascending(self, tmp_path):
        path = tmp_path / "c.txt"
        for digest in ({12: 3, 0: 1, 3: 2},
                       Counter([3, 3, 0, 12, 12, 12]),
                       {np.int64(3): np.int64(2), 12.0: 3, 0: 1}):
            write_counts(path, digest, header=("h",))
            assert path.read_bytes() == b"# h\n0\n3\n3\n12\n12\n12\n"

    @pytest.mark.parametrize("counts, message", [
        ([5.5, 7], "^citation counts must be integers$"),
        ([7, True], "^citation counts must be integers$"),
        (np.array([5.5, 7]), "^citation counts must be integers$"),
        ([3, -1], "^citation counts must be nonnegative$"),
        ([2 ** 63], "^citation count out of range$"),
        ({5: -1, 6: 0, 7: 2}, "multiplicity of 5 must be a positive"),
        ({6: 0, 7: 2}, "multiplicity of 6 must be a positive"),
        ({-3: 1}, "^citation counts must be nonnegative$"),
        ({"4": 1}, "^citation counts must be integers$"),
    ], ids=["fraction", "bool", "ndarray-fraction", "negative", "2**63",
            "negative-multiplicity", "zero-multiplicity", "digest-negative",
            "digest-str"])
    def test_write_rejects_what_read_cannot_give_back(self, tmp_path, counts,
                                                      message):
        path = tmp_path / "c.txt"
        with pytest.raises(ValueError, match=message):
            write_counts(path, counts, header=("h",))
        # nothing is written, not even the header
        assert not path.exists()

    @pytest.mark.parametrize("text", [
        "3\n1\n4\n", "# h\n3\n\n1\n4", "3\r\n1\r\n4\r\n", " 3\n1 \n\t4\n",
        "  # h\n3\n1\n4\n", "3\n   \n1\n4\n", "3\n1\n4", "3\n# h\n1\n4\n",
        "3\r\n# h\r\n1\r\n4",
    ], ids=["bare", "comment-blank", "crlf", "padded", "indented-comment",
            "whitespace-line", "no-final-newline", "comment-inside",
            "crlf-no-final-newline"])
    def test_layouts_read_alike(self, tmp_path, monkeypatch, text):
        path = tmp_path / "c.txt"
        path.write_bytes(text.encode())
        assert read_counts(path).counts.tolist() == [1, 3, 4]
        # in blocks of 2 characters, lines and CRLF endings straddle blocks
        monkeypatch.setattr(dataset, "_BLOCK", 2)
        assert read_counts(path).counts.tolist() == [1, 3, 4]

    @pytest.mark.parametrize("text", ["3\n1\n4\n", "# h\n3\n1\n4\n"],
                             ids=["count-first", "comment-first"])
    def test_byte_order_mark_ignored(self, tmp_path, monkeypatch, text):
        # as ingest reads an export: a UTF-8 BOM before the first line
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert read_counts(path).counts.tolist() == [1, 3, 4]
        monkeypatch.setattr(dataset, "_BLOCK", 2)
        assert read_counts(path).counts.tolist() == [1, 3, 4]
        # a bad line is still named by its number
        path.write_bytes(b"\xef\xbb\xbf" + text.encode() + b"x\n")
        with pytest.raises(ValueError,
                           match="^bom.txt:[45]: not a base-10 integer: 'x'$"):
            read_counts(path)

    def test_bad_line_past_the_first_block_is_named(self, tmp_path):
        path = tmp_path / "c.txt"
        good = "1234\n" * 300_000
        assert len(good) > dataset._BLOCK
        path.write_text(f"{good}oops\n-5\n{good}", encoding="utf-8")
        with pytest.raises(ValueError,
                           match="^c.txt:300001: not a base-10 integer: 'oops'$"):
            read_counts(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(ValueError, match="empty dataset"):
            read_counts(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("3\nfour\n")
        with pytest.raises(ValueError):
            read_counts(path)
        # int() would take all but the last of these
        for text, message in [("1_000", "not a base-10 integer"),
                              ("+5", "not a base-10 integer"),
                              ("\u0663", "not a base-10 integer"),
                              ("\uff15", "not a base-10 integer"),
                              ("-3", "negative count -3"),
                              ("99999999999999999999", "count out of range"),
                              ("  9223372036854775808", "count out of range")]:
            path.write_text(f"3\n{text}\n", encoding="utf-8")
            with pytest.raises(ValueError, match=f"^c.txt:2: {message}"):
                read_counts(path)


class TestAggregatesIO:
    def _aggregate(self):
        return SubfieldAggregate("applied physics", "natural",
                                 papers_total=10, papers_collab=7,
                                 papers_single=3, citations_total=50,
                                 citations_collab=40, citations_single=10)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "agg.tsv"
        write_aggregates(path, [self._aggregate()])
        back = read_aggregates(path)
        assert back == [self._aggregate()]

    def test_header_is_checked(self, tmp_path):
        path = tmp_path / "agg.tsv"
        path.write_text("wrong\theader\n")
        with pytest.raises(ValueError):
            read_aggregates(path)

    def test_blank_file_rejected(self, tmp_path):
        path = tmp_path / "agg.tsv"
        path.write_text("\n\n  \n")
        with pytest.raises(ValueError, match="^empty aggregate table$"):
            read_aggregates(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "agg.tsv"
        write_aggregates(path, [self._aggregate()])
        header, row = path.read_text(encoding="utf-8").splitlines()
        short = "\t".join(row.split("\t")[:-1])
        path.write_text(f"{header}\n{short}\n", encoding="utf-8")
        with pytest.raises(ValueError,
                           match="^agg.tsv:2: expected 8 columns$"):
            read_aggregates(path)

    @pytest.mark.parametrize("value", ["ten", "1_0", "+10", " 10",
                                       "\u0661\u0660", "\uff11\uff10"])
    def test_non_integer_value_rejected(self, tmp_path, value):
        path = tmp_path / "agg.tsv"
        write_aggregates(path, [self._aggregate()])
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("\t10\t", f"\t{value}\t", 1),
                        encoding="utf-8")
        with pytest.raises(ValueError,
                           match="^agg.tsv:2: non-integer aggregate value"):
            read_aggregates(path)

    # blank lines count, and a row the aggregate itself rejects is named too
    @pytest.mark.parametrize("column, value, message", [
        (2, "ten", "non-integer aggregate value"),
        (2, "11", r"papers_total must equal papers_collab \+ papers_single"),
        (5, "51", r"citations_total must equal citations_collab "
                  r"\+ citations_single"),
        (4, "-3", "papers_single must be nonnegative"),
    ], ids=["non-integer", "unbalanced", "unbalanced-citations", "negative"])
    def test_row_error_names_its_line(self, tmp_path, column, value,
                                      message):
        path = tmp_path / "agg.tsv"
        write_aggregates(path, [self._aggregate()])
        header, row = path.read_text(encoding="utf-8").splitlines()
        bad = row.split("\t")
        bad[column] = value
        path.write_text(f"{header}\n\n{row}\n\n" + "\t".join(bad) + "\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=f"^agg.tsv:5: {message}$"):
            read_aggregates(path)

    def test_partition_must_sum(self):
        with pytest.raises(ValueError):
            SubfieldAggregate("s", "f", papers_total=5, papers_collab=1,
                              papers_single=1, citations_total=0,
                              citations_collab=0, citations_single=0)

    def test_column_order_is_stable(self):
        assert AGGREGATE_COLUMNS[0] == "subfield"
        assert len(AGGREGATE_COLUMNS) == 8
