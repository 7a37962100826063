"""Citation samples, subfield aggregates, and descriptive statistics.

A :class:`CitationSample` is the unit every fitting routine operates on: a
labelled, immutable multiset of per-paper citation counts.  Aggregates carry
the per-subfield paper/citation totals split by collaboration class that the
scaling regressions consume.  numpy is imported by the code that uses it, so
reading aggregates and writing counts load none.
"""

from __future__ import annotations

import copy
import operator
import re
from collections import Counter
from collections.abc import Mapping
from dataclasses import astuple, dataclass, fields
from itertools import chain, groupby, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CitationSample",
    "SubfieldAggregate",
    "SummaryStats",
    "PartitionShares",
    "summarize",
    "partition_shares",
    "read_counts",
    "write_counts",
    "read_aggregates",
    "write_aggregates",
    "AGGREGATE_COLUMNS",
]

# every count is below 2**63, so that it has an int64 slot
_COUNT_LIMIT = 1 << 63
# characters read_counts reads at a time
_BLOCK = 1 << 14

AGGREGATE_COLUMNS = (
    "subfield",
    "field",
    "papers_total",
    "papers_collab",
    "papers_single",
    "citations_total",
    "citations_collab",
    "citations_single",
)


class CitationSample:
    """Immutable multiset of nonnegative citation counts, held as its
    value–count digest: the distinct values, ascending, and how many
    papers have each.

    Built from the counts themselves, in any order, with one
    ``np.unique``, or from a value -> count Mapping, the form
    :func:`write_counts` also takes.  Counts of zero are kept: they never
    enter a power-law tail but they do contribute to corpus shares and
    medians.  A value that is no integer in [0, 2**63), a multiplicity
    that is not positive, or more than 2**63 - 1 counts in all, raise
    ValueError.
    """

    __slots__ = ("_label", "_values", "_mult", "_n")

    def __init__(self, counts: Iterable[int] | Mapping[int, int],
                 label: str = ""):
        import numpy as np

        if isinstance(counts, Mapping):
            items = _digest_items(counts)
            if not items:
                raise ValueError("empty dataset")
            values, mult = (np.array(column, dtype=np.int64)
                            for column in zip(*items))
        else:
            values, mult = np.unique(_counts_array(counts),
                                     return_counts=True)
        values.setflags(write=False)
        mult.setflags(write=False)
        self._label = str(label)
        self._values = values
        self._mult = mult
        self._n = int(mult.sum())

    @property
    def label(self) -> str:
        return self._label

    @property
    def values(self) -> np.ndarray:
        """The distinct counts, ascending (read-only int64)."""
        return self._values

    @property
    def multiplicities(self) -> np.ndarray:
        """How many papers have each of :attr:`values` (read-only int64)."""
        return self._mult

    @property
    def counts(self) -> np.ndarray:
        """Every count, ascending: the digest expanded to a new read-only
        array of len(self) entries."""
        return _expand(self._values, self._mult)

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        return chain.from_iterable(map(repeat, self._values.tolist(),
                                       self._mult.tolist()))

    def __repr__(self) -> str:
        return f"CitationSample(label={self._label!r}, n={len(self)})"

    @property
    def n_citations(self) -> int:
        # exact: each count is below 2**63, but their sum need not be
        return sum(map(operator.mul, self._values.tolist(),
                       self._mult.tolist()))

    def tail(self, x_min: int) -> np.ndarray:
        """Counts at or above ``x_min``, ascending (read-only)."""
        keep = self._values >= x_min
        return _expand(self._values[keep], self._mult[keep])

    def relabel(self, label: str) -> "CitationSample":
        out = copy.copy(self)
        out._label = str(label)
        return out


def _expand(values: np.ndarray, mult: np.ndarray) -> np.ndarray:
    import numpy as np

    out = np.repeat(values, mult)
    out.setflags(write=False)
    return out


def _whole(value) -> int | None:
    """``value`` as an int if it is a whole number, else None; a bool is
    not one."""
    if isinstance(value, bool):
        return None
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return whole if whole == value else None


def _count(value) -> int:
    """One citation count as an int; a ValueError says what is wrong."""
    whole = _whole(value)
    if whole is None:
        raise ValueError("citation counts must be integers")
    if whole < 0:
        raise ValueError("citation counts must be nonnegative")
    if whole >= _COUNT_LIMIT:
        raise ValueError("citation count out of range")
    return whole


def _digest_items(digest: Mapping) -> list[tuple[int, int]]:
    """A value -> count digest's (value, count) pairs, ascending by value:
    every value a citation count, every count a positive integer, and the
    counts below 2**63 in all."""
    items = []
    for value, n in digest.items():
        whole = _whole(n)
        if whole is None or whole < 1:
            raise ValueError(f"multiplicity of {value!r} must be a positive "
                             f"integer, got {n!r}")
        items.append((_count(value), whole))
    items.sort()
    if sum(n for _, n in items) >= _COUNT_LIMIT:
        raise ValueError("2**63 or more citation counts")
    return items


def _counts_array(counts: Iterable[int]) -> np.ndarray:
    """The counts as a one-dimensional int64 array, each one checked."""
    import numpy as np

    if isinstance(counts, np.ndarray):
        arr = counts
    else:
        # a buffer (array.array, bytes) is read in place, not as a list
        try:
            arr = np.asarray(memoryview(counts))
        except TypeError:
            arr = np.asarray(list(counts))
    if arr.ndim != 1:
        raise ValueError("citation counts must be a one-dimensional "
                         f"sequence, got {arr.ndim} dimensions")
    if arr.size == 0:
        raise ValueError("empty dataset")
    kind = arr.dtype.kind
    if kind == "O":
        # Python ints past int64, and whatever else a list mixes
        return np.array([_count(value) for value in arr.tolist()],
                        dtype=np.int64)
    if kind not in "iuf":
        raise ValueError("citation counts must be integers")
    if kind == "f" and not np.all(np.equal(np.mod(arr, 1), 0)):
        raise ValueError("citation counts must be integers")
    if arr.min() < 0:
        raise ValueError("citation counts must be nonnegative")
    if arr.max() >= _COUNT_LIMIT:
        raise ValueError("citation count out of range")
    return arr.astype(np.int64, copy=False)


@dataclass(frozen=True, slots=True)
class SubfieldAggregate:
    """Per-subfield paper and citation totals split by collaboration class."""

    subfield_id: str
    field_id: str
    papers_total: int
    papers_collab: int
    papers_single: int
    citations_total: int
    citations_collab: int
    citations_single: int

    def __post_init__(self):
        for field in fields(self)[2:]:
            if getattr(self, field.name) < 0:
                raise ValueError(f"{field.name} must be nonnegative")
        if self.papers_total != self.papers_collab + self.papers_single:
            raise ValueError("papers_total must equal papers_collab + papers_single")
        if self.citations_total != self.citations_collab + self.citations_single:
            raise ValueError("citations_total must equal citations_collab + citations_single")


@dataclass(frozen=True, slots=True)
class SummaryStats:
    """Descriptive statistics for one partition of a corpus.

    ``share_papers``/``share_citations`` are fractions of the corpus totals
    handed to :func:`summarize`; they default to 1 when no totals are given.
    """

    n_papers: int
    n_citations: int
    share_papers: float
    share_citations: float
    median_citations: float


class PartitionShares(NamedTuple):
    share_collab: float
    share_single: float
    ratio: float | None


def summarize(sample: CitationSample,
              total_papers: int | None = None,
              total_citations: int | None = None) -> SummaryStats:
    """Summary statistics for a sample, optionally as a share of corpus totals.

    The median of an even-sized sample is the mean of the two central order
    statistics.
    """
    n = len(sample)
    cites = sample.n_citations
    tp = n if total_papers is None else int(total_papers)
    tc = cites if total_citations is None else int(total_citations)
    if tp < n or tc < cites:
        raise ValueError("corpus totals smaller than the sample itself")
    import numpy as np

    # the two central order statistics, found in the cumulative
    # multiplicities and added as Python ints: two int64 counts near 2**63
    # would overflow
    central = np.searchsorted(np.cumsum(sample.multiplicities),
                              [(n - 1) // 2, n // 2], side="right")
    low, high = sample.values[central].tolist()
    return SummaryStats(
        n_papers=n,
        n_citations=cites,
        share_papers=n / tp if tp else 0.0,
        share_citations=cites / tc if tc else 0.0,
        median_citations=(low + high) / 2,
    )


def partition_shares(collab: SummaryStats, single: SummaryStats) -> PartitionShares:
    """Citation shares of the two-way partition and their ratio.

    The ratio is collaborative citations over single-authored citations; it
    is ``None`` (undefined) when the single partition has no citations.
    """
    total = collab.n_citations + single.n_citations
    if total == 0:
        return PartitionShares(0.0, 0.0, None)
    ratio = collab.n_citations / single.n_citations if single.n_citations else None
    return PartitionShares(collab.n_citations / total, single.n_citations / total, ratio)


def _parse_int(text: str) -> int:
    """The integer written as ASCII digits with an optional leading '-'.

    Unlike int(), rejects '+5', '1_000', surrounding space and non-ASCII
    digits.
    """
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a base-10 integer: {text!r}")
    return int(text)


def read_counts(path: str | Path, label: str | None = None) -> CitationSample:
    """Read the one-count-per-line plain-text format.

    Blank lines and lines starting with ``#`` are ignored; both LF and CRLF
    endings are accepted, and so is a leading UTF-8 byte order mark.  A
    count is written in ASCII digits only and is below 2**63.  The file is
    read as a digest of its lines, each distinct line with its number of
    copies, so each distinct line is parsed once, and the sample is built
    from that digest: no array of every count is made.
    """
    path = Path(path)
    lines: Counter[str] = Counter()
    with open(path, "r", encoding="utf-8-sig", newline=None) as fh:
        rest = ""
        while block := fh.read(_BLOCK):
            whole = (rest + block).split("\n")
            # the block's last line may go on in the next block
            rest = whole.pop()
            lines.update(whole)
    lines[rest] += 1
    # lines such as "5" and "05" hold one value: their copies add up
    digest: Counter[int] = Counter()
    try:
        for line, copies in lines.items():
            value = _count_line(line)
            if value is not None:
                digest[value] += copies
    except ValueError:
        # name the first bad line, by its number
        with open(path, "r", encoding="utf-8-sig", newline=None) as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    _count_line(line)
                except ValueError as exc:
                    raise ValueError(f"{path.name}:{lineno}: {exc}") from None
        raise
    if not digest:
        raise ValueError(f"{path.name}: empty dataset")
    return CitationSample(digest, label if label is not None else path.stem)


def _count_line(raw: str) -> int | None:
    """The count on one line of a counts file, None on a blank or comment
    line; a ValueError says what is wrong with the line."""
    line = raw.strip()
    if not line or line.startswith("#"):
        return None
    value = _parse_int(line)
    if value < 0:
        raise ValueError(f"negative count {value}")
    if value >= _COUNT_LIMIT:
        raise ValueError("count out of range")
    return value


def write_counts(path: str | Path, counts: Iterable[int] | Mapping[int, int],
                 header: Iterable[str] = ()) -> None:
    """Write counts one per line; header lines are emitted as ``#`` comments,
    one per piece of a header line that holds line breaks.  ``counts`` is
    either the counts, written in their order, or a value -> count digest,
    written in ascending value order.  A count that is no integer in
    [0, 2**63), or a multiplicity that is not positive, raises ValueError
    before the file is opened."""
    if isinstance(counts, Mapping):
        runs = _digest_items(counts)
    else:
        if hasattr(counts, "tolist"):  # an ndarray or array
            counts = counts.tolist()  # Python ints format faster
        # a sample's counts are sorted: each run of equal values is one
        # string, and its first value is checked
        runs = [(_count(value), operator.countOf(run, value))
                for value, run in groupby(counts)]
    # read_counts breaks lines at \r, \n and \r\n
    lines = [f"# {piece}\n" for line in header
             for piece in re.split(r"\r\n?|\n", line)]
    lines += [f"{value}\n" * n for value, n in runs]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(lines))


def read_aggregates(path: str | Path) -> list[SubfieldAggregate]:
    """Read the tab-separated subfield aggregate table; a leading UTF-8 byte
    order mark is accepted."""
    path = Path(path)
    with open(path, "r", encoding="utf-8-sig", newline=None) as fh:
        lines = [(lineno, ln.rstrip("\n"))
                 for lineno, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines:
        raise ValueError("empty aggregate table")
    header = tuple(lines[0][1].split("\t"))
    if header != AGGREGATE_COLUMNS:
        raise ValueError(f"bad aggregate header: expected {list(AGGREGATE_COLUMNS)}, got {list(header)}")
    out = []
    for lineno, line in lines[1:]:
        parts = line.split("\t")
        if len(parts) != len(AGGREGATE_COLUMNS):
            raise ValueError(f"{path.name}:{lineno}: expected {len(AGGREGATE_COLUMNS)} columns")
        try:
            numbers = [_parse_int(p) for p in parts[2:]]
        except ValueError:
            raise ValueError(f"{path.name}:{lineno}: non-integer aggregate value") from None
        try:
            out.append(SubfieldAggregate(parts[0], parts[1], *numbers))
        except ValueError as exc:
            raise ValueError(f"{path.name}:{lineno}: {exc}") from None
    return out


def write_aggregates(path: str | Path, aggregates: Iterable[SubfieldAggregate]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\t".join(AGGREGATE_COLUMNS) + "\n")
        for agg in aggregates:
            fh.write("\t".join(str(v) for v in astuple(agg)) + "\n")
