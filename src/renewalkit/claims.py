"""From raw policy/claim records to waiting-time distribution functions.

The pipeline is deliberately dumb: clean the records, count claim
occurrences by (renewal age, claim age), normalise the rows.  Ages are
integer completed years, age 18 is grid index 0, and entry ages at or past
the pooling cap (default 60) are compiled together.

Cleaned records are one columnar :class:`ClaimRecords`, claims sorted by
(policy, age) with one in-place sort of a one-key column.  The occurrence
table and the duration histograms read two small tables that one walk over
the claims counts, at the first call of either, and that the records keep;
the no-claim table is an ``np.bincount`` of the capped entry ages.

Past the record columns themselves, the working memory of cleaning,
checking and counting is set by one block of ``_CLAIM_BLOCK`` claims and a
few policy-length arrays, not by the claims or their order: each kept claim
is stored once, as its (policy, age) key, the sort needs no buffer, the
same-age rule compacts the sorted keys in place, the one walk steps
through blocks of whole policies, and the record checks run block by block.

:func:`ingest` reads each CSV once, in reads of 8 Ki characters cut after
their last line feed.  A block of plain ``id,age`` lines is split on its
commas in one pass, its ids go through the policy index in one ``map`` and
its ages through one ``np.fromiter`` over a table of the canonical age texts
(or, if any text is off that table, through :func:`_parse_age`), and each
kept claim is appended to one flat ``array("q")`` column as its key.  From
the first block that is not plain (a blank, padded, quoted or ragged line, a
non-ASCII character, CR-only or mixed line ends, no line feed at all, a byte
that is not UTF-8, or more than the csv field limit), ``csv`` reads the rest
of the file.
Each block is read once: the ages before its first id fault (a duplicate or
unknown id), then the fault, so each error names the file and the physical
line of the first failing record, whichever check it fails.
"""

from __future__ import annotations

import csv
import io
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, pairwise, repeat
from pathlib import Path

import numpy as np

from .grids import TimeGrid, TwoTimeMatrix

__all__ = [
    "BASE_AGE",
    "ClaimRecords",
    "DurationHistogram",
    "IngestReport",
    "MAX_AGE",
    "NoClaimRow",
    "OccurrenceTable",
    "TRANSITIONS",
    "build_duration_histogram",
    "build_occurrence_table",
    "histogram_to_df",
    "ingest",
    "no_claim_table",
    "occurrence_to_nh_df",
]

#: Grid index 0 corresponds to this age.
BASE_AGE = 18

#: Ages read from the CSVs above this value are rejected as corrupt.
MAX_AGE = 150

TRANSITIONS = ("entry-to-first", "first-to-second", "second-to-third", "merged")

#: characters read per block, cut after the last line feed: as fast as 64 KiB, and a
#: block's field strings fit in the free space of the small-object heap, not in new arenas
_BLOCK = 1 << 13

#: the bytes a plain field may hold: printable ASCII but space, quote and comma
_FIELD_BYTES = bytes(b for b in range(0x21, 0x7F) if b not in b'",')

#: each age in 0..MAX_AGE by its canonical text, clamped as :func:`_parse_age` clamps it
_AGE_OF = {str(i): max(i, BASE_AGE - 1) for i in range(MAX_AGE + 1)}

#: characters of an age echoed in its error message
_ECHO = 32

#: claims per block in the cleaner, the record checks and the count tables, whose
#: temporaries are then a few block-long arrays whatever the corpus size; an int64
#: block is 64 KiB, under glibc's 128 KiB mmap threshold, so the blocks reuse freed heap
#: chunks (blocks of 2**14 and 2**15 left the later simulate peak 0.3-0.5 MB higher)
_CLAIM_BLOCK = 1 << 13

#: the physical line numbers, ids and ages of a block of records
_Block = tuple[Sequence[int], list[str], list[str]]


def _check_cap_age(cap_age: int) -> None:
    # no age exceeds MAX_AGE, so a larger cap would only add empty rows to an n x n table
    if not BASE_AGE < cap_age <= MAX_AGE:
        raise ValueError(f"cap_age must be in ({BASE_AGE}, {MAX_AGE}], got {cap_age}")


@dataclass(frozen=True, eq=False)
class ClaimRecords:
    """Cleaned records as columns.

    ``policy_ids`` and ``entry_age`` have one entry per retained policy;
    ``claim_policy`` (index into the policy columns) and ``claim_age`` have
    one entry per retained claim, sorted by (policy, age).  Entry ages are
    at least ``BASE_AGE`` and no claim predates its policy's entry.  The
    columns are frozen in place, not copied: a copy would double
    :func:`ingest`'s claim columns.
    """

    policy_ids: tuple[str, ...]
    entry_age: np.ndarray = field(repr=False)
    claim_policy: np.ndarray = field(repr=False)
    claim_age: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        for name in ("entry_age", "claim_policy", "claim_age"):
            col = np.asarray(getattr(self, name), dtype=np.int64)
            col.setflags(write=False)
            object.__setattr__(self, name, col)
        entry, p, c = self.entry_age, self.claim_policy, self.claim_age
        if len(entry) != len(self.policy_ids) or len(p) != len(c):
            raise ValueError("each policy column and each claim column must have one length")
        # each check runs over blocks that overlap by one claim, so that every adjacent pair is
        # in a block; the checks keep their order, so a column with several faults fails as a whole
        ends = [(lo, lo + _CLAIM_BLOCK + 1) for lo in range(0, len(p), _CLAIM_BLOCK)]
        blocks = [(p[lo:hi], c[lo:hi]) for lo, hi in ends]
        if any(np.any((bp < 0) | (bp >= len(entry))) for bp, _ in blocks):
            raise ValueError(f"claim_policy must index the {len(entry)} policies")
        if any(_unsorted(bp, bc) for bp, bc in blocks):
            raise ValueError("claims must be sorted by (policy, age)")
        if np.any(entry < BASE_AGE) or any(np.any(bc < entry[bp]) for bp, bc in blocks):
            raise ValueError(f"entry ages must be >= {BASE_AGE} and no claim may predate its entry")

    @cached_property
    def _count_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only tables of :func:`_count_claims`, counted on first use and kept."""
        return _count_claims(self)


def _unsorted(p: np.ndarray, c: np.ndarray) -> bool:
    """Whether any adjacent pair of claims is out of (policy, age) order."""
    step = np.diff(p)
    return bool(np.any((step < 0) | ((step == 0) & (np.diff(c) < 0))))


@dataclass
class IngestReport:
    policies_read: int = 0
    policies_rejected: int = 0
    imputed_entries: int = 0
    claims_read: int = 0
    claims_retained: int = 0
    claims_discarded: int = 0


def ingest(
    policies_file: str | Path,
    claims_file: str | Path,
    *,
    impute_entry_age: int = 24,
    zero_duration: str = "bucket1",
) -> tuple[ClaimRecords, IngestReport]:
    """Read, validate and clean the two CSVs.

    Cleaning rules: a missing entry age is imputed to ``impute_entry_age``;
    an entry age below 18 rejects the whole policy (counted, not fatal) and
    discards its claims; claims are sorted within each policy, claims dated
    before the entry age are discarded, and a claim at the same age as its
    renewal (the entry or the previous claim) follows ``zero_duration``:
    "bucket1" keeps it and books it at duration one year, "discard" drops
    it.  Both settings are checked before either file is opened.  An age is
    an optional sign and ASCII digits.  Ages above ``MAX_AGE``, malformed
    rows and ages, and claims pointing at unknown policies raise with the
    file and line number.

    Each block of records from :func:`_records` is checked and stored at
    once.  The ages of the rows before its first id fault, if any, are read
    at their lines (see :func:`_bulk_ages`), so a bad age there raises
    first; the fault then raises at its line.  A malformed age on a rejected
    policy's claim is not read, so it does not fail.
    A kept claim (not before its entry, nor at it under "discard") is stored
    once, as the key ``policy * (MAX_AGE + 1) + age``; after one in-place sort,
    "discard" keeps the first of each run of equal keys, and one ``np.divmod``
    decodes the keys into ``claim_policy``, in place, and ``claim_age``.
    """
    if not BASE_AGE <= impute_entry_age <= MAX_AGE:
        raise ValueError(f"impute_entry_age must be in [{BASE_AGE}, {MAX_AGE}]")
    if zero_duration not in ("bucket1", "discard"):
        raise ValueError("zero_duration must be 'bucket1' or 'discard'")
    report = IngestReport()
    index: dict[str, int] = {}  # policy id -> column index, -1 if rejected
    ids: list[str] = []
    entries, keys = array("q"), array("q")

    blank = str(impute_entry_age)  # read in place of a blank entry age
    for linenos, pids, texts in _records(policies_file, ("policy_id", "entry_age")):
        imputed = texts.count("")
        texts = [t or blank for t in texts] if imputed else texts
        if len(set(pids)) < len(pids) or not index.keys().isdisjoint(pids):
            seen: set[str] = set()
            for at, pid in enumerate(pids):  # the first id read before, in this block or an earlier one
                if pid in index or pid in seen:
                    break
                seen.add(pid)
            _bulk_ages(texts[:at], policies_file, linenos)  # a bad age before the duplicate raises first
            raise ValueError(f"{policies_file}:{linenos[at]}: duplicate policy_id {pids[at]!r}")
        entry = _bulk_ages(texts, policies_file, linenos)
        keep = entry >= BASE_AGE
        report.policies_read += len(pids)
        report.imputed_entries += imputed
        report.policies_rejected += len(pids) - int(keep.sum())
        index.update(zip(pids, np.where(keep, np.cumsum(keep) + (len(ids) - 1), -1).tolist()))
        ids.extend(compress(pids, keep.tolist()))
        entries.frombytes(entry[keep].tobytes())

    entry = np.asarray(entries, dtype=np.int64)
    late = zero_duration == "discard"  # a claim at its entry age is dropped too
    for linenos, pids, texts in _records(claims_file, ("policy_id", "claim_age")):
        owner = np.fromiter(map(index.get, pids, repeat(-2)), np.int64, len(pids))  # -2: unknown
        at = int(owner.argmin()) if owner.min(initial=0) < -1 else len(pids)  # the first unknown id
        kept = owner[:at] >= 0  # no age is read of a rejected policy's claim, nor from an unknown id on
        texts = texts if at == len(pids) and kept.all() else list(compress(texts, kept.tolist()))
        age = _bulk_ages(texts, claims_file, compress(linenos, kept))
        if at < len(pids):
            raise ValueError(f"{claims_file}:{linenos[at]}: claim references unknown policy_id {pids[at]!r}")
        report.claims_read += len(pids)
        owner = owner[kept]
        keep = age >= entry[owner] + late
        # each claim as one key; every age read is in 0..MAX_AGE, so the key decodes exactly
        keys.frombytes((owner[keep] * (MAX_AGE + 1) + age[keep]).tobytes())

    p = np.asarray(keys, dtype=np.int64)
    p.sort()  # in place, with no merge buffer, whatever the order of the claims
    if late:  # of each run of equal keys (same-age claims) keep the first, compacted in place
        kept = 0
        for lo, hi in _run_blocks(p):
            block = p[lo:hi]
            first = np.diff(block, prepend=-1) != 0
            size = int(np.count_nonzero(first))
            p[kept : kept + size] = block[first]
            kept += size
        p = p[:kept]
    c = np.empty_like(p)
    np.divmod(p, MAX_AGE + 1, out=(p, c))
    report.claims_retained = len(p)
    report.claims_discarded = report.claims_read - report.claims_retained
    return ClaimRecords(tuple(ids), entry, p, c), report


def _records(path: str | Path, header: tuple[str, str]) -> Iterator[_Block]:
    """(physical line numbers, ids, ages) per block of records after the header.

    The file is UTF-8, with or without a byte-order mark, and is opened once.
    It decodes with ``surrogateescape``, so a byte that is not UTF-8 reads as
    one escaped character, and the record holding it fails at its line (see
    :func:`_csv_records`).  Each read of ``_BLOCK`` characters, after the
    partial line carried from the one before, is cut after its last line
    feed, so a CR LF pair is never split; the whole lines before the cut, if
    plain ``id,age`` lines (see :func:`_split`), are split in one pass, and at
    the end of the file the carry is the last block.  From the first block
    that is not plain or holds no line feed (a CR-only file, or a line longer
    than a block, so the carry stays under a block), ``csv`` reads that
    block, finished to the end of its last line, and then the rest of the
    same handle, since a quoted field may run on into the next block.
    Fields are stripped, blank lines are skipped but counted, and a record
    whose quoted field spans lines is numbered by its last line.  A ragged
    row, a ``csv`` error or an undecodable byte is raised only after the
    records before it have been yielded.
    """
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, None)
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
        if first is None:
            raise ValueError(f"{path}:1: empty file, expected header {','.join(header)}")
        if bad := _undecodable(first):
            raise ValueError(f"{path}:{reader.line_num}: {bad}")
        if tuple(x.strip() for x in first) != header:
            raise ValueError(f"{path}:1: expected header {','.join(header)}, got {first}")
        line, limit, carry = reader.line_num, csv.field_size_limit(), ""
        while text := carry + (chunk := fh.read(_BLOCK)):
            cut = text.rfind("\n") + 1 if chunk else len(text)  # at the end, the carry is the last block
            fields = _split(text[:cut], limit) if cut else None
            if fields is None:  # csv reads on from this block's first line, finished from the handle
                yield from _csv_records(path, chain(io.StringIO(text + fh.readline(), newline=""), fh), line)
                return
            carry = text[cut:]
            del text, chunk  # held across the yield, the block's two strings raised claims-pipeline's peak RSS 0.4 MB
            yield range(line + 1, line + 1 + len(fields[0])), *fields
            line += len(fields[0])


def _split(text: str, limit: int) -> tuple[list[str], list[str]] | None:
    """The ids and ages of a block of plain ``id,age`` lines, or None if it needs ``csv``.

    A plain block is ASCII and ends all its lines alike, with LF or CR LF.
    A plain line holds one comma and otherwise only printable characters
    other than space and quote, so a blank or whitespace-only line is not
    plain, and plain lines split on the comma as ``csv`` and ``str.strip``
    read them.  A block longer than ``limit``, the csv field limit, is not
    plain either, since it may hold a field past that limit.
    """
    if len(text) > limit or not text.isascii():
        return None
    end = "\r\n" if "\r\n" in text else "\n"
    last = not text.endswith(end)  # the last line of the file may have no line end
    if text.encode().translate(None, _FIELD_BYTES) != (b"," + end.encode()) * text.count(end) + b"," * last:
        return None
    fields = text.replace(end, ",").split(",")
    if not last:
        fields.pop()  # after the final line end
    return fields[0::2], fields[1::2]


def _csv_records(path: str | Path, lines: Iterable[str], line: int) -> Iterator[_Block]:
    """The records ``csv`` reads from ``lines``, which start after physical line ``line``.

    Yields (line numbers, ids, ages) in batches whose fields hold about a
    block of characters, however long the rows, then raises what stopped the
    reader, if anything: a ``csv`` error, a byte that is not UTF-8 or a row
    without two fields, checked in that order.
    """
    reader = csv.reader(lines)
    nums: list[int] = []
    ids: list[str] = []
    ages: list[str] = []
    size = 0
    fault: Exception | None = None
    try:
        for row in reader:
            if not row:
                continue
            bad = _undecodable(row) or (len(row) != 2 and f"expected 2 fields, got {len(row)}")
            if bad:
                fault = ValueError(f"{path}:{line + reader.line_num}: {bad}")
                break
            nums.append(line + reader.line_num)
            ids.append(row[0].strip())
            ages.append(row[1].strip())
            size += len(ids[-1]) + len(ages[-1])
            if size >= _BLOCK:
                yield nums, ids, ages
                nums, ids, ages, size = [], [], [], 0
    except csv.Error as exc:
        fault = ValueError(f"{path}:{line + reader.line_num}: {exc}")
    yield nums, ids, ages
    if fault is not None:
        raise fault


def _undecodable(fields: list[str]) -> str:
    """The fault of a record holding a byte b that is not UTF-8, which decodes as U+DC00 + b, or ""."""
    text = "".join(fields)
    bad = "" if text.isascii() else next((ch for ch in text if "\udc80" <= ch <= "\udcff"), "")
    return bad and f"byte {ord(bad) - 0xDC00:#04x} is not UTF-8"


def _bulk_ages(texts: list[str], path: str | Path, linenos: Iterable[int]) -> np.ndarray:
    """The ages of a block of texts on lines ``linenos`` of ``path``, clamped as by :func:`_parse_age`.

    A block of canonical texts, ``str(i)`` for i in 0..``MAX_AGE``, is read
    from a table; a block with any other text (a sign, a leading zero, or one
    that is not an age) goes through :func:`_parse_age`, which raises at the
    first text that is not an age, with its file and line.
    """
    try:
        return np.fromiter(map(_AGE_OF.__getitem__, texts), np.int64, len(texts))
    except KeyError:
        return np.fromiter(map(_parse_age, texts, repeat(path), linenos), np.int64, len(texts))


def _parse_age(text: str, path: str | Path, lineno: int) -> int:
    """An optional sign and ASCII digits, at most ``MAX_AGE``; ages below ``BASE_AGE`` clamp to 17."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    try:
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError
        age = int(text)  # also raises past the interpreter's digit limit
    except ValueError:
        raise ValueError(f"{path}:{lineno}: malformed age {text[:_ECHO]!r}{_cut(text)}") from None
    if age > MAX_AGE:
        shown = str(age)
        raise ValueError(
            f"{path}:{lineno}: age {shown[:_ECHO]}{_cut(shown)} outside the accepted range (at most {MAX_AGE})"
        )
    # every age below BASE_AGE is cleaned alike, so clamp to keep int64 columns in range
    return age if age >= BASE_AGE else BASE_AGE - 1


def _cut(text: str) -> str:
    """What a message adds after echoing ``text[:_ECHO]``: nothing, or how much was cut."""
    return f" (the first {_ECHO} of {len(text)} characters)" if len(text) > _ECHO else ""


@dataclass(frozen=True)
class DurationHistogram:
    """Counts of renewals by exact duration in years (index = duration)."""

    counts: np.ndarray = field(repr=False)
    source: str = "merged"

    def __post_init__(self) -> None:
        c = np.array(self.counts, dtype=np.int64)  # a private copy, frozen below
        if c.ndim != 1 or len(c) < 1 or c[0] != 0:
            raise ValueError("counts must be a 1-d array with counts[0] = 0")
        if np.any(c < 0):
            raise ValueError("counts must be nonnegative")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    @property
    def horizon(self) -> int:
        return len(self.counts) - 1

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def _run_blocks(v: np.ndarray) -> Iterator[tuple[int, int]]:
    """(lo, hi) of each block of whole runs of equal values, over sorted ``v``.

    A block starts at the first value of the run holding every ``_CLAIM_BLOCK``-th
    value, so it holds about that many values, and more only where one run does;
    no run spans two blocks.
    """
    # dict.fromkeys drops the cuts repeated where a run spans a block (numpy's sorting
    # dedup would add about 1 MB resident at its first call)
    cuts = dict.fromkeys(np.searchsorted(v, v[::_CLAIM_BLOCK], side="left").tolist())
    return pairwise([*cuts, len(v)])


def _count_claims(records: ClaimRecords) -> tuple[np.ndarray, np.ndarray]:
    """Claims by (anchor, booked age) and by (rank clipped at 3, duration), in one walk.

    The anchor is the previous claim's age, or the entry age for a first
    claim.  A claim at its anchor age is booked one year later.  Ages index
    from ``BASE_AGE``; both tables are m wide, m = the oldest age + 2 -
    ``BASE_AGE``, which holds every booked age.  The walk steps through blocks
    of whole policies, the runs of equal ``claim_policy`` (see :func:`_run_blocks`).
    """
    p, c, entry = records.claim_policy, records.claim_age, records.entry_age
    m = max(entry.max(initial=BASE_AGE), c.max(initial=BASE_AGE)) + 2 - BASE_AGE
    by_age, by_rank = np.zeros(m * m, dtype=np.int64), np.zeros(4 * m, dtype=np.int64)
    for lo, hi in _run_blocks(p):
        bp, bc = p[lo:hi], c[lo:hi]
        first = np.ones(len(bp), dtype=bool)
        first[1:] = bp[1:] != bp[:-1]
        start = np.flatnonzero(first)
        rank = np.arange(len(bp)) - np.repeat(start, np.diff(start, append=len(bp)))
        anchor = np.roll(bc, 1)
        anchor[start] = entry[bp[start]]
        booked = np.maximum(bc, anchor + 1)
        by_rank += np.bincount(np.minimum(rank, 3) * m + (booked - anchor), minlength=4 * m)
        by_age += np.bincount((anchor - BASE_AGE) * m + (booked - BASE_AGE), minlength=m * m)
    for table in (by_age, by_rank):
        table.setflags(write=False)
    return by_age.reshape(m, m), by_rank.reshape(4, m)


def build_duration_histogram(records: ClaimRecords, transition: str = "merged") -> DurationHistogram:
    """Histogram of waiting times, anchor to booked age, for one transition or all pooled."""
    if transition not in TRANSITIONS:
        raise ValueError(f"unknown transition {transition!r}; expected one of {TRANSITIONS}")
    by_rank = records._count_tables[1]
    counts = by_rank.sum(axis=0) if transition == "merged" else by_rank[TRANSITIONS.index(transition)]
    return DurationHistogram(counts[: np.flatnonzero(counts).max(initial=0) + 1], transition)


def histogram_to_df(hist: DurationHistogram) -> np.ndarray:
    """Cumulative counts scaled by the grand total: F(i) = v(i) / v(T).

    The result is a proper d.f. (F(T) = 1): it conditions on a renewal
    happening within the observed horizon.
    """
    total = hist.total
    if total == 0:
        raise ValueError("cannot build a d.f. from an all-zero histogram")
    return np.cumsum(hist.counts) / total


@dataclass(frozen=True)
class OccurrenceTable:
    """Claim counts n(s, t) by renewal age s and claim age t, s < t.

    Index 0 is age ``BASE_AGE``; ages at or past ``cap_age`` are pooled into
    the last row/column.  Claims whose renewal age already sits in the pooled
    band cannot be placed (they would need n(cap, cap)) and are counted in
    ``dropped_beyond_cap`` instead.
    """

    counts: np.ndarray = field(repr=False)
    cap_age: int = 60
    dropped_beyond_cap: int = 0

    def __post_init__(self) -> None:
        c = np.array(self.counts, dtype=np.int64)  # a private copy, frozen below
        n = self.cap_age - BASE_AGE + 1
        if c.shape != (n, n):
            raise ValueError(f"counts shape {c.shape} does not match age range ({n}, {n})")
        if np.any(c < 0):
            raise ValueError("counts must be nonnegative")
        if np.any(np.tril(c) != 0):
            s = np.argwhere(np.tril(c) != 0)[0]
            raise ValueError(f"counts must vanish for s >= t; n({s[0]},{s[1]}) != 0")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    @property
    def n_ages(self) -> int:
        return self.cap_age - BASE_AGE + 1


def build_occurrence_table(records: ClaimRecords, cap_age: int = 60) -> OccurrenceTable:
    """One count per retained claim at (renewal age, claim age), pooled at the cap."""
    _check_cap_age(cap_age)
    n = cap_age - BASE_AGE + 1
    by_age = records._count_tables[0]
    rows = np.arange(n)  # the last row and column sum those at and past the cap; the diagonal is dropped
    pooled = np.pad(by_age, (0, max(n - len(by_age), 0)))
    pooled = np.add.reduceat(np.add.reduceat(pooled, rows, axis=0), rows, axis=1)
    return OccurrenceTable(np.triu(pooled, 1), cap_age, int(np.tril(pooled).sum()))


def occurrence_to_nh_df(table: OccurrenceTable) -> tuple[TwoTimeMatrix, list[int]]:
    """Row-normalise the occurrence counts into a waiting-time d.f. matrix.

    Row s becomes F(s, t) = cumulative counts / row total, a proper d.f.
    conditioned on a claim happening within the horizon.  Rows with no
    claims at all, the pooled cap row among them, stay identically zero and
    are returned as warnings.
    """
    cum = np.cumsum(table.counts, axis=1)
    total = cum[:, -1:]
    values = np.divide(cum, total, out=np.zeros(cum.shape), where=total > 0)
    grid = TimeGrid(origin=float(BASE_AGE), step_h=1.0, n_points=table.n_ages)
    return TwoTimeMatrix(grid, values, "distribution"), np.flatnonzero(total == 0).tolist()


@dataclass(frozen=True)
class NoClaimRow:
    label: str
    total: int
    no_claim: int

    @property
    def prob_no_claim(self) -> float:
        return self.no_claim / self.total

    @property
    def prob_claim(self) -> float:
        return 1.0 - self.no_claim / self.total


def no_claim_table(records: ClaimRecords, cap_age: int = 60) -> tuple[NoClaimRow, ...]:
    """Per-entry-age counts of policies with no retained claim.

    One row per observed entry age below the cap, a pooled row for entry
    ages at or past it, and a grand-total row.
    """
    _check_cap_age(cap_age)
    quiet = np.ones(len(records.entry_age), dtype=bool)
    quiet[records.claim_policy] = False
    key = np.minimum(records.entry_age, cap_age)
    totals = np.bincount(key, minlength=cap_age + 1)
    quiet_totals = np.bincount(key[quiet], minlength=cap_age + 1)
    rows = [
        NoClaimRow(f">={cap_age}" if age == cap_age else str(age), int(totals[age]), int(quiet_totals[age]))
        for age in np.flatnonzero(totals).tolist()
    ]
    if rows:
        rows.append(NoClaimRow("total", len(key), int(quiet.sum())))
    return tuple(rows)
