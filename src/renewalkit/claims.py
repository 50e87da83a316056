"""From raw policy/claim records to waiting-time distribution functions.

The pipeline is deliberately dumb: clean the records, count claim
occurrences by (renewal age, claim age), normalise the rows.  Ages are
integer completed years, age 18 is grid index 0, and entry ages at or past
the pooling cap (default 60) are compiled together.

Cleaned records are one columnar :class:`ClaimRecords`, claims sorted by
(policy, age); every count table is an ``np.bincount`` over its columns.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .grids import TimeGrid, TwoTimeMatrix

__all__ = [
    "BASE_AGE",
    "ClaimRecords",
    "CleaningConfig",
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


@dataclass(frozen=True)
class CleaningConfig:
    """Knobs for the record cleaner.

    ``zero_duration`` decides what to do with a claim dated at the same
    integer age as its renewal: "bucket1" keeps it and books it at duration
    one year, "discard" drops it.
    """

    impute_entry_age: int = 24
    zero_duration: str = "bucket1"

    def __post_init__(self) -> None:
        if not BASE_AGE <= self.impute_entry_age <= MAX_AGE:
            raise ValueError(f"impute_entry_age must be in [{BASE_AGE}, {MAX_AGE}]")
        if self.zero_duration not in ("bucket1", "discard"):
            raise ValueError("zero_duration must be 'bucket1' or 'discard'")


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
    at least ``BASE_AGE`` and no claim predates its policy's entry.
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
        if np.any((p < 0) | (p >= len(entry))):
            raise ValueError(f"claim_policy must index the {len(entry)} policies")
        if np.any((np.diff(p) < 0) | ((np.diff(p) == 0) & (np.diff(c) < 0))):
            raise ValueError("claims must be sorted by (policy, age)")
        if np.any(entry < BASE_AGE) or np.any(c < entry[p]):
            raise ValueError(f"entry ages must be >= {BASE_AGE} and no claim may predate its entry")


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
    cleaning: CleaningConfig = CleaningConfig(),
) -> tuple[ClaimRecords, IngestReport]:
    """Read, validate and clean the two CSVs.

    Cleaning rules: a missing entry age is imputed to the configured
    default; an entry age below 18 rejects the whole policy (counted, not
    fatal) and discards its claims; claims are sorted within each policy,
    claims dated before the entry age are discarded, and a claim at the
    same age as its renewal (the entry or the previous claim) follows
    ``zero_duration``.  Ages above ``MAX_AGE``, malformed rows and claims
    pointing at unknown policies raise with the file and line number.
    """
    report = IngestReport()
    index: dict[str, int] = {}  # policy id -> column index, -1 if rejected
    ids: list[str] = []
    entries: list[int] = []

    for lineno, (pid, age_text) in _csv_rows(policies_file, ("policy_id", "entry_age")):
        if pid in index:
            raise ValueError(f"{policies_file}:{lineno}: duplicate policy_id {pid!r}")
        report.policies_read += 1
        if age_text == "":
            entry_age = cleaning.impute_entry_age
            report.imputed_entries += 1
        else:
            entry_age = _parse_age(age_text, policies_file, lineno)
            if entry_age < BASE_AGE:
                report.policies_rejected += 1
                index[pid] = -1
                continue
        index[pid] = len(ids)
        ids.append(pid)
        entries.append(entry_age)

    owners, ages = array("q"), array("q")
    for lineno, (pid, age_text) in _csv_rows(claims_file, ("policy_id", "claim_age")):
        report.claims_read += 1
        i = index.get(pid)
        if i is None:
            raise ValueError(f"{claims_file}:{lineno}: claim references unknown policy_id {pid!r}")
        if i >= 0:
            owners.append(i)
            ages.append(_parse_age(age_text, claims_file, lineno))

    entry = np.array(entries, dtype=np.int64)
    p, c = np.asarray(owners, dtype=np.int64), np.asarray(ages, dtype=np.int64)
    order = np.lexsort((c, p))
    p, c = p[order], c[order]
    keep = c >= entry[p]
    if cleaning.zero_duration == "discard":
        keep &= c > entry[p]
        keep[1:] &= (p[1:] != p[:-1]) | (c[1:] != c[:-1])
    report.claims_retained = int(keep.sum())
    report.claims_discarded = report.claims_read - report.claims_retained
    return ClaimRecords(tuple(ids), entry, p[keep], c[keep]), report


def _csv_rows(path: str | Path, header: tuple[str, str]):
    """(physical line number, stripped fields) per non-blank record after the header.

    The file is UTF-8, with or without a byte-order mark; a record whose
    quoted field spans lines is numbered by its last line.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            first = next(reader, None)
            if first is None:
                raise ValueError(f"{path}:1: empty file, expected header {','.join(header)}")
            if tuple(x.strip() for x in first) != header:
                raise ValueError(f"{path}:1: expected header {','.join(header)}, got {first}")
            for row in reader:
                if not row:
                    continue
                if len(row) != 2:
                    raise ValueError(f"{path}:{reader.line_num}: expected 2 fields, got {len(row)}")
                yield reader.line_num, (row[0].strip(), row[1].strip())
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_age(text: str, path: str | Path, lineno: int) -> int:
    try:
        age = int(text)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: malformed age {text!r}") from None
    if age > MAX_AGE:
        raise ValueError(f"{path}:{lineno}: age {age} outside the accepted range (at most {MAX_AGE})")
    # every age below BASE_AGE is cleaned alike, so clamp to keep int64 columns in range
    return age if age >= BASE_AGE else BASE_AGE - 1


@dataclass(frozen=True)
class DurationHistogram:
    """Counts of renewals by exact duration in years (index = duration)."""

    counts: np.ndarray = field(repr=False)
    source: str = "merged"

    def __post_init__(self) -> None:
        c = np.asarray(self.counts, dtype=np.int64)
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


def _claim_steps(records: ClaimRecords) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per claim: its rank within the policy, its anchor and its booked age.

    The anchor is the previous claim's age, or the entry age for a first
    claim.  A claim at its anchor age is booked one year later.
    """
    p, c = records.claim_policy, records.claim_age
    rank = np.arange(len(c)) - np.searchsorted(p, p)
    anchor = np.where(rank == 0, records.entry_age[p], np.roll(c, 1))
    return rank, anchor, np.maximum(c, anchor + 1)


def build_duration_histogram(records: ClaimRecords, transition: str = "merged") -> DurationHistogram:
    """Histogram of waiting times, anchor to booked age, for one transition or all pooled."""
    if transition not in TRANSITIONS:
        raise ValueError(f"unknown transition {transition!r}; expected one of {TRANSITIONS}")
    rank, anchor, booked = _claim_steps(records)
    durations = booked - anchor
    if transition != "merged":
        durations = durations[rank == TRANSITIONS.index(transition)]
    return DurationHistogram(np.bincount(durations, minlength=1), transition)


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
        c = np.asarray(self.counts, dtype=np.int64)
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
    _, anchor, booked = _claim_steps(records)
    s = np.minimum(anchor, cap_age) - BASE_AGE
    t = np.minimum(booked, cap_age) - BASE_AGE
    placed = s < t
    counts = np.bincount(s[placed] * n + t[placed], minlength=n * n).reshape(n, n)
    return OccurrenceTable(counts, cap_age, int(np.count_nonzero(~placed)))


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
    key = np.minimum(records.entry_age, cap_age)
    quiet = np.bincount(records.claim_policy, minlength=len(key)) == 0
    ages, group = np.unique(key, return_inverse=True)
    totals = np.bincount(group, minlength=len(ages))
    quiet_totals = np.bincount(group[quiet], minlength=len(ages))
    rows = [
        NoClaimRow(f">={cap_age}" if age == cap_age else str(age), int(total), int(no_claim))
        for age, total, no_claim in zip(ages, totals, quiet_totals)
    ]
    if rows:
        rows.append(NoClaimRow("total", len(key), int(quiet.sum())))
    return tuple(rows)
