"""Uniform time grids and two-time-variable upper-triangular matrices.

A ``TwoTimeMatrix`` stores values a(s, t) for grid indices s <= t and is the
shared container for waiting-time distributions F(s,t), their one-step
increments v(s,t), renewal functions H(s,t) and densities f(s,t).

The matrix TSV reader has one number rule for the header's ``origin`` and
``h`` and for every cell: ASCII text with no ``_`` that ``float()`` reads.
The header's ``n`` is ASCII digits, and the last grid time must be finite.
A byte that is not UTF-8 fails at its cell.  The reader makes one forward
pass: n rows by ``readline``, then fixed-size reads up to the first
character after them that is not blank.

The reader keeps one matrix: the last one it read, keyed by the byte size
and sha256 of the bytes it parsed.  A file of that size is hashed first, and
if its bytes are the same, that immutable matrix is returned without a
parse, whatever the file's path; so ``cli.main`` calls in one process that
read one ``--df`` in turn parse it once.  Any other file is parsed through a stream
that hashes exactly the bytes read, so a file of another size is not read
twice.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import operator
import os
import re
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "KINDS",
    "TimeGrid",
    "TwoTimeMatrix",
    "read_matrix_tsv",
    "write_matrix_tsv",
    "write_table",
]

#: Recognised matrix kinds.  "distribution" and "increment" rows carry
#: probability-mass constraints; "renewal" and "density" are outputs of the
#: solvers; "generic" is unconstrained.
KINDS = ("distribution", "increment", "renewal", "density", "generic")

# Slack for float noise in validation; far above accumulated round-off,
# far below any genuine invariant violation.
_SLACK = 1e-9


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid: point i lives at ``origin + i * step_h``.

    ``origin`` and ``step_h`` are stored as Python floats, so every writer
    formats them by the float rule whatever numeric type they came in as;
    ``n_points`` is stored as a Python int, and a value that is no integer
    (``3.0`` included) is rejected.
    """

    origin: float
    step_h: float
    n_points: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "origin", float(self.origin))
        object.__setattr__(self, "step_h", float(self.step_h))
        object.__setattr__(self, "n_points", require_index(self.n_points, "n_points"))
        if not math.isfinite(self.origin):
            raise ValueError(f"origin must be finite, got {self.origin}")
        if not 0 < self.step_h < math.inf:
            raise ValueError(f"step_h must be positive and finite, got {self.step_h}")
        if self.n_points < 2:
            raise ValueError(f"need at least 2 grid points, got {self.n_points}")
        try:
            last = self.origin + (self.n_points - 1) * self.step_h
        except OverflowError:  # n - 1 itself is past the largest float
            last = math.inf
        if not math.isfinite(last):
            raise ValueError(f"last grid time {self.origin} + {self.n_points - 1} * {self.step_h} is not finite")

    def time_of(self, i: int) -> float:
        if not 0 <= i < self.n_points:
            raise IndexError(f"grid index {i} outside [0, {self.n_points})")
        return self.origin + i * self.step_h

    def times(self) -> np.ndarray:
        return self.origin + self.step_h * np.arange(self.n_points)


@dataclass(frozen=True)
class TwoTimeMatrix:
    """Upper-triangular matrix of values a(s, t), 0 <= s <= t < n.

    The strict lower triangle is not part of the data model; it is stored as
    zeros, whatever the input held there, so that ``values`` can be read as
    a plain n x n array: the upper-triangular product in ``convolve`` skips
    the zero blocks and counts on the rest of the triangle being exact zeros.
    Instances are immutable: ``values`` is a read-only array, so the
    formatted upper triangle that the writers share, and the running maximum
    that the samplers and the increments read, are each computed at most once.

    Kind invariants (checked at construction):
      distribution  a(i,i) = 0, values in [0, 1], rows nondecreasing in t
      increment     a(i,i) = 0, values >= 0, row sums <= 1
      renewal       a(i,i) = 0, values >= 0
      density       values >= 0 (diagonal free: densities may be positive at lag 0)
      generic       finite values only
    """

    grid: TimeGrid
    values: np.ndarray = field(repr=False)
    kind: str = "generic"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        n = self.grid.n_points
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (n, n):
            raise ValueError(f"values shape {vals.shape} does not match grid size {n}")
        vals = np.triu(vals)  # a fresh array, never the caller's
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        self._validate()

    def _validate(self) -> None:
        v = self.values
        if not np.all(np.isfinite(v)):
            s, t = np.argwhere(~np.isfinite(v))[0]
            raise ValueError(f"non-finite value at ({s}, {t})")
        if self.kind == "generic":
            return
        if self.kind in ("distribution", "increment", "renewal"):
            diag = np.diagonal(v)
            if np.any(diag != 0.0):
                i = int(np.nonzero(diag)[0][0])
                raise ValueError(f"{self.kind} matrix must have a(i,i) = 0; a({i},{i}) = {diag[i]}")
        if np.any(v < -_SLACK):
            s, t = np.argwhere(v < -_SLACK)[0]
            raise ValueError(f"{self.kind} value a({s},{t}) = {v[s, t]} is negative")
        if self.kind == "distribution":
            if np.any(v > 1.0 + _SLACK):
                s, t = np.argwhere(v > 1.0 + _SLACK)[0]
                raise ValueError(f"distribution value a({s},{t}) = {v[s, t]} exceeds 1")
            drops = v[:, 1:] - v[:, :-1]
            # drops[s, j] compares t = j and t = j + 1; only j >= s is in-domain
            bad = np.triu(drops < -_SLACK, k=0)
            if np.any(bad):
                s, j = np.argwhere(bad)[0]
                raise ValueError(
                    f"distribution row {s} decreases between t = {j} and t = {j + 1}"
                )
        elif self.kind == "increment":
            sums = v.sum(axis=1)
            if np.any(sums > 1.0 + _SLACK):
                s = int(np.argwhere(sums > 1.0 + _SLACK)[0][0])
                raise ValueError(f"increment row {s} sums to {sums[s]} > 1")

    @property
    def n_points(self) -> int:
        return self.grid.n_points

    @cached_property
    def formatted(self) -> FormattedTriangle:
        """The upper triangle formatted by the float rule, built on first use and kept."""
        return FormattedTriangle(self)

    @cached_property
    def running_max(self) -> np.ndarray:
        """Each row's running maximum in t, read-only, built on first use and kept.

        It is ``values`` itself unless a row decreases, as a distribution row may within the slack.
        """
        m = self.values
        if (m[:, 1:] < m[:, :-1]).any():
            m = np.maximum.accumulate(m, axis=1)
            m.setflags(write=False)
        return m

    @cached_property
    def rows(self) -> tuple[tuple[float, ...], ...]:
        """``running_max`` as a tuple of row tuples of Python floats, built on first use and kept.

        The path sampler bisects these: one search on a tuple costs a fraction
        of a search on an array row.
        """
        return tuple(map(tuple, self.running_max.tolist()))

    def at(self, s_idx: int, t_idx: int) -> float:
        """Value a(s, t).  Querying s > t is a contract violation, not zero."""
        n = self.grid.n_points
        if not (0 <= s_idx < n and 0 <= t_idx < n):
            raise IndexError(f"indices ({s_idx}, {t_idx}) outside [0, {n})")
        if s_idx > t_idx:
            raise ValueError(f"query with s = {s_idx} > t = {t_idx} is outside the domain")
        return float(self.values[s_idx, t_idx])


def require_same_grid(a: TwoTimeMatrix, b: TwoTimeMatrix) -> None:
    if a.grid != b.grid:
        raise ValueError(f"grid mismatch: {a.grid} vs {b.grid}")


def require_kind(matrix: TwoTimeMatrix, *kinds: str) -> None:
    """Accept a matrix of one of ``kinds``; the error names the first."""
    if matrix.kind not in kinds:
        raise ValueError(f"expected a {kinds[0]} matrix, got kind {matrix.kind!r}")


def require_index(value: object, name: str) -> int:
    """``value`` as a Python int by ``operator.index`` (``True`` is 1, ``3.0`` is no integer); the error names it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def require_window(matrix: TwoTimeMatrix, start: object, horizon: object) -> tuple[int, int]:
    """The grid indices (start, horizon) as Python ints, if 0 <= start <= horizon < n."""
    start, horizon = require_index(start, "window start"), require_index(horizon, "window horizon")
    if not 0 <= start <= horizon < matrix.n_points:
        raise ValueError(f"window ({start}, {horizon}) outside the grid: need 0 <= start <= horizon < {matrix.n_points}")
    return start, horizon


_HEADER_RE = re.compile(
    r"^# grid origin=(?P<origin>\S+) h=(?P<h>\S+) n=(?P<n>[0-9]+) kind=(?P<kind>\S+)$"
)
#: characters read at a time after the rows, up to the first that is not blank
_TAIL_CHARS = 1 << 13


def write_matrix_tsv(matrix: TwoTimeMatrix, path: str | Path) -> None:
    """Write the TSV form: a header line, then row i as a(i,i)..a(i,n-1).

    Numbers carry 17 significant digits so that read/write round-trips are
    bit-identical.  The file is written atomically (temp file + rename).
    """
    head = [f"# grid {_grid_text(matrix.grid)} kind={matrix.kind}"]
    write_table(path, head, ([matrix.formatted.row(i)] for i in range(matrix.n_points)))


def _grid_text(grid: TimeGrid) -> str:
    """The grid as every header spells it: ``origin=… h=… n=…``, the numbers by the float rule."""
    return f"origin={format_cell(grid.origin)} h={format_cell(grid.step_h)} n={grid.n_points}"


#: (byte size, sha256 digest, matrix) of the bytes that the last whole read parsed, or None
_last: tuple[int, bytes, TwoTimeMatrix] | None = None
#: bytes hashed at a time when a file is the size of the kept matrix's
_HASH_CHUNK = 1 << 16


def read_matrix_tsv(path: str | Path) -> TwoTimeMatrix:
    """Read a matrix written by :func:`write_matrix_tsv`; every error names the file.

    A file whose bytes are those of the last matrix read, at this path or
    another, returns that same immutable object: one matrix is kept, keyed by
    the size and sha256 of the bytes parsed.  A file that fails leaves it kept.
    """
    global _last
    path = Path(path)
    kept = _last  # one snapshot: another thread may replace _last meanwhile
    try:
        with open(path, "rb") as raw:
            if kept is not None and os.fstat(raw.fileno()).st_size == kept[0]:
                digest = hashlib.sha256()
                while chunk := raw.read(_HASH_CHUNK):
                    digest.update(chunk)
                if digest.digest() == kept[1]:
                    return kept[2]
                raw.seek(0)
            hashed = _HashingReader(raw)
            # a byte that is not UTF-8 reads as a lone surrogate, which the number rule rejects at its cell
            with io.TextIOWrapper(io.BufferedReader(hashed), encoding="utf-8", errors="surrogateescape") as fh:
                matrix = _parse_matrix_tsv(fh)
            _last = (hashed.size, hashed.digest.digest(), matrix)
            return matrix
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


class _HashingReader(io.RawIOBase):
    """A binary file read through, counting and hashing every byte that passes; closing leaves it open."""

    def __init__(self, raw) -> None:
        self._raw = raw
        self.size = 0
        self.digest = hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        got = self._raw.readinto(buffer)
        self.size += got
        self.digest.update(memoryview(buffer)[:got])
        return got


def _parse_matrix_tsv(fh) -> TwoTimeMatrix:
    header = fh.readline().rstrip("\n")
    m = _HEADER_RE.match(header)
    if m is None:
        raise ValueError(f"malformed header line {header!r}")
    n = int(m["n"])
    grid = TimeGrid(_number(m["origin"], "header origin"), _number(m["h"], "header h"), n)
    lines = [line for _, line in zip(range(n), iter(fh.readline, ""))]
    # count the rows and their cells before trusting the header's n with an n x n allocation
    if len(lines) < n:
        raise ValueError(f"expected {n} data rows, found {len(lines)}")
    for i, line in enumerate(lines):
        if (cells := line.count("\t") + 1) != n - i:
            raise ValueError(f"row {i} has {cells} values, expected {n - i}")
    values = np.zeros((n, n))
    for i, line in enumerate(lines):
        row = line.rstrip("\n").split("\t")
        try:  # a line is ASCII and free of '_' exactly when each of its cells is
            if not line.isascii() or "_" in line:
                raise ValueError
            values[i, i:] = [float(x) for x in row]
        except ValueError:
            values[i, i:] = [_number(x, f"row {i}, column {j}") for j, x in enumerate(row, i)]
    while tail := fh.read(_TAIL_CHARS):
        if not tail.isspace():
            raise ValueError(f"unexpected content after {n} data rows")
    return TwoTimeMatrix(grid, values, m["kind"])


def _number(text: str, where: str) -> float:
    """The file's one number rule: ASCII text with no '_' that float() reads ('0.2_5' is not one)."""
    if text.isascii() and "_" not in text:
        with contextlib.suppress(ValueError):
            return float(text)
    raise ValueError(f"{where}: cannot parse {text!r}")


def write_table(path: str | Path, head: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Write the ``head`` lines, then each row's cells joined by tabs, atomically.

    A float (``np.float64`` included) is written at 17 significant digits and
    any other value with ``str``, so an int of 10**17 stays exact and an
    already formatted string passes unchanged.  Lines are streamed into a
    new temp file beside ``path`` that replaces it only once every row is
    written.  The temp file is created with mode 0666 and ``O_EXCL``: the
    kernel applies the umask as ``open`` does, the writer never reads or
    sets it, and a name collision fails rather than overwrite a file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            for line in head:
                fh.write(line + "\n")
            for row in rows:
                fh.write("\t".join(map(format_cell, row)) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


#: the one float rule of every output: 17 significant digits, round-tripping float64
_FLOAT_RULE = "%.17g"


def format_cell(x) -> str:
    """A float by the float rule, any other value by ``str``."""
    return _FLOAT_RULE % x if isinstance(x, float) else str(x)


class FormattedTriangle:
    """The upper triangle of a matrix, each value formatted once by ``format_cell``'s float rule.

    Row i's cells a(i,i)..a(i,n-1) lie one after another in a single
    fixed-width bytes array, so a TSV row is one slice of it and an
    age-table column one gather over the row offsets.  At 24 bytes a cell,
    the n(n+1)/2 cells take 3 MB at n = 501.
    """

    # "%.17g" of a finite float64 is at most 24 characters, "-2.2250738585072014e-308";
    # a longer string would be cut silently by the fixed-width store
    _WIDTH = 24

    def __init__(self, matrix: TwoTimeMatrix) -> None:
        n = matrix.n_points
        self._start = np.concatenate(([0], np.cumsum(np.arange(n, 0, -1))))
        self._cells = np.empty(self._start[-1], dtype=f"S{self._WIDTH}")
        rule = _FLOAT_RULE.encode()
        for i, row in enumerate(matrix.values):
            self._cells[self._start[i] : self._start[i + 1]] = [rule % x for x in row[i:].tolist()]

    def row(self, i: int) -> str:
        """a(i,i)..a(i,n-1), tab-joined."""
        return b"\t".join(self._cells[self._start[i] : self._start[i + 1]].tolist()).decode()

    def column(self, t: int) -> str:
        """a(0,t)..a(t,t), then a 0 for each stored zero below the diagonal, tab-joined."""
        s = np.arange(t + 1)
        upper = self._cells[self._start[s] + t - s].tolist()
        return (b"\t".join(upper) + b"\t0" * (len(self._start) - 2 - t)).decode()
