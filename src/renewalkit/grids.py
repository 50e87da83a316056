"""Uniform time grids and two-time-variable upper-triangular matrices.

A ``TwoTimeMatrix`` stores values a(s, t) for grid indices s <= t and is the
shared container for waiting-time distributions F(s,t), their one-step
increments v(s,t), renewal functions H(s,t) and densities f(s,t).
"""

from __future__ import annotations

import math
import os
import re
import tempfile
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "KINDS",
    "atomic_write_text",
    "fmt17",
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


def fmt17(x: float) -> str:
    """17-significant-digit decimal form; round-trips float64 exactly."""
    return format(x, ".17g")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid: point i lives at ``origin + i * step_h``."""

    origin: float
    step_h: float
    n_points: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.origin):
            raise ValueError(f"origin must be finite, got {self.origin}")
        if not 0 < self.step_h < math.inf:
            raise ValueError(f"step_h must be positive and finite, got {self.step_h}")
        if self.n_points < 2:
            raise ValueError(f"need at least 2 grid points, got {self.n_points}")

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
    zeros so that whole-matrix products implement triangular sums directly.
    Instances are immutable: ``values`` is a read-only array.

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
        vals = np.array(self.values, dtype=np.float64)
        if vals.shape != (n, n):
            raise ValueError(f"values shape {vals.shape} does not match grid size {n}")
        vals[np.tril_indices(n, k=-1)] = 0.0
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


_HEADER_RE = re.compile(
    r"^# grid origin=(?P<origin>\S+) h=(?P<h>\S+) n=(?P<n>\d+) kind=(?P<kind>\S+)$"
)


def write_matrix_tsv(matrix: TwoTimeMatrix, path: str | Path) -> None:
    """Write the TSV form: a header line, then row i as a(i,i)..a(i,n-1).

    Numbers carry 17 significant digits so that read/write round-trips are
    bit-identical.  The file is written atomically (temp file + rename).
    """
    g = matrix.grid
    head = [f"# grid origin={fmt17(g.origin)} h={fmt17(g.step_h)} n={g.n_points} kind={matrix.kind}"]
    write_table(path, head, (row[i:].tolist() for i, row in enumerate(matrix.values)))


def read_matrix_tsv(path: str | Path) -> TwoTimeMatrix:
    """Read a matrix written by :func:`write_matrix_tsv`; every error names the file."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            return _parse_matrix_tsv(fh)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_matrix_tsv(fh) -> TwoTimeMatrix:
    header = fh.readline().rstrip("\n")
    m = _HEADER_RE.match(header)
    if m is None:
        raise ValueError(f"malformed header line {header!r}")
    n = int(m.group("n"))
    grid = TimeGrid(float(m.group("origin")), float(m.group("h")), n)
    lines = fh.readlines()
    # count the rows before trusting the header's n with an n x n allocation
    if len(lines) < n:
        raise ValueError(f"expected {n} data rows, found {len(lines)}")
    values = np.zeros((n, n))
    for i, line in enumerate(lines[:n]):
        row = line.rstrip("\n").split("\t")
        if len(row) != n - i:
            raise ValueError(f"row {i} has {len(row)} values, expected {n - i}")
        try:
            values[i, i:] = [float(x) for x in row]
        except ValueError:
            j = next(j for j, x in enumerate(row) if not _is_float(x))
            raise ValueError(f"row {i}, column {i + j}: cannot parse {row[j]!r}") from None
    if "".join(lines[n:]).strip():
        raise ValueError(f"unexpected content after {n} data rows")
    return TwoTimeMatrix(grid, values, m.group("kind"))


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file and rename, with umask-default permissions."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        # mkstemp creates the file as 0600 whatever the umask; give it the mode open() would.
        # The umask can only be read by setting it, so set the strictest one for that instant.
        mask = os.umask(0o077)
        os.umask(mask)
        os.chmod(tmp, 0o666 & ~mask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_table(path: str | Path, head: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Write the ``head`` lines, then each row's cells joined by tabs, atomically.

    A float (``np.float64`` included) is written at 17 significant digits and
    any other value with ``str``, so an int of 10**17 stays exact.
    """
    lines = list(head)
    lines.extend("\t".join(map(_cell, row)) for row in rows)
    atomic_write_text(Path(path), "\n".join(lines) + "\n")


def _cell(x) -> str:
    return "%.17g" % x if isinstance(x, float) else str(x)
