"""Uniform time grids and two-time-variable upper-triangular matrices.

A ``TwoTimeMatrix`` stores values a(s, t) for grid indices s <= t and is the
shared container for waiting-time distributions F(s,t), their one-step
increments v(s,t), renewal functions H(s,t) and densities f(s,t).
"""

from __future__ import annotations

import os
import re
import tempfile
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
        if not self.step_h > 0:
            raise ValueError(f"step_h must be positive, got {self.step_h}")
        if self.n_points < 2:
            raise ValueError(f"need at least 2 grid points, got {self.n_points}")

    def time_of(self, i: int) -> float:
        if not 0 <= i < self.n_points:
            raise IndexError(f"grid index {i} outside [0, {self.n_points})")
        return self.origin + i * self.step_h

    def index_of(self, t: float) -> int:
        """Index of an on-grid time; rejects times off the grid."""
        i = int(round((t - self.origin) / self.step_h))
        if not 0 <= i < self.n_points:
            raise IndexError(f"time {t} outside the grid")
        if abs(self.time_of(i) - t) > 1e-9 * self.step_h:
            raise ValueError(f"time {t} is not on the grid (nearest point {self.time_of(i)})")
        return i

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
    lines = [f"# grid origin={fmt17(g.origin)} h={fmt17(g.step_h)} n={g.n_points} kind={matrix.kind}"]
    for i in range(g.n_points):
        lines.append("\t".join(fmt17(x) for x in matrix.values[i, i:]))
    atomic_write_text(Path(path), "\n".join(lines) + "\n")


def read_matrix_tsv(path: str | Path) -> TwoTimeMatrix:
    """Read a matrix written by :func:`write_matrix_tsv`."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        m = _HEADER_RE.match(header)
        if m is None:
            raise ValueError(f"{path}: malformed header line {header!r}")
        lines = fh.readlines()
    n = int(m.group("n"))
    grid = TimeGrid(float(m.group("origin")), float(m.group("h")), n)
    # count the rows before trusting the header's n with an n x n allocation
    if len(lines) < n:
        raise ValueError(f"{path}: expected {n} data rows, found {len(lines)}")
    values = np.zeros((n, n))
    for i, line in enumerate(lines[:n]):
        row = line.rstrip("\n").split("\t")
        if len(row) != n - i:
            raise ValueError(f"{path}: row {i} has {len(row)} values, expected {n - i}")
        try:
            values[i, i:] = [float(x) for x in row]
        except ValueError:
            j = next(j for j, x in enumerate(row) if not _is_float(x))
            raise ValueError(f"{path}: row {i}, column {i + j}: cannot parse {row[j]!r}") from None
    if "".join(lines[n:]).strip():
        raise ValueError(f"{path}: unexpected content after {n} data rows")
    return TwoTimeMatrix(grid, values, m.group("kind"))


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
