"""Solvers for the non-homogeneous renewal equation.

The discrete-time equation

    H(s, t) = F(s, t) + sum_{x = s+1..t} v(s, x) H(x, t)

is a unit upper-triangular linear system (determinant 1), solved exactly by
backward substitution, one row of H at a time.  The continuous-time equation

    H(s, t) = F(s, t) + int_s^t f(s, tau) H(tau, t) dtau

is discretised with rectangle, trapezoid or composite Simpson weights; when
the weight stencil touches tau = s the diagonal term is resolved
algebraically rather than iteratively; the exact solve is the same row
sweep with the right-rectangle rule at h = 1.  The convolution series
H = sum_n F^(n) provides an independent cross-check of both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .convolve import RULE_WEIGHTS, convolution_powers, increments_from_df
from .grids import TimeGrid, TwoTimeMatrix, require_kind, require_same_grid

__all__ = [
    "CountingPmf",
    "SeriesResult",
    "SolverMethod",
    "counting_pmf",
    "density_from_differences",
    "homogeneous_lift",
    "lift_duration_function",
    "solve_discrete",
    "solve_quadrature",
    "solve_series",
]

#: Below this, 1 - w0 * f(u, u) counts as singular: the step is too large
#: relative to the density at zero lag.
SINGULAR_TOL = 1e-9


@dataclass(frozen=True)
class SolverMethod:
    """Quadrature rule selection for :func:`solve_quadrature`; the step is the grid's own."""

    tag: str

    def __post_init__(self) -> None:
        if self.tag not in RULE_WEIGHTS:
            raise ValueError(f"unknown method tag {self.tag!r}; expected one of {tuple(RULE_WEIGHTS)}")


@dataclass(frozen=True)
class SeriesResult:
    renewal: TwoTimeMatrix
    n_terms: int


@dataclass(frozen=True)
class CountingPmf:
    """Distribution of the number of renewals N(t) - N(s).

    ``probs[n]`` is P[N(t) - N(s) = n] for n < len(probs); ``truncation_mass``
    bounds the tail beyond, and the total mass telescopes to 1.
    """

    s_idx: int
    t_idx: int
    probs: np.ndarray = field(repr=False)
    truncation_mass: float

    def __post_init__(self) -> None:
        p = np.array(self.probs, dtype=np.float64)  # a private copy, frozen below
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)
        if np.any(p < 0.0):
            raise ValueError(f"negative pmf value at n = {int(np.argwhere(p < 0)[0][0])}")
        total = p.sum() + self.truncation_mass
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"pmf mass {total} is not 1 within 1e-12")


def solve_discrete(F: TwoTimeMatrix) -> TwoTimeMatrix:
    """Exact solve of the discrete renewal equation by back-substitution.

    This is the right-rectangle row sweep with kernel v and h = 1: the
    x = t term multiplies H(t, t) = 0 and v(s, s) = 0, so the divisor is
    identically 1 and the solve has no failure path.
    """
    v = increments_from_df(F).values
    return TwoTimeMatrix(F.grid, _row_sweep(v, F.values, 1.0, "rect-right"), "renewal")


def solve_series(F: TwoTimeMatrix, tol: float = 1e-12) -> SeriesResult:
    """Sum the convolution series H = F^(1) + F^(2) + ... as a solver oracle.

    Terms are accumulated while their maximum is at least ``tol``; the count
    of summed terms is reported.  Because every renewal takes at least one
    grid step, F^(n) vanishes identically for n >= n_points, so the sum ends
    after at most n_points - 1 terms for any valid F and any positive tol.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    powers = convolution_powers(F, F.values)
    H, n_terms = next(powers).copy(), 1
    for term in powers:
        if term.max() < tol:
            break
        H += term
        n_terms += 1
    return SeriesResult(TwoTimeMatrix(F.grid, H, "renewal"), n_terms)


def _row_sweep(K: np.ndarray, F: np.ndarray, h: float, rule: str) -> np.ndarray:
    """Back-substitute H = F + quadrature of K H one row at a time, last row first.

    Row u solves, for every k > u at once with m = k - u and ``RULE_WEIGHTS``,
    (1 - w_0(m) K(u, u)) H(u, k) = F(u, k) + sum_{j=1..m-1} w_j(m) K(u, u+j) H(u+j, k);
    the j = m term drops as H(k, k) = 0.  Interior weights depend only on the
    parities of j and m: one vector-matrix product per parity of j, plus a
    j = 1 correction.
    """
    n = len(F)
    W = h * np.array(RULE_WEIGHTS[rule])  # rows: even m, odd m
    m = np.arange(n)
    parity = (m[None, :] - m[:, None]) % 2
    D = 1.0 - W[parity, 0] * np.diagonal(K)[:, None]
    bad = np.triu(D < SINGULAR_TOL, k=1)
    if bad.any():
        # report the first cell in column order, each column bottom-up
        k = int(np.argmax(bad.any(axis=0)))
        u = int(np.nonzero(bad[:, k])[0][-1])
        raise ValueError(
            f"singular diagonal at (u={u}, k={k}): 1 - w0*f(u,u) = {D[u, k]:.3e} "
            f"(step h = {h} too large relative to the density at zero lag)"
        )
    _, second, odd, even, _ = W[m % 2].T
    H = np.zeros_like(F)
    for u in range(n - 2, -1, -1):
        lag = slice(1, n - u)
        k_row = K[u, u + 1 :]
        below = H[u + 1 :, u + 1 :]
        rhs = (
            F[u, u + 1 :]
            + odd[lag] * (k_row[0::2] @ below[0::2])
            + even[lag] * (k_row[1::2] @ below[1::2])
            + (second[lag] - odd[lag]) * (k_row[0] * below[0])
        )
        H[u, u + 1 :] = rhs / D[u, u + 1 :]
    return H


def solve_quadrature(
    f: TwoTimeMatrix, F: TwoTimeMatrix, method: SolverMethod
) -> TwoTimeMatrix:
    """Quadrature solve of the continuous renewal equation on the native grid.

    Rows of H are filled from the last up.  Rules whose stencil includes
    tau = u produce an implicit term; the equation is then solved
    algebraically for H(u, k) by dividing by 1 - w0 f(u, u).  A near-zero
    divisor aborts, before any solving, with the offending location.
    """
    require_kind(f, "density", "generic")
    require_kind(F, "distribution")
    require_same_grid(f, F)
    return TwoTimeMatrix(f.grid, _row_sweep(f.values, F.values, f.grid.step_h, method.tag), "renewal")


def counting_pmf(
    F: TwoTimeMatrix, s_idx: int, t_idx: int, tol: float = 1e-10
) -> CountingPmf:
    """Pmf of N(t) - N(s) from the n-fold convolution chain at one cell.

    With F^(0)(s, t) = 1, p_n = F^(n)(s, t) - F^(n+1)(s, t), clamped at zero
    against float noise; the chain is truncated at the first order whose
    mass at (s, t) drops below ``tol``, which bounds the discarded tail by
    that same value.  At most t - s + 1 orders are nonzero.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    n = F.n_points
    if not (0 <= s_idx <= t_idx < n):
        raise ValueError(f"need 0 <= s <= t < {n}, got ({s_idx}, {t_idx})")
    probs, prev = [], 1.0
    for col in convolution_powers(F, F.values[:, t_idx].copy()):  # F^(order)(., t)
        cur = col[s_idx]
        probs.append(max(prev - cur, 0.0))
        if cur < tol:
            break
        prev = cur
    return CountingPmf(s_idx, t_idx, np.array(probs), truncation_mass=float(cur))


def lift_duration_function(values: np.ndarray, grid: TimeGrid, kind: str = "generic") -> TwoTimeMatrix:
    """Spread a one-variable function of the lag onto the grid: a(s, t) = values[t - s]."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (grid.n_points,):
        raise ValueError(
            f"need one value per grid point ({grid.n_points}), got shape {values.shape}"
        )
    lag = np.arange(grid.n_points)
    # the type zeroes the strict lower triangle, where this fills values[s - t]
    return TwoTimeMatrix(grid, values[np.abs(lag - lag[:, None])], kind)


def homogeneous_lift(F1: np.ndarray, grid: TimeGrid) -> TwoTimeMatrix:
    """Lift a one-variable d.f. to the two-time form F(s, t) = F1(t - s).

    Row 0 is F1 itself, so the distribution kind checks every entry of F1.
    """
    return lift_duration_function(F1, grid, "distribution")


def density_from_differences(F: TwoTimeMatrix) -> TwoTimeMatrix:
    """Step-function density from backward differences: f = v / h, f(u, u) = 0.

    This is the density stand-in for empirical distributions; with the
    right-rectangle rule and h = 1 it makes the quadrature solve coincide
    with the exact discrete solve.
    """
    v = increments_from_df(F)
    return TwoTimeMatrix(F.grid, v.values / F.grid.step_h, "density")
