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

from .convolve import RULE_WEIGHTS, _by_span, _lag_weights, _triu_product, convolution_powers, increments_from_df
from .grids import TimeGrid, TwoTimeMatrix, require_kind, require_same_grid, require_window

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

    Terms are summed while a bound on their maximum is at least ``tol``; the
    count of summed terms, the first always included, is reported.  F^(k)(s, .)
    is a d.f. in t, so its largest value is at most (v^(k-1) m)(s), with m the
    row maxima ``F.running_max[:, -1]`` and v the increments of F; the bound
    is exact for rows that do not dip.  The count walks that one column, n^2
    work per term.  Because every renewal takes at least one grid step,
    F^(k) vanishes identically for k >= n_points, and so does its bound, so
    the sum ends after at most n_points - 1 terms for any valid F and any
    positive tol.

    The N terms are then summed by doubling: with B_j = sum_{k < 2^j} v^k F
    and P_j = v^(2^j), B_{j+1} = B_j + P_j B_j and P_{j+1} = P_j P_j, and each
    set bit j of N, from low to high, prepends its block, H <- B_j + P_j H.
    That makes at most 2 floor(log2 N) + popcount(N) - 1 upper-triangular
    products, where the term-by-term sum makes N - 1.  The sums are made in
    place, so no more n x n arrays are live at once than in the term-by-term
    sum: B, P, H and one fresh product.
    """
    if not tol > 0:  # NaN fails too
        raise ValueError(f"tol must be positive, got {tol}")
    P = increments_from_df(F).values
    col, n_terms = F.running_max[:, -1], 1
    while (col := P @ col).max() >= tol:
        n_terms += 1
    B, H = F.values.copy(), None
    for j in range(n_terms.bit_length()):
        if n_terms >> j & 1:
            if H is None:
                H = B.copy()
            else:
                H = _triu_product(P, H)
                H += B
        if n_terms >> (j + 1):  # a higher bit is left: double B and P
            B += _triu_product(P, B)
            P = _triu_product(P, P)
    del B, P  # before the result's copy of H
    return SeriesResult(TwoTimeMatrix(F.grid, H, "renewal"), n_terms)


def _row_sweep(K: np.ndarray, F: np.ndarray, h: float, rule: str) -> np.ndarray:
    """Back-substitute H = F + quadrature of K H one row at a time, last row first.

    Row u solves, for every k > u at once with m = k - u and the weights
    w_j(m) of ``convolve._lag_weights``,
    (1 - w_0(m) K(u, u)) H(u, k) = F(u, k) + sum_{j=1..m-1} w_j(m) K(u, u+j) H(u+j, k);
    the j = m term drops as H(k, k) = 0.  Interior weights depend only on the
    parities of j and m: one vector-matrix product per parity of j, plus a
    j = 1 correction.  A row's divisor takes one value at odd and one at even
    m; all are checked before any solving, and the first singular cell in
    column order, bottom-up within a column, is reported.
    """
    n = len(F)
    first, second, odd, even, _ = _lag_weights(rule, n, h)
    D = 1.0 - first[:2, None] * np.diagonal(K)  # D[m % 2, u]: row u's divisor at span m
    k = int((np.arange(n) + np.where(D[1] < SINGULAR_TOL, 1, np.where(D[0] < SINGULAR_TOL, 2, n))).min())
    if k < n:  # row u's first singular column is u + 1 or u + 2
        u = max(u for u in range(k) if D[(k - u) % 2, u] < SINGULAR_TOL)
        raise ValueError(f"singular diagonal at (u={u}, k={k}): 1 - w0*f(u,u) = {D[(k - u) % 2, u]:.3e} "
                         f"(step h = {h} too large relative to the density at zero lag)")
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
        H[u, u + 1 :] = rhs / (1.0 - first[lag] * K[u, u])
    return H


def solve_quadrature(
    f: TwoTimeMatrix, F: TwoTimeMatrix, method: SolverMethod
) -> TwoTimeMatrix:
    """Quadrature solve of the continuous renewal equation on the native grid.

    Rows of H are filled from the last up.  Rules whose stencil includes
    tau = u produce an implicit term; the equation is then solved
    algebraically for H(u, k) by dividing by 1 - w0 f(u, u).  A near-zero
    divisor aborts, before any solving, with the offending location.  On a
    step so small that the density's products overflow in the sweep, the
    solve fails with the first non-finite cell and the step named.
    """
    require_kind(f, "density", "generic")
    require_kind(F, "distribution")
    require_same_grid(f, F)
    h = f.grid.step_h
    with np.errstate(over="ignore", invalid="ignore"):
        H = _row_sweep(f.values, F.values, h, method.tag)
    if not np.isfinite(H).all():
        s, t = np.argwhere(~np.isfinite(H))[0]
        raise ValueError(f"quadrature sweep overflows at ({s}, {t}): step h = {h} is too small")
    return TwoTimeMatrix(f.grid, H, "renewal")


def counting_pmf(
    F: TwoTimeMatrix, s_idx: int, t_idx: int, tol: float = 1e-10
) -> CountingPmf:
    """Pmf of N(t) - N(s) from the n-fold convolution chain at one cell.

    With F^(0)(s, t) = 1, p_n = F^(n)(s, t) - F^(n+1)(s, t), clamped at zero
    against float noise; the chain is truncated at the first order whose
    mass at (s, t) drops below ``tol``, which bounds the discarded tail by
    that same value.  At most t - s + 1 orders are nonzero.  The window
    (s, t) is checked as the samplers check theirs (``grids.require_window``).
    """
    if not tol > 0:  # NaN fails too
        raise ValueError(f"tol must be positive, got {tol}")
    s_idx, t_idx = require_window(F, s_idx, t_idx)
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
    return TwoTimeMatrix(grid, _by_span(values), kind)


def homogeneous_lift(F1: np.ndarray, grid: TimeGrid) -> TwoTimeMatrix:
    """Lift a one-variable d.f. to the two-time form F(s, t) = F1(t - s).

    Row 0 is F1 itself, so the distribution kind checks every entry of F1.
    """
    return lift_duration_function(F1, grid, "distribution")


def density_from_differences(F: TwoTimeMatrix) -> TwoTimeMatrix:
    """Step-function density from backward differences: f = v / h, f(u, u) = 0.

    This is the density stand-in for empirical distributions.  With f(u, u) = 0
    and H(t, t) = 0 the end weights drop out, and every interior node weighs
    h * v / h = v, so the rect-right, rect-left and trapezoid solves on it
    coincide with the exact discrete solve to round-off at every h.  A step so
    small that v / h overflows fails with the step named.
    """
    v = increments_from_df(F)
    h = F.grid.step_h
    with np.errstate(over="ignore"):
        f = v.values / h
    if not np.isfinite(f).all():
        s, t = np.argwhere(~np.isfinite(f))[0]
        raise ValueError(f"density v / h overflows at ({s}, {t}): step h = {h} is too small")
    return TwoTimeMatrix(F.grid, f, "density")
