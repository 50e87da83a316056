"""Discrete convolutions of two-time-variable functions.

Two forms live here.  The measure-theoretic form integrates a function
against the increments of a distribution,

    (G * F)(s, t) = sum_{x = s+1..t} G(x, t) v(s, x),   v = increments of F,

and the density form integrates two densities against each other,

    (f * g)(s, t) ~= sum_{tau = s..t} w_tau g(s, tau) f(tau, t),

with quadrature weights w chosen by rule.  Note the slot order of the
density form: the SECOND operand takes the (s, tau) slot.  Both reduce to
ordinary one-variable convolution when the operands depend only on t - s.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate, islice, repeat

import numpy as np

from .grids import TwoTimeMatrix, require_kind, require_same_grid

__all__ = [
    "convolution_powers",
    "density_convolve",
    "increments_from_df",
    "nfold_convolution",
    "stieltjes_convolve",
]

#: The one quadrature weight table.  Per rule, the weights in units of h on
#: the nodes tau = s + j of [s, t] with m = t - s steps, as (first j = 0,
#: second j = 1, odd j >= 3, even j >= 2, last j = m), for even and for odd
#: m.  Only Simpson depends on the parity of m: an odd span takes one
#: trapezoid step first (m = 1 is that step alone, with last weight 1/2;
#: no solver reads it, as it multiplies H(t, t) = 0).
RULE_WEIGHTS = {
    "rect-right": ((0.0, 1.0, 1.0, 1.0, 1.0),) * 2,
    "rect-left": ((1.0, 1.0, 1.0, 1.0, 0.0),) * 2,
    "trapezoid": ((0.5, 1.0, 1.0, 1.0, 0.5),) * 2,
    "simpson": ((1 / 3, 4 / 3, 4 / 3, 2 / 3, 1 / 3), (1 / 2, 5 / 6, 2 / 3, 4 / 3, 1 / 3)),
}


def increments_from_df(F: TwoTimeMatrix) -> TwoTimeMatrix:
    """One-step backward differences of a distribution matrix.

    v(s, s) = 0 and v(s, t) = M(s, t) - M(s, t-1) for t > s, where M is the
    running maximum of each row of F.  On a nondecreasing row M = F; on a
    row that dips within the validation slack, every step stays >= 0 and
    the row sums telescope to the row's maximum, so a dip adds no mass.
    """
    require_kind(F, "distribution")
    v = np.maximum.accumulate(F.values, axis=1)  # column 0 holds a(0,0) = 0 and the zeroed lower triangle
    v[:, 1:] = np.diff(v, axis=1)
    return TwoTimeMatrix(F.grid, v, "increment")


def stieltjes_convolve(G: TwoTimeMatrix, F: TwoTimeMatrix) -> TwoTimeMatrix:
    """(G * F)(s, t) = sum_{x=s+1..t} G(x, t) v(s, x) with v from ``F``.

    The half-open sum starts at x = s + 1 (no renewal can happen at lag 0);
    the x = t term multiplies G(t, t), which is zero for renewal-type G, and
    is kept for uniformity.  Convolving two distributions yields another
    distribution (the law of the two-stage renewal time) and is tagged so.
    """
    require_same_grid(G, F)
    v = increments_from_df(F)
    out = v.values @ G.values
    if G.kind == "distribution":
        return TwoTimeMatrix(G.grid, np.clip(out, 0.0, 1.0), "distribution")
    return TwoTimeMatrix(G.grid, out, "generic")


def convolution_powers(F: TwoTimeMatrix, X: np.ndarray) -> Iterator[np.ndarray]:
    """Yield X, vX, v^2 X, ... without end, with v the increments of ``F`` (validated on the call).

    From X = F (or one column of it) these are F^(1), F^(2), ... (or that
    column of each); v is strictly upper triangular, so v^k X = 0 exactly
    for k >= n_points.
    """
    v = increments_from_df(F).values
    return accumulate(repeat(v), lambda term, step: step @ term, initial=X)


def nfold_convolution(F: TwoTimeMatrix, n: int) -> TwoTimeMatrix:
    """n-fold convolution power of a distribution matrix.

    F^(1) = F and F^(n) = F^(n-1) * F; this is the distribution of the n-th
    renewal time, so the sequence is pointwise nonincreasing in n, and it is
    identically zero from n = n_points on.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    out = next(islice(convolution_powers(F, F.values), n - 1, None))
    if n == 1:
        return F
    # clip float dust, in place in the fresh product, so the result still
    # validates as a distribution
    return TwoTimeMatrix(F.grid, np.clip(out, 0.0, 1.0, out=out), "distribution")


def density_convolve(f: TwoTimeMatrix, g: TwoTimeMatrix, rule: str = "trapezoid") -> TwoTimeMatrix:
    """Quadrature approximation of (f * g)(s, t) = int_s^t g(s, tau) f(tau, t) dtau.

    ``rule`` picks the node set on [s, t]: left rectangles (tau = s..t-1),
    right rectangles (tau = s+1..t) or the trapezoid rule.  The (s, s)
    diagonal is exactly zero for every rule.
    """
    require_same_grid(f, g)
    h = f.grid.step_h
    fv, gv = f.values, g.values
    # the one full product below assumes every interior weight is 1, which Simpson's are not
    if rule not in RULE_WEIGHTS or rule == "simpson":
        raise ValueError(f"unknown quadrature rule {rule!r}")
    w_first, *_, w_last = RULE_WEIGHTS[rule][0]
    full = gv @ fv  # sum over tau = s..t of g(s,tau) f(tau,t)
    first = np.diagonal(gv)[:, None] * fv  # tau = s term
    last = gv * np.diagonal(fv)[None, :]  # tau = t term
    out = (full - (1.0 - w_first) * first - (1.0 - w_last) * last) * h
    return TwoTimeMatrix(f.grid, out, "generic")
