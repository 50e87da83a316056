"""Discrete convolutions of two-time-variable functions.

Two forms live here.  The measure-theoretic form integrates a function
against the increments of a distribution,

    (G * F)(s, t) = sum_{x = s+1..t} G(x, t) v(s, x),   v = increments of F,

and the density form integrates two densities against each other,

    (f * g)(s, t) ~= sum_{tau = s..t} w_tau g(s, tau) f(tau, t),

with the quadrature weights w of a rule, which ``_lag_weights`` reads for
this form and for the quadrature solves alike.  Note the slot order of the
density form: the SECOND operand takes the (s, tau) slot.  Both reduce to
ordinary one-variable convolution when the operands depend only on t - s.

Both sums run over s <= x <= t only, so every whole-matrix product here is a
product of two upper-triangular matrices.  ``_triu_product`` is the one
kernel that computes them: above one block it skips the blocks of the zero
lower triangle, whose stored zeros would otherwise take most of the
multiply-adds.
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
#: trapezoid step first (m = 1 is that step alone, weighted (1/2, 1/2)).
RULE_WEIGHTS = {
    "rect-right": ((0.0, 1.0, 1.0, 1.0, 1.0),) * 2,
    "rect-left": ((1.0, 1.0, 1.0, 1.0, 0.0),) * 2,
    "trapezoid": ((0.5, 1.0, 1.0, 1.0, 0.5),) * 2,
    "simpson": ((1 / 3, 4 / 3, 4 / 3, 2 / 3, 1 / 3), (1 / 2, 5 / 6, 2 / 3, 4 / 3, 1 / 3)),
}

#: Block edge of ``_triu_product``, set by timing one product at n = 501
#: with OpenBLAS on one thread of a 2-core x86-64 host, where 64 beat 32 to
#: 128.
_BLOCK = 64


def _triu_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B for an upper-triangular n x n ``A`` and any n-row ``B``.

    A square ``B`` must be upper triangular too: then only the blocks
    (I, J) with J >= I of the result are computed, each contracting over
    the blocks I..J, where A(I, K) and B(K, J) can both be nonzero; the
    other blocks stay zero.  So the result is upper triangular, and it
    differs from the one-call product only in the order of its sums, by
    round-off; at or below ``_BLOCK`` points it is that one call.  Any other
    ``B``, such as one column, takes the plain product.
    """
    if B.shape != A.shape:
        return A @ B
    n = len(A)
    out = np.zeros((n, n))
    for i in range(0, n, _BLOCK):
        rows = slice(i, i + _BLOCK)
        for j in range(i, n, _BLOCK):
            end = min(j + _BLOCK, n)
            np.matmul(A[rows, i:end], B[i:end, j:end], out=out[rows, j:end])
    return out


def _lag_weights(rule: str, n: int, h: float) -> np.ndarray:
    """h x (first, second, odd, even, last) of ``rule`` as five rows indexed by the span m = 0..n-1.

    Node j of a span of m steps takes the first weight at j = 0, the second at j = 1 < m, the odd
    or even one at j >= 2 by the parity of j, and the last at j = m, which is h - first at m = 1.
    """
    if rule not in RULE_WEIGHTS:
        raise ValueError(f"unknown quadrature rule {rule!r}")
    W = (h * np.array(RULE_WEIGHTS[rule]))[np.arange(n) % 2].T
    W[4, 1] = h - W[0, 1]
    return W


def increments_from_df(F: TwoTimeMatrix) -> TwoTimeMatrix:
    """One-step backward differences of a distribution matrix.

    v(s, s) = 0 and v(s, t) = M(s, t) - M(s, t-1) for t > s, where M is
    ``F.running_max``.  Every step is >= 0, and the row sums telescope to
    the row's maximum.
    """
    require_kind(F, "distribution")
    return TwoTimeMatrix(F.grid, np.diff(F.running_max, axis=1, prepend=0.0), "increment")


def stieltjes_convolve(G: TwoTimeMatrix, F: TwoTimeMatrix) -> TwoTimeMatrix:
    """(G * F)(s, t) = sum_{x=s+1..t} G(x, t) v(s, x) with v from ``F``.

    The half-open sum starts at x = s + 1 (no renewal can happen at lag 0);
    the x = t term multiplies G(t, t), which is zero for renewal-type G, and
    is kept for uniformity.  Convolving two distributions yields another
    distribution (the law of the two-stage renewal time) and is tagged so.
    """
    require_same_grid(G, F)
    v = increments_from_df(F)
    out = _triu_product(v.values, G.values)
    if G.kind == "distribution":
        return TwoTimeMatrix(G.grid, np.clip(out, 0.0, 1.0, out=out), "distribution")
    return TwoTimeMatrix(G.grid, out, "generic")


def convolution_powers(F: TwoTimeMatrix, X: np.ndarray) -> Iterator[np.ndarray]:
    """Yield X, vX, v^2 X, ... without end, with v the increments of ``F`` (validated on the call).

    From X = F (or one column of it) these are F^(1), F^(2), ... (or that
    column of each).  A square X must be upper triangular, as F.values is;
    an X of another shape may hold anything.  v is strictly upper
    triangular, so v^k = 0 for k >= n_points.  A cell that v^k leaves zero
    is either a block that ``_triu_product`` never computes or a sum whose
    every term has an exact zero factor, so v^k X = 0 exactly, not only up
    to round-off.
    """
    v = increments_from_df(F).values
    return accumulate(repeat(v), lambda term, step: _triu_product(step, term), initial=X)


def nfold_convolution(F: TwoTimeMatrix, n: int) -> TwoTimeMatrix:
    """n-fold convolution power of a distribution matrix.

    F^(1) = F and F^(n) = F^(n-1) * F; this is the distribution of the n-th
    renewal time, so the sequence is pointwise nonincreasing in n, and it is
    identically zero from n = n_points on: a higher order is computed as that one.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    out = next(islice(convolution_powers(F, F.values), min(n, F.n_points) - 1, None))
    if n == 1:
        return F
    # clip float dust, in place in the fresh product, so the result still
    # validates as a distribution
    return TwoTimeMatrix(F.grid, np.clip(out, 0.0, 1.0, out=out), "distribution")


def _by_span(w: np.ndarray) -> np.ndarray:
    """The read-only n x n view of w[t - s] for a length-n ``w``, zero below the diagonal."""
    return np.lib.stride_tricks.sliding_window_view(np.concatenate((np.zeros(len(w) - 1), w)), len(w))[::-1]


def density_convolve(f: TwoTimeMatrix, g: TwoTimeMatrix, rule: str) -> TwoTimeMatrix:
    """Quadrature approximation of (f * g)(s, t) = int_s^t g(s, tau) f(tau, t) dtau.

    The forward product of the solvers' weights w_j(m) (``_lag_weights``), for any rule:
    Q(s, t) = sum_{j=0..m} w_j(m) g(s, s+j) f(s+j, t) with m = t - s.  One product takes every
    node at the even interior weight, a second the odd lags where their weight differs (Simpson),
    and the nodes j = 0, 1 and m are then corrected.  The (s, s) diagonal is exactly zero.
    """
    require_same_grid(f, g)
    span = np.arange(f.n_points)
    first, second, odd, even, last = _lag_weights(rule, len(span), f.grid.step_h)
    fv, gv = f.values, g.values
    out = _by_span(even) * _triu_product(gv, fv)
    if np.any(odd != even):
        out += _by_span(odd - even) * _triu_product(gv * _by_span(span % 2), fv)
    out += _by_span(first - even) * (np.diagonal(gv)[:, None] * fv)  # j = 0
    out[:-1] += _by_span(np.where(span > 1, second - odd, 0.0))[:-1] * (np.diagonal(gv, 1)[:, None] * fv[1:])
    out += _by_span(last - np.where(span % 2, odd, even)) * (gv * np.diagonal(fv))  # j = m
    np.fill_diagonal(out, 0.0)
    return TwoTimeMatrix(f.grid, out, "generic")
