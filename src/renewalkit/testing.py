"""Random and analytic laws for the self-checks, and a messy claims corpus; also used by the tests."""

from __future__ import annotations

import numpy as np

from .grids import TimeGrid, TwoTimeMatrix
from .solver import homogeneous_lift, lift_duration_function

__all__ = [
    "MESSY_CLAIMS",
    "MESSY_POLICIES",
    "bernoulli_law",
    "geometric_law",
    "nhpp_law",
    "poisson_law",
    "random_defective_df",
]

# a hand-written messy corpus: blank lines, blank and padded ages, an under-18
# and an age-150 policy, same-age, pre-entry and past-cap claims, a quoted id
MESSY_POLICIES = (
    'policy_id,entry_age\nP1,23\n\nP2, 30 \nP3,\n"Q,4",25\nP5,16\nP6,150\nP7,61\nP8,  \nP9,40\n'
)
MESSY_CLAIMS = (
    "policy_id,claim_age\nP1,41\nP1,41\nP1,23\nP1,20\n\nP2, 45 \nP3,30\nP3,24\n"
    '"Q,4",40\n"Q,4",70\nP5,30\nP5,abc\nP6,150\nP7,65\nP7,62\nP9,41\nP9,55\nP9,58\nP2,50\n'
)


def random_defective_df(
    rng: np.random.Generator,
    n_points: int,
    origin: float = 0.0,
    step_h: float = 1.0,
    min_mass: float = 0.3,
) -> TwoTimeMatrix:
    """Random waiting-time distribution matrix with defective rows.

    Each row spreads a random total mass in [min_mass, 1] over its lags via
    a flat Dirichlet draw, so every reachable cell keeps non-negligible
    probability (which keeps Monte Carlo comparisons well-conditioned).
    The last row is identically zero, as it has no lags left on the grid.
    """
    values = np.zeros((n_points, n_points))
    for s in range(n_points - 1):
        mass = rng.uniform(min_mass, 1.0)
        inc = rng.dirichlet(np.ones(n_points - 1 - s)) * mass
        values[s, s + 1 :] = np.cumsum(inc)
    grid = TimeGrid(origin, step_h, n_points)
    return TwoTimeMatrix(grid, values, "distribution")


def bernoulli_law(p) -> TwoTimeMatrix:
    """Independent renewals with probability p[k - 1] at step k = 1..T, on the unit grid 0..T.

    The exact age-dependent law: F(s, t) = 1 - prod_{k=s+1..t} (1 - p_k),
    H(s, t) = sum_{k=s+1..t} p_k, and N(t) - N(s) is Poisson-binomial.
    """
    q = 1.0 - np.asarray(p, dtype=np.float64)
    values = np.zeros((len(q) + 1, len(q) + 1))
    for s in range(len(q)):
        values[s, s + 1 :] = 1.0 - np.cumprod(q[s:])
    return TwoTimeMatrix(TimeGrid(0.0, 1.0, len(q) + 1), values, "distribution")


def geometric_law(p: float, T: int) -> TwoTimeMatrix:
    """Bernoulli(p) renewals on the unit grid 0..T; H(s, t) = p (t - s)."""
    return homogeneous_lift(1.0 - (1.0 - p) ** np.arange(T + 1.0), TimeGrid(0.0, 1.0, T + 1))


def poisson_law(lam: float, horizon: float, h: float) -> tuple[TwoTimeMatrix, TwoTimeMatrix]:
    """(F, f) of Exponential(lam) waiting times on [0, horizon] at step h; H(s, t) = lam (t - s)."""
    grid = TimeGrid(0.0, h, int(round(horizon / h)) + 1)
    lag = grid.times()
    F = homogeneous_lift(1.0 - np.exp(-lam * lag), grid)
    return F, lift_duration_function(lam * np.exp(-lam * lag), grid, "density")


def nhpp_law(h: float, horizon: float = 5.0) -> tuple[TwoTimeMatrix, TwoTimeMatrix, TwoTimeMatrix]:
    """(F, f, H) of the Poisson process with intensity 0.6 + 0.5 sin x + 0.1 x on [0, horizon] at step h.

    The exact age-dependent law, with Lambda(x) = 0.6 x + 0.5 (1 - cos x) + 0.05 x^2:
    F(s, t) = 1 - exp(-(Lambda(t) - Lambda(s))), f(s, t) = lambda(t) exp(-(Lambda(t) - Lambda(s)))
    and H(s, t) = Lambda(t) - Lambda(s).
    """
    grid = TimeGrid(0.0, h, int(round(horizon / h)) + 1)
    x = grid.times()
    cum = 0.6 * x + 0.5 * (1.0 - np.cos(x)) + 0.05 * x * x
    H = np.triu(cum - cum[:, None])
    survive = np.exp(-H)
    f = TwoTimeMatrix(grid, (0.6 + 0.5 * np.sin(x) + 0.1 * x) * survive, "density")
    return TwoTimeMatrix(grid, 1.0 - survive, "distribution"), f, TwoTimeMatrix(grid, H, "renewal")
