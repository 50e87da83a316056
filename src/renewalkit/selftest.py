"""Built-in golden checks behind the ``selftest`` subcommand.

Each check prints one PASS/FAIL line; the process exit status reflects any
failure.  The checks pin the arithmetic of the embedded reference tables,
two analytically solvable renewal models, and the agreement of the three
independent solution routes (back-substitution, convolution series, Monte
Carlo).
"""

from __future__ import annotations

import math

import numpy as np

from . import golden
from .claims import DurationHistogram, histogram_to_df
from .grids import TimeGrid
from .simulate import SimConfig, estimate_renewal_function
from .solver import (
    SolverMethod,
    counting_pmf,
    homogeneous_lift,
    lift_duration_function,
    solve_discrete,
    solve_quadrature,
    solve_series,
)
from .testing import random_defective_df

__all__ = ["matches_published", "run_selftest"]


def matches_published(computed: float, published: float, tol: float = 1e-6) -> bool:
    """Compare against a published figure of possibly short decimal precision.

    Within ``tol`` always passes; otherwise the computed value must round to
    the published figure at the precision the figure itself was printed at
    (some source entries carry only five decimals).
    """
    if abs(computed - published) <= tol:
        return True
    text = repr(float(published))
    decimals = len(text.split(".")[1]) if "." in text else 0
    return abs(round(computed, decimals) - published) <= 1e-12


def _require(ok: bool, message: str) -> None:
    """Fail a check; an explicit raise, so ``python -O`` cannot strip it."""
    if not ok:
        raise AssertionError(message)


def _check_waiting_probs(verbose: bool) -> str:
    worst = 0.0
    for transition in ("first-to-second", "second-to-third"):
        counts = golden.waiting_counts(transition)
        hist = DurationHistogram(np.concatenate(([0], counts)), transition)
        df = histogram_to_df(hist)
        pmf = np.diff(df, prepend=0.0)[1:]
        for got, want in zip(pmf, golden.waiting_probs(transition)):
            worst = max(worst, abs(got - want))
            _require(matches_published(got, want), f"{transition}: {got} vs published {want}")
    totals = (golden.waiting_counts("first-to-second").sum(), golden.waiting_counts("second-to-third").sum())
    _require(tuple(int(t) for t in totals) == golden.WAITING_TOTALS, f"count totals {totals}")
    return f"max |pmf - published| = {worst:.2e}" if verbose else "probability columns reproduced"


def _check_no_claim_probs(verbose: bool) -> str:
    worst = 0.0
    rows = list(golden.NO_CLAIM_ROWS) + [
        (">=60", *golden.NO_CLAIM_POOLED),
        ("total", *golden.NO_CLAIM_GRAND_TOTAL),
    ]
    for label, total, quiet, p_no, p_claim in rows:
        got_no, got_claim = quiet / total, 1.0 - quiet / total
        worst = max(worst, abs(got_no - p_no), abs(got_claim - p_claim))
        _require(matches_published(got_no, p_no), f"age {label}: {got_no} vs {p_no}")
        _require(matches_published(got_claim, p_claim), f"age {label}: {got_claim} vs {p_claim}")
    grand_total = sum(r[1] for r in golden.NO_CLAIM_ROWS) + golden.NO_CLAIM_POOLED[0]
    _require(grand_total == golden.NO_CLAIM_GRAND_TOTAL[0], f"grand total {grand_total}")
    return f"max |prob - published| = {worst:.2e}" if verbose else "probability columns reproduced"


def _check_poisson(verbose: bool) -> str:
    h, horizon, lam = 0.01, 5.0, 1.0
    grid = TimeGrid(0.0, h, int(round(horizon / h)) + 1)
    lag = grid.times()
    F = homogeneous_lift(1.0 - np.exp(-lam * lag), grid)
    f = lift_duration_function(lam * np.exp(-lam * lag), grid, "density")
    results = {}
    for tag in ("rect-right", "rect-left", "trapezoid", "simpson"):
        H = solve_quadrature(f, F, SolverMethod(tag))
        results[tag] = H.at(0, grid.n_points - 1)
        _require(4.9 <= results[tag] <= 5.1, f"{tag}: H(0,5) = {results[tag]}")
    if verbose:
        return "  ".join(f"{tag}={val:.5f}" for tag, val in results.items())
    return "H(0,5) within [4.9, 5.1] for all four rules"


def _check_geometric(verbose: bool) -> str:
    p, T = 0.25, 40
    grid = TimeGrid(0.0, 1.0, T + 1)
    F = homogeneous_lift(1.0 - (1.0 - p) ** np.arange(T + 1.0), grid)
    H = solve_discrete(F)
    err = max(abs(H.at(0, t) - p * t) for t in range(T + 1))
    _require(err <= 1e-12, f"max |H(0,t) - pt| = {err}")
    pmf = counting_pmf(F, 0, 8, tol=1e-14)
    worst = 0.0
    for k in range(9):
        want = math.comb(8, k) * p**k * (1 - p) ** (8 - k)
        worst = max(worst, abs(pmf.probs[k] - want))
    _require(worst <= 1e-10, f"pmf vs Binomial(8, 0.25): max diff {worst}")
    return (
        f"|H - pt| <= {err:.2e}, pmf vs binomial <= {worst:.2e}"
        if verbose
        else "H(0,t) = 0.25t and N(8) ~ Binomial(8, 0.25)"
    )


def _check_oracle_triangle(verbose: bool) -> str:
    rng = np.random.default_rng(20210905)
    worst_pair = worst_z = 0.0
    for _ in range(5):
        F = random_defective_df(rng, 13)
        H = solve_discrete(F)
        S = solve_series(F, tol=1e-12).renewal
        worst_pair = max(worst_pair, np.abs(H.values - S.values).max())
        _require(worst_pair <= 1e-10, f"discrete vs series: {worst_pair}")
        seed = int(rng.integers(2**63))
        est = estimate_renewal_function(F, SimConfig(20_000, seed, 0, 12))
        for j, t in enumerate(est.t_indices()):
            diff = abs(est.means[j] - H.at(0, int(t)))
            if est.std_errs[j] == 0.0:
                _require(diff == 0.0, f"zero-variance cell t={t} with diff {diff}")
            else:
                worst_z = max(worst_z, diff / est.std_errs[j])
                _require(diff <= 3.0 * est.std_errs[j], f"t={t}: diff {diff} > 3 SE")
    if verbose:
        return f"max |discrete - series| = {worst_pair:.2e}, max MC z-score = {worst_z:.2f}"
    return "back-substitution, series and Monte Carlo agree"


_CHECKS = (
    ("waiting-time probabilities", _check_waiting_probs),
    ("no-claim probabilities", _check_no_claim_probs),
    ("poisson renewal function", _check_poisson),
    ("geometric renewal function", _check_geometric),
    ("oracle triangle", _check_oracle_triangle),
)


def run_selftest(verbose: bool = False) -> int:
    failures = 0
    for name, check in _CHECKS:
        try:
            detail = check(verbose)
        except Exception as exc:  # noqa: BLE001 - report and keep going
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}: {detail}")
    print(f"{len(_CHECKS) - failures}/{len(_CHECKS)} checks passed")
    return 1 if failures else 0
