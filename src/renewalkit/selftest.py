"""Golden checks behind the ``selftest`` subcommand and the acceptance suite.

The checks pin the arithmetic of the embedded reference tables, two
analytically solvable renewal models, and the agreement of the three
independent solution routes (back-substitution, convolution series, Monte
Carlo).  Each ``check_*`` takes its inputs as arguments, raises on a
violation and returns what it measured; the acceptance suite calls them
with larger inputs.  ``run_selftest`` prints one PASS/FAIL line per check;
the process exit status reflects any failure.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from . import golden
from .claims import ClaimRecords, DurationHistogram, histogram_to_df, no_claim_table
from .grids import TwoTimeMatrix
from .simulate import SimConfig, estimate_renewal_function
from .solver import QUADRATURE_TAGS, SolverMethod, counting_pmf, solve_discrete, solve_quadrature, solve_series
from .testing import geometric_law, poisson_law, random_defective_df

__all__ = ["check_geometric", "check_no_claim_probs", "check_oracle_triangle", "check_poisson",
           "check_waiting_probs", "matches_published", "run_selftest"]


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


def check_waiting_probs() -> dict[str, float]:
    """The published waiting-time probability columns to 1e-6, from the embedded counts."""
    worst = 0.0
    for transition in ("first-to-second", "second-to-third"):
        hist = DurationHistogram(np.concatenate(([0], golden.waiting_counts(transition))), transition)
        pmf = np.diff(histogram_to_df(hist), prepend=0.0)[1:]
        for got, want in zip(pmf, golden.waiting_probs(transition)):
            worst = max(worst, abs(got - want))
            _require(matches_published(got, want, 1e-6), f"{transition}: {got} vs published {want}")
    totals = (golden.waiting_counts("first-to-second").sum(), golden.waiting_counts("second-to-third").sum())
    _require(tuple(int(t) for t in totals) == golden.WAITING_TOTALS, f"count totals {totals}")
    return {"worst": worst}


def check_no_claim_probs() -> dict[str, float]:
    """The published no-claim columns to 1e-6, from ``no_claim_table`` on records of the embedded counts."""
    groups = [*golden.NO_CLAIM_ROWS, (60, *golden.NO_CLAIM_POOLED)]  # the pooled ages enter at 60
    entry = np.repeat([g[0] for g in groups], [g[1] for g in groups])
    # per entry age, all but the quiet policies claim once, a year after entry
    claimant = np.flatnonzero(np.concatenate([np.arange(total) < total - quiet for _, total, quiet, *_ in groups]))
    records = ClaimRecords(tuple(map(str, range(len(entry)))), entry, claimant, entry[claimant] + 1)
    rows = no_claim_table(records, 60).rows
    published = [*golden.NO_CLAIM_ROWS, (">=60", *golden.NO_CLAIM_POOLED), ("total", *golden.NO_CLAIM_GRAND_TOTAL)]
    counts = [(r.label, r.total, r.no_claim) for r in rows]
    _require(counts == [(str(label), total, quiet) for label, total, quiet, *_ in published], f"rows {counts}")
    worst = 0.0
    for row, (label, _, _, p_no, p_claim) in zip(rows, published):
        got_no, got_claim = row.prob_no_claim, row.prob_claim
        worst = max(worst, abs(got_no - p_no), abs(got_claim - p_claim))
        _require(matches_published(got_no, p_no, 1e-6), f"age {label}: {got_no} vs {p_no}")
        _require(matches_published(got_claim, p_claim, 1e-6), f"age {label}: {got_claim} vs {p_claim}")
    return {"worst": worst}


def check_poisson(h: float) -> dict[str, float]:
    """H(0, 5) of the rate-1 Poisson process lies in [4.9, 5.1] for every rule at step h."""
    F, f = poisson_law(1.0, 5.0, h)
    tops = {tag: solve_quadrature(f, F, SolverMethod(tag)).at(0, F.n_points - 1) for tag in QUADRATURE_TAGS}
    for tag, top in tops.items():
        _require(4.9 <= top <= 5.1, f"{tag}: H(0,5) = {top}")
    return tops


def check_geometric(p: float, T: int, t: int) -> dict[str, float]:
    """Bernoulli(p) renewals: H(0, k) = p k for k <= T, and N(t) ~ Binomial(t, p)."""
    F = geometric_law(p, T)
    H = solve_discrete(F)
    err = max(abs(H.at(0, k) - p * k) for k in range(T + 1))
    _require(err <= 1e-12, f"max |H(0,t) - pt| = {err}")
    pmf = counting_pmf(F, 0, t, tol=1e-14)
    worst = max(abs(pmf.probs[k] - math.comb(t, k) * p**k * (1 - p) ** (t - k)) for k in range(t + 1))
    _require(worst <= 1e-10, f"pmf vs Binomial({t}, {p}): max diff {worst}")
    return {"H": err, "pmf": worst}


def check_oracle_triangle(cases: Iterable[tuple[TwoTimeMatrix, int]], n_paths: int) -> dict[str, float]:
    """Per (F, seed): the series within 1e-10 of the discrete solve, Monte Carlo within 3 SE of it."""
    worst_pair = worst_z = 0.0
    for F, seed in cases:
        H = solve_discrete(F)
        S = solve_series(F, tol=1e-12).renewal
        worst_pair = max(worst_pair, np.abs(H.values - S.values).max())
        _require(worst_pair <= 1e-10, f"discrete vs series: {worst_pair}")
        est = estimate_renewal_function(F, SimConfig(n_paths, seed, 0, F.n_points - 1))
        for j, t in enumerate(est.t_indices()):
            diff = abs(est.means[j] - H.at(0, int(t)))
            if est.std_errs[j] == 0.0:
                _require(diff == 0.0, f"zero-variance cell t={t} with diff {diff}")
            else:
                worst_z = max(worst_z, diff / est.std_errs[j])
                _require(diff <= 3.0 * est.std_errs[j], f"t={t}: diff {diff} > 3 SE")
    return {"pair": worst_pair, "z": worst_z}


def _oracle_cases():
    rng = np.random.default_rng(20210905)
    for _ in range(5):
        yield random_defective_df(rng, 13), int(rng.integers(2**63))  # F drawn first, then its seed


#: name, the check on the selftest's inputs, its detail line when verbose and when not
_CHECKS = (
    ("waiting-time probabilities", check_waiting_probs,
     "max |pmf - published| = {worst:.2e}", "probability columns reproduced"),
    ("no-claim probabilities", check_no_claim_probs,
     "max |prob - published| = {worst:.2e}", "probability columns reproduced"),
    ("poisson renewal function", lambda: check_poisson(0.01),
     "  ".join(f"{tag}={{{tag}:.5f}}" for tag in QUADRATURE_TAGS), "H(0,5) within [4.9, 5.1] for all four rules"),
    ("geometric renewal function", lambda: check_geometric(0.25, 40, 8),
     "|H - pt| <= {H:.2e}, pmf vs binomial <= {pmf:.2e}", "H(0,t) = 0.25t and N(8) ~ Binomial(8, 0.25)"),
    ("oracle triangle", lambda: check_oracle_triangle(_oracle_cases(), 20_000),
     "max |discrete - series| = {pair:.2e}, max MC z-score = {z:.2f}", "back-substitution, series and Monte Carlo agree"),
)


def run_selftest(verbose: bool = False) -> int:
    failures = 0
    for name, check, verbose_detail, detail in _CHECKS:
        try:
            measured = check()
        except Exception as exc:  # noqa: BLE001 - report and keep going
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}: {verbose_detail.format_map(measured) if verbose else detail}")
    print(f"{len(_CHECKS) - failures}/{len(_CHECKS)} checks passed")
    return 1 if failures else 0
