import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewalkit.convolve import increments_from_df, nfold_convolution
from renewalkit.grids import TimeGrid, TwoTimeMatrix, read_matrix_tsv
from renewalkit.solver import (
    QUADRATURE_TAGS,
    SolverMethod,
    counting_pmf,
    density_from_differences,
    homogeneous_lift,
    lift_duration_function,
    solve_discrete,
    solve_quadrature,
    solve_series,
)
from renewalkit.testing import geometric_law, poisson_law, random_defective_df

GRID3 = TimeGrid(0.0, 1.0, 3)
SINGLE_STEP = [[0, 0.5, 1.0], [0, 0, 1.0], [0, 0, 0]]


def _df(grid, rows):
    return TwoTimeMatrix(grid, np.array(rows, dtype=float), "distribution")


def test_solve_discrete_single_step_fixture():
    H = solve_discrete(_df(GRID3, SINGLE_STEP))
    assert H.at(0, 1) == 0.5
    assert H.at(1, 2) == 1.0
    assert H.at(0, 2) == 1.5  # 1.0 + 0.5 * 1.0, equals F^(1) + F^(2)
    assert H.at(0, 0) == 0.0 and H.at(2, 2) == 0.0


def test_solve_discrete_zero_rhs():
    H = solve_discrete(_df(GRID3, np.zeros((3, 3))))
    assert not H.values.any()


def test_solve_discrete_geometric_is_linear_in_time():
    # Bernoulli renewal each step: N(t) ~ Binomial(t, p), so H(0, t) = p t
    p, T = 0.25, 40
    H = solve_discrete(geometric_law(p, T))
    for t in range(T + 1):
        assert abs(H.at(0, t) - p * t) <= 1e-12


def test_solve_discrete_homogeneous_input_gives_lag_dependent_output():
    H = solve_discrete(geometric_law(0.37, 25))
    for lag in range(26):
        cells = [H.at(s, s + lag) for s in range(26 - lag)]
        assert max(cells) - min(cells) <= 1e-12


def test_renewal_function_is_nondecreasing_in_t():
    rng = np.random.default_rng(31)
    for _ in range(10):
        H = solve_discrete(random_defective_df(rng, 12))
        diffs = H.values[:, 1:] - H.values[:, :-1]
        assert np.triu(diffs, k=0).min() >= -1e-12


def test_solve_series_single_step_fixture():
    res = solve_series(_df(GRID3, SINGLE_STEP), tol=1e-14)
    assert res.n_terms == 2
    assert res.renewal.at(0, 2) == 1.5


def test_solve_series_zero_df():
    res = solve_series(_df(GRID3, np.zeros((3, 3))), tol=1e-12)
    assert res.n_terms == 1
    assert not res.renewal.values.any()


def test_solve_series_matches_solve_discrete_on_random_input():
    rng = np.random.default_rng(37)
    for _ in range(20):
        F = random_defective_df(rng, 16)
        H = solve_discrete(F)
        S = solve_series(F, tol=1e-12).renewal
        assert np.abs(H.values - S.values).max() <= 1e-10


def test_solve_quadrature_poisson_within_two_percent():
    F, f = poisson_law(1.0, 5.0, 0.01)
    H = solve_quadrature(f, F, SolverMethod("rect-right"))
    top = H.at(0, H.n_points - 1)
    assert top == pytest.approx(5.0, rel=0.02)
    # the exact discrete solve of the lifted F is the same object up to O(h)
    series = solve_series(F, tol=1e-12).renewal
    assert abs(top - series.at(0, H.n_points - 1)) < 0.2


def test_solve_quadrature_zero_inputs():
    grid = TimeGrid(0.0, 0.5, 6)
    F = TwoTimeMatrix(grid, np.zeros((6, 6)), "distribution")
    f = TwoTimeMatrix(grid, np.zeros((6, 6)), "density")
    for tag in ("rect-right", "rect-left", "trapezoid", "simpson"):
        assert not solve_quadrature(f, F, SolverMethod(tag)).values.any()


@pytest.mark.parametrize("tag", ["rect-right", "rect-left"])
def test_rectangle_rules_refine_at_first_order(tag):
    # successive h-halvings shrink the solution difference by ~2 per step
    lam, horizon = 1.0, 5.0
    tops = []
    for h in (0.05, 0.025, 0.0125):
        F, f = poisson_law(lam, horizon, h)
        H = solve_quadrature(f, F, SolverMethod(tag))
        tops.append(H.at(0, H.n_points - 1))
    d1, d2 = abs(tops[0] - tops[1]), abs(tops[1] - tops[2])
    assert d1 / d2 >= 1.8


def test_trapezoid_converges_faster_than_rectangles():
    lam, horizon = 1.0, 2.0
    errs = {}
    for tag in ("rect-right", "trapezoid"):
        F, f = poisson_law(lam, horizon, 0.02)
        H = solve_quadrature(f, F, SolverMethod(tag))
        errs[tag] = abs(H.at(0, H.n_points - 1) - lam * horizon)
    assert errs["trapezoid"] < errs["rect-right"] / 20


def test_discrete_continuous_equivalence_at_unit_step():
    # rect-right with h = 1 and differenced density reproduces the exact solve
    rng = np.random.default_rng(41)
    for _ in range(20):
        F = random_defective_df(rng, int(rng.integers(2, 31)))
        H_disc = solve_discrete(F)
        H_quad = solve_quadrature(density_from_differences(F), F, SolverMethod("rect-right"))
        assert np.abs(H_disc.values - H_quad.values).max() <= 1e-12


@pytest.mark.parametrize("tag, diag", [("trapezoid", 2.0), ("rect-left", 1.0), ("simpson", 2.0)])
def test_singular_diagonal_aborts_with_location(tag, diag):
    grid = TimeGrid(0.0, 1.0, 4)
    F = TwoTimeMatrix(grid, np.zeros((4, 4)), "distribution")
    vals = np.zeros((4, 4))
    vals[np.diag_indices(4)] = diag  # w0 * f = 1 at m = 1, so 1 - w0 f = 0
    f = TwoTimeMatrix(grid, vals, "density")
    with pytest.raises(ValueError, match=r"singular diagonal at \(u=0, k=1\)"):
        solve_quadrature(f, F, SolverMethod(tag))


def _textbook_weights(tag, h, m):
    """Weights on tau = u..u+m written out node by node."""
    if tag == "rect-right":
        return [0.0] + [h] * m
    if tag == "rect-left":
        return [h] * m + [0.0]
    if tag == "trapezoid":
        return [h / 2] + [h] * (m - 1) + [h / 2]
    # composite Simpson; an odd span takes one trapezoid step first
    w = [0.0] * (m + 1)
    start = m % 2
    if start:
        w[0] += h / 2
        w[1] += h / 2
    for a in range(start, m, 2):
        w[a] += h / 3
        w[a + 1] += 4 * h / 3
        w[a + 2] += h / 3
    return w


def _reference_solve(K, F, h, tag):
    """Cell-by-cell solve of H = F + sum_j w_j K(u, u+j) H(u+j, k), column by column."""
    n = len(F)
    H = np.zeros((n, n))
    for k in range(1, n):
        for u in range(k - 1, -1, -1):
            w = _textbook_weights(tag, h, k - u)
            rhs = F[u, k] + sum(w[j] * K[u, u + j] * H[u + j, k] for j in range(1, k - u + 1))
            H[u, k] = rhs / (1.0 - w[0] * K[u, u])
    return H


@pytest.mark.parametrize("tag", ("exact-discrete",) + QUADRATURE_TAGS)
def test_every_rule_matches_a_cell_by_cell_reference(tag):
    rng = np.random.default_rng(53)
    for n in (12, 13):
        for h in (1.0, 0.25):
            for diag in (0.0, 0.4):
                F = random_defective_df(rng, n, step_h=h)
                if tag == "exact-discrete":
                    got = solve_discrete(F).values
                    v = increments_from_df(F).values
                    want = _reference_solve(v, F.values, 1.0, "rect-right")
                else:
                    dens = rng.uniform(0.0, 2.0 / (n * h), (n, n))  # O(1) mass per row
                    dens[np.diag_indices(n)] = rng.uniform(0.0, diag, n)
                    f = TwoTimeMatrix(F.grid, dens, "density")
                    got = solve_quadrature(f, F, SolverMethod(tag)).values
                    want = _reference_solve(f.values, F.values, h, tag)
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 30), seed=st.integers(0, 2**32 - 1))
def test_exact_solve_residual_is_at_round_off(n, seed):
    F = random_defective_df(np.random.default_rng(seed), n)
    H = solve_discrete(F).values
    v = increments_from_df(F).values
    assert np.abs(H - F.values - v @ H).max() <= 1e-12


def test_solver_method_validation():
    with pytest.raises(ValueError, match="unknown method tag"):
        SolverMethod("midpoint")
    with pytest.raises(ValueError, match="unknown method tag"):
        SolverMethod("exact-discrete")


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
def test_lift_duration_function_matches_a_row_loop(n, seed):
    values = np.random.default_rng(seed).normal(size=n)
    want = np.zeros((n, n))
    for s in range(n):
        want[s, s:] = values[: n - s]
    got = lift_duration_function(values, TimeGrid(0.0, 0.5, n))
    assert got.values.tobytes() == want.tobytes()


def _enumerate_counting_pmf(F, s, t):
    """Brute-force pmf of N(t) - N(s) by walking every renewal path."""
    v = increments_from_df(F).values
    vals = F.values
    pmf: dict[int, float] = {}

    def walk(cur, count, prob):
        pmf[count] = pmf.get(count, 0.0) + prob * (1.0 - vals[cur, t])
        for x in range(cur + 1, t + 1):
            if v[cur, x] > 0.0:
                walk(x, count + 1, prob * v[cur, x])

    walk(s, 0, 1.0)
    return pmf


def test_counting_pmf_degenerate_window():
    pmf = counting_pmf(_df(GRID3, SINGLE_STEP), 1, 1)
    assert pmf.probs.tolist() == [1.0]
    assert pmf.truncation_mass == 0.0


def test_counting_pmf_single_step_fixture():
    pmf = counting_pmf(_df(GRID3, SINGLE_STEP), 0, 2)
    assert pmf.probs.tolist() == [0.0, 0.5, 0.5]
    assert pmf.mean() == 1.5


def test_counting_pmf_accepts_a_total_within_the_validation_slack():
    # F(0, 2) = 1 + 2^-52 is a valid distribution value, so p_0 = 1 - F(0, 2)
    # is float noise below zero and clamps like every other order
    F = _df(GRID3, [[0, 0.5, 1 + 2**-52], [0, 0, 1.0], [0, 0, 0]])
    pmf = counting_pmf(F, 0, 2)
    assert pmf.probs[0] == 0.0
    assert pmf.probs.tolist() == pytest.approx([0.0, 0.5, 0.5], abs=1e-15)
    assert solve_discrete(F).at(0, 2) == pytest.approx(1.5, abs=1e-15)


@pytest.mark.parametrize("min_mass", [0.3, 1.0])
def test_convolution_chains_end_inside_the_grid(min_mass):
    # v is strictly upper triangular, so F^(n) = 0 exactly from n = n_points
    # on: even the smallest positive tol ends every chain without a cap
    rng = np.random.default_rng(61)
    for n in (2, 3, 8, 17, 33, 60):
        F = random_defective_df(rng, n, min_mass=min_mass)
        assert solve_series(F, tol=5e-324).n_terms <= n - 1
        s = int(rng.integers(0, n))
        for cell in ((0, n - 1), (s, n - 1), (s, int(rng.integers(s, n)))):
            assert len(counting_pmf(F, *cell, tol=5e-324).probs) <= n
        assert not nfold_convolution(F, n).values.any()


def test_counting_pmf_geometric_is_binomial():
    p = 0.25
    pmf = counting_pmf(geometric_law(p, 8), 0, 8, tol=1e-14)
    for k in range(9):
        want = math.comb(8, k) * p**k * (1 - p) ** (8 - k)
        assert pmf.probs[k] == pytest.approx(want, abs=1e-13)


def test_counting_pmf_against_path_enumeration():
    rng = np.random.default_rng(43)
    for _ in range(10):
        F = random_defective_df(rng, 7)
        s, t = 0, 6
        brute = _enumerate_counting_pmf(F, s, t)
        pmf = counting_pmf(F, s, t, tol=1e-14)
        for k in range(len(pmf.probs)):
            assert pmf.probs[k] == pytest.approx(brute.get(k, 0.0), abs=1e-12)
        assert pmf.probs.sum() + pmf.truncation_mass == pytest.approx(1.0, abs=1e-12)


def test_counting_pmf_mean_matches_renewal_function():
    rng = np.random.default_rng(47)
    for _ in range(5):
        F = random_defective_df(rng, 10)
        H = solve_discrete(F)
        for s in range(0, 10, 3):
            for t in range(s, 10, 2):
                pmf = counting_pmf(F, s, t, tol=1e-12)
                assert abs(pmf.mean() - H.at(s, t)) <= 1e-8


def test_homogeneous_lift_unit_step():
    grid = TimeGrid(0.0, 1.0, 3)
    F = homogeneous_lift(np.array([0.0, 1.0, 1.0]), grid)
    v = increments_from_df(F)
    assert v.at(0, 1) == 1.0 and v.at(1, 2) == 1.0
    assert v.at(0, 2) == 0.0


def test_homogeneous_lift_is_constant_in_duration():
    grid = TimeGrid(0.0, 1.0, 9)
    F1 = np.concatenate(([0.0], np.cumsum(np.full(8, 0.125))))
    F = homogeneous_lift(F1, grid)
    for s in range(8):
        for t in range(s, 8):
            assert F.at(s + 1, t + 1) == F.at(s, t)


def test_homogeneous_lift_of_observed_waiting_times():
    # second-claim waiting times: lifting their d.f. and solving must give a
    # homogeneous (lag-only) mean-renewals surface
    from renewalkit import golden
    from renewalkit.claims import DurationHistogram, histogram_to_df

    counts = golden.waiting_counts("first-to-second")
    hist = DurationHistogram(np.concatenate(([0], counts)), "first-to-second")
    df = histogram_to_df(hist)
    grid = TimeGrid(0.0, 1.0, len(df))
    H = solve_discrete(homogeneous_lift(df, grid))
    for lag in (1, 5, 20):
        cells = [H.at(s, s + lag) for s in range(len(df) - lag)]
        assert max(cells) - min(cells) <= 1e-12
    assert H.at(0, len(df) - 1) > 1.0  # a proper d.f. renews at least once


def test_homogeneous_lift_rejects_bad_input():
    grid = TimeGrid(0.0, 1.0, 3)
    with pytest.raises(ValueError, match="decreases"):
        homogeneous_lift(np.array([0.0, 0.8, 0.5]), grid)
    with pytest.raises(ValueError, match=r"a\(0,0\) = 0.1"):
        homogeneous_lift(np.array([0.1, 0.5, 1.0]), grid)
    with pytest.raises(ValueError, match=r"distribution value a\(0,2\) = 1.2 exceeds 1"):
        homogeneous_lift(np.array([0.0, 0.5, 1.2]), grid)
    with pytest.raises(ValueError, match="one value per grid point"):
        homogeneous_lift(np.array([0.0, 1.0]), grid)


def test_a_row_dipping_within_the_slack_solves_with_every_method(tmp_path):
    # accepted as a distribution: each dip is 9e-10, inside the 1e-9 slack
    rows = ["0\t1\t0.99999999910000001\t1\t0.99999999910000001\t1"]
    rows += ["\t".join(["0"] * (6 - i)) for i in range(1, 6)]
    path = tmp_path / "dip.tsv"
    path.write_text("# grid origin=0 h=1 n=6 kind=distribution\n" + "\n".join(rows) + "\n")
    F = read_matrix_tsv(path)
    v = increments_from_df(F).values
    assert v.min() == 0.0 and v[0].sum() == F.values[0].max() == 1.0
    H = solve_discrete(F)
    assert H.at(0, 5) == 1.0  # one renewal at t = 1, none after it
    assert np.abs(solve_series(F).renewal.values - H.values).max() <= 1e-10
    f = density_from_differences(F)
    solved = {tag: solve_quadrature(f, F, SolverMethod(tag)).values for tag in QUADRATURE_TAGS}
    assert np.abs(solved["rect-right"] - H.values).max() <= 1e-12  # the exact solve at h = 1
