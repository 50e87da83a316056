import math
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewalkit import solver
from renewalkit.convolve import RULE_WEIGHTS, density_convolve, increments_from_df, nfold_convolution
from renewalkit.grids import TimeGrid, TwoTimeMatrix, read_matrix_tsv
from renewalkit.solver import (
    CountingPmf,
    SolverMethod,
    counting_pmf,
    density_from_differences,
    homogeneous_lift,
    lift_duration_function,
    solve_discrete,
    solve_quadrature,
    solve_series,
)
from renewalkit.simulate import estimate_renewal_function, sample_path
from renewalkit.testing import bernoulli_law, geometric_law, nhpp_law, poisson_law, random_defective_df

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


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
def test_a_tolerance_that_is_not_positive_is_rejected(tol):
    # a NaN tol passes "tol <= 0", and no "max < nan" ever stops the series
    F = geometric_law(0.3, 5)
    for call in (lambda: solve_series(F, tol=tol), lambda: counting_pmf(F, 0, 5, tol=tol)):
        with pytest.raises(ValueError, match=rf"^tol must be positive, got {tol}$"):
            call()


def test_solve_series_matches_solve_discrete_on_random_input():
    rng = np.random.default_rng(37)
    for _ in range(20):
        F = random_defective_df(rng, 16)
        H = solve_discrete(F)
        S = solve_series(F, tol=1e-12).renewal
        assert np.abs(H.values - S.values).max() <= 1e-10


def _dipped(F, rng):
    """F with five rows whose last value sits 5e-10 below their maximum, a dip inside the 1e-9 slack."""
    values = F.values.copy()
    values[rng.choice(F.n_points - 2, 5, replace=False), -1] -= 5e-10
    return TwoTimeMatrix(F.grid, values, "distribution")


def _series_laws():
    rng = np.random.default_rng(71)
    for min_mass in (0.3, 1.0):
        for n in range(2, 41):
            yield random_defective_df(rng, n, min_mass=min_mass)
    yield geometric_law(0.3, 40)
    yield _dipped(random_defective_df(rng, 30), rng)


def _reference_series(F, tol=1e-12):
    """sum_{k < N} v^k F by matrix powers, and N: the terms k >= 2 are counted while the
    row-maxima bound max_s (v^(k-1) m)(s) is at least tol, the first term always."""
    v, m = increments_from_df(F).values, F.running_max[:, -1]
    N = 1
    while (np.linalg.matrix_power(v, N) @ m).max() >= tol:
        N += 1
    return sum(np.linalg.matrix_power(v, k) @ F.values for k in range(N)), N


def test_series_matches_the_sum_of_matrix_powers():
    for F in _series_laws():
        reference, N = _reference_series(F)
        res = solve_series(F)
        assert res.n_terms == N
        assert np.abs(res.renewal.values - reference).max() <= 1e-13 * reference.max()


def test_series_counts_terms_by_the_row_maxima_of_a_dipping_law():
    # row 1 rises to 9e-10 and falls back to 0, a dip inside the 1e-9 slack: F^(2)(0, .) = F(1, .),
    # so its last column bounds the second term by 0 and its maximum by 9e-10, the term's true size
    values = np.zeros((4, 4))
    values[0, 1:] = 1.0
    values[1, 2] = 9e-10
    F = TwoTimeMatrix(TimeGrid(0.0, 1.0, 4), values, "distribution")
    res = solve_series(F, tol=5e-10)
    assert res.n_terms == 2
    assert res.renewal.at(0, 2) == pytest.approx(1.0 + 9e-10, abs=1e-15)


def test_series_makes_at_most_two_products_per_doubling_and_one_per_further_bit(monkeypatch):
    # one renewal every step: F^(k)(s, t) = 1 for t - s >= k, so the series has exactly T terms,
    # H(s, t) = t - s, and every product is exact; T > 64 takes the blocked product
    products = []
    product = solver._triu_product
    monkeypatch.setattr(solver, "_triu_product", lambda A, B: products.append(1) or product(A, B))
    for T in range(1, 71):
        products.clear()
        res = solve_series(geometric_law(1.0, T))
        N = res.n_terms
        assert N == T
        assert len(products) <= 2 * (N.bit_length() - 1) + N.bit_count() - 1
        lag = np.arange(T + 1)
        assert np.array_equal(res.renewal.values, np.triu(lag - lag[:, None]))


def test_series_holds_no_more_arrays_than_the_term_by_term_sum():
    # four n x n arrays at once, as the term-by-term sum held (v, H and two terms): B, P, H and one
    # fresh product; the law is built before the trace, so only the sum's own allocations count
    n = 300
    F = random_defective_df(np.random.default_rng(83), n)
    tracemalloc.start()
    try:
        res = solve_series(F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.n_terms > 8  # enough terms that both doublings and prepends run
    assert peak <= 4 * n * n * 8 + 64 * 1024


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
    # on the differenced density v / h, f(u, u) = 0 and H(t, t) = 0 zero the end weights, so
    # rect-right, rect-left and the trapezoid weigh every interior node by h * v / h = v: each is
    # the exact solve at every step, h = 1 or not.  Simpson's 4h/3 and 2h/3 interior weights are
    # not h, so it differs from the exact solve by up to 0.18 of max |H| on these laws: left out
    rng = np.random.default_rng(41)
    for rep in range(40):
        step_h = 1.0 if rep < 20 else float(10 ** rng.uniform(-3, 1))
        F = random_defective_df(rng, int(rng.integers(2, 31)), step_h=step_h)
        H_disc = solve_discrete(F)
        f = density_from_differences(F)
        scale = max(1.0, np.abs(H_disc.values).max())
        for tag in ("rect-right", "rect-left", "trapezoid"):
            H_quad = solve_quadrature(f, F, SolverMethod(tag))
            assert np.abs(H_disc.values - H_quad.values).max() <= 1e-13 * scale, (tag, step_h)


@pytest.mark.parametrize("tag, diag", [("trapezoid", 2.0), ("rect-left", 1.0), ("simpson", 2.0)])
def test_singular_diagonal_aborts_with_location(tag, diag):
    grid = TimeGrid(0.0, 1.0, 4)
    F = TwoTimeMatrix(grid, np.zeros((4, 4)), "distribution")
    vals = np.zeros((4, 4))
    vals[np.diag_indices(4)] = diag  # w0 * f = 1 at m = 1, so 1 - w0 f = 0
    f = TwoTimeMatrix(grid, vals, "density")
    with pytest.raises(ValueError, match=r"singular diagonal at \(u=0, k=1\)"):
        solve_quadrature(f, F, SolverMethod(tag))


# Simpson's divisor is 1 - f/2 at odd lags and 1 - f/3 at even lags (h = 1): f = 2
# makes only the odd lags singular, f = 3 both.  Rows 1 and 3 at f = 2 are singular
# at k = 2, 4, 6 and k = 4, 6; the sweep, last row first, would meet (3, 4) first.
@pytest.mark.parametrize("tag, diag, where", [
    ("simpson", {1: 2.0, 3: 2.0}, r"\(u=1, k=2\): 1 - w0\*f\(u,u\) = 0\.000e\+00"),
    ("simpson", {5: 2.0}, r"\(u=5, k=6\): 1 - w0\*f\(u,u\) = 0\.000e\+00"),
    ("simpson", {4: 3.0, 5: 2.0}, r"\(u=4, k=5\): 1 - w0\*f\(u,u\) = -5\.000e-01"),
    ("trapezoid", {3: 2.0, 2: 1.0}, r"\(u=3, k=4\): 1 - w0\*f\(u,u\) = 0\.000e\+00"),
    ("simpson", {6: 3.0}, None),  # the last row has no lag on the grid
    ("trapezoid", {6: 2.0, 5: 1.0}, None),
])
def test_singular_diagonal_names_the_first_column_and_its_lowest_row(tag, diag, where):
    grid = TimeGrid(0.0, 1.0, 7)
    F = TwoTimeMatrix(grid, np.zeros((7, 7)), "distribution")
    vals = np.zeros((7, 7))
    for u, x in diag.items():
        vals[u, u] = x
    f = TwoTimeMatrix(grid, vals, "density")
    if where is None:
        assert not solve_quadrature(f, F, SolverMethod(tag)).values.any()
        return
    with pytest.raises(ValueError, match=r"singular diagonal at " + where):
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


@pytest.mark.parametrize("tag", ("exact-discrete", *RULE_WEIGHTS))
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


def _relative_residual(f, F, H, rule):
    """||H - F - Q(f, H)|| / max H, with Q the forward quadrature product of ``density_convolve``."""
    Q = density_convolve(H, f, rule).values  # sum_j w_j(m) f(s, s+j) H(s+j, t)
    return np.abs(H.values - F.values - Q).max() / H.values.max()


@pytest.mark.parametrize("rule", RULE_WEIGHTS)
def test_quadrature_solve_residual_is_at_round_off_on_poisson(rule):
    # the sweep and the forward product read their weights from one helper, so a wrong entry in
    # the table moves both; the Simpson order test in test_convolve.py catches those
    F, f = poisson_law(1.0, 50.0, 0.1)  # n = 501
    H = solve_quadrature(f, F, SolverMethod(rule))
    assert _relative_residual(f, F, H, rule) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 40),
    h=st.sampled_from((1.0, 0.25, 0.1)),
    rule=st.sampled_from(tuple(RULE_WEIGHTS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_quadrature_solve_residual_is_at_round_off_on_defective_laws(n, h, rule, seed):
    rng = np.random.default_rng(seed)
    F = random_defective_df(rng, n, step_h=h)
    dens = rng.uniform(0.0, 2.0 / (n * h), (n, n))
    dens[np.diag_indices(n)] = rng.uniform(0.0, 0.4, n)  # w0 f(u, u) <= 0.4: no singular divisor
    f = TwoTimeMatrix(F.grid, dens, "density")
    H = solve_quadrature(f, F, SolverMethod(rule))
    assert _relative_residual(f, F, H, rule) <= 1e-12


def test_bernoulli_law_is_solved_exactly_by_every_route():
    # renewals at step k with probability p_k, independently: H(s, t) = sum_{k=s+1..t} p_k, and
    # N(t) - N(s) is Poisson-binomial
    p = np.random.default_rng(20261020).uniform(0.02, 0.9, 59)
    F = bernoulli_law(p)
    n = F.n_points
    assert n == 60
    H = np.zeros((n, n))
    for s in range(n - 1):
        H[s, s + 1 :] = np.cumsum(p[s:])
    assert np.abs(solve_discrete(F).values - H).max() <= 1e-12
    assert np.abs(solve_series(F, tol=1e-14).renewal.values - H).max() <= 1e-10
    for s, t in ((0, 59), (17, 42), (30, 31), (58, 59), (5, 5)):
        pmf = np.array([1.0])
        for pk in p[s:t]:
            pmf = np.convolve(pmf, [1.0 - pk, pk])
        got = counting_pmf(F, s, t, tol=1e-15)
        assert np.abs(got.probs - pmf[: len(got.probs)]).max() <= 1e-12
        assert pmf[len(got.probs) :].sum() <= got.truncation_mass + 1e-12
    est = estimate_renewal_function(F, 0, n - 1, n_paths=50_000, seed=424243)
    want = H[0, est.t_indices()]
    random = est.std_errs > 0
    assert np.all(est.means[~random] == want[~random])  # t = 0: no path renews
    z = statistics.NormalDist().inv_cdf(1 - 0.01 / (2 * random.sum()))  # Bonferroni at 1 %
    assert np.all(np.abs(est.means - want)[random] <= z * est.std_errs[random])


#: the least observed sup-norm order of each rule on the NHPP law; rect-right reads 0.90 at the
#: coarsest halving, and the odd spans' first trapezoid step caps Simpson's order at 3 (Linz 1985)
_NHPP_ORDERS = {"rect-right": 0.85, "rect-left": 0.85, "trapezoid": 1.9, "simpson": 2.8}


@pytest.mark.parametrize("rule", RULE_WEIGHTS)
def test_every_rule_refines_at_its_order_on_a_non_homogeneous_law(rule):
    # an age-dependent law with H in closed form, so a wrong weight in the table shows as a lost order,
    # with no second copy of the table: each Simpson mutant of an odd-span weight drops it to 1 or 2
    errs = []
    for h in (0.1, 0.05, 0.025, 0.0125):
        F, f, H = nhpp_law(h)
        errs.append(np.abs(solve_quadrature(f, F, SolverMethod(rule)).values - H.values).max())
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert orders.min() >= _NHPP_ORDERS[rule], orders


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
    assert pmf.probs @ np.arange(len(pmf.probs)) == 1.5


def test_counting_pmf_accepts_a_total_within_the_validation_slack():
    # F(0, 2) = 1 + 2^-52 is a valid distribution value, so p_0 = 1 - F(0, 2)
    # is float noise below zero and clamps like every other order
    F = _df(GRID3, [[0, 0.5, 1 + 2**-52], [0, 0, 1.0], [0, 0, 0]])
    pmf = counting_pmf(F, 0, 2)
    assert pmf.probs[0] == 0.0
    assert pmf.probs.tolist() == pytest.approx([0.0, 0.5, 0.5], abs=1e-15)
    assert solve_discrete(F).at(0, 2) == pytest.approx(1.5, abs=1e-15)


@pytest.mark.parametrize(
    "s, t, message",
    [
        (3, 2, "window (3, 2) outside the grid: need 0 <= start <= horizon < 8"),
        (-1, 5, "window (-1, 5) outside the grid: need 0 <= start <= horizon < 8"),
        (0, 8, "window (0, 8) outside the grid: need 0 <= start <= horizon < 8"),
        (0.0, 5, "window start must be an integer, got 0.0"),
        (0, 5.0, "window horizon must be an integer, got 5.0"),
    ],
    ids=["s-past-t", "negative-s", "t-at-n", "float-s", "float-t"],
)
def test_counting_pmf_checks_its_window_as_the_samplers_do(s, t, message):
    F = geometric_law(0.5, 7)  # n = 8
    with pytest.raises(ValueError) as by_pmf:
        counting_pmf(F, s, t)
    with pytest.raises(ValueError) as by_path:
        sample_path(F, s, t, np.random.default_rng(0))
    assert [str(by_pmf.value), str(by_path.value)] == [message, message]


def test_counting_pmf_type_rejects_a_negative_value_and_mass_off_one():
    with pytest.raises(ValueError) as exc:
        CountingPmf(0, 2, np.array([0.5, -0.25, 0.75]), 0.0)
    assert str(exc.value) == "negative pmf value at n = 1"
    with pytest.raises(ValueError) as exc:
        CountingPmf(0, 2, np.array([0.5, 0.25]), 0.0)
    assert str(exc.value) == "pmf mass 0.75 is not 1 within 1e-12"
    with pytest.raises(ValueError) as exc:
        CountingPmf(0, 2, np.array([0.5, 0.5]), 2.0**-30)  # off by 9.3e-10
    assert str(exc.value) == "pmf mass 1.0000000009313226 is not 1 within 1e-12"
    assert CountingPmf(0, 2, np.array([0.5, 0.5]), 2.0**-41).truncation_mass == 2.0**-41  # within 1e-12


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
                assert abs(pmf.probs @ np.arange(len(pmf.probs)) - H.at(s, t)) <= 1e-8


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
    solved = {tag: solve_quadrature(f, F, SolverMethod(tag)).values for tag in RULE_WEIGHTS}
    assert np.abs(solved["rect-right"] - H.values).max() <= 1e-12  # the exact solve at h = 1
