import math
import time
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewalkit.convolve import (
    _BLOCK,
    _triu_product,
    convolution_powers,
    density_convolve,
    increments_from_df,
    nfold_convolution,
    stieltjes_convolve,
)
from renewalkit.grids import TimeGrid, TwoTimeMatrix
from renewalkit.solver import (
    density_from_differences,
    homogeneous_lift,
    lift_duration_function,
    solve_discrete,
    solve_series,
)
from renewalkit.testing import geometric_law, poisson_law, random_defective_df


def _df(grid, rows):
    return TwoTimeMatrix(grid, np.array(rows, dtype=float), "distribution")


GRID3 = TimeGrid(0.0, 1.0, 3)
SINGLE_STEP = [[0, 0.5, 1.0], [0, 0, 1.0], [0, 0, 0]]


def test_increments_telescoping_difference():
    v = increments_from_df(_df(GRID3, SINGLE_STEP))
    assert v.values[0].tolist() == [0.0, 0.5, 0.5]
    assert v.values[1].tolist() == [0.0, 0.0, 1.0]


def test_increments_of_zero_df_are_zero():
    v = increments_from_df(_df(GRID3, np.zeros((3, 3))))
    assert not v.values.any()


def test_increments_of_geometric_rows():
    # F(s,t) = 1 - 0.7^(t-s) telescopes to v(s, s+k) = 0.3 * 0.7^(k-1)
    p = 0.3
    F = geometric_law(p, 8)
    v = increments_from_df(F)
    for k in range(1, 5):
        assert v.at(0, k) == pytest.approx(p * (1 - p) ** (k - 1), abs=1e-15)
        assert v.at(3, 3 + k) == pytest.approx(p * (1 - p) ** (k - 1), abs=1e-15)


def test_increment_row_sums_telescope_back_to_df():
    rng = np.random.default_rng(11)
    for _ in range(20):
        F = random_defective_df(rng, int(rng.integers(2, 15)))
        v = increments_from_df(F)
        sums = np.cumsum(v.values, axis=1)
        assert np.abs(sums - F.values).max() < 1e-14


def test_non_monotone_rows_are_rejected_with_location():
    decreasing = np.array([[0, 0.8, 0.5], [0, 0, 1.0], [0, 0, 0]])
    with pytest.raises(ValueError, match="row 0 decreases between t = 1 and t = 2"):
        _df(GRID3, decreasing)


@pytest.mark.parametrize("eps", [1e-13, 1e-10])
def test_float_dust_negatives_are_clamped(eps):
    # a drop within the validation slack (1e-9) is float noise, not a decrease
    wobbling = np.array([[0, 0.5, 0.5 - eps], [0, 0, 1.0], [0, 0, 0]])
    v = increments_from_df(_df(GRID3, wobbling))
    assert v.at(0, 2) == 0.0


def test_stieltjes_two_term_hand_expansion():
    # (F*F)(0,2) = F(1,2) v(0,1) + F(2,2) v(0,2) = 1*0.5 + 0*0.5
    F = _df(GRID3, SINGLE_STEP)
    FF = stieltjes_convolve(F, F)
    assert FF.at(0, 2) == pytest.approx(0.5, abs=1e-15)
    assert FF.at(0, 0) == 0.0 and FF.at(1, 1) == 0.0


def test_stieltjes_annihilates_zero_integrand():
    F = _df(GRID3, SINGLE_STEP)
    zero = TwoTimeMatrix(GRID3, np.zeros((3, 3)), "generic")
    assert not stieltjes_convolve(zero, F).values.any()


def test_stieltjes_unit_step_kernel_shifts():
    rng = np.random.default_rng(3)
    n = 8
    grid = TimeGrid(0.0, 1.0, n)
    F = homogeneous_lift(np.concatenate(([0.0], np.ones(n - 1))), grid)
    G = TwoTimeMatrix(grid, np.triu(rng.uniform(size=(n, n))), "generic")
    out = stieltjes_convolve(G, F)
    for s in range(n):
        for t in range(s + 1, n):
            assert out.at(s, t) == G.at(s + 1, t)
        assert out.at(s, s) == 0.0


def test_stieltjes_rejects_grid_mismatch():
    F = _df(GRID3, SINGLE_STEP)
    other = TwoTimeMatrix(TimeGrid(0.0, 2.0, 3), np.zeros((3, 3)), "generic")
    with pytest.raises(ValueError, match="grid mismatch"):
        stieltjes_convolve(other, F)


def test_density_convolve_of_constants_is_elapsed_time():
    n = 11
    grid = TimeGrid(0.0, 0.25, n)
    ones = TwoTimeMatrix(grid, np.triu(np.ones((n, n))), "density")
    out = density_convolve(ones, ones, "trapezoid")
    for s in range(n):
        for t in range(s, n):
            assert out.at(s, t) == (t - s) * 0.25


def test_density_convolve_rejects_rules_outside_its_stencil():
    f = TwoTimeMatrix(GRID3, np.ones((3, 3)), "density")
    with pytest.raises(ValueError, match="unknown quadrature rule"):
        density_convolve(f, f, "midpoint")


def test_density_convolve_matches_closed_forms_and_is_not_commutative():
    # f = exp(3s + 4t), g = exp(-4s + 2t) on [0, 1]:
    #   (f*g)(0,1) = int exp(2u) exp(3u + 4) du = e^4 (e^5 - 1) / 5
    #   (g*f)(0,1) = int exp(4u) exp(-4u + 2) du = e^2
    h = 0.001
    n = 1001
    grid = TimeGrid(0.0, h, n)
    t_grid = grid.times()
    s_col = t_grid[:, None]
    t_row = t_grid[None, :]
    f = TwoTimeMatrix(grid, np.triu(np.exp(3 * s_col + 4 * t_row)), "density")
    g = TwoTimeMatrix(grid, np.triu(np.exp(-4 * s_col + 2 * t_row)), "density")
    fg = density_convolve(f, g, "trapezoid").at(0, n - 1)
    gf = density_convolve(g, f, "trapezoid").at(0, n - 1)
    assert fg == pytest.approx(math.exp(4) * (math.exp(5) - 1) / 5, rel=1e-5)
    assert gf == pytest.approx(math.exp(2), rel=1e-12)
    assert abs(fg - gf) > 0.1


def _conv1d(phi, gamma, h, m, rule):
    """Independent one-variable quadrature of int_0^u gamma(x) phi(u - x) dx."""
    if m == 0:
        return 0.0
    if rule == "simpson":  # composite Simpson; an odd span takes one trapezoid step first
        w = [0.0] * (m + 1)
        start = m % 2
        if start:
            w[0] = w[1] = h / 2
        for a in range(start, m, 2):
            w[a] += h / 3
            w[a + 1] += 4 * h / 3
            w[a + 2] += h / 3
        return sum(w[x] * gamma[x] * phi[m - x] for x in range(m + 1))
    if rule == "rect-left":
        nodes = range(0, m)
    elif rule == "rect-right":
        nodes = range(1, m + 1)
    else:
        nodes = range(0, m + 1)
    total = 0.0
    for x in nodes:
        w = h
        if rule == "trapezoid" and x in (0, m):
            w = h / 2
        total += w * gamma[x] * phi[m - x]
    return total


@pytest.mark.parametrize("rule", ["rect-left", "rect-right", "trapezoid", "simpson"])
def test_homogeneous_inputs_reduce_to_one_variable_convolution(rule):
    n, h = 12, 0.3
    grid = TimeGrid(0.0, h, n)
    rng = np.random.default_rng(5)
    phi = rng.uniform(0.1, 2.0, size=n)
    gamma = rng.uniform(0.1, 2.0, size=n)
    f = lift_duration_function(phi, grid, "density")
    g = lift_duration_function(gamma, grid, "density")
    out = density_convolve(f, g, rule)
    for s in range(n):
        for t in range(s, n):
            assert out.at(s, t) == pytest.approx(_conv1d(phi, gamma, h, t - s, rule), abs=1e-12)


def test_simpson_density_convolution_refines_at_third_order():
    # Exponential(lam) and Exponential(mu) densities: int_s^t mu e^{-mu(tau-s)} lam e^{-lam(t-tau)} dtau
    # = lam mu (e^{-mu(t-s)} - e^{-lam(t-s)}) / (lam - mu), which is lam^2 (t-s) e^{-lam(t-s)} as mu -> lam;
    # at mu = lam the integrand is constant in tau and every rule is exact, so the rates differ.
    # The odd spans' first trapezoid step caps Simpson's order at 3 (Linz 1985); a wrong odd-span
    # weight in the table drops it to 1 or 2.
    lam, mu = 1.5, 0.5
    errs = []
    for h in (0.1, 0.05, 0.025, 0.0125):
        grid = TimeGrid(0.0, h, int(round(4.0 / h)) + 1)
        x = grid.times()
        f = lift_duration_function(lam * np.exp(-lam * x), grid, "density")
        g = lift_duration_function(mu * np.exp(-mu * x), grid, "density")
        exact = lift_duration_function(lam * mu * (np.exp(-mu * x) - np.exp(-lam * x)) / (lam - mu), grid)
        errs.append(np.abs(density_convolve(f, g, "simpson").values - exact.values).max())
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert orders.min() >= 2.8, orders


def test_measure_and_density_forms_agree_for_smooth_distributions():
    # when F has density f, summing G against increments of F approaches the
    # right-rectangle quadrature of f at first order in h
    lam = 1.5
    sups = []
    for h in (0.02, 0.01):
        F, f = poisson_law(lam, 2.0, h)
        G = homogeneous_lift(1.0 - np.exp(-0.7 * F.grid.times()), F.grid)
        measure_form = stieltjes_convolve(G, F)
        density_form = density_convolve(G, f, "rect-right")
        sups.append(np.abs(measure_form.values - density_form.values).max())
    assert sups[1] <= 2.0 * lam * 0.01  # gap vanishes linearly in h
    assert sups[0] / sups[1] >= 1.5


def test_nfold_base_case_returns_input():
    F = _df(GRID3, SINGLE_STEP)
    assert nfold_convolution(F, 1) is F
    with pytest.raises(ValueError):
        nfold_convolution(F, 0)


def test_nfold_of_deterministic_unit_steps_is_lag_indicator():
    n = 7
    grid = TimeGrid(0.0, 1.0, n)
    F = homogeneous_lift(np.concatenate(([0.0], np.ones(n - 1))), grid)
    for order in range(1, n):
        Fn = nfold_convolution(F, order)
        for s in range(n):
            for t in range(s, n):
                assert Fn.at(s, t) == (1.0 if t - s >= order else 0.0)


def test_nfold_geometric_against_brute_force_enumeration():
    p, T = 0.3, 10
    F = geometric_law(p, T)
    F2 = nfold_convolution(F, 2)
    for t in range(T + 1):
        brute = sum(
            p * (1 - p) ** (i - 1) * p * (1 - p) ** (j - 1)
            for i in range(1, T + 1)
            for j in range(1, T + 1)
            if i + j <= t
        )
        assert F2.at(0, t) == pytest.approx(brute, abs=1e-13)


def test_nfold_past_the_grid_costs_no_more_than_order_n_points():
    # F^(n) is exactly zero from n = n_points on, so a far order is that power, not 10**9 products
    F = random_defective_df(np.random.default_rng(29), 40)
    at_n = nfold_convolution(F, F.n_points)
    assert not at_n.values.any()
    t0 = time.perf_counter()
    far = nfold_convolution(F, 10**9)
    assert time.perf_counter() - t0 < 1.0
    assert np.array_equal(far.values, at_n.values)


def test_nfold_chain_is_monotone_in_order():
    rng = np.random.default_rng(17)
    for _ in range(10):
        F = random_defective_df(rng, 10)
        prev = nfold_convolution(F, 1)
        for order in range(2, 6):
            cur = nfold_convolution(F, order)
            assert np.all(cur.values <= prev.values + 1e-12)
            prev = cur


def test_stieltjes_associativity_on_random_distribution_triples():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(3, 13))
        A = random_defective_df(rng, n)
        B = random_defective_df(rng, n)
        C = random_defective_df(rng, n)
        left = stieltjes_convolve(stieltjes_convolve(A, B), C)
        right = stieltjes_convolve(A, stieltjes_convolve(B, C))
        assert np.allclose(left.values, right.values, rtol=1e-10, atol=1e-12)


def test_density_convolution_distributivity_and_bilinearity():
    rng = np.random.default_rng(29)
    n = 9
    grid = TimeGrid(0.0, 0.5, n)

    def rand():
        return TwoTimeMatrix(grid, np.triu(rng.normal(size=(n, n))), "generic")

    def add(a, b):
        return TwoTimeMatrix(grid, a.values + b.values, "generic")

    def scale(a, c):
        return TwoTimeMatrix(grid, c * a.values, "generic")

    for rule in ("rect-left", "rect-right", "trapezoid"):
        for _ in range(10):
            f, g, k = rand(), rand(), rand()
            left = density_convolve(f, add(g, k), rule)
            split = density_convolve(f, g, rule).values + density_convolve(f, k, rule).values
            assert np.abs(left.values - split).max() < 1e-12

            right = density_convolve(add(f, g), k, rule)
            split = density_convolve(f, k, rule).values + density_convolve(g, k, rule).values
            assert np.abs(right.values - split).max() < 1e-12

            a = float(rng.normal())
            scaled = scale(density_convolve(f, g, rule), a)
            assert np.abs(scaled.values - density_convolve(scale(f, a), g, rule).values).max() < 1e-12
            assert np.abs(scaled.values - density_convolve(f, scale(g, a), rule).values).max() < 1e-12


def _triangle(rng, n, diagonal, zero_rows):
    """Random upper triangle, strictly so without ``diagonal``, with up to ``zero_rows`` rows of zeros."""
    A = np.triu(rng.normal(size=(n, n)), k=0 if diagonal else 1)
    A[rng.integers(0, n, size=zero_rows)] = 0.0
    return A


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from((1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3, 3 * _BLOCK)),
    seed=st.integers(0, 2**32 - 1),
    diagonals=st.tuples(st.booleans(), st.booleans()),
    zero_rows=st.tuples(st.integers(0, 3), st.integers(0, 3)),
)
def test_triangular_product_matches_the_full_product(n, seed, diagonals, zero_rows):
    rng = np.random.default_rng(seed)
    A, B = (_triangle(rng, n, d, z) for d, z in zip(diagonals, zero_rows))
    got, want = _triu_product(A, B), A @ B
    assert not np.tril(got, -1).any()
    if n <= _BLOCK:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.all(np.abs(got - want) <= 1e-13 * (np.abs(A) @ np.abs(B)))
    column = B[:, -1].copy()  # the counting_pmf route: one plain product
    assert _triu_product(A, column).tobytes() == (A @ column).tobytes()
    if n > _BLOCK:
        # v is strictly upper triangular, so F^(n) vanishes exactly, blocked or not
        F = random_defective_df(rng, n)
        assert not next(islice(convolution_powers(F, F.values), n - 1, None)).any()


def test_library_cross_checks_hold_above_the_block_size():
    """The bench's series, n-fold and density checks on a grid that takes the blocked product."""
    F = random_defective_df(np.random.default_rng(71), 2 * _BLOCK + 7)
    assert np.abs(solve_series(F).renewal.values - solve_discrete(F).values).max() <= 1e-10
    power = F
    for _ in range(3):
        power = stieltjes_convolve(power, F)
    assert np.abs(nfold_convolution(F, 4).values - power.values).max() <= 1e-12
    f = density_from_differences(F)
    left, right, trap = (density_convolve(f, f, rule).values for rule in ("rect-left", "rect-right", "trapezoid"))
    assert np.abs(trap - 0.5 * (left + right)).max() <= 1e-12 * max(1.0, np.abs(trap).max())


@pytest.mark.parametrize("columns", [1, 3, 2 * _BLOCK + 9])
def test_convolution_powers_of_a_non_square_block_are_plain_products(columns):
    """An n x k X (k != n) may hold anything; above the block size it is still v^k X exactly."""
    n = 2 * _BLOCK + 7
    rng = np.random.default_rng(5)
    F = random_defective_df(rng, n)
    X = rng.normal(size=(n, columns))
    v = increments_from_df(F).values
    want = X
    for got in islice(convolution_powers(F, X), 4):
        assert got.shape == (n, columns)
        assert got.tobytes() == want.tobytes()
        want = v @ want
