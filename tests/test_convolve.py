import math

import numpy as np
import pytest

from renewalkit.convolve import (
    density_convolve,
    increments_from_df,
    nfold_convolution,
    stieltjes_convolve,
)
from renewalkit.grids import TimeGrid, TwoTimeMatrix
from renewalkit.solver import homogeneous_lift, lift_duration_function
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
    for rule in ("midpoint", "simpson"):
        with pytest.raises(ValueError, match="unknown quadrature rule"):
            density_convolve(f, f, rule)


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


@pytest.mark.parametrize("rule", ["rect-left", "rect-right", "trapezoid"])
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
