"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see per-criterion
output.  The golden checks are the ``renewalkit.selftest`` check functions,
called here with larger inputs; the tolerances here and in those checks are
the release gates and must not be loosened.
"""

import csv
import hashlib
import time

import numpy as np

from renewalkit.cli import main as cli_main
from renewalkit.convolve import density_convolve, stieltjes_convolve
from renewalkit.grids import TimeGrid, TwoTimeMatrix, read_matrix_tsv
from renewalkit.selftest import (
    check_geometric,
    check_no_claim_probs,
    check_oracle_triangle,
    check_poisson,
    check_waiting_probs,
)
from renewalkit.simulate import sample_path
from renewalkit.solver import (
    SolverMethod,
    counting_pmf,
    density_from_differences,
    solve_discrete,
    solve_quadrature,
)
from renewalkit.testing import poisson_law, random_defective_df


def test_waiting_time_probability_columns():
    """Published waiting-time probabilities reproduced to 1e-6 in under 1 s."""
    t0 = time.perf_counter()
    check_waiting_probs()
    assert abs(153 / 8228 - 0.018595) < 1e-6
    assert abs(226 / 1578 - 0.143219) < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE PASS: waiting-time probability columns (1e-6, {elapsed:.3f}s)")


def test_no_claim_probability_columns():
    """Published no-claim probabilities reproduced to 1e-6 in under 1 s."""
    t0 = time.perf_counter()
    check_no_claim_probs()
    assert abs(237 / 279 - 0.849462) < 1e-6
    assert abs(1.0 - 46265 / 60384 - 0.23382) < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE PASS: no-claim probability columns (1e-6, {elapsed:.3f}s)")


def test_discrete_continuous_equivalence():
    """Right-rectangle solve at h=1 with differenced density == exact solve."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        F = random_defective_df(rng, int(rng.integers(2, 31)))
        H_disc = solve_discrete(F)
        H_quad = solve_quadrature(density_from_differences(F), F, SolverMethod("rect-right"))
        worst = max(worst, np.abs(H_disc.values - H_quad.values).max())
    assert worst <= 1e-12
    print(f"\nACCEPTANCE PASS: discrete-continuous equivalence (max diff {worst:.2e} <= 1e-12)")


def _oracle_cases():
    rng = np.random.default_rng(103)
    for _ in range(50):
        n = int(rng.integers(2, 16))
        F = random_defective_df(rng, n)
        yield F, int(rng.integers(2**62))


def test_oracle_triangle():
    """Back-substitution, series and Monte Carlo agree on 50 random inputs."""
    t0 = time.perf_counter()
    measured = check_oracle_triangle(_oracle_cases(), 100_000)
    elapsed = time.perf_counter() - t0
    assert measured["pair"] <= 1e-10
    assert measured["z"] <= 3.0
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE PASS: oracle triangle (|discrete-series| {measured['pair']:.2e} <= 1e-10, "
        f"max MC z {measured['z']:.2f} <= 3, {elapsed:.1f}s < 60s)"
    )


def test_poisson_renewal_function():
    """H(0,5) lands in [4.9, 5.1] for every rule; rect errors refine at order 1."""
    h = 0.01
    tops = check_poisson(h)
    assert all(4.9 <= top <= 5.1 for top in tops.values()), tops
    ratios = {}
    F2, f2 = poisson_law(1.0, 5.0, h / 2)
    for tag in ("rect-right", "rect-left"):
        H2 = solve_quadrature(f2, F2, SolverMethod(tag))
        err_half = abs(H2.at(0, H2.n_points - 1) - 5.0)
        # first-order rules: halving h halves the error up to an O(h)
        # correction; 1.8 is the accepted empirical-order margin
        ratios[tag] = abs(tops[tag] - 5.0) / err_half
        assert ratios[tag] >= 1.8, (tag, ratios[tag])
    print(
        "\nACCEPTANCE PASS: poisson golden (H(0,5) in [4.9, 5.1]; "
        + ", ".join(f"{t} refine x{r:.3f}" for t, r in ratios.items())
        + ")"
    )


def test_geometric_renewal_function():
    """Bernoulli-renewal model: H(0,t) = 0.25 t and N(8) ~ Binomial(8, 0.25)."""
    measured = check_geometric(0.25, 40, 8)
    assert measured["H"] <= 1e-12
    assert measured["pmf"] <= 1e-10
    print(
        f"\nACCEPTANCE PASS: geometric golden (|H - pt| {measured['H']:.2e} <= 1e-12, "
        f"pmf vs binomial {measured['pmf']:.2e} <= 1e-10)"
    )


def test_convolution_algebra():
    """Associativity at 1e-10 relative, distributivity/bilinearity at 1e-12,
    and the exponential pair witnessing non-commutativity by more than 0.1."""
    rng = np.random.default_rng(107)
    for _ in range(100):
        n = int(rng.integers(3, 13))
        A, B, C = (random_defective_df(rng, n) for _ in range(3))
        left = stieltjes_convolve(stieltjes_convolve(A, B), C)
        right = stieltjes_convolve(A, stieltjes_convolve(B, C))
        assert np.allclose(left.values, right.values, rtol=1e-10, atol=1e-12)

        grid = A.grid
        f, g, k = (
            TwoTimeMatrix(grid, np.triu(rng.normal(size=(n, n))), "generic") for _ in range(3)
        )
        fg_plus_fk = density_convolve(f, g, "trapezoid").values + density_convolve(f, k, "trapezoid").values
        both = density_convolve(f, TwoTimeMatrix(grid, g.values + k.values, "generic"), "trapezoid")
        assert np.abs(both.values - fg_plus_fk).max() <= 1e-12
        fk_plus_gk = density_convolve(f, k, "trapezoid").values + density_convolve(g, k, "trapezoid").values
        both = density_convolve(TwoTimeMatrix(grid, f.values + g.values, "generic"), k, "trapezoid")
        assert np.abs(both.values - fk_plus_gk).max() <= 1e-12
        a = float(rng.normal())
        scaled = a * density_convolve(f, g, "trapezoid").values
        af = TwoTimeMatrix(grid, a * f.values, "generic")
        ag = TwoTimeMatrix(grid, a * g.values, "generic")
        assert np.abs(scaled - density_convolve(af, g, "trapezoid").values).max() <= 1e-12
        assert np.abs(scaled - density_convolve(f, ag, "trapezoid").values).max() <= 1e-12

    h, n = 0.001, 1001
    grid = TimeGrid(0.0, h, n)
    t = grid.times()
    f = TwoTimeMatrix(grid, np.triu(np.exp(3 * t[:, None] + 4 * t[None, :])), "density")
    g = TwoTimeMatrix(grid, np.triu(np.exp(-4 * t[:, None] + 2 * t[None, :])), "density")
    gap = abs(
        density_convolve(f, g, "trapezoid").at(0, n - 1)
        - density_convolve(g, f, "trapezoid").at(0, n - 1)
    )
    assert gap > 0.1
    print(f"\nACCEPTANCE PASS: convolution algebra (100 triples; non-commutative gap {gap:.1f} > 0.1)")


def test_counting_mean_identity():
    """The pmf mean reproduces the renewal function at every tested cell."""
    rng = np.random.default_rng(109)
    worst = 0.0
    cells = 0
    for _ in range(10):
        n = int(rng.integers(3, 13))
        F = random_defective_df(rng, n)
        H = solve_discrete(F)
        for s in range(n):
            for t in range(s, n):
                pmf = counting_pmf(F, s, t, tol=1e-10)
                worst = max(worst, abs(pmf.probs @ np.arange(len(pmf.probs)) - H.at(s, t)))
                cells += 1
    assert worst <= 1e-8
    print(f"\nACCEPTANCE PASS: counting-mean identity ({cells} cells, max diff {worst:.2e} <= 1e-8)")


def _generating_df(n=43):
    """Known non-homogeneous truth: age-dependent truncated geometric rows."""
    grid = TimeGrid(18.0, 1.0, n)
    values = np.zeros((n, n))
    for s in range(n - 1):
        p = 0.10 + 0.15 * np.exp(-s / 15.0)
        k = np.arange(1, n - s)
        inc = p * (1 - p) ** (k - 1)
        inc /= inc.sum()
        values[s, s + 1 :] = np.cumsum(inc)
    return TwoTimeMatrix(grid, values, "distribution")


def _write_synthetic_corpus(F, n_policies, seed, tmp_path):
    rng = np.random.default_rng(seed)
    n = F.n_points
    entry_ages = 18 + np.minimum(rng.geometric(0.12, size=n_policies) - 1, 27)
    policies, claims = [], []
    for i in range(n_policies):
        pid = f"P{i:06d}"
        age = int(entry_ages[i])
        missing = age == 24 and i % 7 == 0  # unknown entries really entered at 24
        policies.append((pid, "" if missing else age))
        for idx in sample_path(F, age - 18, n - 1, rng):
            claims.append((pid, idx + 18))
        if i % 211 == 0:  # dirt the cleaner must reject
            claims.append((pid, age - 3))
    p_path, c_path = tmp_path / "policies.csv", tmp_path / "claims.csv"
    for path, header, rows in (
        (p_path, ("policy_id", "entry_age"), policies),
        (c_path, ("policy_id", "claim_age"), claims),
    ):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
    return p_path, c_path


def test_synthetic_corpus_bytes_are_pinned(tmp_path):
    """A seeded corpus is the same bytes from release to release: each policy's
    claims are one ``sample_path`` draw, so this pins its paths and its one
    uniform per step."""
    p_path, c_path = _write_synthetic_corpus(_generating_df(), 2_000, 424242, tmp_path)
    assert hashlib.sha256(p_path.read_bytes()).hexdigest() == (
        "37ec52be00734d4b3fba28240532d72cfb0f0c3e6d2d838e2b1ac2cb9ec30251"
    )
    assert hashlib.sha256(c_path.read_bytes()).hexdigest() == (
        "8a63d907170ed9915853579d9830bc0ee44a2f26991d1363fd217bb61adb1d9d"
    )
    print("\nACCEPTANCE PASS: seeded synthetic corpus (2000 policies) is byte-identical")


def test_synthetic_pipeline_recovers_the_renewal_function(tmp_path):
    """Full pipeline on a 1e5-policy synthetic corpus recovers H within 3%
    sup-norm, and the emitted age table has the required structure."""
    F_true = _generating_df()
    H_true = solve_discrete(F_true)
    p_path, c_path = _write_synthetic_corpus(F_true, 100_000, 424242, tmp_path)

    out = tmp_path / "out"
    assert cli_main(
        ["build-df", "--policies", str(p_path), "--claims", str(c_path), "--out-dir", str(out)]
    ) == 0
    h_path = tmp_path / "H.tsv"
    assert cli_main(
        ["solve", "--df", str(out / "waiting_df_by_age.tsv"), "--method", "exact",
         "--out", str(h_path), "--report", str(tmp_path / "mean_claims_by_age.tsv")]
    ) == 0

    H_hat = read_matrix_tsv(h_path)
    sup_diff = np.abs(H_hat.values - H_true.values).max()
    sup_truth = np.abs(H_true.values).max()
    assert sup_diff <= 0.03 * sup_truth

    lines = (tmp_path / "mean_claims_by_age.tsv").read_text().splitlines()
    table = np.array([[float(x) for x in line.split("\t")[1:]] for line in lines[1:]])
    n = table.shape[0]
    for i in range(n):
        assert table[i, i] == 0.0  # zero diagonal
        for t in range(i):
            assert table[t, i] == 0.0  # padding above the diagonal
    for s in range(n):
        col = table[s:, s]
        assert np.all(np.diff(col) >= 0.0)  # nondecreasing down each column
    print(
        f"\nACCEPTANCE PASS: synthetic pipeline (sup-norm error "
        f"{sup_diff / sup_truth:.2%} <= 3%; age table structure holds)"
    )
