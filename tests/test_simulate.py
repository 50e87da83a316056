import tracemalloc

import numpy as np
import pytest
from scipy import stats

from renewalkit import simulate
from renewalkit.grids import TimeGrid, TwoTimeMatrix
from renewalkit.simulate import SimConfig, estimate_renewal_function, sample_path
from renewalkit.solver import counting_pmf, homogeneous_lift, solve_discrete
from renewalkit.testing import geometric_law, random_defective_df


def _reference_estimate(F, cfg):
    """The earlier estimator: one (paths, span) draw block and count matrix.

    Kept as the oracle for the streaming estimator; returns (means,
    std_errs, terminal_pmf).
    """
    start, horizon = cfg.start_idx, cfg.horizon_idx
    span = horizon - start + 1
    vals = F.values
    totals = vals[:, -1]
    rng = np.random.default_rng(cfg.seed)
    draws = 1.0 - rng.random((cfg.n_paths, span))
    counts = np.zeros((cfg.n_paths, span), dtype=np.int32)
    cur = np.full(cfg.n_paths, start, dtype=np.int64)
    active = np.arange(cfg.n_paths)
    for step in range(span):
        if len(active) == 0:
            break
        u = draws[active, step]
        c = cur[active]
        nxt = np.zeros(len(active), dtype=np.int64)
        alive = u <= totals[c]
        for cv in np.unique(c[alive]):
            m = alive & (c == cv)
            nxt[m] = np.searchsorted(vals[cv], u[m], side="left")
        ok = alive & (nxt <= horizon)
        counts[active[ok], nxt[ok] - start] += 1
        cur[active[ok]] = nxt[ok]
        active = active[ok]
    totals_per_t = np.cumsum(counts, axis=1)
    means = totals_per_t.mean(axis=0)
    if cfg.n_paths > 1:
        std_errs = totals_per_t.std(axis=0, ddof=1) / np.sqrt(cfg.n_paths)
    else:
        std_errs = np.zeros(span)
    return means, std_errs, np.bincount(totals_per_t[:, -1]) / cfg.n_paths


def _outputs(est):
    return est.means, est.std_errs, est.terminal_pmf


def _unit_step(n):
    grid = TimeGrid(0.0, 1.0, n)
    return homogeneous_lift(np.concatenate(([0.0], np.ones(n - 1))), grid)


def test_samplers_reject_a_matrix_that_is_not_a_distribution():
    H = solve_discrete(geometric_law(0.5, 5))  # kind "renewal", values up to 2.5
    with pytest.raises(ValueError, match="expected a distribution matrix, got kind 'renewal'"):
        sample_path(H, 0, 5, np.random.default_rng(0))
    with pytest.raises(ValueError, match="expected a distribution matrix, got kind 'renewal'"):
        estimate_renewal_function(H, SimConfig(100, 1, 0, 5))


def test_unit_step_paths_are_deterministic():
    F = _unit_step(8)
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert sample_path(F, 0, 5, rng) == [1, 2, 3, 4, 5]
    assert sample_path(F, 2, 4, rng) == [3, 4]


def test_zero_df_gives_empty_paths():
    grid = TimeGrid(0.0, 1.0, 6)
    F = TwoTimeMatrix(grid, np.zeros((6, 6)), "distribution")
    rng = np.random.default_rng(1)
    for _ in range(5):
        assert sample_path(F, 0, 5, rng) == []


def test_paths_are_strictly_increasing_and_in_window():
    rng = np.random.default_rng(61)
    for _ in range(50):
        F = random_defective_df(rng, 12)
        start = int(rng.integers(0, 6))
        path = sample_path(F, start, 11, rng)
        assert all(a < b for a, b in zip(path, path[1:]))
        assert all(start < idx <= 11 for idx in path)


def test_inter_arrival_times_fit_the_geometric_law():
    # pool gaps from full paths; stop recording when grid truncation could bite
    p, n = 0.25, 200
    F = geometric_law(p, n - 1)
    rng = np.random.default_rng(67)
    gaps = []
    while len(gaps) < 100_000:
        path = sample_path(F, 0, n - 1, rng)
        prev = 0
        for idx in path:
            if prev <= 150:
                gaps.append(idx - prev)
            prev = idx
    gaps = np.array(gaps[:100_000])
    k_max = 15
    observed = np.array([(gaps == k).sum() for k in range(1, k_max + 1)] + [(gaps > k_max).sum()])
    probs = np.array([p * (1 - p) ** (k - 1) for k in range(1, k_max + 1)] + [(1 - p) ** k_max])
    expected = probs * len(gaps)
    result = stats.chisquare(observed, expected)
    assert result.pvalue > 0.01


def test_estimator_is_reproducible_bitwise():
    rng = np.random.default_rng(71)
    F = random_defective_df(rng, 10)
    cfg = SimConfig(n_paths=5_000, seed=99, start_idx=0, horizon_idx=9)
    a = estimate_renewal_function(F, cfg)
    b = estimate_renewal_function(F, cfg)
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.std_errs, b.std_errs)
    assert np.array_equal(a.terminal_pmf, b.terminal_pmf)
    c = estimate_renewal_function(F, SimConfig(5_000, 100, 0, 9))
    assert not np.array_equal(a.means, c.means)


def test_estimator_on_deterministic_unit_steps_has_zero_variance():
    F = _unit_step(8)
    est = estimate_renewal_function(F, SimConfig(1_000, 5, 0, 7))
    assert est.means.tolist() == [0, 1, 2, 3, 4, 5, 6, 7]
    assert not est.std_errs.any()
    assert est.terminal_pmf.tolist() == [0, 0, 0, 0, 0, 0, 0, 1.0]


def test_estimator_matches_binomial_mean():
    p, T = 0.25, 40
    est = estimate_renewal_function(geometric_law(p, T), SimConfig(100_000, 123, 0, T))
    j = T  # t = 40, true mean p t = 10
    assert abs(est.means[j] - 10.0) <= 3.0 * est.std_errs[j]


def test_estimator_matches_discrete_solver_everywhere():
    rng = np.random.default_rng(73)
    for _ in range(3):
        F = random_defective_df(rng, 16)
        H = solve_discrete(F)
        est = estimate_renewal_function(F, SimConfig(50_000, int(rng.integers(2**62)), 0, 15))
        for j, t in enumerate(est.t_indices()):
            diff = abs(est.means[j] - H.at(0, int(t)))
            if est.std_errs[j] == 0.0:
                assert diff == 0.0
            else:
                assert diff <= 3.0 * est.std_errs[j]


def test_terminal_pmf_matches_counting_pmf():
    rng = np.random.default_rng(79)
    F = random_defective_df(rng, 13)
    n_paths = 100_000
    est = estimate_renewal_function(F, SimConfig(n_paths, 6, 0, 12))
    pmf = counting_pmf(F, 0, 12, tol=1e-12)
    width = max(len(est.terminal_pmf), len(pmf.probs))
    for k in range(width):
        p_true = pmf.probs[k] if k < len(pmf.probs) else 0.0
        p_hat = est.terminal_pmf[k] if k < len(est.terminal_pmf) else 0.0
        se = np.sqrt(p_true * (1.0 - p_true) / n_paths)
        if se == 0.0:
            assert p_hat == pytest.approx(p_true, abs=1e-12)
        else:
            assert abs(p_hat - p_true) <= 3.0 * se


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(0, 1, 0, 5)
    with pytest.raises(ValueError):
        SimConfig(10, 1, 6, 5)
    with pytest.raises(ValueError):
        SimConfig(10, 1, -1, 5)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        SimConfig(10, -1, 0, 5)
    F = _unit_step(4)
    with pytest.raises(ValueError, match="outside the grid"):
        estimate_renewal_function(F, SimConfig(10, 1, 0, 7))
    with pytest.raises(ValueError):
        sample_path(F, 0, 9, np.random.default_rng(0))


def _assert_matches_reference(F, cfg):
    means, std_errs, pmf = _reference_estimate(F, cfg)
    est = estimate_renewal_function(F, cfg)
    assert np.array_equal(est.means, means)
    assert np.array_equal(est.terminal_pmf, pmf)
    # the reference's two-pass float variance differs from the exact one in the last digits
    assert np.array_equal(est.std_errs == 0.0, std_errs == 0.0)
    assert np.allclose(est.std_errs, std_errs, rtol=1e-11, atol=0.0)


def test_estimator_matches_the_full_matrix_reference():
    rng = np.random.default_rng(83)
    for _ in range(12):
        n = int(rng.integers(2, 40))
        F = random_defective_df(rng, n)
        start = int(rng.integers(1, n))
        horizon = int(rng.integers(start, n))
        paths = int(rng.choice([1, 2, 3, 500, 4_000]))
        _assert_matches_reference(F, SimConfig(paths, int(rng.integers(2**62)), start, horizon))


def test_estimator_matches_the_reference_on_zero_variance_cells():
    # one certain renewal per step up to age 6, then a defective law: the
    # first cells are deterministic, the later ones random
    n = 12
    values = np.zeros((n, n))
    for s in range(n - 1):
        if s < 6:
            values[s, s + 1 :] = 1.0
        else:
            values[s, s + 1 :] = np.linspace(0.2, 0.6, n - 1 - s)
    F = TwoTimeMatrix(TimeGrid(0.0, 1.0, n), values, "distribution")
    for start in (0, 3):
        _assert_matches_reference(F, SimConfig(3_000, 17, start, n - 1))
    est = estimate_renewal_function(F, SimConfig(3_000, 17, 0, n - 1))
    assert not est.std_errs[:7].any() and est.std_errs[7:].all()


def test_estimator_is_invariant_to_the_chunk_size(monkeypatch):
    rng = np.random.default_rng(89)
    F = random_defective_df(rng, 30)
    cfg = SimConfig(2_000, 5, 2, 27)
    span = cfg.horizon_idx - cfg.start_idx + 1
    default = _outputs(estimate_renewal_function(F, cfg))
    for paths_per_chunk in (1, 7):
        monkeypatch.setattr(simulate, "_CHUNK_DRAWS", paths_per_chunk * span)
        for got, want in zip(_outputs(estimate_renewal_function(F, cfg)), default):
            assert np.array_equal(got, want)


def test_estimator_memory_is_bounded_by_the_chunk(monkeypatch):
    rng = np.random.default_rng(97)
    F = random_defective_df(rng, 30)
    monkeypatch.setattr(simulate, "_CHUNK_DRAWS", 30 * 256)

    def peak(n_paths):
        tracemalloc.start()
        try:
            estimate_renewal_function(F, SimConfig(n_paths, 3, 0, 29))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(40_000) <= 2 * peak(4_000)
