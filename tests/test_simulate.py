import tracemalloc

import numpy as np
import pytest
from scipy import stats

from renewalkit import simulate
from renewalkit.grids import TimeGrid, TwoTimeMatrix
from renewalkit.simulate import estimate_renewal_function, sample_path
from renewalkit.solver import counting_pmf, homogeneous_lift, solve_discrete
from renewalkit.testing import geometric_law, random_defective_df


def _reference_estimate(F, start, horizon, *, n_paths, seed):
    """One (paths, span) draw block and count matrix, stepping by the literal rule.

    A linear scan finds the first t with M(s, t) >= u, where M is the running
    maximum of each row of F.  Kept as the oracle for the streaming
    estimator; returns (means, std_errs, terminal_pmf).
    """
    span = horizon - start + 1
    M = np.maximum.accumulate(F.values, axis=1)
    rng = np.random.default_rng(seed)
    # drawn into a block, as the estimator draws, so that a ``_Draws`` stub can stand in
    draws = 1.0 - rng.random(out=np.empty((n_paths, span)))
    counts = np.zeros((n_paths, span), dtype=np.int32)
    cur = np.full(n_paths, start, dtype=np.int64)
    active = np.arange(n_paths)
    for step in range(span):
        if len(active) == 0:
            break
        at_or_above = M[cur[active]] >= draws[active, step][:, None]
        alive = at_or_above.any(axis=1)
        nxt = at_or_above.argmax(axis=1)  # the first True of each row
        ok = alive & (nxt <= horizon)
        counts[active[ok], nxt[ok] - start] += 1
        cur[active[ok]] = nxt[ok]
        active = active[ok]
    totals_per_t = np.cumsum(counts, axis=1)
    means = totals_per_t.mean(axis=0)
    if n_paths > 1:
        std_errs = totals_per_t.std(axis=0, ddof=1) / np.sqrt(n_paths)
    else:
        std_errs = np.zeros(span)
    return means, std_errs, np.bincount(totals_per_t[:, -1]) / n_paths


def _reference_sample_path(F, start_idx, horizon_idx, rng):
    """The stepping rule read literally: a linear scan for the first t with M(s, t) >= u.

    M is the running maximum of each row of F.  Kept as the oracle for
    ``sample_path``, which bisects row tuples instead.
    """
    M = np.maximum.accumulate(F.values, axis=1).tolist()
    path, cur = [], start_idx
    while True:
        u = 1.0 - rng.random()
        nxt = next((t for t, m in enumerate(M[cur]) if m >= u), F.n_points)
        if nxt > horizon_idx:
            return path
        path.append(nxt)
        cur = nxt


class _Draws:
    """Stands in for a generator: ``random()`` returns the given numbers in order.

    ``random(out=block)`` fills the block with the next ones, row by row.
    ``bit_generator.state`` is the count of numbers taken; setting it seeks.
    """

    def __init__(self, values):
        self.values = list(values)
        self.taken = 0

    @property
    def bit_generator(self):
        return self

    @property
    def state(self):
        return self.taken

    @state.setter
    def state(self, taken):
        self.taken = taken

    def random(self, out=None):
        if out is None:
            self.taken += 1
            return self.values[self.taken - 1]
        out.flat = self.values[self.taken : self.taken + out.size]
        self.taken += out.size
        return out


def _dipped(F, rng):
    """F with a few cells per row set just below their left neighbour, inside the validation slack."""
    values = F.values.copy()
    n = F.n_points
    for s in range(n - 2):
        for t in rng.integers(s + 2, n, size=3):
            values[s, t] = values[s, t - 1] - rng.uniform(1e-10, 9e-10)
    return TwoTimeMatrix(F.grid, values, "distribution")


def _outputs(est):
    return est.means, est.std_errs, est.terminal_pmf


def _path_counts(F, start, horizon, block):
    """(means, terminal_pmf) counted from ``sample_path`` run on each row of uniforms in ``block``."""
    hits, counts = np.zeros(horizon - start + 1, dtype=np.int64), []
    for row in block:
        path = sample_path(F, start, horizon, _Draws(row))
        hits[np.array(path, dtype=np.int64) - start] += 1
        counts.append(len(path))
    return np.cumsum(hits) / len(block), np.bincount(counts) / len(block)


def _edge_df(rng, n):
    """A law whose cells sit on the estimator's bucket edges j / K, or right beside them.

    K is the guide table's for n points.  Each row takes its cells from
    the edges, the doubles either side of them and the draws 2**-53 either
    side of them.  About half the rows are capped at a random edge, which
    leaves most of those defective, and about half dip by 5e-10, within the
    slack, right after a cell on an edge.
    """
    K = simulate._guide_table(np.zeros((n, n)))[0]
    edges = np.arange(1, K + 1) / K
    beside = [np.nextafter(edges, 0.0), np.nextafter(edges, 2.0), edges - 2.0**-53, edges + 2.0**-53]
    pool = np.concatenate([edges, *beside])
    values = np.zeros((n, n))
    for s in range(n - 1):
        row = np.sort(rng.choice(pool, size=n - 1 - s))
        if rng.random() < 0.5:
            row = np.minimum(row, rng.choice(edges))
        on_edge = np.flatnonzero(np.isin(row[:-1], edges))
        if len(on_edge) and rng.random() < 0.5:
            t = rng.choice(on_edge)
            row[t + 1] = row[t] - 5e-10
        values[s, s + 1 :] = row
    return TwoTimeMatrix(TimeGrid(0.0, 1.0, n), values, "distribution"), edges


def _draws_beside(values):
    """The draws u at each value, one double either side, one 2**-53 step either side, and 1.0.

    A draw is u = 1 - r for the generator's r in [0, 1), so only the u with
    1 - (1 - u) = u are kept: below 1/2 the draws are multiples of 2**-53,
    and there the nearest draws beside a value are 2**-53 away.
    """
    v = np.unique(values)
    u = np.concatenate([v, np.nextafter(v, 0.0), np.nextafter(v, 2.0), v - 2.0**-53, v + 2.0**-53, [1.0]])
    u = u[(u > 0.0) & (u <= 1.0)]
    return np.unique(u[1.0 - (1.0 - u) == u])


def _assert_steps_like_both_references(F, us, windows, rng, monkeypatch):
    """Every draw in ``us`` starts a path from each window's start; later steps draw from ``us`` at random."""
    for start, horizon in windows:
        span = horizon - start + 1
        block = 1.0 - rng.choice(us, size=(len(us), span))
        block[:, 0] = 1.0 - us
        monkeypatch.setattr(np.random, "default_rng", lambda seed: _Draws(block.ravel()))
        est = _assert_matches_reference(F, start, horizon, n_paths=len(us), seed=0)
        means, pmf = _path_counts(F, start, horizon, block)
        assert np.array_equal(est.means, means)
        assert np.array_equal(est.terminal_pmf, pmf)


def _unit_step(n):
    grid = TimeGrid(0.0, 1.0, n)
    return homogeneous_lift(np.concatenate(([0.0], np.ones(n - 1))), grid)


def test_samplers_reject_a_matrix_that_is_not_a_distribution():
    H = solve_discrete(geometric_law(0.5, 5))  # kind "renewal", values up to 2.5
    with pytest.raises(ValueError, match="expected a distribution matrix, got kind 'renewal'"):
        sample_path(H, 0, 5, np.random.default_rng(0))
    with pytest.raises(ValueError, match="expected a distribution matrix, got kind 'renewal'"):
        estimate_renewal_function(H, 0, 5, n_paths=100, seed=1)


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


def test_sample_path_matches_the_searchsorted_reference():
    rng = np.random.default_rng(101)
    for case in range(12):
        n = int(rng.integers(2, 40))
        F = random_defective_df(rng, n)
        if case % 2:
            F = _dipped(F, rng)
        seed = int(rng.integers(2**62))
        mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(40):
            start = int(rng.integers(0, n))
            horizon = int(rng.integers(start, n))
            assert sample_path(F, start, horizon, mine) == _reference_sample_path(F, start, horizon, ref)
            # the same state after every call: one draw per step, no more
            assert mine.bit_generator.state == ref.bit_generator.state


def test_sample_path_steps_to_the_first_cell_at_or_above_the_draw():
    # dyadic rows, so each u below is exact: ties, a plateau, full and defective rows
    values = [
        [0, 0.25, 0.5, 0.5, 0.75, 0.75],  # defective: total 0.75
        [0, 0, 0.5, 1, 1, 1],
        [0, 0, 0, 0.25, 0.5, 1],
        [0, 0, 0, 0, 1, 1],
        [0, 0, 0, 0, 0, 0.5],  # defective: total 0.5
        [0, 0, 0, 0, 0, 0],
    ]
    F = TwoTimeMatrix(TimeGrid(0.0, 1.0, 6), np.array(values, dtype=float), "distribution")
    cases = [  # (u drawn at each step, path, draws taken)
        ([0.5, 1.0, 1.0], [2, 5], 3),  # a tie goes to the first of the plateau
        ([1.0], [], 1),  # u = 1.0 is past the defective total
        ([0.75, 0.5, 0.5], [4, 5], 3),
        ([0.25, 1.0, 0.25, 0.75], [1, 3, 4], 4),  # 0.75 is past row 4's total
    ]
    for us, want, taken in cases:
        for sampler in (sample_path, _reference_sample_path):
            draws = _Draws(1.0 - u for u in us)
            assert sampler(F, 0, 5, draws) == want
            assert draws.taken == taken


def test_sample_path_matches_the_reference_on_draws_at_and_beside_every_cell():
    # u equal to each cell, one ulp either side of it, 1.0, and past each row total,
    # on rows that dip within the slack
    rng = np.random.default_rng(107)
    for _ in range(6):
        n = int(rng.integers(2, 16))
        F = _dipped(random_defective_df(rng, n), rng)
        targets = {1.0}
        for v in F.values[np.triu_indices(n, k=1)]:
            targets |= {v, np.nextafter(v, 0.0), np.nextafter(v, 2.0)}
        us = [u for u in targets if 0.0 < u <= 1.0]
        rng.shuffle(us)
        mine, ref = _Draws(1.0 - u for u in us), _Draws(1.0 - u for u in us)
        while len(us) - mine.taken > n:
            start = int(rng.integers(0, n))
            horizon = int(rng.integers(start, n))
            assert sample_path(F, start, horizon, mine) == _reference_sample_path(F, start, horizon, ref)
            assert mine.taken == ref.taken


def test_estimator_counts_the_paths_that_sample_path_draws_from_its_uniforms():
    # path i of the estimator steps with row i of the seed's (n_paths, span) block
    rng = np.random.default_rng(109)
    for _ in range(6):
        n = int(rng.integers(2, 30))
        F = random_defective_df(rng, n)
        start = int(rng.integers(0, n))
        horizon = int(rng.integers(start, n))
        seed = int(rng.integers(2**62))
        block = np.random.default_rng(seed).random((300, horizon - start + 1))
        means, pmf = _path_counts(F, start, horizon, block)
        est = estimate_renewal_function(F, start, horizon, n_paths=300, seed=seed)
        assert np.array_equal(est.means, means)
        assert np.array_equal(est.terminal_pmf, pmf)


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
    a = estimate_renewal_function(F, 0, 9, n_paths=5_000, seed=99)
    b = estimate_renewal_function(F, 0, 9, n_paths=5_000, seed=99)
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.std_errs, b.std_errs)
    assert np.array_equal(a.terminal_pmf, b.terminal_pmf)
    c = estimate_renewal_function(F, 0, 9, n_paths=5_000, seed=100)
    assert not np.array_equal(a.means, c.means)


def test_estimator_on_deterministic_unit_steps_has_zero_variance():
    F = _unit_step(8)
    est = estimate_renewal_function(F, 0, 7, n_paths=1_000, seed=5)
    assert est.means.tolist() == [0, 1, 2, 3, 4, 5, 6, 7]
    assert not est.std_errs.any()
    assert est.terminal_pmf.tolist() == [0, 0, 0, 0, 0, 0, 0, 1.0]


def test_estimator_matches_binomial_mean():
    p, T = 0.25, 40
    est = estimate_renewal_function(geometric_law(p, T), 0, T, n_paths=100_000, seed=123)
    j = T  # t = 40, true mean p t = 10
    assert abs(est.means[j] - 10.0) <= 3.0 * est.std_errs[j]


def test_estimator_matches_discrete_solver_everywhere():
    rng = np.random.default_rng(73)
    for _ in range(3):
        F = random_defective_df(rng, 16)
        H = solve_discrete(F)
        est = estimate_renewal_function(F, 0, 15, n_paths=50_000, seed=int(rng.integers(2**62)))
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
    est = estimate_renewal_function(F, 0, 12, n_paths=n_paths, seed=6)
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
    F = _unit_step(6)
    with pytest.raises(ValueError, match=r"^n_paths must be >= 1, got 0$"):
        estimate_renewal_function(F, 0, 5, n_paths=0, seed=1)
    with pytest.raises(ValueError, match=r"^window \(6, 5\) outside the grid: need 0 <= start <= horizon < 6$"):
        estimate_renewal_function(F, 6, 5, n_paths=10, seed=1)
    with pytest.raises(ValueError, match=r"^window \(-1, 5\) outside the grid: need 0 <= start <= horizon < 6$"):
        estimate_renewal_function(F, -1, 5, n_paths=10, seed=1)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        estimate_renewal_function(F, 0, 5, n_paths=10, seed=-1)
    F = _unit_step(4)
    with pytest.raises(ValueError, match="outside the grid"):
        estimate_renewal_function(F, 0, 7, n_paths=10, seed=1)
    with pytest.raises(ValueError):
        sample_path(F, 0, 9, np.random.default_rng(0))


@pytest.mark.parametrize(
    "kind, start, horizon, message",
    [
        ("distribution", 3, 2, "window (3, 2) outside the grid: need 0 <= start <= horizon < 8"),
        ("distribution", -1, 5, "window (-1, 5) outside the grid: need 0 <= start <= horizon < 8"),
        ("distribution", 0, 8, "window (0, 8) outside the grid: need 0 <= start <= horizon < 8"),
        ("distribution", 2, 9, "window (2, 9) outside the grid: need 0 <= start <= horizon < 8"),
        ("renewal", 3, 2, "expected a distribution matrix, got kind 'renewal'"),
    ],
    ids=["start-past-horizon", "negative-start", "horizon-at-n", "horizon-past-n", "renewal-bad-window"],
)
def test_both_samplers_check_the_window_and_kind_alike(kind, start, horizon, message):
    # one check for both: the same fault gives the same message, and the kind is checked first
    F = geometric_law(0.5, 7)  # n = 8
    M = F if kind == "distribution" else solve_discrete(F)
    with pytest.raises(ValueError) as by_path:
        sample_path(M, start, horizon, np.random.default_rng(0))
    with pytest.raises(ValueError) as by_estimate:
        estimate_renewal_function(M, start, horizon, n_paths=10, seed=1)
    assert [str(by_path.value), str(by_estimate.value)] == [message, message]


def _assert_matches_reference(F, start, horizon, **settings):
    means, std_errs, pmf = _reference_estimate(F, start, horizon, **settings)
    est = estimate_renewal_function(F, start, horizon, **settings)
    assert np.array_equal(est.means, means)
    assert np.array_equal(est.terminal_pmf, pmf)
    # the reference's two-pass float variance differs from the exact one in the last digits
    assert np.array_equal(est.std_errs == 0.0, std_errs == 0.0)
    assert np.allclose(est.std_errs, std_errs, rtol=1e-11, atol=0.0)
    return est


def test_estimator_matches_the_full_matrix_reference():
    rng = np.random.default_rng(83)
    for _ in range(12):
        n = int(rng.integers(2, 40))
        F = random_defective_df(rng, n)
        start = int(rng.integers(1, n))
        horizon = int(rng.integers(start, n))
        paths = int(rng.choice([1, 2, 3, 500, 4_000]))
        _assert_matches_reference(F, start, horizon, n_paths=paths, seed=int(rng.integers(2**62)))


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
        _assert_matches_reference(F, start, n - 1, n_paths=3_000, seed=17)
    est = estimate_renewal_function(F, 0, n - 1, n_paths=3_000, seed=17)
    assert not est.std_errs[:7].any() and est.std_errs[7:].all()


def test_estimator_is_invariant_to_the_chunk_size(monkeypatch):
    rng = np.random.default_rng(89)
    F = random_defective_df(rng, 30)
    start, horizon = 2, 27
    span = horizon - start + 1
    default = _outputs(estimate_renewal_function(F, start, horizon, n_paths=2_000, seed=5))
    default_chunk = simulate._CHUNK_DRAWS
    for paths_per_chunk in (1, 7):
        monkeypatch.setattr(simulate, "_CHUNK_DRAWS", paths_per_chunk * span)
        for got, want in zip(_outputs(estimate_renewal_function(F, start, horizon, n_paths=2_000, seed=5)), default):
            assert np.array_equal(got, want)
    # every row dips within the slack, as row 0 does at t = 4, and stub draws land in the
    # dip's window (0.5 - 5e-10, 0.5]: there the literal step from age s is to t = s + 3
    dip = [0.0, 0.1, 0.3, 0.5, 0.5 - 5e-10, 0.7, 0.9, 1.0]
    F = homogeneous_lift(np.array(dip), TimeGrid(0.0, 1.0, 8))
    block = 1.0 - np.resize([0.6, 0.5 - 2e-10, 0.3, 0.5, 0.5 - 4e-10], (6, 8))
    for row in block:
        assert sample_path(F, 0, 7, _Draws(row)) == _reference_sample_path(F, 0, 7, _Draws(row))
    means, pmf = _path_counts(F, 0, 7, block)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _Draws(block.ravel()))
    for chunk_draws in (8, 16, default_chunk):  # 1 and 2 paths per chunk, and all 6 at once
        monkeypatch.setattr(simulate, "_CHUNK_DRAWS", chunk_draws)
        est = estimate_renewal_function(F, 0, 7, n_paths=6, seed=0)
        assert np.array_equal(est.means, means)
        assert np.array_equal(est.terminal_pmf, pmf)


def test_estimator_memory_is_bounded_by_the_chunk(monkeypatch):
    rng = np.random.default_rng(97)
    F = random_defective_df(rng, 30)
    monkeypatch.setattr(simulate, "_CHUNK_DRAWS", 30 * 256)

    def peak(n_paths):
        tracemalloc.start()
        try:
            estimate_renewal_function(F, 0, 29, n_paths=n_paths, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    big = peak(40_000)
    assert big <= 2 * peak(4_000)
    # one (256, 30) draw block live at a time: each chunk refills the same buffer
    assert big <= 1.6 * 256 * 30 * 8


def _first_at_or_above(row, keys):
    """For each key, the first t with row[t] >= key, or len(row); a linear scan."""
    hit = row[None, :] >= keys[:, None]
    return np.where(hit.any(axis=1), hit.argmax(axis=1), len(row))


def test_guide_table_matches_its_definition():
    # random defective laws, dipped ones and ones with all-zero rows, across the uint8 / uint16 switch
    rng = np.random.default_rng(149)
    for n, dtype in ((2, np.uint8), (3, np.uint8), (255, np.uint8), (256, np.uint16), (257, np.uint16)):
        F = random_defective_df(rng, n, min_mass=0.0)
        values = F.values.copy()
        values[rng.choice(n, size=(n + 2) // 3, replace=False)] = 0.0
        for law in (F, _dipped(F, rng), TwoTimeMatrix(F.grid, values, "distribution")):
            M = law.running_max
            K, G = simulate._guide_table(M)
            assert G.dtype == dtype and G.shape == (n, K + 2) and K & (K - 1) == 0
            # the largest power of two whose table fits in F's bytes
            assert G.nbytes <= law.values.nbytes < n * (2 * K + 2) * G.itemsize
            for row, g in zip(M, G):
                positive = np.flatnonzero(row > 0.0)
                assert g[0] == (positive[0] if len(positive) else n)
                assert np.array_equal(g[1 : K + 1], _first_at_or_above(row, np.arange(1, K + 1) / K))
                assert g[K + 1] == g[K]


def test_estimator_steps_like_both_references_on_draws_at_and_beside_bucket_edges(monkeypatch):
    # draws on each edge j / K, beside it, on and beside each cell (so in each dip's
    # window), 1.0 and past each defective total; from every start, to the last point
    # and with start = horizon
    rng = np.random.default_rng(113)
    for n in (2, 3, 5, 7, 9, 12, 17, 24):
        F, edges = _edge_df(rng, n)
        us = _draws_beside(np.concatenate([edges, F.values.ravel()]))
        assert set(edges) <= set(us)
        windows = [(s, h) for s in range(n) for h in {n - 1, s}]
        _assert_steps_like_both_references(F, us, windows, rng, monkeypatch)


def test_estimator_steps_like_both_references_on_cells_just_below_the_grid_fractions(monkeypatch):
    # uniform lags nudged one double down, F(s, s + k) = nextafter(k / (n - 1), 0), with
    # draws on and beside each cell: here u (n - 1) rounds up to k for some cells u, so
    # a table of n - 1 buckets would start the search past the step
    rng = np.random.default_rng(137)
    for n in (7, 11, 13, 21, 24, 25):
        lag_df = np.nextafter(np.arange(n) / (n - 1), 0.0)
        lag_df[0] = 0.0
        F = homogeneous_lift(lag_df, TimeGrid(0.0, 1.0, n))
        us = _draws_beside(F.values)
        _assert_steps_like_both_references(F, us, [(0, n - 1), (n // 2, n - 1)], rng, monkeypatch)


def test_estimator_steps_like_both_references_across_the_table_dtype_switch(monkeypatch):
    # n = 255 keeps a uint8 table and n = 256 needs uint16; draws on and beside each
    # bucket edge, 1.0, the least draw, and the cells below 1 / K that open each row
    rng = np.random.default_rng(139)
    for n, dtype in ((255, np.uint8), (256, np.uint16)):
        F, edges = _edge_df(rng, n)
        K, G = simulate._guide_table(F.running_max)
        assert G.dtype == dtype
        us = _draws_beside(np.concatenate([edges, F.values[F.values < 1 / K], [2.0**-53]]))
        assert set(edges) <= set(us)
        windows = [(0, n - 1), (n - 9, n - 1), (n - 2, n - 2)]
        _assert_steps_like_both_references(F, us, windows, rng, monkeypatch)


def test_estimator_bisects_a_bucket_of_over_100_points(monkeypatch):
    # the geometric law at n = 201 puts lags 32 to 167 of each row in its top bucket
    # [(K - 1) / K, 1); draws on and beside each of those cells and 1.0
    F = geometric_law(0.2, 200)
    K = simulate._guide_table(F.running_max)[0]
    top = F.values[0][(F.values[0] >= (K - 1) / K) & (F.values[0] < 1.0)]
    assert len(top) > 100
    us = _draws_beside(top)
    _assert_steps_like_both_references(F, us, [(0, 200), (150, 200)], np.random.default_rng(127), monkeypatch)


def test_estimator_memory_is_bounded_by_the_chunk_and_the_law(monkeypatch):
    # at n = 300 the guide table, 300 x 1026 uint16 cells, is most of the working memory
    F = random_defective_df(np.random.default_rng(131), 300)
    F.running_max  # F's own cached view, built before tracing
    monkeypatch.setattr(simulate, "_CHUNK_DRAWS", 300 * 64)
    tracemalloc.start()
    try:
        estimate_renewal_function(F, 0, 299, n_paths=2_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 300 * 8 + F.values.nbytes


def test_estimator_matches_the_reference_when_paths_outrun_the_window(monkeypatch):
    # paths of these laws outlive the first window, so chunks are drawn again and the window
    # widens; spans 2 w - 1, 2 w and 2 w + 1 lie on both sides of the rule that draws a chunk
    # whole once the window would hold more than half of it
    rng = np.random.default_rng(151)
    laws = [(_unit_step(201), 0), (geometric_law(0.5, 200), 0), (random_defective_df(rng, 120), 9)]
    redraws = []
    draw_columns = simulate._draw_columns

    def spy(rng, size, span, lo, hi, keep=None):
        redraws[-1] += lo > 0
        return draw_columns(rng, size, span, lo, hi, keep)

    monkeypatch.setattr(simulate, "_draw_columns", spy)
    for F, start in laws:
        n = F.n_points
        # (window, sub-block draws, chunk draws, paths), the draws as (a, b) for a * span + b: 1, 2
        # and 3, then odd sizes, where sub-blocks of 3 and 4 rows part-fill the last of a chunk
        for window, (a, b), (c, d), n_paths in (
            (1, (0, 1), (0, 1), 7),
            (2, (0, 2), (0, 2), 9),
            (3, (0, 3), (0, 3), 8),
            (3, (3, 1), (7, 5), 60),
            (5, (5, -1), (13, 5), 60),
        ):
            for span in (n - start, 2 * window - 1, 2 * window, 2 * window + 1):
                monkeypatch.setattr(simulate, "_WINDOW", window)
                monkeypatch.setattr(simulate, "_SUB_DRAWS", a * span + b)
                monkeypatch.setattr(simulate, "_CHUNK_DRAWS", c * span + d)
                redraws.append(0)
                _assert_matches_reference(F, start, start + span - 1, n_paths=n_paths, seed=span)
                # a chunk is drawn again only while twice the window fits in the span, and the window
                # at least doubles after it
                assert 2 ** redraws[-1] * window <= max(span, window)
    assert max(redraws) >= 2


def _traced_peak(run):
    """run()'s result and the peak of traced memory while it ran."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_estimator_memory_follows_the_draws_its_paths_read():
    # at n = 201 paths of geometric_law(0.05, 200) make about 10 renewals and read no more than
    # the first window's draws: each chunk keeps that window, filled through one sub-block
    span = 201
    chunk = simulate._CHUNK_DRAWS // span
    window, sub_block = chunk * simulate._WINDOW * 8, simulate._SUB_DRAWS * 8
    F = geometric_law(0.05, span - 1)
    F.running_max  # F's own cached view, built before tracing
    est, peak = _traced_peak(lambda: estimate_renewal_function(F, 0, span - 1, n_paths=20_000, seed=3))
    assert len(est.terminal_pmf) <= simulate._WINDOW  # no path read past the window
    assert peak <= window + sub_block + F.values.nbytes < chunk * span * 8 / 3
    # on the unit-step law every path reads every draw: the window is drawn, then the rest of
    # the chunk, and then whole chunks, one at a time
    U = _unit_step(span)
    U.running_max
    _, peak = _traced_peak(lambda: estimate_renewal_function(U, 0, span - 1, n_paths=20_000, seed=3))
    assert peak <= chunk * span * 8 + sub_block + U.values.nbytes
