import tracemalloc
from bisect import bisect_left
from statistics import NormalDist

import numpy as np
import pytest
from scipy import stats

from renewalkit import simulate
from renewalkit.grids import TimeGrid, TwoTimeMatrix
from renewalkit.reports import write_simulation_report
from renewalkit.simulate import estimate_renewal_function, sample_path
from renewalkit.solver import counting_pmf, homogeneous_lift, solve_discrete
from renewalkit.testing import geometric_law, random_defective_df


def _reference_estimate(F, start, horizon, *, n_paths, seed):
    """The estimator's step-major stream read one path at a time.

    Paths run in groups of ``simulate._GROUP``, in path order.  At each step
    a group draws ``rng.random(live)``, and its i-th live path steps by the
    i-th draw r, to ``bisect_left(F.rows[age], 1 - r)``, as ``sample_path``
    does.  Kept as the oracle for the vectorised estimator; returns (means,
    std_errs, terminal_pmf), the standard errors from the estimator's exact
    integer sums.
    """
    span = horizon - start + 1
    rng = np.random.default_rng(seed)
    counts = np.zeros((n_paths, span), dtype=np.int64)
    for first in range(0, n_paths, simulate._GROUP):
        live = {i: start for i in range(first, min(first + simulate._GROUP, n_paths))}
        while live:
            ages = {}
            for (i, age), r in zip(live.items(), rng.random(len(live)).tolist()):
                nxt = bisect_left(F.rows[age], 1.0 - r)
                if nxt <= horizon:
                    counts[i, nxt - start] += 1
                    ages[i] = nxt
            live = ages
    totals = np.cumsum(counts, axis=1)
    s1, s2 = totals.sum(axis=0).tolist(), (totals * totals).sum(axis=0).tolist()
    var = [(n_paths * b - a * a) / (n_paths * max(1, n_paths - 1)) for a, b in zip(s1, s2)]
    return np.array(s1) / n_paths, np.sqrt(var) / np.sqrt(n_paths), np.bincount(totals[:, -1]) / n_paths


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

    ``random(size)`` returns the next ``size`` of them as an array.
    """

    def __init__(self, values):
        self.values = list(values)
        self.taken = 0

    def random(self, size=None):
        self.taken += 1 if size is None else size
        if size is None:
            return self.values[self.taken - 1]
        return np.array(self.values[self.taken - size : self.taken], dtype=float)


def _dipped(F, rng):
    """F with a few cells per row set just below their left neighbour, inside the validation slack."""
    values = F.values.copy()
    n = F.n_points
    for s in range(n - 2):
        for t in rng.integers(s + 2, n, size=3):
            values[s, t] = values[s, t - 1] - rng.uniform(1e-10, 9e-10)
    return TwoTimeMatrix(F.grid, values, "distribution")


def _path_counts(F, start, horizon, block):
    """(means, terminal_pmf, draws taken per path) of ``sample_path`` run on each row of uniforms in ``block``."""
    hits, counts, taken = np.zeros(horizon - start + 1, dtype=np.int64), [], []
    for row in block:
        draws = _Draws(row)
        path = sample_path(F, start, horizon, draws)
        hits[np.array(path, dtype=np.int64) - start] += 1
        counts.append(len(path))
        taken.append(draws.taken)
    return np.cumsum(hits) / len(block), np.bincount(counts) / len(block), taken


def _step_major(block, taken, group):
    """The stream that gives path i the draws ``block[i, :taken[i]]`` when the estimator steps groups of ``group``."""
    stream = []
    for first in range(0, len(block), group):
        rows = range(first, min(first + group, len(block)))
        for step in range(max(taken[i] for i in rows)):
            stream += [block[i, step] for i in rows if taken[i] > step]
    return stream


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
        means, pmf, taken = _path_counts(F, start, horizon, block)
        stream = _step_major(block, taken, simulate._GROUP)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: _Draws(stream))
        est = _assert_matches_reference(F, start, horizon, n_paths=len(us), seed=0)
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


def test_estimator_counts_the_paths_that_sample_path_draws_from_its_uniforms(monkeypatch):
    # in groups of one path, the estimator's paths are sample_path's calls on one generator, in
    # turn; a single path reads the stream as sample_path does whatever the group size
    rng = np.random.default_rng(109)
    for group in (1, simulate._GROUP):
        monkeypatch.setattr(simulate, "_GROUP", group)
        for _ in range(6):
            n = int(rng.integers(2, 30))
            F = random_defective_df(rng, n)
            start = int(rng.integers(0, n))
            horizon = int(rng.integers(start, n))
            seed = int(rng.integers(2**62))
            n_paths = 300 if group == 1 else 1
            draws = np.random.default_rng(seed)
            paths = [sample_path(F, start, horizon, draws) for _ in range(n_paths)]
            hits = np.bincount([t - start for path in paths for t in path], minlength=horizon - start + 1)
            est = estimate_renewal_function(F, start, horizon, n_paths=n_paths, seed=seed)
            assert np.array_equal(est.means, np.cumsum(hits) / n_paths)
            assert np.array_equal(est.terminal_pmf, np.bincount([len(path) for path in paths]) / n_paths)


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
    # a per-cell 3-SE bound over 48 correlated cells fails on a correct estimator for about
    # 6-8 % of seeds, so the bound is Bonferroni-sized at family-wise alpha = 1e-3 over the
    # nonzero-SE cells of all three laws, as the bench's check is; a zero SE demands an exact match
    rng = np.random.default_rng(73)
    diff, se = [], []
    for _ in range(3):
        F = random_defective_df(rng, 16)
        H = solve_discrete(F)
        est = estimate_renewal_function(F, 0, 15, n_paths=200_000, seed=int(rng.integers(2**62)))
        diff.append(np.abs(est.means - H.values[0, est.t_indices()]))
        se.append(est.std_errs)
    diff, se = np.concatenate(diff), np.concatenate(se)
    random = se > 0.0
    assert np.all(diff[~random] == 0.0)
    z_max = NormalDist().inv_cdf(1 - 1e-3 / (2 * random.sum()))
    assert np.all(diff[random] <= z_max * se[random])


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


def test_true_counts_read_as_one_in_the_replay_header(tmp_path):
    # a count or seed is read by operator.index, so the header replays the run with plain ints
    F = geometric_law(0.5, 7)
    by_bool = estimate_renewal_function(F, 0, 7, n_paths=True, seed=True)
    by_int = estimate_renewal_function(F, 0, 7, n_paths=1, seed=1)
    write_simulation_report(by_bool, F, tmp_path / "bool.tsv")
    write_simulation_report(by_int, F, tmp_path / "int.tsv")
    head = (tmp_path / "bool.tsv").read_text().splitlines()[0]
    assert " seed=1 n_paths=1 " in head
    assert (tmp_path / "bool.tsv").read_bytes() == (tmp_path / "int.tsv").read_bytes()
    assert type(by_bool.n_paths) is int and type(by_bool.seed) is int


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"n_paths": 10.0}, "n_paths must be an integer, got 10.0"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"start": 0.0}, "window start must be an integer, got 0.0"),
        ({"horizon": 5.0}, "window horizon must be an integer, got 5.0"),
    ],
    ids=["n-paths", "seed", "start", "horizon"],
)
def test_a_float_count_seed_or_index_fails_naming_it(setting, message):
    F = geometric_law(0.5, 7)
    a = {"start": 0, "horizon": 5, "n_paths": 10, "seed": 1, **setting}
    with pytest.raises(ValueError) as exc:
        estimate_renewal_function(F, a["start"], a["horizon"], n_paths=a["n_paths"], seed=a["seed"])
    assert str(exc.value) == message
    if "start" in setting or "horizon" in setting:  # the path sampler reads its window alike
        with pytest.raises(ValueError) as exc:
            sample_path(F, a["start"], a["horizon"], np.random.default_rng(0))
        assert str(exc.value) == message


def _assert_matches_reference(F, start, horizon, **settings):
    means, std_errs, pmf = _reference_estimate(F, start, horizon, **settings)
    est = estimate_renewal_function(F, start, horizon, **settings)
    assert np.array_equal(est.means, means)
    assert np.array_equal(est.std_errs, std_errs)
    assert np.array_equal(est.terminal_pmf, pmf)
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


@pytest.mark.parametrize("group", [1, 2, 3, 7, 1 << 14])
def test_estimator_matches_the_step_major_reference_for_every_group_size(group, monkeypatch):
    # 50 paths part-fill the last group of 3 and of 7, so a walk of the groups in another order
    # reads other draws; paths of the unit-step and geometric laws run for 100-200 steps
    rng = np.random.default_rng(89)
    laws = [
        (_unit_step(201), 0, 200),
        (geometric_law(0.5, 200), 0, 200),
        (_dipped(random_defective_df(rng, 30), rng), 0, 29),
        (random_defective_df(rng, 40), 7, 36),
    ]
    monkeypatch.setattr(simulate, "_GROUP", group)
    for F, start, horizon in laws:
        _assert_matches_reference(F, start, horizon, n_paths=50, seed=int(rng.integers(2**62)))
    if group == 1 << 14:  # two groups, the second of 5 paths
        F = random_defective_df(rng, 12)
        _assert_matches_reference(F, 2, 11, n_paths=group + 5, seed=int(rng.integers(2**62)))


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


def _traced_peak(run):
    """run()'s result and the peak of traced memory while it ran."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _group_bound(group, F):
    """Bytes the estimator may hold: 72 per path of a group, its guide table, and 48 KiB for
    the sums per t and the table's build."""
    return 72 * group + simulate._guide_table(F.running_max)[1].nbytes + 48 * 1024


class _Counted:
    """A generator that counts the uniforms drawn from it."""

    default_rng = np.random.default_rng  # the real one, whatever a test patches in

    def __init__(self, seed):
        self.rng, self.drawn = _Counted.default_rng(seed), 0

    def random(self, size):
        self.drawn += size
        return self.rng.random(size)


def test_estimator_memory_follows_the_draws_its_paths_read(monkeypatch):
    # each step draws one uniform per live path, so a path draws its renewals plus the one that
    # ends it, and nothing more; memory holds one group's arrays, however long the paths run:
    # about 10 renewals per path on geometric_law(0.05, 200), 200 on the unit-step law
    span = 201
    drawn = []

    def counted(seed):
        drawn.append(_Counted(seed))
        return drawn[-1]

    for F in (geometric_law(0.05, span - 1), _unit_step(span)):
        F.running_max  # F's own cached view, built before tracing
        monkeypatch.setattr(np.random, "default_rng", counted)
        est, peak = _traced_peak(lambda: estimate_renewal_function(F, 0, span - 1, n_paths=40_000, seed=3))
        monkeypatch.undo()
        renewals = sum(k * p for k, p in enumerate(est.terminal_pmf)) * 40_000
        assert drawn[-1].drawn == 40_000 + round(renewals)
        # a (paths, span) block of draws would take 64 MB
        assert peak <= _group_bound(simulate._GROUP, F) < 40_000 * span * 8 / 40


def test_estimator_memory_is_bounded_by_the_chunk(monkeypatch):
    # the chunk is a group of paths: one group's arrays are live at a time, so ten times the
    # paths take no more memory, at n = 30 with groups of 256
    F = random_defective_df(np.random.default_rng(97), 30)
    F.running_max
    monkeypatch.setattr(simulate, "_GROUP", 256)

    def peak(n_paths):
        return _traced_peak(lambda: estimate_renewal_function(F, 0, 29, n_paths=n_paths, seed=3))[1]

    big = peak(40_000)
    assert big <= 2 * peak(4_000)
    assert big <= _group_bound(256, F)


def test_estimator_memory_is_bounded_by_the_chunk_and_the_law(monkeypatch):
    # at n = 300 the guide table, 300 x 1026 uint16 cells (0.6 MB), is 40 % of the working memory
    # with groups of 2**14 paths, and most of it with groups of 256
    F = random_defective_df(np.random.default_rng(131), 300)
    F.running_max
    for group in (256, simulate._GROUP):
        monkeypatch.setattr(simulate, "_GROUP", group)
        _, peak = _traced_peak(lambda: estimate_renewal_function(F, 0, 299, n_paths=40_000, seed=3))
        assert peak <= _group_bound(group, F)
