"""Every TSV writer against a byte-exact oracle of its former per-writer formatting.

Each oracle below builds the file text the way the writer did before all of
them went through ``grids.write_table``: one ``fmt17`` call per float cell,
f-strings for the ints, and per-row branches where the writer had them.
"""

import tracemalloc

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from test_grids import _matrices

from renewalkit.claims import DurationHistogram, NoClaimRow, NoClaimTable, histogram_to_df
from renewalkit.grids import FormattedTriangle, TimeGrid, TwoTimeMatrix, fmt17, write_matrix_tsv, write_table
from renewalkit.reports import (
    write_age_mean_report,
    write_duration_counts_report,
    write_duration_df,
    write_no_claim_report,
    write_simulation_report,
)
from renewalkit.simulate import RenewalEstimate

_SETTINGS = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def _text(lines):
    return ("\n".join(lines) + "\n").encode()


def _oracle_matrix(matrix):
    g = matrix.grid
    lines = [f"# grid origin={fmt17(g.origin)} h={fmt17(g.step_h)} n={g.n_points} kind={matrix.kind}"]
    for i in range(g.n_points):
        lines.append("\t".join(fmt17(x) for x in matrix.values[i, i:]))
    return _text(lines)


def _oracle_age_mean(H):
    ages = [fmt17(a) for a in H.grid.times()]
    lines = ["attained_age\t" + "\t".join(ages)]
    for age, column in zip(ages, H.values.T):
        lines.append(age + "\t" + "\t".join(map(fmt17, column.tolist())))
    return _text(lines)


def _oracle_duration_counts(first_to_second, second_to_third):
    horizon = max(first_to_second.horizon, second_to_third.horizon)
    lines = [
        "years\tcount_first_to_second\tcount_second_to_third"
        "\tprob_first_to_second\tprob_second_to_third"
    ]
    for i in range(1, horizon + 1):
        c1 = int(first_to_second.counts[i]) if i <= first_to_second.horizon else 0
        c2 = int(second_to_third.counts[i]) if i <= second_to_third.horizon else 0
        p1 = c1 / first_to_second.total if first_to_second.total else 0.0
        p2 = c2 / second_to_third.total if second_to_third.total else 0.0
        lines.append(f"{i}\t{c1}\t{c2}\t{fmt17(p1)}\t{fmt17(p2)}")
    lines.append(
        f"total\t{first_to_second.total}\t{second_to_third.total}"
        f"\t{fmt17(1.0 if first_to_second.total else 0.0)}"
        f"\t{fmt17(1.0 if second_to_third.total else 0.0)}"
    )
    return _text(lines)


def _oracle_duration_df(hist, df):
    lines = [f"# transition={hist.source} total={hist.total}", "years\tcount\tpmf\tdf"]
    total = hist.total
    for i in range(1, hist.horizon + 1):
        pmf = hist.counts[i] / total
        lines.append(f"{i}\t{int(hist.counts[i])}\t{fmt17(pmf)}\t{fmt17(df[i])}")
    return _text(lines)


def _oracle_no_claim(table):
    lines = ["age\tpolicies\tno_claim\tprob_no_claim\tprob_claim"]
    for row in table.rows:
        lines.append(
            f"{row.label}\t{row.total}\t{row.no_claim}"
            f"\t{fmt17(row.prob_no_claim)}\t{fmt17(row.prob_claim)}"
        )
    return _text(lines)


def _oracle_simulation(estimate, F):
    g = F.grid
    lines = [
        f"# sim grid origin={fmt17(g.origin)} h={fmt17(g.step_h)} n={g.n_points}"
        f" start={estimate.start_idx} horizon={estimate.horizon_idx}"
        f" seed={estimate.seed} n_paths={estimate.n_paths} rng={estimate.rng_name}",
        "t_idx\ttime\testimate\tstd_err",
    ]
    for j, t in enumerate(estimate.t_indices()):
        lines.append(
            f"{t}\t{fmt17(g.time_of(int(t)))}"
            f"\t{fmt17(estimate.means[j])}\t{fmt17(estimate.std_errs[j])}"
        )
    return _text(lines)


# small counts and counts of 1e17 and more, which "%.17g" would print as 1e+17;
# a histogram holds at most 13 of them, so its int64 total cannot overflow
_COUNT = st.one_of(st.integers(0, 1000), st.integers(10**17, 5 * 10**17))
_FLOAT = st.one_of(
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, -0.0, 0.0, 1e17]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _histograms(draw, nonempty=False):
    counts = draw(st.lists(_COUNT, min_size=1, max_size=12))
    if nonempty and not any(counts):
        counts[-1] = 1
    source = draw(st.sampled_from(["entry-to-first", "first-to-second", "second-to-third", "merged"]))
    return DurationHistogram(np.array([0, *counts]), source)


@st.composite
def _no_claim_tables(draw):
    rows = []
    for label in draw(st.lists(st.sampled_from(["18", "24", "59", ">=60", ">=40", "total"]), max_size=6)):
        total = draw(st.one_of(st.integers(1, 1000), st.integers(10**17, 10**19)))
        rows.append(NoClaimRow(label, total, draw(st.integers(0, total))))
    return NoClaimTable(tuple(rows))


@st.composite
def _estimates(draw):
    n = draw(st.integers(2, 12))
    origin = draw(st.floats(-1e6, 1e6))
    step_h = draw(st.one_of(st.just(5e-324), st.floats(1e-300, 1e6)))
    F = TwoTimeMatrix(TimeGrid(origin, step_h, n), np.zeros((n, n)), "distribution")
    start = draw(st.integers(0, n - 1))
    horizon = draw(st.integers(start, n - 1))
    span = horizon - start + 1
    means, std_errs = (np.array(draw(st.lists(_FLOAT, min_size=span, max_size=span))) for _ in range(2))
    estimate = RenewalEstimate(
        start, horizon, means, std_errs, np.ones(1),
        n_paths=draw(st.integers(1, 10**18)), seed=draw(st.integers(0, 2**63)),
    )
    return estimate, F


# the three longest "%.17g" strings, 24 characters each, and "-0", which the fixed-width cells must hold whole
_LONGEST = [-2.2250738585072014e-308, -1.7976931348623157e308, -5e-324, -0.0]


def _diagonal_matrix(diagonal, kind):
    n = len(diagonal)
    values = np.diag(diagonal)
    values[0, 1:] = np.linspace(0.1, 1 / 3, n - 1)
    return TwoTimeMatrix(TimeGrid(-2.2250738585072014e-308, 5e-324, n), values, kind)


@_SETTINGS
@given(matrix=_matrices())
@example(matrix=_diagonal_matrix([-2.2250738585072014e-308, -5e-324, -0.0, 1e300], "density"))
@example(matrix=_diagonal_matrix(_LONGEST, "generic"))
def test_matrix_writers_match_the_oracle(tmp_path, matrix):
    # each writer formats its own cells, then both share one formatting pass
    for cells in (None, FormattedTriangle(matrix)):
        write_matrix_tsv(matrix, tmp_path / "m.tsv", cells=cells)
        write_age_mean_report(matrix, tmp_path / "ages.tsv", cells=cells)
        assert (tmp_path / "m.tsv").read_bytes() == _oracle_matrix(matrix)
        assert (tmp_path / "ages.tsv").read_bytes() == _oracle_age_mean(matrix)


def test_shared_cells_bound_the_writers_memory(tmp_path):
    n = 501
    rng = np.random.default_rng(3)
    H = TwoTimeMatrix(TimeGrid(18.0, 0.1, n), np.triu(rng.uniform(0, 60, (n, n)), 1), "renewal")
    tracemalloc.start()
    try:
        cells = FormattedTriangle(H)
        write_matrix_tsv(H, tmp_path / "H.tsv", cells=cells)
        write_age_mean_report(H, tmp_path / "ages.tsv", cells=cells)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the cells take n (n + 1) / 2 * 24 bytes = 2.9 MiB; the two files, 2.3 and 2.5 MiB, are streamed
    assert peak <= 4 * 2**20


@_SETTINGS
@given(first=_histograms(), second=_histograms(), empty=st.sampled_from([None, 0, 1]))
def test_duration_counts_report_matches_the_oracle(tmp_path, first, second, empty):
    hists = [first, second]
    if empty is not None:  # one transition has no observations at all
        hists[empty] = DurationHistogram(np.zeros(len(hists[empty].counts), dtype=np.int64))
    write_duration_counts_report(*hists, tmp_path / "counts.tsv")
    assert (tmp_path / "counts.tsv").read_bytes() == _oracle_duration_counts(*hists)


@_SETTINGS
@given(hist=_histograms(nonempty=True))
def test_duration_df_matches_the_oracle(tmp_path, hist):
    df = histogram_to_df(hist)
    write_duration_df(hist, df, tmp_path / "df.tsv")
    assert (tmp_path / "df.tsv").read_bytes() == _oracle_duration_df(hist, df)


@_SETTINGS
@given(table=_no_claim_tables())
def test_no_claim_report_matches_the_oracle(tmp_path, table):
    write_no_claim_report(table, tmp_path / "nc.tsv")
    assert (tmp_path / "nc.tsv").read_bytes() == _oracle_no_claim(table)


@_SETTINGS
@given(case=_estimates())
def test_simulation_report_matches_the_oracle(tmp_path, case):
    estimate, F = case
    write_simulation_report(estimate, F, tmp_path / "sim.tsv")
    assert (tmp_path / "sim.tsv").read_bytes() == _oracle_simulation(estimate, F)


def test_write_table_cell_rule(tmp_path):
    path = tmp_path / "t.tsv"
    write_table(path, ["# head", "a\tb"], [[10**17, 0.1, np.float64(1e17)], ["x", -0.0, np.int64(7)]])
    assert path.read_text() == "# head\na\tb\n100000000000000000\t0.10000000000000001\t1e+17\nx\t-0\t7\n"
