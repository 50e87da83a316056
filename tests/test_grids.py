import math
import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from renewalkit.grids import KINDS, TimeGrid, TwoTimeMatrix, read_matrix_tsv, write_matrix_tsv, write_table
from renewalkit.testing import random_defective_df


def test_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 0.0, 5)
    with pytest.raises(ValueError):
        TimeGrid(0.0, -1.0, 5)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 1)
    for origin in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="origin must be finite"):
            TimeGrid(origin, 1.0, 5)
    for step in (math.nan, math.inf):
        with pytest.raises(ValueError, match="step_h must be positive and finite"):
            TimeGrid(0.0, step, 5)


def test_grid_rejects_off_grid_times():
    grid = TimeGrid(0.0, 1.0, 10)
    with pytest.raises(IndexError):
        grid.time_of(10)


def test_matrix_zeroes_lower_triangle_and_is_immutable():
    grid = TimeGrid(0.0, 1.0, 3)
    m = TwoTimeMatrix(grid, np.full((3, 3), 7.0), "generic")
    assert m.values[2, 0] == 0.0 and m.values[1, 0] == 0.0
    assert m.values[0, 2] == 7.0
    with pytest.raises(ValueError):
        m.values[0, 1] = 1.0


def test_lower_triangle_query_is_a_contract_violation():
    grid = TimeGrid(0.0, 1.0, 3)
    m = TwoTimeMatrix(grid, np.zeros((3, 3)), "distribution")
    assert m.at(0, 2) == 0.0
    with pytest.raises(ValueError):
        m.at(2, 0)
    with pytest.raises(IndexError):
        m.at(0, 3)


def test_distribution_invariants_are_enforced():
    grid = TimeGrid(0.0, 1.0, 3)
    bad_diag = np.array([[0.1, 0.5, 1.0], [0, 0, 1.0], [0, 0, 0]])
    with pytest.raises(ValueError, match=r"a\(0,0\)"):
        TwoTimeMatrix(grid, bad_diag, "distribution")
    decreasing = np.array([[0, 0.8, 0.5], [0, 0, 1.0], [0, 0, 0]])
    with pytest.raises(ValueError, match="row 0 decreases between t = 1 and t = 2"):
        TwoTimeMatrix(grid, decreasing, "distribution")
    too_big = np.array([[0, 0.5, 1.2], [0, 0, 1.0], [0, 0, 0]])
    with pytest.raises(ValueError, match="exceeds 1"):
        TwoTimeMatrix(grid, too_big, "distribution")
    with pytest.raises(ValueError, match="non-finite"):
        TwoTimeMatrix(grid, np.array([[0, np.nan, 1.0], [0, 0, 1.0], [0, 0, 0]]), "distribution")


_VALID = np.array([[0.0, 0.25, 0.5], [0.0, 0.0, 0.5], [0.0, 0.0, 0.0]])


def _with(cells):
    values = _VALID.copy()
    for (s, t), x in cells.items():
        values[s, t] = x
    return values


_VIOLATIONS = [
    *[(kind, {(1, 1): 0.1}, r"a\(1,1\) = 0.1") for kind in KINDS if kind not in ("density", "generic")],
    *[(kind, {(0, 2): -1e-6}, r"a\(0,2\) = -1e-06 is negative") for kind in KINDS if kind != "generic"],
    *[(kind, {(0, 1): x}, r"non-finite value at \(0, 1\)") for kind in KINDS for x in (np.nan, np.inf)],
    ("distribution", {(1, 2): 1.5}, r"a\(1,2\) = 1.5 exceeds 1"),
    ("distribution", {(0, 1): 0.75}, "row 0 decreases between t = 1 and t = 2"),
    ("increment", {(0, 1): 0.6}, "increment row 0 sums to 1.1"),
]


@pytest.mark.parametrize("kind, cells, message", _VIOLATIONS)
def test_matrix_rejects_each_kind_invariant_violation(kind, cells, message):
    grid = TimeGrid(0.0, 1.0, 3)
    TwoTimeMatrix(grid, _VALID, kind)
    with pytest.raises(ValueError, match=message):
        TwoTimeMatrix(grid, _with(cells), kind)


def test_matrix_zeroes_the_strict_lower_triangle_of_every_kind():
    grid = TimeGrid(0.0, 1.0, 3)
    # values that would break every invariant if they were kept
    lower = _with({(1, 0): np.nan, (2, 0): -7.0, (2, 1): 2.0})
    for kind in KINDS:
        m = TwoTimeMatrix(grid, lower, kind)
        assert m.values.tobytes() == _VALID.tobytes()
    with pytest.raises(ValueError, match="unknown kind"):
        TwoTimeMatrix(grid, _VALID, "cumulative")
    with pytest.raises(ValueError, match="does not match grid size"):
        TwoTimeMatrix(grid, _VALID[:2], "generic")


def test_increment_row_mass_is_bounded():
    grid = TimeGrid(0.0, 1.0, 3)
    over = np.array([[0, 0.7, 0.7], [0, 0, 0.5], [0, 0, 0]])
    with pytest.raises(ValueError, match="sums to"):
        TwoTimeMatrix(grid, over, "increment")
    ok = np.array([[0, 0.7, 0.3], [0, 0, 0.5], [0, 0, 0]])
    TwoTimeMatrix(grid, ok, "increment")


def test_density_diagonal_may_be_positive():
    grid = TimeGrid(0.0, 0.5, 3)
    vals = np.array([[2.0, 1.0, 0.5], [0, 2.0, 1.0], [0, 0, 2.0]])
    m = TwoTimeMatrix(grid, vals, "density")
    assert m.at(1, 1) == 2.0


def test_tsv_round_trip_is_bit_identical(tmp_path):
    rng = np.random.default_rng(7)
    for rep in range(10):
        n = int(rng.integers(2, 20))
        matrix = random_defective_df(rng, n, origin=float(rng.normal()), step_h=float(rng.uniform(0.01, 3)))
        path = tmp_path / f"m{rep}.tsv"
        write_matrix_tsv(matrix, path)
        back = read_matrix_tsv(path)
        assert back.grid == matrix.grid
        assert back.kind == matrix.kind
        assert np.array_equal(back.values, matrix.values)
        path2 = tmp_path / f"m{rep}b.tsv"
        write_matrix_tsv(back, path2)
        assert path.read_bytes() == path2.read_bytes()


# values each kind accepts, edge cases included: subnormals, signed zeros and,
# where the kind allows, negatives (a tiny one passes the validation slack)
_TINY = st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, -0.0, 0.0])
_CELL = {
    "distribution": st.one_of(_TINY, st.floats(0.0, 1.0)),
    "increment": st.one_of(_TINY, st.floats(0.0, 0.1)),
    "renewal": st.one_of(_TINY, st.floats(0.0, 1e300)),
    "density": st.one_of(_TINY, st.floats(0.0, 1e300)),
    "generic": st.floats(allow_nan=False, allow_infinity=False),
}


@st.composite
def _matrices(draw):
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(2, 8))
    values = np.array(draw(st.lists(_CELL[kind], min_size=n * n, max_size=n * n))).reshape(n, n)
    if kind == "distribution":
        for s in range(n):
            values[s, s + 1 :].sort()
    if kind in ("distribution", "increment", "renewal"):
        values[np.diag_indices(n)] = draw(st.sampled_from([0.0, -0.0]))
    origin = draw(st.floats(-1e6, 1e6))
    step_h = draw(st.one_of(st.just(5e-324), st.floats(1e-300, 1e6)))
    return TwoTimeMatrix(TimeGrid(origin, step_h, n), values, kind)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(matrix=_matrices())
def test_tsv_round_trip_is_bit_identical_for_every_kind(tmp_path, matrix):
    path = tmp_path / "m.tsv"
    write_matrix_tsv(matrix, path)
    back = read_matrix_tsv(path)
    assert back.kind == matrix.kind
    assert back.grid == matrix.grid
    assert back.values.tobytes() == matrix.values.tobytes()


def test_tsv_rejects_malformed_files(tmp_path):
    good = tmp_path / "good.tsv"
    write_matrix_tsv(
        TwoTimeMatrix(TimeGrid(0.0, 1.0, 2), np.array([[0, 0.5], [0, 0]]), "distribution"), good
    )
    lines = good.read_text().splitlines()

    bad = tmp_path / "bad_header.tsv"
    bad.write_text("# grd origin=0 h=1 n=2 kind=distribution\n" + "\n".join(lines[1:]) + "\n")
    with pytest.raises(ValueError, match="malformed header"):
        read_matrix_tsv(bad)

    short = tmp_path / "short.tsv"
    short.write_text("\n".join(lines[:2]) + "\n")
    with pytest.raises(ValueError, match="expected 2 data rows"):
        read_matrix_tsv(short)

    ragged = tmp_path / "ragged.tsv"
    ragged.write_text(lines[0] + "\n0\t0.5\textra\n0\n")
    with pytest.raises(ValueError, match="row 0 has 3 values"):
        read_matrix_tsv(ragged)

    # an unparsable value is reported at its cell: row 0 holds a(0,0) and a(0,1)
    unparsable = tmp_path / "unparsable.tsv"
    unparsable.write_text(lines[0] + "\n0\tabc\n0\n")
    expected = f"{unparsable}: row 0, column 1: cannot parse 'abc'"
    with pytest.raises(ValueError, match=re.escape(expected)):
        read_matrix_tsv(unparsable)

    trailing = tmp_path / "trailing.tsv"
    trailing.write_text("\n".join(lines) + "\njunk\n")
    with pytest.raises(ValueError, match="unexpected content"):
        read_matrix_tsv(trailing)

    # the header's n is checked against the rows present before any allocation
    huge = tmp_path / "huge.tsv"
    huge.write_text("\n".join([lines[0].replace("n=2", "n=1000000000")] + lines[1:]) + "\n")
    expected = f"{huge}: expected 1000000000 data rows, found 2"
    with pytest.raises(ValueError, match=re.escape(expected)):
        read_matrix_tsv(huge)

    # header fields and the matrix checks are reported with the file, too
    header = lines[0]
    cases = {
        "one_point": (header.replace("n=2", "n=1"), "need at least 2 grid points, got 1"),
        "bogus_kind": (header.replace("kind=distribution", "kind=bogus"), "unknown kind 'bogus'"),
        "bad_origin": (header.replace("origin=0", "origin=zero"), "could not convert string to float: 'zero'"),
        "bad_step": (header.replace("h=1", "h=1x"), "could not convert string to float: '1x'"),
        "nan_origin": (header.replace("origin=0", "origin=nan"), "origin must be finite, got nan"),
        "inf_step": (header.replace("h=1", "h=inf"), "step_h must be positive and finite, got inf"),
    }
    for name, (head, message) in cases.items():
        bad = tmp_path / f"{name}.tsv"
        bad.write_text("\n".join([head] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{bad}: {message}")):
            read_matrix_tsv(bad)
    too_big = tmp_path / "too_big.tsv"
    too_big.write_text(header + "\n0\t2\n0\n")
    expected = f"{too_big}: distribution value a(0,1) = 2.0 exceeds 1"
    with pytest.raises(ValueError, match=re.escape(expected)):
        read_matrix_tsv(too_big)


def test_written_files_follow_the_umask(tmp_path):
    matrix = TwoTimeMatrix(TimeGrid(0.0, 1.0, 2), np.array([[0, 0.5], [0, 0]]), "distribution")
    old = os.umask(0o022)
    try:
        write_matrix_tsv(matrix, tmp_path / "m.tsv")
    finally:
        os.umask(old)
    assert (tmp_path / "m.tsv").stat().st_mode & 0o777 == 0o644


def test_a_failing_row_leaves_the_target_untouched(tmp_path):
    target = tmp_path / "t.tsv"
    target.write_text("old\n")

    def rows():
        yield [1, 0.5]
        raise RuntimeError("row 2 failed")

    with pytest.raises(RuntimeError, match="row 2 failed"):
        write_table(target, ["# head"], rows())
    assert target.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["t.tsv"]
