import gc
import hashlib
import math
import os
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from renewalkit import grids
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
    # the last time overflows though origin and step are finite, and n - 1 past the largest float
    with pytest.raises(ValueError, match=re.escape("last grid time 1e+308 + 2 * 1e+308 is not finite")):
        TimeGrid(1e308, 1e308, 3)
    with pytest.raises(ValueError, match="last grid time 0.0 [+] 9{400} [*] 1e-300 is not finite"):
        TimeGrid(0.0, 1e-300, 10**400)
    # the size is stored as an int, as the origin and the step are stored as floats; 3.0 is no size
    for size in (2.5, 3.0, "3", None):
        with pytest.raises(ValueError, match=re.escape(f"n_points must be an integer, got {size!r}")):
            TimeGrid(0.0, 1.0, size)
    grid = TimeGrid(0.0, 1.0, np.int64(3))
    assert type(grid.n_points) is int and grid == TimeGrid(0.0, 1.0, 3)


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
    # the running maximum of each row, and the sampler's row tuples of it: immutable too, and
    # built once; on rows that never decrease the view is ``values`` itself
    assert m.running_max is m.values
    assert m.rows == ((7.0, 7.0, 7.0), (0.0, 7.0, 7.0), (0.0, 0.0, 7.0))
    assert m.rows is m.rows
    dip = np.array([[0, 0.5, 0.5 - 5e-10, 1], [0, 0, 1, 1 - 5e-10], [0, 0, 0, 0], [0, 0, 0, 0]])
    d = TwoTimeMatrix(TimeGrid(0.0, 1.0, 4), dip, "distribution")
    assert d.running_max is d.running_max
    assert d.running_max.tolist() == [[0, 0.5, 0.5, 1], [0, 0, 1, 1], [0, 0, 0, 0], [0, 0, 0, 0]]
    assert d.values.tolist() == dip.tolist()
    with pytest.raises(ValueError):
        d.running_max[0, 2] = 0.25
    assert d.rows == tuple(map(tuple, d.running_max.tolist()))


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
    for cells in ({(1, 0): np.nan, (2, 0): -7.0, (2, 1): 2.0},
                  {(1, 0): np.inf, (2, 0): -np.inf, (2, 1): np.nan}):
        lower = _with(cells)
        before = lower.copy()
        for kind in KINDS:
            for values in (lower, _VALID):
                m = TwoTimeMatrix(grid, values, kind)
                assert m.values.tobytes() == _VALID.tobytes()
                assert not np.shares_memory(m.values, values)
        assert lower.tobytes() == before.tobytes()
    with pytest.raises(ValueError, match="unknown kind"):
        TwoTimeMatrix(grid, _VALID, "cumulative")
    # a row would broadcast to a square under np.triu; the shape check comes first
    for bad in (_VALID[:2], _VALID[0], _VALID[:, :, None], 0.5):
        with pytest.raises(ValueError, match=r"values shape \(.*\) does not match grid size 3"):
            TwoTimeMatrix(grid, bad, "generic")


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


def test_a_row_of_mixed_spellings_reads_as_float_reads_each_cell(tmp_path):
    cells = ["1e-3", "+2", "-0", " 4 ", ".5"]
    path = tmp_path / "spellings.tsv"
    rows = ["\t".join(cells)] + ["\t".join(["0"] * (5 - i)) for i in range(1, 5)]
    path.write_text("# grid origin=0 h=1 n=5 kind=generic\n" + "\n".join(rows) + "\n")
    row = read_matrix_tsv(path).values[0]
    assert row.tobytes() == np.array([float(x) for x in cells]).tobytes()
    assert np.signbit(row[2])


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
    # float() also reads a digit separator and non-ASCII digits; the reader does not
    for cell in ("0.2_5", "\u0660.\u0665"):
        unparsable.write_text(lines[0] + f"\n0\t{cell}\n0\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            read_matrix_tsv(unparsable)
        assert str(exc.value) == f"{unparsable}: row 0, column 1: cannot parse {cell!r}"

    # a byte that is not UTF-8 fails at its cell, not at the decoder's buffer position
    unparsable.write_bytes(lines[0].encode() + b"\n0\t0.\xff5\n0\n")
    with pytest.raises(ValueError) as exc:
        read_matrix_tsv(unparsable)
    assert str(exc.value) == f"{unparsable}: row 0, column 1: cannot parse '0.\\udcff5'"

    # a file both short and ragged reports the row count first
    short.write_text(lines[0].replace("n=2", "n=3") + "\n0\t0.5\textra\n0\n")
    with pytest.raises(ValueError, match=re.escape(f"{short}: expected 3 data rows, found 2")):
        read_matrix_tsv(short)

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
        "bad_origin": (header.replace("origin=0", "origin=zero"), "header origin: cannot parse 'zero'"),
        "bad_step": (header.replace("h=1", "h=1x"), "header h: cannot parse '1x'"),
        # the header's numbers follow the cells' rule, and n is ASCII digits
        "arabic_origin": (header.replace("origin=0 h=1", "origin=\u0660 h=1_0"), "header origin: cannot parse '\u0660'"),
        "separated_step": (header.replace("h=1", "h=1_0"), "header h: cannot parse '1_0'"),
        "arabic_n": (header.replace("n=2", "n=\u0662"), "malformed header line"),
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


def test_trailing_content_is_read_in_bounded_memory(tmp_path):
    # a valid n = 2 matrix, then blanks and one junk line: the reader scans the blanks in fixed
    # blocks and stops at the junk, so its peak is the same for a 4 MB and a 16 MB tail
    head = "# grid origin=0 h=1 n=2 kind=distribution\n0\t0.5\n0\n"
    path = tmp_path / "tail.tsv"
    for mib in (4, 16):
        path.write_text(head + " \t\n" * ((mib << 20) // 3) + "junk\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="unexpected content after 2 data rows"):
                read_matrix_tsv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (mib, peak)


_TWO_POINT_HEAD = "# grid origin=0 h=1 n=2 kind=distribution\n"


def test_identical_bytes_are_parsed_once_and_keyed_by_their_sha256(tmp_path, parses):
    first, copy = tmp_path / "a.tsv", tmp_path / "copy.tsv"
    first.write_text(_TWO_POINT_HEAD + "0\t0.5\n0\n")
    copy.write_bytes(first.read_bytes())
    matrix = read_matrix_tsv(first)
    assert read_matrix_tsv(copy) is matrix
    assert read_matrix_tsv(first) is matrix
    assert len(parses) == 1
    data = first.read_bytes()
    assert grids._last == (len(data), hashlib.sha256(data).digest(), matrix)


def test_an_in_place_rewrite_of_the_same_size_and_mtime_is_read_again(tmp_path, parses):
    path = tmp_path / "m.tsv"
    path.write_text(_TWO_POINT_HEAD + "0\t0.5\n0\n")
    before = os.stat(path)
    assert read_matrix_tsv(path).at(0, 1) == 0.5
    path.write_text(_TWO_POINT_HEAD + "0\t0.7\n0\n")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_size, after.st_mtime_ns, after.st_ino) == (before.st_size, before.st_mtime_ns, before.st_ino)
    assert read_matrix_tsv(path).at(0, 1) == 0.7
    assert len(parses) == 2


def test_a_file_changed_between_the_hash_and_the_parse_is_kept_under_the_bytes_parsed(tmp_path, monkeypatch):
    kept, racing, original = (tmp_path / f"{name}.tsv" for name in ("kept", "racing", "original"))
    kept.write_text(_TWO_POINT_HEAD + "0\t0.1\n0\n")
    racing.write_text(_TWO_POINT_HEAD + "0\t0.5\n0\n")
    original.write_bytes(racing.read_bytes())
    monkeypatch.setattr(grids, "_last", None)
    read_matrix_tsv(kept)  # so that the racing read, of the same size, makes a hash pass first
    parse = grids._parse_matrix_tsv

    def rewritten_first(fh):
        with open(racing, "r+b") as out:  # in place: the reader's open file sees the new bytes
            out.write((_TWO_POINT_HEAD + "0\t0.7\n0\n").encode())
        return parse(fh)

    monkeypatch.setattr(grids, "_parse_matrix_tsv", rewritten_first)
    assert read_matrix_tsv(racing).at(0, 1) == 0.7
    monkeypatch.setattr(grids, "_parse_matrix_tsv", parse)
    assert read_matrix_tsv(original).at(0, 1) == 0.5
    assert read_matrix_tsv(racing).at(0, 1) == 0.7


def test_a_faulty_file_of_the_kept_size_fails_at_its_cell_and_leaves_the_kept_matrix(tmp_path, parses):
    good, bad = tmp_path / "good.tsv", tmp_path / "bad.tsv"
    good.write_text(_TWO_POINT_HEAD + "0\t0.5\n0\n")
    bad.write_text(_TWO_POINT_HEAD + "0\t0.x\n0\n")
    matrix = read_matrix_tsv(good)
    kept = grids._last
    with pytest.raises(ValueError) as exc:
        read_matrix_tsv(bad)
    assert str(exc.value) == f"{bad}: row 0, column 1: cannot parse '0.x'"
    assert grids._last is kept
    assert read_matrix_tsv(good) is matrix
    assert len(parses) == 2


def test_the_reader_keeps_one_matrix(tmp_path, parses):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    a.write_text(_TWO_POINT_HEAD + "0\t0.5\n0\n")
    b.write_text(_TWO_POINT_HEAD + "0\t0.25\n0\n")
    first = weakref.ref(read_matrix_tsv(a))
    gc.collect()
    assert first() is not None  # kept by the reader
    read_matrix_tsv(b)
    gc.collect()
    assert first() is None


def test_written_files_follow_the_umask(tmp_path):
    matrix = TwoTimeMatrix(TimeGrid(0.0, 1.0, 2), np.array([[0, 0.5], [0, 0]]), "distribution")
    for mask in (0o002, 0o022, 0o027, 0o077):  # 0o002 tells a mode of 0666 from 0644
        written, plain = tmp_path / f"m{mask:o}.tsv", tmp_path / f"plain{mask:o}.txt"
        old = os.umask(mask)
        try:
            write_matrix_tsv(matrix, written)
            with open(plain, "w"):
                pass
        finally:
            os.umask(old)
        mode = written.stat().st_mode & 0o777
        assert mode == plain.stat().st_mode & 0o777 == 0o666 & ~mask, oct(mask)


def test_write_table_neither_reads_nor_sets_the_umask(tmp_path, monkeypatch):
    # setting the umask to read it would change it for every thread of the process for that instant
    def refuse(*args):
        raise AssertionError("write_table must leave the umask and the mode to the kernel")

    monkeypatch.setattr(os, "umask", refuse)
    monkeypatch.setattr(os, "chmod", refuse)
    write_table(tmp_path / "t.tsv", ["# head"], [[1, 0.5]])
    assert (tmp_path / "t.tsv").read_bytes() == b"# head\n1\t0.5\n"


def test_a_temp_name_collision_fails_and_overwrites_nothing(tmp_path, monkeypatch):
    # the temp file is created with O_EXCL: a file already holding its name is never replaced
    monkeypatch.setattr(os, "urandom", lambda n: bytes(n))
    taken = tmp_path / f"t.tsv.{bytes(8).hex()}.tmp"
    taken.write_text("someone else's\n")
    with pytest.raises(FileExistsError):
        write_table(tmp_path / "t.tsv", ["# head"], [[1, 0.5]])
    assert taken.read_text() == "someone else's\n"
    assert sorted(os.listdir(tmp_path)) == [taken.name]


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
