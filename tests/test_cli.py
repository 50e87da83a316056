import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import renewalkit
from renewalkit import golden, grids, selftest
from renewalkit.claims import NoClaimRow, no_claim_table
from renewalkit.cli import main
from renewalkit.convolve import RULE_WEIGHTS
from renewalkit.grids import TimeGrid, TwoTimeMatrix, read_matrix_tsv, write_matrix_tsv
from renewalkit.solver import (
    CountingPmf,
    SeriesResult,
    counting_pmf,
    homogeneous_lift,
    solve_discrete,
    solve_quadrature,
    solve_series,
)
from renewalkit.testing import MESSY_CLAIMS, MESSY_POLICIES, geometric_law, random_defective_df
from test_reports import _cells, _oracle_age_mean, _oracle_matrix


def _read_table(path):
    lines = path.read_text().splitlines()
    header = lines[0].split("\t")
    rows = [line.split("\t") for line in lines[1:]]
    return header, rows


def test_build_df_end_to_end(tmp_path, csv_writer, capsys):
    p, c = csv_writer(
        [("A", 23), ("B", 24), ("C", ""), ("D", 61)],
        [("A", 41), ("A", 50), ("B", 20), ("B", 30), ("B", 33), ("D", 65)],
    )
    out = tmp_path / "out"
    rc = main(["build-df", "--policies", str(p), "--claims", str(c), "--out-dir", str(out)])
    assert rc == 0

    report = (out / "ingest_report.txt").read_text()
    assert "policies_read=4" in report
    assert "claims_read=6" in report
    assert "claims_discarded=1" in report  # B's claim at 20 predates entry
    assert "imputed_entries=1" in report

    F = read_matrix_tsv(out / "waiting_df_by_age.tsv")
    assert F.kind == "distribution"
    assert F.grid.origin == 18.0 and F.grid.n_points == 43
    assert F.at(23 - 18, 41 - 18) == 1.0  # A's only first claim

    err = capsys.readouterr().err
    assert "defective all-zero rows" in err
    assert "cannot be placed" in err  # D renews at 61, past the cap

    header, rows = _read_table(out / "waiting_time_counts.tsv")
    assert header[0] == "years"
    assert rows[-1][0] == "total"

    header, rows = _read_table(out / "no_claim_probabilities.tsv")
    assert [r[0] for r in rows] == ["23", "24", ">=60", "total"]

    assert (out / "waiting_df_entry_to_first.tsv").exists()
    assert (out / "waiting_df_first_to_second.tsv").exists()
    assert (out / "waiting_df_merged.tsv").exists()
    # only one policy has three claims in this fixture: B (20 discarded, so no)
    assert not (out / "waiting_df_second_to_third.tsv").exists()


def test_build_df_with_no_claims(tmp_path, csv_writer, capsys):
    p, c = csv_writer([("A", 24)], [])
    out = tmp_path / "out"
    rc = main(["build-df", "--policies", str(p), "--claims", str(c), "--out-dir", str(out)])
    assert rc == 0
    F = read_matrix_tsv(out / "waiting_df_by_age.tsv")
    assert not F.values.any()
    assert "skipping its waiting-time d.f." in capsys.readouterr().err


def _write_unit_step_ages(tmp_path):
    grid = TimeGrid(18.0, 1.0, 11)
    F = homogeneous_lift(np.concatenate(([0.0], np.ones(10))), grid)
    path = tmp_path / "F.tsv"
    write_matrix_tsv(F, path)
    return path, F


def test_build_df_rejects_an_unbounded_cap_age(tmp_path, csv_writer, capsys):
    p, c = csv_writer([("A", 23)], [("A", 41)])
    rc = main(["build-df", "--policies", str(p), "--claims", str(c),
               "--out-dir", str(tmp_path / "out"), "--cap-age", "1000000000"])
    assert rc == 1
    assert "cap_age" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_solve_exact_emits_matrix_and_age_report(tmp_path):
    df_path, F = _write_unit_step_ages(tmp_path)
    out = tmp_path / "H.tsv"
    rc = main(["solve", "--df", str(df_path), "--method", "exact", "--out", str(out)])
    assert rc == 0

    H = read_matrix_tsv(out)
    assert H.kind == "renewal"
    assert np.array_equal(H.values, solve_discrete(F).values)

    header, rows = _read_table(tmp_path / "H.tsv.report.tsv")
    assert header[0] == "attained_age"
    assert header[1:] == [str(a) for a in range(18, 29)]
    for t, row in enumerate(rows):
        assert row[0] == str(18 + t)
        values = [float(x) for x in row[1:]]
        assert values[t] == 0.0  # diagonal: contract age == attained age
        for s, val in enumerate(values):
            assert val == (t - s if s <= t else 0.0)  # unit steps renew yearly


def test_solve_quadrature_at_unit_step_matches_exact(tmp_path):
    df_path, _ = _write_unit_step_ages(tmp_path)
    out_exact = tmp_path / "He.tsv"
    out_quad = tmp_path / "Hq.tsv"
    assert main(["solve", "--df", str(df_path), "--out", str(out_exact)]) == 0
    rc = main(
        ["solve", "--df", str(df_path), "--method", "rect-right",
         "--out", str(out_quad), "--report", str(tmp_path / "r.tsv")]
    )
    assert rc == 0
    He, Hq = read_matrix_tsv(out_exact), read_matrix_tsv(out_quad)
    assert np.abs(He.values - Hq.values).max() <= 1e-12


@pytest.mark.parametrize(
    "field, bad", [("origin=18 ", "origin=nan "), ("h=1 ", "h=inf ")], ids=["origin=nan", "h=inf"]
)
def test_solve_rejects_a_non_finite_grid(tmp_path, capsys, field, bad):
    df_path, _ = _write_unit_step_ages(tmp_path)
    df_path.write_text(df_path.read_text().replace(field, bad, 1))
    out = tmp_path / "H.tsv"
    rc = main(["solve", "--df", str(df_path), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {df_path}: ")
    assert not out.exists()


@pytest.mark.parametrize("method", ["exact", *RULE_WEIGHTS])
def test_solve_on_a_subnormal_step_names_the_step_or_succeeds(tmp_path, capsys, method):
    # v / h overflows at h = 1e-320; the exact solve never divides by h.  The error names the
    # file, as a read error does.  Warnings are errors here, so a raw numpy overflow warning
    # would surface as the CLI's error line instead
    path = tmp_path / "subnormal.tsv"
    path.write_text("# grid origin=0 h=1e-320 n=3 kind=distribution\n0\t0.5\t1\n0\t1\n0\n")
    out = tmp_path / "H.tsv"
    rc = main(["solve", "--df", str(path), "--method", method, "--out", str(out)])
    err = capsys.readouterr().err
    if method == "exact":
        assert (rc, err) == (0, "")
    else:
        assert (rc, err) == (1, f"error: {path}: density v / h overflows at (0, 1): step h = 1e-320 is too small\n")
        assert not out.exists()


@pytest.mark.parametrize("method", ["exact", *RULE_WEIGHTS])
def test_solve_on_a_tiny_normal_step_names_the_step_or_succeeds(tmp_path, capsys, method):
    # at h = 3e-308, v / h is finite but its products with H overflow in the quadrature sweep; the
    # exact solve never divides by h.  Warnings are errors here, so a raw numpy warning would
    # surface as the CLI's error line instead of the one line naming the file and the step
    path = tmp_path / "tiny.tsv"
    write_matrix_tsv(TwoTimeMatrix(TimeGrid(0.0, 3e-308, 31), geometric_law(0.9, 30).values, "distribution"), path)
    out = tmp_path / "H.tsv"
    rc = main(["solve", "--df", str(path), "--method", method, "--out", str(out)])
    err = capsys.readouterr().err
    if method == "exact":
        assert (rc, err) == (0, "")
    else:
        assert rc == 1
        assert re.fullmatch(re.escape(f"error: {path}: quadrature sweep overflows at (")
                            + r"0, [0-9]+\): step h = 3e-308 is too small\n", err), err
        assert not out.exists()


@pytest.mark.parametrize("command", ["solve-exact", "solve-trapezoid", "simulate"])
def test_a_matrix_that_is_not_a_distribution_is_named_as_the_files_fault(tmp_path, capsys, command):
    df_path, _ = _write_unit_step_ages(tmp_path)
    h_path, out = tmp_path / "H.tsv", tmp_path / "out.tsv"
    assert main(["solve", "--df", str(df_path), "--out", str(h_path)]) == 0
    if command == "simulate":
        argv = ["simulate", "--df", str(h_path), "--paths", "10", "--seed", "1", "--start", "0", "--horizon", "5"]
    else:
        argv = ["solve", "--df", str(h_path), "--method", command.removeprefix("solve-")]
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {h_path}: expected a distribution matrix, got kind 'renewal'\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "report"])
def test_a_matrix_of_short_rows_fails_before_the_n_by_n_allocation(tmp_path, capsys, command):
    # 10**6 one-cell rows under a header of n = 10**6: 2 MB, where an n x n matrix is 7.28 TiB
    path = tmp_path / "short_rows.tsv"
    path.write_text("# grid origin=0 h=1 n=1000000 kind=distribution\n" + "0\n" * 1_000_000)
    out = tmp_path / "out.tsv"
    flag = "--df" if command == "solve" else "--matrix"
    assert main([command, flag, str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path}: row 0 has 1 values, expected 1000000\n"
    assert not out.exists()


@pytest.mark.parametrize("alias", ["{out}", "{dir}/sub/../H.tsv"], ids=["same", "alias"])
def test_solve_rejects_a_report_path_equal_to_out(tmp_path, capsys, alias):
    df_path, _ = _write_unit_step_ages(tmp_path)
    out = tmp_path / "H.tsv"
    report = alias.format(out=out, dir=tmp_path)
    rc = main(["solve", "--df", str(df_path), "--out", str(out), "--report", report])
    assert rc == 1
    assert capsys.readouterr().err == f"error: --report must differ from --out, both name {out}\n"
    assert not out.exists()


@pytest.mark.parametrize("n", [2, 43, 501])
def test_solve_and_report_write_the_oracle_bytes(tmp_path, n):
    F = random_defective_df(np.random.default_rng(n), n, origin=18.0, step_h=0.1)
    df_path = tmp_path / "F.tsv"
    write_matrix_tsv(F, df_path)
    for method in ("exact", *RULE_WEIGHTS):
        out, ages, again = (tmp_path / f"{method}.{name}.tsv" for name in ("H", "ages", "report"))
        assert main(["solve", "--df", str(df_path), "--method", method,
                     "--out", str(out), "--report", str(ages)]) == 0
        H = read_matrix_tsv(out)
        cells = _cells(H)  # both oracles format each distinct value of H once
        assert out.read_bytes() == _oracle_matrix(H, cells)
        assert ages.read_bytes() == _oracle_age_mean(H, cells)
        assert main(["report", "--matrix", str(out), "--out", str(again)]) == 0
        assert again.read_bytes() == ages.read_bytes()


def test_solve_and_report_format_the_matrix_once(tmp_path, monkeypatch):
    df_path, _ = _write_unit_step_ages(tmp_path)
    built = []
    init = grids.FormattedTriangle.__init__

    def counted(self, matrix):
        built.append(matrix)
        init(self, matrix)

    monkeypatch.setattr(grids.FormattedTriangle, "__init__", counted)
    for method in ("exact", *RULE_WEIGHTS):
        out = tmp_path / f"{method}.tsv"
        built.clear()
        assert main(["solve", "--df", str(df_path), "--method", method, "--out", str(out)]) == 0
        assert len(built) == 1
        built.clear()
        assert main(["report", "--matrix", str(out), "--out", str(tmp_path / "ages.tsv")]) == 0
        assert len(built) == 1


def test_solve_missing_input_fails(tmp_path, capsys):
    rc = main(["solve", "--df", str(tmp_path / "nope.tsv"), "--out", str(tmp_path / "H.tsv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_writes_metadata_and_estimates(tmp_path):
    df_path, _ = _write_unit_step_ages(tmp_path)
    out = tmp_path / "sim.tsv"
    rc = main(["simulate", "--df", str(df_path), "--paths", "500", "--seed", "42",
               "--start", "0", "--horizon", "10", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# sim grid origin=18 h=1 n=11")
    assert lines[0].endswith(" seed=42 n_paths=500 rng=PCG64 stream=steps/16384")
    assert lines[1] == "t_idx\ttime\testimate\tstd_err"
    body = [line.split("\t") for line in lines[2:]]
    assert [int(r[0]) for r in body] == list(range(11))
    for t, row in enumerate(body):
        assert float(row[2]) == float(t)  # deterministic unit steps
        assert float(row[3]) == 0.0


def test_simulate_rejects_a_matrix_that_is_not_a_distribution(tmp_path, capsys):
    df_path, _ = _write_unit_step_ages(tmp_path)
    h_path, out = tmp_path / "H.tsv", tmp_path / "sim.tsv"
    assert main(["solve", "--df", str(df_path), "--out", str(h_path)]) == 0
    rc = main(["simulate", "--df", str(h_path), "--paths", "100", "--seed", "1",
               "--start", "0", "--horizon", "10", "--out", str(out)])
    assert rc == 1
    assert "got kind 'renewal'" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_names_a_negative_seed(tmp_path, capsys):
    df_path, _ = _write_unit_step_ages(tmp_path)
    rc = main(["simulate", "--df", str(df_path), "--paths", "10", "--seed", "-1",
               "--start", "0", "--horizon", "10", "--out", str(tmp_path / "sim.tsv")])
    assert rc == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize("option, value", [
    ("--paths", "1_0"), ("--seed", "\u0663"), ("--start", "+0"), ("--horizon", "\u0665"),
    ("--paths", " 10"), ("--seed", "3\n"), ("--horizon", "5.0"), ("--paths", "1e3"),
])
def test_simulate_takes_integers_in_ascii_digits_only(tmp_path, capsys, option, value):
    # int() would read "1_0" as 10 and Arabic-Indic digits as theirs; the option is named
    df_path, _ = _write_unit_step_ages(tmp_path)
    argv = {"--paths": "10", "--seed": "3", "--start": "0", "--horizon": "5", option: value}
    out = tmp_path / "sim.tsv"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--df", str(df_path), *(x for item in argv.items() for x in item), "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err == f"renewalkit simulate: error: argument {option}: expected an integer in ASCII digits, got {value!r}"
    assert not out.exists()


@pytest.mark.parametrize("option, value", [("--cap-age", "\u0664\u0660"), ("--impute-age", "2_4")])
def test_build_df_takes_ages_in_ascii_digits_only(tmp_path, capsys, option, value):
    policies, claims = tmp_path / "policies.csv", tmp_path / "claims.csv"
    policies.write_text(MESSY_POLICIES)
    claims.write_text(MESSY_CLAIMS)
    with pytest.raises(SystemExit) as exc:
        main(["build-df", "--policies", str(policies), "--claims", str(claims),
              "--out-dir", str(tmp_path / "out"), option, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err == f"renewalkit build-df: error: argument {option}: expected an integer in ASCII digits, got {value!r}"
    assert not (tmp_path / "out").exists()


def test_integer_options_take_a_minus_sign_and_leading_zeros(tmp_path):
    df_path, _ = _write_unit_step_ages(tmp_path)
    out = tmp_path / "sim.tsv"
    assert main(["simulate", "--df", str(df_path), "--paths", "0010", "--seed", "007",
                 "--start", "-0", "--horizon", "05", "--out", str(out)]) == 0
    assert " start=0 horizon=5 seed=7 n_paths=10 " in out.read_text().splitlines()[0]


def test_solve_report_matches_series_oracle(tmp_path):
    rng = np.random.default_rng(83)
    F = random_defective_df(rng, 12, origin=18.0)
    df_path = tmp_path / "F.tsv"
    write_matrix_tsv(F, df_path)
    h_path = tmp_path / "H.tsv"
    report_path = tmp_path / "ages.tsv"
    assert main(["solve", "--df", str(df_path), "--out", str(h_path),
                 "--report", str(report_path)]) == 0

    oracle = solve_series(F, tol=1e-12).renewal
    _, rows = _read_table(report_path)
    for t, row in enumerate(rows):
        for s, text in enumerate(row[1:]):
            if s <= t:
                assert abs(float(text) - oracle.at(s, t)) <= 1e-10


def test_simulate_is_deterministic_at_the_file_level(tmp_path):
    df_path, _ = _write_unit_step_ages(tmp_path)
    args = ["simulate", "--df", str(df_path), "--paths", "2000", "--seed", "9",
            "--start", "0", "--horizon", "10"]
    assert main(args + ["--out", str(tmp_path / "a.tsv")]) == 0
    assert main(args + ["--out", str(tmp_path / "b.tsv")]) == 0
    assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()


def test_report_subcommand_round_trips(tmp_path):
    df_path, F = _write_unit_step_ages(tmp_path)
    h_path = tmp_path / "H.tsv"
    main(["solve", "--df", str(df_path), "--out", str(h_path)])
    out = tmp_path / "table.tsv"
    assert main(["report", "--matrix", str(h_path), "--out", str(out)]) == 0
    assert out.read_text() == (tmp_path / "H.tsv.report.tsv").read_text()


def test_selftest_passes_on_fresh_checkout(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "5/5 checks passed" in out


def test_selftest_verbose_prints_tolerance_details(capsys):
    assert main(["selftest", "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "max |pmf - published|" in out
    assert "max MC z-score" in out


def _corrupt_waiting_count(monkeypatch):
    rows = [list(r) for r in golden._WAITING]
    rows[2][1] += 1  # one count off by one
    monkeypatch.setattr(golden, "_WAITING", [tuple(r) for r in rows])


def _corrupt_no_claim_row(monkeypatch):
    age, total, quiet, p_no, p_claim = golden.NO_CLAIM_ROWS[0]
    rows = [(age, total, quiet + 1, p_no, p_claim), *golden.NO_CLAIM_ROWS[1:]]
    monkeypatch.setattr(golden, "NO_CLAIM_ROWS", rows)


def _corrupt_no_claim_table(monkeypatch):
    def shifted(records, cap_age):
        first, *rest = no_claim_table(records, cap_age)
        return (NoClaimRow(first.label, first.total, first.no_claim + 1), *rest)

    monkeypatch.setattr(selftest, "no_claim_table", shifted)


def _above_diagonal(H, shift):
    return TwoTimeMatrix(H.grid, np.triu(H.values + shift, 1), H.kind)


def _corrupt_quadrature(monkeypatch):
    def shifted(f, F, method):
        return _above_diagonal(solve_quadrature(f, F, method), 0.2)

    monkeypatch.setattr(selftest, "solve_quadrature", shifted)


def _corrupt_counting_pmf(monkeypatch):
    def shifted(F, s_idx, t_idx, tol):
        pmf = counting_pmf(F, s_idx, t_idx, tol)
        probs = pmf.probs + np.r_[1e-9, -1e-9, np.zeros(len(pmf.probs) - 2)]  # mass kept
        return CountingPmf(s_idx, t_idx, probs, pmf.truncation_mass)

    monkeypatch.setattr(selftest, "counting_pmf", shifted)


def _corrupt_series(monkeypatch):
    def shifted(F, tol):
        res = solve_series(F, tol)
        return SeriesResult(_above_diagonal(res.renewal, 1e-9), res.n_terms)

    monkeypatch.setattr(selftest, "solve_series", shifted)


@pytest.mark.parametrize(
    "check, corrupt",
    [
        ("waiting-time probabilities", _corrupt_waiting_count),
        ("no-claim probabilities", _corrupt_no_claim_row),
        ("no-claim probabilities", _corrupt_no_claim_table),
        ("poisson renewal function", _corrupt_quadrature),
        ("geometric renewal function", _corrupt_counting_pmf),
        ("oracle triangle", _corrupt_series),
    ],
    ids=["waiting-count", "no-claim-row", "no-claim-table", "quadrature", "counting-pmf", "series"],
)
def test_selftest_detects_corrupted_fixture(capsys, monkeypatch, check, corrupt):
    corrupt(monkeypatch)
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert f"FAIL {check}" in out
    assert "4/5 checks passed" in out


def test_selftest_fails_under_optimised_python():
    # ``python -O`` strips assert statements; the checks must fail regardless
    script = (
        "import sys\n"
        "from renewalkit import golden\n"
        "from renewalkit.cli import main\n"
        "rows = [list(r) for r in golden._WAITING]\n"
        "rows[2][1] += 1\n"
        "golden._WAITING = [tuple(r) for r in rows]\n"
        "sys.exit(main(['selftest']))\n"
    )
    src = str(Path(renewalkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAIL waiting-time probabilities" in proc.stdout


def _messy_output_digests(tmp_path):
    """sha256 of every file that build-df, report and simulate write from the messy corpus."""
    policies, claims = tmp_path / "policies.csv", tmp_path / "claims.csv"
    policies.write_text(MESSY_POLICIES)
    claims.write_text(MESSY_CLAIMS)
    for mode in ("bucket1", "discard"):
        for cap in ("60", "40"):
            out = tmp_path / f"{mode}-{cap}"
            assert main(["build-df", "--policies", str(policies), "--claims", str(claims),
                         "--out-dir", str(out), "--zero-duration", mode, "--cap-age", cap]) == 0
            F = out / "waiting_df_by_age.tsv"
            assert main(["report", "--matrix", str(F), "--out", str(out / "report.tsv")]) == 0
            assert main(["simulate", "--df", str(F), "--paths", "300", "--seed", "11",
                         "--start", "5", "--horizon", str(int(cap) - 18), "--out", str(out / "sim.tsv")]) == 0
    return {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.glob("*/*"))
    }


# the bytes each of those files must keep; solve is left to the oracle tests,
# since BLAS may sum in another order on another host
_MESSY_DIGESTS = {
    "bucket1-40/ingest_report.txt": "8c42f1910715ffb9ff1a2515bfbdae4ba01823ccede18df16169c0a5408630e1",
    "bucket1-40/no_claim_probabilities.tsv": "f02f5ae9d3d6ab6bf370b7c289b413f7bd9778bc2fbf680fd9473f99798a3f65",
    "bucket1-40/report.tsv": "5990fea121ad89582a988294572d317c7042122f3ea62ff1deb8abb33ad267db",
    "bucket1-40/sim.tsv": "8dea842b782aa59dcc323642db1ad769655c424895523fc591ee4889402f07b9",
    "bucket1-40/waiting_df_by_age.tsv": "fcd2b265dbee7d9847d78a458b2fd980a01c193d4a09a01ba4320c0330b2e2f5",
    "bucket1-40/waiting_df_entry_to_first.tsv": "e1412eff3e9ea878a5106540bfc8de32ad01e0a698dee293bd1f054d29d8adf6",
    "bucket1-40/waiting_df_first_to_second.tsv": "9928523230863065edfc17b2142e83c3f2d7160ba969e5d0e28f7da0504892d4",
    "bucket1-40/waiting_df_merged.tsv": "8bdd6fc76a2f4cada99162372d10f4f0c1726182d35b787b5910966dd7945dcd",
    "bucket1-40/waiting_df_second_to_third.tsv": "8d9eb6130e78967ed38bb26a81177010a1822fe32fa4f5de3d7cd10449857268",
    "bucket1-40/waiting_time_counts.tsv": "ca2dc562c9e7448e97fa509608baa73149f76e4f986d4fcaed8032373af3ed1f",
    "bucket1-60/ingest_report.txt": "8c42f1910715ffb9ff1a2515bfbdae4ba01823ccede18df16169c0a5408630e1",
    "bucket1-60/no_claim_probabilities.tsv": "c36e40ca46f00b04686557099bf6dfec693f3582b5b040367c844b213f9ca647",
    "bucket1-60/report.tsv": "c80c17567e74abb0b2d3c134d73d1a4eb210121a69ced521e23259480af20576",
    "bucket1-60/sim.tsv": "2044beb12e7ef4ac97799506b42377600cd66fc1196a9c67501ac1b9928ab00a",
    "bucket1-60/waiting_df_by_age.tsv": "6eb75f1c47bdfd4c8688a9d3572d58377c30b3b0b87c68b25f627149c5b98d49",
    "bucket1-60/waiting_df_entry_to_first.tsv": "e1412eff3e9ea878a5106540bfc8de32ad01e0a698dee293bd1f054d29d8adf6",
    "bucket1-60/waiting_df_first_to_second.tsv": "9928523230863065edfc17b2142e83c3f2d7160ba969e5d0e28f7da0504892d4",
    "bucket1-60/waiting_df_merged.tsv": "8bdd6fc76a2f4cada99162372d10f4f0c1726182d35b787b5910966dd7945dcd",
    "bucket1-60/waiting_df_second_to_third.tsv": "8d9eb6130e78967ed38bb26a81177010a1822fe32fa4f5de3d7cd10449857268",
    "bucket1-60/waiting_time_counts.tsv": "ca2dc562c9e7448e97fa509608baa73149f76e4f986d4fcaed8032373af3ed1f",
    "discard-40/ingest_report.txt": "3dfd230c12bf4ebeecf4b9df95263eb49607794ed2d9fb716a8ac327de97054a",
    "discard-40/no_claim_probabilities.tsv": "d1cba141352ffb23d06118864d4df0c41ef4dcff9f8ce43c2227fffa7f25e1a2",
    "discard-40/report.tsv": "a8dbef40da5d01be0d9a972268ec12d5a93bdba5ce173649da39a9b6795d5e13",
    "discard-40/sim.tsv": "871d8e411381dfe99a6e98f528332de5c1f8eb149433ec6bb9fbfbfe3b10741c",
    "discard-40/waiting_df_by_age.tsv": "e3c93ce3ca3cd81b01942cc4051537882d1ddfff3f73b05750dea997115ed25a",
    "discard-40/waiting_df_entry_to_first.tsv": "b85cbe1cda805bb0c0b04821df4c2158045fc0a9a4d1d48a5bd37e6efafebc40",
    "discard-40/waiting_df_first_to_second.tsv": "b7c9e210c32d3f4e1307879ef585faa5d7f5265edd6d74a51dc85f6d61c17802",
    "discard-40/waiting_df_merged.tsv": "e8b8c973dc17f9b95682e7d3966c0818822cc08b32eb3a4fd0478f4685004d33",
    "discard-40/waiting_df_second_to_third.tsv": "058f5e92b6f585f4648c1149df5d2d01ab905caf880daa240a0a6f4c1044d212",
    "discard-40/waiting_time_counts.tsv": "f89d07b63cc6773f9c792d862a26512db0f316e1e7f0d9738f5c96d71d873480",
    "discard-60/ingest_report.txt": "3dfd230c12bf4ebeecf4b9df95263eb49607794ed2d9fb716a8ac327de97054a",
    "discard-60/no_claim_probabilities.tsv": "8bffcca5602d3c553bbd46bcae1945e32193ab6311d9a1f14b22756cce3ba80f",
    "discard-60/report.tsv": "7e2d7d04bdbebde08363580da70492e0141f6984b3282cc9648e25c89364e086",
    "discard-60/sim.tsv": "7d76b1a4015450377417829434c29d2917203cb0518596ca5d2a4ab3d89833b3",
    "discard-60/waiting_df_by_age.tsv": "1810363fa3c570c4db4025afdcf0a7bc0f3fbad1fa24d712bd303730c2c83636",
    "discard-60/waiting_df_entry_to_first.tsv": "b85cbe1cda805bb0c0b04821df4c2158045fc0a9a4d1d48a5bd37e6efafebc40",
    "discard-60/waiting_df_first_to_second.tsv": "b7c9e210c32d3f4e1307879ef585faa5d7f5265edd6d74a51dc85f6d61c17802",
    "discard-60/waiting_df_merged.tsv": "e8b8c973dc17f9b95682e7d3966c0818822cc08b32eb3a4fd0478f4685004d33",
    "discard-60/waiting_df_second_to_third.tsv": "058f5e92b6f585f4648c1149df5d2d01ab905caf880daa240a0a6f4c1044d212",
    "discard-60/waiting_time_counts.tsv": "f89d07b63cc6773f9c792d862a26512db0f316e1e7f0d9738f5c96d71d873480",
}


def test_build_df_report_and_simulate_bytes_are_pinned(tmp_path):
    assert _messy_output_digests(tmp_path) == _MESSY_DIGESTS
