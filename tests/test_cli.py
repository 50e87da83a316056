import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import renewalkit
from renewalkit import golden, selftest
from renewalkit.cli import main
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
    assert "seed=42" in lines[0] and "n_paths=500" in lines[0] and "rng=PCG64" in lines[0]
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


def test_solve_report_matches_series_oracle(tmp_path):
    from renewalkit.testing import random_defective_df

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
        ("poisson renewal function", _corrupt_quadrature),
        ("geometric renewal function", _corrupt_counting_pmf),
        ("oracle triangle", _corrupt_series),
    ],
    ids=["waiting-count", "no-claim-row", "quadrature", "counting-pmf", "series"],
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
