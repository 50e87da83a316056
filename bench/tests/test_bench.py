"""Tests of the benchmark itself: generators, checks, tracing and the entry point.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workload  # noqa: E402


@pytest.fixture(scope="module")
def acceptance():
    spec = importlib.util.spec_from_file_location("acceptance", ROOT / "tests" / "test_acceptance.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def session(tmp_path):
    workload.generate(workload.TINY, 5, tmp_path)
    return workload.Session(workload.TINY, 5, tmp_path)


def test_generating_df_reduces_to_the_acceptance_law(acceptance):
    assert np.array_equal(inputs.generating_df(43, 1.0).values, acceptance._generating_df().values)
    fine = inputs.generating_df(501, 0.1)
    assert fine.grid.step_h == 0.1 and fine.values[0, -1] == pytest.approx(1.0)


def test_corpus_keeps_the_acceptance_draw_order(acceptance, tmp_path):
    F = inputs.generating_df(43, 1.0)
    (tmp_path / "a").mkdir()
    want = acceptance._write_synthetic_corpus(F, 3_000, 424242, tmp_path / "a")
    got = inputs.write_synthetic_corpus(F, 3_000, 424242, tmp_path / "b")
    for w, g in zip(want, got):
        assert w.read_bytes() == g.read_bytes()


def test_valid_outputs_pass_every_check(session):
    result = session.iterate()
    assert not result["raised"]
    assert session.check(result) == set()


def test_every_operation_is_timed_raw_and_corrected(session):
    result = session.iterate()
    assert result["ops"].keys() == result["commands"].keys()
    clock = result["clock"]
    assert all(clock.raw(i) > 0 and clock.corrected(i) > 0 for i in result["ops"].values())
    figures = workload.timings(result)
    assert figures["raw.wall_s"] == pytest.approx(sum(clock.raw(i) for i in result["ops"].values()))
    for key in ("wall_s", "build_df_s", "solve_s", "simulate_s"):
        assert 0 < figures[key] <= figures["wall_s"]


def test_a_long_operation_is_corrected_by_the_probes_around_it():
    clock = hostspeed.Clock()
    ref, slow = hostspeed.REF, {k: 2 * v for k, v in hostspeed.REF.items()}
    clock.probes = [(1.0, slow), (2.5, slow), (3.5, ref), (13.5, ref), (14.0, slow), (15.0, slow),
                    (16.0, slow)]
    clock.ops = [("records", 4.0, 13.0), ("records", 3.0, 3.2), ("records", 13.6, 13.9)]
    # three probes a side within 4.5 s: four slow ones outvote the two neighbours
    assert clock.corrected(0) == pytest.approx(4.5)
    # a short operation only sees its neighbours: one slow, one at reference speed
    assert clock.corrected(1) == pytest.approx(0.2 / 1.5)
    # one probe within 0.15 s after, none before: still one a side
    assert clock.corrected(2) == pytest.approx(0.3 / 1.5)


def test_correction_scales_by_the_mean_of_the_two_probes():
    ref = hostspeed.REF
    slow = {k: 2 * v for k, v in ref.items()}
    for kind in hostspeed.KINDS:
        assert hostspeed.corrected(2.0, ref, ref, kind) == pytest.approx(2.0)
        # a host running at half speed on both sides halves the time
        assert hostspeed.corrected(2.0, slow, slow, kind) == pytest.approx(1.0)
        assert hostspeed.corrected(3.0, ref, slow, kind) == pytest.approx(2.0)
    # records work is tracked by both parts, array work by the arithmetic alone
    records_slow = dict(ref, records=4 * ref["records"])
    assert hostspeed.corrected(2.0, records_slow, records_slow, "records") == pytest.approx(1.0)
    assert hostspeed.corrected(2.0, records_slow, records_slow, "arithmetic") == pytest.approx(2.0)
    assert set(hostspeed.probe()) == set(ref)


def test_traced_and_untraced_outputs_are_bit_identical(session):
    session.iterate()
    before = {p: p.read_bytes() for p in sorted(session.out.rglob("*")) if p.is_file()}
    tr = tracing.Tracer()
    tr.install()
    try:
        result = session.iterate(tr)
    finally:
        tr.uninstall()
    after = {p: p.read_bytes() for p in sorted(session.out.rglob("*")) if p.is_file()}
    assert before == after
    assert session.check(result) == set()
    layers = workload.layer_metrics(tr, 0)
    for name in ("claims.ingest_s", "solver.simpson_s", "grids.validate_s", "cli.self_s"):
        assert layers[name] > 0, name
    assert layers["claims.policies_read"] == workload.TINY.policies
    assert 0 < layers["simulate.draw_use_ratio"] < 1


def _edit_cell(path: Path, row: int, col: int, change) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split("\t")
    cells[col] = repr(change(float(cells[col])))
    lines[row] = "\t".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _nudge(x: float) -> float:
    return x * (1 + 1e-9) + 1e-9


@pytest.mark.parametrize(
    "target, row, col, change, failed",
    [
        ("H_exact.tsv", 1, 1, _nudge, {"solve:exact"}),
        ("H_rect-right.tsv", 1, 1, _nudge, {"solve:rect-right"}),
        # one Monte Carlo mean moved far outside its standard error
        ("sim.tsv", 7, 2, lambda x: x + 1.0, {"simulate"}),
    ],
)
def test_a_perturbed_output_is_counted_as_failed(session, target, row, col, change, failed):
    result = session.iterate()
    _edit_cell(session.out / target, row, col, change)
    assert session.check(result) == failed


def test_a_broken_ingest_report_fails_build_df(session):
    result = session.iterate()
    report = session.out / "built" / "ingest_report.txt"
    report.write_text(report.read_text().replace("claims_discarded=", "claims_discarded=1"))
    assert session.check(result) == {"build-df"}


def test_self_times_subtract_direct_children():
    spans = [
        ["cli.solve", 0.0, 10.0, -1, None],
        ["solver.discrete", 1.0, 7.0, 0, {"flop": 9.0}],
        ["grids.validate", 2.0, 3.0, 1, None],
        ["grids.validate", 8.0, 9.0, 0, None],
    ]
    assert tracing.self_times(spans) == {"cli.solve": 3.0, "solver.discrete": 5.0, "grids.validate": 2.0}
    assert tracing.self_times(spans, 1) == {"solver.discrete": 5.0, "grids.validate": 2.0}
    assert tracing.counts(spans) == {"solver.discrete.flop": 9.0}


def test_run_refuses_a_directory_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "mc-oracle", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 10) == "-"
    assert run.tail_percentile([float(i) for i in range(20)]) == "p50=9"
