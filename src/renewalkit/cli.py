"""Command line front-end.

Subcommands: ``build-df`` (CSV records to distribution functions and count
reports), ``solve`` (renewal function from a distribution matrix),
``simulate`` (Monte Carlo estimate), ``report`` (age-labelled table from a
solved matrix) and ``selftest`` (embedded golden checks).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from .claims import (
    TRANSITIONS,
    build_duration_histogram,
    build_occurrence_table,
    histogram_to_df,
    ingest,
    no_claim_table,
    occurrence_to_nh_df,
)
from .convolve import RULE_WEIGHTS
from .grids import TwoTimeMatrix, read_matrix_tsv, require_kind, write_matrix_tsv
from .reports import (
    write_age_mean_report,
    write_duration_counts_report,
    write_duration_df,
    write_ingest_report,
    write_no_claim_report,
    write_simulation_report,
)
from .selftest import run_selftest
from .simulate import estimate_renewal_function
from .solver import SolverMethod, density_from_differences, solve_discrete, solve_quadrature

__all__ = ["main"]


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


def _integer(text: str) -> int:
    """An integer option's value: ASCII digits after an optional minus sign, and nothing else."""
    if re.fullmatch(r"-?[0-9]+", text) is None:
        raise argparse.ArgumentTypeError(f"expected an integer in ASCII digits, got {text!r}")
    return int(text)


def cmd_build_df(args: argparse.Namespace) -> int:
    out = Path(args.out_dir)
    records, report = ingest(args.policies, args.claims,
                             impute_entry_age=args.impute_age, zero_duration=args.zero_duration)
    # both tables check the cap, so a bad one fails before any file is written
    table = build_occurrence_table(records, args.cap_age)
    no_claims = no_claim_table(records, args.cap_age)
    write_ingest_report(report, out / "ingest_report.txt")

    hists = {tr: build_duration_histogram(records, tr) for tr in TRANSITIONS}
    for tr, hist in hists.items():
        if hist.total == 0:
            _warn(f"no observed {tr} transitions; skipping its waiting-time d.f.")
            continue
        name = "waiting_df_" + tr.replace("-", "_") + ".tsv"
        write_duration_df(hist, histogram_to_df(hist), out / name)
    write_duration_counts_report(
        hists["first-to-second"], hists["second-to-third"], out / "waiting_time_counts.tsv"
    )

    if table.dropped_beyond_cap:
        _warn(f"{table.dropped_beyond_cap} claims renewed at or past age {args.cap_age} cannot be placed")
    F, zero_rows = occurrence_to_nh_df(table)
    if zero_rows:
        ages = ", ".join(str(int(F.grid.time_of(s))) for s in zero_rows)
        _warn(f"zero-claim ages left as defective all-zero rows: {ages}")
    write_matrix_tsv(F, out / "waiting_df_by_age.tsv")
    write_no_claim_report(no_claims, out / "no_claim_probabilities.tsv")
    return 0


def _read_df(path: str) -> TwoTimeMatrix:
    """Read a ``--df`` matrix; a kind other than ``distribution`` is the file's fault and names it."""
    F = read_matrix_tsv(path)
    try:
        require_kind(F, "distribution")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return F


def cmd_solve(args: argparse.Namespace) -> int:
    report_path = args.report if args.report else str(args.out) + ".report.tsv"
    if Path(report_path).resolve() == Path(args.out).resolve():
        raise ValueError(f"--report must differ from --out, both name {args.out}")
    F = _read_df(args.df)
    try:  # with the kind checked, what the solve rejects is the file's, such as a step too small
        if args.method == "exact":
            H = solve_discrete(F)
        else:
            H = solve_quadrature(density_from_differences(F), F, SolverMethod(args.method))
    except ValueError as exc:
        raise ValueError(f"{args.df}: {exc}") from None
    write_matrix_tsv(H, args.out)
    write_age_mean_report(H, report_path)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    F = _read_df(args.df)
    estimate = estimate_renewal_function(F, args.start, args.horizon, n_paths=args.paths, seed=args.seed)
    write_simulation_report(estimate, F, args.out)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    write_age_mean_report(read_matrix_tsv(args.matrix), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renewalkit",
        description="Numerical renewal equations and age-dependent claim frequencies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-df", help="build distribution functions from policy/claim CSVs")
    p.add_argument("--policies", required=True, help="CSV with header policy_id,entry_age")
    p.add_argument("--claims", required=True, help="CSV with header policy_id,claim_age")
    p.add_argument("--out-dir", required=True, help="directory for the emitted TSV reports")
    p.add_argument("--impute-age", type=_integer, default=24, help="entry age for records missing one")
    p.add_argument("--cap-age", type=_integer, default=60, help="pool ages at and past this value")
    p.add_argument(
        "--zero-duration",
        choices=("bucket1", "discard"),
        default="bucket1",
        help="same-age claims: book at one year or drop",
    )
    p.set_defaults(func=cmd_build_df)

    p = sub.add_parser("solve", help="solve the renewal equation for a distribution matrix")
    p.add_argument("--df", required=True, help="distribution matrix TSV")
    p.add_argument(
        "--method",
        choices=("exact", *RULE_WEIGHTS),
        default="exact",
    )
    p.add_argument("--out", required=True, help="output path for the renewal matrix TSV")
    p.add_argument("--report", default=None, help="age-table report path (default: <out>.report.tsv)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="Monte Carlo estimate of the renewal function")
    p.add_argument("--df", required=True, help="distribution matrix TSV")
    p.add_argument("--paths", type=_integer, required=True)
    p.add_argument("--seed", type=_integer, required=True)
    p.add_argument("--start", type=_integer, required=True, help="start grid index")
    p.add_argument("--horizon", type=_integer, required=True, help="horizon grid index")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="age-labelled mean table from a solved matrix TSV")
    p.add_argument("--matrix", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("selftest", help="run the embedded golden checks")
    p.add_argument("--verbose", action="store_true", help="print per-check tolerances and values")
    p.set_defaults(func=lambda a: run_selftest(a.verbose))

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
