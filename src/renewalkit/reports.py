"""TSV report emission for the CLI.

All reports are tab-separated with a single header line and numbers at 17
significant digits; files are written atomically.  No figures are rendered
here: the emitted data is meant for external plotting tools.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .claims import DurationHistogram, IngestReport, NoClaimTable
from .grids import TwoTimeMatrix, atomic_write_text, fmt17
from .simulate import RenewalEstimate

__all__ = [
    "write_age_mean_report",
    "write_duration_counts_report",
    "write_duration_df",
    "write_ingest_report",
    "write_no_claim_report",
    "write_simulation_report",
]


def write_age_mean_report(H: TwoTimeMatrix, path: str | Path) -> None:
    """Mean-claims table: rows are attained ages, columns are contract ages.

    Cell (t, s) holds H(s, t), so row t is column t of ``H.values``; the
    diagonal is zero and cells above it (attained age before the contract
    age) hold the stored zeros of the strict lower triangle.
    """
    ages = [fmt17(a) for a in H.grid.times()]
    lines = ["attained_age\t" + "\t".join(ages)]
    for age, column in zip(ages, H.values.T):
        lines.append(age + "\t" + "\t".join(map(fmt17, column.tolist())))
    atomic_write_text(Path(path), "\n".join(lines) + "\n")


def write_duration_counts_report(
    first_to_second: DurationHistogram,
    second_to_third: DurationHistogram,
    path: str | Path,
) -> None:
    """Side-by-side waiting-time counts and probabilities for two transitions."""
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
    atomic_write_text(Path(path), "\n".join(lines) + "\n")


def write_duration_df(hist: DurationHistogram, df: np.ndarray, path: str | Path) -> None:
    """Per-transition waiting-time table: counts, pmf and cumulated d.f."""
    lines = [f"# transition={hist.source} total={hist.total}", "years\tcount\tpmf\tdf"]
    total = hist.total
    for i in range(1, hist.horizon + 1):
        pmf = hist.counts[i] / total
        lines.append(f"{i}\t{int(hist.counts[i])}\t{fmt17(pmf)}\t{fmt17(df[i])}")
    atomic_write_text(Path(path), "\n".join(lines) + "\n")


def write_no_claim_report(table: NoClaimTable, path: str | Path) -> None:
    lines = ["age\tpolicies\tno_claim\tprob_no_claim\tprob_claim"]
    for row in table.rows:
        lines.append(
            f"{row.label}\t{row.total}\t{row.no_claim}"
            f"\t{fmt17(row.prob_no_claim)}\t{fmt17(row.prob_claim)}"
        )
    atomic_write_text(Path(path), "\n".join(lines) + "\n")


def write_ingest_report(report: IngestReport, path: str | Path) -> None:
    atomic_write_text(Path(path), report.as_text())


def write_simulation_report(
    estimate: RenewalEstimate, F: TwoTimeMatrix, path: str | Path
) -> None:
    """Estimated renewal-function row with a standard-error column.

    The metadata line records everything needed to replay the run: the grid,
    the window, the seed, the path count and the generator name.
    """
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
    atomic_write_text(Path(path), "\n".join(lines) + "\n")
