"""TSV report emission for the CLI.

Each tabular report is its header lines plus a row iterator handed to
``grids.write_table``, which writes floats at 17 significant digits and
the file atomically.  No figures are rendered here: the emitted data is
meant for external plotting tools.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path

import numpy as np

from .claims import DurationHistogram, IngestReport, NoClaimTable
from .grids import FormattedTriangle, TwoTimeMatrix, fmt17, write_table
from .simulate import RenewalEstimate

__all__ = [
    "write_age_mean_report",
    "write_duration_counts_report",
    "write_duration_df",
    "write_ingest_report",
    "write_no_claim_report",
    "write_simulation_report",
]


def write_age_mean_report(
    H: TwoTimeMatrix, path: str | Path, *, cells: FormattedTriangle | None = None
) -> None:
    """Mean-claims table: rows are attained ages, columns are contract ages.

    Cell (t, s) holds H(s, t), so row t is column t of ``H.values``; the
    diagonal is zero and cells above it (attained age before the contract
    age) hold the stored zeros of the strict lower triangle.  ``cells`` is
    ``H`` already formatted, as for :func:`grids.write_matrix_tsv`.
    """
    if cells is None:
        cells = FormattedTriangle(H)
    ages = [fmt17(a) for a in H.grid.times()]
    head = ["attained_age\t" + "\t".join(ages)]
    write_table(path, head, ([age, cells.column(t)] for t, age in enumerate(ages)))


def write_duration_counts_report(
    first_to_second: DurationHistogram,
    second_to_third: DurationHistogram,
    path: str | Path,
) -> None:
    """Side-by-side waiting-time counts and probabilities for two transitions."""
    hists = (first_to_second, second_to_third)
    horizon = max(h.horizon for h in hists)
    counts = [np.pad(h.counts[1:], (0, horizon - h.horizon)).tolist() for h in hists]
    # an empty histogram's counts are all zero, so dividing them by 1 gives its 0.0s
    probs = [[c / (h.total or 1) for c in col] for h, col in zip(hists, counts)]
    total = ["total", *(h.total for h in hists), *(float(h.total > 0) for h in hists)]
    head = [
        "years\tcount_first_to_second\tcount_second_to_third"
        "\tprob_first_to_second\tprob_second_to_third"
    ]
    write_table(path, head, chain(zip(range(1, horizon + 1), *counts, *probs), [total]))


def write_duration_df(hist: DurationHistogram, df: np.ndarray, path: str | Path) -> None:
    """Per-transition waiting-time table: counts, pmf and cumulated d.f."""
    counts = hist.counts[1:]
    head = [f"# transition={hist.source} total={hist.total}", "years\tcount\tpmf\tdf"]
    rows = zip(range(1, hist.horizon + 1), counts.tolist(), (counts / hist.total).tolist(), df[1:].tolist())
    write_table(path, head, rows)


def write_no_claim_report(table: NoClaimTable, path: str | Path) -> None:
    head = ["age\tpolicies\tno_claim\tprob_no_claim\tprob_claim"]
    rows = ((r.label, r.total, r.no_claim, r.prob_no_claim, r.prob_claim) for r in table.rows)
    write_table(path, head, rows)


def write_ingest_report(report: IngestReport, path: str | Path) -> None:
    write_table(path, report.as_text().splitlines(), ())


def write_simulation_report(
    estimate: RenewalEstimate, F: TwoTimeMatrix, path: str | Path
) -> None:
    """Estimated renewal-function row with a standard-error column.

    The metadata line records everything needed to replay the run: the grid,
    the window, the seed, the path count and the generator name.
    """
    g = F.grid
    head = [
        f"# sim grid origin={fmt17(g.origin)} h={fmt17(g.step_h)} n={g.n_points}"
        f" start={estimate.start_idx} horizon={estimate.horizon_idx}"
        f" seed={estimate.seed} n_paths={estimate.n_paths} rng={estimate.rng_name}",
        "t_idx\ttime\testimate\tstd_err",
    ]
    t = estimate.t_indices()
    rows = zip(t.tolist(), g.times()[t].tolist(), estimate.means.tolist(), estimate.std_errs.tolist())
    write_table(path, head, rows)
