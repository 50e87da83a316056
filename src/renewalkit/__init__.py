"""Numerical solvers for non-homogeneous renewal equations.

The library ships four layers: two-time-variable grids and convolutions
(:mod:`renewalkit.grids`, :mod:`renewalkit.convolve`), renewal-equation
solvers (:mod:`renewalkit.solver`), empirical distribution construction
from insurance claim records (:mod:`renewalkit.claims`) and a Monte Carlo
oracle (:mod:`renewalkit.simulate`).  The ``renewalkit`` command wires them
together.
"""

from .claims import (
    ClaimRecords,
    DurationHistogram,
    IngestReport,
    OccurrenceTable,
    build_duration_histogram,
    build_occurrence_table,
    histogram_to_df,
    ingest,
    no_claim_table,
    occurrence_to_nh_df,
)
from .convolve import density_convolve, increments_from_df, nfold_convolution, stieltjes_convolve
from .grids import TimeGrid, TwoTimeMatrix, read_matrix_tsv, write_matrix_tsv
from .simulate import RenewalEstimate, estimate_renewal_function, sample_path
from .solver import (
    CountingPmf,
    SeriesResult,
    SolverMethod,
    counting_pmf,
    density_from_differences,
    homogeneous_lift,
    lift_duration_function,
    solve_discrete,
    solve_quadrature,
    solve_series,
)

__version__ = "0.1.0"

__all__ = [
    "ClaimRecords",
    "CountingPmf",
    "DurationHistogram",
    "IngestReport",
    "OccurrenceTable",
    "RenewalEstimate",
    "SeriesResult",
    "SolverMethod",
    "TimeGrid",
    "TwoTimeMatrix",
    "build_duration_histogram",
    "build_occurrence_table",
    "counting_pmf",
    "density_convolve",
    "density_from_differences",
    "estimate_renewal_function",
    "histogram_to_df",
    "homogeneous_lift",
    "increments_from_df",
    "ingest",
    "lift_duration_function",
    "nfold_convolution",
    "no_claim_table",
    "occurrence_to_nh_df",
    "read_matrix_tsv",
    "sample_path",
    "solve_discrete",
    "solve_quadrature",
    "solve_series",
    "stieltjes_convolve",
    "write_matrix_tsv",
]
