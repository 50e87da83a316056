"""The public surface: every exported name resolves, and the package's list is pinned.

A removal from ``renewalkit.__all__`` has to edit ``_PUBLIC`` below, so it
cannot happen by accident.
"""

import importlib
import pkgutil

import pytest

import renewalkit

_PUBLIC = [
    "ClaimRecords",
    "CleaningConfig",
    "CountingPmf",
    "DurationHistogram",
    "IngestReport",
    "OccurrenceTable",
    "RenewalEstimate",
    "SeriesResult",
    "SimConfig",
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

_MODULES = ["renewalkit", *(f"renewalkit.{m.name}" for m in pkgutil.iter_modules(renewalkit.__path__))]


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


def test_package_exports_are_pinned():
    assert renewalkit.__all__ == _PUBLIC
