"""The public surface: every exported name resolves, and the package's list is pinned.

A removal from ``renewalkit.__all__`` has to edit ``_PUBLIC`` below, so it
cannot happen by accident.
"""

import importlib
import pkgutil

import numpy as np
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


def test_result_types_hold_private_read_only_arrays():
    from renewalkit import ClaimRecords, CountingPmf, DurationHistogram, OccurrenceTable, RenewalEstimate

    counts, table, probs = np.array([0, 3, 1]), np.triu(np.ones((3, 3), dtype=np.int64), 1), np.array([0.5, 0.5])
    means, std_errs, pmf = np.array([0.0, 1.0]), np.array([0.0, 0.1]), np.array([1.0])
    cases = [  # (the arrays given, the object built from them, its array attributes)
        ([counts], DurationHistogram(counts), ["counts"]),
        ([table], OccurrenceTable(table, cap_age=20), ["counts"]),
        ([probs], CountingPmf(0, 1, probs, 0.0), ["probs"]),
        ([means, std_errs, pmf], RenewalEstimate(0, 1, means, std_errs, pmf), ["means", "std_errs", "terminal_pmf"]),
    ]
    for given, obj, attrs in cases:
        own = [getattr(obj, attr) for attr in attrs]
        assert not any(a.flags.writeable for a in own), type(obj).__name__
        assert all(a.flags.writeable for a in given), type(obj).__name__
        assert not any(np.shares_memory(a, b) for a in own for b in given), type(obj).__name__
    # ClaimRecords freezes its columns in place instead: a copy would double ingest's claim columns
    columns = [np.array([20]), np.array([0]), np.array([25])]
    records = ClaimRecords(("A",), *columns)
    own = [records.entry_age, records.claim_policy, records.claim_age]
    assert all(np.shares_memory(a, b) for a, b in zip(own, columns))
    assert not any(col.flags.writeable for col in columns)
