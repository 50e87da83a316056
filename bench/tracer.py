"""Spans around the calls into each renewalkit layer, recorded from outside.

The tracer wraps the public functions that ``renewalkit.cli`` and the
solver modules call, by swapping the names those modules look up.  Each
wrapped call inside an open operation span records one span (name, start,
end, parent, counts) in memory; nothing is written until the benchmark
ends.  Per-layer figures are self times: a span's duration minus the time
its direct children cover.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from renewalkit import cli, convolve, grids, simulate, solver


def _file_bytes(path) -> dict:
    return {"bytes": os.path.getsize(path)}


def _last_arg_bytes(args, kwargs, result) -> dict:
    return _file_bytes(args[-1])


def _ingest_counts(args, kwargs, result) -> dict:
    report = result[1]
    return {
        "policies_read": report.policies_read,
        "claims_read": report.claims_read,
        "claims_retained": report.claims_retained,
    }


def _discrete_flop(args, kwargs, result) -> dict:
    # back-substitution does one multiply and one add per (s, x, t) with
    # s < x < t: about n^3 / 3 operations
    return {"flop": args[0].n_points ** 3 / 3.0}


def _estimate_counts(args, kwargs, result) -> dict:
    est = result
    renewals = est.n_paths * sum(k * p for k, p in enumerate(est.terminal_pmf))
    return {
        "paths": est.n_paths,
        "draws": est.n_paths * len(est.means),
        "renewals": round(renewals),
    }


def _quadrature_name(args, kwargs) -> str:
    method = args[2] if len(args) > 2 else kwargs["method"]
    return "solver." + method.tag


def _reader_bytes(args, kwargs, result) -> dict:
    return _file_bytes(args[0])


#: (owner, attribute, span name or name function, counter)
TARGETS = [
    (cli, "ingest", "claims.ingest", _ingest_counts),
    (cli, "build_duration_histogram", "claims.histograms", None),
    (cli, "histogram_to_df", "claims.histograms", None),
    (cli, "build_occurrence_table", "claims.occurrence", None),
    (cli, "occurrence_to_nh_df", "claims.nh_df", None),
    (cli, "no_claim_table", "claims.no_claim", None),
    (cli, "read_matrix_tsv", "grids.tsv_read", _reader_bytes),
    (cli, "write_matrix_tsv", "grids.tsv_write", _last_arg_bytes),
    (cli, "solve_discrete", "solver.discrete", _discrete_flop),
    (cli, "solve_quadrature", _quadrature_name, None),
    (cli, "estimate_renewal_function", "simulate.estimate", _estimate_counts),
    (cli, "write_age_mean_report", "reports.age_table", _last_arg_bytes),
    (cli, "write_ingest_report", "reports.write", _last_arg_bytes),
    (cli, "write_duration_df", "reports.write", _last_arg_bytes),
    (cli, "write_duration_counts_report", "reports.write", _last_arg_bytes),
    (cli, "write_no_claim_report", "reports.write", _last_arg_bytes),
    (cli, "write_simulation_report", "reports.write", _last_arg_bytes),
    (solver, "increments_from_df", "convolve.increments", None),
    (solver, "solve_series", "solver.series", lambda a, k, r: {"terms": r.n_terms}),
    (convolve, "increments_from_df", "convolve.increments", None),
    (convolve, "density_convolve", "convolve.density_convolve", None),
    (convolve, "stieltjes_convolve", "convolve.stieltjes", None),
    (convolve, "nfold_convolution", "convolve.nfold", None),
    (grids.TwoTimeMatrix, "_validate", "grids.validate", None),
    (simulate, "sample_path", "simulate.sample_path", None),
]


class Tracer:
    """In-memory span recorder; wrapped calls record only inside an open span."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, counts or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            idx = self._open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self.spans[idx][4] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, counter in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            json.dump(
                [{"name": n, "start": s, "end": e, "parent": p, "counts": c}
                 for n, s, e, p, c in self.spans],
                fh,
            )


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self) -> None:
        self.idx = self.tracer._open(self.name)

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.idx)


def self_times(spans: list[list], first: int = 0) -> dict[str, float]:
    """Summed self time per span name over ``spans[first:]``."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans[first:]:
        if parent >= first:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for i in range(first, len(spans)):
        name, start, end, _, _ = spans[i]
        out[name] = out.get(name, 0.0) + (end - start) - child_time[i]
    return out


def counts(spans: list[list], first: int = 0) -> dict[str, float]:
    """Summed counters per ``<span name>.<counter>`` over ``spans[first:]``."""
    out: dict[str, float] = {}
    for name, _, _, _, c in spans[first:]:
        for key, value in (c or {}).items():
            out[f"{name}.{key}"] = out.get(f"{name}.{key}", 0) + value
    return out
