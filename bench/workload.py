"""One workload of the renewalkit benchmark, run inside its own process.

``setup`` makes the workload's inputs from the seed; ``measure`` loads them,
warms up, and runs the workload's operations in a closed loop for the given
number of seconds, checking every iteration's outputs outside the timed
region.  ``run.py`` starts both and assembles the result line; the layer map
is in ``README.md``.

Every iteration is one actuarial session through the real
``renewalkit.cli.main`` path: ``build-df`` on a claims corpus, ``solve`` by
the exact route and all four quadrature rules, the series and convolution
cross-checks from the library, and ``simulate`` as the Monte Carlo oracle.
The workloads differ in sizes and laws, so that a different layer dominates
each (see ``WORKLOADS``).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import hostspeed
import inputs
import tracer as tracing
from renewalkit import cli, convolve, solver
from renewalkit.grids import TwoTimeMatrix, read_matrix_tsv, write_matrix_tsv

QUADRATURE_RULES = ("rect-right", "rect-left", "trapezoid", "simpson")
DENSITY_RULES = ("rect-left", "rect-right", "trapezoid")
#: convolution order for the stieltjes-versus-nfold cross-check
NFOLD_ORDER = 4
#: family-wise false-alarm rate of the Monte Carlo check over all cells
MC_ALPHA = 1e-6
#: the three commands with an end-to-end metric of their own
COMMAND_METRICS = {"build-df": "build_df_s", "solve": "solve_s", "simulate": "simulate_s"}
#: the host-speed probe time that corrects each command (see ``hostspeed``)
PROBE_KIND = {"build-df": "records", "solve": "records", "simulate": "arithmetic",
              "library": "arithmetic"}


@dataclass(frozen=True)
class Spec:
    """Sizes and laws of one workload.

    A law is ``(n_points, step_h)`` for the age-dependent truncated
    geometric of :func:`inputs.generating_df`, or ``None`` for the d.f. the
    iteration's own ``build-df`` produced from the corpus.
    """

    policies: int
    solve_law: tuple[int, float] | None
    sim_law: tuple[int, float] | None
    sim_paths: int
    #: sup-norm tolerance, relative to the truth, on the H recovered from
    #: the corpus; None skips the check (small corpora are too noisy)
    recover_tol: float | None = None


WORKLOADS = {
    # claims does most of the work: build-df on a 5e4-policy corpus, then
    # every route on the 43-age grid it yields
    "claims-pipeline": Spec(50_000, None, None, 100_000, recover_tol=0.03),
    # solver dominates: every route on a 0.1-year grid (n = 501)
    "fine-grid-solve": Spec(10_000, (501, 0.1), None, 30_000),
    # simulate dominates: 1e5 paths over the whole 0.25-year grid (n = 201)
    "mc-oracle": Spec(10_000, None, (201, 0.25), 100_000),
}

#: inputs of the warm-up call of every operation
TINY = Spec(60, (11, 0.5), None, 500)


def _law_path(work: Path, role: str) -> Path:
    return work / "inputs" / f"law_{role}.tsv"


def generate(spec: Spec, seed: int, work: Path) -> None:
    """Write the corpus and the fixed laws of ``spec`` under ``work/inputs``."""
    truth = inputs.generating_df(43, 1.0)
    inputs.write_synthetic_corpus(truth, spec.policies, seed, work / "inputs")
    for role, law in (("solve", spec.solve_law), ("sim", spec.sim_law)):
        if law is not None:
            write_matrix_tsv(inputs.generating_df(*law), _law_path(work, role))


class Session:
    """The loaded inputs of a workload and the operations of one iteration."""

    def __init__(self, spec: Spec, seed: int, work: Path) -> None:
        self.spec, self.seed, self.work = spec, seed, work
        self.out = work / "out"
        self.laws = {
            role: read_matrix_tsv(_law_path(work, role))
            for role, law in (("solve", spec.solve_law), ("sim", spec.sim_law))
            if law is not None
        }
        self._refs: dict[str, dict] = {}

    # -- operations ---------------------------------------------------------

    def law_file(self, role: str) -> Path:
        if role in self.laws:
            return _law_path(self.work, role)
        return self.out / "built" / "waiting_df_by_age.tsv"

    def law(self, role: str) -> TwoTimeMatrix:
        if role in self.laws:
            return self.laws[role]
        return read_matrix_tsv(self.law_file(role))

    def operations(self):
        """Yield (command, name, thunk) for one iteration, in order.

        ``command`` is the CLI subcommand, or "library" for direct calls.
        A thunk returns a value to keep for the checks, or an exit code.
        """
        inp, out = self.work / "inputs", self.out
        yield "build-df", "build-df", lambda: cli.main([
            "build-df", "--policies", str(inp / "policies.csv"),
            "--claims", str(inp / "claims.csv"), "--out-dir", str(out / "built"),
        ])
        df = str(self.law_file("solve"))
        for method in ("exact",) + QUADRATURE_RULES:
            yield "solve", f"solve:{method}", lambda m=method: cli.main([
                "solve", "--df", df, "--method", m, "--out", str(out / f"H_{m}.tsv"),
            ])
        F = self.law("solve")
        f = solver.density_from_differences(F)
        yield "library", "series", lambda: solver.solve_series(F)
        for rule in DENSITY_RULES:
            yield "library", f"density_convolve:{rule}", lambda r=rule: convolve.density_convolve(f, f, r)
        yield "library", "stieltjes", lambda: self._stieltjes_power(F)
        yield "library", "nfold", lambda: convolve.nfold_convolution(F, NFOLD_ORDER)
        n = self.law("sim").n_points
        yield "simulate", "simulate", lambda: cli.main([
            "simulate", "--df", str(self.law_file("sim")), "--paths", str(self.spec.sim_paths),
            "--seed", str(self.seed), "--start", "0", "--horizon", str(n - 1),
            "--out", str(out / "sim.tsv"),
        ])

    @staticmethod
    def _stieltjes_power(F: TwoTimeMatrix) -> TwoTimeMatrix:
        G = F
        for _ in range(NFOLD_ORDER - 1):
            G = convolve.stieltjes_convolve(G, F)
        return G

    def iterate(self, tracer: tracing.Tracer | None = None,
                clock: hostspeed.Clock | None = None) -> dict:
        """Run one iteration; return its operations' clock indices, kept values and raised ops.

        The host-speed probe runs before the first operation, after every CLI
        command and every run of library calls, and after the last operation
        (see ``hostspeed``). ``timings`` turns the result into times.
        """
        clock = clock or hostspeed.Clock()
        commands: dict[str, str] = {}
        ops: dict[str, int] = {}
        kept: dict[str, object] = {}
        raised: set[str] = set()
        clock.cut()
        previous = None
        for command, name, thunk in self.operations():
            if previous is not None and not command == previous == "library":
                clock.cut()
            span_name = f"cli.{command}" if command != "library" else f"op.{name}"
            clock.start(PROBE_KIND[command])
            try:
                if tracer is None:
                    kept[name] = thunk()
                else:
                    with tracer.span(span_name):
                        kept[name] = thunk()
            except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
                print(f"operation {name} raised: {exc!r}", file=sys.stderr)
                raised.add(name)
            ops[name] = clock.stop()
            commands[name] = previous = command
        clock.cut()
        return {"commands": commands, "ops": ops, "clock": clock, "kept": kept, "raised": raised}

    # -- checks -------------------------------------------------------------

    def refs(self, role: str) -> dict:
        """Library solves of a law, cached by the law file's bytes."""
        path = self.law_file(role)
        key = role + hashlib.sha256(path.read_bytes()).hexdigest()
        if key not in self._refs:
            F = read_matrix_tsv(path)
            f = solver.density_from_differences(F)
            H = {"exact": solver.solve_discrete(F).values}
            if role == "solve":
                for rule in QUADRATURE_RULES:
                    H[rule] = solver.solve_quadrature(f, F, solver.SolverMethod(rule)).values
            self._refs[key] = H
        return self._refs[key]

    def check(self, result: dict) -> set[str]:
        """Names of the iteration's operations that raised or fail their check."""
        failed = set(result["raised"])
        kept = result["kept"]
        for name, value in kept.items():
            if isinstance(value, int) and value != 0:
                failed.add(name)  # a CLI command that exited nonzero
        solves = {f"solve:{m}" for m in ("exact",) + QUADRATURE_RULES}
        densities = {f"density_convolve:{r}" for r in DENSITY_RULES}
        checks = [
            ({"build-df"}, self._check_build),
            (solves, self._check_solves),
            ({"series"}, lambda: self._check_series(kept["series"])),
            (densities, lambda: self._check_density(*(kept[f"density_convolve:{r}"] for r in DENSITY_RULES))),
            ({"stieltjes", "nfold"}, lambda: self._check_nfold(kept["stieltjes"], kept["nfold"])),
            ({"simulate"}, self._check_simulate),
        ]
        for names, run in checks:
            try:
                failed |= run()
            except Exception as exc:  # noqa: BLE001 - missing or unreadable output fails its ops
                print(f"check of {sorted(names)} raised: {exc!r}", file=sys.stderr)
                failed |= names
        return failed

    def _check_build(self) -> set[str]:
        fields = dict(
            line.split("=") for line in
            (self.out / "built" / "ingest_report.txt").read_text().splitlines()
        )
        r = {k: int(v) for k, v in fields.items()}
        ok = r["claims_read"] == r["claims_retained"] + r["claims_discarded"]
        ok &= r["policies_read"] == self.spec.policies
        if self.spec.recover_tol is not None:
            truth = solver.solve_discrete(inputs.generating_df(43, 1.0)).values
            built = read_matrix_tsv(self.out / "built" / "waiting_df_by_age.tsv")
            H = solver.solve_discrete(built).values
            ok &= np.abs(H - truth).max() <= self.spec.recover_tol * np.abs(truth).max()
        return set() if ok else {"build-df"}

    def _check_solves(self) -> set[str]:
        refs = self.refs("solve")
        bad = set()
        got = {}
        for method in ("exact",) + QUADRATURE_RULES:
            got[method] = read_matrix_tsv(self.out / f"H_{method}.tsv").values
            if not np.array_equal(got[method], refs[method]):
                bad.add(f"solve:{method}")
        # with the differenced density, rect-right is the exact solve in disguise
        if np.abs(got["rect-right"] - refs["exact"]).max() > 1e-12:
            bad.add("solve:rect-right")
        return bad

    def _check_series(self, series) -> set[str]:
        exact = self.refs("solve")["exact"]
        return set() if np.abs(series.renewal.values - exact).max() <= 1e-10 else {"series"}

    @staticmethod
    def _check_density(left, right, trap) -> set[str]:
        """The trapezoid weights are the mean of the two rectangle rules'."""
        gap = np.abs(trap.values - 0.5 * (left.values + right.values)).max()
        scale = max(1.0, np.abs(trap.values).max())
        return set() if gap <= 1e-12 * scale else {f"density_convolve:{r}" for r in DENSITY_RULES}

    @staticmethod
    def _check_nfold(power, nfold) -> set[str]:
        ok = np.abs(power.values - nfold.values).max() <= 1e-12
        return set() if ok else {"stieltjes", "nfold"}

    def _check_simulate(self) -> set[str]:
        """Monte Carlo means against the exact solve, z-bounded over all cells.

        A per-cell 3-SE bound fails on valid code once there are ~200
        cells, so the bound is Bonferroni-sized for ``MC_ALPHA`` over the
        cells with a nonzero standard error; a zero standard error demands
        an exact match.
        """
        exact = self.refs("sim")["exact"][0]
        lines = (self.out / "sim.tsv").read_text().splitlines()
        if f"seed={self.seed} n_paths={self.spec.sim_paths}" not in lines[0]:
            return {"simulate"}
        rows = np.array([[float(x) for x in line.split("\t")] for line in lines[2:]])
        t, mean, se = rows[:, 0].astype(int), rows[:, 2], rows[:, 3]
        if len(t) != len(exact) or np.any(t != np.arange(len(exact))):
            return {"simulate"}
        diff = np.abs(mean - exact)
        random = se > 0
        z_max = statistics.NormalDist().inv_cdf(1 - MC_ALPHA / (2 * max(1, random.sum())))
        ok = np.all(diff[~random] == 0) and np.all(diff[random] <= z_max * se[random])
        return set() if ok else {"simulate"}


def timings(result: dict) -> dict[str, float]:
    """An iteration's figures: wall, command times, and their uncorrected twins.

    Call it once the clock has probed after the iteration; a long
    operation's correction also uses probes taken after it.
    """
    clock, ops, commands = result["clock"], result["ops"], result["commands"]
    out = {}
    for prefix, time_of in (("", clock.corrected), ("raw.", clock.raw)):
        times = {name: time_of(i) for name, i in ops.items()}
        out[prefix + "wall_s"] = sum(times.values())
        for command, metric in COMMAND_METRICS.items():
            out[prefix + metric] = sum(t for name, t in times.items() if commands[name] == command)
    return out


def warm_up(work: Path) -> None:
    """First call of each operation on the tiny inputs that ``do_setup`` wrote."""
    Session(TINY, 1, work / "warm").iterate()


def provenance(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git": _git_sha(),
        "seed": seed,
    }


def _git_sha() -> str:
    head = Path(".git/HEAD")
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = Path(".git") / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = Path(".git/packed-refs")
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def layer_metrics(tr: tracing.Tracer, first: int) -> dict[str, float]:
    """Per-layer figures of the spans recorded since index ``first``."""
    self_s = tracing.self_times(tr.spans, first)
    c = tracing.counts(tr.spans, first)
    m = {}
    for name, value in self_s.items():
        if name.startswith("cli."):
            m["cli.self_s"] = m.get("cli.self_s", 0.0) + value
        elif not name.startswith("op."):
            m[name.replace("-", "_") + "_s"] = value
    m["claims.policies_read"] = c.get("claims.ingest.policies_read", 0)
    m["claims.claims_read"] = c.get("claims.ingest.claims_read", 0)
    m["claims.retained_ratio"] = c.get("claims.ingest.claims_retained", 0) / max(1, m["claims.claims_read"])
    m["solver.series_terms"] = c.get("solver.series.terms", 0)
    m["solver.discrete_flop"] = c.get("solver.discrete.flop", 0.0)
    m["solver.discrete_gflops"] = m["solver.discrete_flop"] / m.get("solver.discrete_s", float("inf")) / 1e9
    m["grids.tsv_bytes"] = c.get("grids.tsv_read.bytes", 0) + c.get("grids.tsv_write.bytes", 0)
    m["reports.bytes"] = c.get("reports.age_table.bytes", 0) + c.get("reports.write.bytes", 0)
    m["simulate.paths_per_s"] = c.get("simulate.estimate.paths", 0) / m.get("simulate.estimate_s", float("inf"))
    m["simulate.draws_allocated"] = c.get("simulate.estimate.draws", 0)
    m["simulate.renewals"] = c.get("simulate.estimate.renewals", 0)
    m["simulate.draw_use_ratio"] = m["simulate.renewals"] / max(1, m["simulate.draws_allocated"])
    return m


def do_setup(args) -> dict:
    """Generate the inputs and warm up; traced, report the sampler's self time."""
    work = Path(args.work)
    tr = tracing.Tracer()
    if args.trace:
        tr.install()
    with tr.span("setup"):
        generate(WORKLOADS[args.workload], args.seed, work)
    tr.uninstall()
    generate(TINY, 1, work / "warm")
    warm_up(work)
    return {"simulate.sample_path_s": tracing.self_times(tr.spans).get("simulate.sample_path", 0.0)}


def do_measure(args) -> dict:
    work = Path(args.work)
    spec = WORKLOADS[args.workload]
    warm_up(work)
    session = Session(spec, args.seed, work)
    for role in session.laws:
        session.refs(role)  # the fixed laws' library solves, before the clock starts
    tr = tracing.Tracer()
    clock = hostspeed.Clock()
    iterations, results = [], []
    attempted = failed_ops = 0
    t_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(iterations) % 2 == 1
        gc.collect()
        first = len(tr.spans)
        if traced:
            tr.install()
        try:
            result = session.iterate(tr if traced else None, clock)
        finally:
            tr.uninstall()
        failed = session.check(result)
        attempted += len(result["ops"])
        failed_ops += len(failed)
        for name in sorted(failed):
            print(f"iteration {len(iterations)}: {name} failed", file=sys.stderr)
        iterations.append({"traced": traced, "layers": layer_metrics(tr, first) if traced else None})
        results.append({key: result[key] for key in ("commands", "ops", "clock")})
        del result  # so that two iterations' outputs are never held at once
        elapsed = time.perf_counter() - t_start
        enough = len(iterations) >= (2 if args.trace else 1)
        if enough and elapsed * (len(iterations) + 1) / len(iterations) > args.seconds:
            break
    for it, result in zip(iterations, results):
        it.update(timings(result))
    tr.write(work / "spans.json")
    return {
        "attempted": attempted,
        "failed": failed_ops,
        "iterations": iterations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": provenance(args.seed),
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "measure"))
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True, help="working directory of this workload")
    p.add_argument("--report", required=True, help="JSON file for this process's figures")
    args = p.parse_args(argv)
    report = (do_setup if args.mode == "setup" else do_measure)(args)
    Path(args.report).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
