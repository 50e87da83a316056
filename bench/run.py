"""Run one renewalkit benchmark workload and print its result line.

From the root of a checkout::

    python3 bench/run.py --workload claims-pipeline --seed 1 --seconds 30 --trace 0

The workload's inputs are generated from the seed five to seven times,
each in a fresh process (``setup_s`` is the median); a further process then
runs the workload's operations in a closed loop for ``--seconds`` with BLAS
pinned to one thread.  Every time is corrected to the host's reference
speed by a probe timed next to it (``hostspeed.py``); the summary also
prints the uncorrected medians.  With ``--trace 0`` the result carries the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` every other
iteration is traced and the result carries the per-layer metrics.
Everything before the last line of standard output is a human-readable
summary; the last line is the JSON result.  Working files go to
``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

#: set-ups per run: at least MIN_SETUPS, and more while they have taken less
#: than SETUP_BUDGET_S in all, so that short set-ups get a steadier median
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 5, 7, 8.0
#: the whole run, setups included, must end well inside three minutes
DEADLINE_S = 170.0
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def run_child(cmd: list[str], env: dict, deadline: float, log: Path, report: Path) -> dict:
    """Run one workload process to completion and return the figures it wrote."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting " + " ".join(cmd[2:4]))
    with open(log, "a") as fh:
        try:
            proc = subprocess.run(cmd + ["--report", str(report)], env=env, stdout=fh,
                                  stderr=fh, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{' '.join(cmd[2:4])} did not finish in time") from None
    if proc.returncode != 0:
        tail = "".join(log.read_text().splitlines(keepends=True)[-20:])
        raise BenchError(f"{' '.join(cmd[2:4])} exited with {proc.returncode}:\n{tail}")
    return json.loads(report.read_text())


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return "-"
    return f"p{100.0 * (n - 10) / n:.0f}={sorted(values)[n - 11]:.6g}"


def measure(args, root: Path) -> tuple[dict, dict[str, list[float]]]:
    """Run the set-ups and the measurement; return its report and every metric's samples."""
    work = root / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log = work / "log.txt"
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **PIN)
    child = [sys.executable, str(root / "bench" / "workload.py")]
    common = ["--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace),
              "--work", str(work)]
    deadline = time.monotonic() + DEADLINE_S

    samples: dict[str, list[float]] = {"setup_s": [], "raw.setup_s": [], "simulate.sample_path_s": []}
    k = 0
    while k < MIN_SETUPS or (k < MAX_SETUPS and sum(samples["raw.setup_s"]) < SETUP_BUDGET_S):
        before = hostspeed.probe()
        t = time.perf_counter()
        setup = run_child(child + ["setup"] + common, env, deadline, log, work / f"setup{k}.json")
        raw = time.perf_counter() - t
        samples["raw.setup_s"].append(raw)
        samples["setup_s"].append(hostspeed.corrected(raw, before, hostspeed.probe(), "records"))
        samples["simulate.sample_path_s"].append(setup["simulate.sample_path_s"])
        k += 1
    m = run_child(child + ["measure"] + common + ["--seconds", str(args.seconds)],
                  env, deadline, log, work / "measure.json")

    untraced = [it for it in m["iterations"] if not it["traced"]]
    traced = [it for it in m["iterations"] if it["traced"]]
    for key in ("wall_s", "build_df_s", "solve_s", "simulate_s"):
        samples[key] = [it[key] for it in untraced]
        samples["raw." + key] = [it["raw." + key] for it in untraced]
    samples["peak_rss_mb"] = [m["peak_rss_mb"]]
    if traced:
        for key in traced[0]["layers"]:
            samples[key] = [it["layers"][key] for it in traced]
        samples["trace.overhead_s"] = [
            statistics.median(it["wall_s"] for it in traced)
            - statistics.median(it["wall_s"] for it in untraced)
        ]
    return m, samples


def main(argv: list[str] | None = None) -> int:
    root = Path.cwd()
    p = argparse.ArgumentParser(description="Run one renewalkit benchmark workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec_file = root / "BENCHMARK.json"
    if not (root / "src" / "renewalkit" / "__init__.py").is_file() or not spec_file.is_file():
        print("error: run from the root of a renewalkit checkout (src/renewalkit and "
              "BENCHMARK.json not found)", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        m, samples = measure(args, root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [w["name"] for w in wanted if not samples.get(w["name"])]
    if missing:
        print(f"error: no samples for {missing}", file=sys.stderr)
        return 1

    print(f"# renewalkit benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} iterations={len(m['iterations'])}")
    print("# provenance: " + json.dumps(m["provenance"], sort_keys=True))
    print(f"# {'metric':<28} {'median':>14} {'unit':<8} {'n':>3}  tail")
    metrics = {}
    for w in wanted:
        values = samples[w["name"]]
        value = statistics.median(values)
        metrics[w["name"]] = {"value": value, "unit": w["unit"]}
        print(f"# {w['name']:<28} {value:>14.6g} {w['unit']:<8} {len(values):>3}  "
              f"{tail_percentile(values)}")
    raw = ", ".join(f"{key[4:]}={statistics.median(v):.6g}"
                    for key, v in samples.items() if key.startswith("raw."))
    print(f"# uncorrected wall-clock medians (s): {raw}")
    print(f"# {'failed_frac':<28} {m['failed'] / m['attempted']:>14.6g} {'ratio':<8} "
          f"({m['failed']} of {m['attempted']} operations failed)")
    print(json.dumps({
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
