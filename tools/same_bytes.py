"""Check that the working tree's CLI writes the same bytes as another revision.

From the root of a checkout::

    python3 tools/same_bytes.py --against HEAD~

It checks REV out with ``git worktree add --detach`` into a temporary
directory (local, no network), writes one set of inputs with this tree's
``bench/inputs.py``, and runs one fixed list of CLI invocations under each
tree, with that tree's ``src`` first on ``PYTHONPATH``.  Each tree runs the
list in one process from its own directory with relative paths, so that
messages naming a file read the same.  It then compares every exit code,
stdout, stderr and output file, prints one line per difference and a
summary line, removes the worktree, and exits 1 if anything differs.

Both trees run on the same host, so ``solve`` bytes are compared too.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METHODS = ("exact", "rect-right", "rect-left", "trapezoid", "simpson")
#: rows added to the policies and claims of the messy corpus, each making build-df fail; they are
#: written with surrogateescape, so U+DCFF is the byte 0xff, which is not UTF-8
_FAULTS = {
    "bad-age": ("", "P9,4o\n"),
    "unknown": ("", "ZZ,30\n"),
    "duplicate": ("P9,41\n", ""),
    "ragged": ("", "P1,30,31\n"),
    "byte-policies": ("N9,4\udcff1\n", ""),
    "byte-claims": ("", "P1,3\udcff0\n"),
}

#: the ways the signed corpus writes its ages in turn; a sign or a leading zero puts an age off
#: the table of canonical texts that build-df reads most ages from
_AGE_FORMS = ("{}", "+{}", "0{}", "00{}")
#: rows added to the signed corpus: an underage policy, its claim, a pre-entry and a padded claim
_SIGNED_ROWS = {"policies.csv": "N1,-3\n", "claims.csv": "N1,+24\nP000000,-3\nP000001,0031\n"}
#: a law whose row 0 dips twice by 9e-10, inside the validation slack
_DIPPED_LAW = "".join(
    ["# grid origin=0 h=1 n=6 kind=distribution\n", "0\t1\t0.99999999910000001\t1\t0.99999999910000001\t1\n"]
    + ["\t".join(["0"] * (6 - i)) + "\n" for i in range(1, 6)]
)

# runs every invocation in-process and prints [exit code, stdout, stderr] per invocation
_DRIVER = """
import contextlib, io, json, sys
from renewalkit.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def write_inputs(where: Path) -> None:
    """The corpora and the laws every invocation reads, written once for both trees."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import inputs

    from renewalkit.grids import write_matrix_tsv
    from renewalkit.testing import MESSY_CLAIMS, MESSY_POLICIES

    truth = inputs.generating_df(43, 1.0)
    inputs.write_synthetic_corpus(truth, 10_000, 9, where / "c10k")  # ~78k claims: cuts between claim blocks
    (where / "c10k-shuffled").mkdir()  # the same claims in no order, as a claims file in date order is
    shutil.copy(where / "c10k" / "policies.csv", where / "c10k-shuffled" / "policies.csv")
    header, *rows = (where / "c10k" / "claims.csv").read_bytes().splitlines(keepends=True)
    random.Random(10).shuffle(rows)
    (where / "c10k-shuffled" / "claims.csv").write_bytes(b"".join([header, *rows]))
    inputs.write_synthetic_corpus(truth, 3000, 5, where / "c3k")
    inputs.write_synthetic_corpus(truth, 15, 1, where / "c15")
    (where / "signed").mkdir()
    for name, extra in _SIGNED_ROWS.items():
        header, *rows = (where / "c3k" / name).read_text().splitlines()
        body = "".join(
            f"{pid},{_AGE_FORMS[i % len(_AGE_FORMS)].format(age) if age else ''}\n"
            for i, (pid, _, age) in enumerate(row.partition(",") for row in rows)
        )
        (where / "signed" / name).write_text(f"{header}\n{body}{extra}")
    for name, (policies, claims) in {"messy": ("", ""), **_FAULTS}.items():
        (where / name).mkdir()
        for file, text in (("policies.csv", MESSY_POLICIES + policies), ("claims.csv", MESSY_CLAIMS + claims)):
            (where / name / file).write_text(text, encoding="utf-8", errors="surrogateescape")
    write_matrix_tsv(inputs.generating_df(501, 0.1), where / "law501.tsv")
    write_matrix_tsv(inputs.generating_df(201, 0.25), where / "law201.tsv")
    (where / "dip.tsv").write_text(_DIPPED_LAW)


def invocations() -> list[list[str]]:
    """The fixed list; paths are relative to a tree's run directory."""
    runs = []
    for corpus in ("c3k", "c15", "messy"):
        for mode in ("bucket1", "discard"):
            for cap in ("60", "40", "19", "18"):  # 18 fails
                runs.append(["build-df", "--policies", f"in/{corpus}/policies.csv",
                             "--claims", f"in/{corpus}/claims.csv", "--out-dir", f"out/{corpus}-{mode}-{cap}",
                             "--zero-duration", mode, "--cap-age", cap])
    for mode in ("bucket1", "discard"):
        for cap in ("60", "40"):
            runs.append(["build-df", "--policies", "in/c10k/policies.csv", "--claims", "in/c10k/claims.csv",
                         "--out-dir", f"out/c10k-{mode}-{cap}", "--zero-duration", mode, "--cap-age", cap])
        runs.append(["build-df", "--policies", "in/c10k-shuffled/policies.csv", "--claims",
                     "in/c10k-shuffled/claims.csv", "--out-dir", f"out/c10k-shuffled-{mode}", "--zero-duration", mode])
    for mode in ("bucket1", "discard"):
        runs.append(["build-df", "--policies", "in/signed/policies.csv", "--claims", "in/signed/claims.csv",
                     "--out-dir", f"out/signed-{mode}", "--zero-duration", mode])
    for name in _FAULTS:
        runs.append(["build-df", "--policies", f"in/{name}/policies.csv", "--claims", f"in/{name}/claims.csv",
                     "--out-dir", f"out/{name}"])
    for name, df in (("law501", "in/law501.tsv"), ("c3k", "out/c3k-bucket1-60/waiting_df_by_age.tsv"),
                     ("messy", "out/messy-discard-40/waiting_df_by_age.tsv"), ("dip", "in/dip.tsv")):
        for method in METHODS:
            runs.append(["solve", "--df", df, "--method", method, "--out", f"out/H-{name}-{method}.tsv"])
        runs.append(["report", "--matrix", f"out/H-{name}-exact.tsv", "--out", f"out/report-{name}.tsv"])
        runs.append(["report", "--matrix", df, "--out", f"out/report-{name}-input.tsv"])
    # a homogeneous table is not a matrix TSV, so this one fails
    runs.append(["solve", "--df", "out/c3k-bucket1-60/waiting_df_merged.tsv", "--out", "out/H-merged.tsv"])
    for df, paths, seed, start, horizon in (
        ("out/c3k-bucket1-60/waiting_df_by_age.tsv", "3000", "7", "0", "42"),
        ("in/law501.tsv", "1000", "3", "10", "300"),
        ("in/law201.tsv", "100000", "17", "0", "200"),  # 2e7 draws: 20 chunks
        ("in/dip.tsv", "500", "13", "0", "5"),
        ("out/messy-bucket1-40/waiting_df_by_age.tsv", "300", "11", "30", "10"),  # a bad window
    ):
        runs.append(["simulate", "--df", df, "--paths", paths, "--seed", seed, "--start", start,
                     "--horizon", horizon, "--out", f"out/sim-{seed}.tsv"])
    runs.append(["selftest", "--verbose"])
    return runs


def run_tree(tree: Path, inputs_dir: Path, run_dir: Path, runs: list[list[str]]) -> list[list]:
    shutil.copytree(inputs_dir, run_dir / "in")
    (run_dir / "out").mkdir()
    path = os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _DRIVER], input=json.dumps(runs), cwd=run_dir,
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def files(out: Path) -> dict[str, bytes]:
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def compare(runs, base, change, base_files, change_files) -> list[str]:
    diffs = []
    for argv, old, new in zip(runs, base, change):
        for what, a, b in zip(("exit code", "stdout", "stderr"), old, new):
            if a != b:
                diffs.append(f"{what} differs: {' '.join(argv)}")
    for name in sorted(base_files.keys() | change_files.keys()):
        if name not in change_files:
            diffs.append(f"file missing from the working tree's output: {name}")
        elif name not in base_files:
            diffs.append(f"file missing from the base output: {name}")
        elif base_files[name] != change_files[name]:
            diffs.append(f"file differs: {name}")
    return diffs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="the revision to compare with, e.g. HEAD~")
    args = parser.parse_args(argv)
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.against],
                         capture_output=True, text=True, check=True).stdout.strip()
    tmp = Path(tempfile.mkdtemp(prefix="same_bytes_"))
    base_tree = tmp / "base-tree"
    try:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--quiet", "--detach", str(base_tree), sha],
                       check=True)
        write_inputs(tmp / "inputs")
        runs = invocations()
        base = run_tree(base_tree, tmp / "inputs", tmp / "base", runs)
        change = run_tree(ROOT, tmp / "inputs", tmp / "change", runs)
        base_files, change_files = files(tmp / "base" / "out"), files(tmp / "change" / "out")
        diffs = compare(runs, base, change, base_files, change_files)
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(base_tree)],
                       capture_output=True)
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"], capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
    for line in diffs:
        print(line)
    print(f"same_bytes: {len(diffs)} differences against {args.against} ({sha}) "
          f"in {len(runs)} invocations and {len(change_files)} files")
    return 1 if diffs else 0


if __name__ == "__main__":
    raise SystemExit(main())
