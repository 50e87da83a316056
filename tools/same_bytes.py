"""Check that the working tree's CLI writes the same bytes as another revision, but where declared.

From the root of a checkout::

    python3 tools/same_bytes.py --against HEAD~

It checks REV out with ``git worktree add --detach`` into a temporary
directory (local, no network), writes one set of inputs with this tree's
``bench/inputs.py``, and runs one fixed list of CLI invocations under each
tree, with that tree's ``src`` first on ``PYTHONPATH``.  Each tree runs the
list in one process from its own directory with relative paths, so that
messages naming a file read the same.  It then compares every exit code,
stdout, stderr and output file, and removes the worktree.

Each difference is one line, such as ``stderr differs: simulate --df ...``
(the invocation's arguments) or ``file differs: sim-17.tsv`` (a path under
the output directory); the other kinds are ``exit code differs``, ``stdout
differs``, ``file missing from the working tree's output`` and ``file
missing from the base output``.  A change that alters an output on purpose
lists each difference it expects, one line as printed here, in
``tools/declared_differences.txt``; lines that are blank or start with ``#``
are comments.  The file holds no declaration when nothing should differ,
and each change rewrites it.  The check prints every difference found,
marked ``declared`` or ``UNDECLARED``, then every declaration that no
difference matched as ``STALE``, and a summary line.  It exits 1 on an
undeclared difference or a stale declaration.

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
DECLARED = ROOT / "tools" / "declared_differences.txt"
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
#: rows added to the policies and claims of copies of the signed corpus, each making build-df fail where
#: the reader splits the lines itself and reads the off-table ages before the fault at their lines
_SIGNED_FAULTS = {
    "signed-duplicate": ("N1,+41\n", ""),
    "signed-bad-age": ("", "P000001,+4o\n"),
    "signed-unknown": ("", "ZZ,4o\n"),
}
#: zeros added to each id of the crlf-cut corpus, which puts a read boundary of each of its files between
#: a CR and its LF
_CRLF_PAD = 5
#: zeros added to each id of the long-cr corpus, making ids of 2,000 characters: csv reads its CR-only
#: lines, and each batch of rows it hands on then holds only a few of them
_LONG_PAD = 1993
#: the old corpus: entry ages 140-150, claims at 150 (booked at 151 after a claim or an entry at 150),
#: same-age pairs and a pre-entry claim, and one young policy, so build-df's count tables are widest
_OLD = {
    "policies.csv": "policy_id,entry_age\nO1,140\nO2,145\nO3,150\nO4,148\nO5,30\n",
    "claims.csv": "policy_id,claim_age\nO1,150\nO1,139\nO1,150\nO1,141\nO2,146\nO2,150\nO2,146\n"
    "O3,150\nO3,150\nO4,149\nO4,150\nO5,40\nO5,150\n",
}
#: a law whose row 0 dips twice by 9e-10, inside the validation slack
_DIPPED_LAW = "".join(
    ["# grid origin=0 h=1 n=6 kind=distribution\n", "0\t1\t0.99999999910000001\t1\t0.99999999910000001\t1\n"]
    + ["\t".join(["0"] * (6 - i)) + "\n" for i in range(1, 6)]
)
#: matrix files that report --matrix rejects, one fault each: blanks then junk after the rows, a missing
#: row, a ragged row, a cell that is no number, and (written with surrogateescape) a cell holding the byte 0xff
_MATRIX_FAULTS = {
    "tail-junk": "0\t0.5\n0\n" + " \t\n" * 5000 + "junk\n",
    "short-rows": "0\t0.5\n",
    "ragged-row": "0\t0.5\t1\n0\n",
    "bad-cell": "0\tabc\n0\n",
    "byte-cell": "0\t0.\udcff5\n0\n",
}
#: (row, column) of the cell whose last digit law501-twin.tsv replaces by 'x'
_TWIN_CELL = (7, 100)
#: headers that solve rejects, or whose step its quadrature rules cannot divide by, with the method run
_GRID_FAULTS = {
    "digits-header": ("# grid origin=\u0660 h=1_0 n=2 kind=distribution\n0\t0.5\n0\n", "exact"),
    "letter-step-header": ("# grid origin=0 h=1x n=2 kind=distribution\n0\t0.5\n0\n", "exact"),
    "n-digit-header": ("# grid origin=0 h=1 n=\u0662 kind=distribution\n0\t0.5\n0\n", "exact"),
    "overflow-grid": ("# grid origin=1e308 h=1e308 n=3 kind=distribution\n0\t0.5\t1\n0\t1\n0\n", "exact"),
    "subnormal-step": ("# grid origin=0 h=1e-320 n=3 kind=distribution\n0\t0.5\t1\n0\t1\n0\n", "trapezoid"),
}

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

    from renewalkit.claims import _BLOCK
    from renewalkit.grids import TimeGrid, TwoTimeMatrix, write_matrix_tsv
    from renewalkit.testing import MESSY_CLAIMS, MESSY_POLICIES, geometric_law

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
    for corpus, extra in _SIGNED_FAULTS.items():
        (where / corpus).mkdir()
        for name, text in zip(("policies.csv", "claims.csv"), extra):
            (where / corpus / name).write_text((where / "signed" / name).read_text() + text)
    # traffic off the fast route: csv reads every block of the first corpus, and the last block of the second
    c3k = {name: (where / "c3k" / name).read_text().splitlines() for name in ("policies.csv", "claims.csv")}
    last = c3k["claims.csv"][-1].partition(",")[0]  # the policy whose rows end both files
    for corpus, edit, end in (("umlaut-cr", lambda row: "Ü" + row, "\r"),
                              ("late-utf8", lambda row: row.replace(last, "Ü" + last[1:]), "\r\n")):
        (where / corpus).mkdir()
        for name, (header, *rows) in c3k.items():
            (where / corpus / name).write_text(end.join([header, *map(edit, rows)]) + end, "utf-8", newline="")
    # CR LF lines whose padded ids put a read boundary of each file between a CR and its LF; no end on the last
    (where / "crlf-cut").mkdir()
    for name, (header, *rows) in c3k.items():
        text = "\r\n".join([header, *(row.replace("P", "P" + "0" * _CRLF_PAD, 1) for row in rows)])
        cuts = range(len(header) + 2 + _BLOCK, len(text), _BLOCK)  # the reads start after the header line
        if not any(text[at - 1 : at + 1] == "\r\n" for at in cuts):
            raise RuntimeError(f"no read of crlf-cut/{name} ends between a CR and its LF")
        (where / "crlf-cut" / name).write_text(text, "utf-8", newline="")
    (where / "long-cr").mkdir()
    for name in ("policies.csv", "claims.csv"):
        header, *rows = (where / "c15" / name).read_text().splitlines()
        text = "\r".join([header, *(row.replace("P", "P" + "0" * _LONG_PAD, 1) for row in rows)]) + "\r"
        (where / "long-cr" / name).write_text(text, "utf-8", newline="")
    (where / "old").mkdir()
    for name, text in _OLD.items():
        (where / "old" / name).write_text(text)
    for name, (policies, claims) in {"messy": ("", ""), **_FAULTS}.items():
        (where / name).mkdir()
        for file, text in (("policies.csv", MESSY_POLICIES + policies), ("claims.csv", MESSY_CLAIMS + claims)):
            (where / name / file).write_text(text, encoding="utf-8", errors="surrogateescape")
    write_matrix_tsv(inputs.generating_df(501, 0.1), where / "law501.tsv")
    shutil.copy(where / "law501.tsv", where / "law501-copy.tsv")
    law = (where / "law501.tsv").read_bytes().split(b"\n")
    row, column = _TWIN_CELL
    cells = law[1 + row].split(b"\t")
    cells[column - row] = cells[column - row][:-1] + b"x"  # the last digit: the twin keeps the size
    law[1 + row] = b"\t".join(cells)
    (where / "law501-twin.tsv").write_bytes(b"\n".join(law))
    write_matrix_tsv(inputs.generating_df(201, 0.25), where / "law201.tsv")
    write_matrix_tsv(inputs.generating_df(256, 0.2), where / "law256.tsv")
    write_matrix_tsv(geometric_law(0.5, 200), where / "geo201.tsv")  # about 100 renewals on the whole grid
    (where / "dip.tsv").write_text(_DIPPED_LAW)
    # a normal step so small that v / h is finite but the quadrature sweep's products overflow
    tiny = TwoTimeMatrix(TimeGrid(0.0, 3e-308, 31), geometric_law(0.9, 30).values, "distribution")
    write_matrix_tsv(tiny, where / "tiny-step.tsv")
    for name, body in _MATRIX_FAULTS.items():
        text = "# grid origin=0 h=1 n=2 kind=distribution\n" + body
        (where / f"{name}.tsv").write_text(text, encoding="utf-8", errors="surrogateescape")
    for name, (text, _) in _GRID_FAULTS.items():
        (where / f"{name}.tsv").write_text(text, encoding="utf-8")


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
        for cap in ("60", "150"):  # at 60 the old policies' claims are dropped; at 150 the tables are widest
            runs.append(["build-df", "--policies", "in/old/policies.csv", "--claims", "in/old/claims.csv",
                         "--out-dir", f"out/old-{mode}-{cap}", "--zero-duration", mode, "--cap-age", cap])
    for corpus in ("signed", "umlaut-cr", "late-utf8", "crlf-cut", "long-cr"):
        for mode in ("bucket1", "discard"):
            runs.append(["build-df", "--policies", f"in/{corpus}/policies.csv", "--claims", f"in/{corpus}/claims.csv",
                         "--out-dir", f"out/{corpus}-{mode}", "--zero-duration", mode])
    for name in (*_FAULTS, *_SIGNED_FAULTS):
        runs.append(["build-df", "--policies", f"in/{name}/policies.csv", "--claims", f"in/{name}/claims.csv",
                     "--out-dir", f"out/{name}"])
    runs.append(["build-df", "--policies", "in/c15/policies.csv", "--claims", "in/c15/claims.csv",
                 "--out-dir", "out/impute-17", "--impute-age", "17"])  # an entry age under 18
    for corpus in ("c3k", "messy"):  # --zero-duration, --cap-age and --impute-age at their defaults
        runs.append(["build-df", "--policies", f"in/{corpus}/policies.csv", "--claims", f"in/{corpus}/claims.csv",
                     "--out-dir", f"out/{corpus}-defaults"])
    for name, df in (("law501", "in/law501.tsv"), ("c3k", "out/c3k-bucket1-60/waiting_df_by_age.tsv"),
                     ("messy", "out/messy-discard-40/waiting_df_by_age.tsv"), ("dip", "in/dip.tsv")):
        for method in METHODS:
            runs.append(["solve", "--df", df, "--method", method, "--out", f"out/H-{name}-{method}.tsv"])
        if name == "law501":  # the same bytes at another path, then a twin of the same size that fails
            for twin in ("law501-copy", "law501-twin"):
                runs.append(["solve", "--df", f"in/{twin}.tsv", "--out", f"out/H-{twin}.tsv"])
        runs.append(["report", "--matrix", f"out/H-{name}-exact.tsv", "--out", f"out/report-{name}.tsv"])
        if name == "law501":  # twice in a row on one matrix
            runs.append(["report", "--matrix", "out/H-law501-exact.tsv", "--out", "out/report-law501-again.tsv"])
        runs.append(["report", "--matrix", df, "--out", f"out/report-{name}-input.tsv"])
    for method in METHODS:
        runs.append(["solve", "--df", "in/tiny-step.tsv", "--method", method, "--out", f"out/H-tiny-{method}.tsv"])
    for method in ("exact", "trapezoid"):  # a renewal matrix is no distribution, so both fail
        runs.append(["solve", "--df", "out/H-dip-exact.tsv", "--method", method, "--out", f"out/H-renewal-{method}.tsv"])
    # a homogeneous table is not a matrix TSV, so this one fails
    runs.append(["solve", "--df", "out/c3k-bucket1-60/waiting_df_merged.tsv", "--out", "out/H-merged.tsv"])
    for df, paths, seed, start, horizon in (
        ("out/c3k-bucket1-60/waiting_df_by_age.tsv", "3000", "7", "0", "42"),
        ("in/law501.tsv", "1000", "3", "10", "300"),
        ("in/law201.tsv", "100000", "17", "0", "200"),  # 7 groups of paths, the last part-filled
        ("in/law256.tsv", "20000", "19", "0", "255"),  # n = 256, the least n whose guide table is uint16
        # long paths, about one renewal every two steps, so groups stay live for many steps
        ("in/geo201.tsv", "20000", "31", "0", "200"),
        ("in/geo201.tsv", "40000", "37", "0", "62"),
        ("in/geo201.tsv", "40000", "41", "0", "63"),
        ("in/geo201.tsv", "40000", "43", "0", "64"),
        ("in/dip.tsv", "500", "13", "0", "5"),
        ("out/messy-bucket1-40/waiting_df_by_age.tsv", "300", "11", "30", "10"),  # a bad window
        ("in/dip.tsv", "0", "21", "0", "5"),  # no paths
        ("in/dip.tsv", "500", "-1", "0", "5"),  # a negative seed
        ("out/H-dip-exact.tsv", "500", "23", "4", "2"),  # a bad window on a renewal matrix
        ("in/dip.tsv", "500", "29", "0", "6"),  # a horizon at n
    ):
        runs.append(["simulate", "--df", df, "--paths", paths, "--seed", seed, "--start", start,
                     "--horizon", horizon, "--out", f"out/sim-{seed}.tsv"])
    # integer options take ASCII digits and a minus sign only: not "1_0", nor Arabic-Indic digits, nor "+"
    for option, value in (("--paths", "1_0"), ("--seed", "\u0663"), ("--start", "+0"), ("--horizon", "\u0665")):
        argv = {"--paths": "10", "--seed": "3", "--start": "0", "--horizon": "5", option: value}
        runs.append(["simulate", "--df", "in/dip.tsv", *(x for item in argv.items() for x in item),
                     "--out", f"out/sim-digits{option}.tsv"])
    for option, value in (("--cap-age", "\u0664\u0660"), ("--impute-age", "2_4")):
        runs.append(["build-df", "--policies", "in/c15/policies.csv", "--claims", "in/c15/claims.csv",
                     "--out-dir", f"out/digits{option}", option, value])
    for name in _MATRIX_FAULTS:
        runs.append(["report", "--matrix", f"in/{name}.tsv", "--out", f"out/report-{name}.tsv"])
    for name, (_, method) in _GRID_FAULTS.items():
        runs.append(["solve", "--df", f"in/{name}.tsv", "--method", method, "--out", f"out/H-{name}.tsv"])
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


def differences(base_tree: Path, change_tree: Path, inputs_dir: Path, runs: list[list[str]], work: Path) -> list[str]:
    """Run ``runs`` under both trees on copies of ``inputs_dir``, in ``work``; one line per difference."""
    base = run_tree(base_tree, inputs_dir, work / "base", runs)
    change = run_tree(change_tree, inputs_dir, work / "change", runs)
    return compare(runs, base, change, files(work / "base" / "out"), files(work / "change" / "out"))


def read_declared(path: Path) -> list[str]:
    """The declared differences: every line of ``path`` that is neither blank nor a ``#`` comment."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line for line in lines if line.strip() and not line.startswith("#")]


def report(found: list[str], declared: list[str]) -> int:
    """Print each difference and each stale declaration; 1 if any difference is undeclared or any declaration stale."""
    expected = set(declared)
    undeclared = [line for line in found if line not in expected]
    stale = sorted(expected - set(found))
    for line in found:
        print(f"{'declared' if line in expected else 'UNDECLARED'}: {line}")
    for line in stale:
        print(f"STALE: {line}")
    print(f"same_bytes: {len(found)} differences, {len(undeclared)} undeclared; "
          f"{len(expected)} declarations, {len(stale)} stale")
    return 1 if undeclared or stale else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="the revision to compare with, e.g. HEAD~")
    args = parser.parse_args(argv)
    declared = read_declared(DECLARED)
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.against],
                         capture_output=True, text=True, check=True).stdout.strip()
    tmp = Path(tempfile.mkdtemp(prefix="same_bytes_"))
    base_tree = tmp / "base-tree"
    try:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--quiet", "--detach", str(base_tree), sha],
                       check=True)
        write_inputs(tmp / "inputs")
        runs = invocations()
        found = differences(base_tree, ROOT, tmp / "inputs", runs, tmp)
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(base_tree)],
                       capture_output=True)
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"], capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"against {args.against} ({sha}), {len(runs)} invocations")
    return report(found, declared)


if __name__ == "__main__":
    raise SystemExit(main())
