"""tools/same_bytes.py on two small fake trees: undeclared, declared and stale differences."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "same_bytes", Path(__file__).resolve().parents[1] / "tools" / "same_bytes.py"
)
same_bytes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_bytes)

#: a stand-in CLI: ``main([name])`` prints a greeting and writes out/<name>
_CLI = """
from pathlib import Path

def main(argv):
    name, = argv
    print({greeting!r} + name)
    Path("out", name).write_text({texts!r}.get(name, "same"))
    return 0
"""
_RUNS = [["a.txt"], ["b.txt"]]


def _tree(root, greeting="hello ", texts=None):
    package = root / "src" / "renewalkit"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(_CLI.format(greeting=greeting, texts=texts or {}))
    return root


def _differences(tmp_path, change_tree):
    (tmp_path / "inputs").mkdir()
    base_tree = _tree(tmp_path / "base-tree")
    return same_bytes.differences(base_tree, change_tree, tmp_path / "inputs", _RUNS, tmp_path / "work")


def test_identical_trees_pass_with_nothing_declared(tmp_path, capsys):
    assert _differences(tmp_path, _tree(tmp_path / "change-tree")) == []
    assert same_bytes.report([], []) == 0
    assert capsys.readouterr().out == "same_bytes: 0 differences, 0 undeclared; 0 declarations, 0 stale\n"


def test_differences_pass_only_when_each_is_declared_and_each_declaration_occurs(tmp_path, capsys):
    change = _tree(tmp_path / "change-tree", greeting="hi ", texts={"b.txt": "changed"})
    found = _differences(tmp_path, change)
    assert found == ["stdout differs: a.txt", "stdout differs: b.txt", "file differs: b.txt"]

    # undeclared: one of the three is not in the file
    assert same_bytes.report(found, found[:2]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "UNDECLARED: file differs: b.txt" in out
    assert out[-1] == "same_bytes: 3 differences, 1 undeclared; 2 declarations, 0 stale"

    # declared: the file lists exactly what differs, with comments and blank lines around it
    declared = tmp_path / "declared.txt"
    declared.write_text("# the greeting changes\n" + "\n".join(found[:2]) + "\n\n# b.txt\n" + found[2] + "\n")
    assert same_bytes.read_declared(declared) == found
    assert same_bytes.report(found, same_bytes.read_declared(declared)) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == [f"declared: {line}" for line in found]

    # stale: a declared difference that no longer occurs fails too
    assert same_bytes.report(found, [*found, "exit code differs: a.txt"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "STALE: exit code differs: a.txt" in out
    assert out[-1] == "same_bytes: 3 differences, 0 undeclared; 4 declarations, 1 stale"


def test_a_file_only_one_tree_writes_is_a_difference(tmp_path):
    change = _tree(tmp_path / "change-tree")
    (change / "src" / "renewalkit" / "cli.py").write_text("def main(argv):\n    return 0\n")
    assert _differences(tmp_path, change) == [
        "stdout differs: a.txt",
        "stdout differs: b.txt",
        "file missing from the working tree's output: a.txt",
        "file missing from the working tree's output: b.txt",
    ]
