"""Every public function and class under src/cutgraphon has a caller outside tests/."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cutgraphon"
# names whose callers are tests or files that users write, each for a reason
ALLOWED = {
    "exact_restricted_ls": "the exhaustive oracle that criterion 07 checks the fit against",
    "kernel_witness_value": "replays a step-kernel cut witness, as matrix_witness_value does",
    "save_stepgraphon": "writes the record that sample, distance and regularity read",
    "load_packing_family": "reads the directory that `cutgraphon packing --out` writes",
}


def public_definitions(source: str):
    """Module-level functions and classes whose names do not start with '_'."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def referenced_names(source: str):
    """Names read and attributes taken by each top-level statement, except
    the name that the statement itself defines."""
    found = set()
    for stmt in ast.parse(source).body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        found |= names
    return found


def uncalled(package: Path, callers):
    """Public names defined in `package` that no file in `callers` references."""
    defined = {name for path in package.glob("*.py") if path.name != "__init__.py"
               for name in public_definitions(path.read_text())}
    used = set()
    for path in callers:
        used |= referenced_names(path.read_text())
    return sorted(defined - used)


def caller_files(root: Path):
    """The package's modules, the demos and the benchmark, without test files."""
    return [p for p in (sorted((root / "src" / "cutgraphon").glob("*.py"))
                        + sorted((root / "demos").glob("*.py"))
                        + sorted((root / "perfbench").glob("*.py")))
            if p.name != "__init__.py" and not p.name.startswith("test_")]


def test_checker_flags_a_name_only_its_own_body_reads(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .m import lonely, used, Shape\n")
    (pkg / "m.py").write_text(
        "def lonely(n):\n    return lonely(n - 1) if n else 0\n\n"
        "def used():\n    return Shape()\n\n"
        "class Shape:\n    pass\n\n"
        "def _private():\n    pass\n")
    demo = tmp_path / "demo.py"
    demo.write_text("import pkg\nprint(pkg.used())\n")
    assert uncalled(pkg, [pkg / "m.py", demo]) == ["lonely"]


def test_test_files_are_not_callers(tmp_path):
    for rel in ("src/cutgraphon/__init__.py", "src/cutgraphon/m.py", "demos/d.py",
                "perfbench/run.py", "perfbench/test_run.py"):
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text("")
    assert [p.relative_to(tmp_path).as_posix() for p in caller_files(tmp_path)] == [
        "src/cutgraphon/m.py", "demos/d.py", "perfbench/run.py"]


def test_every_public_name_has_a_caller():
    # an allowance that is no longer needed fails here too
    assert uncalled(PACKAGE, caller_files(ROOT)) == sorted(ALLOWED)
