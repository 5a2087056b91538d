"""Every dataclass field under src/cutgraphon is read as an attribute by a
non-test file of the package, the demos or the benchmark, outside its own
class body: a field that nothing reads only echoes an input or repeats
another output.

Reads are matched by attribute name, so a field whose name other objects
also carry (a `.seed`, a `.q0`) passes whenever any of them is read."""

import ast
from pathlib import Path

from test_defaulted_parameters import _is_dataclass
from test_public_names import PACKAGE, ROOT, caller_files

# fields that no code outside tests reads, each for a reason
ALLOWED = {
    ("SvtEstimate", "raw"): "criterion 06 checks the unclipped expansion's round trip",
}


def dataclass_fields(source: str):
    """(class, field) for each annotated field of a module-level dataclass."""
    return [(node.name, stmt.target.id)
            for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef) and _is_dataclass(node)
            for stmt in node.body if isinstance(stmt, ast.AnnAssign)]


def attribute_reads(source: str):
    """{(attribute name, enclosing module-level class or None)} for every
    attribute read in `source`."""
    found = set()
    for stmt in ast.parse(source).body:
        owner = stmt.name if isinstance(stmt, ast.ClassDef) else None
        found |= {(node.attr, owner) for node in ast.walk(stmt)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return found


def unread(package: Path, callers):
    """(class, field) pairs of `package`'s dataclasses that no file in
    `callers` reads, except inside the body of the field's own class."""
    reads = {path.resolve(): attribute_reads(path.read_text()) for path in callers}
    missing = []
    for path in package.glob("*.py"):
        for cls, name in dataclass_fields(path.read_text()):
            if not any(attr == name and (where != path.resolve() or owner != cls)
                       for where, found in reads.items() for attr, owner in found):
                missing.append((cls, name))
    return sorted(missing)


def test_checker_flags_a_field_only_its_class_reads(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "m.py").write_text(
        "from dataclasses import dataclass\n\n"
        "@dataclass(frozen=True)\nclass Fit:\n    value: float\n    echo: int\n"
        "    own: int\n    by_test: int\n\n"
        "    @property\n    def twice(self):\n        return 2 * self.own\n\n"
        "class Plain:\n    unread: int = 0\n\n"
        "def fit():\n    return Fit(1.0, 2, 3, 4)\n")
    demo = tmp_path / "demo.py"
    demo.write_text("import pkg\nf = pkg.m.fit()\nprint(f.value, f.twice)\nf.echo = 1\n")
    test = tmp_path / "test_m.py"
    test.write_text("import pkg\nassert pkg.m.fit().by_test == 4\n")
    # echo is only assigned, own only read inside Fit, by_test only by a test
    assert unread(pkg, [pkg / "m.py", demo]) == [
        ("Fit", "by_test"), ("Fit", "echo"), ("Fit", "own")]
    assert unread(pkg, [pkg / "m.py", demo, test]) == [("Fit", "echo"), ("Fit", "own")]


def test_every_field_is_read():
    # an allowance that is no longer needed fails here too
    assert unread(PACKAGE, caller_files(ROOT)) == sorted(ALLOWED)
