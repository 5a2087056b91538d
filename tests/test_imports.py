"""Every module under src/cutgraphon uses each name it imports and converts
arguments only through core's checked coercions, and every name the
benchmark's tracer rebinds exists."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cutgraphon"
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# __init__.py imports names only to re-export them as the public API
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_flags_an_unused_name():
    src = "from typing import Optional, Sequence\nimport os\n\ndef f(x: Optional[int]):\n    return x\n"
    assert unused_imports(src) == [(1, "Sequence"), (2, "os")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# the checked coercions: every other conversion of an argument goes through them
COERCIONS = {("core", "_as_array"), ("core", "_as_indices")}


def stray_asarray_calls(package: Path):
    """(module, top-level definition, line) of each asarray call under
    `package` outside COERCIONS."""
    found = []
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where = (path.stem, getattr(top, "name", None))
            found += [(*where, node.lineno) for node in ast.walk(top)
                      if isinstance(node, ast.Call) and where not in COERCIONS
                      and "asarray" in (getattr(node.func, "attr", None),
                                        getattr(node.func, "id", None))]
    return found


def test_checker_flags_asarray_outside_the_coercions(tmp_path):
    (tmp_path / "core.py").write_text(
        "import numpy as np\n\ndef _as_array(x):\n    return np.asarray(x)\n\n"
        "def f(x):\n    return np.asarray(x)\n")
    (tmp_path / "m.py").write_text(
        "from numpy import asarray\nimport numpy as np\n\nclass A:\n"
        "    def f(self, x):\n        return np.array(x), asarray(x)\n")
    assert stray_asarray_calls(tmp_path) == [("core", "f", 7), ("m", "A", 6)]


def test_only_the_coercions_call_asarray():
    assert stray_asarray_calls(PACKAGE) == []


def rebound_names(source: str):
    """(module, attribute) of every entry in a tracer's CROSS_MODULE and CAPTURED."""
    names = []
    for node in ast.parse(source).body:
        targets = [t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)]
        if {"CROSS_MODULE", "CAPTURED"} & set(targets):
            names += [entry[:2] for entry in ast.literal_eval(node.value)]
    return names


def test_tracer_rebinds_only_names_that_exist():
    # the tracer is read, not imported: a renamed name would otherwise fail
    # only the benchmark's own tests and its traced runs
    names = rebound_names(TRACER.read_text())
    assert ("cutgraphon.distance", "_max_rectangle_sum") in names
    assert [(mod, attr) for mod, attr in names
            if not hasattr(importlib.import_module(mod), attr)] == []
