"""Every module under src/cutgraphon imports only the standard library,
numpy and the package itself, uses each name it imports and converts
arguments only through core's checked coercions (arrays through `_as_array`
and `_as_indices`, scalars through `_as_int` and `_as_real`), and every name
the benchmark's tracer rebinds exists."""

import ast
import importlib
import sys
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


def foreign_imports(source: str):
    """(line, module) of each import from outside the standard library,
    numpy and the package itself (relative imports)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] not in sys.stdlib_module_names | {"numpy"}]
    return found


def test_checker_flags_a_foreign_import():
    src = ("import os\nimport numpy as np\nimport scipy.linalg\nfrom . import core\n\n"
           "def f():\n    from pandas import DataFrame\n    from numpy.linalg import eigvalsh\n")
    assert foreign_imports(src) == [(3, "scipy.linalg"), (7, "pandas")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_the_standard_library_and_numpy(path):
    assert foreign_imports(path.read_text()) == []


# the checked coercions: every other conversion of an argument goes through them
COERCIONS = {("core", "_as_array"), ("core", "_as_indices")}
# the scalar coercions: the only readers of the numeric tower
SCALAR_COERCIONS = {("core", "_as_int"), ("core", "_as_real")}
TOWER = {"Integral", "Real"}


def stray_nodes(package: Path, allowed, matches):
    """(module, top-level definition, line) of each AST node under `package`
    that `matches`, outside the definitions in `allowed`."""
    found = []
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where = (path.stem, getattr(top, "name", None))
            found += [(*where, node.lineno) for node in ast.walk(top)
                      if where not in allowed and matches(node)]
    return found


def stray_asarray_calls(package: Path):
    """Each asarray call under `package` outside COERCIONS."""
    return stray_nodes(package, COERCIONS, lambda node: (
        isinstance(node, ast.Call)
        and "asarray" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))))


def stray_tower_names(package: Path):
    """Each use of numbers.Integral or numbers.Real under `package` outside SCALAR_COERCIONS."""
    return stray_nodes(package, SCALAR_COERCIONS, lambda node: (
        isinstance(node, ast.Attribute) and node.attr in TOWER
        or isinstance(node, ast.ImportFrom) and node.module == "numbers"
        and bool(TOWER & {alias.name for alias in node.names})))


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


def test_checker_flags_the_numeric_tower_outside_the_coercions(tmp_path):
    (tmp_path / "core.py").write_text(
        "import numbers\n\ndef _as_int(x):\n    return isinstance(x, numbers.Integral)\n\n"
        "def _as_real(x):\n    return isinstance(x, numbers.Real)\n\n"
        "def f(x):\n    return isinstance(x, numbers.Real)\n")
    (tmp_path / "m.py").write_text(
        "from numbers import Integral\nimport numbers\n\nclass A:\n"
        "    def f(self, x):\n        return isinstance(x, numbers.Integral)\n")
    assert stray_tower_names(tmp_path) == [("core", "f", 10), ("m", None, 1), ("m", "A", 6)]


def test_only_the_scalar_coercions_read_the_numeric_tower():
    assert stray_tower_names(PACKAGE) == []


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
