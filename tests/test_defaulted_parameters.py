"""Every defaulted parameter and dataclass field under src/cutgraphon is set
by some call outside the tests: a default that only tests change is a knob
no user turns."""

import ast
from pathlib import Path

from test_public_names import PACKAGE, ROOT, caller_files

# parameters that no non-test call sets, each for a reason
ALLOWED = {
    ("main", "argv"): "the console entry point reads sys.argv; tests pass argv",
    ("exact_restricted_ls", "rho"): "the rho < 1 oracle that tests check the fit against",
    ("SvtConfig", "threshold"): "criterion 06 sets it to keep or drop every eigenpair",
}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def defaulted(source: str):
    """(callable, parameter, position) for each defaulted parameter and each
    dataclass field with a default.  A method's `self` takes no position,
    `__init__` is called by its class name, and a keyword-only parameter
    has position None."""
    found = []

    def visit(body, cls=None):
        for node in body:
            if isinstance(node, ast.ClassDef):
                if _is_dataclass(node):
                    fields = [s for s in node.body if isinstance(s, ast.AnnAssign)]
                    found.extend((node.name, s.target.id, i)
                                 for i, s in enumerate(fields) if s.value is not None)
                visit(node.body, node)
            elif isinstance(node, ast.FunctionDef):
                a = node.args
                pos = [p.arg for p in a.posonlyargs + a.args]
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in node.decorator_list)
                if cls is not None and not static:
                    pos = pos[1:]
                name = cls.name if cls is not None and node.name == "__init__" else node.name
                first = len(pos) - len(a.defaults)
                found.extend((name, p, i) for i, p in enumerate(pos) if i >= first)
                found.extend((name, p.arg, None)
                             for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
                visit(node.body)

    visit(ast.parse(source).body)
    return found


def call_sites(paths):
    """{callee name: (keywords passed, most positional arguments passed)}
    over every call in `paths`; `*args` counts as every position and
    `**kwargs` as every keyword."""
    sites = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name is None:
                continue
            keywords, most = sites.get(name, (frozenset(), 0))
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            sites[name] = (keywords | {kw.arg for kw in node.keywords},
                           max(most, float("inf") if starred else len(node.args)))
    return sites


def unset(package: Path, callers):
    """(callable, parameter) pairs defined in `package` that no call in
    `callers` passes, by keyword or by position."""
    sites = call_sites(callers)
    missing = set()
    for path in package.glob("*.py"):
        for name, param, position in defaulted(path.read_text()):
            keywords, most = sites.get(name, (frozenset(), 0))
            if not ({param, None} & keywords
                    or position is not None and most > position):
                missing.add((name, param))
    return sorted(missing)


def test_checker_flags_a_default_only_a_test_sets(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "m.py").write_text(
        "from dataclasses import dataclass\n\n"
        "def f(a, b=1, c=2, *, d=3, e=4):\n    return a + b + c + d + e\n\n"
        "@dataclass\nclass Config:\n    x: int\n    y: int = 0\n    z: int = 1\n\n"
        "class Box:\n    def __init__(self, w=1, h=1):\n        self.w, self.h = w, h\n")
    demo = tmp_path / "demo.py"
    demo.write_text("import pkg\npkg.f(0, 1, d=2)\npkg.Config(1, 2)\npkg.m.Box(3)\n")
    test = tmp_path / "test_m.py"
    test.write_text("import pkg\npkg.f(0, 1, 2, e=0)\npkg.Config(1, z=0)\npkg.m.Box(h=2)\n")
    assert unset(pkg, [pkg / "m.py", demo]) == [
        ("Box", "h"), ("Config", "z"), ("f", "c"), ("f", "e")]
    assert unset(pkg, [pkg / "m.py", demo, test]) == []


def test_every_defaulted_parameter_has_a_caller():
    # an allowance that is no longer needed fails here too
    assert unset(PACKAGE, caller_files(ROOT)) == sorted(ALLOWED)
