"""Every parameter of every function and method under src/cutgraphon is read
in its body: a parameter that is never read cannot change what the function
returns."""

import ast
from pathlib import Path

from test_public_names import PACKAGE

# parameters that no body reads, each for a reason
ALLOWED = {
    ("cli._Given.__call__", "parser"): "argparse.Action's call protocol passes it",
    ("cli._Given.__call__", "option_string"): "argparse.Action's call protocol passes it",
}


def unread_parameters(source: str, module: str):
    """(module.qualified name, parameter) for each parameter of a function or
    method in `source` that its body, nested functions included, never reads."""
    found = []

    def visit(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
                params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
                read = {n.id for stmt in node.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                found.extend((f"{prefix}{node.name}", p) for p in params if p not in read)
                visit(node.body, f"{prefix}{node.name}.")

    visit(ast.parse(source).body, f"{module}.")
    return found


def unread(package: Path):
    return sorted(found for path in package.glob("*.py")
                  for found in unread_parameters(path.read_text(), path.stem))


def test_checker_flags_a_parameter_no_body_reads(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "m.py").write_text(
        "def f(a, b, *args, c=1, **kw):\n    return a + c\n\n"
        "def outer(x, y):\n    def inner(z):\n        return x\n    return inner\n\n"
        "class Box:\n    def size(self, unit):\n        return 1\n\n"
        "    @staticmethod\n    def make(w):\n        return Box()\n")
    # x counts as read: the nested function reads it
    assert unread(pkg) == [
        ("m.Box.make", "w"), ("m.Box.size", "self"), ("m.Box.size", "unit"),
        ("m.f", "args"), ("m.f", "b"), ("m.f", "kw"), ("m.outer", "y"),
        ("m.outer.inner", "z")]


def test_every_parameter_is_read():
    # an allowance that is no longer needed fails here too
    assert unread(PACKAGE) == sorted(ALLOWED)
