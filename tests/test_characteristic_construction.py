"""Every Frobenius characteristic sum_mu chi(mu) p_mu / z_mu built from a
class function goes through symfunc.frobenius: it is the one function in
the package that calls z_of.  The scan reads the package's source with ast
and records the enclosing function of every call to z_of, under any name
an import binds it to, so a fifth hand-written characteristic loop fails
here."""

import ast
from pathlib import Path

import symlie

SOURCES = sorted(Path(symlie.__file__).parent.glob("*.py"))


def z_of_calls(source: str, module: str):
    """(line, module.enclosing qualified name) of every call to z_of."""
    tree = ast.parse(source)
    names = {"z_of"} | {
        alias.asname for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name == "z_of" and alias.asname
    }
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Name) and func.id in names
                        or isinstance(func, ast.Attribute) and func.attr == "z_of"):
                    found.append((child.lineno, ".".join(scope)))
            visit(child, scope)

    visit(tree, (module,))
    return found


def test_the_scan_finds_every_form_of_call():
    source = (
        "from .partitions import z_of as z\n"
        "from . import partitions\n"
        "def f(mu):\n"
        "    return z_of(mu)\n"
        "class C:\n"
        "    def g(self, mu):\n"
        "        return {m: 1 / z(m) for m in [mu]}\n"
        "def h(mu):\n"
        "    return partitions.z_of(mu)\n"
        "top = z_of(())\n"
    )
    assert z_of_calls(source, "m") == [(4, "m.f"), (7, "m.C.g"), (9, "m.h"), (10, "m")]


def test_only_frobenius_calls_z_of():
    calls = [(path.name, line, scope) for path in SOURCES
             for line, scope in z_of_calls(path.read_text(), path.stem)]
    assert {scope for _, _, scope in calls} == {"symfunc.frobenius"}, calls
