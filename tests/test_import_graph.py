"""The import graph of the package, pinned.

Each module of src/symlie may import only the modules listed for it here.
The engine (lie, plethysm, series, symfunc, partitions) imports nothing
from oracle, the independent computations that verify compares it with, so
an oracle cannot share code with what it checks.  A new edge between
modules is a change to this table, made and reviewed on purpose.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "symlie"

IMPORTS = {
    "__init__": {"lie", "oracle", "partitions", "plethysm", "series", "symfunc", "verify"},
    "cli": {"expr", "partitions", "plethysm", "series", "symfunc", "verify"},
    "expr": {"lie", "partitions", "plethysm", "series", "symfunc"},
    "lie": {"partitions", "plethysm", "series", "symfunc"},
    "oracle": {"partitions", "symfunc"},
    "partitions": set(),
    "plethysm": {"series", "symfunc"},
    "series": {"partitions", "symfunc"},
    "symfunc": {"partitions"},
    "verify": {"expr", "lie", "oracle", "partitions", "plethysm", "series", "symfunc"},
}


def package_imports(source: str) -> set:
    """The modules of the package that source imports, at any depth of the
    file: relative imports, and absolute ones of symlie.<module>."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "symlie" and not module.startswith("symlie."):
                    continue
                module = module[len("symlie."):] if "." in module else ""
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("symlie."))
    return found


def test_each_module_imports_only_what_the_table_lists():
    modules = {path.stem: package_imports(path.read_text())
               for path in sorted(PACKAGE.glob("*.py"))}
    for name in sorted(modules.keys() | IMPORTS.keys()):
        assert modules.get(name) == IMPORTS.get(name), name


def test_the_scan_finds_every_form_of_import():
    source = """
from .lie import lie
from . import oracle
from symlie.series import GradedSeries
from symlie import verify
import symlie.plethysm
import fractions
from fractions import Fraction
def late():
    from .cli import main
"""
    assert package_imports(source) == {"lie", "oracle", "series", "verify", "plethysm", "cli"}
