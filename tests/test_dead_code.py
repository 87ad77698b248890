"""Every definition in src/symlie has a caller in src/symlie.

A top-level function or class, or a public method of a class, must be
named somewhere in the package outside its own definition (a call, an
attribute read, a decorator, a use as a value), unless symlie/__init__.py
exports it; cli.main is the entry point.  A definition that only the tests
call is code with no purpose in the package: it goes, or the check that
needs it moves into the tests.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "symlie"

ENTRY_POINTS = {("cli", "main")}


def definitions(tree: ast.Module):
    """(name, node) of each top-level function and class of a module, and
    (Class.name, node) of each public method of its classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, defs[:2]) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member


def names_used(tree: ast.AST) -> Counter:
    """How often tree reads each identifier, as a bare name or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def exported(tree: ast.Module) -> set:
    """The names the package's __init__ imports from its modules."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def unused_definitions(sources: dict) -> list:
    """module.name of each definition in sources (module -> source text)
    that no code outside its own definition names and that is not exported."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    exports = exported(trees["__init__"]) if "__init__" in trees else set()
    everywhere = sum(map(names_used, trees.values()), Counter())
    unused = []
    for module, tree in sorted(trees.items()):
        for name, node in definitions(tree):
            short = name.rsplit(".", 1)[-1]
            if (module, name) in ENTRY_POINTS or ("." not in name and name in exports):
                continue
            if everywhere[short] == names_used(node)[short]:
                unused.append(f"{module}.{name}")
    return unused


def test_every_definition_in_the_package_has_a_caller():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert {"__init__", "cli", "symfunc"} <= sources.keys()
    assert unused_definitions(sources) == []


def test_the_scan_flags_what_only_its_own_body_names():
    sources = {
        "__init__": "from .a import exported",
        "a": '''
def exported():
    return helper()

def helper():
    return 1

def recursive(n):
    return recursive(n - 1) if n else 0

class Box:
    def used(self):
        return self.value

    def unused(self):
        return self.used()

    def _private(self):
        return 0

def reads_value():
    return Box().used()
''',
    }
    assert unused_definitions(sources) == ["a.recursive", "a.Box.unused", "a.reads_value"]
