"""Every plethysm runs through the one Horner driver, series._horner, and
only series.py knows the trie it builds and walks: the node tuples
(bound, S, children) and the columns p_k[g].  The scan reads the
package's source with ast and records every name, attribute, import or
definition of _horner_degree, the driver's step at one node, or of a
_trie builder outside series.py, so a second copy of the Horner loop in
another module fails here."""

import ast
from pathlib import Path

import symlie

SOURCES = sorted(Path(symlie.__file__).parent.glob("*.py"))
TRIE_NAMES = {"_trie", "_horner_degree"}


def trie_names(source: str):
    """(line, name) of every use, attribute, import or definition of a
    trie name in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, (ast.FunctionDef, ast.alias)):
            name = node.name
        else:
            continue
        if name in TRIE_NAMES:
            found.append((node.lineno, name))
    return sorted(found)


def test_the_scan_finds_every_form_of_use():
    source = (
        "from .series import _trie as walk\n"
        "from . import series\n"
        "def f(items):\n"
        "    return series._horner_degree(items, 1)\n"
        "def _trie(items):\n"
        "    return _horner_degree(items, 2)\n"
    )
    assert trie_names(source) == [(1, "_trie"), (4, "_horner_degree"), (5, "_trie"),
                                  (6, "_horner_degree")]


def test_only_series_knows_the_trie():
    uses = {path.name: trie_names(path.read_text()) for path in SOURCES}
    assert uses["series.py"], "the scan found no trie in series.py"
    assert {name: found for name, found in uses.items()
            if found and name != "series.py"} == {}
