"""Every series in the package is built by a constructor and never patched.

The memoized named series rely on this: a series that changed after it
was built would leave every later reader of the shared entry with stale
values.  The scan reads the package's source with ast and flags every
assignment to <expr>.components or <expr>.components[...] outside the two
constructors of GradedSeries.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import symlie
from symlie import GradedSeries, SymFunc, omega_series
from symlie.lie import e_series, h_series, named_series

SOURCES = sorted(Path(symlie.__file__).parent.glob("*.py"))
CONSTRUCTORS = {"GradedSeries.__init__", "GradedSeries._of"}


def _leaves(target):
    """The single targets inside a (possibly nested) tuple or list target."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return [leaf for elt in target.elts for leaf in _leaves(elt)]
    if isinstance(target, ast.Starred):
        return _leaves(target.value)
    return [target]


def _writes_components(target) -> bool:
    while isinstance(target, ast.Subscript):
        target = target.value
    return isinstance(target, ast.Attribute) and target.attr == "components"


def component_writes(source: str):
    """(line, enclosing qualified name) of every assignment to .components."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Assign):
                targets = child.targets
            elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                targets = [child.target]
            else:
                targets = []
            if any(_writes_components(leaf) for t in targets for leaf in _leaves(t)):
                found.append((child.lineno, ".".join(scope)))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_the_scan_finds_every_form_of_assignment():
    source = (
        "def f(s, t):\n"
        "    s.components = []\n"
        "    s.components[1] = 0\n"
        "    s.components[1] += 0\n"
        "    a, (t.components, b) = 0, (0, 0)\n"
        "    comps = s.components\n"
        "    comps[1] = 0\n"
    )
    assert component_writes(source) == [(2, "f"), (3, "f"), (4, "f"), (5, "f")]


def test_only_the_constructors_assign_components():
    found = {path.name: component_writes(path.read_text()) for path in SOURCES}
    outside = [(name, line, scope) for name, writes in found.items()
               for line, scope in writes if scope not in CONSTRUCTORS]
    assert outside == []
    # the scan does see the two writes it allows
    assert {scope for writes in found.values() for _, scope in writes} == CONSTRUCTORS


def test_degree_keeping_maps_give_homogeneous_components():
    # -, scalar * and omega_series hand their mapped components to _of
    # unchecked, so each must keep every component in its degree
    f = GradedSeries(4, {0: 2, 1: SymFunc({(1,): 3}),
                         3: SymFunc({(2, 1): Fraction(1, 2), (3,): -1}),
                         4: SymFunc({(1, 1, 1, 1): 5, (4,): Fraction(2, 7)})})
    assert not hasattr(GradedSeries, "map_components")
    for result in (-f, f * Fraction(-3, 4), f * 0, omega_series(f)):
        assert result.max_degree == 4
        for d, part in enumerate(result.components):
            assert part.degrees() <= {d}, (d, part)
        assert result == GradedSeries(4, result.components)


def test_closed_form_series_pass_the_checking_constructor():
    # H, E and HE hand their components to _of unchecked, and Hk derives
    # from HE: rebuilt through the validating constructors, none changes
    for name in ("H", "E", "HE", "Hk"):
        s = named_series(name, 18)
        rebuilt = GradedSeries(18, [SymFunc(part.terms) for part in s.components])
        assert s == rebuilt, name


def test_closed_form_series_reject_a_negative_bound():
    # as GradedSeries(-1) does; an empty list is no series
    for build in (h_series, e_series, lambda n: named_series("HE", n)):
        with pytest.raises(ValueError, match="nonnegative"):
            build(-1)
    with pytest.raises(ValueError, match="nonnegative"):
        GradedSeries(-1)
