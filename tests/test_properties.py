"""Property tests with fixed example budgets: the CLI exit-code contract under
random token strings, omega as an involution, plethysm associativity through
the power-sum series P_k, and pleth against its product-of-series reference."""

import contextlib
import io
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from symlie.cli import main
from symlie.plethysm import pleth
from symlie.series import GradedSeries, omega_series
from symlie.symfunc import SymFunc, p

from helpers import pleth_reference, series, symfuncs

# Complete operands of the expression language, with some near misses: an
# invalid index, a non-partition and an unknown name.
LEAVES = (
    "0", "1", "7", "-3", "p[1]", "p[0]", "h[2]", "e[3]", "s[2,1]", "s[1,2]",
    "H", "E", "HE", "Hk", "Lie", "Lie_odd", "Lie_even", "Lie_odd_alt",
    "E_odd", "E_even_alt", "Jordan", "Nope",
)
FUNCTIONS = (
    "exp", "log1p", "tan", "tanh", "arctan", "arctanh", "odd", "even", "odd_alt", "even_alt",
)
# Every token kind, the pieces of generators and calls and a non-ASCII digit.
TOKENS = LEAVES + tuple(f + "(" for f in FUNCTIONS) + (
    "p[", "h[", "e[", "s[", "]", ",", "1]", "2]", "+", "-", "*", "/", "(", ")", "o", "²",
)

# Random token strings are mostly syntax errors, so half the inputs are
# well-formed trees over the same leaves, which reach evaluation.
trees = st.recursive(
    st.sampled_from(LEAVES),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: "(%s %s %s)" % t),
        st.tuples(inner, inner).map(lambda t: "(%s) o (%s)" % t),
        st.tuples(st.sampled_from(FUNCTIONS), inner).map(lambda t: "%s(%s)" % t),
    ),
    max_leaves=6,
)
expressions = st.one_of(st.lists(st.sampled_from(TOKENS), max_size=10).map(" ".join), trees)


@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(("expand", "inverse", "pleth")),
    first=expressions,
    second=expressions,
    degree=st.integers(min_value=0, max_value=4),
    basis=st.sampled_from(("p", "s", "h", "e")),
    as_json=st.booleans(),
)
def test_cli_exit_codes_under_random_tokens(command, first, second, degree, basis, as_json):
    argv = [command, first] + ([second] if command == "pleth" else [])
    argv += ["--max-degree", str(degree), "--basis", basis] + (["--json"] if as_json else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)


@settings(max_examples=100, deadline=None)
@given(f=series())
def test_omega_is_an_involution(f):
    assert omega_series(omega_series(f)) == f


@settings(max_examples=40, deadline=None)
@given(f=series(5), g=series(5, constant=0), k=st.integers(min_value=1, max_value=3))
def test_pleth_associates_through_power_sums(f, g, k):
    p_k = GradedSeries(g.max_degree, {k: p(k)})
    assert pleth(pleth(f, g), p_k) == pleth(f, pleth(g, p_k))


# f is a SymFunc or a series, with its own bound; the examples pin a constant
# term, a p_1 term and a term above g's bound on both kinds.
@settings(max_examples=60, deadline=None)
@given(f=st.one_of(symfuncs(), series(6)), g=series(6, constant=0))
@example(f=SymFunc({(): 2, (1,): Fraction(1, 3), (2, 1): -1, (5,): 1}),
         g=GradedSeries(3, {1: p(1), 2: p(2) - p(1) * p(1)}))
@example(f=GradedSeries(6, {0: SymFunc.constant(-1), 1: p(1), 4: p(2) * p(2)}),
         g=GradedSeries(3, {1: p(1) * Fraction(1, 2), 3: p(3)}))
def test_pleth_matches_the_product_of_series_reference(f, g):
    assert pleth(f, g) == pleth_reference(f, g)
