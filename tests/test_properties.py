"""Property tests with fixed example budgets: the CLI exit-code contract under
random token strings, omega as an involution, plethysm associativity through
the power-sum series P_k, pleth against its product-of-series reference,
the prime-product partition keys of the integer multiplication kernel, and
the integer form each SymFunc keeps."""

import contextlib
import io
from fractions import Fraction
from functools import reduce
from math import comb, gcd
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import symlie.symfunc as symfunc
from symlie.cli import main
from symlie.lie import e_series, named_series
from symlie.partitions import partitions_of
from symlie.plethysm import pleth
from symlie.series import GradedSeries, omega_series, parity_split, series_div
from symlie.symfunc import (
    _PRIMES,
    EXPONENTIAL_WEIGHTS,
    SymFunc,
    _constant_form,
    _form_of_products,
    _integer_form,
    _key,
    _from_form,
    _partition,
    exponential_part,
    p,
)

from helpers import coefficients, pleth_reference, series, symfunc_mul_reference, symfuncs

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


# --- prime-product partition keys ------------------------------------------------


def test_partition_keys_round_trip():
    assert _key(()) == 1
    for n in range(15):
        for lam in partitions_of(n):
            assert _partition(_key(lam)) == lam


def test_products_bring_in_primes_not_yet_issued():
    fresh = max(_PRIMES) + 1  # a part whose prime is not issued yet
    assert p(97) * p(1000) == SymFunc({(1000, 97): 1})
    f = p(fresh) * Fraction(1, 3) + p(2)
    g = p(fresh + 1) - p(fresh) * p(1)
    assert f * g == symfunc_mul_reference(f, g)
    assert f * g == SymFunc({
        (fresh + 1, fresh): Fraction(1, 3), (fresh, fresh, 1): Fraction(-1, 3),
        (fresh + 1, 2): 1, (fresh, 2, 1): -1,
    })


def test_a_huge_part_issues_one_prime(monkeypatch):
    # a part gets the next prime when it is first seen, so p(10**6) costs
    # one prime, not a sieve up to the 10**6-th; p() builds fresh SymFuncs,
    # so no form kept under the full prime table is read here
    monkeypatch.setattr(symfunc, "_PRIMES", {})
    _key.cache_clear()
    _partition.cache_clear()
    try:
        assert p(10**6) * p(1) == SymFunc({(10**6, 1): 1})
        assert symfunc._PRIMES == {10**6: 2, 1: 3}
    finally:
        # the cached keys were made with the emptied table
        _key.cache_clear()
        _partition.cache_clear()


@pytest.mark.parametrize("lam", [(0,), (2, -1)])
def test_a_part_without_a_prime_is_rejected(lam):
    # P(0) and P(-1) do not exist; a key for them would alias another part
    with pytest.raises(ValueError, match="not positive"):
        SymFunc({lam: 1}) * p(1)


@pytest.mark.parametrize("m", [31, 32, 63, 64])
def test_high_multiplicities(m):
    assert reduce(mul, [p(1)] * m) == SymFunc({(1,) * m: 1})
    # (p_2 + p_1)^m = sum_j C(m, j) p_2^j p_1^(m-j): both multiplicities reach m
    binomial = reduce(mul, [p(2) + p(1)] * m)
    assert binomial == SymFunc({(2,) * j + (1,) * (m - j): comb(m, j) for j in range(m + 1)})


def test_p1_forty_squared():
    p1_40 = reduce(mul, [p(1)] * 40)
    assert p1_40 * p1_40 == SymFunc({(1,) * 80: 1})
    assert p1_40 * p1_40 == symfunc_mul_reference(p1_40, p1_40)


# Sparse elements with parts up to 300, so products issue new primes.
wide_symfuncs = st.dictionaries(
    st.lists(st.integers(min_value=1, max_value=300), max_size=4).map(
        lambda parts: tuple(sorted(parts, reverse=True))
    ),
    coefficients,
    max_size=4,
).map(SymFunc)


@settings(max_examples=150, deadline=None)
@given(f=st.one_of(symfuncs(), wide_symfuncs), g=st.one_of(symfuncs(), wide_symfuncs))
def test_mul_matches_the_term_by_term_reference(f, g):
    assert f * g == symfunc_mul_reference(f, g)


@settings(max_examples=30, deadline=None)
@given(g=series(12, constant=0), m=st.integers(min_value=1, max_value=12))
def test_pleth_of_a_high_power_matches_the_reference(g, m):
    f = reduce(mul, [p(1)] * m) + p(2) * Fraction(1, 2)
    assert pleth(f, g) == pleth_reference(f, g)


@settings(max_examples=100, deadline=None)
@given(pairs=st.lists(st.tuples(symfuncs(), symfuncs()), max_size=3), scale=coefficients)
def test_forms_of_products_are_in_lowest_terms(pairs, scale):
    forms = [(_integer_form(x), _integer_form(y)) for x, y in pairs if x and y]
    expected = sum((x * y for x, y in pairs), SymFunc.zero()) * scale
    form = _form_of_products(forms, scale)
    assert _from_form(form) == expected
    if not expected:
        assert form is None
        return
    terms, den = form
    assert den > 0 and all(v for _, v in terms)
    assert gcd(den, *(v for _, v in terms)) == 1
    # the same form, term for term, as writing the sum out and encoding it
    expected_terms, expected_den = _integer_form(expected)
    assert (dict(terms), den) == (dict(expected_terms), expected_den)


# --- the integer form kept on each SymFunc ---------------------------------------


def _recomputed_form(f: SymFunc):
    """f's integer form computed afresh from its terms."""
    return _integer_form(SymFunc(f.terms))


@settings(max_examples=100, deadline=None)
@given(f=symfuncs(), g=symfuncs(), c=coefficients)
def test_kept_forms_match_the_terms(f, g, c):
    # the operands keep their forms first, so a result that wrongly shared
    # one would show
    assert _integer_form(f) == _recomputed_form(f)
    assert _integer_form(g) == _recomputed_form(g)
    assert _constant_form(c) == _integer_form(SymFunc.constant(c))
    for x in (f + g, f - g, -f, f * g, f * c, f * f):
        assert _integer_form(x) == _recomputed_form(x)
        assert _integer_form(x) is _integer_form(x)


def test_kernel_outputs_keep_the_forms_of_their_terms():
    n = 10
    E = e_series(n)
    quotient = series_div(parity_split(E, "odd"), parity_split(E, "even"))
    outputs = [exponential_part(d, w) for d in range(n) for w in EXPONENTIAL_WEIGHTS.values()]
    outputs += quotient.components + (E * quotient).components
    outputs += pleth(quotient, named_series("Lie_odd", n)).components
    for x in outputs:
        assert _integer_form(x) == _recomputed_form(x)
