import importlib
from fractions import Fraction
from math import factorial
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symlie.lie import (
    SERIES_REGISTRY,
    _jacobi_trudi_skew,
    compose_named,
    e_series,
    h_series,
    hk,
    hk_alt_series,
    hook_series,
    jordan_series,
    lie,
    lie_series,
    named_series,
    staircase_skew,
)
from symlie.oracle import (
    alternating_count,
    monomial_pleth_collected,
    specialize_collected,
    syt_count,
)
from symlie.partitions import staircase
from symlie.plethysm import ConstantTermError, pleth
from symlie.series import GradedSeries, series_div
from symlie.symfunc import SymFunc, dimension, e, h, p, schur, schur_expand
from symlie.verify import run_check

from helpers import jacobi_trudi_reference, prefix_equal, random_series

EXPONENTIAL_NAMES = ("H", "E", "HE")


def test_lie_small_values():
    assert lie(1) == p(1)
    assert lie(2) == SymFunc({(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)})
    # divisors 1,2,3,6 of 6 carry Moebius 1,-1,-1,1
    assert lie(6) == SymFunc(
        {
            (1,) * 6: Fraction(1, 6),
            (2, 2, 2): Fraction(-1, 6),
            (3, 3): Fraction(-1, 6),
            (6,): Fraction(1, 6),
        }
    )
    with pytest.raises(ValueError):
        lie(0)


def test_lie_dimension():
    for n in range(1, 10):
        assert dimension(lie(n)) == factorial(n - 1)


def test_lie_schur_positive():
    for n in range(1, 10):
        for coeff in schur_expand(lie(n)).values():
            assert coeff.denominator == 1 and coeff >= 0


def test_lie_odd_lives_on_odd_power_sums():
    for n in range(1, 12, 2):
        assert all(all(part % 2 for part in lam) for lam in lie(n).terms)


def test_lie_series_variants():
    odd = lie_series("odd", 3)
    assert odd.components[3] == lie(3)
    assert not odd.components[2]
    alt = lie_series("odd_alt", 3)
    assert alt.components[3] == -lie(3)
    assert alt.components[1] == p(1)
    even = lie_series("even", 3)
    assert not even.components[3]
    assert even.components[2] == lie(2)
    both = lie_series("all", 6)
    assert all(both.components[d] == lie(d) for d in range(1, 7))
    with pytest.raises(ValueError):
        lie_series("sideways", 3)


def test_hk_values():
    assert hk(1) == p(1)
    assert hk(2) == p(1) * p(1)
    assert hk(3) == schur((3,)) + schur((2, 1)) + schur((1, 1, 1))


def test_hk_he_identity():
    n = 10
    he = h_series(n) * e_series(n)
    for m in range(1, n + 1):
        assert hk(m) * 2 == he.components[m]


def test_hk_dimension():
    for n in range(1, 9):
        assert dimension(hk(n)) == 2 ** (n - 1)


def test_hk_alt_series_values():
    odd = hk_alt_series("odd", 5)
    assert odd.components[1] == hk(1)
    assert odd.components[3] == -hk(3)
    assert odd.components[5] == hk(5)
    even = hk_alt_series("even", 4)
    assert even.components[0] == SymFunc.constant(1)
    assert even.components[2] == -hk(2)
    assert even.components[4] == hk(4)


def test_hk_alt_square_identity():
    n = 10
    x = hk_alt_series("even", n)
    y = hk_alt_series("odd", n)
    assert y * y == x - x * x


def test_staircase_skew_small():
    assert staircase_skew(2) == p(1)
    assert staircase_skew(2, "jacobi_trudi") == p(1)
    assert staircase_skew(3) == schur((2, 1))
    assert staircase_skew(3, "jacobi_trudi") == schur((2, 1))
    with pytest.raises(ValueError):
        staircase_skew(1)
    with pytest.raises(ValueError):
        staircase_skew(3, "guesswork")


def test_staircase_methods_agree():
    for n in range(2, 8):
        assert staircase_skew(n, "foulkes") == staircase_skew(n, "jacobi_trudi")


def test_jacobi_trudi_matches_permutation_reference():
    for n in range(2, 7):
        outer, inner = staircase(n), staircase(max(n - 2, 1))
        assert _jacobi_trudi_skew(outer, inner) == jacobi_trudi_reference(outer, inner)
    skew = _jacobi_trudi_skew((4, 3, 1), (2, 1))
    assert skew == jacobi_trudi_reference((4, 3, 1), (2, 1))
    assert dimension(skew) == syt_count((4, 3, 1), (2, 1))
    for lam in [(3, 2, 1), (4, 1), (2, 2), (5,), (1, 1, 1)]:
        straight = _jacobi_trudi_skew(lam, ())
        assert straight == jacobi_trudi_reference(lam, ())
        assert straight == schur(lam)


def test_staircase_determinant_is_independent_of_euler_numbers(monkeypatch):
    # foulkes compares the Euler-number formula with the determinant, so the
    # determinant must not use the Euler numbers or the formula itself.
    def forbidden(*args):
        raise AssertionError("the determinant used alternating_count")

    # importlib: the package attribute symlie.lie is the function lie()
    monkeypatch.setattr(importlib.import_module("symlie.lie"), "alternating_count", forbidden)
    staircase_skew.cache_clear()
    try:
        for n in range(2, 7):
            outer, inner = staircase(n), staircase(max(n - 2, 1))
            assert staircase_skew(n, "jacobi_trudi") == jacobi_trudi_reference(outer, inner)
    finally:
        staircase_skew.cache_clear()


def test_staircase_skew_is_memoized():
    staircase_skew.cache_clear()
    first = staircase_skew(6, "jacobi_trudi")
    assert staircase_skew(6, "jacobi_trudi") is first
    assert staircase_skew.cache_info().hits == 1


def test_staircase_dimension_counts_alternating_permutations():
    for n in range(2, 8):
        cells = 2 * n - 3
        assert dimension(staircase_skew(n)) == alternating_count(cells)
        inner = staircase(n - 2) if n >= 3 else ()
        assert syt_count(staircase(n), inner) == alternating_count(cells)


def test_jordan_series_components():
    j = jordan_series(4)
    assert j.components[0] == SymFunc.constant(1)
    assert j.components[1] == p(1)
    assert j.components[2] == h(2)
    assert j.components[3] == h(3) + lie(3)


def test_jordan_schur_positive():
    j = jordan_series(8)
    for d in range(9):
        for coeff in schur_expand(j.components[d]).values():
            assert coeff.denominator == 1 and coeff >= 0


@pytest.mark.parametrize("inner", ["Lie", "Lie_odd", "Lie_even", "Lie_odd_alt"])
@pytest.mark.parametrize("name", EXPONENTIAL_NAMES)
def test_compose_named_matches_generic_pleth(name, inner):
    g = named_series(inner, 12)
    assert compose_named(name, g) == pleth(named_series(name, 12), g)


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(EXPONENTIAL_NAMES),
    degree=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_compose_named_matches_generic_pleth_on_random_series(name, degree, seed):
    g = random_series(Random(seed), degree)
    assert compose_named(name, g) == pleth(named_series(name, degree), g)


@pytest.mark.parametrize("g", [h(2), e(2), schur((2, 1))], ids=["h2", "e2", "s21"])
@pytest.mark.parametrize("name", EXPONENTIAL_NAMES)
def test_compose_named_matches_alphabet_oracle(name, g):
    # g is homogeneous of degree dg, so the degree-k*dg part of F[g] is F_k[g]
    # and the whole truncation is F_{<=3}[g] in 5 variables.
    dg, m = g.degree(), 5
    composed = compose_named(name, GradedSeries.from_symfunc(g, 3 * dg))
    f = sum(named_series(name, 3).components, SymFunc.zero())
    total = sum(composed.components, SymFunc.zero())
    assert specialize_collected(total, m) == monomial_pleth_collected(f, g, m)


def test_compose_named_takes_generic_path_outside_the_table(monkeypatch):
    g = named_series("Lie_odd", 8)
    expected = pleth(named_series("Hk", 8), g)

    def unused(*args):
        raise AssertionError("exponential path taken for Hk")

    lie_module = importlib.import_module("symlie.lie")
    monkeypatch.setattr(lie_module, "exp_series", unused)
    assert compose_named("Hk", g) == expected
    with pytest.raises(KeyError):
        compose_named("Mystery", g)
    monkeypatch.undo()

    def unbuilt(*args):
        raise AssertionError("built the outer series")

    # H, E and HE never build their own series
    monkeypatch.setattr(lie_module, "named_series", unbuilt)
    for name in EXPONENTIAL_NAMES:
        compose_named(name, g)


@pytest.mark.parametrize("name", EXPONENTIAL_NAMES + ("Hk", "Lie_odd"))
def test_compose_named_rejects_constant_term(name):
    g = GradedSeries(6, {0: SymFunc.constant(1), 1: p(1)})
    with pytest.raises(ConstantTermError):
        compose_named(name, g)
    with pytest.raises(ConstantTermError):
        pleth(named_series(name, 6), g)


def test_hk_alt_series_is_memoized():
    assert hk_alt_series("odd", 7) is hk_alt_series("odd", 7)
    assert hk_alt_series("even", 7) is not hk_alt_series("even", 6)


def test_registry_names():
    expected = {
        "H", "E", "HE", "Lie", "Lie_odd", "Lie_even", "Lie_odd_alt", "Hk",
        "E_odd", "E_even", "E_odd_alt", "E_even_alt",
        "H_odd", "H_even", "H_odd_alt", "H_even_alt", "Jordan",
    }
    assert set(SERIES_REGISTRY) == expected
    with pytest.raises(KeyError):
        named_series("Mystery", 4)


def test_registry_values():
    assert named_series("H", 5) == h_series(5)
    assert named_series("Hk", 5) == hook_series(5)
    q = series_div(named_series("E_odd", 7), named_series("E_even", 7))
    assert q.components[1] == p(1)


def test_prefix_stability():
    for name in SERIES_REGISTRY:
        small = named_series(name, 5)
        large = named_series(name, 8)
        assert prefix_equal(small, large, 5), name
    # Results are shared per (name, degree); a check that perturbs its
    # memoized E_odd^alt/E_even^alt side must leave the shared series intact.
    assert named_series("HE", 6) is named_series("HE", 6)
    e_odd_alt = list(named_series("E_odd_alt", 8).components)
    assert not run_check("carlitz", 8, perturb=(0, 0, 3, (3,), Fraction(1))).passed
    assert run_check("carlitz", 8).passed
    assert named_series("E_odd_alt", 8).components == e_odd_alt
