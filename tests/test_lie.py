import importlib
from fractions import Fraction
from math import factorial
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symlie.lie import (
    SERIES_REGISTRY,
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
    foulkes_staircase,
    monomial_pleth_collected,
    specialize_collected,
    syt_count,
)
from symlie.partitions import mobius, staircase
from symlie.plethysm import ConstantTermError, pleth
from symlie.series import GradedSeries, parity_split, series_div
from symlie.symfunc import SymFunc, _key, dimension, e, h, p, schur, schur_expand
from symlie.verify import run_check

from helpers import (
    hk_character_sum_reference,
    hk_reference,
    jacobi_trudi_reference,
    pleth_reference,
    prefix_equal,
    random_series,
    run_perturbed,
)

EXPONENTIAL_NAMES = ("H", "E", "HE")

# the module, which the package's function lie shadows as symlie.lie
lie_module = importlib.import_module("symlie.lie")


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


def test_lie_is_built_straight_into_its_integer_form(monkeypatch):
    # mu(d) over n keyed P(d)^(n/d), with no Fraction and no SymFunc(...) on the way
    monkeypatch.setattr(lie_module, "Fraction", None)
    monkeypatch.setattr(lie_module, "SymFunc", None)
    for n in range(1, 31):
        terms, den = lie(n)._form
        assert den == n
        assert dict(terms) == {_key((d,) * (n // d)): mobius(d)
                               for d in range(1, n + 1) if n % d == 0 and mobius(d)}


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
    odd = named_series("Lie_odd", 3)
    assert odd.components[3] == lie(3)
    assert not odd.components[2]
    alt = named_series("Lie_odd_alt", 3)
    assert alt.components[3] == -lie(3)
    assert alt.components[1] == p(1)
    even = named_series("Lie_even", 3)
    assert not even.components[3]
    assert even.components[2] == lie(2)
    both = lie_series(6)
    assert all(both.components[d] == lie(d) for d in range(1, 7))


def test_hk_values():
    assert hk(1) == p(1)
    assert hk(2) == p(1) * p(1)
    assert hk(3) == schur((3,)) + schur((2, 1)) + schur((1, 1, 1))


def test_hk_matches_the_sum_of_hook_schur_functions():
    # hk sums the hook characters per class on ints; the reference adds
    # the n hook schur() results
    for n in range(1, 17):
        assert hk(n) == hk_reference(n), n


def test_hk_matches_the_sum_of_hook_characters():
    # the rule on hook states against the general Murnaghan-Nakayama
    # character of each of the n hooks
    for n in range(1, 21):
        assert hk(n) == hk_character_sum_reference(n), n


def test_hk_he_identity():
    n = 10
    he = h_series(n) * e_series(n)
    for m in range(1, n + 1):
        assert hk(m) * 2 == he.components[m]


def test_hk_dimension():
    for n in range(1, 9):
        # the Schur sums and the closed form behind the named series
        for hook in (hk(n), named_series("Hk", n).components[n]):
            assert dimension(hook) == 2 ** (n - 1)


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
    assert foulkes_staircase(2) == p(1)
    assert staircase_skew(2) == p(1)
    assert foulkes_staircase(3) == schur((2, 1))
    assert staircase_skew(3) == schur((2, 1))
    for ribbon in (staircase_skew, foulkes_staircase):
        with pytest.raises(ValueError):
            ribbon(1)
    # 2n - 3 = 13 is past the alternating-count enumeration: the error names
    # n and the construction that has no cap, not alternating_count's argument
    with pytest.raises(ValueError, match=r"n = 8: .*lie\.staircase_skew"):
        foulkes_staircase(8)
    assert len(staircase_skew(8).terms) == 18


def test_staircase_methods_agree():
    # the Euler-number form against the ribbon sum, wherever the first runs
    for n in range(2, 8):
        assert foulkes_staircase(n) == staircase_skew(n)


def test_jacobi_trudi_matches_permutation_reference():
    # the ribbon sum against the permutation determinant, which is checked
    # on a general skew shape and on straight shapes in turn
    for n in range(2, 9):
        outer, inner = staircase(n), staircase(max(n - 2, 1))
        assert staircase_skew(n) == jacobi_trudi_reference(outer, inner)
    skew = jacobi_trudi_reference((4, 3, 1), (2, 1))
    assert dimension(skew) == syt_count((4, 3, 1), (2, 1))
    for lam in [(3, 2, 1), (4, 1), (2, 2), (5,), (1, 1, 1)]:
        assert jacobi_trudi_reference(lam, ()) == schur(lam)


def test_staircase_determinant_is_independent_of_euler_numbers(monkeypatch):
    # foulkes compares the Euler-number formula with the determinant, so the
    # determinant must not use the Euler numbers or the formula itself.  lie
    # imports nothing from oracle (test_import_graph), so these are the names
    # it would have to read them through.
    def forbidden(*args):
        raise AssertionError("the determinant used the Euler numbers")

    oracle = importlib.import_module("symlie.oracle")
    monkeypatch.setattr(oracle, "alternating_count", forbidden)
    monkeypatch.setattr(oracle, "foulkes_staircase", forbidden)
    staircase_skew.cache_clear()
    try:
        for n in range(2, 7):
            outer, inner = staircase(n), staircase(max(n - 2, 1))
            assert staircase_skew(n) == jacobi_trudi_reference(outer, inner)
    finally:
        staircase_skew.cache_clear()


def test_staircase_skew_is_memoized():
    staircase_skew.cache_clear()
    first = staircase_skew(6)
    assert staircase_skew(6) is first
    assert staircase_skew.cache_info().hits == 1


def test_staircase_dimension_counts_alternating_permutations():
    for n in range(2, 8):
        cells = 2 * n - 3
        assert dimension(foulkes_staircase(n)) == alternating_count(cells)
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
    assert compose_named(name, g) == pleth_reference(named_series(name, 12), g)


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(EXPONENTIAL_NAMES),
    degree=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_compose_named_matches_generic_pleth_on_random_series(name, degree, seed):
    g = random_series(Random(seed), degree)
    assert compose_named(name, g) == pleth_reference(named_series(name, degree), g)


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


def test_registry_names():
    expected = {
        "H", "E", "HE", "Lie", "Lie_odd", "Lie_even", "Lie_odd_alt", "Hk",
        "E_odd", "E_even", "E_odd_alt", "E_even_alt",
        "H_odd", "H_even", "H_odd_alt", "H_even_alt", "Jordan",
        "Hk_odd_alt", "Hk_even_alt",
    }
    assert set(SERIES_REGISTRY) == expected
    with pytest.raises(KeyError):
        named_series("Mystery", 4)


# every parity variant in the registry: name -> (base, parity, alternating)
PARITY_NAMES = {
    "Lie_odd": ("Lie", "odd", False),
    "Lie_even": ("Lie", "even", False),
    "Lie_odd_alt": ("Lie", "odd", True),
    "Hk_odd_alt": ("Hk", "odd", True),
    "Hk_even_alt": ("Hk", "even", True),
    **{
        f"{base}_{parity}{suffix}": (base, parity, bool(suffix))
        for base in ("H", "E")
        for suffix in ("", "_alt")
        for parity in ("odd", "even")
    },
}


def test_parity_names_split_their_base():
    assert len(PARITY_NAMES) == 13
    assert {name for name in SERIES_REGISTRY if "_" in name} == set(PARITY_NAMES)
    for name, (base, parity, alternating) in PARITY_NAMES.items():
        split = parity_split(named_series(base, 14), parity, alternating)
        assert named_series(name, 14) == split, name


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
    assert not run_perturbed("carlitz", 8, (0, 0, 3, (3,), Fraction(1))).passed
    assert run_check("carlitz", 8).passed
    assert named_series("E_odd_alt", 8).components == e_odd_alt
