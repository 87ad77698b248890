import importlib
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from random import Random

import pytest

from symlie.lie import hk
from symlie.oracle import (
    _bracket_coefficient,
    _collected_mul_term,
    _cycle_type_permutation,
    alternating_count,
    collected_mul,
    lie_character,
    monomial_pleth_collected,
    specialize_collected,
    syt_count,
)
from symlie.partitions import partitions_of, staircase
from symlie.symfunc import SymFunc, e, h, p, schur

from helpers import (
    alternating_completions_reference,
    alternating_count_reference,
    collected_expand,
    collected_mul_term_reference,
    hk_character_sum_reference,
    left_normed_expansion,
    lie_character_reference,
    monomial_pleth,
    poly_mul,
    random_symfunc,
    specialize,
    syt_count_reference,
)


_MODULES = (
    "symlie", "symlie.cli", "symlie.lie", "symlie.oracle", "symlie.partitions",
    "symlie.plethysm", "symlie.series", "symlie.symfunc", "symlie.verify",
)


def _forbid(monkeypatch, module_name, attr):
    """Make every symlie binding of module_name.attr raise while the test runs."""
    original = getattr(importlib.import_module(module_name), attr)

    def forbidden(*args, **kwargs):
        raise AssertionError(f"the oracle reached {module_name}.{attr}")

    for name in _MODULES:
        module = importlib.import_module(name)
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, forbidden)


def test_specialize_examples():
    assert specialize(p(2), 2) == {(2, 0): 1, (0, 2): 1}
    assert specialize(e(2), 2) == {(1, 1): 1}
    poly = specialize(schur((2, 1)), 3)
    assert poly[(1, 1, 1)] == 2


def test_specialize_kills_long_partitions():
    # e_3 needs three variables
    assert specialize(e(3), 2) == {}


def test_specialize_ring_homomorphism():
    rng = Random(3)
    for _ in range(5):
        f = random_symfunc(rng, 4)
        g = random_symfunc(rng, 4)
        m = 8
        assert specialize(f * g, m) == poly_mul(specialize(f, m), specialize(g, m))
        added = specialize(f + g, m)
        ref = dict(specialize(f, m))
        for key, value in specialize(g, m).items():
            ref[key] = ref.get(key, 0) + value
        assert added == {k: v for k, v in ref.items() if v}


def test_monomial_pleth_examples():
    # h_2 on the six monomials of e_2(x1..x4), expanded by hand below
    letters = [
        (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1),
        (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1),
    ]
    expected = {}
    for a, b in combinations_with_replacement(letters, 2):
        key = tuple(x + y for x, y in zip(a, b))
        expected[key] = expected.get(key, 0) + 1
    assert monomial_pleth(h(2), e(2), 4) == expected
    assert monomial_pleth(h(2), e(2), 4) == specialize(
        schur((2, 2)) + schur((1, 1, 1, 1)), 4
    )

    assert monomial_pleth(p(2), p(3), 2) == {(6, 0): 1, (0, 6): 1}

    rng = Random(11)
    f = random_symfunc(rng, 5)
    assert monomial_pleth(f, p(1), 5) == specialize(f, 5)


def test_monomial_pleth_rejects_negative_alphabet():
    for pleth in (monomial_pleth, monomial_pleth_collected):
        with pytest.raises(ValueError, match="nonnegative integer"):
            pleth(h(2), SymFunc({(1, 1): -1}), 3)
        with pytest.raises(ValueError, match="nonnegative integer"):
            pleth(h(2), p(1) * Fraction(1, 2), 3)


def test_collected_forms_match_expanded():
    cases = [h(3), e(3), schur((2, 1)), p(2) * p(1), h(2) + e(2) * Fraction(1, 3)]
    for f in cases:
        for m in (2, 3, 5):
            assert collected_expand(specialize_collected(f, m).terms, m) == specialize(f, m)
            # every degree-1 generator is the alphabet of the variables
            for g in (p(1), h(1), e(1), schur((1,))):
                assert specialize_collected(f, m) == monomial_pleth_collected(f, g, m)
    for f, g, m in [(h(2), e(2), 4), (p(2), p(3), 2), (schur((2, 1)), e(2), 6)]:
        assert collected_expand(monomial_pleth_collected(f, g, m).terms, m) == (
            monomial_pleth(f, g, m)
        )


def test_orbit_product_multiplicities_are_ints():
    for m in range(1, 7):
        shapes = [lam for n in range(5) for lam in partitions_of(n) if len(lam) <= m]
        for mu in shapes:
            for nu in shapes:
                for gamma, mult in _collected_mul_term(mu, nu, m):
                    assert type(mult) is int and mult > 0, (mu, nu, m, gamma, mult)


def test_orbit_product_matches_placement_reference():
    shapes = [lam for n in range(9) for lam in partitions_of(n)]
    smaller = [nu for n in range(5) for nu in partitions_of(n)]
    for m in range(1, 10):
        for mu in shapes:
            for nu in smaller:
                got = dict(_collected_mul_term(mu, nu, m))
                assert got == collected_mul_term_reference(mu, nu, m), (mu, nu, m)


def test_orbit_products_of_the_plethysm_sweep_match_placement_reference(monkeypatch):
    import symlie.oracle as oracle
    from symlie.verify import _pleth_oracle

    products = set()

    def recording(mu, nu, m):
        products.add((mu, nu, m))
        return _collected_mul_term(mu, nu, m)

    # rebuild every power product, so the sweep asks for all of its products
    oracle._power_product.cache_clear()
    monkeypatch.setattr(oracle, "_collected_mul_term", recording)
    _pleth_oracle(12)
    assert len(products) > 400
    for mu, nu, m in products:
        got = dict(_collected_mul_term(mu, nu, m))
        assert got == collected_mul_term_reference(mu, nu, m), (mu, nu, m)


def test_collected_mul_matches_expanded():
    rng = Random(17)
    for _ in range(5):
        a = specialize_collected(random_symfunc(rng, 3), 6).terms
        b = specialize_collected(random_symfunc(rng, 3), 6).terms
        prod = collected_mul(a, b, 6)
        assert collected_expand(prod, 6) == poly_mul(
            collected_expand(a, 6), collected_expand(b, 6)
        )


def test_lie_character_small():
    assert lie_character(1) == p(1)
    assert lie_character(2) == SymFunc(
        {(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)}
    )
    with pytest.raises(ValueError):
        lie_character(8)
    with pytest.raises(ValueError):
        lie_character(0)


def test_lie_character_matches_moebius_formula():
    from symlie.lie import lie

    for n in range(1, 7):
        assert lie_character(n) == lie(n)


def test_alternating_count_values():
    assert alternating_count(0) == 1
    assert alternating_count(1) == 1
    assert alternating_count(2) == 1
    assert alternating_count(3) == 2
    assert alternating_count(4) == 5
    assert alternating_count(5) == 16
    assert alternating_count(6) == 61
    with pytest.raises(ValueError):
        alternating_count(13)


def test_alternating_count_brute_force_cross_check():
    for n in range(2, 7):
        count = 0
        for sigma in permutations(range(1, n + 1)):
            if all(
                (sigma[i] > sigma[i + 1]) == (i % 2 == 0) for i in range(n - 1)
            ):
                count += 1
        assert alternating_count(n) == count


def test_alternating_count_matches_plain_backtracker():
    for n in range(11):
        assert alternating_count.__wrapped__(n) == alternating_count_reference(n)


def test_alternating_count_matches_recursive_completion_count():
    for n in range(13):
        assert alternating_count.__wrapped__(n) == alternating_completions_reference(n)


def test_alternating_count_uses_no_tangent_series(monkeypatch):
    for attr in ("tan_series", "tanh_series", "_tan_like_coeffs"):
        _forbid(monkeypatch, "symlie.series", attr)
    assert alternating_count.__wrapped__(11) == 353792


def _positions(word):
    position = [0] * (len(word) + 1)
    for i, x in enumerate(word):
        position[x] = i
    return position


def test_bracket_coefficient_matches_full_expansion():
    # the walk maps each letter through the class's permutation in place:
    # every class through n = 5, and the identity, class 1^n, at n = 6
    for n in range(1, 7):
        words = list(permutations(range(1, n + 1)))
        positions = [(word, _positions(word)) for word in words]
        for lam in partitions_of(n) if n <= 5 else [(1,) * n]:
            perm = _cycle_type_permutation(lam)
            for letters in words:
                expansion = left_normed_expansion(tuple(perm[x] for x in letters))
                read = {word: _bracket_coefficient(letters, perm, position)
                        for word, position in positions}
                assert read == {word: expansion.get(word, 0) for word in words}


def test_cycle_type_permutation_has_the_cycle_type():
    for n in range(1, 9):
        for lam in partitions_of(n):
            perm = _cycle_type_permutation(lam)
            assert sorted(perm[1:]) == list(range(1, n + 1))
            cycles, seen = [], set()
            for start in range(1, n + 1):
                length, x = 0, start
                while x not in seen:
                    seen.add(x)
                    x = perm[x]
                    length += 1
                if length:
                    cycles.append(length)
            assert tuple(sorted(cycles, reverse=True)) == lam


def test_lie_character_matches_reference_trace():
    for n in range(1, 8):
        assert lie_character(n) == lie_character_reference(n)


def test_lie_character_uses_no_moebius_formula(monkeypatch):
    _forbid(monkeypatch, "symlie.partitions", "mobius")
    _forbid(monkeypatch, "symlie.lie", "lie")
    assert lie_character(7) == lie_character_reference(7)


def test_hk_reads_no_schur_character_and_no_closed_form(monkeypatch):
    # hk is the hook_he and alt_carlitz reference: Murnaghan-Nakayama on
    # hook states, apart from symfunc's characters and from the closed form
    expected = hk_character_sum_reference(12)
    _forbid(monkeypatch, "symlie.symfunc", "_character")
    _forbid(monkeypatch, "symlie.symfunc", "exponential_part")
    _forbid(monkeypatch, "symlie.lie", "named_series")
    hk.cache_clear()
    assert hk(12) == expected


def test_syt_count_examples():
    assert syt_count((1,)) == 1
    assert syt_count((3, 2, 1), (1,)) == 16
    for n in range(1, 9):
        assert syt_count((n,)) == 1
    # hook-length formula check for a small straight shape
    assert syt_count((2, 1)) == 2
    assert syt_count((2, 2)) == 2
    assert syt_count((3, 2)) == 5


def test_syt_count_matches_plain_backtracker():
    # the shapes of the other syt_count tests, and the staircase ribbons
    shapes = [((1,), ()), ((3, 2, 1), (1,)), ((2, 1), ()), ((2, 2), ()), ((3, 2), ()),
              ((4, 3, 1), (2, 1))]
    shapes += [((n,), ()) for n in range(1, 9)]
    shapes += [(staircase(n), staircase(max(n - 2, 1))) for n in range(2, 8)]
    for outer, inner in shapes:
        assert syt_count(outer, inner) == syt_count_reference(outer, inner), (outer, inner)


def test_syt_count_rejections():
    with pytest.raises(ValueError):
        syt_count((2,), (3,))
    with pytest.raises(ValueError):
        syt_count((1,), (1, 1))
    with pytest.raises(ValueError):
        syt_count((8, 7), ())


@pytest.mark.parametrize("outer, inner", [((1, 2), ()), ((2, 1), (0, 1)), ((2, 0), ()),
                                          ((2, 1), (-1,)), ((1.5,), ())])
def test_syt_count_rejects_shapes_that_are_not_partitions(outer, inner):
    with pytest.raises(ValueError, match="partition parts"):
        syt_count(outer, inner)


def test_lie_bracket_basis():
    from math import factorial

    from symlie.oracle import lie_bracket_basis

    for n in range(1, 7):
        basis = lie_bracket_basis(n)
        assert len(basis) == factorial(n - 1)
        assert len(set(basis)) == len(basis)
        assert all(word[0] == 1 and sorted(word) == list(range(1, n + 1)) for word in basis)
    with pytest.raises(ValueError):
        lie_bracket_basis(8)
