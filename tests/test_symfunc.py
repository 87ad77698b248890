from fractions import Fraction
from math import factorial, prod
from random import Random

import pytest

from symlie.partitions import partitions_of
from symlie.symfunc import (
    EXPONENTIAL_WEIGHTS,
    HomogeneityError,
    SymFunc,
    _bead_mask,
    _character,
    _partition,
    dimension,
    e,
    expand_in_basis,
    exponential_part,
    frobenius,
    h,
    omega,
    p,
    render,
    schur,
    schur_expand,
)

from helpers import (
    character_reference,
    exponential_part_reference,
    exponential_part_walk_reference,
    inner,
    pentagonal_count,
    random_symfunc,
)

half = Fraction(1, 2)


def test_p_generators():
    assert p(1) == SymFunc({(1,): 1})
    assert p(3) == SymFunc({(3,): 1})
    with pytest.raises(ValueError):
        p(0)


def test_basis_multiplication():
    assert p(1) * p(2) == SymFunc({(2, 1): 1})
    assert h(1) * h(1) == SymFunc({(1, 1): 1})
    f = random_symfunc(Random(5), 6)
    assert f + (-f) == SymFunc.zero()


def test_h_e_small_values():
    # degree-2 part of exp(p_1 + p_2/2 + ...) is p_1^2/2 + p_2/2, done by hand
    assert h(0) == SymFunc.constant(1)
    assert e(0) == SymFunc.constant(1)
    assert h(1) == p(1) and e(1) == p(1)
    assert h(2) == SymFunc({(1, 1): half, (2,): half})
    assert e(2) == SymFunc({(1, 1): half, (2,): -half})


def test_h_e_newton_recurrence():
    # n h_n = sum_k p_k h_{n-k} and n e_n = sum_k (-1)^{k-1} p_k e_{n-k}
    for n in range(1, 11):
        acc_h = SymFunc.zero()
        acc_e = SymFunc.zero()
        for k in range(1, n + 1):
            acc_h = acc_h + p(k) * h(n - k)
            acc_e = acc_e + p(k) * e(n - k) * ((-1) ** (k - 1))
        assert h(n) * n == acc_h
        assert e(n) * n == acc_e


def test_exponential_part_matches_the_validated_construction():
    # the closed form takes its terms as given; the reference validates them
    for name, weight in EXPONENTIAL_WEIGHTS.items():
        for n in range(21):
            f = exponential_part(n, weight)
            assert f == exponential_part_reference(n, weight), (name, n)
            assert all(type(c) is Fraction and c for c in f.terms.values()), (name, n)


def test_exponential_part_is_the_integer_form_of_the_fraction_walk():
    # the same denominator and the same key -> numerator map, term for term
    for name, weight in EXPONENTIAL_WEIGHTS.items():
        for n in range(21):
            terms, den = exponential_part(n, weight)._form
            want_terms, want_den = exponential_part_walk_reference(n, weight)._form
            assert len(dict(terms)) == len(terms), (name, n)
            assert (den, dict(terms)) == (want_den, dict(want_terms)), (name, n)


def test_omega():
    for n in range(13):
        assert omega(h(n)) == e(n)
        assert omega(e(n)) == h(n)
    assert omega(p(2)) == -p(2)
    rng = Random(11)
    for _ in range(10):
        f = random_symfunc(rng, 8)
        g = random_symfunc(rng, 8)
        assert omega(omega(f)) == f
        assert omega(f * g) == omega(f) * omega(g)
        assert omega(f + g) == omega(f) + omega(g)


def test_ring_axioms():
    rng = Random(23)
    for _ in range(8):
        f = random_symfunc(rng, 10)
        g = random_symfunc(rng, 10)
        k = random_symfunc(rng, 10)
        assert (f * g) * k == f * (g * k)
        assert f * (g + k) == f * g + f * k
        assert f * g == g * f


def test_character_hand_values():
    mask = _bead_mask((2, 1))
    assert _character(mask, (1, 1, 1)) == 2
    assert _character(mask, (2, 1)) == 0
    assert _character(mask, (3,)) == -1


def test_character_matches_beta_list_reference():
    for n in range(13):
        shapes = partitions_of(n)
        for lam in shapes:
            mask = _bead_mask(lam)
            for mu in shapes:
                assert _character(mask, mu) == character_reference(lam, mu), (lam, mu)


@pytest.mark.parametrize(
    "lam", [(1, 2), (2, 0), (0,), (-1,), (Fraction(3, 2),), (1.0,), (True,), (True, True)]
)
def test_schur_and_character_reject_shapes_that_are_not_partitions(lam):
    # schur checks the shape before _character reads its bead mask
    with pytest.raises(ValueError, match="partition parts"):
        schur(lam)


def test_frobenius_matches_a_hand_built_sum():
    # sum_mu chi(mu) p_mu / z_mu added up term by term through the validating
    # constructor, z_mu counted from the multiplicities of mu
    rng = Random(7)
    for n in range(9):
        classes = partitions_of(n)
        for trial in range(4):
            chi = {mu: 0 if trial == 0 else rng.choice([0, 0, 1, -1, 7, -24])
                   for mu in classes}
            expected = SymFunc()
            for mu, c in chi.items():
                z = prod(k ** mu.count(k) * factorial(mu.count(k)) for k in set(mu))
                expected = expected + SymFunc({mu: Fraction(c, z)})
            f = frobenius(n, chi.__getitem__)
            assert f == expected, (n, chi)
            assert f == SymFunc(f.terms)
            assert set(f.terms) == {mu for mu, c in chi.items() if c}
    zero = frobenius(6, lambda mu: 0)
    assert zero == SymFunc() and not zero.terms


def test_schur_trivial_and_sign():
    for n in range(9):
        assert schur((n,) if n else ()) == h(n)
        assert schur((1,) * n if n else ()) == e(n)
    assert schur((2, 1)) == SymFunc(
        {(1, 1, 1): Fraction(1, 3), (3,): Fraction(-1, 3)}
    )


def test_schur_orthonormality():
    for n in range(9):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                expected = 1 if lam == mu else 0
                assert inner(schur(lam), schur(mu)) == expected


def test_inner_examples():
    assert inner(p(2), p(2)) == 2
    assert inner(p(2), p(1) * p(1)) == 0
    for n in range(1, 9):
        # h_n = s_(n) is orthonormal; pairing against sum_lam p_lam counts
        # partitions since <h_n, p_lam> = 1 for every lam
        assert inner(h(n), h(n)) == 1
        all_p = SymFunc({lam: 1 for lam in partitions_of(n)})
        assert inner(h(n), all_p) == pentagonal_count(n)


def test_schur_expand_examples():
    assert schur_expand(h(2) * e(1)) == {(3,): 1, (2, 1): 1}
    assert schur_expand(p(1) * p(1)) == {(2,): 1, (1, 1): 1}
    with pytest.raises(HomogeneityError):
        schur_expand(h(1) + h(2))


def test_schur_expand_reconstructs():
    rng = Random(37)
    for _ in range(6):
        f = random_symfunc(rng, 6).homogeneous_part(rng.randint(1, 6))
        expansion = schur_expand(f)
        rebuilt = SymFunc.zero()
        for lam, coeff in expansion.items():
            rebuilt = rebuilt + schur(lam) * coeff
        assert rebuilt == f


def test_schur_expand_delta_on_schur():
    for n in range(9):
        for lam in partitions_of(n):
            assert schur_expand(schur(lam)) == {lam: 1}


def test_dimension():
    for n in range(1, 9):
        assert dimension(h(n)) == 1
        assert dimension(e(n)) == 1
        # hook-length formula for (n-1, 1): dimension n - 1
        if n >= 2:
            assert dimension(schur((n - 1, 1))) == n - 1
    with pytest.raises(HomogeneityError):
        dimension(h(1) + h(2))


def test_expand_in_basis_round_trip():
    rng = Random(41)
    for basis in ("h", "e", "s"):
        for _ in range(5):
            f = random_symfunc(rng, 6)
            coeffs = expand_in_basis(f, basis)
            build = {"h": h, "e": e}.get(basis)
            rebuilt = SymFunc.zero()
            for lam, coeff in coeffs.items():
                if basis == "s":
                    term = schur(lam)
                else:
                    term = SymFunc.constant(1)
                    for part in lam:
                        term = term * build(part)
                rebuilt = rebuilt + term * coeff
            assert rebuilt == f
    assert expand_in_basis(h(2), "p") == h(2).terms


@pytest.mark.parametrize("f", [SymFunc.zero(), SymFunc.constant(2), h(2)])
def test_expand_in_basis_rejects_an_unknown_basis(f):
    # the zero function has no degree to expand, yet the basis is still checked
    with pytest.raises(ValueError, match="unknown basis"):
        expand_in_basis(f, "q")


def test_keys_are_sorted_into_partitions():
    x = SymFunc({(1, 2): 1})
    assert x.terms == {(2, 1): 1}
    assert x * 1 == x
    assert x == p(1) * p(2)
    assert render(x) == "p[2,1]"


# (coefficients, denominator, partition -> numerator of the form): int,
# Fraction and mixed inputs on the same keys, keys that cancel, and sums
# whose form is in lowest terms over the lcm of the denominators
ENCODED = [
    ({(2, 1): 3, (1, 2): -1, (3,): 4}, 1, {(2, 1): 2, (3,): 4}),
    ({(2, 1): Fraction(3), (1, 2): Fraction(-1), (3,): Fraction(4)}, 1, {(2, 1): 2, (3,): 4}),
    ({(2, 1): 3, (1, 2): Fraction(-1), (3,): Fraction(8, 2)}, 1, {(2, 1): 2, (3,): 4}),
    ({(1, 2): 1, (2, 1): -1, (3,): 2}, 1, {(3,): 2}),
    ({(1, 2): half, (2, 1): -half, (3,): 2}, 1, {(3,): 2}),
    ({(1, 2): half, (2, 1): Fraction(-1, 2), (1,): Fraction(2, 3)}, 3, {(1,): 2}),
    ({(1,): 2, (2,): half}, 2, {(1,): 4, (2,): 1}),
    ({(1,): Fraction(2), (2,): half}, 2, {(1,): 4, (2,): 1}),
    ({(1,): half, (2,): Fraction(1, 3), (3,): 1}, 6, {(1,): 3, (2,): 2, (3,): 6}),
    ({(1,): Fraction(3, 4), (1, 1): Fraction(1, 4), (2,): -half, (2, 2): 1}, 4,
     {(1,): 3, (1, 1): 1, (2,): -2, (2, 2): 4}),
]


def test_coefficients_on_one_key_add_up():
    assert (SymFunc({(1, 2): 1}) + SymFunc({(2, 1): 1})).terms == {(2, 1): 2}
    assert SymFunc({(1, 2): 1, (2, 1): half}) == SymFunc({(2, 1): Fraction(3, 2)})
    assert SymFunc({(1, 2, 2): 1, (2, 1, 2): -1, (3,): half}) == p(3) * half
    for terms, den, numerators in ENCODED:
        f = SymFunc(terms)
        form, form_den = f._form
        assert form_den == den and {_partition(key): v for key, v in form} == numerators
        assert f._form == SymFunc({lam: Fraction(c) for lam, c in terms.items()})._form
        assert f.terms == {lam: Fraction(v, den) for lam, v in numerators.items()}
    assert SymFunc({(1, 2): 3, (2, 1): Fraction(-3)})._form is None
    assert SymFunc({(1,): 0, (2,): Fraction(0)})._form is None


@pytest.mark.parametrize(
    "lam", [(0,), (-1,), (2, -1), (1, 0, 2), (Fraction(3, 2),), (1.0,), (True,), (2, True)]
)
def test_a_part_that_is_not_a_positive_int_is_rejected_at_construction(lam):
    with pytest.raises(ValueError, match="not positive"):
        SymFunc({lam: 1})


def test_coefficient_sorts_its_argument():
    f = p(1) * p(2) + p(2) * p(2) * p(1) * half
    assert f.coefficient((1, 2)) == f.coefficient([2, 1]) == 1
    assert f.coefficient((2, 1, 2)) == f.coefficient((2, 2, 1)) == half
    assert f.coefficient((3,)) == 0
    for lam in [(1, 0), (-1,), (1.0,), (True,)]:
        with pytest.raises(ValueError, match="not positive"):
            f.coefficient(lam)


def test_render_format():
    assert render(h(2)) == "1/2*p[1,1] + 1/2*p[2]"
    assert render(e(2)) == "1/2*p[1,1] - 1/2*p[2]"
    assert render(SymFunc.zero()) == "0"
    assert render(SymFunc.constant(1)) == "1"
    assert render(-p(2)) == "-p[2]"
    assert render(p(1) - 3 * p(2)) == "p[1] - 3*p[2]"


@pytest.mark.parametrize("c", [0, 1, -3, half])
def test_constant_hashes_like_its_rational(c):
    f = SymFunc.constant(c)
    assert f == c
    assert hash(f) == hash(c)
    assert len({f, c}) == 1
