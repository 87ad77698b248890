from fractions import Fraction
from math import factorial
from random import Random

import pytest

from symlie.lie import compose_named, e_series, h_series, hk, hook_series, named_series
from symlie.oracle import alternating_count
from symlie.plethysm import pleth
from symlie.series import (
    ConstantTermError,
    GradedSeries,
    NonUnitConstantError,
    arctan_series,
    arctanh_series,
    compose_scalar,
    exp_series,
    log1p_series,
    omega_series,
    parity_split,
    series_div,
    series_inverse,
    _tan_like_coeffs,
    tan_series,
    tanh_series,
)
from symlie.symfunc import SymFunc, e, h, p
from symlie.verify import build_pairs

from helpers import (
    head,
    odd_powersum,
    prefix_equal,
    random_series,
    tan_like_coeffs_reference,
    tangent_series_reference,
)


def test_constructor_rejects_inhomogeneous_component():
    with pytest.raises(ValueError):
        GradedSeries(3, {2: h(1)})


def test_parity_split_examples():
    H = h_series(9)
    odd = parity_split(H, "odd")
    assert all(odd.components[d] == (h(d) if d % 2 else SymFunc.zero()) for d in range(10))
    E = e_series(9)
    even_alt = parity_split(E, "even", alternating=True)
    assert even_alt.components[0] == SymFunc.constant(1)
    assert even_alt.components[2] == -e(2)
    assert even_alt.components[4] == e(4)
    assert not parity_split(GradedSeries.constant(1, 5), "odd")


def test_series_mul_min_bound():
    a = h_series(8)
    b = e_series(5)
    assert (a * b).max_degree == 5
    assert (a + b).max_degree == 5


def test_series_inverse_of_h():
    # H(t)E(-t) = 1 means the inverse of H has components (-1)^d e_d
    H = h_series(12)
    inv = series_inverse(H)
    for d in range(13):
        assert inv.components[d] == e(d) * ((-1) ** d)
    assert all(
        (H * inv).components[d] == (SymFunc.constant(1) if d == 0 else SymFunc.zero())
        for d in range(13)
    )


def test_series_inverse_requires_invertible_constant():
    with pytest.raises(NonUnitConstantError):
        series_inverse(GradedSeries(4, {1: p(1)}))
    with pytest.raises(NonUnitConstantError):
        series_div(h_series(4), GradedSeries(4, {1: p(1)}))


def test_series_div_identity():
    rng = Random(3)
    f = random_series(rng, 7, zero_constant=False)
    one = GradedSeries.constant(1, 7)
    assert series_div(f, one) == f
    g = random_series(rng, 7) + 1  # unit constant
    assert prefix_equal(series_div(f, g) * g, f, 7)


def test_quotient_leading_term():
    E = e_series(9)
    q = series_div(parity_split(E, "odd"), parity_split(E, "even"))
    assert q.components[1] == p(1)


def test_exp_of_powersum_is_h():
    n = 12
    src = GradedSeries(n, {k: p(k) * Fraction(1, k) for k in range(1, n + 1)})
    assert exp_series(src) == h_series(n)
    alt = GradedSeries(n, {k: p(k) * Fraction((-1) ** (k - 1), k) for k in range(1, n + 1)})
    assert exp_series(alt) == e_series(n)


def test_exp_log_inverse_pair():
    rng = Random(9)
    for _ in range(4):
        g = random_series(rng, 7)
        assert log1p_series(exp_series(g) - 1) == g
        assert exp_series(log1p_series(g)) - 1 == g


def test_tanh_arctanh_inverse_pair():
    rng = Random(17)
    for _ in range(4):
        g = random_series(rng, 9)
        assert tanh_series(arctanh_series(g)) == g
        assert arctanh_series(tanh_series(g)) == g


def test_compose_scalar_rejects_constant():
    with pytest.raises(ConstantTermError):
        compose_scalar(lambda m: Fraction(1), GradedSeries.constant(1, 4))


# Every way of composing into g: f[g], the exponential behind H, E and HE,
# the generic pleth behind any other name, and the Taylor series in g.
COMPOSITIONS = {
    "pleth": lambda g: pleth(p(2), g),
    "pleth of a series": lambda g: pleth(named_series("Lie", g.max_degree), g),
    **{f"compose_named {name}": (lambda g, name=name: compose_named(name, g))
       for name in ("H", "E", "HE", "Hk")},
    "compose_scalar": lambda g: compose_scalar([Fraction(1)] * g.max_degree, g),
    "log1p_series": log1p_series,
    "tan_series": tan_series,
    "tanh_series": tanh_series,
    "arctan_series": arctan_series,
    "arctanh_series": arctanh_series,
    "exp_series": exp_series,
}


@pytest.mark.parametrize("name", COMPOSITIONS)
def test_every_composition_rejects_a_constant_term_with_one_error(name):
    g = GradedSeries(5, {0: SymFunc.constant(1), 1: p(1)})
    with pytest.raises(ConstantTermError) as info:
        COMPOSITIONS[name](g)
    assert type(info.value) is ConstantTermError
    assert str(info.value) == "plethysm into a series with nonzero constant term is undefined"
    # the same guard passes the same g with its constant term taken off
    COMPOSITIONS[name](g - 1)


@pytest.mark.parametrize("divide", [series_inverse, lambda g: series_div(h_series(5), g)])
def test_division_alone_raises_non_unit_constant_error(divide):
    with pytest.raises(NonUnitConstantError) as info:
        divide(GradedSeries(5, {1: p(1)}))
    assert type(info.value) is NonUnitConstantError
    assert not isinstance(info.value, ConstantTermError)


def test_compose_scalar_sequence_argument():
    g = GradedSeries(6, {1: p(1)})
    out = compose_scalar([Fraction(1), Fraction(0), Fraction(2)], g)
    assert out.components[1] == p(1)
    assert not out.components[2]
    assert out.components[3] == 2 * p(1) * p(1) * p(1)


def test_tan_tanh_coefficients_vs_enumeration():
    # tan x = sum T_{2n+1} x^{2n+1}/(2n+1)! with T the tangent numbers, i.e.
    # the odd alternating-permutation counts; tanh alternates in sign
    tan, tanh = _tan_like_coeffs(10, False), _tan_like_coeffs(10, True)
    assert tan[0] == tanh[0] == 0
    for k in range(0, 5):
        m = 2 * k + 1
        tangent = alternating_count(m)
        assert tan[m] == Fraction(tangent, factorial(m))
        assert tanh[m] == Fraction((-1) ** k * tangent, factorial(m))
        assert tan[m + 1] == 0
        assert tanh[m + 1] == 0


def test_tan_tanh_coefficients_match_the_sin_cos_solve():
    for hyperbolic in (False, True):
        for n in range(41):
            assert _tan_like_coeffs(n, hyperbolic) == tan_like_coeffs_reference(n, hyperbolic)


def test_parity_identities():
    n = 12
    H, E = h_series(n), e_series(n)
    h_odd, h_even = parity_split(H, "odd"), parity_split(H, "even")
    e_odd, e_even = parity_split(E, "odd"), parity_split(E, "even")
    one = GradedSeries.constant(1, n)
    assert h_odd * e_even == h_even * e_odd
    assert h_even * e_even - h_odd * e_odd == one
    # 2 H_odd = H - 1/E and 2 H_even = H + 1/E
    assert h_odd * 2 == H - series_inverse(E)
    assert h_even * 2 == H + series_inverse(E)


def test_alternating_parity_identities():
    n = 12
    H, E = h_series(n), e_series(n)
    h_odd = parity_split(H, "odd", alternating=True)
    h_even = parity_split(H, "even", alternating=True)
    e_odd = parity_split(E, "odd", alternating=True)
    e_even = parity_split(E, "even", alternating=True)
    one = GradedSeries.constant(1, n)
    assert h_even * e_odd == h_odd * e_even
    assert h_even * e_even == one - h_odd * e_odd


def test_quotient_omega_invariant():
    n = 11
    E = e_series(n)
    for alternating in (False, True):
        q = series_div(
            parity_split(E, "odd", alternating), parity_split(E, "even", alternating)
        )
        assert omega_series(q) == q


def test_he_hook_expansion():
    n = 12
    H, E = h_series(n), e_series(n)
    he = H * E
    expected = GradedSeries.constant(1, n) + 2 * hook_series(n)
    assert he == expected
    for m in range(1, 11):
        assert hk(m) * 2 == he.components[m]


def test_tanh_of_odd_powersum_is_quotient():
    for n in (11, 22):
        E = e_series(n)
        q = series_div(parity_split(E, "odd"), parity_split(E, "even"))
        assert q == tanh_series(odd_powersum(n))


def test_tangent_number_series_forms():
    n = 11
    E = e_series(n)
    for alternating in (False, True):
        q = series_div(
            parity_split(E, "odd", alternating), parity_split(E, "even", alternating)
        )
        assert q == tangent_series_reference(n, alternating)
    # the checks' tangent-number side, read off the Foulkes ribbons
    for name, alternating in (("tanh_form", False), ("tan_form", True)):
        for n in range(13):
            _, _, tangent = build_pairs(name, n)[1]
            assert tangent == tangent_series_reference(n, alternating), (name, n)


def test_truncation_consistency():
    rng = Random(29)
    f = random_series(rng, 10, zero_constant=False)
    g = random_series(rng, 10)
    assert prefix_equal(f * g, head(f, 6) * head(g, 6), 6)
    assert prefix_equal(series_inverse(f + 1), series_inverse(head(f + 1, 6)), 6)
