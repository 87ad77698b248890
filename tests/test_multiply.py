"""The integer multiplication kernel, pinned exactly to the Fraction loops it
replaced (tests/helpers.py), plus the ring axioms and a plethystic round trip
on random sparse elements with mixed denominators."""

from fractions import Fraction
from itertools import count

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symlie.plethysm import pleth, pleth_inverse
from symlie.series import (
    ConstantTermError,
    GradedSeries,
    compose_scalar,
    exp_series,
    log1p_series,
    series_div,
    series_inverse,
)
from symlie.symfunc import SymFunc, h, p

from helpers import (
    coefficients,
    compose_scalar_reference,
    exp_series_reference,
    series,
    series_div_reference,
    series_inverse_reference,
    series_mul_reference,
    symfunc_mul_reference,
    symfunc_scale_reference,
    symfuncs,
)

nonzero_constants = coefficients.filter(bool)


@settings(max_examples=120, deadline=None)
@given(f=symfuncs(), g=symfuncs())
def test_symfunc_mul_matches_reference(f, g):
    assert (f * g).terms == symfunc_mul_reference(f, g).terms


@settings(max_examples=100, deadline=None)
@given(f=symfuncs(), c=coefficients | st.integers(min_value=-5, max_value=5))
def test_symfunc_scalar_mul_matches_reference(f, c):
    assert (f * c).terms == (c * f).terms == symfunc_scale_reference(f, c).terms


def test_symfunc_mul_cancellation():
    # the cross terms p_2 p_1 cancel, and a zero or constant operand is exact
    f, g = p(1) + p(2), p(1) - p(2)
    product = f * g
    assert product.terms == {(1, 1): 1, (2, 2): -1}
    assert product.terms == symfunc_mul_reference(f, g).terms
    assert (f * SymFunc.zero()).terms == {}
    assert (SymFunc.constant(Fraction(2, 7)) * f).terms == {(1,): Fraction(2, 7), (2,): Fraction(2, 7)}
    assert (f * 0).terms == {}


@settings(max_examples=100, deadline=None)
@given(f=series(), g=series())
def test_series_mul_matches_reference(f, g):
    product = f * g
    assert product.max_degree == min(f.max_degree, g.max_degree)
    assert product == series_mul_reference(f, g)
    assert f * f == series_mul_reference(f, f)


@settings(max_examples=50, deadline=None)
@given(x=series(constant=0))
def test_series_mul_cancels_whole_components(x):
    # (1 + x)(1 - x) = 1 - x^2: every odd-in-x contribution cancels exactly
    one = GradedSeries.constant(1, x.max_degree)
    product = (one + x) * (one - x)
    assert product == series_mul_reference(one + x, one - x)
    assert product == one - series_mul_reference(x, x)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), c=nonzero_constants)
def test_series_inverse_matches_reference(data, c):
    f = data.draw(series(constant=c))
    inverse = series_inverse(f)
    assert inverse == series_inverse_reference(f)
    assert f * inverse == GradedSeries.constant(1, f.max_degree)


def test_series_inverse_of_a_constant_only_series():
    f = GradedSeries.constant(Fraction(-3, 7), 5)
    assert series_inverse(f) == series_inverse_reference(f) == GradedSeries.constant(Fraction(-7, 3), 5)


@settings(max_examples=100, deadline=None)
@given(f=series(), g=nonzero_constants.flatmap(lambda c: series(constant=c)))
# series() draws each bound and leaves components zero at random; pinned:
# c != 1 under f with a constant term, unequal bounds both ways, f = 0, f = g
@example(f=GradedSeries(6, {0: Fraction(2, 3), 2: p(2) * Fraction(1, 5), 5: p(3) * p(2)}),
         g=GradedSeries(4, {0: Fraction(-3, 7), 1: p(1), 3: p(1) * p(2) - p(3)}))
@example(f=GradedSeries(3, {1: p(1) * 4}),
         g=GradedSeries(7, {0: 5, 4: p(2) * p(2) * Fraction(1, 9), 7: p(7)}))
@example(f=GradedSeries(5), g=GradedSeries.constant(Fraction(11, 2), 5))
@example(f=GradedSeries(4, {0: 1, 1: p(1)}), g=GradedSeries(4, {0: 1, 1: p(1)}))
def test_series_div_matches_reference(f, g):
    quotient = series_div(f, g)
    assert quotient == series_div_reference(f, g)
    assert quotient.max_degree == min(f.max_degree, g.max_degree)
    assert quotient * g == GradedSeries(quotient.max_degree, f.components)


@settings(max_examples=60, deadline=None)
@given(f=symfuncs(4), g=symfuncs(4), k=symfuncs(4))
def test_symfunc_ring_axioms(f, g, k):
    assert f * g == g * f
    assert (f * g) * k == f * (g * k)
    assert f * (g + k) == f * g + f * k
    assert (f - g) * k == f * k - g * k


@settings(max_examples=40, deadline=None)
@given(f=series(5), g=series(5), k=series(5))
def test_series_ring_axioms(f, g, k):
    assert f * g == g * f
    assert (f * g) * k == f * (g * k)
    assert f * (g + k) == f * g + f * k


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_pleth_inverse_round_trip(data):
    f = data.draw(series(6, constant=0).filter(lambda f: f.max_degree >= 1))
    f.components[1] = p(1)
    assert pleth(f, pleth_inverse(f)) == GradedSeries(f.max_degree, {1: p(1)})


@settings(max_examples=60, deadline=None)
@given(data=st.data(), cs=st.lists(coefficients | st.integers(min_value=-3, max_value=3), max_size=8))
def test_compose_scalar_matches_reference(data, cs):
    g = data.draw(series(6, constant=0))
    assert compose_scalar(cs, g) == compose_scalar_reference(cs, g)


@settings(max_examples=80, deadline=None)
@given(g=series(constant=0))
# pinned: bound 0, g = 0, components of several Fraction terms, and E's
# signed log sum_k (-1)^(k-1) p_k/k
@example(g=GradedSeries(0))
@example(g=GradedSeries(5))
@example(g=GradedSeries(6, {
    1: p(1) * Fraction(-2, 3),
    2: p(2) * Fraction(5, 7) + p(1) * p(1) * Fraction(1, 6),
    4: p(3) * p(1) * Fraction(9, 14) - p(2) * p(2) * Fraction(1, 4) + p(4) * 3,
    6: p(3) * p(2) * p(1) * Fraction(-1, 30),
}))
@example(g=GradedSeries(9, {k: p(k) * Fraction((-1) ** (k - 1), k) for k in range(1, 10)}))
def test_exp_series_matches_reference(g):
    assert exp_series(g) == exp_series_reference(g)


@pytest.mark.parametrize("g", [GradedSeries.constant(1, 4), GradedSeries(3, {0: -2, 1: p(1)})])
def test_exp_series_rejects_a_constant_term(g):
    for exponential in (exp_series, exp_series_reference):
        with pytest.raises(ConstantTermError, match="nonzero constant term is undefined"):
            exponential(g)


@settings(max_examples=80, deadline=None)
@given(f=symfuncs(8), n=st.integers(min_value=0, max_value=6))
def test_from_symfunc_splits_by_degree(f, n):
    # inhomogeneous input, with terms above the bound that must drop
    expected = GradedSeries(n, {d: f.homogeneous_part(d) for d in range(n + 1)})
    assert GradedSeries.from_symfunc(f, n) == expected


def test_graded_series_rejects_nonzero_scalar_above_degree_zero():
    with pytest.raises(ValueError, match="component 2 is not homogeneous of degree 2"):
        GradedSeries(3, {2: 5})
    with pytest.raises(ValueError, match="component 1 is not homogeneous"):
        GradedSeries(3, [1, Fraction(1, 2)])
    assert GradedSeries(3, {2: 0}) == GradedSeries(3)
    assert GradedSeries(3, {0: 5}) == GradedSeries.constant(5, 3)


def test_graded_series_rejects_a_negative_degree():
    # comps[-1] would be the top component, so degree 3 would be lost
    with pytest.raises(ValueError, match="component -1 has a negative degree"):
        GradedSeries(3, {3: p(3), -1: 0})


def test_compose_scalar_reads_only_the_coefficients_it_needs():
    n = 5

    def coefficients():
        for m in count(1):
            assert m <= n, f"coefficient c_{m} read past the bound {n}"
            yield Fraction((-1) ** (m - 1), m)

    g = GradedSeries(n, {1: p(1), 2: p(2)})
    assert compose_scalar(coefficients(), g) == log1p_series(g)
    assert compose_scalar(count(1), g) == compose_scalar(lambda m: m, g)


@pytest.mark.parametrize("c", [Fraction(3, 2), -2, 0, True])
def test_a_scalar_sum_keeps_the_components_above_degree_zero(c):
    s = GradedSeries(4, {0: 5, 1: p(1), 2: h(2), 4: p(2) * p(2)})
    for result, zero in ((s + c, 5 + c), (c + s, 5 + c), (s - c, 5 - c)):
        assert result.max_degree == 4
        assert result.components[0] == SymFunc.constant(zero)
        assert all(a is b for a, b in zip(result.components[1:], s.components[1:]))
    negated = c - s
    assert negated == -(s - c)
    assert negated.components[0] == SymFunc.constant(c - 5)


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        SymFunc({(1,): 0.1})
    with pytest.raises(TypeError):
        SymFunc({(1,): "1/2"})
    with pytest.raises(TypeError):
        SymFunc.constant(0.5)
    with pytest.raises(TypeError):
        GradedSeries(2, {0: 0.5})
    with pytest.raises(TypeError):
        compose_scalar([0.1], GradedSeries(2, {1: p(1)}))
    with pytest.raises(TypeError):
        compose_scalar(lambda m: 1.0 / m, GradedSeries(2, {1: p(1)}))
    for operate in (
        lambda: p(1) * 1.5,
        lambda: 1.5 * p(1),
        lambda: p(1) + 0.5,
        lambda: 0.5 + p(1),
        lambda: p(1) - 0.5,
        lambda: 0.5 - p(1),
        lambda: GradedSeries.constant(1, 3) * 1.5,
        lambda: GradedSeries.constant(1, 3) + 0.5,
        lambda: GradedSeries.constant(1, 3) - 0.5,
        lambda: GradedSeries.constant(1, 3) / 0.5,
        lambda: 1.5 * GradedSeries.constant(1, 3),
        lambda: 0.5 + GradedSeries.constant(1, 3),
        lambda: 0.5 - GradedSeries.constant(1, 3),
        lambda: p(1) - "1",
        lambda: "1" - p(1),
        lambda: "1" - GradedSeries.constant(1, 3),
        lambda: p(1) - GradedSeries.constant(1, 3),
        lambda: GradedSeries.constant(1, 3) - p(1),
    ):
        with pytest.raises(TypeError):
            operate()
    # exact rationals of every kind still work
    assert Fraction(1, 2) - p(1) == SymFunc({(): Fraction(1, 2), (1,): -1})
    assert 2 - GradedSeries.constant(1, 3) == GradedSeries.constant(1, 3)
    assert p(1) * True == p(1)
    assert (h(2) * Fraction(2)).terms == {(1, 1): 1, (2,): 1}
