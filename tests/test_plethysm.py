import gc
from fractions import Fraction
from random import Random

import pytest

import symlie.series as series
from symlie import verify
from symlie.lie import e_series, h_series, lie, lie_series, named_series
from symlie.plethysm import (
    ConstantTermError,
    LeadingTermError,
    pleth,
    pleth_inverse,
)
from symlie.series import GradedSeries, exp_series, parity_split, series_div, series_inverse
from symlie.symfunc import SymFunc, _form_of_products, e, h, omega, p, schur, schur_expand

from helpers import (
    monomial_pleth,
    pleth_inverse_reference,
    pleth_reference,
    random_homogeneous,
    random_series,
    random_symfunc,
    specialize,
    valid_inverse_candidate,
)


def as_series(f, n):
    return GradedSeries.from_symfunc(f, n)


def p1_series(n):
    return GradedSeries(n, {1: p(1)})


def test_pleth_power_sums():
    g = as_series(p(3), 8)
    out = pleth(p(2), g)
    assert out.components[6] == SymFunc({(6,): 1})
    assert all(not out.components[d] for d in range(9) if d != 6)
    # p_n[p_m] = p_{nm} = p_m[p_n]
    assert pleth(p(3), as_series(p(2), 8)).components[6] == SymFunc({(6,): 1})


def test_pleth_identity_alphabet():
    rng = Random(7)
    for _ in range(6):
        f = random_symfunc(rng, 7)
        assert pleth(f, p1_series(7)) == as_series(f, 7)


def test_pleth_constant_first_argument():
    g = random_series(Random(1), 6)
    for c in (0, 1, Fraction(-3, 2)):
        out = pleth(SymFunc.constant(c), g)
        assert out == GradedSeries.constant(c, 6)


def test_pleth_rejects_nonzero_constant_term():
    bad = GradedSeries.constant(1, 5) + p1_series(5)
    with pytest.raises(ConstantTermError):
        pleth(h(2), bad)


def test_scale_series():
    # p_2[g] scales each p_lam in g to p_{2 lam}: p_2[p_1 + p_2] = p_2 + p_4
    g = as_series(p(1) + p(2), 8)
    doubled = pleth(p(2), g)
    assert doubled.components[2] == p(2)
    assert doubled.components[4] == p(4)
    assert doubled == as_series(p(2) + p(4), 8)


def test_pleth_h2_e2_schur_expansion():
    # verified against the monomial-alphabet oracle with 4 variables below
    out = pleth(h(2), as_series(e(2), 4)).components[4]
    assert schur_expand(out) == {(2, 2): 1, (1, 1, 1, 1): 1}
    assert specialize(out, 4) == monomial_pleth(h(2), e(2), 4)


def test_ring_homomorphism_in_first_argument():
    rng = Random(13)
    for _ in range(5):
        f = random_symfunc(rng, 3)
        g = random_symfunc(rng, 3)
        q = random_series(rng, 9)
        assert pleth(f * g, q) == pleth(f, q) * pleth(g, q)
        assert pleth(f + g, q) == pleth(f, q) + pleth(g, q)
        # (c g)[q] = c g[q]
        assert pleth(g * Fraction(5, 3), q) == pleth(g, q) * Fraction(5, 3)


def test_quotient_rule():
    rng = Random(19)
    for _ in range(4):
        f = random_series(rng, 8) + 1
        q = random_series(rng, 8)
        assert pleth(series_inverse(f), q) == series_inverse(pleth(f, q))


def test_associativity():
    rng = Random(23)
    for _ in range(4):
        f = random_symfunc(rng, 4)
        g = random_series(rng, 8)
        y = random_series(rng, 8)
        inner_then = pleth(pleth(f, g), y)
        then_inner = pleth(f, pleth(g, y))
        assert inner_then == then_inner


def test_pn_commutation():
    # p_n[f] = f[p_n], for f without constant term
    rng = Random(29)
    for n in (1, 2, 3):
        f = random_symfunc(rng, 4)
        f = SymFunc({lam: c for lam, c in f.terms.items() if lam})
        assert pleth(p(n), as_series(f, 12)) == pleth(f, as_series(p(n), 12))


def test_addition_rule():
    rng = Random(31)
    for n in (2, 3):
        q = random_series(rng, 9)
        r = random_series(rng, 9)
        for build in (h, e):
            lhs = pleth(build(n), q + r)
            rhs = GradedSeries(9)
            for k in range(n + 1):
                rhs = rhs + pleth(build(k), q) * pleth(build(n - k), r)
            assert lhs == rhs


def test_sign_rule():
    rng = Random(37)
    for d in (1, 2, 3):
        q = random_homogeneous(rng, d)
        r = random_series(rng, 9)
        lhs = pleth(q, -r)
        rhs = pleth(omega(q), r) * ((-1) ** d)
        assert lhs == rhs


def test_omega_twist():
    from symlie.series import omega_series

    rng = Random(41)
    for deg_r in (1, 2, 3):
        q = random_homogeneous(rng, 2)
        r = random_homogeneous(rng, deg_r)
        r_series = as_series(r, 8)
        lhs = omega_series(pleth(q, r_series))
        twisted = omega(q) if deg_r % 2 else q
        rhs = pleth(twisted, as_series(omega(r), 8))
        assert lhs == rhs


def test_product_splitting_lemma():
    rng = Random(43)
    n = 8
    H = h_series(n)
    E = e_series(n)
    for _ in range(3):
        f = random_series(rng, n)
        g = random_series(rng, n)
        assert pleth(H, f + g) == pleth(H, f) * pleth(H, g)
        assert pleth(E, f + g) == pleth(E, f) * pleth(E, g)
        he = H * E
        assert pleth(he, f + g) == pleth(he, f) * pleth(he, g)


def test_pleth_inverse_identity():
    assert pleth_inverse(p1_series(6)) == p1_series(6)


def test_pleth_inverse_requires_p1():
    with pytest.raises(LeadingTermError):
        pleth_inverse(GradedSeries(4, {1: 2 * p(1)}))
    with pytest.raises(LeadingTermError):
        pleth_inverse(GradedSeries.constant(1, 4) + p1_series(4))
    with pytest.raises(LeadingTermError):
        pleth_inverse(GradedSeries(4, {2: p(2)}))


def test_pleth_inverse_composes_to_identity():
    rng = Random(47)
    for _ in range(4):
        f = valid_inverse_candidate(rng, 7)
        g = pleth_inverse(f)
        assert pleth(f, g) == p1_series(7)
        assert pleth(g, f) == p1_series(7)


def test_pleth_inverse_involution():
    rng = Random(53)
    for _ in range(3):
        f = valid_inverse_candidate(rng, 7)
        assert pleth_inverse(pleth_inverse(f)) == f


def test_pleth_inverse_of_quotient_is_lie_odd():
    n = 11
    E = e_series(n)
    q = series_div(parity_split(E, "odd"), parity_split(E, "even"))
    assert pleth_inverse(q) == named_series("Lie_odd", n)


def test_pleth_inverse_of_h_minus_one_is_cadogans_series():
    # Cadogan (1971): (H - 1)^{-1} = sum_n (-1)^{n-1} omega(Lie_n), Lie_n by Moebius
    n = 22
    expected = GradedSeries(n, {d: omega(lie(d)) * (-1) ** (d - 1) for d in range(1, n + 1)})
    assert pleth_inverse(h_series(n) - 1) == expected


def test_min_bound_truncation():
    f = random_series(Random(59), 9, zero_constant=False)
    g = random_series(Random(61), 5)
    assert pleth(f, g).max_degree == 5
    assert pleth(h(2), g).max_degree == 5


def test_oracle_equivalence_small_sweep():
    # nonnegative-integer combinations of h/e/s, evaluation degree <= 8
    cases = [
        (h(2), e(2), 4),
        (e(2), h(2), 4),
        (h(3), e(2), 6),
        (e(2) + h(1), e(2), 6),
        (schur((2, 1)), h(2), 6),
        (h(2) + 2 * schur((1, 1)), h(2) + e(2), 8),
    ]
    for f, g, m in cases:
        full = pleth(f, GradedSeries.from_symfunc(g, 12))
        total = SymFunc.zero()
        for d in range(13):
            total = total + full.components[d]
        assert specialize(total, m) == monomial_pleth(f, g, m), (f, g)


def test_pleth_frees_partial_products_without_the_cycle_collector():
    # The trie and columns pleth builds die with the call; a reference
    # cycle would keep them until a generation-2 collection.
    f, g = h_series(8), lie_series(8)
    gc.collect()
    gc.disable()
    try:
        pleth(f, g)
        exp_series(g)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_pleth_inverse_frees_partial_products_without_the_cycle_collector():
    f = h_series(8) - 1
    gc.collect()
    gc.disable()
    try:
        pleth_inverse(f)
        exp_series(f)
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- nothing kept on the inner series ----------------------------------------------


def _fresh_copy(g):
    """g's values in a new series object."""
    return GradedSeries(g.max_degree, g.components)


def _shared_inner():
    return GradedSeries(12, {1: p(1), 2: p(2) * Fraction(1, 2) - p(1) * p(1),
                             3: p(3) * Fraction(-2, 3), 5: p(3) * p(2) + p(5)})


def test_plethysms_with_overlapping_prefixes_into_one_series():
    g = _shared_inner()
    # the prefixes (2, 1), (2, 1, 1) and (3, 2) are shared by terms of both
    first = p(2) * p(1) * p(1) * 3 + p(3) * p(2) - p(4)
    second = p(2) * p(1) * p(1) * p(1) + p(3) * p(2) * p(2) * Fraction(1, 5) + p(2) * p(1)
    for f in (first, second, first):
        assert pleth(f, g) == pleth_reference(f, g) == pleth(f, _fresh_copy(g))


def test_plethysms_at_a_lower_and_a_higher_bound_into_one_series():
    g = _shared_inner()
    low = GradedSeries(6, {2: p(1) * p(1) - p(2), 3: p(2) * p(1), 4: p(2) * p(1) * p(1)})
    high = GradedSeries(12, {
        **dict(enumerate(low.components)),
        8: SymFunc({(2,) + (1,) * 6: Fraction(1, 3)}),
        12: SymFunc({(3, 2) + (1,) * 7: 1}),
    })
    assert pleth(low, g) == pleth_reference(low, g)
    assert pleth(high, g) == pleth_reference(high, g) == pleth(high, _fresh_copy(g))
    assert pleth(low, g) == pleth_reference(low, g)


def test_a_constant_term_after_an_earlier_plethysm_into_one_series():
    g = _shared_inner()
    pleth(GradedSeries(4, {2: p(1) * p(1), 3: p(2) * p(1)}), g)
    # f's constant term is the root's degree 0, and no child reaches it
    f = GradedSeries(12, {0: Fraction(-5, 2), 3: p(2) * p(1), 6: p(3) * p(3)})
    assert pleth(f, g) == pleth_reference(f, g) == pleth(f, _fresh_copy(g))
    assert pleth(SymFunc.constant(7), g) == GradedSeries.constant(7, 12)


def test_pleth_kernel_keeps_each_node_only_to_the_degree_its_prefix_leaves(monkeypatch):
    # S_nu is built through degree n - |nu| and no further, which fixes the
    # kernel's work: the prefix-product table it replaced took 215 calls
    # and 1,441 term pairs
    work = []

    def counted(pairs, *scale):
        pairs = list(pairs)
        work.append(sum(len(x[0]) * len(y[0]) for x, y in pairs))
        return _form_of_products(pairs, *scale)

    f, g = verify._quotient(14, False), named_series("Lie_odd", 14)
    monkeypatch.setattr(series, "_form_of_products", counted)
    first = pleth(f, g)
    assert (len(work), sum(work)) == (77, 602)
    del work[:]
    # a second plethysm into the same series does the same work
    assert pleth(f, g) == first
    assert (len(work), sum(work)) == (77, 602)


def test_pleth_inverse_neither_reads_nor_keeps_rows_on_its_argument():
    f = valid_inverse_candidate(Random(5), 8)
    before = _fresh_copy(f)
    expected = pleth_inverse_reference(f)
    assert pleth_inverse(f) == expected
    assert pleth_inverse(f) == expected
    assert not hasattr(f, "_powers")
    assert f == before
