"""The two triangular solvers, pinned exactly to the algorithms they replaced
(tests/helpers.py): back-substitution into the h and e bases against dense
Gaussian elimination, and the Horner solve of pleth_inverse against the
one-pass prefix solve it replaced and against one full pleth per degree.
The kernel work of the Horner driver is pinned for pleth_inverse and for
compose_scalar's chain trie."""

from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symlie.cli import evaluate, parse
from symlie.lie import named_series
from symlie.partitions import partitions_of
from symlie.plethysm import pleth, pleth_inverse
import symlie.series as series
from symlie.series import GradedSeries, log1p_series, tan_series, tanh_series
from symlie.symfunc import _form_of_products, _from_form, _h_form, expand_in_basis, omega, p
from symlie.verify import _odd_powersum

from helpers import (
    head,
    homogeneous,
    pleth_inverse_prefix_reference,
    pleth_inverse_reference,
    solve_in_h_reference,
    valid_inverse_candidate,
)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(min_value=0, max_value=8))
def test_h_and_e_expansions_match_elimination(data, d):
    f = data.draw(homogeneous(d, max_terms=6))
    assert expand_in_basis(f, "h") == solve_in_h_reference(f, d)
    assert expand_in_basis(f, "e") == solve_in_h_reference(omega(f), d)


@pytest.mark.parametrize("name", ["H", "E", "HE", "Hk", "Lie", "Jordan"])
def test_named_series_expansions_match_elimination(name):
    for d, part in enumerate(named_series(name, 10).components):
        assert expand_in_basis(part, "h") == solve_in_h_reference(part, d), (name, d)
        assert expand_in_basis(part, "e") == solve_in_h_reference(omega(part), d), (name, d)


def test_h_products_are_triangular_in_partition_order():
    for d in range(11):
        position = {lam: i for i, lam in enumerate(partitions_of(d))}
        for lam in partitions_of(d):
            terms = _from_form(_h_form(lam)).terms
            assert all(position[rho] >= position[lam] for rho in terms), lam
            assert terms[lam] * prod(lam) == 1, lam


def _p1(n: int) -> GradedSeries:
    return GradedSeries(n, {1: p(1)})


@settings(max_examples=60, deadline=None)
@given(rng=st.randoms(use_true_random=False), n=st.integers(min_value=1, max_value=9))
def test_pleth_inverse_matches_reference_on_random_candidates(rng, n):
    f = valid_inverse_candidate(rng, n)
    g = pleth_inverse(f)
    assert g == pleth_inverse_prefix_reference(f) == pleth_inverse_reference(f)
    assert pleth(f, g) == _p1(n)


@pytest.mark.parametrize("source, n", [
    ("E_odd/E_even", 14), ("H-1", 10), ("H-1", 16), ("E_odd/E_even", 16),
    ("E_odd_alt/E_even_alt", 16), ("Lie_odd", 16), ("Lie_odd_alt", 16),
])
def test_pleth_inverse_matches_reference_on_named_quotients(source, n):
    f = evaluate(parse(source), n)
    g = pleth_inverse(f)
    assert g == pleth_inverse_reference(f)
    assert pleth(f, g) == _p1(n)
    # the inverse of f truncated at d is g truncated at d
    for d in range(n + 1):
        assert pleth_inverse(head(f, d)) == head(g, d) == pleth_inverse_prefix_reference(head(f, d)), d


def _kernel_work(monkeypatch, run):
    """(calls, term pairs) of the Horner kernel's _form_of_products during run()."""
    work = []

    def counted(pairs, *scale):
        pairs = list(pairs)
        work.append(sum(len(x[0]) * len(y[0]) for x, y in pairs))
        return _form_of_products(pairs, *scale)

    with monkeypatch.context() as patch:
        patch.setattr(series, "_form_of_products", counted)
        run()
    return len(work), sum(work)


def test_horner_solve_keeps_each_node_only_to_the_degree_its_prefix_leaves(monkeypatch):
    # S_nu is built through degree n - |nu| and no further, which fixes the
    # kernel's work: the prefix solve took 1,505 calls and 30,685 term pairs
    # at 14, and 5,439 calls and 197,697 term pairs at 18
    for n, expected in [(14, (506, 7995)), (18, (1595, 31423))]:
        f = evaluate(parse("H-1"), n)
        assert _kernel_work(monkeypatch, lambda: pleth_inverse(f)) == expected, n


@pytest.mark.parametrize("compose, alternating, expected", [
    (tanh_series, False, (81, 1062)),
    (tan_series, True, (81, 1062)),
    (log1p_series, False, (171, 2434)),
])
def test_chain_trie_keeps_each_node_only_to_the_degree_its_prefix_leaves(
    monkeypatch, compose, alternating, expected
):
    # compose_scalar's trie of sum_m c_m p_1^m is a chain whose node m is
    # kept through degree 18 - m
    z = _odd_powersum(18, alternating)
    assert _kernel_work(monkeypatch, lambda: compose(z)) == expected
