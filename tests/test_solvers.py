"""The two triangular solvers, pinned exactly to the algorithms they replaced
(tests/helpers.py): back-substitution into the h and e bases against dense
Gaussian elimination, and the Horner solve of pleth_inverse against the
one-pass prefix solve it replaced and against one full pleth per degree."""

from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symlie.cli import evaluate, parse
from symlie.lie import named_series
from symlie.partitions import partitions_of
from symlie.plethysm import pleth, pleth_inverse
import symlie.series as series
from symlie.series import GradedSeries
from symlie.symfunc import _form_of_products, _from_form, _h_form, expand_in_basis, omega, p

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


def test_horner_solve_keeps_each_node_only_to_the_degree_its_prefix_leaves(monkeypatch):
    # S_nu is built through degree n - |nu| and no further, which fixes the
    # kernel's work: the prefix solve took 1,505 calls and 30,685 term pairs
    work = []

    def counted(pairs, *scale):
        pairs = list(pairs)
        work.append(sum(len(x[0]) * len(y[0]) for x, y in pairs))
        return _form_of_products(pairs, *scale)

    f = evaluate(parse("H-1"), 14)
    monkeypatch.setattr(series, "_form_of_products", counted)
    pleth_inverse(f)
    assert (len(work), sum(work)) == (506, 7995)
