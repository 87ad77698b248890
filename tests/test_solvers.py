"""The two triangular solvers, pinned exactly to the algorithms they replaced
(tests/helpers.py): back-substitution into the h and e bases against dense
Gaussian elimination, and the one-pass pleth_inverse against one full pleth
per degree."""

from math import prod
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symlie.cli import evaluate, parse
from symlie.lie import named_series
from symlie.partitions import partitions_of
from symlie.plethysm import pleth, pleth_inverse
from symlie.series import GradedSeries
from symlie.symfunc import _from_form, _h_form, expand_in_basis, omega, p

from helpers import (
    homogeneous,
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


def test_pleth_inverse_matches_reference_on_random_candidates():
    rng = Random(71)
    for n in (1, 2, 5, 8, 9):
        for _ in range(3):
            f = valid_inverse_candidate(rng, n)
            g = pleth_inverse(f)
            assert g == pleth_inverse_reference(f)
            assert pleth(f, g) == _p1(n)


@pytest.mark.parametrize("source, n", [("E_odd/E_even", 14), ("H-1", 10)])
def test_pleth_inverse_matches_reference_on_named_quotients(source, n):
    f = evaluate(parse(source), n)
    g = pleth_inverse(f)
    assert g == pleth_inverse_reference(f)
    assert pleth(f, g) == _p1(n)
