from math import factorial

import pytest

from symlie.partitions import (
    check_partition,
    mobius,
    partitions_of,
    staircase,
    z_of,
)

from helpers import partitions_reference, pentagonal_count


def test_partitions_of_zero():
    assert partitions_of(0) == ((),)


def test_partitions_of_four_reverse_lex():
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_partitions_of_ten_count():
    assert len(partitions_of(10)) == 42


def test_counts_match_pentagonal_recurrence():
    for n in range(31):
        assert len(partitions_of(n)) == pentagonal_count(n)


def test_partitions_of_matches_the_recursive_reference_in_order():
    # symfunc._solve_in_h walks this order, so the order is pinned too
    for n in range(27):
        assert partitions_of(n) == tuple(partitions_reference(n))


def test_partitions_unique():
    for n in range(11):
        parts = partitions_of(n)
        assert len(set(parts)) == len(parts)
        assert all(sum(lam) == n for lam in parts)


def test_z_of_examples():
    assert z_of((1, 1, 1)) == 6
    assert z_of((3, 1, 1)) == 6
    for n in range(1, 9):
        assert z_of((n,)) == n


def test_class_equation():
    # sum over classes of the class sizes n!/z_lam recovers the group order
    for n in range(11):
        assert sum(factorial(n) // z_of(lam) for lam in partitions_of(n)) == factorial(n)


def test_mobius_values():
    assert mobius(1) == 1
    assert mobius(4) == 0
    assert mobius(6) == 1
    assert mobius(2) == -1
    assert mobius(30) == -1
    assert mobius(12) == 0


def test_mobius_delta_sum():
    for j in range(1, 201):
        total = sum(mobius(d) for d in range(1, j + 1) if j % d == 0)
        assert total == (1 if j == 1 else 0)


def test_staircase():
    assert staircase(1) == ()
    assert staircase(2) == (1,)
    assert staircase(4) == (3, 2, 1)
    with pytest.raises(ValueError):
        staircase(0)


def test_check_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, 0))
