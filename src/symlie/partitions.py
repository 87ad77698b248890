"""Integer partitions and the arithmetic functions keyed to them.

A partition is a tuple of weakly decreasing positive ints; the empty tuple
is the unique partition of 0.  Plain tuples give structural equality, a
total order and hashability for free, which matters because partitions key
every sparse map in this package.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import Tuple

Partition = Tuple[int, ...]


def check_partition(parts) -> Partition:
    """Validate and canonicalize an iterable of parts into a partition tuple."""
    lam = tuple(parts)
    for i, part in enumerate(lam):
        if not isinstance(part, int) or isinstance(part, bool) or part < 1:
            raise ValueError(f"partition parts must be positive integers, got {lam!r}")
        if i > 0 and lam[i - 1] < part:
            raise ValueError(f"partition parts must be weakly decreasing, got {lam!r}")
    return lam


@lru_cache(maxsize=None)
def partitions_of(n: int) -> Tuple[Partition, ...]:
    """All partitions of n, each once, in reverse-lexicographic order.

    E.g. partitions_of(4) = ((4,), (3,1), (2,2), (2,1,1), (1,1,1,1)).
    The order is a contract: symfunc._solve_in_h relies on every refinement
    of lam coming after lam.  Each partition is made from the one before:
    the last part above 1 drops by one and the rest is refilled greedily.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    lam = (n,) if n else ()
    out = [lam]
    while lam and lam[0] > 1:
        ones = lam.index(1) if lam[-1] == 1 else len(lam)
        k = lam[ones - 1] - 1
        q, r = divmod(len(lam) - ones + 1, k)
        lam = lam[: ones - 1] + (k,) * (q + 1) + ((r,) if r else ())
        out.append(lam)
    return tuple(out)


def multiplicities(lam: Partition) -> dict:
    """Map part value -> number of occurrences."""
    mults: dict = {}
    for part in lam:
        mults[part] = mults.get(part, 0) + 1
    return mults


def z_of(lam: Partition) -> int:
    """Centralizer order of a permutation of cycle type lam: prod_i i^{m_i} m_i!."""
    z = 1
    for value, mult in multiplicities(lam).items():
        z *= value**mult * factorial(mult)
    return z


def mobius(d: int) -> int:
    """Number-theoretic Moebius function: 0 on non-squarefree d, else (-1)^{#primes}."""
    if d < 1:
        raise ValueError("d must be positive")
    primes = 0
    p = 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            primes += 1
        else:
            p += 1
    if d > 1:
        primes += 1
    return -1 if primes % 2 else 1


def staircase(n: int) -> Partition:
    """The staircase (n-1, n-2, ..., 1); n = 1 gives the empty partition."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return tuple(range(n - 1, 0, -1))


def format_partition(lam: Partition) -> str:
    """Text form, e.g. [3,2,1]; the empty partition prints as []."""
    return "[" + ",".join(str(part) for part in lam) + "]"
