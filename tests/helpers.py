"""Shared test utilities: independent counting oracles and seeded generators."""

from fractions import Fraction
from itertools import permutations
from random import Random

from symlie import GradedSeries, SymFunc, h
from symlie.partitions import partitions_of


def pentagonal_count(n: int) -> int:
    """Partition counts from the classical pentagonal-number recurrence,
    independent of the package's enumeration."""
    counts = [1]
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * counts[m - g1]
            if g2 <= m:
                total += sign * counts[m - g2]
            k += 1
        counts.append(total)
    return counts[n]


def random_symfunc(rng: Random, max_degree: int, terms: int = 4) -> SymFunc:
    """Sparse random element with small rational coefficients."""
    out = {}
    for _ in range(terms):
        d = rng.randint(0, max_degree)
        pool = partitions_of(d)
        lam = pool[rng.randrange(len(pool))]
        out[lam] = Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
    return SymFunc(out)


def random_homogeneous(rng: Random, degree: int, terms: int = 3) -> SymFunc:
    pool = partitions_of(degree)
    out = {}
    for _ in range(terms):
        lam = pool[rng.randrange(len(pool))]
        out[lam] = Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
    return SymFunc(out)


def random_series(rng: Random, max_degree: int, zero_constant: bool = True) -> GradedSeries:
    series = GradedSeries(max_degree)
    start = 1 if zero_constant else 0
    for d in range(start, max_degree + 1):
        if rng.random() < 0.7:
            series.components[d] = random_homogeneous(rng, d, terms=2)
    return series


def valid_inverse_candidate(rng: Random, max_degree: int) -> GradedSeries:
    """Random series with degree-1 part exactly p_1 (so it has a composition
    inverse)."""
    series = random_series(rng, max_degree)
    series.components[0] = SymFunc.zero()
    series.components[1] = SymFunc({(1,): 1})
    return series


def prefix_equal(a: GradedSeries, b: GradedSeries, through: int) -> bool:
    return all(a.components[d] == b.components[d] for d in range(through + 1))


def jacobi_trudi_reference(outer, inner) -> SymFunc:
    """The skew Schur function s_{outer/inner} as det(h_{outer_i - inner_j - i + j}),
    a sum over permutations of products of p-basis SymFuncs (h_0 = 1,
    h_{<0} = 0): the reference for the h-monomial determinant in symlie.lie."""
    rows = len(outer)
    inner = tuple(inner) + (0,) * (rows - len(inner))
    total = SymFunc.zero()
    for sigma in permutations(range(rows)):
        inversions = sum(
            1 for i in range(rows) for j in range(i + 1, rows) if sigma[i] > sigma[j]
        )
        prod = SymFunc.constant(-1 if inversions % 2 else 1)
        for i in range(rows):
            d = outer[i] - inner[sigma[i]] - i + sigma[i]
            if d < 0:
                break
            if d > 0:
                prod = prod * h(d)
        else:
            total = total + prod
    return total
