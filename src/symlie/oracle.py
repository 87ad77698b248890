"""Independent brute-force computations used to validate the algebraic engine.

Nothing in here goes through the plethysm substitution or the Moebius
formula: plethysm is replayed on explicit monomial alphabets, substituting
f into the monomials of g(x_1, ..., x_m) in orbit form, and specialization
is the same substitution into the alphabet of variables x_1 + ... + x_m,
both summed on f's integer numerators into a form keyed by exponent vector.
The free Lie character comes from the traces of permuted bracketings (its
characteristic from symfunc.frobenius, which divides by z_mu), and the
Euler/tangent numbers come from counting alternating permutations built
value by value.  That count extends the prefixes one position at a time,
keyed by their set of values and their last value, each set in one pass
over the values with a running sum of its counts; it uses no Entringer or
boustrophedon recurrence and no tan/sec series, which the tangent checks
compare against, and foulkes_staircase reads it into a ribbon's character.
Standard skew tableaux are counted cell by cell, with the completions
shared per frontier.  The trace reads one word's coefficient per permuted
bracket, without expanding the bracket into its 2^(n-1) words: one walk
over the bracket's letters, mapped in place through the class's
permutation and the word's positions, both lists indexed by letter.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, factorial
from typing import Dict, List, Sequence, Tuple

from .partitions import Partition, check_partition, multiplicities
from .symfunc import SymFunc, _from_form, _key, _lowest, _partition, frobenius


# --- orbit-collected symmetric polynomials --------------------------------------
#
# A symmetric polynomial in m variables is stored as {sorted exponent vector
# (trailing zeros stripped) -> coefficient of any one monomial in the orbit}:
# a CollectedPoly for collected_mul, a SymFunc's terms for _substitute.
# Multiplication places the parts of the factor with the smaller orbit on
# the padded exponents of the other: for dominant gamma, the number of
# monomial pairs from orbit(mu) x orbit(nu) landing on x^gamma is
#     #perms(mu) * #{beta in perms(nu): sort(mu + beta) = gamma} / #perms(gamma),
# an integer, and the placements beta are counted a class at a time: by how
# many copies of each part of nu land on each value of mu (_collected_mul_term).

CollectedPoly = Dict[Partition, Fraction]

# An alphabet is a sorted tuple of (exponent partition, multiplicity) pairs:
# every monomial in the orbit of x^gamma is a letter, counted multiplicity times.
Alphabet = Tuple[Tuple[Partition, int], ...]

# The variables x_1 + ... + x_m: one letter per orbit of x_1.
_VARIABLES: Alphabet = (((1,), 1),)


@lru_cache(maxsize=None)
def _perm_count(lam: Partition, m: int) -> int:
    # distinct arrangements of lam among m slots (zeros fill the rest)
    count = factorial(m) // factorial(m - len(lam))
    for mult in multiplicities(lam).values():
        count //= factorial(mult)
    return count


@lru_cache(maxsize=None)
def _collected_mul_term(
    mu: Partition, nu: Partition, m: int
) -> Tuple[Tuple[Partition, int], ...]:
    """m_mu * m_nu in m variables, as (gamma, multiplicity) pairs; shared.

    The m slots of mu, padded with zeros, fall into groups by value, the
    zeros one group among them.  A placement of nu is fixed, up to the
    slots it picks inside each group, by how many copies of each part
    value of nu go into each group; one such pattern fixes gamma and
    stands for prod C(free, copies) placements, free being the slots of
    the group that the earlier part values left empty."""
    if len(mu) > m or len(nu) > m:
        return ()
    if not nu:
        return ((mu, 1),)
    groups = multiplicities(mu)
    groups[0] = m - len(mu)
    values, free = list(groups), list(groups.values())
    parts = list(multiplicities(nu).items())
    hits: Dict[Partition, int] = {}

    def spread(i: int, j: int, left: int, count: int, placed: List[int]):
        # `left` copies of the i-th part value of nu go into the groups from j on
        if not left:
            i, j = i + 1, 0
            if i == len(parts):
                rest = [v for v, f in zip(values, free) if v for _ in range(f)]
                gamma = tuple(sorted(placed + rest, reverse=True))
                hits[gamma] = hits.get(gamma, 0) + count
                return
            left = parts[i][1]
        if j == len(values):
            return
        f = free[j]
        grown = values[j] + parts[i][0]
        for a in range(min(f, left) + 1):
            free[j] = f - a
            spread(i, j + 1, left - a, count * comb(f, a), placed + [grown] * a)
        free[j] = f

    spread(0, 0, parts[0][1], 1, [])
    mu_count = _perm_count(mu, m)
    return tuple(
        (gamma, mu_count * cnt // _perm_count(gamma, m)) for gamma, cnt in hits.items()
    )


def collected_mul(a: CollectedPoly, b: CollectedPoly, m: int) -> CollectedPoly:
    """Product of two symmetric polynomials in collected (orbit) form."""
    out: CollectedPoly = {}
    for mu, ca in a.items():
        for nu, cb in b.items():
            if _perm_count(nu, m) <= _perm_count(mu, m):
                big, small = mu, nu
            else:
                big, small = nu, mu
            for gamma, mult in _collected_mul_term(big, small, m):
                new = out.get(gamma, 0) + ca * cb * mult
                if new:
                    out[gamma] = new
                else:
                    del out[gamma]
    return out


@lru_cache(maxsize=None)
def _power_product(alphabet: Alphabet, m: int, lam: Partition) -> tuple:
    """p_lam on the alphabet in m variables, in collected form, built from
    its prefix lam[:-1]; p_k sends each letter x^gamma to x^(k gamma)."""
    if not lam:
        return (((), 1),)
    k = lam[-1]
    power = {tuple(k * x for x in gamma): mult for gamma, mult in alphabet}
    return tuple(collected_mul(dict(_power_product(alphabet, m, lam[:-1])), power, m).items())


def _substitute(f: SymFunc, alphabet: Alphabet, m: int) -> SymFunc:
    """f evaluated on the alphabet, in collected form: f's integer numerators
    summed per exponent vector gamma, in a form over f's denominator."""
    terms, den = f._form or ((), 1)
    acc: Dict[Partition, int] = {}
    for key, num in terms:
        for gamma, value in _power_product(alphabet, m, _partition(key)):
            acc[gamma] = acc.get(gamma, 0) + num * value
    return _from_form(_lowest(tuple([(_key(gamma), v) for gamma, v in acc.items() if v]), den))


def specialize_collected(f: SymFunc, m: int) -> SymFunc:
    """f(x_1, ..., x_m, 0, 0, ...) in collected form: f substituted into the
    alphabet x_1 + ... + x_m, so p_k maps to x_1^k + ... + x_m^k.  Its
    partitions are the orbits' sorted exponent vectors, not power sums."""
    if m < 1:
        raise ValueError("need at least one variable")
    return _substitute(f, _VARIABLES, m)


def monomial_pleth_collected(f: SymFunc, g: SymFunc, m: int) -> SymFunc:
    """f evaluated on the alphabet of monomials of g, in collected form,
    keyed by exponent vector as in specialize_collected.

    Each monomial of g(x_1, ..., x_m) with coefficient c counts as c
    letters, so p_k picks up sum_j c_j * (monomial_j)^k; the coefficients
    must be nonnegative integers (a form over 1).  Power products are cached
    per alphabet, so sweeping many f against one g costs one set of products."""
    letters, den = specialize_collected(g, m)._form or ((), 1)
    if den != 1 or any(c < 0 for _, c in letters):
        raise ValueError("alphabet requires nonnegative integer monomial coefficients")
    alphabet = tuple(sorted((_partition(key), c) for key, c in letters))
    return _substitute(f, alphabet, m)


# --- free Lie algebra character --------------------------------------------------


def _bracket_coefficient(letters: Sequence[int], perm: Sequence[int],
                         position: Sequence[int]) -> int:
    """Coefficient of a word in the associative expansion of the left-normed
    bracket [[..[p(l1),p(l2)],..],p(lk)] of distinct letters, p = perm, the
    word a rearrangement given by the position of each letter in it; perm
    and position are indexed by letter, and the walk reads p(li) in place.

    The expansion puts each new letter at the right end (+) or the left end
    (-) of every word so far, so the words that reach the word keep
    p(l1)..p(li) on a contiguous interval of it.  Each letter must extend
    that interval by one on the right or on the left, which fixes a single
    path: the coefficient is 0 or +-1."""
    walk = iter(letters)
    left = right = position[perm[next(walk)]]
    sign = 1
    for x in walk:
        i = position[perm[x]]
        if i == right + 1:
            right = i
        elif i == left - 1:
            left = i
            sign = -sign
        else:
            return 0
    return sign


def _cycle_type_permutation(lam: Partition) -> List[int]:
    # one permutation per class: disjoint cycles on consecutive blocks,
    # indexed by letter 1..n (index 0 unused)
    perm = [0] * (sum(lam) + 1)
    start = 1
    for part in lam:
        for value in range(start, start + part - 1):
            perm[value] = value + 1
        perm[start + part - 1] = start
        start += part
    return perm


# The largest n the free-Lie trace oracle accepts: the bracket basis has
# (n-1)! elements, 720 at n = 7.
LIE_TRACE_LIMIT = 7


def lie_bracket_basis(n: int) -> Tuple[Tuple[int, ...], ...]:
    """Letter sequences of the multilinear bracket basis, (n-1)! of them.

    Each sequence (1, s(2), ..., s(n)) stands for the left-normed bracket
    [[..[1, s(2)], ..], s(n)]; these words are exactly the multilinear
    Lyndon words on 1..n, since a word starting with its smallest letter
    precedes all of its proper suffixes."""
    if not 1 <= n <= LIE_TRACE_LIMIT:
        raise ValueError(f"bracket basis supported for 1 <= n <= {LIE_TRACE_LIMIT}")
    return tuple((1,) + sigma for sigma in permutations(range(2, n + 1)))


def lie_character(n: int) -> SymFunc:
    """Frobenius characteristic of the multilinear free Lie module, by traces.

    Basis: left-normed brackets [[..[1, s(2)], ..], s(n)] over permutations s
    of {2..n}.  The expansion of such a bracket contains exactly one word
    starting with 1, namely (1, s(2), ..., s(n)) with coefficient 1, so the
    diagonal matrix entry of a permuted bracket is read off as that word's
    coefficient (_bracket_coefficient, without expanding the bracket).
    Traces over one representative per cycle type give the character; the
    result must equal the Moebius-formula construction.
    """
    basis = lie_bracket_basis(n)
    positions = []
    for letters in basis:
        position = [0] * (n + 1)
        for i, x in enumerate(letters):
            position[x] = i
        positions.append((letters, position))

    def trace(lam: Partition) -> int:
        perm = _cycle_type_permutation(lam)
        return sum(_bracket_coefficient(letters, perm, position)
                   for letters, position in positions)

    return frobenius(n, trace)


# --- enumeration oracles ----------------------------------------------------------


# The largest n alternating_count enumerates: about n * 2^n prefix states.
ALTERNATING_COUNT_LIMIT = 12


@lru_cache(maxsize=None)
def alternating_count(n: int) -> int:
    """Number of down-up alternating permutations of {1..n}, by counting them.

    The permutations are built value by value, one position at a time, and
    a prefix that breaks the pattern is never made.  Prefixes are counted
    per (set of values, last value): both fix the values each next one may
    take, the free values below the last (even positions) or above it (odd
    ones).  Each set of values is extended in one pass over the n values,
    descending when the next value must be smaller and ascending when it
    must be larger, with a running sum of the set's counts over the last
    values passed so far: a free value v takes that sum as the count of
    (set + v, v).  So the about 2^n sets cost n steps each.  This counts
    the objects themselves: no Entringer or boustrophedon recurrence and no
    tan/sec series, which the tangent checks compare against.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > ALTERNATING_COUNT_LIMIT:
        raise ValueError(f"enumeration capped at n = {ALTERNATING_COUNT_LIMIT}")
    # a prefix's set of values is a bit mask; its counts are listed by last value
    prefixes = {1 << v: [int(v == last) for last in range(n)] for v in range(n)}
    for position in range(2, n + 1):
        order = range(n - 1, -1, -1) if position % 2 == 0 else range(n)
        longer: Dict[int, List[int]] = {}
        for used, counts in prefixes.items():
            running = 0
            for v in order:
                if used >> v & 1:
                    running += counts[v]
                elif running:
                    key = used | 1 << v
                    row = longer.get(key)
                    if row is None:
                        row = longer[key] = [0] * n
                    row[v] += running
        prefixes = longer
    return sum(map(sum, prefixes.values())) if n else 1


def foulkes_staircase(n: int) -> SymFunc:
    """The staircase ribbon s_{delta_n/delta_{n-2}} by Foulkes: frobenius of
    (-1)^{(|lam| - len(lam))/2} alternating_count(len(lam)) on all-odd lam
    |- 2n-3, else 0.  Capped with the enumeration; lie.staircase_skew is not."""
    size = 2 * n - 3
    if size > ALTERNATING_COUNT_LIMIT:
        raise ValueError(f"foulkes_staircase at n = {n}: needs 2n - 3 <= "
                         f"{ALTERNATING_COUNT_LIMIT}; lie.staircase_skew has no cap")
    return frobenius(size, lambda lam: 0 if any(part % 2 == 0 for part in lam)
                     else (-1) ** ((size - len(lam)) // 2) * alternating_count(len(lam)))


def syt_count(outer, inner=()) -> int:
    """Standard Young tableaux of the skew shape outer/inner, by counting them.

    Rows fill left to right; a cell is placeable once the cell above it is
    filled (or absent), which means each row's fill count must stay strictly
    below the previous row's frontier.  Two partial fillings with the same
    frontier (fill count per row) have the same completions, so those are
    counted once per frontier.
    """
    outer = check_partition(outer)
    inner = check_partition(inner)
    rows = len(outer)
    inner = inner + (0,) * (rows - len(inner))
    if len(inner) > rows:
        raise ValueError("inner shape does not fit inside outer shape")
    for r in range(rows):
        if inner[r] > outer[r]:
            raise ValueError("inner shape does not fit inside outer shape")
    if sum(outer) - sum(inner) > 13:
        raise ValueError("enumeration capped at 13 cells")
    memo: Dict[Tuple[int, ...], int] = {outer: 1}

    def completions(frontier: Tuple[int, ...]) -> int:
        count = memo.get(frontier)
        if count is None:
            count = 0
            for r in range(rows):
                if frontier[r] < outer[r] and (r == 0 or frontier[r] < frontier[r - 1]):
                    count += completions(frontier[:r] + (frontier[r] + 1,) + frontier[r + 1:])
            memo[frontier] = count
        return count

    return completions(inner)
