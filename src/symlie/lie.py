"""Constructors for the named series: Lie characteristics, hook sums,
staircase skew Schur functions and the Jordan characteristics.

Lie_n is built from the Moebius sum (1/n) sum_{d|n} mu(d) p_d^{n/d}; the
oracle module cross-checks it against an honest free-Lie-algebra trace
computation.  Euler numbers are never hard-coded: the Foulkes-style
staircase expansion pulls them from the alternating-permutation enumerator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations as _permutations
from typing import Callable, Dict, NamedTuple

from .oracle import alternating_count
from .partitions import Partition, mobius, partitions_of, staircase, z_of
from .plethysm import pleth
from .series import GradedSeries, exp_series, parity_split
from .symfunc import SymFunc, e, h, p, schur


@lru_cache(maxsize=None)
def lie(n: int) -> SymFunc:
    """Lie_n = (1/n) sum_{d|n} mu(d) p_d^{n/d}, homogeneous of degree n."""
    if n < 1:
        raise ValueError("lie(n) requires n >= 1")
    terms: Dict[Partition, Fraction] = {}
    for d in range(1, n + 1):
        if n % d:
            continue
        mu = mobius(d)
        if mu:
            terms[(d,) * (n // d)] = Fraction(mu, n)
    return SymFunc(terms)


def lie_series(variant: str, max_degree: int) -> GradedSeries:
    """odd = sum Lie_{2k+1}; even = sum_{k>=1} Lie_{2k};
    odd_alt = sum (-1)^k Lie_{2k+1}; all = odd + even."""
    out = GradedSeries(max_degree)
    for n in range(1, max_degree + 1):
        if variant == "all":
            out.components[n] = lie(n)
        elif variant == "odd":
            if n % 2 == 1:
                out.components[n] = lie(n)
        elif variant == "even":
            if n % 2 == 0:
                out.components[n] = lie(n)
        elif variant == "odd_alt":
            if n % 2 == 1:
                sign = (-1) ** ((n - 1) // 2)
                out.components[n] = lie(n) * sign
        else:
            raise ValueError(f"unknown variant {variant!r}")
    return out


@lru_cache(maxsize=None)
def hk(n: int) -> SymFunc:
    """Hook sum Hk_n = sum_{k=0}^{n-1} s_{(n-k, 1^k)}."""
    if n < 1:
        raise ValueError("hk(n) requires n >= 1")
    total = SymFunc.zero()
    for k in range(n):
        total = total + schur((n - k,) + (1,) * k)
    return total


def hook_series(max_degree: int) -> GradedSeries:
    """sum_{n>=1} Hk_n (no constant term)."""
    out = GradedSeries(max_degree)
    for n in range(1, max_degree + 1):
        out.components[n] = hk(n)
    return out


@lru_cache(maxsize=None)
def hk_alt_series(parity: str, max_degree: int) -> GradedSeries:
    """Alternating hook sums at t = 1:
    even: sum_{n even >= 0} (-1)^{n/2} Hk_n  (with Hk_0 = 1),
    odd:  sum_{n odd  >= 1} (-1)^{(n-1)/2} Hk_n.

    Memoized per (parity, max_degree): the result is shared, so it must not
    be mutated."""
    if parity not in ("odd", "even"):
        raise ValueError("parity must be 'odd' or 'even'")
    out = GradedSeries(max_degree)
    if parity == "even":
        out.components[0] = SymFunc.constant(1)
        for n in range(2, max_degree + 1, 2):
            out.components[n] = hk(n) * ((-1) ** (n // 2))
    else:
        for n in range(1, max_degree + 1, 2):
            out.components[n] = hk(n) * ((-1) ** ((n - 1) // 2))
    return out


def _jacobi_trudi_skew(outer: Partition, inner: Partition) -> SymFunc:
    # det(h_{outer_i - inner_j - i + j}) over permutations; h_0 = 1, h_{<0} = 0.
    # A product of h's only merges its indices, so the determinant is summed
    # on integer coefficients keyed by the h-monomial h_lam, and each distinct
    # h_lam is expanded in the p basis once.
    rows = len(outer)
    inner = tuple(inner) + (0,) * (rows - len(inner))
    coeffs: Dict[Partition, int] = {}
    for sigma in _permutations(range(rows)):
        parts = []
        for i in range(rows):
            d = outer[i] - inner[sigma[i]] - i + sigma[i]
            if d < 0:
                break
            if d > 0:
                parts.append(d)
        else:
            inversions = sum(
                1 for i in range(rows) for j in range(i + 1, rows) if sigma[i] > sigma[j]
            )
            lam = tuple(sorted(parts, reverse=True))
            coeffs[lam] = coeffs.get(lam, 0) + (-1 if inversions % 2 else 1)
    total = SymFunc.zero()
    for lam, coeff in coeffs.items():
        if coeff:
            prod = SymFunc.constant(coeff)
            for part in lam:
                prod = prod * h(part)
            total = total + prod
    return total


@lru_cache(maxsize=None)
def staircase_skew(n: int, method: str = "foulkes") -> SymFunc:
    """The skew Schur function of the staircase ribbon, homogeneous of degree 2n-3.

    method='foulkes': sum over partitions of 2n-3 with all odd parts of
    (-1)^{(|lam| - len(lam))/2} * (alternating count of len(lam)) * p_lam / z_lam.
    method='jacobi_trudi': the determinant construction, as a cross-check;
    it never uses the Euler numbers.  Results are memoized per (n, method).
    """
    if n < 2:
        raise ValueError("staircase_skew requires n >= 2")
    if method == "jacobi_trudi":
        return _jacobi_trudi_skew(staircase(n), staircase(max(n - 2, 1)))
    if method != "foulkes":
        raise ValueError(f"unknown method {method!r}")
    size = 2 * n - 3
    terms: Dict[Partition, Fraction] = {}
    for lam in partitions_of(size):
        if any(part % 2 == 0 for part in lam):
            continue
        length = len(lam)
        sign = (-1) ** ((size - length) // 2)
        terms[lam] = Fraction(sign * alternating_count(length), z_of(lam))
    return SymFunc(terms)


def h_series(max_degree: int) -> GradedSeries:
    out = GradedSeries(max_degree)
    for d in range(max_degree + 1):
        out.components[d] = h(d)
    return out


def e_series(max_degree: int) -> GradedSeries:
    out = GradedSeries(max_degree)
    for d in range(max_degree + 1):
        out.components[d] = e(d)
    return out


def jordan_series(max_degree: int) -> GradedSeries:
    """Characteristics of the free Jordan algebra: H[Lie_odd], with 1 in degree 0."""
    return compose_named("H", named_series("Lie_odd", max_degree))


class NamedSeries(NamedTuple):
    name: str
    builder: Callable[[int], GradedSeries]


def _registry() -> Dict[str, NamedSeries]:
    entries: Dict[str, Callable[[int], GradedSeries]] = {
        "H": h_series,
        "E": e_series,
        "HE": lambda n: named_series("H", n) * named_series("E", n),
        "Lie": lambda n: lie_series("all", n),
        "Lie_odd": lambda n: lie_series("odd", n),
        "Lie_even": lambda n: lie_series("even", n),
        "Lie_odd_alt": lambda n: lie_series("odd_alt", n),
        "Hk": hook_series,
        "H_odd": lambda n: parity_split(named_series("H", n), "odd"),
        "H_even": lambda n: parity_split(named_series("H", n), "even"),
        "H_odd_alt": lambda n: parity_split(named_series("H", n), "odd", alternating=True),
        "H_even_alt": lambda n: parity_split(named_series("H", n), "even", alternating=True),
        "E_odd": lambda n: parity_split(named_series("E", n), "odd"),
        "E_even": lambda n: parity_split(named_series("E", n), "even"),
        "E_odd_alt": lambda n: parity_split(named_series("E", n), "odd", alternating=True),
        "E_even_alt": lambda n: parity_split(named_series("E", n), "even", alternating=True),
        "Jordan": jordan_series,
    }
    return {name: NamedSeries(name, builder) for name, builder in entries.items()}


SERIES_REGISTRY: Dict[str, NamedSeries] = _registry()


@lru_cache(maxsize=None)
def named_series(name: str, max_degree: int) -> GradedSeries:
    """The registered series `name` truncated at max_degree.

    Memoized per (name, max_degree): every caller in the process shares the
    one result, so it must not be mutated.  An unknown name raises KeyError.
    """
    entry = SERIES_REGISTRY.get(name)
    if entry is None:
        raise KeyError(f"unknown series {name!r}")
    return entry.builder(max_degree)


# H, E and HE are plethystic exponentials exp(sum_k c_k p_k): H = exp(sum p_k/k),
# E = exp(sum (-1)^{k-1} p_k/k), and their product keeps only odd k, doubled.
_LOG_COEFFS: Dict[str, Callable[[int], Fraction]] = {
    "H": lambda k: Fraction(1, k),
    "E": lambda k: Fraction((-1) ** (k - 1), k),
    "HE": lambda k: Fraction(2, k) if k % 2 else Fraction(0),
}


def compose_named(name: str, g: GradedSeries) -> GradedSeries:
    """The registered series `name` plethysm g, truncated at g's bound.

    For H, E and HE this is exp(sum_k c_k p_k[g]): n scaled copies of g and
    one exponential, instead of a product of scaled copies per partition.
    Every other name takes the generic pleth, which stays the reference.
    g must have zero constant term (ConstantTermError otherwise).
    """
    n = g.max_degree
    coeff = _LOG_COEFFS.get(name)
    if coeff is None:
        return pleth(named_series(name, n), g)
    log = GradedSeries(n, {k: p(k) * coeff(k) for k in range(1, n + 1)})
    return exp_series(pleth(log, g))
