"""Constructors for the named series: Lie characteristics, hook sums,
staircase skew Schur functions and the Jordan characteristics.

Lie_n is the Moebius sum (1/n) sum_{d|n} mu(d) p_d^{n/d} over divisors;
the oracle module cross-checks it against an honest free-Lie-algebra trace
computation.  hk is symfunc.frobenius of its character, from
Murnaghan-Nakayama on hook shapes alone, whose rim hooks leave hooks, so
it reads no character from symfunc.  The staircase ribbon is the ribbon
Jacobi-Trudi sum over the h_lam and reads no Euler number; its Euler-number
form, oracle.foulkes_staircase, is built beside the enumerator it reads.
H, E, HE and Hk come from one closed form, the plethystic exponential
symfunc.exponential_part: HE = exp(sum_{k odd} 2 p_k/k) and Hk = (HE - 1)/2.
lie and exponential_part keep loops of their own; their docstrings say why.
The sums of hook Schur functions (hk) and the product H*E are the
references that the hook_he check compares them with, and the powers of
sum_n hk(n) are alt_carlitz's hook-product side.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Dict, NamedTuple

from .partitions import Partition, mobius
from .plethysm import pleth
from .series import GradedSeries, exp_series, parity_split
from .symfunc import (
    EXPONENTIAL_WEIGHTS,
    SymFunc,
    _constant_form,
    _form_of_products,
    _from_form,
    _h_form,
    _prime,
    e,
    exponential_part,
    frobenius,
    h,
    p,
)


def lie(n: int) -> SymFunc:
    """Lie_n = (1/n) sum_{d|n} mu(d) p_d^{n/d}, homogeneous of degree n, over
    divisors: 8 at n = 40, where frobenius would visit p(40) = 37,338 classes."""
    if n < 1:
        raise ValueError("lie(n) requires n >= 1")
    # in integer form: mu(d) over n keyed P(d)^(n/d), in lowest terms since mu(1) = 1
    terms = []
    for d in range(1, n + 1):
        if n % d:
            continue
        mu = mobius(d)
        if mu:
            terms.append((_prime(d) ** (n // d), mu))
    return _from_form((tuple(terms), n))


def lie_series(max_degree: int) -> GradedSeries:
    """Lie = sum_{n>=1} Lie_n; Lie_odd, Lie_even and Lie_odd_alt are its
    registered parity variants."""
    return GradedSeries(max_degree, {n: lie(n) for n in range(1, max_degree + 1)})


@lru_cache(maxsize=None)
def hk(n: int) -> SymFunc:
    """Hook sum Hk_n = sum_{k=0}^{n-1} s_{(n-k, 1^k)}: the characteristic
    (symfunc.frobenius) of the sum of the n hook characters, by
    Murnaghan-Nakayama on hook shapes only.  The named series Hk comes from
    the closed form instead; this Schur sum is its reference (the hook_he
    and alt_carlitz checks).

    A class mu starts from the n hooks (a, 1^b), a + b = n, counted once
    each, and takes mu's parts one at a time.  A rim hook of size m comes
    off a hook in one of three ways: off the arm, giving (a - m, 1^b) if
    a - m >= 1, with sign +; off the leg, giving (a, 1^(b - m)), with sign
    (-1)^(m-1); or as the whole hook, with sign (-1)^b.  What is left is a
    hook again, so a state is its leg b; only the last part can take the
    whole hook, and the signed count that reaches the empty shape is the
    class function."""
    if n < 1:
        raise ValueError("hk(n) requires n >= 1")

    def chi(mu: Partition) -> int:
        size = n
        counts = [1] * n  # counts[b]: signed ways to reach (size - b, 1^b)
        for m in mu[:-1]:
            size -= m
            leg_sign = 1 if m % 2 else -1
            moved = [0] * size
            for b, count in enumerate(counts):
                if count:
                    if b < size:
                        moved[b] += count
                    if b >= m:
                        moved[b - m] += leg_sign * count
            counts = moved
        return sum(counts[0::2]) - sum(counts[1::2])

    return frobenius(n, chi)


def hook_series(max_degree: int) -> GradedSeries:
    """sum_{n>=1} Hk_n = (HE - 1)/2 (no constant term)."""
    return (named_series("HE", max_degree) - 1) / 2


def hk_alt_series(parity: str, max_degree: int) -> GradedSeries:
    """Alternating hook sums at t = 1, Hk_even_alt + 1 and Hk_odd_alt:
    even: sum_{n even >= 0} (-1)^{n/2} Hk_n  (with Hk_0 = 1),
    odd:  sum_{n odd  >= 1} (-1)^{(n-1)/2} Hk_n."""
    if parity not in ("odd", "even"):
        raise ValueError("parity must be 'odd' or 'even'")
    hooks = named_series(f"Hk_{parity}_alt", max_degree)
    return hooks + 1 if parity == "even" else hooks


@lru_cache(maxsize=None)
def staircase_skew(n: int) -> SymFunc:
    """The skew Schur function of the staircase ribbon, homogeneous of degree
    2n-3, by the ribbon Jacobi-Trudi sum, which reads no Euler number.

    The ribbon's rows, top to bottom, are alpha = (2^{n-2}, 1), and
    s_alpha = sum over the coarsenings beta of alpha, each merging some runs
    of adjacent rows, of (-1)^{len(alpha) - len(beta)} h_beta: 2^{n-2}
    terms, summed on integer coefficients per sorted h-monomial in one pass
    over the memoized h_lam; the foulkes check compares it with oracle.foulkes_staircase.
    """
    if n < 2:
        raise ValueError("staircase_skew requires n >= 2")
    rows = (2,) * (n - 2) + (1,)
    coeffs: Dict[Partition, int] = {}
    # bit i of cuts ends a part of beta after row i
    for cuts in range(1 << (n - 2)):
        ends = [i + 1 for i in range(n - 2) if cuts >> i & 1] + [n - 1]
        beta = (sum(rows[a:b]) for a, b in zip([0] + ends, ends))
        lam = tuple(sorted(beta, reverse=True))
        coeffs[lam] = coeffs.get(lam, 0) + (-1) ** (n - 1 - len(ends))
    return _from_form(_form_of_products(
        (_h_form(lam), _constant_form(c)) for lam, c in coeffs.items() if c
    ))


def h_series(max_degree: int) -> GradedSeries:
    return GradedSeries._of([h(d) for d in range(max_degree + 1)])


def e_series(max_degree: int) -> GradedSeries:
    return GradedSeries._of([e(d) for d in range(max_degree + 1)])


def _he_series(max_degree: int) -> GradedSeries:
    weight = EXPONENTIAL_WEIGHTS["HE"]
    return GradedSeries._of([exponential_part(d, weight) for d in range(max_degree + 1)])


def jordan_series(max_degree: int) -> GradedSeries:
    """Characteristics of the free Jordan algebra: H[Lie_odd], with 1 in degree 0."""
    return compose_named("H", named_series("Lie_odd", max_degree))


class NamedSeries(NamedTuple):
    name: str
    builder: Callable[[int], GradedSeries]


def _parity_variant(base: str, parity: str, alternating: bool, n: int) -> GradedSeries:
    return parity_split(named_series(base, n), parity, alternating)


def _registry() -> Dict[str, NamedSeries]:
    entries: Dict[str, Callable[[int], GradedSeries]] = {
        "H": h_series,
        "E": e_series,
        "HE": _he_series,
        "Lie": lie_series,
        "Hk": hook_series,
        "Jordan": jordan_series,
    }
    parities = (("odd", False), ("even", False), ("odd", True), ("even", True))
    for base, variants in (("Lie", parities[:3]), ("H", parities), ("E", parities),
                           ("Hk", parities[2:])):
        for parity, alternating in variants:
            name = f"{base}_{parity}{'_alt' if alternating else ''}"
            entries[name] = partial(_parity_variant, base, parity, alternating)
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


def compose_named(name: str, g: GradedSeries) -> GradedSeries:
    """The registered series `name` plethysm g, truncated at g's bound.

    For H, E and HE this is exp(sum_k w(k) p_k[g]/k), with the weights w of
    symfunc.EXPONENTIAL_WEIGHTS: n scaled copies of g and one exponential,
    instead of a product of scaled copies per partition.
    Every other name takes the generic pleth, which stays the reference.
    g must have zero constant term (ConstantTermError otherwise).
    """
    n = g.max_degree
    weight = EXPONENTIAL_WEIGHTS.get(name)
    if weight is None:
        return pleth(named_series(name, n), g)
    log = GradedSeries(n, {k: p(k) * Fraction(weight(k), k) for k in range(1, n + 1)})
    return exp_series(pleth(log, g))
