"""Plethysm of symmetric functions and its degree-by-degree inversion.

The defining substitution is p_k[g] = g with every p_j replaced by p_{jk},
i.e. a partition-scaling map that leaves coefficients alone.  Plethysm
extends to arbitrary first arguments as a ring map: for f = sum c_lam p_lam,
f[g] = sum c_lam prod_i p_{lam_i}[g].  The second argument must have zero
constant term, otherwise the substitution would produce infinite sums.
"""

from __future__ import annotations

from typing import Dict, Union

from .partitions import Partition
from .series import GradedSeries
from .symfunc import SymFunc


class ConstantTermError(ValueError):
    """Second plethysm argument has a nonzero constant term."""


class LeadingTermError(ValueError):
    """Series has no composition inverse because its degree-1 part is not p_1."""


def scale_series(g: GradedSeries, k: int) -> GradedSeries:
    """p_j -> p_{jk} applied to every term: degree-d input lands in degree d*k."""
    n = g.max_degree
    out = GradedSeries(n)
    for d in range(1, n // k + 1):
        part = g.components[d]
        if part:
            out.components[d * k] = SymFunc(
                {tuple(j * k for j in lam): c for lam, c in part.terms.items()}
            )
    return out


def _power(
    lam: Partition,
    g: GradedSeries,
    powers: Dict[Partition, GradedSeries],
    scaled: Dict[int, GradedSeries],
) -> GradedSeries:
    """prod_i p_{lam_i}[g], memoized in powers; scaled caches p_k[g] by k.

    A module-level function rather than a closure: a closure that calls
    itself is a reference cycle, which would keep every partial product
    alive until the cyclic garbage collector ran.
    """
    cached = powers.get(lam)
    if cached is None:
        # Peeling the smallest part keeps the prefix a partition, so partial
        # products are shared across the whole first argument.
        k = lam[-1]
        if k not in scaled:
            scaled[k] = scale_series(g, k)
        cached = _power(lam[:-1], g, powers, scaled) * scaled[k]
        powers[lam] = cached
    return cached


def pleth(f: Union[SymFunc, GradedSeries], g: GradedSeries) -> GradedSeries:
    """f[g] truncated at the minimum bound; g must have zero constant term."""
    if g.components[0]:
        raise ConstantTermError(
            "plethysm into a series with nonzero constant term is undefined"
        )
    if isinstance(f, GradedSeries):
        n = min(f.max_degree, g.max_degree)
        items = [
            (lam, c)
            for part in f.components[: n + 1]
            for lam, c in part.terms.items()
        ]
    else:
        n = g.max_degree
        items = list(f.terms.items())

    scaled: Dict[int, GradedSeries] = {}
    powers: Dict[Partition, GradedSeries] = {(): GradedSeries.constant(1, n)}
    out = GradedSeries(n)
    for lam, coeff in items:
        if sum(lam) > n:
            # each p_j[g] has valuation >= j, so this term cannot contribute
            continue
        out = out + _power(lam, g, powers, scaled) * coeff
    return out


def pleth_inverse(f: GradedSeries) -> GradedSeries:
    """The unique g with g_1 = p_1 and f[g] = p_1 up to the truncation bound.

    Solved degree by degree: with g known below degree n, the degree-n part
    of f[g] equals g_n plus terms involving only lower components, so g_n is
    forced to be minus that remainder.
    """
    n = f.max_degree
    p1 = SymFunc({(1,): 1})
    if f.components[0]:
        raise LeadingTermError("series with nonzero constant term has no inverse")
    if n >= 1 and f.components[1] != p1:
        raise LeadingTermError("composition inverse requires degree-1 part p_1 exactly")
    out = GradedSeries(n)
    if n >= 1:
        out.components[1] = p1
    for d in range(2, n + 1):
        remainder = pleth(f.truncate(d), out.truncate(d))
        out.components[d] = -remainder.components[d]
    return out
