"""Plethysm of symmetric functions and its degree-by-degree inversion.

The defining substitution is p_k[g] = g with every p_j replaced by p_{jk},
i.e. a partition-scaling map that leaves coefficients alone.  Plethysm
extends to arbitrary first arguments as a ring map: for f = sum c_lam p_lam,
f[g] = sum c_lam prod_i p_{lam_i}[g].  The second argument must have zero
constant term, otherwise the substitution would produce infinite sums.

pleth_inverse solves f[g] = p_1 in one pass, growing the partial products
prod_i p_{lam_i}[g] by one degree per step as g is solved.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Union

from .partitions import Partition
from .series import GradedSeries
from .symfunc import IntegerForm, SymFunc, _integer_form, _sum_of_products


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


def _scaled_form(form: Optional[IntegerForm], k: int) -> Optional[IntegerForm]:
    """p_k[x] for x in integer form: every part multiplied by k."""
    if form is None:
        return None
    terms, den = form
    return [(tuple(j * k for j in lam), c) for lam, c in terms], den


def pleth_inverse(f: GradedSeries) -> GradedSeries:
    """The unique g with g_1 = p_1 and f[g] = p_1 up to the truncation bound.

    Write f = p_1 + F, so that f[g] = g + F[g] and g_d = -(degree d of F[g]).
    Every term p_lam of F has degree >= 2, so that degree-d part reads only
    g_1 .. g_{d-1}.  The partial products P_lam = prod_i p_{lam_i}[g] of every
    prefix of F's terms are kept as components in integer form and grown by
    one degree per step: P_lam[d] = sum_j P_lam'[d - k*j] * p_k[g_j], with k
    the last part of lam and lam' = lam[:-1].  Only P_(1)[d] = g_d reads g_d,
    and it is filled in once g_d is solved, so the whole solve costs about
    one plethysm.
    """
    n = f.max_degree
    p1 = SymFunc({(1,): 1})
    if f.components[0]:
        raise LeadingTermError("series with nonzero constant term has no inverse")
    if n >= 1 and f.components[1] != p1:
        raise LeadingTermError("composition inverse requires degree-1 part p_1 exactly")
    out = GradedSeries(n)
    if n < 1:
        return out
    out.components[1] = p1
    items = [
        (lam, _integer_form(SymFunc.constant(c)))
        for part in f.components[2:]
        for lam, c in part.terms.items()
    ]
    # products[lam][m] is the degree-m component of P_lam (None for 0)
    products: Dict[Partition, List[Optional[IntegerForm]]] = {
        (): [_integer_form(SymFunc.constant(1))] + [None] * n,
        (1,): [None] * (n + 1),
    }
    for lam, _ in items:
        while lam not in products:
            products[lam] = [None] * (n + 1)
            lam = lam[:-1]
    g = products[(1,)]
    # scaled[k][j] is p_k[g_j], for every last part k of a prefix
    scaled = {lam[-1]: [None] * (n + 1) for lam in products if lam}
    scaled[1] = g
    growing = [(lam[-1], sum(lam[:-1]), products[lam[:-1]], scaled[lam[-1]], row)
               for lam, row in products.items() if lam not in ((), (1,))]
    for d in range(1, n + 1):
        if d > 1:
            for k, low, prefix, column, row in growing:
                pairs = [(prefix[d - k * j], column[j])
                         for j in range(1, (d - low) // k + 1)
                         if prefix[d - k * j] and column[j]]
                if pairs:
                    row[d] = _integer_form(_sum_of_products(pairs))
            out.components[d] = _sum_of_products(
                ((products[lam][d], c) for lam, c in items if products[lam][d]),
                Fraction(-1),
            )
        g[d] = _integer_form(out.components[d])
        for k, column in scaled.items():
            if 1 < k and k * d <= n:
                column[d] = _scaled_form(g[d], k)
    return out
