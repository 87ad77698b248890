"""Plethysm of symmetric functions and its degree-by-degree inversion.

The defining substitution is p_k[g] = g with every p_j replaced by p_{jk},
i.e. a partition-scaling map that leaves coefficients alone.  Plethysm
extends to arbitrary first arguments as a ring map: for f = sum c_lam p_lam,
f[g] = sum c_lam prod_i p_{lam_i}[g].  The second argument must have zero
constant term, otherwise the substitution would produce infinite sums:
series._composed raises series.ConstantTermError, which this module exports.

pleth and pleth_inverse both go through series._horner, the one Horner
driver, which evaluates f[g] over the trie of f's terms with their parts
in increasing order, each node kept only to the degree its prefix leaves,
and keeps nothing on g.  pleth_inverse feeds it g_1 = p_1 alone, and the
driver reads each later g_d off the root as it sums it.  Only series.py
knows the trie.  Both build their result with GradedSeries._of and never
patch a series.
"""

from __future__ import annotations

from typing import Union

from .series import ConstantTermError, GradedSeries, _composed, _horner
from .symfunc import SymFunc, _from_form, _integer_form


class LeadingTermError(ValueError):
    """Series has no composition inverse because its degree-1 part is not p_1."""


def pleth(f: Union[SymFunc, GradedSeries], g: GradedSeries) -> GradedSeries:
    """f[g] truncated at the minimum bound; g must have zero constant term
    (ConstantTermError, raised by series._composed, otherwise)."""
    if isinstance(f, GradedSeries):
        n = min(f.max_degree, g.max_degree)
        items = [(lam, c) for part in f.components[: n + 1] for lam, c in part.terms.items()]
    else:
        n = g.max_degree
        items = f.terms.items()
    return _composed(items, n, g)


def pleth_inverse(f: GradedSeries) -> GradedSeries:
    """The unique g with g_1 = p_1 and f[g] = p_1 up to the truncation bound.

    Write f = p_1 + F, so that f[g] = g + F[g] and g is the fixed point
    g = p_1 + (-F)[g].  series._horner solves it fed g_1 = p_1 alone: F has
    no p_1 term and no constant term, so degree d of (-F)[g] reads only
    g_1 .. g_{d-1}, and each degree yields g_d before any node asks for it.
    """
    n = f.max_degree
    p1 = SymFunc({(1,): 1})
    if f.components[0]:
        raise LeadingTermError("series with nonzero constant term has no inverse")
    if n >= 1 and f.components[1] != p1:
        raise LeadingTermError("composition inverse requires degree-1 part p_1 exactly")
    negated = [(lam, -c) for part in f.components[2:] for lam, c in part.terms.items()]
    g = [None, _integer_form(p1)][: n + 1]
    _horner(negated, n, g)
    return GradedSeries._of([_from_form(form) for form in g])
