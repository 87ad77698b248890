"""Plethysm of symmetric functions and its degree-by-degree inversion.

The defining substitution is p_k[g] = g with every p_j replaced by p_{jk},
i.e. a partition-scaling map that leaves coefficients alone.  Plethysm
extends to arbitrary first arguments as a ring map: for f = sum c_lam p_lam,
f[g] = sum c_lam prod_i p_{lam_i}[g].  The second argument must have zero
constant term, otherwise the substitution would produce infinite sums:
series._horner raises series.ConstantTermError, which this module exports.

pleth goes through series._horner, which evaluates f[g] by Horner's rule
over the trie of f's terms with their parts in increasing order, each
node kept only to the degree its prefix leaves, and keeps nothing on g.
pleth_inverse solves f[g] = p_1 over the same trie (series._trie) and the
same series._horner_degree, reading g_d off degree d before any node asks
for g_d.  Both build their result with GradedSeries._of and never patch a
series.
"""

from __future__ import annotations

from typing import Union

from .series import ConstantTermError, GradedSeries, _horner, _horner_degree, _trie
from .symfunc import SymFunc, _from_form, _integer_form, _scaled_form


class LeadingTermError(ValueError):
    """Series has no composition inverse because its degree-1 part is not p_1."""


def pleth(f: Union[SymFunc, GradedSeries], g: GradedSeries) -> GradedSeries:
    """f[g] truncated at the minimum bound; g must have zero constant term
    (ConstantTermError, raised by series._horner, otherwise)."""
    if isinstance(f, GradedSeries):
        n = min(f.max_degree, g.max_degree)
        items = [(lam, c) for part in f.components[: n + 1] for lam, c in part.terms.items()]
    else:
        n = g.max_degree
        items = f.terms.items()
    return GradedSeries._of(_horner(items, n, g))


def pleth_inverse(f: GradedSeries) -> GradedSeries:
    """The unique g with g_1 = p_1 and f[g] = p_1 up to the truncation bound.

    Write f = p_1 + F, so that f[g] = g + F[g] and g_d = -(degree d of F[g]).
    F[g] is evaluated by Horner's rule over series._trie, the trie of F's
    terms that pleth uses: S_nu is kept only through degree n - |nu|, and
    its degree m reads g_1 .. g_m and lower degrees of its children.  F
    has no p_1 term, so degree d of S_() reads only g_1 .. g_{d-1}: each
    degree yields g_d, and then every node's degree d.
    """
    n = f.max_degree
    p1 = SymFunc({(1,): 1})
    if f.components[0]:
        raise LeadingTermError("series with nonzero constant term has no inverse")
    if n >= 1 and f.components[1] != p1:
        raise LeadingTermError("composition inverse requires degree-1 part p_1 exactly")
    # with F's coefficients negated, degree d >= 2 of S_() is g_d itself,
    # so g is both the root's degrees and the column p_1[g]
    g = [None]
    columns = {1: g}
    negated = [(lam, -c) for part in f.components[2:] for lam, c in part.terms.items()]
    (_, _, top), *nodes = _trie(negated, n, columns)
    for d in range(1, n + 1):
        g.append(_integer_form(p1) if d == 1 else _horner_degree(top, d))
        for k, column in columns.items():
            if k > 1 and k * d <= n:
                column.append(_scaled_form(g[d], k))
        for bound, s, children in nodes:
            if d <= bound:
                s.append(_horner_degree(children, d))
    return GradedSeries._of([_from_form(form) for form in g])
