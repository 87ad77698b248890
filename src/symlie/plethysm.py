"""Plethysm of symmetric functions and its degree-by-degree inversion.

The defining substitution is p_k[g] = g with every p_j replaced by p_{jk},
i.e. a partition-scaling map that leaves coefficients alone.  Plethysm
extends to arbitrary first arguments as a ring map: for f = sum c_lam p_lam,
f[g] = sum c_lam prod_i p_{lam_i}[g].  The second argument must have zero
constant term, otherwise the substitution would produce infinite sums.

pleth goes through series._plethysm, which keeps the partial products
prod_i p_{lam_i}[g] of every prefix of f's terms in one integer-form table
and grows each by one degree per step.  pleth extends the table's row
P_(1) = g to the bound from g's components and keeps the table on g, so
every later plethysm into the same series object starts from the rows
already built; a caller must not mutate g, or the rows kept on it go
stale.  pleth_inverse solves f[g] = p_1 with its own pass: it evaluates
f[g] by Horner's rule over the trie of f's terms, parts in increasing
order, each node kept only to the degree its prefix leaves, and reads g_d
off degree d before any node asks for g_d.  It neither reads nor keeps a
table on f.  Both build their result with GradedSeries._of and never
patch a series.
"""

from __future__ import annotations

from typing import Optional, Union

from .series import GradedSeries, _plethysm
from .symfunc import (
    IntegerForm,
    SymFunc,
    _constant_form,
    _form_of_products,
    _from_form,
    _integer_form,
    _scaled_form,
)


class ConstantTermError(ValueError):
    """Second plethysm argument has a nonzero constant term."""


class LeadingTermError(ValueError):
    """Series has no composition inverse because its degree-1 part is not p_1."""


def pleth(f: Union[SymFunc, GradedSeries], g: GradedSeries) -> GradedSeries:
    """f[g] truncated at the minimum bound; g must have zero constant term."""
    if g.components[0]:
        raise ConstantTermError(
            "plethysm into a series with nonzero constant term is undefined"
        )
    if isinstance(f, GradedSeries):
        n = min(f.max_degree, g.max_degree)
        items = [(lam, c) for part in f.components[: n + 1] for lam, c in part.terms.items()]
    else:
        n = g.max_degree
        items = f.terms.items()
    # the rows P_lam[g] stay on g for the next plethysm into it
    try:
        rows = g._powers
    except AttributeError:
        rows = g._powers = {}
    row = rows.setdefault((1,), [])
    row += map(_integer_form, g.components[len(row): n + 1])
    return GradedSeries._of(_plethysm(items, n, rows))


def pleth_inverse(f: GradedSeries) -> GradedSeries:
    """The unique g with g_1 = p_1 and f[g] = p_1 up to the truncation bound.

    Write f = p_1 + F, so that f[g] = g + F[g] and g_d = -(degree d of F[g]).
    F[g] is evaluated by Horner's rule over the trie of F's terms with their
    parts in increasing order: S_nu = c_nu + sum_{k >= last(nu)} p_k[g] S_(nu,k),
    c_nu the coefficient of p_nu in F, and F[g] = S_().  S_nu is multiplied
    by prod_i p_{nu_i}[g], of valuation |nu|, so it is kept only through
    degree n - |nu|.  Its degree m reads g_1 .. g_m and lower degrees of
    its children.  F has no p_1 term, so degree d of S_() reads only
    g_1 .. g_{d-1}: each degree yields g_d, and then every node's degree
    d.  The solve neither reads nor keeps rows on f.
    """
    n = f.max_degree
    p1 = SymFunc({(1,): 1})
    if f.components[0]:
        raise LeadingTermError("series with nonzero constant term has no inverse")
    if n >= 1 and f.components[1] != p1:
        raise LeadingTermError("composition inverse requires degree-1 part p_1 exactly")
    # node nu: (n - |nu|, S_nu by degree, children (k, p_k[g_j] by j, S_(nu,k)));
    # with F's coefficients negated, degree d >= 2 of S_() is g_d itself
    columns = {1: [None]}
    nodes = {(): (n, None, [])}
    for part in f.components[2:]:
        for lam, c in part.terms.items():
            nu = ()
            for k in reversed(lam):
                bound, _, children = nodes[nu]
                nu += (k,)
                if nu not in nodes:
                    nodes[nu] = (bound - k, [None], [])
                    children.append((k, columns.setdefault(k, [None]), nodes[nu][1]))
            nodes[nu][1][0] = _constant_form(-c)
    top = nodes.pop(())[2]
    g = columns.pop(1)
    for d in range(1, n + 1):
        g.append(_integer_form(p1) if d == 1 else _horner_degree(top, d))
        for k, column in columns.items():
            if k * d <= n:
                column.append(_scaled_form(g[d], k))
        for bound, s, children in nodes.values():
            if d <= bound:
                s.append(_horner_degree(children, d))
    return GradedSeries._of([_from_form(form) for form in g])


def _horner_degree(children, d: int) -> Optional[IntegerForm]:
    """Degree d of sum_k p_k[g] S_k over a trie node's children
    (k, p_k[g_j] by j, S_k), reading each S_k below degree d only.  S_k is
    read before p_k[g]: at the root the p_1 child is zero in degree 0, so
    degree d does not read g_d."""
    pairs = [(s[d - k * j], column[j])
             for k, column, s in children
             for j in range(1, d // k + 1)
             if s[d - k * j] and column[j]]
    return _form_of_products(pairs) if pairs else None
