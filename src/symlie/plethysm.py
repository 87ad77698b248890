"""Plethysm of symmetric functions and its degree-by-degree inversion.

The defining substitution is p_k[g] = g with every p_j replaced by p_{jk},
i.e. a partition-scaling map that leaves coefficients alone.  Plethysm
extends to arbitrary first arguments as a ring map: for f = sum c_lam p_lam,
f[g] = sum c_lam prod_i p_{lam_i}[g].  The second argument must have zero
constant term, otherwise the substitution would produce infinite sums.

Both pleth and pleth_inverse go through series._plethysm, which keeps the
partial products prod_i p_{lam_i}[g] of every prefix of f's terms in one
integer-form table and grows each by one degree per step.  pleth extends
the table's row P_(1) = g to the bound from g's components and keeps the
table on g, so every later plethysm into the same series object starts
from the rows already built.  pleth_inverse solves f[g] = p_1 in the same
pass with a fresh table whose row g holds only g_0: the kernel hands it
the degree-d part of f[g], which does not read g_d, and it returns g_d;
it neither reads nor keeps a table on f.  Both hand the kernel's
components to GradedSeries._of and never patch a series; a caller must
not mutate g either, or the rows kept on it go stale.
"""

from __future__ import annotations

from typing import Union

from .series import GradedSeries, _plethysm
from .symfunc import SymFunc, _integer_form


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
    return GradedSeries._of(_plethysm(items, n, rows, None))


def pleth_inverse(f: GradedSeries) -> GradedSeries:
    """The unique g with g_1 = p_1 and f[g] = p_1 up to the truncation bound.

    Write f = p_1 + F, so that f[g] = g + F[g] and g_d = -(degree d of F[g]).
    Every term p_lam of F has degree >= 2, so that degree-d part reads only
    g_1 .. g_{d-1}, and the plethysm kernel hands it over before it asks
    for g_d: the whole solve costs about one plethysm.
    """
    n = f.max_degree
    p1 = SymFunc({(1,): 1})
    if f.components[0]:
        raise LeadingTermError("series with nonzero constant term has no inverse")
    if n >= 1 and f.components[1] != p1:
        raise LeadingTermError("composition inverse requires degree-1 part p_1 exactly")
    # with F's coefficients negated, the kernel's degree-d part is g_d itself
    items = [(lam, -c) for part in f.components[2:] for lam, c in part.terms.items()]
    comps = _plethysm(items, n, {(1,): [None]}, lambda d, s: s if d > 1 else p1)
    if n >= 1:
        comps[1] = p1
    return GradedSeries._of(comps)
