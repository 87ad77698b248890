"""Truncated graded series of symmetric functions.

A GradedSeries holds components[d] for 0 <= d <= max_degree, each a
homogeneous SymFunc of degree d.  Arithmetic on two series truncates to the
minimum of the two bounds, so no result ever claims more precision than its
inputs.  compose_scalar() substitutes a zero-constant-term series into a
univariate Taylor series with exact rational coefficients; log(1+x), tan,
tanh, arctan and arctanh wrappers are provided, the tan and tanh
coefficients solved from t' = 1 + t^2 and t' = 1 - t^2.  exp_series solves
F = exp(g) from D F = D(g) F, D the degree operator: d F_d =
sum_{j=1..d} j g_j F_{d-j}, one pass per degree instead of every power g^m.

series_div is the one division kernel: it solves f = g*q for q one degree
at a time over integer forms, so it never builds 1/g, which is dense where
f/g is sparse (E_odd/E_even lies in Q[p_1, p_3, ...]).  series_inverse(g)
is series_div(1, g).  Every series kernel reads its operands' components
through the integer form each SymFunc holds.

_horner is the one plethysm driver: f[g] = sum_lam c_lam prod_i p_{lam_i}[g]
by Horner's rule over the trie of f's terms with their parts in
increasing order, each node kept only to the degree its prefix leaves.
plethysm.pleth and compose_scalar reach it through _composed: sum_m c_m g^m
is the plethysm (sum_m c_m p_1^m)[g], whose trie is a chain.
plethysm.pleth_inverse feeds it g_1 alone and it reads each later g_d off
the root.  Only this module knows the trie and its columns p_k[g], built
for each call with nothing kept on g, so a plethysm's work does not depend
on which plethysms ran before it.  _composed and exp_series are the two
places that check that g has zero constant term (ConstantTermError);
NonUnitConstantError is series_div's.

Every series in the package is built by a constructor and never patched
afterwards: GradedSeries(n, components) validates what a caller passes,
and GradedSeries._of takes the list a kernel or a closed form (H, E, HE)
has just built as given.  A library caller must not mutate a series
either: the memoized named series are shared, and a rational added to a
series changes component 0 only, sharing the operand's others.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from numbers import Rational
from typing import Callable, Iterable, List, Optional, Tuple

from .partitions import Partition
from .symfunc import (
    IntegerForm,
    SymFunc,
    _constant_form,
    _form_of_products,
    _from_form,
    _scaled_form,
    omega,
)


class NonUnitConstantError(ValueError):
    """Raised when inverting or dividing by a series whose constant term is zero."""


class ConstantTermError(ValueError):
    """A series composed into (f[g], exp(g), a Taylor series in g) has a
    nonzero constant term, so the substitution would produce infinite sums."""


def _require_zero_constant(g: GradedSeries) -> None:
    """The one guard of every composition into g: _composed and exp_series."""
    if g.components[0]:
        raise ConstantTermError(
            "plethysm into a series with nonzero constant term is undefined"
        )


class GradedSeries:
    """components[d] for 0 <= d <= max_degree, each homogeneous of degree d.

    Built once and never mutated, by the package or by a caller: named
    series are shared.  GradedSeries(n, components) checks homogeneity;
    _of takes the list a kernel has just built as given.
    """

    __slots__ = ("max_degree", "components")

    def __init__(self, max_degree: int, components=None):
        if max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        comps: List[SymFunc] = [SymFunc.zero()] * (max_degree + 1)
        if components is not None:
            if isinstance(components, dict):
                items = components.items()
            else:
                items = enumerate(components)
            for d, part in items:
                if d < 0:
                    raise ValueError(f"component {d} has a negative degree")
                if d > max_degree:
                    continue
                if not isinstance(part, SymFunc):
                    part = SymFunc.constant(part)
                if part.degrees() - {d}:
                    raise ValueError(f"component {d} is not homogeneous of degree {d}")
                comps[d] = part
        self.max_degree = max_degree
        self.components = comps

    @classmethod
    def _of(cls, components: List[SymFunc]) -> "GradedSeries":
        """The series with these components, taken as given: component d is
        homogeneous of degree d, and the bound is len(components) - 1."""
        if not components:
            raise ValueError("max_degree must be nonnegative")
        out = cls.__new__(cls)
        out.max_degree = len(components) - 1
        out.components = components
        return out

    @staticmethod
    def constant(c, max_degree: int) -> "GradedSeries":
        return GradedSeries(max_degree, {0: SymFunc.constant(c)})

    @staticmethod
    def from_symfunc(f: SymFunc, max_degree: int) -> "GradedSeries":
        """Split an (in)homogeneous SymFunc by degree; degrees above the bound drop."""
        by_degree: dict = {}
        for lam, coeff in f.terms.items():
            d = sum(lam)
            if d <= max_degree:
                by_degree.setdefault(d, {})[lam] = coeff
        return GradedSeries(
            max_degree, {d: SymFunc(terms) for d, terms in by_degree.items()}
        )

    def constant_term(self) -> Fraction:
        return self.components[0].coefficient(())

    def _map_components(self, fn: Callable[[SymFunc], SymFunc]) -> "GradedSeries":
        # fn's results are taken as given, so fn must keep each degree: -,
        # scalar * and omega_series, the only callers, all do.
        return GradedSeries._of([fn(part) for part in self.components])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedSeries)
            and self.max_degree == other.max_degree
            and self.components == other.components
        )

    def __bool__(self) -> bool:
        return any(self.components)

    def __add__(self, other) -> "GradedSeries":
        if isinstance(other, Rational):
            return GradedSeries._of([self.components[0] + other] + self.components[1:])
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return GradedSeries._of([a + b for a, b in zip(self.components, other.components)])

    __radd__ = __add__

    def __neg__(self) -> "GradedSeries":
        return self._map_components(lambda part: -part)

    def __sub__(self, other) -> "GradedSeries":
        return self + -other

    def __rsub__(self, other) -> "GradedSeries":
        return -self + other

    def __mul__(self, other) -> "GradedSeries":
        if isinstance(other, Rational):
            return self._map_components(lambda part: part * other)
        if not isinstance(other, GradedSeries):
            return NotImplemented
        n = min(self.max_degree, other.max_degree)
        fs = [part._form for part in self.components[: n + 1]]
        gs = [part._form for part in other.components[: n + 1]]
        # degree d of the product: sum_{0 <= a <= d} f_a g_{d-a}
        return GradedSeries._of([_from_form(_form_of_products(
            (fs[a], gs[d - a]) for a in range(d + 1) if fs[a] and gs[d - a]
        )) for d in range(n + 1)])

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GradedSeries":
        if isinstance(other, Rational):
            if not other:
                raise ZeroDivisionError("division by zero")
            return self * (Fraction(1) / Fraction(other))
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return series_div(self, other)

    def __repr__(self):
        parts = ", ".join(f"{d}: {part!r}" for d, part in enumerate(self.components) if part)
        return f"GradedSeries(N={self.max_degree}, {{{parts}}})"


def series_inverse(g: GradedSeries) -> GradedSeries:
    """Multiplicative inverse of a series with invertible (nonzero rational)
    constant term: series_div(1, g)."""
    return series_div(GradedSeries.constant(1, g.max_degree), g)


def series_div(f: GradedSeries, g: GradedSeries) -> GradedSeries:
    """f/g for g with invertible (nonzero rational) constant term c,
    truncated at the smaller bound: q_d = (1/c)(f_d - sum_{j=1..d} g_j q_{d-j}),
    each q_d summed in one pass over integer forms."""
    c = g.constant_term()
    if not c:
        raise NonUnitConstantError("cannot divide by a series with zero constant term")
    n = min(f.max_degree, g.max_degree)
    gs = [part._form for part in g.components[: n + 1]]
    # f_d enters as f_d * (-1) under the common scale -1/c
    minus_one = _constant_form(-1)
    scale = -1 / c
    qs: List[Optional[IntegerForm]] = []
    for d, part in enumerate(f.components[: n + 1]):
        pairs = [(gs[j], qs[d - j]) for j in range(1, d + 1) if gs[j] and qs[d - j]]
        if part:
            pairs.append((part._form, minus_one))
        qs.append(_form_of_products(pairs, scale))
    return GradedSeries._of([_from_form(q) for q in qs])


def parity_split(f: GradedSeries, parity: str, alternating: bool = False) -> GradedSeries:
    """Keep only odd- or even-degree components; with alternating=True the
    degree-(2k+1) (odd) or degree-2k (even) component is scaled by (-1)^k."""
    if parity not in ("odd", "even"):
        raise ValueError("parity must be 'odd' or 'even'")
    want = 1 if parity == "odd" else 0
    zero = SymFunc.zero()
    return GradedSeries._of([
        zero if d % 2 != want else -part if alternating and (d // 2) % 2 else part
        for d, part in enumerate(f.components)
    ])


def omega_series(f: GradedSeries) -> GradedSeries:
    return f._map_components(omega)


def _horner_degree(children, d: int) -> Optional[IntegerForm]:
    """Degree d of sum_k p_k[g] S_k over a trie node's children
    (k, p_k[g_j] by j, S_k), reading each S_k below degree d only.  S_k is
    read before p_k[g]: with no p_1 term the p_1 child of the root is zero
    in degree 0, so the root's degree d does not read g_d."""
    pairs = [(s[d - k * j], column[j])
             for k, column, s in children
             for j in range(1, d // k + 1)
             if s[d - k * j] and column[j]]
    return _form_of_products(pairs) if pairs else None


def _horner(items: Iterable[Tuple[Partition, IntegerForm]], n: int, gs: list) -> list:
    """Degrees 0..n of f[g] as integer forms, for f's terms (lam, c_lam), c_lam
    in constant form, in items and g's forms g_0 = None, g_1, ... in gs, by
    Horner's rule S_nu = c_nu + sum_{k >= last(nu)} p_k[g] S_(nu,k),
    f[g] = S_(), over the trie of f's terms with the parts of each lam in
    increasing order.

    A node is (n - |nu|, S_nu by degree, children (k, p_k[g_j] by j,
    S_(nu,k))): S_nu is multiplied by prod_i p_{nu_i}[g], of valuation
    |nu|, so it is kept only through degree n - |nu|, and a term above n is
    skipped.  The column p_k[g] is columns[k], built for this call from gs.
    Degrees run outermost: the root's degree d, then the columns through
    g_d, then degree d of every other node that keeps it, in any order,
    since each reads its children below degree d only.  Where gs stops at
    degree d - 1, g_d is appended as the root's degree d: fed g_0 and g_1
    alone, gs ends as the fixed point g = g_1 + f[g].  That needs f to have
    no constant term and no p_1 term, so that degree d of f[g] reads
    g_1 .. g_{d-1} only."""
    columns = {1: gs}
    trie = {(): (n, [None], [])}
    for lam, c in items:
        if c is None or sum(lam) > n:
            continue
        nu = ()
        for k in reversed(lam):
            bound, _, children = trie[nu]
            nu += (k,)
            if nu not in trie:
                trie[nu] = (bound - k, [None], [])
                children.append((k, columns.setdefault(k, [None]), trie[nu][1]))
        trie[nu][1][0] = c
    (_, root, top), *nodes = trie.values()
    # largest bound first, so each degree stops at the first node past its bound
    nodes.sort(key=lambda node: -node[0])
    for d in range(1, n + 1):
        root.append(_horner_degree(top, d))
        if d == len(gs):
            gs.append(root[d])
        for k, column in columns.items():
            if k > 1 and k * d <= n:
                column.append(_scaled_form(gs[d], k))
        for bound, s, children in nodes:
            if bound < d:
                break
            s.append(_horner_degree(children, d))
    return root


def _composed(items, n: int, g: GradedSeries) -> GradedSeries:
    """f[g] through degree n for f's terms in items, g with zero constant
    term (ConstantTermError otherwise): _horner on a fresh list of g's forms."""
    _require_zero_constant(g)
    forms = _horner(items, n, [part._form for part in g.components[: n + 1]])
    return GradedSeries._of([_from_form(form) for form in forms])


def compose_scalar(coeffs, g: GradedSeries) -> GradedSeries:
    """sum_{m>=1} c_m g^m truncated at g's bound; g must have zero constant term.

    coeffs is a callable or an iterable, read up to c_n only, giving the exact
    rational c_m (m >= 1); a float raises TypeError.  The sum is the
    plethysm (sum_m c_m p_1^m)[g].
    """
    n = g.max_degree
    cs = [coeffs(m) for m in range(1, n + 1)] if callable(coeffs) else list(islice(coeffs, n))
    if not all(isinstance(c, Rational) for c in cs):
        raise TypeError("Taylor coefficients must be exact rationals")
    # the chain trie of sum_m c_m p_1^m: classical Horner, S_m = c_m + g S_(m+1)
    items = [((1,) * m, _constant_form(c)) for m, c in enumerate(cs, 1)]
    return _composed(items, n, g)


# Exact Taylor coefficients for the named wrappers.


def _log1p_coeff(m: int) -> Fraction:
    return Fraction((-1) ** (m - 1), m)


def _arctan_coeff(m: int) -> Fraction:
    if m % 2 == 0:
        return Fraction(0)
    return Fraction((-1) ** ((m - 1) // 2), m)


def _arctanh_coeff(m: int) -> Fraction:
    if m % 2 == 0:
        return Fraction(0)
    return Fraction(1, m)


def _tan_like_coeffs(n: int, hyperbolic: bool) -> List[Fraction]:
    # Coefficients 0..n of tan or tanh as univariate series, from
    # t' = 1 + t^2 (tan) or t' = 1 - t^2 (tanh): j t_j = [j = 1] +- sum t_i t_{j-1-i}.
    sign = -1 if hyperbolic else 1
    t = [Fraction(0)] * (n + 1)
    for j in range(1, n + 1):
        square = sum(t[i] * t[j - 1 - i] for i in range(1, j - 1))
        t[j] = Fraction(int(j == 1) + sign * square, j)
    return t


def exp_series(g: GradedSeries) -> GradedSeries:
    """exp(g) = 1 + sum_{m>=1} g^m / m! for g with zero constant term,
    truncated at g's bound.

    F = exp(g) solves D F = D(g) F for the degree operator D, so F_0 = 1 and
    F_d = (1/d) sum_{j=1..d} j g_j F_{d-j}: one sum of products per degree
    over integer forms, where the powers g^m would take one per power.
    """
    _require_zero_constant(g)
    n = g.max_degree
    # D(g)_j = j g_j: each numerator of g_j times j, over g_j's denominator
    dg = [form and (tuple([(key, c * j) for key, c in form[0]]), form[1])
          for j, form in enumerate(part._form for part in g.components)]
    fs: List[Optional[IntegerForm]] = [_constant_form(1)]
    for d in range(1, n + 1):
        pairs = [(dg[j], fs[d - j]) for j in range(1, d + 1) if dg[j] and fs[d - j]]
        fs.append(_form_of_products(pairs, Fraction(1, d)) if pairs else None)
    return GradedSeries._of([_from_form(form) for form in fs])


def log1p_series(g: GradedSeries) -> GradedSeries:
    return compose_scalar(_log1p_coeff, g)


def tan_series(g: GradedSeries) -> GradedSeries:
    return compose_scalar(_tan_like_coeffs(g.max_degree, False)[1:], g)


def tanh_series(g: GradedSeries) -> GradedSeries:
    return compose_scalar(_tan_like_coeffs(g.max_degree, True)[1:], g)


def arctan_series(g: GradedSeries) -> GradedSeries:
    return compose_scalar(_arctan_coeff, g)


def arctanh_series(g: GradedSeries) -> GradedSeries:
    return compose_scalar(_arctanh_coeff, g)
