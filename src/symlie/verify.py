"""Registry of named identity checks, each runnable at a chosen truncation.

Every check builds one or more (label, lhs, rhs) pairs of graded series and
compares them degree by degree, exactly.  A report records the first degree
at which any pair disagrees, with both offending components rendered, the
first partition where they differ and the exact difference lhs - rhs there.
A check may declare a degree cap, and run_check clamps the requested degree
to it: the free-Lie trace oracle (lie_oracle) is factorial-cost, and the
plethysm sweep (pleth_oracle) is exact only up to its number of variables.
foulkes, ribbon_dimension, tanh_form and tan_form read the enumeration of
alternating permutations, so their cap is oracle.ALTERNATING_COUNT_LIMIT;
carlitz and alt_carlitz keep cap 12.  CHECK_CAPS in benchmarks/run.py pins
five of those six caps, all but ribbon_dimension's, and must move with them.
thrall_h, thrall_e, he_restate, hook_regular, hook_alt_even and hook_alt_odd
are formulas in symlie.expr, the CLI's language, so they check its evaluator.

run_all runs the checks, none of which reads another's result, in one
process per usable CPU, each pinned to its own: the caller and workers
forked from it, which end with os._exit and so never flush the stdio they
inherit.  Its reports equal run_check's, in registry order, each with
elapsed_ms measured in the process that ran the check; a check that raises
makes run_all raise the same exception; and no worker outlives the call.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, List, Optional, Tuple

from .expr import evaluate, parse
from .lie import compose_named, hk, hk_alt_series, named_series, staircase_skew
from .oracle import (
    ALTERNATING_COUNT_LIMIT,
    LIE_TRACE_LIMIT,
    alternating_count,
    foulkes_staircase,
    lie_character,
    monomial_pleth_collected,
    specialize_collected,
    syt_count,
)
from .partitions import partitions_of, staircase
from .plethysm import pleth
from .series import (
    GradedSeries,
    compose_scalar,
    omega_series,
    parity_split,
    series_div,
    series_inverse,
    tan_series,
    tanh_series,
)
from .symfunc import SymFunc, _sizes, dimension, p, render, schur, schur_expand

Pair = Tuple[str, GradedSeries, GradedSeries]


class CheckReport:
    """One check's outcome.  A failure sets first_failure_degree, mismatch
    (both components rendered), mismatch_partition (the first partition, in
    render order, where they differ) and mismatch_delta (lhs - rhs there).
    max_degree is requested_degree clamped to the cap.  elapsed_ms, the time
    to build and compare the pairs, is not part of the result, nor compared;
    pairs, terms and max_den_bits (the pairs, their stored terms and the
    largest bit length of a coefficient denominator) are counted outside it.

    __slots__ is the one declaration of a field, read by __init__, by __eq__
    (all but elapsed_ms) and by as_record (the first nine always, in order,
    and the last four, as first_failure_degree and mismatch, on a failure)."""

    __slots__ = ("check_name", "paper_anchor", "max_degree", "requested_degree", "elapsed_ms",
                 "pairs", "terms", "max_den_bits", "passed",
                 "first_failure_degree", "mismatch", "mismatch_partition", "mismatch_delta")

    def __init__(self, check_name: str, paper_anchor: str, max_degree: int, passed: bool,
                 first_failure_degree=None, mismatch=None, mismatch_partition=None,
                 mismatch_delta=None, requested_degree=None, elapsed_ms=None, pairs=None,
                 terms=None, max_den_bits=None):
        arguments = locals()
        for name in self.__slots__:
            setattr(self, name, arguments[name])

    def __eq__(self, other):
        return type(other) is CheckReport and all(
            getattr(self, name) == getattr(other, name)
            for name in self.__slots__ if name != "elapsed_ms")

    def as_record(self) -> dict:
        record = {name: getattr(self, name) for name in self.__slots__[:-4]}
        if self.first_failure_degree is not None:
            record["first_failure_degree"] = self.first_failure_degree
        if self.mismatch is not None:
            record["mismatch"] = {
                "lhs": self.mismatch[0],
                "rhs": self.mismatch[1],
                "partition": list(self.mismatch_partition),
                "delta": {"num": self.mismatch_delta.numerator,
                          "den": self.mismatch_delta.denominator},
            }
        return record


class Check:
    """A registered check: name, paper anchor, pair builder, degree cap."""

    __slots__ = ("name", "anchor", "builder", "cap")

    def __init__(self, name: str, anchor: str, builder: Callable[[int], List[Pair]],
                 cap: Optional[int] = None):
        self.name, self.anchor, self.builder, self.cap = name, anchor, builder, cap

    def degree(self, max_degree: int) -> int:
        """The degree the check runs at: max_degree clamped to the cap."""
        return max_degree if self.cap is None else min(max_degree, self.cap)


# --- small series builders ----------------------------------------------------


def _p1_series(n: int) -> GradedSeries:
    return GradedSeries(n, {1: p(1)})


def _geometric_p1(n: int) -> GradedSeries:
    # 1/(1 - p_1) = sum p_1^m
    return series_inverse(1 - _p1_series(n))


def _odd_powersum(n: int, alternating: bool = False) -> GradedSeries:
    # sum_k (+-1)^k p_{2k+1} / (2k+1)
    logs = GradedSeries(n, {k: p(k) * Fraction(1, k) for k in range(1, n + 1)})
    return parity_split(logs, "odd", alternating)


def _odd_p1_logs(n: int, alternating: bool = False) -> GradedSeries:
    # sum_{m odd} (+-1)^{(m-1)/2} p_1^m / m, with p_1^m written out by hand
    logs = GradedSeries(n, {m: SymFunc({(1,) * m: Fraction(1, m)}) for m in range(1, n + 1)})
    return parity_split(logs, "odd", alternating)


@lru_cache(maxsize=None)
def _quotient(n: int, alternating: bool) -> GradedSeries:
    # E_odd/E_even (or its alternating analogue); shared, so never mutated.
    alt = "_alt" if alternating else ""
    return series_div(named_series("E_odd" + alt, n), named_series("E_even" + alt, n))


# --- check builders -------------------------------------------------------------


def _identity(label: str, lhs: str, rhs: str) -> Callable[[int], List[Pair]]:
    """The builder of a check stated as two expressions of symlie.expr, the
    CLI's language, so that the check runs the evaluator too."""
    return lambda n: [(label, evaluate(parse(lhs), n), evaluate(parse(rhs), n))]


def _main_inverse(n: int, alternating: bool = False) -> List[Pair]:
    a = "^alt" if alternating else ""
    q = _quotient(n, alternating)
    lo = named_series("Lie_odd_alt" if alternating else "Lie_odd", n)
    target = _p1_series(n)
    return [
        (f"(E_odd{a}/E_even{a})[Lie_odd{a}]", pleth(q, lo), target),
        (f"Lie_odd{a}[E_odd{a}/E_even{a}]", pleth(lo, q), target),
    ]


def _arctanh_pleth(n: int, alternating: bool = False) -> List[Pair]:
    label = "alternating sum [Lie_odd^alt]" if alternating else "sum p_k/k [Lie_odd]"
    lo = named_series("Lie_odd_alt" if alternating else "Lie_odd", n)
    lhs = pleth(_odd_powersum(n, alternating), lo)
    return [(label, lhs, _odd_p1_logs(n, alternating))]


def _hook_he(n: int) -> List[Pair]:
    # The registered HE is the closed form; its references are the Schur-sum
    # hooks, the product H*E and the exponential exp(sum_{k odd} 2 p_k/k).
    he = named_series("HE", n)
    schur_sums = GradedSeries(n, {d: hk(d) * 2 for d in range(1, n + 1)}) + 1
    return [
        ("HE vs 1 + 2 sum Hk_n (hook Schur sums)", he, schur_sums),
        ("HE vs H*E", he, named_series("H", n) * named_series("E", n)),
        ("HE vs HE[p_1] (exponential)", he, compose_named("HE", _p1_series(n))),
    ]


def _he_lie_even(n: int) -> List[Pair]:
    # The even-part identity forced by dividing the product rule
    # (HE)[Lie_odd] * (HE)[Lie_even] = (HE)[Lie] = (1-p_2)(1-p_1)^-2
    # by (HE)[Lie_odd] = (1+p_1)/(1-p_1).
    even_part = compose_named("HE", named_series("Lie_even", n))
    odd_part = compose_named("HE", named_series("Lie_odd", n))
    full = compose_named("HE", named_series("Lie", n))
    geom, one_minus_p2 = _geometric_p1(n), 1 - GradedSeries(n, {2: p(2)})
    product_form = one_minus_p2 * geom * geom
    thrall_form = geom * compose_named("E", named_series("Lie", n))
    even_target = one_minus_p2 * series_inverse(1 - _p1_series(n) * _p1_series(n))
    return [
        ("(HE)[Lie_even] vs (1-p_2)(1-p_1^2)^-1", even_part, even_target),
        ("(HE)[Lie_odd](HE)[Lie_even] vs (HE)[Lie]", odd_part * even_part, full),
        ("(HE)[Lie] vs (1-p_2)(1-p_1)^-2", full, product_form),
        ("(1-p_2)(1-p_1)^-2 vs (1-p_1)^-1 E[Lie]", product_form, thrall_form),
    ]


def _staircase_sum(n: int, ribbon: Callable[[int], SymFunc]) -> GradedSeries:
    # sum_{stair >= 2} ribbon(stair) = s_{delta_stair/delta_{stair-2}}, of size 2 stair - 3
    return GradedSeries(n, {2 * stair - 3: ribbon(stair)
                            for stair in range(2, (n + 3) // 2 + 1)})


def _carlitz(n: int) -> List[Pair]:
    return [
        ("E_odd^alt/E_even^alt vs staircase sum", _quotient(n, True),
         _staircase_sum(n, staircase_skew))
    ]


def _foulkes(n: int) -> List[Pair]:
    return [
        ("staircase: Euler-number formula vs determinant",
         _staircase_sum(n, foulkes_staircase), _staircase_sum(n, staircase_skew))
    ]


def _ribbon_dimension(n: int) -> List[Pair]:
    # dim s_{delta_m/delta_{m-2}} three ways, each carried as the coefficient
    # of p_1^d in degree d = 2m - 3: from the ribbon Jacobi-Trudi sum (no
    # Euler numbers), by counting standard tableaux of the ribbon, and by
    # counting alternating permutations of d.
    determinant, tableaux, alternating = {}, {}, {}
    for m in range(2, (n + 3) // 2 + 1):
        d = 2 * m - 3
        ones = (1,) * d
        determinant[d] = SymFunc({ones: dimension(staircase_skew(m))})
        tableaux[d] = SymFunc({ones: syt_count(staircase(m), staircase(max(m - 2, 1)))})
        alternating[d] = SymFunc({ones: alternating_count(d)})
    return [
        ("dim of the determinant vs standard tableaux",
         GradedSeries(n, determinant), GradedSeries(n, tableaux)),
        ("standard tableaux vs alternating permutations",
         GradedSeries(n, tableaux), GradedSeries(n, alternating)),
    ]


def _hook_products(n: int) -> GradedSeries:
    # sum over the compositions c of d of (-1)^{len(c)-1} prod_j Hk_{c_j}, from
    # the Schur sums hk alone: the powers (-1)^{m-1} K^m of K = sum_d Hk_d,
    # grouped by the length m.  The quotient side divides, this side composes.
    hooks = GradedSeries(n, {d: hk(d) for d in range(1, n + 1)})
    return compose_scalar(lambda m: (-1) ** (m - 1), hooks)


def _alt_carlitz(n: int) -> List[Pair]:
    q = _quotient(n, False)
    # the ribbon of stair s sits in degree d = 2s - 3, so (-1)^s = (-1)^{floor(d/2)}
    signed = parity_split(_staircase_sum(n, staircase_skew), "odd", alternating=True)
    return [
        ("E_odd/E_even vs signed staircase sum", q, signed),
        ("E_odd/E_even vs hook-product expansion", q, _hook_products(n)),
    ]


def _tanh_form(n: int, alternating: bool = False) -> List[Pair]:
    a = "^alt" if alternating else ""
    trig, fn = ("tan", tan_series) if alternating else ("tanh", tanh_series)
    q = _quotient(n, alternating)
    # The Foulkes ribbons, summed over the staircases, are the tangent-number
    # series sum_m T_m Z^m/m! of tan; tanh's carries (-1)^{floor(m/2)}.
    tangent = _staircase_sum(n, foulkes_staircase)
    if not alternating:
        tangent = parity_split(tangent, "odd", alternating=True)
    return [
        (f"E_odd{a}/E_even{a} vs {trig}", q, fn(_odd_powersum(n, alternating))),
        (f"E_odd{a}/E_even{a} vs tangent numbers", q, tangent),
    ]


def _arctanh_sum(n: int, alternating: bool = False) -> List[Pair]:
    # sum[Lie_odd] = arctanh p_1 itself is arctanh_pleth's pair; this is that
    # identity with tanh (tan) applied to both sides.
    a = "^alt" if alternating else ""
    trig, fn = ("tan", tan_series) if alternating else ("tanh", tanh_series)
    lo = named_series("Lie_odd_alt" if alternating else "Lie_odd", n)
    lhs = pleth(fn(_odd_powersum(n, alternating)), lo)
    return [(f"{trig}(sum)[Lie_odd{a}] = p_1", lhs, _p1_series(n))]


_POSITIVITY_CAP = 8


def _jordan(n: int) -> List[Pair]:
    eta = named_series("Jordan", n)
    # product rule: H[Lie_odd] * H[Lie_even] = H[Lie] = 1/(1 - p_1)
    h_lie_even = compose_named("H", named_series("Lie_even", n))
    rhs = series_div(_geometric_p1(n), h_lie_even)
    bound = min(n, _POSITIVITY_CAP)
    offenders = GradedSeries(bound, {
        d: SymFunc({lam: c for lam, c in schur_expand(eta.components[d]).items()
                    if c < 0 or c.denominator != 1})
        for d in range(1, bound + 1)
    })
    return [
        ("sum eta_n vs (1-p_1)^-1 / H[Lie_even]", eta, rhs),
        (f"eta Schur-expansion negative or fractional part, through degree {bound}",
         offenders, GradedSeries(bound)),
    ]


def _parity_props(n: int) -> List[Pair]:
    he, k = named_series("HE", n), named_series("Hk", n)
    h_odd, h_even = named_series("H_odd", n), named_series("H_even", n)
    e_odd, e_even = named_series("E_odd", n), named_series("E_even", n)
    q = _quotient(n, False)
    # each quadrant product once; H_x E is then H_x E_even + H_x E_odd
    odd_even, even_odd = h_odd * e_even, h_even * e_odd
    even_even, odd_odd = h_even * e_even, h_odd * e_odd
    return [
        ("H_odd E_even = H_even E_odd", odd_even, even_odd),
        ("H_even E_even = 1 + H_odd E_odd", even_even, odd_odd + 1),
        ("2 H_odd E = HE - 1", (odd_even + odd_odd) * 2, he - 1),
        ("2 H_even E = HE + 1", (even_even + even_odd) * 2, he + 1),
        ("H_odd/H_even = E_odd/E_even", series_div(h_odd, h_even), q),
        ("quotient * (HE + 1) = HE - 1", q * (he + 1), he - 1),
        ("quotient * (1 + Hk) = Hk", q * (k + 1), k),
        ("omega-invariance of the quotient", omega_series(q), q),
    ]


def _alt_parity_props(n: int) -> List[Pair]:
    h_odd, h_even = named_series("H_odd_alt", n), named_series("H_even_alt", n)
    e_odd, e_even = named_series("E_odd_alt", n), named_series("E_even_alt", n)
    x = hk_alt_series("even", n)
    y = hk_alt_series("odd", n)
    x2, y2 = x * x, y * y
    q = _quotient(n, True)
    return [
        ("H_odd^alt E_even^alt = H_even^alt E_odd^alt", h_odd * e_even, h_even * e_odd),
        ("H_even^alt E_even^alt + H_odd^alt E_odd^alt = 1",
         h_even * e_even + h_odd * e_odd, GradedSeries.constant(1, n)),
        ("H_odd^alt/H_even^alt = E_odd^alt/E_even^alt", series_div(h_odd, h_even), q),
        ("quotient * (X^2 + Y^2) = Y", q * (x2 + y2), y),
        ("Y^2 = X - X^2", y2, x - x2),
        ("omega-invariance of the alternating quotient", omega_series(q), q),
    ]


def _lie_oracle(n: int) -> List[Pair]:
    rhs = GradedSeries(n, {d: lie_character(d) for d in range(1, n + 1)})
    return [("Moebius formula vs free-Lie trace", named_series("Lie", n), rhs)]


# The number of variables of the sweep's alphabets, and the oracle's cap:
# specializing to m variables is injective on degree d only when m >= d,
# so a cap above m would let two different plethysms compare equal.
_SWEEP_M = 12


def _oracle_sweep_functions():
    """The sweep's distinct f and g: f is s_lam for |lam| <= 4 or p_2, p_3,
    p_4, and g is s_lam for |lam| <= 3.  Since h_k = s_(k), e_k = s_(1^k)
    and p_1 = s_1, they cover h_k, e_k and p_1 of the same degrees too."""
    schurs = {d: [(f"s{list(lam)}", schur(lam)) for lam in partitions_of(d)]
              for d in range(1, 5)}
    fs = [f for d in range(1, 5) for f in schurs[d]]
    fs += [(f"p[{k}]", p(k)) for k in range(2, 5)]
    gs = [g for d in range(1, 4) for g in schurs[d]]
    return fs, gs


def _pleth_oracle(n: int) -> List[Pair]:
    """Each (f, g) of the sweep with deg f * deg g <= n, once: pleth(f, g)
    specialized to _SWEEP_M variables against f evaluated on the monomials
    of g(x_1, ..., x_m).  Both sides are SymFuncs in integer form whose
    partitions are the orbits' sorted exponent vectors, put into the pairs
    as they are."""
    fs, gs = _oracle_sweep_functions()
    pairs: List[Pair] = []
    for g_label, g in gs:
        dg = g.degree()
        degrees = [f.degree() * dg for _, f in fs]
        g_series = GradedSeries(max((d for d in degrees if d <= n), default=0), {dg: g})
        for (f_label, f), degree in zip(fs, degrees):
            if degree > n:
                continue
            engine = specialize_collected(
                pleth(f, g_series).components[degree], _SWEEP_M
            )
            alphabet = monomial_pleth_collected(f, g, _SWEEP_M)
            label = f"f={f_label}, g={g_label}, m={_SWEEP_M} (orbit form)"
            pairs.append((label, GradedSeries(degree, {degree: engine}),
                          GradedSeries(degree, {degree: alphabet})))
    return pairs


CHECKS: List[Check] = [
    Check("thrall_h", "H[Lie(t)] = 1/(1 - t p_1)",
          _identity("H[Lie]", "H o Lie", "1/(1 - p[1])")),
    Check("thrall_e", "E[Lie(t)] = (1 - t^2 p_2)/(1 - t p_1)",
          _identity("E[Lie]", "E o Lie", "(1 - p[2])/(1 - p[1])")),
    Check("main_inverse",
          "(E_odd/E_even)[Lie_odd] = p_1 = Lie_odd[E_odd/E_even]", _main_inverse),
    Check("main_inverse_alt",
          "(E_odd^alt/E_even^alt)[Lie_odd^alt] = p_1 = Lie_odd^alt[...]",
          partial(_main_inverse, alternating=True)),
    Check("arctanh_pleth",
          "sum_{k odd} (p_k/k)[Lie_odd] = sum_{m odd} p_1^m/m", _arctanh_pleth),
    Check("arctan_pleth_alt",
          "sum_{k odd} (-1)^{(k-1)/2} (p_k/k)[Lie_odd^alt] = "
          "sum_{m odd} (-1)^{(m-1)/2} p_1^m/m", partial(_arctanh_pleth, alternating=True)),
    Check("he_restate", "(HE)[Lie_odd] = (1 + p_1)/(1 - p_1)",
          _identity("(HE)[Lie_odd]", "HE o Lie_odd", "(1 + p[1])/(1 - p[1])")),
    Check("hook_regular", "Hk[Lie_odd] at degree n = p_1^n",
          _identity("Hk[Lie_odd]", "Hk o Lie_odd", "p[1]/(1 - p[1])")),
    Check("hook_he", "HE = exp(sum_{k odd} 2p_k/k) = 1 + 2 sum Hk_n = H E", _hook_he),
    Check("he_lie_even",
          "(HE)[Lie_even] = (1 - p_2)(1 - p_1)^-2 = (1 - p_1)^-1 E[Lie]",
          _he_lie_even),
    Check("hook_alt_even",
          "sum_{m even} (-1)^{m/2} Hk_m[Lie_odd^alt] at degree 2n = (-1)^n p_1^{2n}",
          _identity("even alternating hooks [Lie_odd^alt]", "Hk_even_alt o Lie_odd_alt",
                    "even_alt(p[1]/(1 - p[1]))")),
    Check("hook_alt_odd",
          "sum_{m odd} (-1)^{(m-1)/2} Hk_m[Lie_odd^alt] at degree 2n+1 = "
          "(-1)^n p_1^{2n+1}",
          _identity("odd alternating hooks [Lie_odd^alt]", "Hk_odd_alt o Lie_odd_alt",
                    "odd_alt(p[1]/(1 - p[1]))")),
    # only CHECK_CAPS in benchmarks/run.py holds carlitz and alt_carlitz at 12
    Check("carlitz",
          "E_odd^alt/E_even^alt = s_(1) + sum_{n>=3} s_{delta_n/delta_{n-2}}",
          _carlitz, cap=12),
    Check("foulkes",
          "staircase skew Schur: odd-power-sum Euler expansion = "
          "Jacobi-Trudi determinant", _foulkes, cap=ALTERNATING_COUNT_LIMIT),
    Check("ribbon_dimension",
          "dim s_{delta_n/delta_{n-2}} = #SYT(delta_n/delta_{n-2}) = E_{2n-3}, the alternating "
          "permutations of 2n-3", _ribbon_dimension, cap=ALTERNATING_COUNT_LIMIT),
    Check("alt_carlitz",
          "E_odd/E_even = s_(1) + sum (-1)^n s_{delta_n/delta_{n-2}} "
          "= hook-product expansion", _alt_carlitz, cap=12),
    Check("tanh_form",
          "E_odd/E_even = tanh(sum p_{2k+1}/(2k+1)) = tangent-number series",
          _tanh_form, cap=ALTERNATING_COUNT_LIMIT),
    Check("tan_form",
          "E_odd^alt/E_even^alt = tan(sum (-1)^k p_{2k+1}/(2k+1)) = tangent-number series",
          partial(_tanh_form, alternating=True), cap=ALTERNATING_COUNT_LIMIT),
    Check("arctan_sum", "(sum_j arctan x_j)[Lie_odd^alt] = arctan p_1",
          partial(_arctanh_sum, alternating=True)),
    Check("arctanh_sum", "(sum_j arctanh x_j)[Lie_odd] = arctanh p_1", _arctanh_sum),
    Check("jordan",
          "sum_n eta_n = H[Lie_odd], with nonnegative integral Schur expansion "
          f"through degree {_POSITIVITY_CAP}", _jordan),
    Check("parity_props",
          "H_odd E_even = H_even E_odd, H_even E_even - H_odd E_odd = 1, "
          "2H_odd = H - 1/E, and quotient forms", _parity_props),
    Check("alt_parity_props",
          "alternating parity identities and quotient forms, real coefficients",
          _alt_parity_props),
    Check("lie_oracle",
          f"Lie_n = free-Lie-algebra trace character, n <= {LIE_TRACE_LIMIT}",
          _lie_oracle, cap=LIE_TRACE_LIMIT),
    Check("pleth_oracle",
          "plethysm agrees with the monomial-alphabet oracle over the sweep",
          _pleth_oracle, cap=_SWEEP_M),
]

def check_names() -> List[Tuple[str, str]]:
    return [(check.name, check.anchor) for check in CHECKS]


def _check(name: str) -> Check:
    for check in CHECKS:
        if check.name == name:
            return check
    raise KeyError(f"unknown check {name!r}")


def build_pairs(name: str, max_degree: int) -> List[Pair]:
    """The comparison pairs a check would run at this degree (post-clamping)."""
    check = _check(name)
    return check.builder(check.degree(max_degree))


def run_check(name: str, max_degree: int) -> CheckReport:
    """Run one registered check at the given truncation degree."""
    start = time.perf_counter()
    check = _check(name)
    n = check.degree(max_degree)
    pairs = check.builder(n)
    failure = next(((d, label, lhs.components[d], rhs.components[d])
                    for d in range(n + 1) for label, lhs, rhs in pairs
                    if d <= min(lhs.max_degree, rhs.max_degree)
                    and lhs.components[d] != rhs.components[d]), None)
    found = {}
    if failure is not None:
        d, label, left, right = failure
        diff = (left - right).terms
        partition = min(diff)
        found = dict(first_failure_degree=d,
                     mismatch=(f"{label}: {render(left)}", f"{label}: {render(right)}"),
                     mismatch_partition=partition, mismatch_delta=diff[partition])
    elapsed_ms = (time.perf_counter() - start) * 1000
    terms, bits = _sizes(part for _, lhs, rhs in pairs
                         for part in lhs.components + rhs.components)
    return CheckReport(
        check_name=name,
        paper_anchor=check.anchor,
        max_degree=n,
        passed=failure is None,
        requested_degree=max_degree,
        elapsed_ms=elapsed_ms,
        pairs=len(pairs),
        terms=terms, max_den_bits=bits,
        **found,
    )


def _run_tickets(tickets: int, max_degree: int) -> dict:
    """Run checks by the registry indices read from the tickets pipe, one
    byte each, until it is drained: each index to its report, or to the
    exception its check raised."""
    outcomes = {}
    while ticket := os.read(tickets, 1):
        try:
            outcomes[ticket[0]] = run_check(CHECKS[ticket[0]].name, max_degree)
        except Exception as exc:  # run_all raises it, after reaping the workers
            outcomes[ticket[0]] = exc
    return outcomes


def _pin(cpus) -> None:
    """Keep this process on the given CPUs, where the system has the call.  A
    forked worker left to the scheduler can share its parent's CPU for all of
    a run as short as run_all's, and then gains nothing."""
    if hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, cpus)
        except OSError:  # the CPU set changed since it was read
            pass


def run_all(max_degree: int) -> List[CheckReport]:
    """Every registered check, in registry order, each report equal to
    run_check's.  The checks run in min(usable CPUs, checks) processes: the
    caller and workers forked from it, which see CHECKS as it is at the call,
    each pinned to a CPU of its own where the system allows; the caller's
    CPU set is restored at the end.  Each process takes the next check from
    a shared pipe of tickets, and a worker pickles its outcomes back, so a
    report's elapsed_ms is measured in the process that ran the check.  If
    checks raise, the earliest in registry order has its exception, of the
    same type and message, raised here.  Workers end with os._exit, never
    flushing the stdio buffers they inherit, and none outlives the call: on
    any exception, interrupts included, the caller kills and reaps them
    before re-raising.  A worker that dies, or whose outcomes cannot be
    unpickled, fails, and the caller runs its checks again.  Without
    os.fork, or with one usable CPU, the caller runs every check."""
    import pickle

    usable = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    cpus = sorted(usable or range(os.cpu_count() or 1))[:len(CHECKS)]
    if not hasattr(os, "fork"):
        cpus = cpus[:1]
    tickets, fill = os.pipe()
    # Costliest first: the registry ends with the brute-force oracles
    # (pleth_oracle, lie_oracle) and the dense parity checks, so in reverse
    # registry order they start at once and the short checks fill in around
    # them; in registry order pleth_oracle would start last and run alone.
    os.write(fill, bytes(reversed(range(len(CHECKS)))))
    os.close(fill)
    caller, pids, pipes = os.getpid(), [], []
    try:
        for cpu in cpus[1:]:
            reader, writer = os.pipe()
            pipes += [os.fdopen(reader, "rb"), os.fdopen(writer, "wb")]
            pid = os.fork()
            if pid == 0:
                _pin({cpu})
                payload = pickle.dumps(_run_tickets(tickets, max_degree))
                pickle.loads(payload)  # an exception that cannot be unpickled fails here
                pipes[-1].write(payload)
                pipes[-1].close()
                os._exit(0)
            pipes.pop().close()  # the caller keeps only the reading end
            pids.append(pid)
        if pids:
            _pin({cpus[0]})
        outcomes = _run_tickets(tickets, max_degree)
        for pipe in pipes:
            payload = pipe.read()
            status = os.waitpid(pids[0], 0)[1]
            del pids[0]
            if status == 0:
                outcomes.update(pickle.loads(payload))
    finally:
        if os.getpid() != caller:  # a worker that raised or was interrupted
            os._exit(1)
        if pids:  # the caller raised or was interrupted
            import signal

            for pid in pids:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()
        os.close(tickets)
        if usable:
            _pin(usable)
    reports = []
    for index, check in enumerate(CHECKS):
        # a check with no outcome ran in a worker that failed
        outcome = outcomes[index] if index in outcomes else run_check(check.name, max_degree)
        if isinstance(outcome, Exception):
            raise outcome
        reports.append(outcome)
    return reports
