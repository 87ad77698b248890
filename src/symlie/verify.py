"""Registry of named identity checks, each runnable at a chosen truncation.

Every check builds one or more (label, lhs, rhs) pairs of graded series and
compares them degree by degree, exactly.  A report records the first degree
at which any pair disagrees, with both offending components rendered.
Oracle-backed checks declare a lower degree cap because enumeration is
factorial-cost; run_check clamps the requested degree to the cap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Callable, Dict, List, Optional, Tuple

from .lie import compose_named, hk, hk_alt_series, lie, named_series, staircase_skew
from .oracle import (
    alternating_count,
    lie_character,
    monomial_pleth_collected,
    specialize_collected,
)
from .partitions import multiplicities, partitions_of
from .plethysm import pleth
from .series import (
    GradedSeries,
    arctan_series,
    arctanh_series,
    omega_series,
    series_div,
    series_inverse,
    tan_series,
    tanh_series,
)
from .symfunc import SymFunc, e, h, p, render, schur, schur_expand

Pair = Tuple[str, GradedSeries, GradedSeries]


@dataclass
class CheckReport:
    check_name: str
    paper_anchor: str
    max_degree: int
    passed: bool
    first_failure_degree: Optional[int] = None
    mismatch: Optional[Tuple[str, str]] = None
    # The degree asked for, before the cap; max_degree is the one compared.
    requested_degree: Optional[int] = None
    # Wall time of building and comparing the pairs; not part of the result.
    elapsed_ms: Optional[float] = field(default=None, compare=False)

    def as_record(self) -> dict:
        record = {
            "check_name": self.check_name,
            "paper_anchor": self.paper_anchor,
            "max_degree": self.max_degree,
            "requested_degree": self.requested_degree,
            "elapsed_ms": self.elapsed_ms,
            "passed": self.passed,
        }
        if self.first_failure_degree is not None:
            record["first_failure_degree"] = self.first_failure_degree
        if self.mismatch is not None:
            record["mismatch"] = {"lhs": self.mismatch[0], "rhs": self.mismatch[1]}
        return record


@dataclass(frozen=True)
class Check:
    name: str
    anchor: str
    builder: Callable[[int], List[Pair]]
    cap: Optional[int] = None

    def degree(self, max_degree: int) -> int:
        """The degree the check runs at: max_degree clamped to the cap."""
        return max_degree if self.cap is None else min(max_degree, self.cap)


# --- small series builders ----------------------------------------------------


def _p1_series(n: int) -> GradedSeries:
    return GradedSeries(n, {1: p(1)})


@lru_cache(maxsize=None)
def _geometric_p1(n: int) -> GradedSeries:
    # 1/(1 - p_1) = sum p_1^m; shared, so never mutated.
    return series_inverse(GradedSeries.constant(1, n) - _p1_series(n))


def _p1_power(m: int) -> SymFunc:
    return SymFunc({(1,) * m: 1}) if m else SymFunc.constant(1)


def _odd_powersum(n: int, alternating: bool = False) -> GradedSeries:
    # sum_k (+-1)^k p_{2k+1} / (2k+1)
    comps = {}
    for k in range(0, (n + 1) // 2 + 1):
        d = 2 * k + 1
        if d > n:
            break
        sign = (-1) ** k if alternating else 1
        comps[d] = p(d) * Fraction(sign, d)
    return GradedSeries(n, comps)


def _odd_p1_logs(n: int, alternating: bool = False) -> GradedSeries:
    # sum_{m odd} (+-1)^{(m-1)/2} p_1^m / m
    comps = {}
    for m in range(1, n + 1, 2):
        sign = (-1) ** ((m - 1) // 2) if alternating else 1
        comps[m] = _p1_power(m) * Fraction(sign, m)
    return GradedSeries(n, comps)


def _one_minus_p2(n: int) -> GradedSeries:
    comps = {0: SymFunc.constant(1)}
    if n >= 2:
        comps[2] = -p(2)
    return GradedSeries(n, comps)


@lru_cache(maxsize=None)
def _quotient(n: int, alternating: bool = False) -> GradedSeries:
    # E_odd/E_even (or its alternating analogue); shared, so never mutated.
    alt = "_alt" if alternating else ""
    return series_div(named_series("E_odd" + alt, n), named_series("E_even" + alt, n))


# --- check builders -------------------------------------------------------------


def _thrall_h(n: int) -> List[Pair]:
    lhs = compose_named("H", named_series("Lie", n))
    return [("H[Lie]", lhs, _geometric_p1(n))]


def _thrall_e(n: int) -> List[Pair]:
    rhs = _one_minus_p2(n) * _geometric_p1(n)
    return [("E[Lie]", compose_named("E", named_series("Lie", n)), rhs)]


def _main_inverse(n: int) -> List[Pair]:
    q = _quotient(n)
    lo = named_series("Lie_odd", n)
    target = _p1_series(n)
    return [
        ("(E_odd/E_even)[Lie_odd]", pleth(q, lo), target),
        ("Lie_odd[E_odd/E_even]", pleth(lo, q), target),
    ]


def _main_inverse_alt(n: int) -> List[Pair]:
    q = _quotient(n, True)
    lo = named_series("Lie_odd_alt", n)
    target = _p1_series(n)
    return [
        ("(E_odd^alt/E_even^alt)[Lie_odd^alt]", pleth(q, lo), target),
        ("Lie_odd^alt[E_odd^alt/E_even^alt]", pleth(lo, q), target),
    ]


def _arctanh_pleth(n: int) -> List[Pair]:
    lhs = pleth(_odd_powersum(n), named_series("Lie_odd", n))
    return [("sum p_k/k [Lie_odd]", lhs, _odd_p1_logs(n))]


def _arctan_pleth_alt(n: int) -> List[Pair]:
    lhs = pleth(_odd_powersum(n, alternating=True), named_series("Lie_odd_alt", n))
    return [("alternating sum [Lie_odd^alt]", lhs, _odd_p1_logs(n, alternating=True))]


def _he_restate(n: int) -> List[Pair]:
    lhs = compose_named("HE", named_series("Lie_odd", n))
    rhs = (GradedSeries.constant(1, n) + _p1_series(n)) * _geometric_p1(n)
    return [("(HE)[Lie_odd]", lhs, rhs)]


def _hook_regular(n: int) -> List[Pair]:
    lhs = pleth(named_series("Hk", n), named_series("Lie_odd", n))
    rhs = _geometric_p1(n) - 1
    return [("Hk[Lie_odd]", lhs, rhs)]


def _he_lie_even(n: int) -> List[Pair]:
    # The even-part identity forced by dividing the product rule
    # (HE)[Lie_odd] * (HE)[Lie_even] = (HE)[Lie] = (1-p_2)(1-p_1)^-2
    # by (HE)[Lie_odd] = (1+p_1)/(1-p_1).
    even_part = compose_named("HE", named_series("Lie_even", n))
    odd_part = compose_named("HE", named_series("Lie_odd", n))
    full = compose_named("HE", named_series("Lie", n))
    geom = _geometric_p1(n)
    one = GradedSeries.constant(1, n)
    product_form = _one_minus_p2(n) * geom * geom
    thrall_form = geom * compose_named("E", named_series("Lie", n))
    even_target = _one_minus_p2(n) * series_inverse(one - _p1_series(n) * _p1_series(n))
    return [
        ("(HE)[Lie_even] vs (1-p_2)(1-p_1^2)^-1", even_part, even_target),
        ("(HE)[Lie_odd](HE)[Lie_even] vs (HE)[Lie]", odd_part * even_part, full),
        ("(HE)[Lie] vs (1-p_2)(1-p_1)^-2", full, product_form),
        ("(1-p_2)(1-p_1)^-2 vs (1-p_1)^-1 E[Lie]", product_form, thrall_form),
    ]


def _hook_alt_even(n: int) -> List[Pair]:
    # sum_{m even >= 2} (-1)^{m/2} Hk_m, composed with Lie_odd^alt
    series = hk_alt_series("even", n) - 1
    lhs = pleth(series, named_series("Lie_odd_alt", n))
    comps = {}
    for m in range(2, n + 1, 2):
        comps[m] = _p1_power(m) * ((-1) ** (m // 2))
    return [("even alternating hooks [Lie_odd^alt]", lhs, GradedSeries(n, comps))]


def _hook_alt_odd(n: int) -> List[Pair]:
    lhs = pleth(hk_alt_series("odd", n), named_series("Lie_odd_alt", n))
    comps = {}
    for m in range(1, n + 1, 2):
        comps[m] = _p1_power(m) * ((-1) ** ((m - 1) // 2))
    return [("odd alternating hooks [Lie_odd^alt]", lhs, GradedSeries(n, comps))]


def _staircase_sum(n: int, signed: bool) -> GradedSeries:
    comps = {}
    for stair in range(2, (n + 3) // 2 + 1):
        d = 2 * stair - 3
        if d > n:
            continue
        term = staircase_skew(stair, "jacobi_trudi")
        if signed:
            term = term * ((-1) ** stair)
        comps[d] = term
    return GradedSeries(n, comps)


def _carlitz(n: int) -> List[Pair]:
    return [
        ("E_odd^alt/E_even^alt vs staircase sum", _quotient(n, True), _staircase_sum(n, False))
    ]


def _foulkes(n: int) -> List[Pair]:
    lhs_comps = {}
    rhs_comps = {}
    for stair in range(2, (n + 3) // 2 + 1):
        d = 2 * stair - 3
        if d > n:
            continue
        lhs_comps[d] = staircase_skew(stair, "foulkes")
        rhs_comps[d] = staircase_skew(stair, "jacobi_trudi")
    return [
        ("staircase: Euler-number formula vs determinant",
         GradedSeries(n, lhs_comps), GradedSeries(n, rhs_comps))
    ]


def _hook_product_expansion(d: int) -> SymFunc:
    # sum over mu |- d of (-1)^{len(mu)-1} multinomial(len; mults) prod Hk_i^{m_i}
    total = SymFunc.zero()
    for mu in partitions_of(d):
        mults = multiplicities(mu)
        count = factorial(len(mu))
        for mult in mults.values():
            count //= factorial(mult)
        term = SymFunc.constant((-1) ** (len(mu) - 1) * count)
        for value, mult in mults.items():
            for _ in range(mult):
                term = term * hk(value)
        total = total + term
    return total


def _alt_carlitz(n: int) -> List[Pair]:
    q = _quotient(n)
    hooks = GradedSeries(
        n, {d: _hook_product_expansion(d) for d in range(1, n + 1)}
    )
    return [
        ("E_odd/E_even vs signed staircase sum", q, _staircase_sum(n, True)),
        ("E_odd/E_even vs hook-product expansion", q, hooks),
    ]


def _tangent_sum(n: int, alternating: bool) -> GradedSeries:
    # sum_n (-1)^n T_{2n+1} Z^{2n+1}/(2n+1)!  (signs dropped in the tan case)
    z = _odd_powersum(n, alternating)
    out = GradedSeries(n)
    power = GradedSeries.constant(1, n)
    z2 = z * z
    for k in range(0, (n - 1) // 2 + 1):
        m = 2 * k + 1
        power = power * (z if k == 0 else z2)
        tangent = alternating_count(m)
        sign = 1 if alternating else (-1) ** k
        out = out + power * Fraction(sign * tangent, factorial(m))
    return out


def _tanh_form(n: int) -> List[Pair]:
    q = _quotient(n)
    return [
        ("E_odd/E_even vs tanh", q, tanh_series(_odd_powersum(n))),
        ("E_odd/E_even vs tangent numbers", q, _tangent_sum(n, alternating=False)),
    ]


def _tan_form(n: int) -> List[Pair]:
    q = _quotient(n, True)
    return [
        ("E_odd^alt/E_even^alt vs tan", q, tan_series(_odd_powersum(n, True))),
        ("E_odd^alt/E_even^alt vs tangent numbers", q, _tangent_sum(n, alternating=True)),
    ]


def _arctanh_sum(n: int) -> List[Pair]:
    lo = named_series("Lie_odd", n)
    z = _odd_powersum(n)
    return [
        ("tanh(sum)[Lie_odd] = p_1", pleth(tanh_series(z), lo), _p1_series(n)),
        ("sum[Lie_odd] = arctanh p_1", pleth(z, lo), arctanh_series(_p1_series(n))),
    ]


def _arctan_sum(n: int) -> List[Pair]:
    lo = named_series("Lie_odd_alt", n)
    w = _odd_powersum(n, alternating=True)
    return [
        ("tan(sum)[Lie_odd^alt] = p_1", pleth(tan_series(w), lo), _p1_series(n)),
        ("sum[Lie_odd^alt] = arctan p_1", pleth(w, lo), arctan_series(_p1_series(n))),
    ]


_POSITIVITY_CAP = 8


def _jordan(n: int) -> List[Pair]:
    eta = named_series("Jordan", n)
    # product rule: H[Lie_odd] * H[Lie_even] = H[Lie] = 1/(1 - p_1)
    h_lie_even = compose_named("H", named_series("Lie_even", n))
    rhs = series_div(_geometric_p1(n), h_lie_even)
    bound = min(n, _POSITIVITY_CAP)
    offenders = GradedSeries(bound)
    for d in range(1, bound + 1):
        bad = {
            lam: c
            for lam, c in schur_expand(eta.components[d]).items()
            if c < 0 or c.denominator != 1
        }
        offenders.components[d] = SymFunc(bad)
    return [
        ("sum eta_n vs (1-p_1)^-1 / H[Lie_even]", eta, rhs),
        ("eta Schur-expansion negative or fractional part", offenders, GradedSeries(bound)),
    ]


def _parity_props(n: int) -> List[Pair]:
    es, he, k = named_series("E", n), named_series("HE", n), named_series("Hk", n)
    h_odd, h_even = named_series("H_odd", n), named_series("H_even", n)
    e_odd, e_even = named_series("E_odd", n), named_series("E_even", n)
    one = GradedSeries.constant(1, n)
    q = _quotient(n)
    return [
        ("H_odd E_even = H_even E_odd", h_odd * e_even, h_even * e_odd),
        ("H_even E_even = 1 + H_odd E_odd", h_even * e_even, one + h_odd * e_odd),
        ("2 H_odd E = HE - 1", h_odd * es * 2, he - 1),
        ("2 H_even E = HE + 1", h_even * es * 2, he + 1),
        ("H_odd/H_even = E_odd/E_even", series_div(h_odd, h_even), q),
        ("quotient * (HE + 1) = HE - 1", q * (he + one), he - 1),
        ("quotient * (1 + Hk) = Hk", q * (one + k), k),
        ("omega-invariance of the quotient", omega_series(q), q),
    ]


def _alt_parity_props(n: int) -> List[Pair]:
    h_odd, h_even = named_series("H_odd_alt", n), named_series("H_even_alt", n)
    e_odd, e_even = named_series("E_odd_alt", n), named_series("E_even_alt", n)
    one = GradedSeries.constant(1, n)
    x = hk_alt_series("even", n)
    y = hk_alt_series("odd", n)
    q = _quotient(n, True)
    return [
        ("H_odd^alt E_even^alt = H_even^alt E_odd^alt", h_odd * e_even, h_even * e_odd),
        ("H_even^alt E_even^alt + H_odd^alt E_odd^alt = 1",
         h_even * e_even + h_odd * e_odd, one),
        ("H_odd^alt/H_even^alt = E_odd^alt/E_even^alt", series_div(h_odd, h_even), q),
        ("quotient * (X^2 + Y^2) = Y", q * (x * x + y * y), y),
        ("Y^2 = X - X^2", y * y, x - x * x),
        ("omega-invariance of the alternating quotient", omega_series(q), q),
    ]


def _lie_oracle(n: int) -> List[Pair]:
    lhs = GradedSeries(n, {d: lie(d) for d in range(1, n + 1)})
    rhs = GradedSeries(n, {d: lie_character(d) for d in range(1, n + 1)})
    return [("Moebius formula vs free-Lie trace", lhs, rhs)]


_SWEEP_M = 12


def _oracle_sweep_functions():
    fs = []
    for k in range(1, 5):
        fs.append((f"h[{k}]", h(k)))
        fs.append((f"e[{k}]", e(k)))
        fs.append((f"p[{k}]", p(k)))
    for d in range(1, 5):
        for lam in partitions_of(d):
            fs.append((f"s{list(lam)}", schur(lam)))
    gs = []
    for k in range(1, 4):
        gs.append((f"h[{k}]", h(k)))
        gs.append((f"e[{k}]", e(k)))
    for d in range(1, 4):
        for lam in partitions_of(d):
            gs.append((f"s{list(lam)}", schur(lam)))
    return fs, gs


def _pleth_oracle(n: int) -> List[Pair]:
    fs, gs = _oracle_sweep_functions()
    pairs: List[Pair] = []
    for g_label, g in gs:
        dg = g.degree()
        g_series = GradedSeries(_SWEEP_M, {dg: g})
        for f_label, f in fs:
            degree = f.degree() * dg
            if degree > n:
                continue
            engine = specialize_collected(
                pleth(f, g_series).components[degree], _SWEEP_M
            )
            alphabet = monomial_pleth_collected(f, g, _SWEEP_M)
            label = f"f={f_label}, g={g_label}, m={_SWEEP_M} (orbit form)"
            pairs.append(
                (
                    label,
                    GradedSeries(degree, {degree: SymFunc(engine)}),
                    GradedSeries(degree, {degree: SymFunc(alphabet)}),
                )
            )
    return pairs


CHECKS: List[Check] = [
    Check("thrall_h", "H[Lie(t)] = 1/(1 - t p_1)", _thrall_h),
    Check("thrall_e", "E[Lie(t)] = (1 - t^2 p_2)/(1 - t p_1)", _thrall_e),
    Check("main_inverse",
          "(E_odd/E_even)[Lie_odd] = p_1 = Lie_odd[E_odd/E_even]", _main_inverse),
    Check("main_inverse_alt",
          "(E_odd^alt/E_even^alt)[Lie_odd^alt] = p_1 = Lie_odd^alt[...]",
          _main_inverse_alt),
    Check("arctanh_pleth",
          "sum_{k odd} (p_k/k)[Lie_odd] = sum_{m odd} p_1^m/m", _arctanh_pleth),
    Check("arctan_pleth_alt",
          "sum_{k odd} (-1)^{(k-1)/2} (p_k/k)[Lie_odd^alt] = "
          "sum_{m odd} (-1)^{(m-1)/2} p_1^m/m", _arctan_pleth_alt),
    Check("he_restate", "(HE)[Lie_odd] = (1 + p_1)/(1 - p_1)", _he_restate),
    Check("hook_regular", "Hk[Lie_odd] at degree n = p_1^n", _hook_regular),
    Check("he_lie_even",
          "(HE)[Lie_even] = (1 - p_2)(1 - p_1)^-2 = (1 - p_1)^-1 E[Lie]",
          _he_lie_even),
    Check("hook_alt_even",
          "sum_{m even} (-1)^{m/2} Hk_m[Lie_odd^alt] at degree 2n = (-1)^n p_1^{2n}",
          _hook_alt_even),
    Check("hook_alt_odd",
          "sum_{m odd} (-1)^{(m-1)/2} Hk_m[Lie_odd^alt] at degree 2n+1 = "
          "(-1)^n p_1^{2n+1}", _hook_alt_odd),
    Check("carlitz",
          "E_odd^alt/E_even^alt = s_(1) + sum_{n>=3} s_{delta_n/delta_{n-2}}",
          _carlitz, cap=12),
    Check("foulkes",
          "staircase skew Schur: odd-power-sum Euler expansion = "
          "Jacobi-Trudi determinant", _foulkes, cap=12),
    Check("alt_carlitz",
          "E_odd/E_even = s_(1) + sum (-1)^n s_{delta_n/delta_{n-2}} "
          "= hook-product expansion", _alt_carlitz, cap=12),
    Check("tanh_form",
          "E_odd/E_even = tanh(sum p_{2k+1}/(2k+1)) = tangent-number series",
          _tanh_form, cap=12),
    Check("tan_form",
          "E_odd^alt/E_even^alt = tan(sum (-1)^k p_{2k+1}/(2k+1)) = "
          "tangent-number series", _tan_form, cap=12),
    Check("arctan_sum", "(sum_j arctan x_j)[Lie_odd^alt] = arctan p_1", _arctan_sum),
    Check("arctanh_sum", "(sum_j arctanh x_j)[Lie_odd] = arctanh p_1", _arctanh_sum),
    Check("jordan",
          "sum_n eta_n = H[Lie_odd], with nonnegative integral Schur expansion",
          _jordan),
    Check("parity_props",
          "H_odd E_even = H_even E_odd, H_even E_even - H_odd E_odd = 1, "
          "2H_odd = H - 1/E, and quotient forms", _parity_props),
    Check("alt_parity_props",
          "alternating parity identities and quotient forms, real coefficients",
          _alt_parity_props),
    Check("lie_oracle", "Lie_n = free-Lie-algebra trace character, n <= 7",
          _lie_oracle, cap=7),
    Check("pleth_oracle",
          "plethysm agrees with the monomial-alphabet oracle over the sweep",
          _pleth_oracle, cap=12),
]

_BY_NAME: Dict[str, Check] = {check.name: check for check in CHECKS}


def check_names() -> List[Tuple[str, str]]:
    return [(check.name, check.anchor) for check in CHECKS]


def build_pairs(name: str, max_degree: int) -> List[Pair]:
    """The comparison pairs a check would run at this degree (post-clamping)."""
    check = _BY_NAME.get(name)
    if check is None:
        raise KeyError(f"unknown check {name!r}")
    return check.builder(check.degree(max_degree))


def run_check(
    name: str,
    max_degree: int,
    perturb: Optional[Tuple[int, int, int, tuple, Fraction]] = None,
) -> CheckReport:
    """Run one registered check at the given truncation degree.

    perturb, used by the fault-injection tests, is
    (pair_index, side, degree, partition, delta): delta * p_partition is
    added to that side before comparison.
    """
    start = time.perf_counter()
    pairs = build_pairs(name, max_degree)
    check = _BY_NAME[name]
    n = check.degree(max_degree)
    if perturb is not None:
        pair_index, side, degree, lam, delta = perturb
        label, lhs, rhs = pairs[pair_index]
        target = lhs if side == 0 else rhs
        if degree > target.max_degree:
            raise ValueError(
                f"perturbation degree {degree} exceeds pair bound {target.max_degree}"
            )
        bumped = target.components[degree] + SymFunc({tuple(lam): delta})
        patched = GradedSeries(target.max_degree)
        patched.components = list(target.components)
        patched.components[degree] = bumped
        pairs[pair_index] = (
            (label, patched, rhs) if side == 0 else (label, lhs, patched)
        )
    first_failure = None
    mismatch = None
    for d in range(n + 1):
        for label, lhs, rhs in pairs:
            if d > min(lhs.max_degree, rhs.max_degree):
                continue
            left, right = lhs.components[d], rhs.components[d]
            if left != right:
                first_failure = d
                mismatch = (f"{label}: {render(left)}", f"{label}: {render(right)}")
                break
        if first_failure is not None:
            break
    return CheckReport(
        check_name=name,
        paper_anchor=check.anchor,
        max_degree=n,
        passed=first_failure is None,
        first_failure_degree=first_failure,
        mismatch=mismatch,
        requested_degree=max_degree,
        elapsed_ms=(time.perf_counter() - start) * 1000,
    )


def run_all(max_degree: int) -> List[CheckReport]:
    """Every registered check, in registry order."""
    return [run_check(check.name, max_degree) for check in CHECKS]
