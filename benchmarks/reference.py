"""Reference values for the benchmark, built apart from symlie.

Only the standard library is used: partitions, z_lambda, the Moebius
function, tangent numbers (boustrophedon transform), irreducible characters
(Murnaghan-Nakayama on beta-sets) and the h-to-e change of basis are all
written here from their definitions, so a fault in the program cannot hide
in its own reference.  A series is a dict degree -> {partition: Fraction}
holding the nonzero terms only.

The parsers read the command-line output back into that form: the text
form ``deg d: 1/2*p[1,1] - p[2]`` and the ``--json`` form.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache
from math import factorial


@lru_cache(maxsize=None)
def partitions(n):
    """All partitions of n as descending tuples."""
    out = []

    def extend(rest, largest, prefix):
        if rest == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(rest, largest), 0, -1):
            prefix.append(part)
            extend(rest - part, part, prefix)
            prefix.pop()

    extend(n, n, [])
    return tuple(out)


def multiplicities(lam):
    counts = {}
    for part in lam:
        counts[part] = counts.get(part, 0) + 1
    return counts


def z(lam):
    out = 1
    for part, mult in multiplicities(lam).items():
        out *= part**mult * factorial(mult)
    return out


def mobius(n):
    result, m, d = 1, n, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            result = -result
        d += 1
    return -result if m > 1 else result


def lie_terms(n):
    """Lie_n = (1/n) sum_{d|n} mu(d) p_d^{n/d}."""
    return {
        (d,) * (n // d): Fraction(mobius(d), n)
        for d in range(1, n + 1)
        if n % d == 0 and mobius(d)
    }


def tangent_numbers(count):
    """T_m for m < count (zero for even m): tan x = sum T_m x^m / m!."""
    # Entringer triangle by the boustrophedon rule; row k ends in the zigzag
    # number A_k, and the odd-indexed zigzag numbers are the tangent numbers.
    row, zigzag = [1], [1]
    for _ in range(1, count):
        nxt = [0]
        for value in reversed(row):
            nxt.append(nxt[-1] + value)
        row = nxt
        zigzag.append(row[-1])
    return [zigzag[m] if m % 2 else 0 for m in range(count)]


def _betas(lam):
    m = len(lam)
    return tuple(lam[i] + (m - 1 - i) for i in range(m))


def _from_betas(betas):
    betas = sorted(betas, reverse=True)
    m = len(betas)
    lam = [betas[i] - (m - 1 - i) for i in range(m)]
    return tuple(part for part in lam if part)


@lru_cache(maxsize=None)
def character(shape, cycle_type):
    """chi^shape at the class cycle_type, by removing rim hooks."""
    if not cycle_type:
        return 1 if not shape else 0
    k, rest = cycle_type[0], cycle_type[1:]
    betas = _betas(shape)
    present = set(betas)
    total = 0
    for b in betas:
        if b - k < 0 or b - k in present:
            continue
        legs = sum(1 for c in betas if b - k < c < b)
        moved = [c for c in betas if c != b] + [b - k]
        total += (-1) ** legs * character(_from_betas(moved), rest)
    return total


def to_schur(terms, degree):
    """Schur coefficients <f, s_mu> = sum_lam c_lam chi^mu(lam)."""
    out = {}
    for mu in partitions(degree):
        coeff = sum((c * character(mu, lam) for lam, c in terms.items()), Fraction(0))
        if coeff:
            out[mu] = coeff
    return out


def omega_terms(terms):
    return {lam: c * (-1) ** (sum(lam) - len(lam)) for lam, c in terms.items()}


def _merge(a, b):
    return tuple(sorted(a + b, reverse=True))


def h_in_e(n):
    """h_n = sum_{lam |- n} (-1)^{n - len} (len! / prod m_i!) e_lam, from H(t)E(-t) = 1."""
    out = {}
    for lam in partitions(n):
        count = factorial(len(lam))
        for mult in multiplicities(lam).values():
            count //= factorial(mult)
        out[lam] = (-1) ** (n - len(lam)) * count
    return out


# --- the expected output of each command -------------------------------------------


def lie_odd(max_degree):
    """The inverse of E_odd/E_even: sum_k Lie_{2k+1}, in the p basis."""
    return {d: lie_terms(d) for d in range(1, max_degree + 1, 2)}


def quotient_in_schur(max_degree):
    """E_odd/E_even = tanh(sum_{k odd} p_k / k), in the Schur basis.

    The coefficient of p_lam (all parts odd, m = len(lam)) in A^m / m! is
    1/z_lam, and tanh x = sum_{m odd} (-1)^{(m-1)/2} T_m x^m / m!.
    """
    tangents = tangent_numbers(max_degree + 1)
    out = {}
    for d in range(1, max_degree + 1, 2):
        terms = {
            lam: Fraction((-1) ** ((len(lam) - 1) // 2) * tangents[len(lam)], z(lam))
            for lam in partitions(d)
            if all(part % 2 for part in lam)
        }
        out[d] = to_schur(terms, d)
    return out


def cadogan_in_schur(max_degree):
    """Cadogan: the inverse of H - 1 is sum_n (-1)^{n-1} omega(Lie_n)."""
    out = {}
    for n in range(1, max_degree + 1):
        terms = {lam: c * (-1) ** (n - 1) for lam, c in omega_terms(lie_terms(n)).items()}
        out[n] = to_schur(terms, n)
    return out


def hooks_in_e(max_degree):
    """Hk_n = (1/2) sum_{i+j=n} h_i e_j, from H(t)E(t) = 1 + 2 sum_n Hk_n t^n."""
    out = {}
    for n in range(1, max_degree + 1):
        terms = {}
        for i in range(n + 1):
            tail = (n - i,) if n - i else ()
            for lam, c in h_in_e(i).items():
                key = _merge(lam, tail)
                terms[key] = terms.get(key, 0) + Fraction(c, 2)
        out[n] = {lam: c for lam, c in terms.items() if c}
    return out


def p1_only(max_degree):
    return {1: {(1,): Fraction(1)}} if max_degree >= 1 else {}


def p1_geometric(max_degree):
    """H[Lie] = 1/(1 - p_1) = sum_n p_1^n (Thrall)."""
    return {n: {(1,) * n: Fraction(1)} for n in range(max_degree + 1)}


def zero(max_degree):
    return {}


# --- reading the program's output --------------------------------------------------

_LINE = re.compile(r"deg (\d+): (.*)")
_TERM = re.compile(r"(?:(\d+(?:/\d+)?)\*)?([pshe])\[([\d,]*)\]|(\d+(?:/\d+)?)")


def _parse_body(body):
    terms = {}
    if body == "0":
        return terms
    pieces = re.split(r" ([+-]) ", body)
    signs = ["+"] + pieces[1::2]
    for sign, piece in zip(signs, pieces[0::2]):
        if piece.startswith("-"):
            sign, piece = "-", piece[1:]
        match = _TERM.fullmatch(piece)
        if match is None:
            raise ValueError(f"unreadable term {piece!r}")
        coeff_text, _, parts, constant = match.groups()
        if constant is not None:
            lam, coeff = (), Fraction(constant)
        else:
            lam = tuple(int(x) for x in parts.split(",")) if parts else ()
            coeff = Fraction(coeff_text) if coeff_text else Fraction(1)
        terms[lam] = -coeff if sign == "-" else coeff
    return terms


def parse_text(stdout):
    """'deg d: ...' lines -> {d: {partition: Fraction}}, zero degrees dropped."""
    out, seen = {}, []
    for line in stdout.splitlines():
        match = _LINE.fullmatch(line)
        if match is None:
            raise ValueError(f"unreadable line {line!r}")
        degree = int(match.group(1))
        seen.append(degree)
        terms = _parse_body(match.group(2))
        if terms:
            out[degree] = terms
    return out, seen


def parse_json(stdout):
    payload = json.loads(stdout)
    out, seen = {}, []
    for block in payload["results"]:
        seen.append(block["degree"])
        terms = {
            tuple(term["partition"]): Fraction(term["num"], term["den"])
            for term in block["terms"]
        }
        if terms:
            out[block["degree"]] = terms
    return out, seen
