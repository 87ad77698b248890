"""Shared test utilities: independent counting oracles, seeded generators and
hypothesis strategies."""

import importlib
import pkgutil
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial, prod
from random import Random

from hypothesis import strategies as st

import symlie
import symlie.symfunc as symfunc
import symlie.verify as verify
from symlie import GradedSeries, SymFunc, compose_scalar, e, h, p, schur
from symlie.expr import BinOp, Call, Expr, Gen, Name, Num, Pleth
from symlie.oracle import (
    _cycle_type_permutation,
    _perm_count,
    alternating_count,
    lie_bracket_basis,
)
from symlie.lie import hk
from symlie.symfunc import (
    _bead_mask,
    _character,
    _form_of_products,
    _from_form,
    _scaled_form,
    frobenius,
)
from symlie.partitions import multiplicities, partitions_of, z_of


def pentagonal_count(n: int) -> int:
    """Partition counts from the classical pentagonal-number recurrence,
    independent of the package's enumeration."""
    counts = [1]
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * counts[m - g1]
            if g2 <= m:
                total += sign * counts[m - g2]
            k += 1
        counts.append(total)
    return counts[n]


def partitions_reference(n: int, max_part: int = None):
    """The partitions of n with parts <= max_part (n by default), in
    reverse-lexicographic order, by recursion on the first part: the
    reference for symlie.partitions.partitions_of."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for k in range(min(n, max_part), 0, -1):
        for rest in partitions_reference(n - k, k):
            yield (k,) + rest


def exponential_part_reference(n: int, weight) -> SymFunc:
    """The degree-n part of exp(sum_k w(k) p_k/k) through the validating
    SymFunc constructor, one prod of weights and one z_lam per partition:
    the reference for symlie.symfunc.exponential_part."""
    return SymFunc(
        {lam: Fraction(prod(map(weight, lam)), z_of(lam)) for lam in partitions_of(n)}
    )


def exponential_part_walk_reference(n: int, weight) -> SymFunc:
    """The degree-n part of exp(sum_k w(k) p_k/k) by the walk that builds one
    Fraction per term: equal parts of lam come in runs, and the j-th k of a
    run multiplies z_lam by k*j.  Zero-weight terms are dropped, so the terms
    are taken as given.  The reference for the integer form that
    symlie.symfunc.exponential_part builds along the same walk."""
    weights = [weight(k) for k in range(n + 1)]
    terms = {}
    for lam in partitions_of(n):
        num = z = 1
        prev = run = 0
        for k in lam:
            run = run + 1 if k == prev else 1
            prev = k
            num *= weights[k]
            z *= k * run
        if num:
            terms[lam] = Fraction(num, z)
    return SymFunc(terms)


def as_series(f: SymFunc, n: int) -> GradedSeries:
    """f split by degree into a series truncated at n; degrees above n drop."""
    return GradedSeries(n, {d: f.homogeneous_part(d) for d in f.degrees() if d <= n})


# --- hypothesis strategies --------------------------------------------------------

# small primes, and z_lam large enough to push the common denominator past 64 bits
DENOMINATORS = (1, 2, 3, 7, z_of((1,) * 9), z_of((3, 2, 2, 1, 1)), z_of((4, 4, 2, 2)))

coefficients = st.builds(
    Fraction, st.integers(min_value=-9, max_value=9), st.sampled_from(DENOMINATORS)
)


@st.composite
def homogeneous(draw, degree: int, max_terms: int = 4) -> SymFunc:
    pool = partitions_of(degree)
    indices = st.integers(min_value=0, max_value=len(pool) - 1)
    return SymFunc(
        draw(st.dictionaries(indices.map(pool.__getitem__), coefficients, max_size=max_terms))
    )


@st.composite
def symfuncs(draw, max_degree: int = 6) -> SymFunc:
    """A sparse, possibly inhomogeneous element (zero and constants included)."""
    degrees = draw(st.lists(st.integers(min_value=0, max_value=max_degree), max_size=3))
    total = SymFunc.zero()
    for d in degrees:
        total = total + draw(homogeneous(d, max_terms=3))
    return total


@st.composite
def series(draw, max_degree: int = 7, constant=None) -> GradedSeries:
    """A random series with a drawn bound; constant, if given, fixes the
    degree-0 term."""
    n = draw(st.integers(min_value=0, max_value=max_degree))
    out = GradedSeries(n)
    for d in range(n + 1):
        if draw(st.booleans()):
            out.components[d] = draw(homogeneous(d, max_terms=3))
    if constant is not None:
        out.components[0] = SymFunc.constant(constant)
    return out


def random_symfunc(rng: Random, max_degree: int, terms: int = 4) -> SymFunc:
    """Sparse random element with small rational coefficients."""
    out = {}
    for _ in range(terms):
        d = rng.randint(0, max_degree)
        pool = partitions_of(d)
        lam = pool[rng.randrange(len(pool))]
        out[lam] = Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
    return SymFunc(out)


def random_homogeneous(rng: Random, degree: int, terms: int = 3) -> SymFunc:
    pool = partitions_of(degree)
    out = {}
    for _ in range(terms):
        lam = pool[rng.randrange(len(pool))]
        out[lam] = Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
    return SymFunc(out)


def random_series(rng: Random, max_degree: int, zero_constant: bool = True) -> GradedSeries:
    series = GradedSeries(max_degree)
    start = 1 if zero_constant else 0
    for d in range(start, max_degree + 1):
        if rng.random() < 0.7:
            series.components[d] = random_homogeneous(rng, d, terms=2)
    return series


def valid_inverse_candidate(rng: Random, max_degree: int) -> GradedSeries:
    """Random series with degree-1 part exactly p_1 (so it has a composition
    inverse)."""
    series = random_series(rng, max_degree)
    series.components[0] = SymFunc.zero()
    series.components[1] = SymFunc({(1,): 1})
    return series


def prefix_equal(a: GradedSeries, b: GradedSeries, through: int) -> bool:
    return all(a.components[d] == b.components[d] for d in range(through + 1))


def head(s: GradedSeries, d: int) -> GradedSeries:
    """s truncated at degree d <= s.max_degree."""
    return GradedSeries(d, s.components[: d + 1])


def inner(f: SymFunc, g: SymFunc) -> Fraction:
    """Hall inner product: <p_lam, p_mu> = z_lam delta_{lam,mu}."""
    if len(f.terms) > len(g.terms):
        f, g = g, f
    total = Fraction(0)
    for lam, a in f.terms.items():
        b = g.terms.get(lam)
        if b is not None:
            total += a * b * z_of(lam)
    return total


# --- references for the integer multiplication kernel in symlie.symfunc ----------


def symfunc_mul_reference(f: SymFunc, g: SymFunc) -> SymFunc:
    """f * g summed term by term in Fractions: p_lam * p_mu = p_(lam merged
    with mu).  The reference for SymFunc.__mul__."""
    out = {}
    for lam, a in f.terms.items():
        for mu, b in g.terms.items():
            key = tuple(sorted(lam + mu, reverse=True))
            new = out.get(key, 0) + a * b
            if new:
                out[key] = new
            else:
                del out[key]
    return SymFunc(out)


def symfunc_scale_reference(f: SymFunc, c) -> SymFunc:
    """c * f, one Fraction product per term."""
    return SymFunc({lam: a * c for lam, a in f.terms.items()})


def symfunc_add_reference(f: SymFunc, g: SymFunc) -> SymFunc:
    """f + g summed term by term in Fractions, through the validating
    constructor, which drops the terms that cancel."""
    out = dict(f.terms)
    for lam, b in g.terms.items():
        out[lam] = out.get(lam, 0) + b
    return SymFunc(out)


def omega_reference(f: SymFunc) -> SymFunc:
    """omega(f) term by term in Fractions: p_lam -> (-1)^{|lam|-len(lam)} p_lam."""
    return SymFunc({lam: c * (-1) ** (sum(lam) - len(lam)) for lam, c in f.terms.items()})


def series_mul_reference(f: GradedSeries, g: GradedSeries) -> GradedSeries:
    """The Cauchy product degree by degree, one SymFunc product per pair:
    the reference for GradedSeries.__mul__."""
    n = min(f.max_degree, g.max_degree)
    out = GradedSeries(n)
    for d in range(n + 1):
        acc = SymFunc.zero()
        for a in range(d + 1):
            acc = acc + symfunc_mul_reference(f.components[a], g.components[d - a])
        out.components[d] = acc
    return out


def series_inverse_reference(f: GradedSeries) -> GradedSeries:
    """r_0 = 1/c and r_d = -(1/c) sum_{j=1..d} f_j r_{d-j}, in Fractions: the
    reference for symlie.series.series_inverse (constant term must be a
    nonzero scalar)."""
    inv_c = Fraction(1) / f.constant_term()
    out = GradedSeries(f.max_degree)
    out.components[0] = SymFunc.constant(inv_c)
    for d in range(1, f.max_degree + 1):
        acc = SymFunc.zero()
        for j in range(1, d + 1):
            acc = acc + symfunc_mul_reference(f.components[j], out.components[d - j])
        out.components[d] = symfunc_scale_reference(acc, -inv_c)
    return out


def series_div_reference(f: GradedSeries, g: GradedSeries) -> GradedSeries:
    """f times the inverse of g, both in Fractions: the reference for
    symlie.series.series_div, which never builds 1/g."""
    return series_mul_reference(f, series_inverse_reference(g))


def compose_scalar_reference(cs, g: GradedSeries) -> GradedSeries:
    """sum_m cs[m-1] g^m, one series product per power: the reference for
    symlie.series.compose_scalar (g must have zero constant term)."""
    n = g.max_degree
    out = GradedSeries(n)
    power = GradedSeries.constant(1, n)
    for c in cs[:n]:
        power = series_mul_reference(power, g)
        out = out + power * c
    return out


def exp_series_reference(g: GradedSeries) -> GradedSeries:
    """1 + sum_m g^m / m!, the powers of g built by the generic composition:
    the reference for symlie.series.exp_series (g must have zero constant
    term)."""
    return compose_scalar(lambda m: Fraction(1, factorial(m)), g) + 1


def tan_like_coeffs_reference(n: int, hyperbolic: bool) -> list:
    """Coefficients 0..n of tan = sin/cos or tanh = sinh/cosh, solved from
    t * cos = sin term by term: the reference for
    symlie.series._tan_like_coeffs."""
    def sin_c(j):
        if j % 2 == 0:
            return Fraction(0)
        sign = 1 if hyperbolic else (-1) ** ((j - 1) // 2)
        return Fraction(sign, factorial(j))

    def cos_c(j):
        if j % 2 == 1:
            return Fraction(0)
        sign = 1 if hyperbolic else (-1) ** (j // 2)
        return Fraction(sign, factorial(j))

    t = [Fraction(0)] * (n + 1)
    for j in range(1, n + 1):
        t[j] = sin_c(j) - sum(t[i] * cos_c(j - i) for i in range(1, j))
    return t


def odd_powersum(n: int, alternating: bool = False) -> GradedSeries:
    """sum_{d odd} (+-1)^{(d-1)/2} p_d/d, the signs taken when alternating."""
    return GradedSeries(n, {
        d: p(d) * Fraction((-1) ** ((d - 1) // 2) if alternating else 1, d)
        for d in range(1, n + 1, 2)
    })


def tangent_series_reference(n: int, alternating: bool) -> GradedSeries:
    """sum_k (+-1)^k T_{2k+1} Z^{2k+1}/(2k+1)! for Z = odd_powersum(n,
    alternating), T the tangent numbers: tan(Z) when alternating (no
    signs), tanh(Z) otherwise, one series product per power of Z.  The
    reference for the tangent-number side of the tanh_form and tan_form
    checks."""
    z = odd_powersum(n, alternating)
    total = GradedSeries(n)
    power = GradedSeries.constant(1, n)
    z2 = z * z
    for k in range(0, (n - 1) // 2 + 1):
        m = 2 * k + 1
        power = power * (z if k == 0 else z2)
        sign = 1 if alternating else (-1) ** k
        total = total + power * Fraction(sign * alternating_count(m), factorial(m))
    return total


def jacobi_trudi_reference(outer, inner) -> SymFunc:
    """The skew Schur function s_{outer/inner} as det(h_{outer_i - inner_j - i + j})
    by the Leibniz sum over permutations (h_0 = 1, h_{<0} = 0): the signs
    of the permutations are summed per sorted multiset of h-degrees, and
    each product h_lam is then expanded once as a product of p-basis
    SymFuncs.  The reference for the ribbon sum that
    symlie.lie.staircase_skew(n) takes."""
    rows = len(outer)
    inner = tuple(inner) + (0,) * (rows - len(inner))
    signs = {}
    for sigma in permutations(range(rows)):
        degrees = [outer[i] - inner[sigma[i]] - i + sigma[i] for i in range(rows)]
        if min(degrees) < 0:
            continue
        inversions = sum(
            1 for i in range(rows) for j in range(i + 1, rows) if sigma[i] > sigma[j]
        )
        lam = tuple(sorted((d for d in degrees if d), reverse=True))
        signs[lam] = signs.get(lam, 0) + (-1 if inversions % 2 else 1)
    total = SymFunc.zero()
    for lam, sign in signs.items():
        if sign:
            prod = SymFunc.constant(sign)
            for d in lam:
                prod = prod * h(d)
            total = total + prod
    return total


# --- reference for the Schur characters in symlie.symfunc -----------------------


def _partition_from_betas(betas) -> tuple:
    betas = sorted(betas, reverse=True)
    m = len(betas)
    lam = [betas[i] - (m - 1 - i) for i in range(m)]
    while lam and lam[-1] == 0:
        lam.pop()
    return tuple(lam)


@lru_cache(maxsize=None)
def character_reference(lam, mu) -> int:
    """chi^lam(mu) by border-strip removal on a list of beta numbers: a strip
    of size k replaces a beta number b by a free b - k, with sign (-1)^(beta
    numbers strictly between).  The reference for symlie.symfunc._character,
    which works on bead masks."""
    if not mu:
        return 1 if not lam else 0
    k = mu[0]
    rest = mu[1:]
    m = len(lam)
    betas = [lam[i] + (m - 1 - i) for i in range(m)]
    beta_set = set(betas)
    total = 0
    for b in betas:
        nb = b - k
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for c in betas if nb < c < b)
        new_betas = [c for c in betas if c != b] + [nb]
        total += (-1) ** height * character_reference(_partition_from_betas(new_betas), rest)
    return total


def hk_reference(n: int) -> SymFunc:
    """Hk_n as the sum of the n hook Schur functions s_(n-k, 1^k), one
    schur() per hook added as SymFuncs: the reference for symlie.lie.hk,
    which runs Murnaghan-Nakayama on hook states."""
    total = SymFunc.zero()
    for k in range(n):
        total = total + schur((n - k,) + (1,) * k)
    return total


def hk_character_sum_reference(n: int) -> SymFunc:
    """Hk_n as the characteristic of the n hook characters of
    symlie.symfunc._character, added as ints per class: the reference for
    symlie.lie.hk, whose rule on hook states reads no _character."""
    masks = [_bead_mask((n - k,) + (1,) * k) for k in range(n)]
    return frobenius(n, lambda mu: sum(_character(mask, mu) for mask in masks))



def hook_product_expansion_reference(d: int) -> SymFunc:
    """sum over mu |- d of (-1)^{len(mu)-1} multinomial(len(mu); mults of mu)
    prod_i Hk_{mu_i}, one chain of SymFunc products per partition: the
    reference for the hook side of the alt_carlitz check in symlie.verify,
    which takes the powers of sum_d Hk_d instead."""
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

# --- references for the oracles in symlie.oracle ---------------------------------


def poly_mul(a, b):
    """Product of two monomial dicts, term by term, independent of symlie."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def specialize(f: SymFunc, m: int) -> dict:
    """The polynomial f(x_1, ..., x_m, 0, 0, ...) in full monomial form:
    p_k maps to x_1^k + ... + x_m^k.  The reference for
    symlie.oracle.specialize_collected and for monomial_pleth."""
    if m < 1:
        raise ValueError("need at least one variable")
    out = {}
    for lam, coeff in f.terms.items():
        product = {(0,) * m: Fraction(1)}
        for k in lam:
            power_sum = {
                tuple(k if j == i else 0 for j in range(m)): Fraction(1) for i in range(m)
            }
            product = poly_mul(product, power_sum)
        for exponents, value in product.items():
            out[exponents] = out.get(exponents, 0) + coeff * value
    return {k: v for k, v in out.items() if v}


def monomial_pleth(f: SymFunc, g: SymFunc, m: int) -> dict:
    """f evaluated on the alphabet of monomials of g(x_1..x_m), in full monomial
    form: each monomial with coefficient c counts as c letters.  The reference
    for symlie.oracle.monomial_pleth_collected."""
    alphabet = []
    for exponents, coeff in specialize(g, m).items():
        if coeff.denominator != 1 or coeff < 0:
            raise ValueError("alphabet requires nonnegative integer monomial coefficients")
        alphabet.append((exponents, int(coeff)))
    result = {}
    for lam, coeff in f.terms.items():
        product = {(0,) * m: Fraction(1)}
        for k in lam:
            power = {}
            for exponents, mult in alphabet:
                key = tuple(x * k for x in exponents)
                power[key] = power.get(key, 0) + mult
            product = poly_mul(product, power)
        for exponents, value in product.items():
            result[exponents] = result.get(exponents, 0) + coeff * value
    return {k: v for k, v in result.items() if v}


@lru_cache(maxsize=None)
def placements(nu, m: int) -> tuple:
    """Every distinct way to place the parts of nu among m slots, as exponent
    vectors of length m."""
    values = sorted(set(nu), reverse=True)
    out = []

    def place(value_index: int, free: tuple, vec: list):
        if value_index == len(values):
            out.append(tuple(vec))
            return
        value = values[value_index]
        count = sum(1 for part in nu if part == value)
        for chosen in combinations(free, count):
            for slot in chosen:
                vec[slot] = value
            remaining = tuple(s for s in free if s not in chosen)
            place(value_index + 1, remaining, vec)
            for slot in chosen:
                vec[slot] = 0

    place(0, tuple(range(m)), [0] * m)
    return tuple(out)


def collected_expand(a: dict, m: int) -> dict:
    """Inflate a collected (one coefficient per orbit) polynomial to the full
    monomial dict."""
    return {vec: coeff for lam, coeff in a.items() for vec in placements(lam, m)}


def collected_mul_term_reference(mu, nu, m: int) -> dict:
    """m_mu * m_nu in m variables as {gamma: multiplicity}, walking every
    placement of nu on the padded mu and sorting each sum: the reference
    for symlie.oracle._collected_mul_term, which counts a class at a time."""
    if len(mu) > m or len(nu) > m:
        return {}
    padded = list(mu) + [0] * (m - len(mu))
    hits = {}
    for beta in placements(nu, m):
        summed = sorted((x + y for x, y in zip(padded, beta)), reverse=True)
        while summed and summed[-1] == 0:
            summed.pop()
        gamma = tuple(summed)
        hits[gamma] = hits.get(gamma, 0) + 1
    mu_count = _perm_count(mu, m)
    return {gamma: mu_count * cnt // _perm_count(gamma, m) for gamma, cnt in hits.items()}


def alternating_count_reference(n: int) -> int:
    """Down-up alternating permutations of {1..n}, by plain backtracking: each
    one is built value by value and counted one at a time."""
    if n <= 1:
        return 1
    count = 0

    def extend(position: int, prev: int, used: int):
        nonlocal count
        if position > n:
            count += 1
            return
        descending = position % 2 == 0
        for value in range(1, n + 1):
            bit = 1 << value
            if not used & bit and descending == (value < prev):
                extend(position + 1, value, used | bit)

    for first in range(1, n + 1):
        extend(2, first, 1 << first)
    return count



def alternating_completions_reference(n: int) -> int:
    """Down-up alternating permutations of {1..n}, by recursive completion:
    the completions of each prefix are counted once per (bit mask of its
    values, last value) and shared.  The reference for the forward count in
    symlie.oracle.alternating_count, which visits the same states."""
    if n <= 1:
        return 1
    memo = {}

    def completions(used: int, last: int) -> int:
        key = (used, last)
        count = memo.get(key)
        if count is None:
            position = used.bit_count() + 1
            if position > n:
                return 1
            descending = position % 2 == 0
            count = 0
            for value in range(1, n + 1):
                bit = 1 << value
                if not used & bit and descending == (value < last):
                    count += completions(used | bit, value)
            memo[key] = count
        return count

    return sum(completions(1 << first, first) for first in range(1, n + 1))

def left_normed_expansion(letters: tuple) -> dict:
    """Associative expansion of the left-normed bracket [[..[l1,l2],..],lk]:
    all 2^(k-1) words with their signs."""
    words = {letters[:1]: 1}
    for x in letters[1:]:
        new = {}
        for word, coeff in words.items():
            right = word + (x,)
            new[right] = new.get(right, 0) + coeff
            left = (x,) + word
            new[left] = new.get(left, 0) - coeff
        words = new
    return words


def lie_character_reference(n: int) -> SymFunc:
    """The free Lie character by traces, reading each diagonal entry from the
    full expansion of the permuted bracket."""
    basis = lie_bracket_basis(n)
    terms = {}
    for lam in partitions_of(n):
        perm = _cycle_type_permutation(lam)
        trace = sum(
            left_normed_expansion(tuple(perm[x] for x in letters)).get(letters, 0)
            for letters in basis
        )
        if trace:
            terms[lam] = Fraction(trace, z_of(lam))
    return SymFunc(terms)


# --- references for the solvers and the plethysm kernel -------------------------


def solve_in_h_reference(f: SymFunc, d: int) -> dict:
    """Coefficients of the degree-d SymFunc f on the products h_lam, by dense
    Gaussian elimination over Fractions on the square matrix with one row
    and column per partition of d: the reference for expand_in_basis with
    basis "h" (and, through omega, "e")."""
    elements = []
    for lam in partitions_of(d):
        prod = SymFunc.constant(1)
        for part in lam:
            prod = prod * h(part)
        elements.append((lam, prod))
    keys = list(partitions_of(d))
    matrix = [[vec.terms.get(mu, Fraction(0)) for _, vec in elements] for mu in keys]
    rhs = [f.terms.get(mu, Fraction(0)) for mu in keys]
    size = len(keys)
    for col in range(size):
        pivot = next(r for r in range(col, size) if matrix[r][col])
        matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        inv = 1 / matrix[col][col]
        matrix[col] = [v * inv for v in matrix[col]]
        rhs[col] = rhs[col] * inv
        for r in range(size):
            if r != col and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [v - factor * w for v, w in zip(matrix[r], matrix[col])]
                rhs[r] = rhs[r] - factor * rhs[col]
    return {lam: rhs[idx] for idx, (lam, _) in enumerate(elements) if rhs[idx]}


def scale_series_reference(g: GradedSeries, k: int) -> GradedSeries:
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


def _power_reference(lam, g, powers, scaled) -> GradedSeries:
    """prod_i p_{lam_i}[g] as a product of whole series, memoized in powers
    by partition and in scaled by k."""
    cached = powers.get(lam)
    if cached is None:
        k = lam[-1]
        if k not in scaled:
            scaled[k] = scale_series_reference(g, k)
        cached = _power_reference(lam[:-1], g, powers, scaled) * scaled[k]
        powers[lam] = cached
    return cached


def pleth_reference(f, g: GradedSeries) -> GradedSeries:
    """f[g] truncated at the minimum bound, one product of whole series per
    term of f, added term by term: the reference for symlie.plethysm.pleth
    and for every path through its kernel (g must have zero constant term)."""
    if isinstance(f, GradedSeries):
        n = min(f.max_degree, g.max_degree)
        items = [(lam, c) for part in f.components[: n + 1] for lam, c in part.terms.items()]
    else:
        n = g.max_degree
        items = list(f.terms.items())
    powers = {(): GradedSeries.constant(1, n)}
    scaled = {}
    out = GradedSeries(n)
    for lam, coeff in items:
        if sum(lam) <= n:
            out = out + _power_reference(lam, g, powers, scaled) * coeff
    return out


def pleth_inverse_reference(f: GradedSeries) -> GradedSeries:
    """The composition inverse degree by degree, one full pleth_reference per degree:
    with g known below degree d, g_d is minus the degree-d part of
    f[g truncated at d].  The reference for symlie.plethysm.pleth_inverse
    (f must have zero constant term and degree-1 part p_1)."""
    n = f.max_degree
    out = GradedSeries(n)
    if n >= 1:
        out.components[1] = SymFunc({(1,): 1})
    for d in range(2, n + 1):
        remainder = pleth_reference(head(f, d), head(out, d))
        out.components[d] = -remainder.components[d]
    return out


def pleth_inverse_prefix_reference(f: GradedSeries) -> GradedSeries:
    """The composition inverse by the one-pass prefix solve that Horner's
    rule replaced in symlie.plethysm.pleth_inverse (f must have zero
    constant term and degree-1 part p_1).

    Write f = p_1 + F.  The products P_lam = prod_i p_{lam_i}[g] of every
    prefix lam of F's terms are rows grown one degree per step through the
    full bound n, P_lam[d] = sum_j P_lam'[d - k*j] * p_k[g_j] for lam =
    (lam', k), and degree d of -F[g] = -sum_lam c_lam P_lam, which reads
    only g_1 .. g_{d-1}, is g_d."""
    n = f.max_degree
    p1 = SymFunc({(1,): 1})._form
    terms = [(lam, SymFunc.constant(-c)._form)
             for part in f.components[2:] for lam, c in part.terms.items()]
    rows = {(): [SymFunc.constant(1)._form] + [None] * n, (1,): [None]}
    for lam, _ in terms:
        for i in range(1, len(lam) + 1):
            rows.setdefault(lam[:i], [None] * sum(lam[:i]))
            rows.setdefault(lam[i - 1:i], [None] * lam[i - 1])
    g = rows[(1,)]
    growing = [(lam[-1], rows[lam[:-1]], rows[lam[-1:]], row)
               for lam, row in rows.items() if len(lam) > 1]
    scaled = [(lam[0], row) for lam, row in rows.items() if len(lam) == 1 and lam != (1,)]
    for d in range(1, n + 1):
        for k, prefix, column, row in growing:
            if len(row) == d:
                pairs = [(prefix[d - k * j], column[k * j]) for j in range(1, d // k + 1)
                         if prefix[d - k * j] and column[k * j]]
                row.append(_form_of_products(pairs) if pairs else None)
        for k, row in scaled:
            if len(row) == d:
                row.append(None if d % k else _scaled_form(g[d // k], k))
        s = _form_of_products((rows[lam][d], c) for lam, c in terms if rows[lam][d])
        g.append(p1 if d == 1 else s)
    return GradedSeries._of([_from_form(form) for form in g])


def syt_count_reference(outer, inner=()) -> int:
    """Standard Young tableaux of the skew shape outer/inner by plain
    backtracking, one placement at a time with nothing shared; the
    frontier-memoized oracle.syt_count is pinned against it."""
    outer = tuple(outer)
    rows = len(outer)
    frontier = list(inner) + [0] * (rows - len(inner))
    count = 0

    def place(remaining: int):
        nonlocal count
        if remaining == 0:
            count += 1
            return
        for r in range(rows):
            if frontier[r] >= outer[r]:
                continue
            if r > 0 and frontier[r] >= frontier[r - 1]:
                continue
            frontier[r] += 1
            place(remaining - 1)
            frontier[r] -= 1

    place(sum(outer) - sum(inner))
    return count


# --- reference for the plethysm sweep in symlie.verify ---------------------------


def labelled_sweep_functions():
    """The plethysm sweep as once labelled, repeats included: f runs over
    h_k, e_k, p_k (k <= 4) and s_lam (|lam| <= 4), 23 in all, and g over h_k,
    e_k (k <= 3) and s_lam (|lam| <= 3), 12 in all.  Since h_k = s_(k),
    e_k = s_(1^k) and p_1 = s_1, many of its 276 pairs coincide; the
    sweep of symlie.verify compares each distinct pair once, and is pinned
    against this list."""
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


# --- memo tables and kernel work ---------------------------------------------------


def memo_tables() -> dict:
    """Every functools.lru_cache table defined at the top level of a symlie
    module, by its name module.function."""
    tables = {}
    for info in pkgutil.iter_modules(symlie.__path__):
        module = importlib.import_module(f"symlie.{info.name}")
        for name, obj in vars(module).items():
            if (hasattr(obj, "cache_info") and hasattr(obj, "cache_clear")
                    and getattr(obj, "__module__", None) == module.__name__):
                tables[f"{info.name}.{name}"] = obj
    return tables


def kernel_work(monkeypatch, run) -> tuple:
    """(calls, term pairs) of the product kernel symfunc._form_of_products
    during run(), counted through every symlie module's binding of it."""
    original = symfunc._form_of_products
    work = []

    def counted(pairs, *scale):
        pairs = list(pairs)
        work.append(sum(len(x[0]) * len(y[0]) for x, y in pairs))
        return original(pairs, *scale)

    with monkeypatch.context() as patch:
        for info in pkgutil.iter_modules(symlie.__path__):
            module = importlib.import_module(f"symlie.{info.name}")
            for name, value in list(vars(module).items()):
                if value is original:
                    patch.setattr(module, name, counted)
        run()
    return len(work), sum(work)


# --- fault injection for the check registry in symlie.verify ---------------------


def run_perturbed(name: str, max_degree: int, *perturbs) -> "verify.CheckReport":
    """verify.run_check with one side of one pair perturbed, or several.

    Each perturb is (pair_index, side, degree, partition, delta): delta *
    p_partition is added to a copy of side 0 (lhs) or 1 (rhs) of that pair,
    so a memoized series the pair shares stays intact.  For this one call,
    the check's entry in verify.CHECKS is replaced by one with the same
    name, anchor and cap, whose builder perturbs the original's pairs.  The
    degree must lie within the side's bound and be the size of the partition
    (ValueError otherwise).
    """
    checks = verify.CHECKS

    def perturbed(check: "verify.Check") -> "verify.Check":
        def perturbed_pairs(n: int):
            pairs = check.builder(n)
            for pair_index, side, degree, lam, delta in perturbs:
                label, *sides = pairs[pair_index]
                target = sides[side]
                if not 0 <= degree <= target.max_degree:
                    raise ValueError(
                        f"perturbation degree {degree} is outside [0, {target.max_degree}]"
                    )
                if sum(lam) != degree:
                    raise ValueError(
                        f"perturbation partition {lam!r} does not have size {degree}")
                components = list(target.components)
                components[degree] = components[degree] + SymFunc({tuple(lam): delta})
                sides[side] = GradedSeries(target.max_degree, components)
                pairs[pair_index] = (label, *sides)
            return pairs

        return verify.Check(check.name, check.anchor, perturbed_pairs, check.cap)

    verify.CHECKS = [perturbed(check) if check.name == name else check for check in checks]
    try:
        return verify.run_check(name, max_degree)
    finally:
        verify.CHECKS = checks


# --- expression rendering ------------------------------------------------------
#
# The inverse of expr.parse, used by the parse round-trip test.


def render_expr(expr: Expr) -> str:
    """Text form with parentheses only where the grammar needs them: around
    a compound outer side of `o`, a binary operator inside `o` or as the
    right operand of `*` and `/`, `+` or `-` under `*` and `/`, and `+` or
    `-` as the right operand of `+` and `-`.  Any tree that parse()
    accepted renders to text that reparses to an equal tree."""
    if isinstance(expr, Num):
        return str(expr.value)
    if isinstance(expr, Gen):
        if expr.kind == "s":
            return "s[" + ",".join(str(part) for part in expr.arg) + "]"
        return f"{expr.kind}[{expr.arg}]"
    if isinstance(expr, Name):
        return expr.ident
    if isinstance(expr, Call):
        return f"{expr.fn}({render_expr(expr.arg)})"
    if isinstance(expr, Pleth):
        outer = _grouped(expr.outer, isinstance(expr.outer, (Pleth, BinOp)))
        return f"{outer} o {_grouped(expr.inner, isinstance(expr.inner, BinOp))}"
    if isinstance(expr, BinOp):
        additive = expr.op in "+-"
        left = _grouped(expr.left, not additive and _is_additive(expr.left))
        right_needs = _is_additive(expr.right) if additive else isinstance(expr.right, BinOp)
        return f"{left} {expr.op} {_grouped(expr.right, right_needs)}"
    raise TypeError(f"not an Expr: {expr!r}")


def _is_additive(expr: Expr) -> bool:
    return isinstance(expr, BinOp) and expr.op in "+-"


def _grouped(expr: Expr, parenthesize: bool) -> str:
    text = render_expr(expr)
    return f"({text})" if parenthesize else text
