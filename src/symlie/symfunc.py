"""The graded ring of symmetric functions over exact rationals.

Everything is stored in the power-sum basis: a SymFunc is a sparse sum
sum_lam c_lam * p_lam, held as an integer form.  The constructors
h(), e() and schur() expand into this basis, so the involution omega and
plethysm act monomial-by-monomial.  frobenius(n, chi) builds the
characteristic of every integer class function chi, schur's included.
h_n, e_n and the degree-n part of HE come from one closed form,
exponential_part, a walk of its own.  Coefficients are exact
rationals throughout (only numbers.Rational values are accepted; any
rounding would be a correctness bug).

A SymFunc holds one integer form and nothing else: integer numerators over
one common denominator, in lowest terms, so equal values have equal forms.
SymFunc(...) encodes its Fraction input once (_encode); kernel results,
the closed form, frobenius and lie.lie are built straight into forms
(_from_form); +, -, omega, ==, bool and degrees read forms.  SymFunc.terms
(partition -> Fraction) is a view decoded on first read and kept, so
Fractions appear only there, in coefficient, render, expand_in_basis and
the input of SymFunc(...).  _form_of_products is the one product kernel,
returning its sum in lowest terms: SymFunc.__mul__, GradedSeries.__mul__,
series_div (and with it series_inverse) and the Horner plethysm kernel
series._horner_degree, which pleth, compose_scalar and pleth_inverse
share, all go through it.

Inside an integer form a partition lam is keyed by the integer
prod_i P(lam_i), P(k) the prime issued to the part k when it is first seen
(_prime), so the key of p_lam * p_mu is the product of the two keys: one
int multiplication per pair, where a merged and sorted tuple would need a
sort.  The empty partition's key is 1.  By unique factorization the product
keeps every multiplicity exactly and can never carry into another part,
whatever the multiplicities and however large the parts; no width has to
be fixed in advance.  _key encodes and _partition decodes a key, both
memoized; SymFunc.terms keeps its tuple keys.

expand_in_basis reaches the h and e bases by back-substitution: h_lam has
only terms p_rho with rho at or after lam in partitions_of order, so one
walk down that order reads off every coefficient, and only the products
h_lam with a nonzero coefficient are ever built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import takewhile
from math import factorial, gcd, lcm, prod
from numbers import Rational
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .partitions import Partition, check_partition, format_partition, partitions_of, z_of


class HomogeneityError(ValueError):
    """Raised when an operation requiring homogeneous input gets a mixed one."""


# (terms as (partition key, integer numerator) pairs, common denominator);
# tuples all the way down, since a SymFunc's form is shared by its readers
IntegerForm = Tuple[Tuple[Tuple[int, int], ...], int]

# The prime issued to each part seen so far, P(k) = _PRIMES[k]; primes are
# issued in increasing order, so its values are the first len(_PRIMES) primes.
# It only grows, so a form stays valid for the life of the process.
_PRIMES: Dict[int, int] = {}


def _prime(k: int) -> int:
    """P(k): a part seen for the first time gets the smallest prime not yet
    issued, found by trial division by the issued ones."""
    q = _PRIMES.get(k)
    if q is None:
        if k < 1:
            raise ValueError(f"partition part {k} is not positive")
        issued = list(_PRIMES.values())
        q = issued[-1] + 1 if issued else 2
        while any(q % r == 0 for r in takewhile(lambda r: r * r <= q, issued)):
            q += 1
        _PRIMES[k] = q
    return q


@lru_cache(maxsize=None)
def _key(lam: Partition) -> int:
    """The integer-form key of lam: prod_i P(lam_i), 1 for the empty partition."""
    return prod(map(_prime, lam))


@lru_cache(maxsize=None)
def _partition(key: int) -> Partition:
    """The partition keyed by key, by trial division over the issued primes."""
    parts: List[int] = []
    for k, q in _PRIMES.items():
        if key == 1:
            break
        while not key % q:
            key //= q
            parts.append(k)
    return tuple(sorted(parts, reverse=True))


def _encode(terms: Dict[Partition, Fraction]) -> Optional[IntegerForm]:
    """The integer form of terms (partition -> Fraction): numerators over the
    lcm of the denominators, in lowest terms since each Fraction is; zero
    terms are dropped, and None stands for 0."""
    den = lcm(*(c.denominator for c in terms.values()))
    pairs = tuple([(_key(lam), c.numerator * (den // c.denominator))
                   for lam, c in terms.items() if c])
    return (pairs, den) if pairs else None


def _lowest(terms: Tuple[Tuple[int, int], ...], den: int) -> Optional[IntegerForm]:
    """The form of terms (key, nonzero numerator) over den, in lowest terms; None for 0."""
    if not terms:
        return None
    g = gcd(den, *[v for _, v in terms])
    return (terms, den) if g == 1 else (tuple([(key, v // g) for key, v in terms]), den // g)


def _constant_form(c: Rational) -> Optional[IntegerForm]:
    """The integer form of the constant c, one term keyed 1 like the empty
    partition, with no SymFunc built; None for 0."""
    return (((1, c.numerator),), c.denominator) if c else None


def _scaled_form(form: Optional[IntegerForm], k: int) -> Optional[IntegerForm]:
    """p_k[x] for x in integer form: every part multiplied by k, one decode
    and encode per term."""
    if form is None:
        return None
    terms, den = form
    return tuple([(_key(tuple(j * k for j in _partition(key))), c) for key, c in terms]), den


def _term_forms(f: "SymFunc") -> List[Tuple[Partition, IntegerForm]]:
    """f's terms as (partition, constant form) pairs, in lowest terms."""
    terms, den = f._form or ((), 1)
    return [(_partition(key), (((1, v // g),), den // g))
            for key, v in terms for g in [gcd(v, den)]]


def _form_of_products(
    pairs: Iterable[Tuple[IntegerForm, IntegerForm]], scale: Fraction = Fraction(1)
) -> Optional[IntegerForm]:
    """scale * sum of x*y over the pairs, accumulated on integers over the
    lcm of the pair denominators and returned in lowest terms; None for 0."""
    pairs = list(pairs)
    den = lcm(*(xd * yd for (_, xd), (_, yd) in pairs))
    acc: Dict[int, int] = {}
    for (xs, xd), (ys, yd) in pairs:
        k = den // (xd * yd)
        for lam, x in xs:
            xk = x * k
            for mu, y in ys:
                # p_lam * p_mu = p_(lam merged with mu), keyed by the product
                key = lam * mu
                acc[key] = acc.get(key, 0) + xk * y
    num = scale.numerator
    return _lowest(tuple([(key, w) for key, v in acc.items() if (w := v * num)]),
                   den * scale.denominator)


def _sum_form(x: Optional[IntegerForm], y: Optional[IntegerForm]) -> Optional[IntegerForm]:
    """x + y in lowest terms, over the lcm of the two denominators; None for 0."""
    if not (x and y):
        return x or y
    den = lcm(x[1], y[1])
    acc: Dict[int, int] = {}
    for terms, k in ((x[0], den // x[1]), (y[0], den // y[1])):
        for key, v in terms:
            acc[key] = acc.get(key, 0) + v * k
    return _lowest(tuple([(key, v) for key, v in acc.items() if v]), den)


def _weighted_form(form: Optional[IntegerForm], weight) -> Optional[IntegerForm]:
    """Each numerator of form times weight(key); in lowest terms if each weight is +-1."""
    return form and (tuple([(key, v * weight(key)) for key, v in form[0]]), form[1])


def _sizes(parts: Iterable["SymFunc"]) -> Tuple[int, int]:
    """The number of terms of parts and the bit length of their largest
    denominator, read off the forms, where a numerator v over den reduces
    to den // gcd(v, den)."""
    count = bits = 0
    for f in parts:
        if f._form:
            keys, den = f._form
            count += len(keys)
            if den.bit_length() > bits:
                bits = max(bits, *((den // gcd(v, den)).bit_length() for _, v in keys))
    return count, bits


def _from_form(form: Optional[IntegerForm]) -> "SymFunc":
    """The SymFunc holding form, which must be in lowest terms (None for 0)."""
    result = SymFunc.__new__(SymFunc)
    result._form = form
    return result


def _canonical(terms: Dict[Partition, Fraction]) -> "SymFunc":
    """The SymFunc of terms already in canonical form (partition keys,
    nonzero Fraction values), taken as given and encoded."""
    return _from_form(_encode(terms))


def _sorted_key(parts) -> Partition:
    """The parts sorted into a partition; an already sorted tuple is returned
    as given, so equal keys stay one shared object.  A part that is not a
    positive int raises ValueError."""
    lam = tuple(parts)
    for part in lam:
        if not isinstance(part, int) or isinstance(part, bool) or part < 1:
            raise ValueError(f"partition part {part!r} is not an int, or not positive")
    key = tuple(sorted(lam, reverse=True))
    return lam if key == lam else key


class SymFunc:
    """A symmetric function expanded in the power-sum basis, an immutable
    value holding its integer form _form (None for 0).  terms maps
    partitions to nonzero Fractions, decoded from the form on first read and
    kept in _terms; the empty partition carries the constant term.
    Coefficients must be numbers.Rational (int, Fraction); anything else, a
    float included, raises TypeError.  The constructor sorts each key into a
    partition, adds up the coefficients that land on one key and encodes the
    sum; a part that is not a positive int (a bool included) raises
    ValueError.
    """

    __slots__ = ("_terms", "_form")

    def __init__(self, terms=None):
        clean: Dict[Partition, Fraction] = {}
        if terms:
            for lam, coeff in terms.items():
                if not isinstance(coeff, Rational):
                    raise TypeError(f"coefficient {coeff!r} is not an exact rational")
                lam = _sorted_key(lam)
                if lam in clean:
                    clean[lam] += coeff
                else:
                    clean[lam] = coeff if type(coeff) is Fraction else Fraction(coeff)
        self._form = _encode(clean)

    @property
    def terms(self) -> Dict[Partition, Fraction]:
        try:
            return self._terms
        except AttributeError:  # decoded once, one Fraction per term
            terms, den = self._form or ((), 1)
            self._terms = {_partition(key): Fraction(v, den) for key, v in terms}
            return self._terms

    @staticmethod
    def zero() -> "SymFunc":
        return SymFunc()

    @staticmethod
    def constant(c) -> "SymFunc":
        return SymFunc({(): c})

    def coefficient(self, lam) -> Fraction:
        """The coefficient of p_lam, lam's parts taken in any order."""
        return self.terms.get(_sorted_key(lam), Fraction(0))

    def degree(self) -> int:
        """Maximal degree among stored terms (0 for the zero function)."""
        return max(self.degrees(), default=0)

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def homogeneous_part(self, d: int) -> "SymFunc":
        terms, den = self._form or ((), 1)
        return _from_form(_lowest(
            tuple([(key, v) for key, v in terms if sum(_partition(key)) == d]), den))

    def degrees(self) -> set:
        terms, _ = self._form or ((), 1)
        return {sum(_partition(key)) for key, _ in terms}

    def __bool__(self) -> bool:
        return self._form is not None

    def __eq__(self, other) -> bool:
        if not isinstance(other, (SymFunc, Rational)):
            return NotImplemented
        x, y = self._forms(other)  # in lowest terms, so unique up to key order
        return x == y or bool(x and y and x[1] == y[1] and dict(x[0]) == dict(y[0]))

    def __hash__(self):
        # a constant equals its rational (zero included), so it hashes like it
        if set(self.terms) <= {()}:
            return hash(self.terms.get((), 0))
        return hash(frozenset(self.terms.items()))

    def _forms(self, other):
        """The integer forms of self and of other, a SymFunc or a rational."""
        return self._form, (_constant_form(other) if isinstance(other, Rational)
                            else other._form)

    def __add__(self, other) -> "SymFunc":
        if not isinstance(other, (SymFunc, Rational)):
            return NotImplemented
        return _from_form(_sum_form(*self._forms(other)))

    __radd__ = __add__

    def __neg__(self) -> "SymFunc":
        return _from_form(_weighted_form(self._form, lambda key: -1))

    def __sub__(self, other) -> "SymFunc":
        return self + -other

    def __rsub__(self, other) -> "SymFunc":
        return -self + other

    def __mul__(self, other) -> "SymFunc":
        if not isinstance(other, (SymFunc, Rational)):
            return NotImplemented
        x, y = self._forms(other)
        return _from_form(_form_of_products([(x, y)] if x and y else []))

    __rmul__ = __mul__

    def __repr__(self):
        return f"SymFunc({render(self)})"


def p(k: int) -> SymFunc:
    """The power sum p_k, k >= 1."""
    if k < 1:
        raise ValueError("p_k requires k >= 1")
    return SymFunc({(k,): 1})


# Weights w(k) of the plethystic exponentials exp(sum_k w(k) p_k / k):
# H = sum h_n, E = sum e_n, and HE = H*E, whose even-k logs cancel.
EXPONENTIAL_WEIGHTS: Dict[str, Callable[[int], int]] = {
    "H": lambda k: 1,
    "E": lambda k: (-1) ** (k - 1),
    "HE": lambda k: 2 * (k % 2),
}


def exponential_part(n: int, weight: Callable[[int], int]) -> SymFunc:
    """Degree-n part of exp(sum_k w(k) p_k/k): sum_{lam |- n} prod_i w(lam_i) p_lam/z_lam.

    Built straight into integer form, numerators n! prod_i w(lam_i)/z_lam over
    n!, by one walk over lam's parts for the weight product, z_lam and the key
    (frobenius walks twice, in z_of and _key).  Equal parts come in runs, and
    the j-th k of a run multiplies z_lam = prod_k k^{m_k} m_k! by k*j."""
    weights = [weight(k) for k in range(n + 1)]
    primes = [1] + [_prime(k) for k in range(1, n + 1)]
    size = factorial(n)
    terms = []
    for lam in partitions_of(n):
        num = z = key = 1
        prev = run = 0
        for k in lam:
            run = run + 1 if k == prev else 1
            prev = k
            num *= weights[k]
            z *= k * run
            key *= primes[k]
        if num:
            terms.append((key, num * (size // z)))
    return _from_form(_lowest(tuple(terms), size))


def h(n: int) -> SymFunc:
    """Complete homogeneous h_n, the degree-n part of H; h(0) = 1."""
    if n < 0:
        raise ValueError("h_n requires n >= 0")
    return exponential_part(n, EXPONENTIAL_WEIGHTS["H"])


def e(n: int) -> SymFunc:
    """Elementary e_n, the degree-n part of E; e(0) = 1."""
    if n < 0:
        raise ValueError("e_n requires n >= 0")
    return exponential_part(n, EXPONENTIAL_WEIGHTS["E"])


def omega(f: SymFunc) -> SymFunc:
    """The involution exchanging h_n and e_n: p_lam -> (-1)^{|lam|-len(lam)} p_lam."""
    return _from_form(_weighted_form(
        f._form, lambda key: (-1) ** (sum(lam := _partition(key)) - len(lam))))


def _bead_mask(lam: Partition) -> int:
    """The beta-set of the partition lam as an int bit mask: a bead at
    lam_i + (len(lam) - 1 - i) for each part.  With no zero parts position 0
    is vacant, so each shape has exactly one mask; the empty shape's is 0."""
    m = len(lam)
    return sum(1 << (part + m - 1 - i) for i, part in enumerate(lam))


@lru_cache(maxsize=None)
def _character(mask: int, mu: Partition) -> int:
    """chi^lam(mu) for the shape with bead mask `mask`, by Murnaghan-Nakayama.

    A border strip of size k moves a bead b to a vacant b - k, with sign
    (-1)^(number of beads strictly between the two).  Beads packed at the
    bottom after the move are zero parts and are shifted out."""
    if not mu:
        return 0 if mask else 1
    k, rest = mu[0], mu[1:]
    total = 0
    beads = mask >> k << k
    while beads:
        bead = beads & -beads
        beads ^= bead
        target = bead >> k
        if mask & target:
            continue
        moved = mask ^ bead ^ target
        chi = _character(moved >> ((moved ^ (moved + 1)).bit_length() - 1), rest)
        if chi:
            between = mask & (bead - 1) & -(target << 1)
            total += -chi if between.bit_count() & 1 else chi
    return total


def frobenius(n: int, chi: Callable[[Partition], int]) -> SymFunc:
    """The Frobenius characteristic sum_{mu |- n} chi(mu) p_mu / z_mu of the
    integer class function chi, in integer form: chi(mu) n!/z_mu over n! for
    each class where chi is nonzero."""
    size = factorial(n)
    return _from_form(_lowest(tuple([(_key(mu), c * (size // z_of(mu)))
                                     for mu in partitions_of(n) if (c := chi(mu))]), size))


def schur(lam) -> SymFunc:
    """Schur function s_lam, the characteristic of its Murnaghan-Nakayama character."""
    lam = check_partition(lam)
    return frobenius(sum(lam), partial(_character, _bead_mask(lam)))


def schur_expand(f: SymFunc) -> Dict[Partition, Fraction]:
    """Schur coefficients of a homogeneous f: lam -> <f, s_lam>.

    Since <p_mu, s_lam> = chi^lam(mu), the coefficient is
    sum_mu f_mu chi^lam(mu) with no divisions, summed as integer numerators
    of f's integer form."""
    if not f.is_homogeneous():
        raise HomogeneityError("schur_expand requires homogeneous input")
    if not f:
        return {}
    terms, den = f._form
    nums = [(_partition(key), v) for key, v in terms]
    out = {}
    for lam in partitions_of(f.degree()):
        mask = _bead_mask(lam)
        v = sum(num * _character(mask, mu) for mu, num in nums)
        if v:
            out[lam] = Fraction(v, den)
    return out


def dimension(f: SymFunc) -> Fraction:
    """n! times the coefficient of p_{1^n}: the dimension of the representation
    with Frobenius characteristic f."""
    if not f.is_homogeneous():
        raise HomogeneityError("dimension requires homogeneous input")
    if not f:
        return Fraction(0)
    n = f.degree()
    return factorial(n) * f.coefficient((1,) * n)


# --- expansions into the other classical bases -------------------------------


@lru_cache(maxsize=None)
def _h_form(lam: Partition) -> IntegerForm:
    """h_lam = prod_i h_{lam_i} in integer form, built from its memoized prefix lam[:-1]."""
    if len(lam) <= 1:
        return h(sum(lam))._form
    return _form_of_products([(_h_form(lam[:-1]), _h_form(lam[-1:]))])


def _solve_in_h(f: SymFunc, d: int) -> Dict[Partition, Fraction]:
    """Coefficients of the degree-d SymFunc f on the products h_lam.

    h_lam has only terms p_rho with rho refining lam, and refinement implies
    dominance, so every rho comes at or after lam in partitions_of order; the
    coefficient of p_lam itself is prod_i 1/lam_i.  Walking partitions_of(d)
    in order, the coefficient a_lam is therefore prod_i lam_i times the
    coefficient of p_lam left in the residual, from which a_lam * h_lam is
    then subtracted.  The residual is kept as integer numerators over one
    denominator, which grows only when a_lam * h_lam needs it to.
    """
    form = f._form
    if form is None:
        return {}
    terms, den = form
    residual = dict(terms)
    coords: Dict[Partition, Fraction] = {}
    for lam in partitions_of(d):
        if not residual:
            break
        key = _key(lam)
        c = residual.pop(key, None)
        if c is None:
            continue
        # a_lam = t/den, and a_lam * h_lam = t * y / (den * hd) term by term
        t = c * prod(lam)
        coords[lam] = Fraction(t, den)
        hs, hd = _h_form(lam)
        g = gcd(t, hd)
        m = hd // g
        if m > 1:
            residual = {rho: r * m for rho, r in residual.items()}
            den *= m
        t //= g
        for rho, y in hs:
            if rho != key:
                new = residual.get(rho, 0) - t * y
                if new:
                    residual[rho] = new
                else:
                    del residual[rho]
    return coords


# The bases expand_in_basis knows, which the CLI's --basis accepts and lists.
BASES = ("p", "s", "h", "e")


def expand_in_basis(f: SymFunc, basis: str) -> Dict[Partition, Fraction]:
    """Coefficients of f on the chosen basis, one of BASES: p (identity),
    s, h or e.  Inhomogeneous input is handled degree by degree.
    """
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}")
    if basis == "p":
        return dict(f.terms)
    out: Dict[Partition, Fraction] = {}
    for d in sorted(f.degrees()):
        part = f.homogeneous_part(d)
        if basis == "s":
            out.update(schur_expand(part))
        else:
            # omega(e_lam) = h_lam, so f on e_lam is omega(f) on h_lam
            out.update(_solve_in_h(omega(part) if basis == "e" else part, d))
    return out


# --- rendering ----------------------------------------------------------------


def _term_sort_key(lam: Partition):
    # degree first, then ascending lexicographic within a degree, matching the
    # documented text form (p[1,1] before p[2]).
    return (sum(lam), lam)


def render(f: SymFunc, symbol: str = "p", terms: Dict[Partition, Fraction] = None) -> str:
    """Canonical text form, e.g. '1/2*p[1,1] - 1/2*p[2]'; zero renders as '0'."""
    if terms is None:
        terms = f.terms
    if not terms:
        return "0"
    pieces = []
    for lam in sorted(terms, key=_term_sort_key):
        coeff = terms[lam]
        mag = abs(coeff)
        if not lam:
            body = str(mag)
        elif mag == 1:
            body = f"{symbol}{format_partition(lam)}"
        else:
            body = f"{mag}*{symbol}{format_partition(lam)}"
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)
