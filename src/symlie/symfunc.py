"""The graded ring of symmetric functions over exact rationals.

Everything is stored in the power-sum basis: a SymFunc is a sparse map
partition -> Fraction meaning sum_lam c_lam * p_lam.  The constructors
h(), e() and schur() expand into this basis, so the involution omega and
plethysm act monomial-by-monomial.  frobenius(n, chi) builds the
characteristic of every integer class function chi, schur's included.
h_n, e_n and the degree-n part of HE come from one closed form,
exponential_part, a walk of its own.  Coefficients are exact
rationals throughout (only numbers.Rational values are accepted; any
rounding would be a correctness bug).

Coefficients are stored as Fractions but multiplied as integers: a product
writes each factor as integer numerators over one common denominator (the
lcm of its term denominators), sums the integer products, and builds each
output Fraction once.  _form_of_products is that one kernel, returning the
sum in lowest terms, and _from_form turns its result into a SymFunc.
SymFunc.__mul__, GradedSeries.__mul__, series_div (and with it
series_inverse) and the Horner plethysm kernel series._horner_degree,
which pleth, compose_scalar and pleth_inverse share, all go through it.
Each SymFunc carries its integer form: one the kernel returns is kept on the
SymFunc built from it, and any other is computed at most once, the first
time a product asks for it, so a shared operand such as a named series
component is encoded once however often it is multiplied.

Inside an integer form a partition lam is keyed by the integer
prod_i P(lam_i), P(k) the prime issued to the part k when it is first seen
(_prime), so the key of p_lam * p_mu is the product of the two keys: one
int multiplication per pair, where a merged and sorted tuple would need a
sort.  The empty partition's key is 1.  By unique factorization the product
keeps every multiplicity exactly and can never carry into another part,
whatever the multiplicities and however large the parts; no width has to
be fixed in advance.  _key encodes once per input term and _partition
decodes once per output term, both memoized; SymFunc.terms keeps its tuple
keys.

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
# tuples all the way down, since one form is shared by every product that
# reads its SymFunc
IntegerForm = Tuple[Tuple[Tuple[int, int], ...], int]

# The prime issued to each part seen so far, P(k) = _PRIMES[k]; primes are
# issued in increasing order, so its values are the first len(_PRIMES) primes.
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


def _integer_form(f: "SymFunc") -> Optional[IntegerForm]:
    """f as integer numerators over the lcm of its denominators; None for 0.

    The form is kept on f, so it is computed at most once per SymFunc.  A
    form is valid under the prime table that issued its keys; _PRIMES only
    grows, so a kept form stays valid for the life of the process."""
    try:
        return f._form
    except AttributeError:
        pass
    form = None
    if f.terms:
        den = lcm(*(c.denominator for c in f.terms.values()))
        form = tuple([
            (_key(lam), c.numerator * (den // c.denominator)) for lam, c in f.terms.items()
        ]), den
    f._form = form
    return form


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
    terms = tuple([(key, w) for key, v in acc.items() if (w := v * num)])
    if not terms:
        return None
    den *= scale.denominator
    g = den
    for _, v in terms:
        g = gcd(g, v)
        if g == 1:
            return terms, den
    return tuple([(key, v // g) for key, v in terms]), den // g


def _from_form(form: Optional[IntegerForm]) -> "SymFunc":
    """The SymFunc of an integer form in lowest terms, one Fraction per term;
    it keeps the form."""
    terms, den = form or ((), 1)
    result = _canonical({_partition(key): Fraction(v, den) for key, v in terms})
    result._form = form
    return result


def _canonical(terms: Dict[Partition, Fraction]) -> "SymFunc":
    """The SymFunc of terms already in canonical form (partition keys,
    nonzero Fraction values), taken as given."""
    result = SymFunc.__new__(SymFunc)
    result.terms = terms
    return result


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
    """A symmetric function expanded in the power-sum basis.

    terms maps partitions to nonzero Fractions; the empty partition carries
    the constant term.  Instances are treated as immutable values.
    Coefficients must be numbers.Rational (int, Fraction); anything else,
    a float included, raises TypeError.  The constructor sorts each key
    into a partition and adds up the coefficients that land on one key; a
    part that is not a positive int (a bool included) raises ValueError.

    _form holds the integer form of terms once one is known (see
    _integer_form); since terms is never changed after construction, the
    form stays the one recomputed from terms.
    """

    __slots__ = ("terms", "_form")

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
        self.terms = {lam: c for lam, c in clean.items() if c}

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
        return max((sum(lam) for lam in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        degrees = {sum(lam) for lam in self.terms}
        return len(degrees) <= 1

    def homogeneous_part(self, d: int) -> "SymFunc":
        return SymFunc({lam: c for lam, c in self.terms.items() if sum(lam) == d})

    def degrees(self) -> set:
        return {sum(lam) for lam in self.terms}

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, SymFunc):
            return self.terms == other.terms
        if isinstance(other, Rational):
            return self == SymFunc.constant(other)
        return NotImplemented

    def __hash__(self):
        # a constant equals its rational (zero included), so it hashes like it
        if set(self.terms) <= {()}:
            return hash(self.terms.get((), 0))
        return hash(frozenset(self.terms.items()))

    def __add__(self, other) -> "SymFunc":
        if isinstance(other, Rational):
            other = SymFunc.constant(other)
        elif not isinstance(other, SymFunc):
            return NotImplemented
        out = dict(self.terms)
        for lam, coeff in other.terms.items():
            new = out.get(lam, 0) + coeff
            if new:
                out[lam] = new
            else:
                out.pop(lam, None)
        return _canonical(out)

    __radd__ = __add__

    def __neg__(self) -> "SymFunc":
        return _canonical({lam: -c for lam, c in self.terms.items()})

    def __sub__(self, other) -> "SymFunc":
        return self + -other

    def __rsub__(self, other) -> "SymFunc":
        return -self + other

    def __mul__(self, other) -> "SymFunc":
        if isinstance(other, Rational):
            other = SymFunc.constant(other)
        elif not isinstance(other, SymFunc):
            return NotImplemented
        x, y = _integer_form(self), _integer_form(other)
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

    One walk over lam's parts builds both products: equal parts come in runs,
    and the j-th k of a run multiplies z_lam = prod_k k^{m_k} m_k! by k*j.
    Zero-weight terms are dropped, so _canonical takes the terms as given.
    Through frobenius, whose z_of is a second pass, warm builds of H at
    degrees 18 and 26 take about twice as long."""
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
    return _canonical(terms)


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
    return SymFunc(
        {lam: c * (-1) ** (sum(lam) - len(lam)) for lam, c in f.terms.items()}
    )


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
    integer class function chi, one Fraction per class where chi is nonzero."""
    return _canonical({
        mu: Fraction(c, z_of(mu)) for mu in partitions_of(n) if (c := chi(mu))
    })


def schur(lam) -> SymFunc:
    """Schur function s_lam, the characteristic of its Murnaghan-Nakayama character."""
    lam = check_partition(lam)
    return frobenius(sum(lam), partial(_character, _bead_mask(lam)))


def schur_expand(f: SymFunc) -> Dict[Partition, Fraction]:
    """Schur coefficients of a homogeneous f: lam -> <f, s_lam>.

    Since <p_mu, s_lam> = chi^lam(mu), the coefficient is
    sum_mu f_mu chi^lam(mu) with no divisions, summed as integer numerators
    over the lcm of f's denominators."""
    if not f.is_homogeneous():
        raise HomogeneityError("schur_expand requires homogeneous input")
    if not f:
        return {}
    den = lcm(*(c.denominator for c in f.terms.values()))
    nums = [(mu, c.numerator * (den // c.denominator)) for mu, c in f.terms.items()]
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
        return _integer_form(h(sum(lam)))
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
    form = _integer_form(f)
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
