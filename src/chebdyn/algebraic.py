"""Algebraic numbers given by an integer minimal polynomial plus an embedding."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .chebyshev import preperiodic_order_of_minpoly, rational_preperiodic_order
from .errors import DomainError, PrecisionError
from .factorint import primes_upto
from .intpoly import IntPoly, _pseudo_rem, resultant
from .numerics import ApproxComplex
from .records import record
from .roots import CertifiedRoots, certified_roots, complex_roots


#: widest coefficient disc the root-subset test reads directly: below 1/2 a
#: disc holds at most one integer, and 1/4 leaves room for the escalation
#: to land under it
_DISC_LIMIT = 0.25
#: root recomputations before giving up; each one climbs the precision ladder
_MAX_ESCALATIONS = 8
#: primes whose factor-degree patterns are read before the root-subset test,
#: and how many of them (those dividing neither lc(f) nor disc(f)) to try
_PATTERN_PRIMES = primes_upto(1000)
_PATTERN_TRIES = 20


# Polynomials over F_p below are low-first lists of residues with no trailing
# zeros; a modulus g is monic.


def _rem_mod_p(a: list[int], g: list[int], p: int) -> list[int]:
    """a mod g over F_p."""
    a = [c % p for c in a]
    d = len(g) - 1
    for k in range(len(a) - 1, d - 1, -1):
        c = a.pop()
        if c:
            for i in range(d):
                a[k - d + i] = (a[k - d + i] - c * g[i]) % p
    while a and not a[-1]:
        a.pop()
    return a


def _mulmod_p(a: list[int], b: list[int], g: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _rem_mod_p(out, g, p)


def _gcd_mod_p(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd over F_p of a monic a and any b."""
    while b:
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
        a, b = b, _rem_mod_p(a, b, p)
    return a


def _quo_mod_p(a: list[int], b: list[int], p: int) -> list[int]:
    """a / b over F_p for a monic b that divides a."""
    a, d = list(a), len(b) - 1
    q = [0] * (len(a) - d)
    for k in range(len(a) - 1, d - 1, -1):
        c = q[k - d] = a[k] % p
        for i in range(d + 1):
            a[k - d + i] -= c * b[i]
    return q


def _factor_degrees_mod_p(f: IntPoly, p: int) -> list[int]:
    """Degrees of the irreducible factors of f mod p, for p prime to lc(f) and
    f squarefree mod p, by distinct-degree factorization: the product of the
    degree-d factors is gcd(g, x^(p^d) - x) once those of lower degree are
    divided out of g."""
    inv = pow(f.leading, -1, p)
    g = [c * inv % p for c in f.coeffs]
    h, d, degrees = [0, 1], 0, []
    while 2 * (d + 1) < len(g):
        d += 1
        power, e = [1], p  # h^p mod g, so h = x^(p^d)
        while e:
            if e & 1:
                power = _mulmod_p(power, h, g, p)
            e >>= 1
            h = _mulmod_p(h, h, g, p) if e else h
        h = power
        shifted = h + [0] * (2 - len(h))
        shifted[1] = (shifted[1] - 1) % p
        c = _gcd_mod_p(g, _rem_mod_p(shifted, g, p), p)
        if len(c) > 1:
            degrees += [d] * ((len(c) - 1) // d)
            g = _quo_mod_p(g, c, p)
            h = _rem_mod_p(h, g, p)
    if len(g) > 1:
        degrees.append(len(g) - 1)
    return degrees


def _modular_verdict(f: IntPoly) -> bool | None:
    """Irreducibility of f (degree >= 3) over Q where exact integers decide
    it without roots: False when f is not squarefree, True when factor-degree
    patterns mod small primes prove it irreducible, None when undecided.

    disc = res(f, f') is zero exactly when f is not squarefree. For a prime p
    dividing neither lc(f) nor disc, f mod p is squarefree of degree D, and a
    factor of f over Z (by Gauss's lemma, any factor over Q scaled) keeps its
    degree mod p, where it is a product of some of f's irreducible factors.
    So its degree is a subset sum of every such prime's pattern; when those
    sets meet only in {0, D}, f is irreducible. Patterns cannot decide every
    f (x^4 + 1 splits mod every prime), and never decide a reducible one.
    """
    disc = resultant(f, f.derivative())
    if not disc:
        return False
    d, bad = f.degree, f.leading * disc
    full = 1 | 1 << d
    possible, tries = (1 << (d + 1)) - 1, 0  # bit k: degree k is still possible
    for p in _PATTERN_PRIMES:
        if bad % p == 0:
            continue
        sums = 1
        for k in _factor_degrees_mod_p(f, p):
            sums |= sums << k
        possible &= sums
        tries += 1
        if possible == full:
            return True
        if tries == _PATTERN_TRIES:
            break
    return None


class _TooWide(Exception):
    """A candidate coefficient disc too wide to hold at most one integer."""


def _subset_factor(roots: CertifiedRoots, subset, a: int):
    """The monic integer polynomial prod_{i in subset} (y - a r_i), or None
    when its coefficient discs hold no integers; raises _TooWide when a disc
    is too wide to tell.

    Coefficient j of the candidate is (-1)^j e_j(a r_I). With M_i = a
    (|roots[i]| + radii[i]), which bounds the moduli of a*roots[i] and of a
    times the root, multilinearity gives |e_j(a root) - e_j(a roots)| <=
    e_j(M) - e_j(A), A_i = |a roots[i]|. Rounding at unit roundoff u =
    2^-prec adds at most (7.3 k + 8 j + 3) u e_j(M) <= 16 (k + 1) u e_j(M):
    forming w_i = a*roots[i] (relative 2u, so 2j u), the k complex product
    steps behind e_j(w) ((sqrt(5) + 1) k u, with 1% to spare), and the real
    sums behind e_j(M) - e_j(A) ((4k + 6j + 2) u). The disc takes twice
    that, 32 (k + 2) u e_j(M).
    """
    import mpmath as mp

    k = len(subset)
    with mp.workprec(roots.prec):
        am = mp.mpf(a)
        w = [am * roots.roots[i] for i in subset]
        big = [am * (abs(roots.roots[i]) + roots.radii[i]) for i in subset]
        small = [abs(z) for z in w]
        coeffs, e_big, e_small = [mp.mpc(1)], [mp.mpf(1)], [mp.mpf(1)]
        for z, m, s in zip(w, big, small):
            coeffs = [c - z * p for c, p in zip(coeffs + [0], [0] + coeffs)]
            e_big = [c + m * p for c, p in zip(e_big + [0], [0] + e_big)]
            e_small = [c + s * p for c, p in zip(e_small + [0], [0] + e_small)]
        # coeffs[j] multiplies y^(k-j)
        slack = mp.mpf(2) ** (5 - roots.prec) * (k + 2)
        out = [1]
        for j in range(1, k + 1):
            radius = e_big[j] - e_small[j] + slack * e_big[j]
            if radius > _DISC_LIMIT:
                raise _TooWide(radius)
            c = coeffs[j]
            n = int(mp.nint(c.real))
            if abs(c.imag) > radius or abs(c.real - n) > radius:
                return None
            out.append(n)
    return out[::-1]


def _is_irreducible(f: IntPoly, roots: CertifiedRoots | None = None) -> bool:
    """Irreducibility over Q, decided in exact integers.

    a x^2 + b x + c has a rational root iff b^2 - 4ac is a square (a negative
    discriminant is not). Above degree 2, without ``roots``, _modular_verdict
    decides first; what it leaves open goes to the root-subset test. By
    Gauss's lemma any factor of the monic g(y) = a^(D-1) f(y/a) over Q is a
    monic integer polynomial prod (y - a r_i) over a subset of the roots r_i
    of f, and one of the two factors has degree <= D/2. The certified roots
    (``roots`` when given, f then being squarefree) put each candidate's
    coefficients in discs of radius below 1/2, escalating the root precision
    when a disc is wider; the one integer a disc can hold is the only
    candidate, and exact division of g by it decides the subset. Content and
    sign do not matter.
    """
    if f.degree < 1:
        return False
    if f.degree == 1:
        return True
    if f.degree == 2:
        c, b, a = f.coeffs
        disc = b * b - 4 * a * c
        return disc < 0 or math.isqrt(disc) ** 2 != disc
    f = f.primitive()
    if f.leading < 0:
        f = -f
    if roots is None:
        verdict = _modular_verdict(f)
        if verdict is not None:
            return verdict
        roots = certified_roots(f)
    g = list(f.scaled_monic().coeffs)
    d, a = f.degree, f.leading
    for _ in range(_MAX_ESCALATIONS):
        try:
            for k in range(1, d // 2 + 1):
                for subset in combinations(range(d), k):
                    if 2 * k == d and subset[0] != 0:
                        continue  # its complement was tested
                    h = _subset_factor(roots, subset, a)
                    if h is not None and not _pseudo_rem(g, h):
                        return False
            return True
        except _TooWide as wide:
            # the disc radius scales with the root radii: aim 16x under the limit
            target = float(max(roots.radii) * _DISC_LIMIT / (16 * wide.args[0]))
            roots = certified_roots(f, target)
    raise PrecisionError(f"could not decide whether {f} is irreducible", best=None)


@record
class AlgebraicNumber:
    """beta given by its irreducible primitive minimal polynomial over Z.

    ``index`` selects one complex root in the deterministic root order
    (ascending real part, then imaginary part); ``embedding`` is that root,
    certified on first read. ``==`` and ``hash`` read (minpoly, index) only.
    """

    minpoly: IntPoly
    index: int

    @classmethod
    def with_embedding(cls, minpoly: IntPoly, index: int, embedding: ApproxComplex) -> "AlgebraicNumber":
        """The number with its embedding already known, as a certified root."""
        beta = cls(minpoly, index)
        beta.__dict__["embedding"] = embedding  # what cached_property would write
        return beta

    @cached_property
    def embedding(self) -> ApproxComplex:
        return certified_roots(self.minpoly).floats()[self.index]

    @property
    def degree(self) -> int:
        return self.minpoly.degree

    @property
    def leading(self) -> int:
        return self.minpoly.leading

    @property
    def is_rational(self) -> bool:
        return self.degree == 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise DomainError("not a rational number")
        c0, c1 = self.minpoly.coeffs
        return Fraction(-c0, c1)

    def conjugates(self, precision: float = 1e-12) -> list[ApproxComplex]:
        return complex_roots(self.minpoly, precision)

    def preperiodic_order(self) -> int | None:
        """Order N when this is zeta_N + 1/zeta_N, else None."""
        if self.is_rational:
            return rational_preperiodic_order(self.as_fraction())
        return preperiodic_order_of_minpoly(self.minpoly)

    @property
    def is_preperiodic(self) -> bool:
        return self.preperiodic_order() is not None


def algebraic_number(coeffs, index: int = 0) -> AlgebraicNumber:
    """Build an AlgebraicNumber from minimal-polynomial coefficients (low first).

    The polynomial is normalized to be primitive with positive leading
    coefficient, must be irreducible over Q, and ``index`` picks the
    embedding in the deterministic root order. No roots are found here
    unless the modular test leaves irreducibility open; the roots that
    test then certifies are the embedding's.
    """
    f = IntPoly.from_coeffs(coeffs)
    if f.degree < 1:
        raise DomainError("minimal polynomial must have degree >= 1")
    f = f.primitive()
    if f.leading < 0:
        f = -f
    certified = None
    irreducible = _modular_verdict(f) if f.degree >= 3 else _is_irreducible(f)
    if irreducible is None:
        certified = certified_roots(f)
        irreducible = _is_irreducible(f, certified)
    if not irreducible:
        raise DomainError(f"{f} is reducible over the rationals")
    if not 0 <= index < f.degree:
        raise DomainError(f"embedding index {index} out of range for degree {f.degree}")
    if certified is None:
        return AlgebraicNumber(f, index)
    return AlgebraicNumber.with_embedding(f, index, certified.floats()[index])
