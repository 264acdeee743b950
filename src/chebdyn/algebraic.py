"""Algebraic numbers given by an integer minimal polynomial plus an embedding."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from .chebyshev import preperiodic_order_of_minpoly, rational_preperiodic_order
from .errors import DomainError, PrecisionError
from .intpoly import IntPoly, _pseudo_rem
from .numerics import ApproxComplex
from .records import record
from .roots import CertifiedRoots, certified_roots, complex_roots, is_squarefree


#: widest coefficient disc the root-subset test reads directly: below 1/2 a
#: disc holds at most one integer, and 1/4 leaves room for the escalation
#: to land under it
_DISC_LIMIT = 0.25
#: root recomputations before giving up; each one climbs the precision ladder
_MAX_ESCALATIONS = 8


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
    """Irreducibility over Q, decided in exact integers from certified roots.

    a x^2 + b x + c has a rational root iff b^2 - 4ac is a square (a negative
    discriminant is not). Above degree 2 a non-squarefree f is reducible;
    otherwise, by Gauss's lemma, any factor of the monic g(y) = a^(D-1) f(y/a)
    over Q is a monic integer polynomial prod (y - a r_i) over a subset of
    the roots r_i of f, and one of the two factors has degree <= D/2. The
    certified roots (``roots`` when given, f then being squarefree) put each
    candidate's coefficients in discs of radius below 1/2, escalating the
    root precision when a disc is wider; the one integer a disc can hold is
    the only candidate, and exact division of g by it decides the subset.
    Content and sign do not matter.
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
        if not is_squarefree(f):
            return False
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

    ``embedding`` selects one complex root (the ``index``-th in the
    deterministic root order: ascending real part, then imaginary part).
    """

    minpoly: IntPoly
    embedding: ApproxComplex
    index: int

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


def algebraic_number(
    coeffs, index: int = 0, precision: float = 1e-12
) -> AlgebraicNumber:
    """Build an AlgebraicNumber from minimal-polynomial coefficients (low first).

    The polynomial is normalized to be primitive with positive leading
    coefficient, must be irreducible over Q, and ``index`` picks the
    embedding in the deterministic root order.
    """
    f = IntPoly.from_coeffs(coeffs)
    if f.degree < 1:
        raise DomainError("minimal polynomial must have degree >= 1")
    f = f.primitive()
    if f.leading < 0:
        f = -f
    # above degree 2 the irreducibility test reads the same certified roots
    certified = certified_roots(f, precision) if f.degree >= 3 and is_squarefree(f) else None
    if not _is_irreducible(f, certified):
        raise DomainError(f"{f} is reducible over the rationals")
    if certified is None:
        certified = certified_roots(f, precision)
    roots = certified.floats()
    if not 0 <= index < len(roots):
        raise DomainError(f"embedding index {index} out of range for degree {f.degree}")
    return AlgebraicNumber(f, roots[index], index)

