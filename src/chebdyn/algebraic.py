"""Algebraic numbers given by an integer minimal polynomial plus an embedding."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .chebyshev import preperiodic_order_of_minpoly, rational_preperiodic_order
from .errors import DomainError
from .intpoly import IntPoly
from .numerics import ApproxComplex
from .roots import complex_roots


def _is_irreducible(f: IntPoly) -> bool:
    """Irreducibility over Q: exact in integers up to degree 2, sympy above.

    a x^2 + b x + c has a rational root iff b^2 - 4ac is a square (a negative
    discriminant is not); content and sign do not matter. sympy is imported
    only here, so rational and quadratic betas never load it.
    """
    if f.degree < 1:
        return False
    if f.degree == 1:
        return True
    if f.degree == 2:
        c, b, a = f.coeffs
        disc = b * b - 4 * a * c
        return disc < 0 or math.isqrt(disc) ** 2 != disc
    import sympy

    x = sympy.Symbol("x")
    expr = sum(c * x**i for i, c in enumerate(f.coeffs))
    return sympy.Poly(expr, x).is_irreducible


@dataclass(frozen=True)
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
    if not _is_irreducible(f):
        raise DomainError(f"{f} is reducible over the rationals")
    roots = complex_roots(f, precision)
    if not 0 <= index < len(roots):
        raise DomainError(f"embedding index {index} out of range for degree {f.degree}")
    return AlgebraicNumber(f, roots[index], index)

