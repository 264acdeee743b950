"""Primitive integer polynomials and exact resultants.

Coefficients are stored lowest degree first. The zero polynomial is the
empty coefficient tuple and has degree -1.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from .errors import DomainError
from .records import record


@record
class IntPoly:
    coeffs: tuple[int, ...]

    @staticmethod
    def of(*coeffs: int) -> "IntPoly":
        return IntPoly.from_coeffs(coeffs)

    @staticmethod
    def from_coeffs(coeffs: Iterable[int]) -> "IntPoly":
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return IntPoly(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if self.is_zero:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return not self.is_zero and self.coeffs[-1] == 1

    def content(self) -> int:
        if self.is_zero:
            return 0
        return math.gcd(*(abs(c) for c in self.coeffs)) if len(self.coeffs) > 1 else abs(self.coeffs[0])

    def primitive(self) -> "IntPoly":
        """Divide out the content; sign of the leading coefficient is kept."""
        c = self.content()
        if c in (0, 1):
            return self
        return IntPoly(tuple(x // c for x in self.coeffs))

    def __call__(self, x):
        """Horner evaluation; exact for int/Fraction arguments."""
        acc = 0 * x if self.is_zero else self.coeffs[-1] + 0 * x
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def eval_homogeneous(self, r: int, s: int) -> int:
        """s^deg * f(r/s), exact. Requires f nonzero and s != 0."""
        if self.is_zero:
            raise DomainError("homogeneous evaluation of the zero polynomial")
        acc = self.coeffs[-1]
        spow = 1
        for c in reversed(self.coeffs[:-1]):
            spow *= s
            acc = acc * r + c * spow
        return acc

    def scaled_monic(self) -> "IntPoly":
        """a^(D-1) f(y/a) with a = lc(f): monic, with roots a times those of
        f, so for f = f_beta it is the minimal polynomial of a*beta."""
        if self.degree < 1:
            raise DomainError("a monic transform needs degree >= 1")
        a, d = self.leading, self.degree
        return IntPoly(tuple(c * a ** (d - 1 - i) for i, c in enumerate(self.coeffs[:-1])) + (1,))

    def derivative(self) -> "IntPoly":
        return IntPoly.from_coeffs(i * c for i, c in enumerate(self.coeffs) if i)

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly.from_coeffs(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly.from_coeffs(c * other for c in self.coeffs)
        if self.is_zero or other.is_zero:
            return IntPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly.from_coeffs(out)

    __rmul__ = __mul__

    def shifted_scaled_arg(self, r: int, s: int) -> "IntPoly":
        """Coefficients of s^deg * f((r - s*x)/s); the roots are r/s - (roots of f).

        This is the denominator-cleared form of f evaluated along a reflected,
        shifted argument, used to read p-adic root valuations off a Newton
        polygon. Computed by repeated synthetic division: with H(u) the
        homogenization sum b_j u^j s^(deg-j), the Taylor coefficients of H at
        u = r scale by (-s)^k.
        """
        if self.is_zero:
            raise DomainError("cannot transform the zero polynomial")
        d = self.degree
        h = list(self.coeffs)
        spow = 1
        for j in range(d - 1, -1, -1):
            spow *= s
            h[j] *= spow
        out = []
        for k in range(d):
            for j in range(d - 1 - k, -1, -1):
                h[j] += h[j + 1] * r
            out.append(h[0])
            del h[0]
        out.append(h[0])
        sgn = 1
        for k in range(1, d + 1):
            sgn *= -s
            out[k] *= sgn
        return IntPoly.from_coeffs(out)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x" if c not in (1, -1) else ("x" if c == 1 else "-x"))
            else:
                terms.append(f"{c}*x^{i}" if c not in (1, -1) else (f"x^{i}" if c == 1 else f"-x^{i}"))
        return " + ".join(terms).replace("+ -", "- ")


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """prem(a, b) = lc(b)^(deg a - deg b + 1) * a  mod b, low-first lists."""
    da, db = len(a) - 1, len(b) - 1
    lb = b[-1]
    r = list(a)
    for k in range(da - db, -1, -1):
        top = r[db + k]
        for i in range(len(r)):
            r[i] *= lb
        if top:
            for i in range(db + 1):
                r[i + k] -= top * b[i]
        del r[db + k]
        # invariant: entries above index db+k-1 are zero and dropped
    while r and r[-1] == 0:
        r.pop()
    return r


def _resultant_standard(f: IntPoly, g: IntPoly) -> int:
    """res(f, g) = lc(f)^deg(g) * prod over roots x of f of g(x)."""
    a, b = list(f.coeffs), list(g.coeffs)
    da, db = len(a) - 1, len(b) - 1
    sign = 1
    if da < db:
        a, b = b, a
        da, db = db, da
        if (da * db) % 2:
            sign = -sign
    if db == 0:
        return sign * b[0] ** da
    g_, h_ = 1, 1
    while True:
        delta = da - db
        if (da % 2) and (db % 2):
            sign = -sign
        r = _pseudo_rem(a, b)
        a, da = b, db
        if not r:
            return 0
        denom = g_ * h_ ** delta
        b = [c // denom for c in r]
        db = len(b) - 1
        g_ = a[-1]
        if delta >= 1:
            h_ = g_ ** delta // h_ ** (delta - 1)
        if db == 0:
            if da == 0:
                return sign
            return sign * (b[0] ** da // h_ ** (da - 1))


def resultant(f: IntPoly, g: IntPoly) -> int:
    """Resultant with the convention res(f, g) = lc(g)^deg(f) * prod f(y_j),
    the product running over the roots y_j of g.

    With this convention res(f, s*x - r) is exactly the homogenized value
    s^deg(f) * f(r/s), which keeps the meeting-prime bookkeeping sign-free.
    Raises DomainError on zero input.
    """
    if f.is_zero or g.is_zero:
        raise DomainError("resultant of the zero polynomial")
    return _resultant_standard(g, f)
