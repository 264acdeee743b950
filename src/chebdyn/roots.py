"""Certified complex root approximation for integer polynomials.

A quadratic's roots come from the integers in closed form: the square root
of the discriminant by ``math.isqrt`` at P fractional bits, the small real
root by Vieta, each root rounded once to a float, with a derived fixed-point
error (``_quadratic_roots``). No mpmath is loaded for them.

At degree >= 3 roots are located by simultaneous iteration (mpmath's
polyroots) at a working precision that doubles on failure; each
approximation is then wrapped in an a posteriori inclusion disc of radius

    n * |f(z)| / |f'(z)|

inflated by a rigorous Horner rounding-error term. If the n discs are
pairwise disjoint, each contains exactly one root, so the radii are
honest error bounds.

Nothing here runs when an algebraic number is built: its irreducibility is
decided mod p first (``algebraic._modular_verdict``), and only the
polynomials that test leaves open have their roots certified for the
root-subset test; otherwise the embedding is certified on first read.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, PrecisionError
from .intpoly import IntPoly, resultant
from .numerics import ApproxComplex, FLOAT_EPS, precision_ladder, round_div
from .records import record


def _horner_with_error(coeffs_high, z, prec):
    """(value, rigorous bound on the evaluation rounding error)."""
    import mpmath as mp

    n = len(coeffs_high) - 1
    acc = mp.mpc(coeffs_high[0])
    mag = mp.mpf(abs(coeffs_high[0]))
    az = abs(z)
    for c in coeffs_high[1:]:
        acc = acc * z + c
        mag = mag * az + abs(c)
    # standard Horner bound: |fl(p(z)) - p(z)| <= gamma_{2n} * sum |c_i||z|^i
    u = mp.mpf(2) ** (1 - prec)
    gamma = (2 * n + 2) * u
    return acc, mag * gamma


def is_squarefree(f: IntPoly) -> bool:
    if f.is_zero:
        return False
    if f.degree <= 1:
        return True
    return resultant(f, f.derivative()) != 0


@record
class CertifiedRoots:
    """The roots of a squarefree integer polynomial at working precision
    ``prec``: the disc of radius radii[i] about roots[i] (mpmath values, in
    mpmath's root order) holds exactly one root. A quadratic's roots are
    floats, each rounded once from a ``prec``-bit fixed point that radii[i]
    bounds; ``floats`` adds the rounding term."""

    roots: tuple
    radii: tuple
    prec: int

    def floats(self) -> list[ApproxComplex]:
        """The roots as float64 ApproxComplex, in the deterministic order."""
        out = []
        for z, r in zip(self.roots, self.radii):
            zc = complex(z)
            out.append(ApproxComplex(zc, float(r) + (abs(zc) + 1.0) * FLOAT_EPS))
        out.sort(key=lambda a: (a.real, a.imag))
        return out


def complex_roots(f: IntPoly, precision: float = 1e-12) -> list[ApproxComplex]:
    """All complex roots of a squarefree f, certified to ``precision``.

    The roots are accepted once every inclusion radius, taken at the
    working precision, is <= precision. Each returned error_bound is that
    radius plus (|z| + 1) * FLOAT_EPS for rounding the root to float64, so
    it can exceed precision by that term (about 3.4e-12 at |z| = 1.5e4).
    The acceptance test leaves that term out because no working precision
    shrinks it: above |z| of about 4.5e3 it alone exceeds the default 1e-12.

    Output order is deterministic: ascending real part, then imaginary part.
    Raises DomainError for zero/constant/non-squarefree input, and
    PrecisionError (carrying the best achieved bound) if the precision
    ceiling is hit first.
    """
    return certified_roots(f, precision).floats()


def _quadratic_roots(f: IntPoly, prec: int) -> CertifiedRoots | None:
    """The roots of a squarefree a x^2 + b x + c from its integers, at
    ``prec`` = P >= 128 fractional bits; every error below is in units of
    2^-P, with s = 2^P and D = b^2 - 4ac != 0.

    - D > 0: S = isqrt(D s^2) lies within 1 of sqrt(D) s, so Q = b s +
      sgn(b) S lies within 1 of Q* = (b + sgn(b) sqrt(D)) s, with no
      cancellation, and |Q*| >= sqrt(D) s >= s. The large root -Q* / (2 a s)
      is read as round(-Q / (2 a)): within 1/(2|a|) + 1/2 <= 1. The small
      root c / (a x_1) = -2 c s / Q* (Vieta) is read as round(-2 c s^2 / Q):
      the quotient moves by at most |x_2| s / |Q| <= |x_2| (1 + 2^(1-P)),
      and rounding adds 1/2.
    - D < 0: the real part -b / (2a) is exact, so its float is correctly
      rounded; S = isqrt(-D s^2), and the imaginary part +-sqrt(-D) / (2|a|)
      is read as round(S / (2|a|)), within 1.

    So each root x lies within (|x| + 1) 2^(1-P) of its fixed point: that is
    its radius, rounded up. Each fixed point is rounded once to a float by
    an exact integer division (correctly rounded). The roots lie sqrt(|D|)
    / |a| >= 1 / |a| apart (f is squarefree, so D != 0); None unless each
    radius is below half of that, which makes the discs disjoint.
    """
    c, b, a = f.coeffs
    s = 1 << prec
    disc = b * b - 4 * a * c
    if disc > 0:
        q = b * s + (math.isqrt(disc * s * s) if b >= 0 else -math.isqrt(disc * s * s))
        big, small = round_div(-q, 2 * a), round_div(-2 * c * s * s, q)
        roots = [complex(big / s), complex(small / s)]
    else:
        im = round_div(math.isqrt(-disc * s * s), 2 * abs(a)) / s
        re = float(Fraction(-b, 2 * a))
        roots = [complex(re, -im), complex(re, im)]
    radii = [math.ldexp(abs(z) + 1.0, 1 - prec) * (1 + 2.0**-50) for z in roots]
    if 2 * max(radii) * abs(a) >= 1:
        return None
    return CertifiedRoots(tuple(roots), tuple(radii), prec)


def certified_roots(f: IntPoly, precision: float = 1e-12) -> CertifiedRoots:
    """The roots behind ``complex_roots``, kept at their working precision.

    A quadratic's roots come from ``_quadratic_roots`` at P = 128, 256, ...
    up to the ceiling, with no mpmath."""
    if f.is_zero:
        raise DomainError("zero polynomial has no well-defined root set")
    if f.degree == 0:
        return CertifiedRoots((), (), 53)
    if not is_squarefree(f):
        raise DomainError("polynomial must be squarefree (separate the square part first)")
    if f.degree == 2:
        best = None
        for prec in precision_ladder(128):
            found = _quadratic_roots(f, prec)
            if found is None:
                continue
            if max(found.radii) <= precision:
                return found
            best = found
        raise PrecisionError(
            f"could not certify roots to {precision:g} within the precision ceiling",
            best=best.floats() if best is not None else None,
        )

    import mpmath as mp

    n = f.degree
    coeffs_high = list(reversed(f.coeffs))
    best: CertifiedRoots | None = None
    best_bound = mp.inf
    for prec in precision_ladder(64):
        with mp.workprec(prec):
            try:
                roots = mp.polyroots(coeffs_high, maxsteps=120, extraprec=prec // 2)
            except mp.libmp.NoConvergence:
                continue
            deriv_high = [c * (n - i) for i, c in enumerate(coeffs_high[:-1])]
            radii = []
            ok = True
            for z in roots:
                fz, err_f = _horner_with_error(coeffs_high, z, prec)
                fpz, err_fp = _horner_with_error(deriv_high, z, prec)
                denom = abs(fpz) - err_fp
                if denom <= 0:
                    ok = False
                    break
                radii.append(n * (abs(fz) + err_f) / denom)
            if not ok:
                continue
            disjoint = all(
                abs(roots[i] - roots[j]) > radii[i] + radii[j]
                for i in range(n)
                for j in range(i + 1, n)
            )
            if not disjoint:
                continue
            found = CertifiedRoots(tuple(roots), tuple(radii), prec)
            worst = max(radii)
            if worst <= precision:
                return found
            if worst < best_bound:
                best, best_bound = found, worst
    raise PrecisionError(
        f"could not certify roots to {precision:g} within the precision ceiling",
        best=best.floats() if best is not None else None,
    )
