"""Certified complex root approximation for integer polynomials.

Roots are located by simultaneous iteration (mpmath's polyroots) at a
working precision that doubles on failure; each approximation is then
wrapped in an a posteriori inclusion disc of radius

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

from .errors import DomainError, PrecisionError
from .intpoly import IntPoly, resultant
from .numerics import ApproxComplex, FLOAT_EPS, precision_ladder
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
    mpmath's root order) holds exactly one root."""

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


def certified_roots(f: IntPoly, precision: float = 1e-12) -> CertifiedRoots:
    """The roots behind ``complex_roots``, kept at their working precision."""
    import mpmath as mp

    if f.is_zero:
        raise DomainError("zero polynomial has no well-defined root set")
    if f.degree == 0:
        return CertifiedRoots((), (), 53)
    if not is_squarefree(f):
        raise DomainError("polynomial must be squarefree (separate the square part first)")

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
