"""Certified floating-point carriers and precision management.

All numeric quantities that stand for an exact real or complex number are
carried together with a rigorous bound on the distance to that number.
High-precision work runs in fixed point on Python integers where a closed
form exists (quadratic roots, unit-circle angles) and in mpmath elsewhere;
the exported records hold ordinary floats so reports stay plain JSON.
"""

from __future__ import annotations

import os

from .records import record

DEFAULT_PRECISION_BITS = 256

#: float64 unit roundoff, used when downgrading mpf values to floats
FLOAT_EPS = 2.0 ** -52


def precision_ceiling() -> int:
    """Escalation ceiling in bits, from CHEB_PRECISION_BITS (default 256)."""
    raw = os.environ.get("CHEB_PRECISION_BITS", "")
    try:
        bits = int(raw)
    except ValueError:
        return DEFAULT_PRECISION_BITS
    return bits if bits >= 53 else DEFAULT_PRECISION_BITS


def precision_ladder(start: int = 64):
    """Yield working precisions doubling from ``start`` up to the ceiling."""
    ceiling = max(precision_ceiling(), start)
    prec = start
    while True:
        yield min(prec, ceiling)
        if prec >= ceiling:
            return
        prec *= 2


def round_div(n: int, d: int) -> int:
    """n / d rounded to the nearest integer (halves up), for d != 0."""
    if d < 0:
        n, d = -n, -d
    return (2 * n + d) // (2 * d)


@record
class ApproxComplex:
    """A complex float plus a rigorous bound on its distance to the exact number."""

    value: complex
    error_bound: float = 0.0

    def __post_init__(self):
        if self.error_bound < 0:
            raise ValueError("error bound must be nonnegative")

    @property
    def real(self) -> float:
        return self.value.real

    @property
    def imag(self) -> float:
        return self.value.imag


def cos_two_pi(numerator: int, denominator: int, prec: int = 64) -> mp.mpf:
    """2*cos(2*pi*numerator/denominator) at ``prec`` bits.

    Uses cospi on the exact rational angle, so the only error is the final
    rounding (a few ulps at working precision).
    """
    import mpmath as mp

    with mp.workprec(prec + 8):
        return 2 * mp.cospi(mp.mpf(2 * numerator) / denominator)
