"""Continued fraction convergents of exact rationals and certified reals.

For approximate input the Gauss map is run on an exact rational interval
enclosing the number; a partial quotient is emitted only when the whole
interval agrees on it, so no convergent is ever certified falsely.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError
from .records import record


@record
class ConvergentList:
    """Convergents a/N with N nondecreasing, plus a truncation marker.

    ``truncated`` is True when the input precision ran out before the
    denominator cap was reached.
    """

    convergents: tuple[tuple[int, int], ...]
    truncated: bool


def _to_interval(theta) -> tuple[Fraction, Fraction]:
    if isinstance(theta, (int, Fraction)):
        q = Fraction(theta)
        return q, q
    if isinstance(theta, tuple) and len(theta) == 2 and all(isinstance(v, (int, Fraction, float)) for v in theta):
        c, e = map(Fraction, theta)  # a float's binary value, exactly
        if e < 0:
            raise DomainError("negative error bound")
        return c - e, c + e
    raise DomainError(f"unsupported input for continued fractions: {theta!r}")


def cf_convergents(theta, n_max: int) -> ConvergentList:
    """Continued fraction convergents of theta with denominators <= n_max.

    theta may be an int or Fraction (exact), or a pair (value, error_bound)
    of ints, Fractions or floats, each read exactly; any other input raises
    DomainError.
    """
    if n_max < 1:
        raise DomainError("denominator cap must be positive")
    lo, hi = _to_interval(theta)
    # standard recurrences: h_n = a_n h_{n-1} + h_{n-2}
    p_prev, q_prev, p_cur, q_cur = 0, 1, 1, 0
    out: list[tuple[int, int]] = []
    truncated = False
    while True:
        a_lo, a_hi = math.floor(lo), math.floor(hi)
        if a_lo != a_hi:
            # the interval spans an integer: the next quotient is uncertifiable
            truncated = True
            break
        a = a_lo
        p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, a * p_cur + p_prev, a * q_cur + q_prev
        if q_cur > n_max:
            break
        out.append((p_cur, q_cur))
        frac_lo, frac_hi = lo - a, hi - a
        if frac_hi == 0:
            break  # exact rational, expansion terminated
        if frac_lo == 0:
            truncated = True
            break
        lo, hi = 1 / frac_hi, 1 / frac_lo
    return ConvergentList(tuple(out), truncated)
