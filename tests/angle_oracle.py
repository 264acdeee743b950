"""The mpmath route of the unit-circle angle and the angle gap, kept as the
test oracle of ``baker.certified_angle`` and ``baker.angle_rational_gap``.

``_refined_embedding``, ``certified_angle`` and the gap loop of
``angle_rational_gap`` are the library's former code, unchanged apart from
their names; ``convergent_rows`` runs the convergent scan through them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from chebdyn import AlgebraicNumber, DomainError, PrecisionError, cf_convergents, weil_height_algebraic
from chebdyn.numerics import precision_ladder
from chebdyn.roots import _horner_with_error


def _refined_embedding(beta: AlgebraicNumber, prec: int):
    """Newton-polish the stored embedding at ``prec`` bits; returns (z, radius)."""
    import mpmath as mp

    coeffs_high = list(reversed(beta.minpoly.coeffs))
    n = beta.degree
    deriv_high = [c * (n - i) for i, c in enumerate(coeffs_high[:-1])]
    with mp.workprec(prec):
        z = mp.mpc(beta.embedding.value)
        for _ in range(max(4, int(math.log2(prec)))):
            fz = mp.polyval(coeffs_high, z)
            fpz = mp.polyval(deriv_high, z)
            if fpz == 0:
                break
            z = z - fz / fpz
        fz, err_f = _horner_with_error(coeffs_high, z, prec)
        fpz, err_fp = _horner_with_error(deriv_high, z, prec)
        denom = abs(fpz) - err_fp
        if denom <= 0:
            raise PrecisionError("embedding refinement failed", best=None)
        return z, n * (abs(fz) + err_f) / denom


@lru_cache(maxsize=None)
def certified_angle_mp(beta: AlgebraicNumber, prec: int = 128):
    """theta_0 = arg(beta)/(2 pi) in (-1/2, 1/2] with a rigorous error bound."""
    import mpmath as mp

    if weil_height_algebraic(beta).value < 1e-10:
        raise DomainError("beta is a root of unity (zero height)")
    z, r = _refined_embedding(beta, prec)
    with mp.workprec(prec):
        if abs(abs(z) - 1) > r + mp.mpf(2) ** (8 - prec):
            raise DomainError("beta does not lie on the unit circle")
        theta = mp.atan2(z.imag, z.real) / (2 * mp.pi)
        err = float(r / (2 * math.pi) + mp.mpf(2) ** (8 - prec))
        return theta, err


def gap_log_mp(beta: AlgebraicNumber, a: int, n: int, prec: int = 192) -> float:
    """lhs = log|a/N - theta_0| of the former ``angle_rational_gap``."""
    import mpmath as mp

    for p in precision_ladder(prec):
        theta, terr = certified_angle_mp(beta, p)
        with mp.workprec(p):
            gap = abs(mp.mpf(a) / n - theta)
            if gap > 4 * terr:
                return float(mp.log(gap))
    raise PrecisionError("a/N indistinguishable from theta_0", best=None)


def convergent_rows(beta: AlgebraicNumber, n_cap: int, eps: float, c_eps: float):
    """(a, N, lhs, rhs, status) of every convergent the former scan read, and
    its calibrated constant. theta_0 goes to ``cf_convergents`` as the exact
    binary value of its mpf, which the library no longer reads."""
    import mpmath as mp

    prec = max(192, 4 * int(math.log2(max(n_cap, 2))) + 96)
    theta, terr = certified_angle_mp(beta, prec)
    num, den = mp.libmp.to_rational(theta._mpf_)
    convs = cf_convergents((Fraction(int(num), int(den)), terr), n_cap)
    d, h = beta.degree, weil_height_algebraic(beta).value
    rows, calibrated = [], 0.0
    for a, n in convs.convergents:
        if abs(n) < 2 or math.gcd(a, n) != 1:
            continue
        lhs = gap_log_mp(beta, a, n, prec)
        rhs = -c_eps * d**3 * h * abs(n) ** eps
        rows.append((a, n, lhs, rhs, "holds" if lhs >= rhs else "violated"))
        calibrated = max(calibrated, -lhs / (d**3 * h * n**eps))
    return rows, calibrated
