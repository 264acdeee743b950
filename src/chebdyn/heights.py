"""Weil heights, the dynamical canonical height for Chebyshev maps, and the
Dobrowolski-type height floor.

The canonical height is computed the way it is defined: iterate the map and
watch h(T_d^k(x)) / d^k. Exact rational arithmetic is used while numerator
and denominator sizes permit (4096 bits); after that only certified
log-magnitudes are tracked, which is all the limit depends on. The closed
form log((|x| + sqrt(x^2-4))/2) is deliberately NOT used here so it can
serve as an independent oracle in the tests.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache

from .algebraic import AlgebraicNumber, algebraic_number
from .chebyshev import ORBIT_COS_ERROR, ChebMap, cheb_eval, conjugate_blocks, is_preperiodic_rational
from .errors import ChebdynError, DomainError, PrecisionError
from .numerics import precision_ladder
from .records import record
from .roots import complex_roots

EXACT_BIT_CAP = 4096
DEGREE_CAP = 16
DEFAULT_DOBROWOLSKI_C = 0.25

@record
class HeightValue:
    value: float
    error_bound: float
    method: str  # "exact-rational", "mahler-numeric" or "iteration-limit"

    def __float__(self) -> float:
        return self.value


def weil_height_rational(x) -> HeightValue:
    """h(p/q) = log max(|p|, q) for p/q in lowest terms."""
    x = Fraction(x)
    m = max(abs(x.numerator), x.denominator)
    v = math.log(m) if m > 1 else 0.0
    return HeightValue(v, abs(v) * 4e-16, "exact-rational")


def _log_plus_sum(roots) -> tuple[float, float]:
    total, err = 0.0, 0.0
    for a in roots:
        mag = abs(a.value)
        if mag > 1.0:
            total += math.log(mag)
        err += a.error_bound  # log+ is 1-Lipschitz against max(1, t)
    return total, err


@lru_cache(maxsize=256)
def weil_height_algebraic(alpha: AlgebraicNumber, precision: float = 1e-13) -> HeightValue:
    """Absolute logarithmic height via the Mahler measure of the minimal
    polynomial: h = (log|lead| + sum log+ |root_i|) / deg.

    Cached (alpha is a frozen record): a Baker scan asks for h(beta) once
    per convergent, and each miss runs the certified root finder."""
    deg = alpha.degree
    if deg > DEGREE_CAP:
        raise DomainError(f"degree {deg} exceeds the supported cap {DEGREE_CAP}")
    if alpha.is_rational:
        return weil_height_rational(alpha.as_fraction())
    roots = complex_roots(alpha.minpoly, precision)
    s, err = _log_plus_sum(roots)
    v = (math.log(abs(alpha.leading)) + s) / deg
    return HeightValue(v, (err + 8e-16 * (1 + abs(v))), "mahler-numeric")


def orbit_generator_height(n: int) -> HeightValue:
    """Height h(alpha_n) of alpha_n = zeta_n + 1/zeta_n: the mean of
    log max(|x|, 1) over its conjugates x (``conjugate_blocks``). The
    one-order case of ``orbit_generator_heights``.

    This is the Mahler-measure formula of weil_height_algebraic (psi_n is
    monic), summed over the closed-form conjugates. Error bound, with
    u = 2^-53 and m = |P| terms y_i in [0, log 2] of exact mean y:
    - each conjugate is within ORBIT_COS_ERROR and log max(|x|, 1) is
      1-Lipschitz, so the exact terms move by at most ORBIT_COS_ERROR;
    - numpy's float64 log is within 1 ulp, at most 2u y_i per term;
    - summing m nonnegative terms in any order, whatever tree numpy uses,
      errs by at most gamma_(m-1) = (m - 1) u / (1 - (m - 1) u) of the sum;
      the sum runs over the order's own contiguous slice of a conjugate
      block, so no other order's terms enter it;
    - the division by m rounds once, u.
    So the computed mean v is within ORBIT_COS_ERROR + (m + 2) u y of
    h(alpha_n); the 1% pad on (m + 2) u v covers gamma's denominator and
    y / v while (m + 2) u < 10^-3.
    """
    return orbit_generator_heights((n,))[0]


def orbit_generator_heights(orders) -> list[HeightValue]:
    """``orbit_generator_height(n)`` for every n in orders, from one blockwise
    pass over their conjugates (``conjugate_blocks``): each value is the mean
    of its own contiguous slice, as the one-order call takes it."""
    import numpy as np

    out = []
    for counts, x in conjugate_blocks(orders):
        y = np.log(np.maximum(np.abs(x), 1.0))
        start = 0
        for m in counts:
            v = float(np.add.reduce(y[start : start + m])) / m  # as .mean() takes it
            out.append(HeightValue(v, ORBIT_COS_ERROR + 1.01 * (m + 2) * 2.0**-53 * v, "mahler-numeric"))
            start += m
    return out


def dobrowolski_floor(degree: int, c: float = DEFAULT_DOBROWOLSKI_C) -> float:
    """The height floor c / (D (log D)^3) for degree-D non-torsion numbers."""
    if degree < 2:
        raise DomainError("the floor is stated for degree >= 2")
    if c <= 0:
        raise DomainError("the constant must be positive")
    return c / (degree * math.log(degree) ** 3)


# ---------------------------------------------------------------------------
# canonical height
# ---------------------------------------------------------------------------


def _escape_threshold(cheb: ChebMap) -> float:
    return max(4.0, math.sqrt(2.0 * cheb.lower_coeff_sum()) + 1.0)


def _scale(d: int, k: int) -> float:
    logscale = k * math.log(d)
    return math.exp(-logscale) if logscale < 700 else 0.0


def _drift_bound(cheb: ChebMap, log_abs: float) -> float:
    """|log|T_d(x)| - d log|x|| <= -log(1 - S_d/x^2) for |x| above threshold."""
    u = cheb.lower_coeff_sum() * math.exp(-2 * log_abs) if log_abs < 350 else 0.0
    return -math.log1p(-u)


def _limit_estimate(cheb: ChebMap, lo: float, hi: float, k: int):
    """(value, error) for lim_j log|x_j|/d^j from log|x_k| in [lo, hi], with
    |x_k| above the escape threshold. One-shot: callers iterate further when
    the error is still too large (both terms shrink with k)."""
    d = cheb.degree
    scale = _scale(d, k)
    tail = _drift_bound(cheb, lo) * scale / (d - 1)
    width = 0.5 * (hi - lo) * scale
    return 0.5 * (lo + hi) * scale, width + tail + 1e-15


def _escape_limit(cheb: ChebMap, disc_at, k0: int, tol: float):
    """Certified limit term for a point given as a disc factory.

    ``disc_at(prec)`` returns (mpc center, float radius) describing the
    step-k0 point at working precision ``prec``. The disc is iterated
    forward until it certifiably clears the escape threshold AND the
    limit-estimate error (interval width plus drift tail, both decaying
    with the step count) drops under tol. Raises PrecisionError at the
    ceiling.
    """
    import mpmath as mp

    d = cheb.degree
    thresh = _escape_threshold(cheb)
    sd_deriv = sum(abs(c) for c in cheb.poly.derivative().coeffs)
    best = None
    for prec in precision_ladder(128):
        with mp.workprec(prec):
            z, r = disc_at(prec)
            z, r, k = mp.mpc(z), mp.mpf(r), k0
            blown = False
            for _ in range(64 + 8 * prec):
                az = abs(z)
                if az - r > thresh:
                    lo = float(mp.log(az - r))
                    hi = float(mp.log(az + r))
                    val, err = _limit_estimate(cheb, lo, hi, k)
                    if err < tol:
                        return val, err
                    best = (val, err)
                if r > 0.05 * max(float(az), 1.0):
                    blown = True  # disc inflated: needs a tighter start
                    break
                dbound = sd_deriv * max(1.0, float(az + r)) ** (d - 1)
                z = cheb_eval(d, z)
                r = dbound * r + abs(z) * mp.mpf(2) ** (4 - prec)
                k += 1
            if not blown:
                best = best or (0.0, math.inf)
    raise PrecisionError(
        "could not certify the escape rate within the precision ceiling",
        best=best,
    )


def _canonical_height_rational(x: Fraction, cheb: ChebMap, tol: float) -> HeightValue:
    if is_preperiodic_rational(x):
        return HeightValue(0.0, 0.0, "exact-rational")
    log_q = math.log(x.denominator) if x.denominator > 1 else 0.0
    if abs(x) <= 2:
        # T_d maps [-2, 2] into itself: the whole forward orbit stays there,
        # so the limit term vanishes
        return HeightValue(log_q, 4e-16 * (1 + log_q), "iteration-limit")
    cur = x
    k = 0
    # an exact rational outside [-2, 2]: keep iterating exactly until the
    # certified tail of the limit drops under tol (a handful of steps: the
    # drift shrinks doubly exponentially once past the threshold)
    thresh = _escape_threshold(cheb)
    while max(cur.numerator.bit_length(), cur.denominator.bit_length()) <= 4 * EXACT_BIT_CAP:
        if abs(cur) > thresh:
            log_abs = math.log(abs(cur.numerator)) - math.log(cur.denominator)
            pad = 4e-13 * (1 + abs(log_abs))
            limit, err = _limit_estimate(cheb, log_abs - pad, log_abs + pad, k)
            if err < tol:
                return HeightValue(log_q + limit, err + 4e-16 * (1 + log_q), "iteration-limit")
        cur = cheb(cur)
        k += 1

    # barely-escaped point with huge coordinates: certified floating restart
    num, den = cur.numerator, cur.denominator

    def disc_at(prec):
        import mpmath as mp

        with mp.workprec(prec):
            center = mp.mpf(num) / mp.mpf(den)
            return center, abs(center) * float(mp.mpf(2) ** (4 - prec))

    try:
        limit, err = _escape_limit(cheb, disc_at, k, tol)
    except PrecisionError as exc:
        best = None
        if exc.best:
            best = HeightValue(log_q + exc.best[0], exc.best[1], "iteration-limit")
        raise PrecisionError(str(exc), best=best) from None
    return HeightValue(log_q + limit, err + 4e-16 * (1 + log_q), "iteration-limit")


def _canonical_height_algebraic(beta: AlgebraicNumber, cheb: ChebMap, tol: float) -> HeightValue:
    import mpmath as mp

    if beta.is_preperiodic:
        return HeightValue(0.0, 0.0, "exact-rational")
    deg = beta.degree
    if deg > DEGREE_CAP:
        raise DomainError(f"degree {deg} exceeds the supported cap {DEGREE_CAP}")
    base = math.log(abs(beta.leading)) / deg
    per_tol = tol * deg / 2
    last: PrecisionError | None = None
    for prec_exp in (13, 20, 30, 45, 60):
        try:
            roots = complex_roots(beta.minpoly, 10.0 ** (-prec_exp))
        except PrecisionError as exc:
            last = exc
            continue
        total, err_total = 0.0, 0.0
        try:
            for a in roots:
                re, im, r = a.real, a.imag, a.error_bound
                if abs(im) <= r and abs(re) + r <= 2:
                    continue  # certified real point of the invariant interval
                val, err = _escape_limit(
                    cheb, lambda _prec, _a=a: (mp.mpc(_a.real, _a.imag), _a.error_bound), 0, per_tol
                )
                total += val
                err_total += err
        except PrecisionError as exc:
            last = exc
            continue
        return HeightValue(
            base + total / deg, err_total / deg + 4e-16 * (1 + abs(base)), "iteration-limit"
        )
    raise PrecisionError("canonical height not certified at the precision ceiling", best=last.best if last else None)


def canonical_height(x, cheb: ChebMap | int = 2, tol: float = 1e-9) -> HeightValue:
    """Call-Silverman canonical height of x for the degree-d Chebyshev system.

    x may be an int, Fraction, or AlgebraicNumber. Vanishes exactly on
    preperiodic points; satisfies h(T_d(x)) = d h(x) up to tol.
    """
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    if isinstance(cheb, int):
        cheb = ChebMap(cheb)
    if isinstance(x, AlgebraicNumber):
        if x.is_rational:
            return _canonical_height_rational(x.as_fraction(), cheb, tol)
        return _canonical_height_algebraic(x, cheb, tol)
    return _canonical_height_rational(Fraction(x), cheb, tol)


def canonical_height_closed_form(x, prec: int = 80) -> float:
    """Independent oracle for rational x: log q + log((|x|+sqrt(x^2-4))/2).

    Writing x = w + 1/w with |w| >= 1, the archimedean escape rate is
    log|w| (zero on [-2,2]); finite places contribute log(denominator) for
    a monic integer map. Used by tests to cross-check the iteration.
    """
    import mpmath as mp

    x = Fraction(x)
    with mp.workprec(prec):
        log_q = mp.log(x.denominator) if x.denominator > 1 else mp.mpf(0)
        ax = abs(mp.mpf(x.numerator)) / x.denominator
        if ax <= 2:
            return float(log_q)
        w = (ax + mp.sqrt(ax * ax - 4)) / 2
        return float(log_q + mp.log(w))


@record
class SampledBeta:
    label: str
    value: object
    degree: int
    height: float


def sample_betas(rng: random.Random, trials: int, height_cap: float, degree_cap: int) -> list[SampledBeta]:
    """Deterministic mixed sample of rational and quadratic wandering points
    of Weil height at most height_cap (the uniform-count experiment's draw)."""
    out: list[SampledBeta] = []
    bound = max(3, int(math.exp(height_cap)))
    while len(out) < trials:
        want_quadratic = degree_cap >= 2 and rng.random() < 0.5
        if not want_quadratic:
            num = rng.randint(-bound, bound)
            den = rng.randint(1, bound)
            q = Fraction(num, den)
            if is_preperiodic_rational(q) or q == 0:
                continue
            if weil_height_rational(q).value > height_cap + 1e-9:
                continue
            out.append(SampledBeta(str(q), q, 1, weil_height_rational(q).value))
        else:
            a = rng.randint(1, 6)
            b = rng.randint(-12, 12)
            c = rng.randint(-12, 12)
            if math.gcd(math.gcd(a, b), c) != 1:
                continue
            try:
                beta = algebraic_number([c, b, a], 0)
            except ChebdynError:
                continue  # reducible
            if beta.is_preperiodic:
                continue
            h = weil_height_algebraic(beta).value
            if h > height_cap + 1e-9:
                continue
            out.append(SampledBeta(f"poly:{c},{b},{a}@0", beta, 2, h))
    return out
