"""Weil heights, the dynamical canonical height for Chebyshev maps, and the
Dobrowolski-type height floor.

The canonical height is computed the way it is defined: iterate the map and
watch h(T_d^k(x)) / d^k. Exact rational arithmetic is used while numerator
and denominator sizes permit (4096 bits); after that only certified
log-magnitudes are tracked, which is all the limit depends on. The closed
form log((|x| + sqrt(x^2-4))/2) is deliberately NOT used here so it can
serve as an independent oracle in the tests.

The height of the order-N preperiodic point is read in closed form, not
summed over its phi(N)/2 conjugates: a Moebius sum over the divisors d of N
of the defect E(d) of the d-point Riemann sum of log max(1, |2 cos 2 pi t|),
each E(d) a short libm sum (d < 100) or an Euler-Maclaurin series
(``orbit_generator_heights``).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache

from .algebraic import AlgebraicNumber, algebraic_number
from .chebyshev import ORBIT_COS_ERROR, ChebMap, cheb_eval, is_preperiodic_rational, moebius_divisors
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


#: kappa = int log+|x| dmu(x) (``equidist.log_plus_integral``), the mean of
#: log max(1, |2 cos 2 pi t|) over t in [0, 1], rounded to the nearest double
LOG_PLUS_INTEGRAL = 0.32306594721945053
#: |LOG_PLUS_INTEGRAL - kappa| is at most half an ulp: kappa lies in [1/4, 1/2)
LOG_PLUS_INTEGRAL_ERROR = 2.0**-55

#: E(d) is summed directly for d below this, and read from its
#: Euler-Maclaurin series from it on
DEFECT_SERIES_FROM = 100
#: the series stops at the first order whose remainder bound is below this
DEFECT_SERIES_TOL = 1e-19

_U = 2.0**-53  # float64 unit roundoff


def _tan_derivatives():
    """Yield p_0, p_1, ... with tan^(k)(pi/3) = p_k sqrt(3) for even k and p_k
    for odd k (tan^(k) is an integer polynomial in tan, of the parity of
    k + 1, and tan(pi/3) = sqrt(3)).

    tan' = 1 + tan^2, so by Leibniz tan^(k+1) = [k = 0] + sum_i C(k, i)
    tan^(i) tan^(k-i); two even orders multiply their sqrt(3)s to 3.
    """
    p = [1]
    while True:
        yield p[-1]
        k = len(p) - 1
        odd = k % 2 == 0  # the new order k + 1
        terms = (math.comb(k, i) * p[i] * p[k - i] * (3 if odd and i % 2 == 0 else 1) for i in range(k + 1))
        p.append((k == 0) + sum(terms))


@lru_cache(maxsize=None)
def _defect_series() -> tuple[list[list[float]], list[list[float]], list[float]]:
    """(coefficients, weights, thresholds) of the Euler-Maclaurin series of E(d).

    With f(u) = log(2 cos 2 pi u), g = log max(1, |2 cos 2 pi t|) is f(t) on
    |t| < 1/6, f(t - 1/2) on |t - 1/2| < 1/6 and 0 elsewhere, and f(+-1/6) =
    0. Euler-Maclaurin on each arc (the lattice a/d against offsets 0 and
    c = 1/2 [d odd]; f is even, so the two ends of an arc add, and the B_1
    terms vanish with f(1/6)) gives, for every order J >= 2,

        E(d) = sum_{j=2}^{J} e_{j, d mod 6} d^(1-j) + R_J(d),
        e_{j,r} = (2 (-1)^j / j!) f^(j-1)(1/6) (B_j({r/6}) + B_j({r/6 + c})),
        f^(k)(1/6) = -(2 pi)^k tan^(k-1)(pi/3),

    so e_{2,0} = -2 pi / sqrt(3). R_J is the integral of B_J({x}) / J! against
    the J-th derivative over both arcs; |B_J({x})| <= 2 J! zeta(J) / (2 pi)^J
    and every derivative of tan is >= 0 on [0, pi/2), so
    |R_J(d)| <= (4 zeta(J) / pi) tan^(J-2)(pi/3) d^(1-J).

    coefficients[r][j - 2] is e_{j,r} in float64: the rational part is exact
    (integer Bernoulli numbers over the common denominator of von Staudt and
    Clausen, and D 6^j B_j(k/6) in integers) and rounds once, and the rest
    costs at most (2 j + 2) u more. weights[r][j - 2] = (5 j + 1) |e_{j,r}|
    bounds the whole float error of term j in ``_series_defect``.
    thresholds[J] is the least d at which the remainder bound of order J is
    below DEFECT_SERIES_TOL (inf for J < 2); the list ends at the first
    order that reaches DEFECT_SERIES_FROM.
    """
    tans, p, thresholds = _tan_derivatives(), [], [math.inf, math.inf]
    while thresholds[-1] > DEFECT_SERIES_FROM:
        order = len(thresholds)
        p.append(next(tans))  # p[order - 2]
        zeta = 1.0 + 2.0**-order + 2.0 ** (1 - order) / (order - 1)  # >= zeta(order)
        tan = p[-1] * (math.sqrt(3.0) if order % 2 == 0 else 1.0)
        c = 4.0 / math.pi * zeta * tan * (1 + 1e-12)
        d = math.ceil((c / DEFECT_SERIES_TOL) ** (1 / (order - 1)))
        while c * float(d) ** (1 - order) > DEFECT_SERIES_TOL:
            d += 1
        thresholds.append(d)
    top = len(thresholds) - 1
    # D B_i in integers, D the product of the primes p with p - 1 <= top
    den = math.prod(q for q in range(2, top + 2) if all(q % f for f in range(2, math.isqrt(q) + 1)))
    beta = [den]
    for m in range(1, top + 1):
        beta.append(-sum(math.comb(m + 1, i) * beta[i] for i in range(m)) // (m + 1))
    two_pi, sqrt3 = 2.0 * math.pi, math.sqrt(3.0)
    coefficients = [[] for _ in range(6)]
    weights = [[] for _ in range(6)]
    power = 1.0  # (2 pi)^(j - 1)
    for j in range(2, top + 1):
        power *= two_pi
        # D 6^j B_j(k/6) = sum_i C(j, i) (D B_i) 6^i k^(j-i)
        at = [sum(math.comb(j, i) * beta[i] * 6**i * k ** (j - i) for i in range(j + 1)) for k in range(6)]
        scale = power * (sqrt3 if j % 2 == 0 else 1.0)
        sign = -1 if j % 2 == 0 else 1
        for r in range(6):
            pair = at[r] + at[r if r % 2 == 0 else (r + 3) % 6]
            e = sign * 2 * p[j - 2] * pair / (math.factorial(j) * den * 6**j) * scale
            coefficients[r].append(e)
            weights[r].append((5 * j + 1) * abs(e))
    return coefficients, weights, thresholds


def _series_defect(d: int) -> tuple[float, float]:
    """E(d) and its error bound from the Euler-Maclaurin series, d >= DEFECT_SERIES_FROM.

    Horner in x = fl(1/d) over e_J .. e_2 and one last product by x: term j
    meets at most 2 j - 2 roundings there and (j - 1) u from x, so with its
    coefficient's (2 j + 2) u it is off by at most (5 j + 1) u |e_j| d^(1-j)
    (to first order; the 1% pad covers the rest), besides the remainder.
    """
    coefficients, weights, thresholds = _defect_series()
    order = next(j for j in range(2, len(thresholds)) if d >= thresholds[j])
    x = 1.0 / d
    value = weight = 0.0
    for c, w in zip(reversed(coefficients[d % 6][: order - 1]), reversed(weights[d % 6][: order - 1])):
        value = c + x * value
        weight = w + x * weight
    return x * value, DEFECT_SERIES_TOL + 1.01 * _U * x * weight


def _direct_defect(d: int) -> tuple[float, float]:
    """E(d) = sum_{a=0}^{d-1} g(a/d) - d kappa_f and its error bound, in libm.

    g(a/d) = g((d - a)/d), so the sum is log 2 at a = 0 (and at a = d/2 for
    even d) plus twice the terms 1 <= a < d/2, each log max(1, |x|) of
    x = 2 cos(t), t = fl(2 pi a / d), ``conjugates_fast``'s formula.
    math.fsum rounds the float terms and d copies of -kappa_f once. Error
    bound against the exact sum minus d kappa_f, term by term:
    - t is off by at most 2.5000001 u t (ORBIT_COS_ERROR's derivation), and
      moves 2 cos by 2 |sin| times that, with |sin t| <= sqrt(1 - c^2) + 1e-7
      for c = fl(cos t) (c is within 2u of cos t) and the 1e-7 also covering
      |sin| over the interval; libm's cos is within 1 ulp <= 2 u |c|; so x is
      off by at most delta = (5.0000002 t (sqrt(1 - c^2) + 1e-7) + 4 |c|) u,
      which never exceeds ORBIT_COS_ERROR;
    - log max(1, |x|) moves by at most delta / max(1, |x| - delta), and not
      at all where |x| <= 1 - delta;
    - libm's log is within 1 ulp <= 2 u y of each term y;
    - the sum rounds once, u |E|.
    The 1% pad covers the rounding of the bound itself.
    """
    two_pi, log2 = 2.0 * math.pi, math.log(2.0)
    terms = [log2, log2] if d % 2 == 0 else [log2]
    moved = 0.0
    for a in range(1, (d + 1) // 2):
        t = two_pi * a / d
        c = math.cos(t)
        x = abs(2.0 * c)
        delta = (5.0000002 * t * (math.sqrt(1.0 - c * c) + 1e-7) + 4.0 * abs(c)) * _U
        if x > 1.0 - delta:
            moved += 2.0 * delta / max(1.0, x - delta)
            if x > 1.0:
                terms.append(2.0 * math.log(x))
    logs = math.fsum(terms)
    value = math.fsum(terms + [-LOG_PLUS_INTEGRAL] * d)
    return value, 1.01 * (moved + 2 * _U * logs + _U * abs(value))


@lru_cache(maxsize=None)
def _orbit_height_defect(d: int) -> tuple[float, float]:
    """E(d) = sum_{a=0}^{d-1} log max(1, |2 cos(2 pi a/d)|) - d kappa and a
    bound on its error; below DEFECT_SERIES_FROM, kappa is LOG_PLUS_INTEGRAL
    itself (its error cancels in ``orbit_generator_heights``)."""
    return _direct_defect(d) if d < DEFECT_SERIES_FROM else _series_defect(d)


def orbit_generator_height(n: int) -> HeightValue:
    """Height h(alpha_n) of alpha_n = zeta_n + 1/zeta_n; the one-order case of
    ``orbit_generator_heights``, reading E(d) for the divisors d of n only."""
    return orbit_generator_heights((n,))[0]


def orbit_generator_heights(orders) -> list[HeightValue]:
    """h(alpha_n) for every n in orders, each from O(tau(n)) closed-form terms.

    h(alpha_n) is the Mahler-measure formula of weil_height_algebraic (psi_n
    is monic): the mean of g(a/n) = log max(1, |2 cos(2 pi a/n)|) over the
    coprime a <= n/2, or over all coprime a mod n, as g(t) = g(1 - t). By
    Moebius inversion over the divisors d of n, with kappa the mean of g
    (LOG_PLUS_INTEGRAL) and E(d) = sum_{a=0}^{d-1} g(a/d) - d kappa,

        h(alpha_n) = kappa + (1/phi(n)) sum_{d | n} mu(n/d) E(d),   n >= 3,

    since sum mu(n/d) d = phi(n); h = log 2 for n <= 2. E(d) comes from a
    direct libm sum for d < DEFECT_SERIES_FROM and from its Euler-Maclaurin
    series (``_defect_series``) above, once per d per process, so a value
    does not depend on the other orders asked for.

    Error bound: the E(d) bounds over phi(n); math.fsum's rounding of the
    Moebius sum s, u |s| / phi(n); the division and the addition of kappa_f,
    u each; and kappa_f's own error, which cancels between the direct terms
    (they subtract kappa_f) and leaves |kappa_f - kappa| |sum_{d >= D0} mu(n/d) d|
    / phi(n) from the series terms, D0 = DEFECT_SERIES_FROM. The 1% pad covers
    the rounding of the bound itself. The direct E(d) bounds add up over
    sum_{d | n, d < D0} d / phi(n) times as many terms as the orbit has, so
    an order with many small divisors can get a looser bound than the mean
    over its own conjugates with ORBIT_COS_ERROR each would give: 15 orders
    n <= 6000 do, by at most 1.78x (n = 6: 3.9e-15 against 2.2e-15).

    Since |E(d)| <= C / d for every d >= 1 with C = 3.628 and m = phi(n)/2,
    |h(alpha_n) - kappa| m <= (1/2) sum_{d | n} |E(d)| <= (C/2) sigma(n)/n:
    the equidistribution error of the orbit's logs. The leading series term
    is -(2 pi / sqrt(3)) / d = -3.62760 / d at d = 0 mod 6; the test suite
    proves C from the certified E(d) for d < 10^4 (at most 3.627599) and the
    order-7 series with its remainder above (3.627599).
    """
    out = []
    for n in orders:
        if n <= 2:
            log2 = math.log(2.0)
            out.append(HeightValue(log2, 2 * _U * log2, "mahler-numeric"))
            continue
        terms, err, phi, series_phi = [], 0.0, 0, 0
        for d, mu in moebius_divisors(n):
            e, e_err = _orbit_height_defect(d)
            terms.append(mu * e)
            err += e_err
            phi += mu * d
            if d >= DEFECT_SERIES_FROM:
                series_phi += mu * d
        s = math.fsum(terms)
        q = s / phi
        v = LOG_PLUS_INTEGRAL + q
        bound = 1.01 * (err / phi + _U * abs(s) / phi + _U * abs(q) + _U * abs(v))
        out.append(HeightValue(v, bound + LOG_PLUS_INTEGRAL_ERROR * abs(series_phi) / phi, "mahler-numeric"))
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
