"""Weil heights, the dynamical canonical height for Chebyshev maps, and the
Dobrowolski-type height floor.

The canonical height is a sum of local heights (Call & Silverman, Compositio
Math. 89, 1993): every T_d has good reduction at every prime, where the local
height is log max(1, |x|_p), and at the real place it is the Green's function
g(z) = log|w| of the Julia set [-2, 2], z = w + 1/w with |w| >= 1 (Baker &
Rumely, 2010). ``green_function`` is the one kernel for g, with an error
bound derived in its docstring; a rational near +-2 or past float range is
read from its integers, so nothing cancels or overflows, and an algebraic
embedding adds the spread of g over its certified disc. The equilibrium
potential and the real-place lambda integral (``equidist``) read it too.

The height of the order-N preperiodic point is read in closed form, not
summed over its phi(N)/2 conjugates: a Moebius sum over the divisors d of N
of the defect E(d) of the d-point Riemann sum of log max(1, |2 cos 2 pi t|),
each E(d) a short libm sum (d < 100) or an Euler-Maclaurin series
(``orbit_generator_heights``); ``orbit_height_defects`` reads every E(d) up
to a bound in one pass, for the real-place discrepancy sweep of ``equidist``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache

from .algebraic import AlgebraicNumber, algebraic_number
from .chebyshev import ChebMap, is_preperiodic_rational, moebius_divisors, orbit_size
from .errors import ChebdynError, DomainError, PrecisionError
from .numerics import ApproxComplex
from .records import record
from .roots import complex_roots

DEGREE_CAP = 16
DEFAULT_DOBROWOLSKI_C = 0.25

@record
class HeightValue:
    value: float
    error_bound: float
    method: str  # "exact-rational", "mahler-numeric" or "closed-form"

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


#: kappa = int log+|x| dmu(x) = (2/pi) int_0^{pi/3} log(2 cos t) dt, the mean
#: of log max(1, |2 cos 2 pi t|) over t in [0, 1], rounded to the nearest
#: double. In closed form kappa = Cl_2(pi/3) / pi with Clausen's Cl_2, which
#: is Smyth's Mahler measure m(1 + x + y) = 3 sqrt(3) L(chi_-3, 2) / (4 pi)
LOG_PLUS_INTEGRAL = 0.32306594721945053
#: |LOG_PLUS_INTEGRAL - kappa| is at most half an ulp: kappa lies in [1/4, 1/2)
LOG_PLUS_INTEGRAL_ERROR = 2.0**-55
#: kappa - LOG_PLUS_INTEGRAL rounded to the nearest double, within 2^-109 of it
LOG_PLUS_INTEGRAL_LOW = -1.9185080819452927e-17

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
    bounds the whole float error of term j in ``_series_defects``.
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


@lru_cache(maxsize=None)
def _series_terms(order: int) -> list[list[tuple[float, float]]]:
    """(e_j, weight_j) for j = order, ..., 2 (Horner's order) at each
    residue d mod 6: the rows of ``_defect_series`` an order-J series reads."""
    coefficients, weights, _ = _defect_series()
    return [list(zip(reversed(c[: order - 1]), reversed(w[: order - 1]))) for c, w in zip(coefficients, weights)]


def _series_defects(lo: int, hi: int) -> list[tuple[float, float]]:
    """E(d) and its error bound for lo <= d < hi from the Euler-Maclaurin
    series, lo >= DEFECT_SERIES_FROM.

    d takes the least order J with d >= thresholds[J]; the thresholds fall
    as J rises, so the orders are read band by band. Horner in x = fl(1/d)
    over e_J .. e_2 and one last product by x: term j meets at most 2 j - 2
    roundings there and (j - 1) u from x, so with its coefficient's
    (2 j + 2) u it is off by at most (5 j + 1) u |e_j| d^(1-j) (to first
    order; the 1% pad covers the rest), besides the remainder.
    """
    thresholds = _defect_series()[2]
    out, start = [], lo
    for order in range(len(thresholds) - 1, 1, -1):
        stop = min(hi, thresholds[order - 1])
        if start >= stop:
            continue
        rows = _series_terms(order)
        for d in range(start, stop):
            x = 1.0 / d
            value = weight = 0.0
            for c, w in rows[d % 6]:
                value = c + x * value
                weight = w + x * weight
            out.append((x * value, DEFECT_SERIES_TOL + 1.01 * _U * x * weight))
        start = stop
    return out


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
    return _direct_defect(d) if d < DEFECT_SERIES_FROM else _series_defects(d, d + 1)[0]


def orbit_height_defects(n_max: int) -> list[tuple[float, float]]:
    """(E(d), its error bound) for 0 <= d <= n_max, (0.0, 0.0) at d = 0: the
    values of ``_orbit_height_defect`` bit for bit, the series part read in
    one pass over its order bands."""
    direct = [_orbit_height_defect(d) for d in range(1, min(n_max + 1, DEFECT_SERIES_FROM))]
    return [(0.0, 0.0), *direct, *_series_defects(DEFECT_SERIES_FROM, n_max + 1)]


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
        terms, err, phi, series_phi = [], 0.0, 2 * orbit_size(n), 0
        for d, mu in moebius_divisors(n):
            e, e_err = _orbit_height_defect(d)
            terms.append(mu * e)
            err += e_err
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

#: a rational reads |x| - 2 from its integers below 2^-NEAR_TWO_BITS, where
#: x * x - 4 would cancel more than about 8 bits
NEAR_TWO_BITS = 8
#: a numerator longer than its denominator by more bits than this has
#: g(x) = log|x| to within 4 / x^2
GREEN_LOG_BITS = 60
_LN2 = math.log(2.0)


def _log_ratio(a: int, b: int) -> float:
    """log(a / b) for integers a >= b >= 1, within 4 u (1 + log(a / b)): the
    correctly rounded a / b, or past float range a / (b 2^k) in (1/2, 2)
    plus k log 2, each log within 1 ulp (2 u)."""
    k = a.bit_length() - b.bit_length()
    if k < 1000:
        return math.log(a / b)
    return math.log(a / (b << k)) + k * _LN2


def _sqrt_ratio(n: int, d: int) -> float:
    """sqrt(n / d) for positive integers, within 1.5 u: the quotient is
    scaled into [1/4, 4] by an even power of two, so nothing over- or
    underflows above the subnormal range."""
    k = (d.bit_length() - n.bit_length()) // 2
    if k >= 0:
        return math.ldexp(math.sqrt((n << 2 * k) / d), -k)
    return math.ldexp(math.sqrt(n / (d << -2 * k)), -k)


def _green_from_rho(rho: float) -> float:
    """arccosh(1 + rho^2) = log1p(rho (rho + sqrt(rho^2 + 2))). A relative
    error k u in rho costs (2 k + 6) u g: 2 k + 1 in rho^2, 2 k + 2 with 2
    added, k + 2 in the sqrt, k + 3 in the sum, 2 k + 4 in the product;
    log1p's condition number is at most 1 and libm rounds within 2 u."""
    return math.log1p(rho * (rho + math.sqrt(rho * rho + 2.0)))


def _green_rational(x: Fraction) -> HeightValue:
    a, q = abs(x.numerator), x.denominator
    excess = a - 2 * q  # q (|x| - 2)
    if excess <= 0:
        return HeightValue(0.0, 0.0, "closed-form")
    if excess << NEAR_TWO_BITS < q:
        g = _green_from_rho(_sqrt_ratio(excess, 2 * q))
        return HeightValue(g, 1.01 * 9 * _U * g + 2.0**-1060, "closed-form")
    if a.bit_length() - q.bit_length() <= GREEN_LOG_BITS:
        big = a / q
        disc = big * big - 4.0
        g = math.log((big + math.sqrt(disc)) / 2.0)
        return HeightValue(g, 1.01 * _U * (1.5 * big * big / disc + 2.5 + 2.0 * g), "closed-form")
    log_abs = _log_ratio(a, q)
    return HeightValue(log_abs, 4.04 * _U * (1.0 + log_abs) + 2.0**-118, "closed-form")


def _green_disc(z: ApproxComplex) -> HeightValue:
    c, r = z.value, z.error_bound
    x, y = abs(c.real), abs(c.imag)
    if y <= r and x + r <= 2.0:
        return HeightValue(0.0, 0.0, "closed-form")
    e, s = x - 2.0, x + 2.0
    d1, d2 = math.hypot(e, y), math.hypot(s, y)
    if e >= 0.0:
        rho = 0.5 * math.sqrt(d1 + (e * (x + 6.0) + y * y) / (d2 + 4.0))
    else:
        rho = 0.5 * y * math.sqrt(1.0 / (d1 - e) + (1.0 - e / (d2 + s)) / (d2 + 4.0))
    g = _green_from_rho(rho)
    bound = 23 * _U * g
    if r > 0.0:
        low = rho * rho * (1.0 - 20 * _U) - 0.5 * r
        bound += min(math.sqrt(r), 0.5 * r / math.sqrt(low * (low + 2.0)) if low > 0.0 else math.inf)
    return HeightValue(g, 1.01 * bound + 2.0**-1060, "closed-form")


def green_function(x) -> HeightValue:
    """The real-place local height g(x) = log|w|, x = w + 1/w with |w| >= 1:
    the Green's function of [-2, 2] (0 on it) and the equilibrium potential
    int log|t - x| dmu(t), of an int, Fraction, float (read exactly), complex
    (an exact point) or AlgebraicNumber (its certified embedding disc).

    The level set |w| = R is the ellipse with foci +-2 and distance sum
    2 (R + 1/R), so g = arccosh(1 + rho^2), rho^2 = (|x - 2| + |x + 2|) / 4 - 1
    (``_green_from_rho`` bounds the rounding). For x = +-a/q, u the unit
    roundoff:
    - a <= 2 q: 0.
    - |x| - 2 < 2^-NEAR_TWO_BITS: rho^2 = (a - 2 q) / (2 q) from the
      integers (``_sqrt_ratio``), no cancellation: 9 u g.
    - |x| < 2^61: the textbook log((X + sqrt(X^2 - 4)) / 2), X = fl(|x|).
      X^2 - 4 is off by (3 X^2 / (X^2 - 4) + 1) u (about 8 bits at most),
      X + sqrt by (1.5 X^2 / (X^2 - 4) + 2.5) u, which the log adds, plus
      2 u g. The rho form would be tighter, but the real-place lambda
      integral log+|x| + kappa - g, and every real-place row, would move
      by an ulp either way: their own roundings dominate there.
    - beyond: log|x| (``_log_ratio``), as 0 < log|x| - g = log1p(w^-2)
      <= 4 / x^2 < 2^-118, so no size of x overflows.
    Complex x with a disc of radius r: by symmetry c = e + 2 + i y with
    e + 2 = |Re x| and y = |Im x|, d1 = |c - 2|, d2 = |c + 2|. Then
    4 rho^2 = d1 + (e (e + 8) + y^2) / (d2 + 4) for e >= 0, and
    y^2 (1 / (d1 - e) + (1 - e / (d2 + e + 4)) / (d2 + 4)) for e < 0, every
    term nonnegative, by d2 - 4 = (d2^2 - 16) / (d2 + 4), d1 + e = y^2 /
    (d1 - e) and d2 - e - 4 = y^2 / (d2 + e + 4). Counting roundings (e
    exact near 2, hypot within 2 u) puts rho within 8.5 u: 23 u g. Over
    the disc rho^2 moves by at most r / 2 (each distance is 1-Lipschitz),
    and arccosh(1 + s) is concave and 0 at 0, so subadditive: g moves by at
    most arccosh(1 + r / 2) <= sqrt(r) (Hoelder-1/2, for discs at +-2), and
    by the mean value theorem at most (r / 2) / sqrt(s (s + 2)) when
    s = rho^2 - r / 2 > 0 (Lipschitz away from +-2; fl(rho)^2 is lowered by
    20 u). A disc with y <= r and e + r <= 0 is read as a real root in
    [-2, 2], g = 0: a root off the axis there would have its mirror image,
    also a root, outside the disc but within r + 2 y of c. The 1% pads
    cover second-order terms and the bounds' rounding, and 2^-1060 the
    subnormal range.
    """
    if isinstance(x, AlgebraicNumber):
        return _green_rational(x.as_fraction()) if x.is_rational else _green_disc(x.embedding)
    if isinstance(x, complex):
        return _green_disc(ApproxComplex(x, 0.0))
    return _green_rational(Fraction(x))


def log_plus(x) -> float:
    """log max(1, |x|) of the inputs ``green_function`` takes; a rational's
    from its integers (``_log_ratio``), so no size of x overflows."""
    if isinstance(x, AlgebraicNumber):
        x = x.as_fraction() if x.is_rational else x.embedding.value
    if isinstance(x, complex):
        return math.log(abs(x)) if abs(x) > 1.0 else 0.0
    x = Fraction(x)
    return _log_ratio(abs(x.numerator), x.denominator) if abs(x) > 1 else 0.0


def _canonical_sum(leading: int, local: list[HeightValue], degree: int) -> HeightValue:
    """(log|leading| + sum of the local heights g) / degree; besides the
    local bounds, 4 u (1 + log|leading|) for math.log of the integer and one
    rounding each for math.fsum and the division."""
    log_lead = math.log(leading) if leading > 1 else 0.0
    total = math.fsum([log_lead, *(g.value for g in local)])
    value = total / degree
    err = 4.04 * _U * (1.0 + log_lead) + sum(g.error_bound for g in local) + _U * abs(total)
    return HeightValue(value, 1.01 * (err / degree + _U * abs(value)), "closed-form")


def canonical_height(x, cheb: ChebMap | int = 2, tol: float = 1e-9) -> HeightValue:
    """Call-Silverman canonical height of x for the degree-d Chebyshev system.

    x may be an int, Fraction, or AlgebraicNumber of degree D with leading
    coefficient a and conjugates beta_i: h = (log|a| + sum_i g(beta_i)) / D
    (``green_function``), log q + g(p/q) for p/q in lowest terms; the roots
    are tightened until the bound meets tol. The value is the same for
    every d >= 2, as the commuting T_d share one canonical height; d is
    still checked. Vanishes exactly on preperiodic points. Raises
    PrecisionError, carrying the best value, when the bound exceeds tol.
    """
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    if isinstance(cheb, int):
        ChebMap(cheb)  # d >= 2
    if not isinstance(x, AlgebraicNumber) or x.is_rational:
        x = x.as_fraction() if isinstance(x, AlgebraicNumber) else Fraction(x)
        if is_preperiodic_rational(x):
            return HeightValue(0.0, 0.0, "exact-rational")
        best = _canonical_sum(x.denominator, [green_function(x)], 1)
    elif x.is_preperiodic:
        return HeightValue(0.0, 0.0, "exact-rational")
    elif x.degree > DEGREE_CAP:
        raise DomainError(f"degree {x.degree} exceeds the supported cap {DEGREE_CAP}")
    else:
        best = None
        for prec_exp in (13, 20, 30, 45, 60):
            try:
                roots = complex_roots(x.minpoly, 10.0 ** (-prec_exp))
            except PrecisionError:
                continue
            h = _canonical_sum(abs(x.leading), [_green_disc(a) for a in roots], x.degree)
            if best is None or h.error_bound < best.error_bound:
                best = h
            if h.error_bound <= tol:
                break
    if best is None or best.error_bound > tol:
        raise PrecisionError("canonical height not certified within tol at the precision ceiling", best=best)
    return best


@record
class SampledBeta:
    label: str
    value: object
    degree: int
    height: float


def sample_betas(rng: random.Random, trials: int, height_cap: float, degree_cap: int) -> list[SampledBeta]:
    """Deterministic mixed sample of rational and quadratic wandering points
    of Weil height at most height_cap (the uniform-count experiment's draw).

    Raises DomainError when no such point can be drawn: degree_cap < 1, a
    negative cap, a cap below log 2 for rationals alone (no wandering
    rational has a smaller height, while the quadratic i has height 0), or
    a cap whose e^cap overflows a double."""
    if degree_cap < 1:
        raise DomainError("the degree cap must be at least 1")
    floor = math.log(2) if degree_cap == 1 else 0.0
    if height_cap + 1e-9 < floor:
        raise DomainError(
            f"no wandering point of degree <= {degree_cap} has Weil height <= {height_cap} (the least is {floor:.6g})"
        )
    try:
        bound = max(3, int(math.exp(height_cap)))
    except OverflowError:
        raise DomainError(f"height cap {height_cap} is too large: e^cap overflows a double") from None
    out: list[SampledBeta] = []
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
