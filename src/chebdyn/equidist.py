"""The equilibrium measure on [-2, 2], logarithmic potentials, orbit-averaged
proximity, and the pairing-style convergence diagnostics.

The canonical measure of the Chebyshev system at the real place is
dmu = (1/pi) dx / sqrt(4 - x^2) on [-2, 2]; under x = 2 cos(t) it becomes
the uniform measure (1/pi) dt on [0, pi], which is how every integral here
is computed. Finite-place measures contribute nothing to the proximity
integrals (the system has good reduction everywhere); every report states
this convention.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .algebraic import AlgebraicNumber
from .chebyshev import PreperiodicOrbit, cheb_eval, is_preperiodic_rational, moebius_sums, orbit_size
from .chebyshev import conjugates_fast  # noqa: F401  (traced under this module by bench/tracing.py)
from .errors import DomainError, PreperiodicInputError
from .factorint import arithmetic_table, padic_valuation
from .heights import (
    DEFECT_SERIES_FROM,
    LOG_PLUS_INTEGRAL,
    LOG_PLUS_INTEGRAL_LOW,
    HeightValue,
    _log_ratio,
    canonical_height,
    green_function,
    log_plus,
    orbit_generator_height,
    orbit_generator_heights,
    orbit_height_defects,
    weil_height_rational,
)
from .integrality import (
    ARCH,
    PairingSieve,
    Place,
    _pairing_beta,
    _scaled_chebyshev,
    pairing_value,
)
from .records import record

#: finite-place proximity integrals vanish by good reduction
FINITE_PLACE_INTEGRAL = 0.0
#: fractional bits of the fixed-point root of beta (``_unit_root``)
ROOT_BITS = 128

_U = 2.0**-53  # float64 unit roundoff


def _rational(beta) -> Fraction:
    return beta.as_fraction() if isinstance(beta, AlgebraicNumber) else Fraction(beta)


def _unit_root(beta: Fraction) -> tuple[int, int]:
    """(A, B) with |A + i B - 2^P z| < 3, P = ROOT_BITS, where beta = w + 1/w
    with |w| >= 1, and z = w^-1 (real, B = 0) for |beta| >= 2 and z = w
    (Im w > 0) for |beta| < 2, so |z| <= 1 either way. For beta = r/s:
    - |beta| >= 2: |z| = 2 s / D, D = |r| + sqrt(r^2 - 4 s^2) >= 2. The
      integer denominator (|r| << P) + isqrt((r^2 - 4 s^2) << 2P) is D 2^P
      less something in [0, 1), which raises 2^P |z| <= 2^P by at most
      2^P / (D 2^P - 1) <= 1; the floor division takes off less than 1.
    - |beta| < 2: z = (r + i sqrt(4 s^2 - r^2)) / (2 s). The real part
      floors once (< 1); the imaginary part floors under the square root,
      which moves the root by less than 1, and once after it (< 1). So the
      error is below sqrt(1 + 2^2) < 3.
    """
    r, s, bits = beta.numerator, beta.denominator, ROOT_BITS
    disc = r * r - 4 * s * s
    if disc >= 0:
        x = (2 * s << 2 * bits) // ((abs(r) << bits) + math.isqrt(disc << 2 * bits))
        return (x if r > 0 else -x), 0
    return (r << bits) // (2 * s), math.isqrt((-disc << 2 * bits) // (4 * s * s))


def equilibrium_potential(beta) -> float:
    """The logarithmic potential int log|x - beta| dmu(x): the Green's
    function g(beta) of [-2, 2] (``heights.green_function``, which derives
    its error bound). Validated against adaptive quadrature of the defining
    integral in the test suite.
    """
    return green_function(beta).value


def quadrature_potential(beta, prec_digits: int = 25) -> float:
    """Direct adaptive quadrature of (1/pi) int_0^pi log|2cos t - beta| dt.

    Independent oracle for equilibrium_potential; splits at the interior
    singularity when beta lies on the support.
    """
    import mpmath as mp

    z = complex(beta)
    with mp.workdps(prec_digits):
        zz = mp.mpc(z)

        def f(t):
            return mp.log(abs(2 * mp.cos(t) - zz))

        points = [0, mp.pi]
        if z.imag == 0 and -2 < z.real < 2:
            points = [0, mp.acos(mp.mpf(z.real) / 2), mp.pi]
        val = mp.quad(f, points) / mp.pi
        return float(val)


def log_plus_integral() -> float:
    """kappa = int log+ |x| dmu(x) = (2/pi) int_0^{pi/3} log(2 cos t) dt.

    In closed form kappa = Cl_2(pi/3) / pi with Clausen's Cl_2, which is
    Smyth's Mahler measure m(1 + x + y) = 3 sqrt(3) L(chi_-3, 2) / (4 pi);
    ``heights.LOG_PLUS_INTEGRAL`` is that value rounded to the nearest double.
    """
    return LOG_PLUS_INTEGRAL


def lambda_integral(beta, place: Place = ARCH) -> float:
    """int lambda_{x,v}(beta) dmu_v(x) for the canonical measure at v, for
    rational beta.

    At the real place this assembles to log+|beta| + kappa - g(beta). On
    [-2, 2], g = 0 and it is log+|beta| + kappa, log+ read from the integers
    (``heights.log_plus``). For |beta| > 2, with beta = w + 1/w and |w| > 1,
    log|beta| - log|w| = log1p(w^-2), so it is kappa + log1p(w^-2), w^-1
    read from the integers in fixed point (``_unit_root``): nothing cancels
    and no size of beta overflows a float, where the difference of two logs
    of size log|beta| would lose digits. At finite places the canonical
    measure sits at the integral points and the integral vanishes by good
    reduction.
    """
    if not place.is_archimedean:
        return FINITE_PLACE_INTEGRAL
    beta = _rational(beta)
    if abs(beta) <= 2:
        return log_plus(beta) + log_plus_integral()
    x = _unit_root(beta)[0]
    return log_plus_integral() + math.log1p(x * x / (1 << 2 * ROOT_BITS))


# ---------------------------------------------------------------------------
# orbit averages of the local proximity
# ---------------------------------------------------------------------------


def _arch_average_mp(orbit: PreperiodicOrbit, beta: Fraction, prec: int) -> float:
    import mpmath as mp

    r, s = beta.numerator, beta.denominator
    with mp.workprec(prec):
        denom_b = mp.mpf(max(abs(r), s))
        total = mp.mpf(0)
        for i in range(orbit.size):
            c = orbit.conjugate_mp(i, prec)
            total += -mp.log(abs(c * s - r) / (max(abs(c), 1) * denom_b))
        return float(total / orbit.size)


def finite_lambda_average(order: int, beta, p: int) -> float:
    """(1/|P|) sum over the order-N orbit of lambda_{sigma(alpha), p}(beta).

    Exact: every conjugate is integral, so for p-integral beta each
    v_p(beta - sigma(alpha)) is >= 0 and they sum to v_p(F_N) of the pairing
    value; the average is v_p(F_N) log(p) / |P|. When p divides the
    denominator of beta the chordal distance is 1 at every conjugate and the
    average is 0.
    """
    if isinstance(beta, AlgebraicNumber):
        if not beta.is_rational:
            raise DomainError("finite-place orbit averages take a rational beta")
        beta = beta.as_fraction()
    beta = Fraction(beta)
    if padic_valuation(beta, p) < 0:
        return 0.0
    v = padic_valuation(pairing_value(order, beta), p)
    return float(v) * math.log(p) / orbit_size(order)


def real_place_lambda_average(h_beta: float, h_alpha: float, size: int, log_pairing: float) -> float:
    """(1/|P|) sum over the order-N orbit of lambda_{sigma(alpha), inf}(beta),
    for rational beta, from h(beta), h(alpha_N), |P| and log|F_N| by the
    product formula.

    lambda summed over every place and averaged over the orbit is
    h(beta) + h(alpha_N) (``total_lambda_identity_check``), and the finite
    places add up to log|F_N| / |P| exactly, so the real-place average is
    h(beta) + h(alpha_N) - log|F_N| / |P|. No term divides by a gap
    |x - beta|, so a beta crowding a conjugate costs no accuracy, where a
    float64 mean of the lambdas is off by up to ORBIT_COS_ERROR / gap.
    """
    return h_beta + h_alpha - log_pairing / size


def orbit_lambda_average(orbit: PreperiodicOrbit, beta, place: Place = ARCH) -> float:
    """(1/|P|) sum over conjugates of lambda_{sigma(alpha), v}(beta), rational beta.

    Both places read the exact pairing value F_N: the real place through
    the product formula (``real_place_lambda_average``), a finite p through
    v_p(F_N) (``finite_lambda_average``).
    """
    if not place.is_archimedean:
        return finite_lambda_average(orbit.order, beta, place.p)
    if isinstance(beta, AlgebraicNumber):
        if not beta.is_rational:
            raise DomainError("real-place orbit averages take a rational beta")
        beta = beta.as_fraction()
    beta = Fraction(beta)
    return real_place_lambda_average(
        weil_height_rational(beta).value,
        orbit_generator_height(orbit.order).value,
        orbit.size,
        math.log(abs(pairing_value(orbit.order, beta))),
    )


@record
class LambdaIdentity:
    """Both sides of the exact all-places proximity identity.

    Summing the orbit-averaged lambda over the real place and every meeting
    prime (denominator primes contribute zero) must equal
    h(beta) + h(alpha): the product formula in local coordinates.
    """

    orbit_order: int
    beta: str
    lhs: float
    rhs: float
    gap: float
    arch_average: float
    finite_total: float


def total_lambda_identity_check(orbit: PreperiodicOrbit, beta, prec: int = 96) -> LambdaIdentity:
    """Assemble sum_v orbit-average lambda_v against h(beta) + h(alpha).

    The finite part is summed exactly over all primes at once: by unique
    factorization, sum_p (log p) v_p(F) = log|F| for the pairing value F,
    which already accounts for every meeting prime and gives denominator
    primes their zero contribution.
    """
    import mpmath as mp

    beta = beta.as_fraction() if isinstance(beta, AlgebraicNumber) else Fraction(beta)
    f_val = pairing_value(orbit.order, beta)
    arch = _arch_average_mp(orbit, beta, prec)
    with mp.workprec(prec):
        finite = float(mp.log(abs(mp.mpf(f_val))) / orbit.size) if abs(f_val) > 1 else 0.0
    lhs = arch + finite
    rhs = weil_height_rational(beta).value + orbit_generator_height(orbit.order).value
    return LambdaIdentity(
        orbit_order=orbit.order,
        beta=str(beta),
        lhs=lhs,
        rhs=rhs,
        gap=abs(lhs - rhs),
        arch_average=arch,
        finite_total=finite,
    )


# ---------------------------------------------------------------------------
# discrepancy records and pairing estimates
# ---------------------------------------------------------------------------


@record
class DiscrepancyRecord:
    orbit_order: int
    orbit_size: int
    place: str
    orbit_average: float
    integral_value: float
    discrepancy: float


def discrepancy(orbit: PreperiodicOrbit, beta, place: Place = ARCH) -> DiscrepancyRecord:
    """|orbit average - integral| of lambda at one place, the orbit average
    read from the exact pairing value F_N (``orbit_lambda_average``)."""
    avg = orbit_lambda_average(orbit, beta, place)
    integral = lambda_integral(beta, place)
    return DiscrepancyRecord(
        orbit_order=orbit.order,
        orbit_size=orbit.size,
        place=str(place),
        orbit_average=avg,
        integral_value=integral,
        discrepancy=abs(avg - integral),
    )


def _root_logs(beta: Fraction, n_max: int) -> tuple[list[float], list[float]]:
    """L(d) = log|1 - w^-d| and a bound on its error for 1 <= d <= n_max
    (index 0 unused), beta = w + 1/w with |w| >= 1. As 2 - T_d(beta) =
    -w^d (1 - w^-d)^2, log|G_d| = d log s + d g(beta) + 2 L(d) for the
    factors G_d = s^d (2 - T_d(beta)) of ``integrality.PairingSieve``.

    With z from ``_unit_root`` (|1 - w^d| = |1 - w^-d| on the unit circle),
    Z_d = Z_{d-1} Z >> P in P = ROOT_BITS bit fixed point; each part of the
    product floors once, so it is off by rho < sqrt(2) units of 2^-P. As
    |z| <= 1 and Z is off by delta < 3 units, e_d = |Z_d - 2^P z^d| obeys
    e_d <= e_{d-1} (1 + delta 2^-P) + delta + rho, so e_d < 2 d (delta + rho)
    < 9 d units while (1 + delta 2^-P)^d <= 2, that is for d < 2^(P-3).
    M = (2^P - A_d)^2 + B_d^2 is 2^(2P) |1 - Z_d 2^-P|^2 exactly. When
    9 d <= 2^-64 sqrt(M), log|1 - z^d| is within 1.0001 * 9 d / sqrt(M) of
    log(sqrt(M) 2^-P), which reads as log1p(y) / 2 with y = M 2^-2P - 1
    rounded once (|y| <= 1/2, where log1p's condition number is below 1.45,
    plus libm's ulp: 3.45 u |L|), or as log(M 2^-2P) / 2 (|log| >= log 1.5
    there, so the rounded argument costs u <= 2.47 u |log| and libm 2 u
    more): the float part is within 4.5 u |L|. The 1% pad covers the
    rounding of the bound.

    Any other d (|1 - w^-d| within 2^64 times the fixed-point error) is
    escalated to the exact G_d of the ``_scaled_chebyshev`` recurrence:
    L(d) = (log(|G_d| / s^d) - d g(beta)) / 2 (g = 0 on [-2, 2]), the log
    of the exact ratio within 4.04 u (1 + |log|) (``heights._log_ratio``),
    d g within d err(g) + u d g, and one rounding for the difference. Such
    a d has eps = |1 - w^-d| < 10 d 2^-64, so d g = -log|w^-d| <=
    -log(1 - eps) is tiny next to |2 L(d)| = 2 |log eps| and nothing
    cancels. G_d = 0 means beta lies in an orbit of order dividing d; the
    first such d is that order, rejected as ``pairing_value`` rejects it.
    """
    bits = ROOT_BITS
    one, half = 1 << 2 * bits, 1 << (2 * bits - 1)
    a0, b0 = _unit_root(beta)
    a, b = 1 << bits, 0
    logs, errs, exact = [0.0] * (n_max + 1), [0.0] * (n_max + 1), []
    for d in range(1, n_max + 1):
        a, b = (a * a0 - b * b0) >> bits, (a * b0 + b * a0) >> bits
        m2 = ((1 << bits) - a) ** 2 + b * b
        if (9 * d) ** 2 << 128 > m2:
            exact.append(d)
            continue
        y = m2 - one
        ell = 0.5 * (math.log1p(y / one) if -half <= y <= half else math.log(m2 / one))
        logs[d] = ell
        errs[d] = 1.01 * (4.5 * _U * abs(ell) + 9 * d / math.sqrt(m2))
    if exact:
        _, f, what = _pairing_beta(beta)
        g = green_function(beta)
        wanted, s, s_d = set(exact), beta.denominator, 1
        for d, q in zip(range(1, exact[-1] + 1), _scaled_chebyshev(f)):
            s_d *= s
            if d not in wanted:
                continue
            g_d = abs(2 * s_d - q[0])
            if g_d == 0:
                raise PreperiodicInputError(f"beta = {what} is a conjugate of the order-{d} orbit")
            ratio = _log_ratio(g_d, s_d) if g_d >= s_d else -_log_ratio(s_d, g_d)
            dg = d * g.value
            logs[d] = 0.5 * (ratio - dg)
            err = 4.04 * _U * (1.0 + abs(ratio)) + d * g.error_bound + _U * abs(dg) + _U * abs(ratio - dg)
            errs[d] = 1.01 * 0.5 * err
    return logs, errs


def real_place_defects(beta, n_max: int) -> tuple[list[float], list[float]]:
    """(delta, bound) for 0 <= N <= n_max, rational beta: the signed
    real-place discrepancy delta_N = avg_N - int lambda dmu of the order-N
    orbit (avg_N the mean of lambda_{sigma(alpha), inf}(beta) over it), and
    a bound on the error of delta_N; index 0 is a placeholder. phi(N) is
    read from the arithmetic table (``factorint.arithmetic_table``), so the
    two Moebius sums are of the terms and of their error bounds.

    The product formula reads avg_N = h(beta) + h(alpha_N) - log|F_N| / |P|
    (``real_place_lambda_average``). Put into it h(beta) = log s + log+|beta|
    for beta = r/s, h(alpha_N) = kappa + sum_{d | N} mu(N/d) E(d) / phi(N)
    (``heights.orbit_generator_heights``), the integral log+|beta| + kappa
    - g(beta) (``lambda_integral``), and log|F_N| = (1/2) sum_{d | N} mu(N/d)
    log|G_d| (``integrality.PairingSieve``) with log|G_d| = d (log s + g(beta))
    + 2 L(d) (``_root_logs``). As sum mu(N/d) d = phi(N) = 2 |P|, log s,
    log+|beta|, g(beta) and kappa cancel in the algebra, not in floats:

        delta_N = (1/phi(N)) sum_{d | N} mu(N/d) (E(d) - 2 L(d)),

    the Riemann-sum defect of lambda(., beta) over the orbit. For N <= 2
    (|P| = 1, h(alpha_N) = log 2, +-F_N = prod G_d^mu) the same sum reads
    log 2 - kappa - 2 sum mu(N/d) L(d), as E(1) = log 2 - kappa and E(2) =
    2 log 2 - 2 kappa. So no big integer is built (beyond the rare escalated
    L(d)), and numpy and mpmath stay unloaded.

    Below DEFECT_SERIES_FROM, E(d) subtracts d kappa_f, not d kappa
    (``heights._direct_defect``), so d (kappa - kappa_f) is taken off it
    first, with the double LOG_PLUS_INTEGRAL_LOW (within 2^-109 of kappa -
    kappa_f), at the cost of two roundings; above it, E(d) is against kappa.
    Error bound: each term t_d = fl(E(d) - 2 L(d)) is off by err(E(d)) +
    2 err(L(d)) + u |t_d|, plus that correction's cost; the Moebius sum S
    is exact and rounded once (``chebyshev.moebius_sums``), u |S|, and
    the division by phi(N) once more, u |delta_N|. The 1% pad covers the
    rounding of the bound.
    """
    beta = _rational(beta)
    logs, log_errs = _root_logs(beta, n_max)
    terms, errs = [], []
    for d, ((e, e_err), ell, ell_err) in enumerate(zip(orbit_height_defects(n_max), logs, log_errs)):
        kappa_err = 0.0
        if d < DEFECT_SERIES_FROM:
            e -= d * LOG_PLUS_INTEGRAL_LOW
            kappa_err = _U * (abs(e) + d * abs(LOG_PLUS_INTEGRAL_LOW)) + d * 2.0**-109
        t = e - 2.0 * ell
        terms.append(t)
        errs.append(e_err + 2.0 * ell_err + _U * abs(t) + kappa_err)
    phi = arithmetic_table(n_max).phi
    sums = moebius_sums(terms, n_max)
    spread = moebius_sums(errs, n_max, operator.add)
    delta, bound = [0.0], [0.0]
    for f, total, err in zip(phi[1 : n_max + 1], sums[1:], spread[1:]):
        v = total / f
        delta.append(v)
        bound.append(1.01 * ((err + _U * abs(total)) / f + _U * abs(v)))
    return delta, bound


def arch_discrepancy_fast(beta, n: int) -> DiscrepancyRecord:
    """Real-place discrepancy record of the order-n orbit against a rational
    beta: the one-order case of ``real_place_defects``, the orbit average
    read as the integral plus delta_n."""
    delta, _ = real_place_defects(beta, n)
    integral = lambda_integral(beta, ARCH)
    return DiscrepancyRecord(
        orbit_order=n,
        orbit_size=orbit_size(n),
        place="inf",
        orbit_average=integral + delta[n],
        integral_value=integral,
        discrepancy=abs(delta[n]),
    )


def equidist_rows(beta, place: Place, orders) -> list[tuple[int, int, float]]:
    """(N, orbit size, discrepancy) for each order N in orders, rational beta.

    At the real place each row is |delta_N| of ``real_place_defects``: one
    fixed-point pass for the L(d), one batched pass for the E(d) and Moebius
    sums over the multiples of every squarefree k, for all d, N <= max(orders),
    with no ``PairingSieve`` and no big integer. At a finite place p one
    ``PairingSieve`` pass serves every row: the integral vanishes, so the
    discrepancy is the orbit average v_p(F_N) log(p) / |P| itself
    (``finite_lambda_average``; v_p(F_N) = 0 when p divides the denominator
    of beta).
    """
    if not orders:
        return []
    if place.is_archimedean:
        delta, _ = real_place_defects(beta, max(orders))
        return [(n, orbit_size(n), abs(delta[n])) for n in orders]
    sieve = PairingSieve(beta, max(orders), (place.p,))
    p, log_p = place.p, math.log(place.p)
    return [(n, size, float(sieve.valuation(n, p)) * log_p / size) for n, size in zip(orders, map(orbit_size, orders))]


def _dyadic_integers(logs) -> tuple[list[int], int]:
    """Integers m_i and one shift k with logs[i] == m_i / 2**k exactly.

    A nonzero double v with frexp exponent e is a multiple of 2**(e - 53),
    so k = 53 - (the least exponent) serves every value, and v * 2**k is an
    exact integral double. The logarithm of a double is 0 or at least 2**-54
    in size and at most 745, so k <= 107 and nothing overflows.
    """
    tiny = min((abs(v) for v in logs if v), default=1.0)
    k = 53 - math.frexp(tiny)[1]
    scale = 2.0**k
    return [int(v * scale) for v in logs], k


def fitted_slope(sizes, discrepancies) -> float:
    """Least-squares slope of log(discrepancy) against log(orbit size).

    The points are the floats x = math.log(size), y = math.log(discrepancy)
    of the rows with discrepancy > 0 (exact-vanishing rows are left out).
    The slope is the exact rational (n Sxy - Sx Sy) / (n Sxx - Sx^2) of those
    floats, rounded once to the nearest double: every float is an integer
    over a power of two, so the sums are formed in integers and the one
    rounding is CPython's correctly rounded int division. With fewer than two
    usable rows, or when every usable row has the same size (a zero
    denominator), the slope is reported as 0.
    """
    xs, kx = _dyadic_integers([math.log(size) for size, disc in zip(sizes, discrepancies) if disc > 0])
    if len(xs) < 2:
        return 0.0
    ys, ky = _dyadic_integers([math.log(disc) for disc in discrepancies if disc > 0])
    n, sx = len(xs), sum(xs)
    den = n * sum(map(operator.mul, xs, xs)) - sx * sx
    if den == 0:
        return 0.0
    num = n * sum(map(operator.mul, xs, ys)) - sx * sum(ys)
    # the slope of the unscaled points is num / den * 2**(kx - ky)
    if kx >= ky:
        return (num << (kx - ky)) / den
    return num / (den << (ky - kx))


@record
class PairingEstimate:
    """Convergence of per-orbit total proximity toward its height-pairing limit.

    ``limit_prediction`` = h_phi(beta) + int lambda dmu at the real place
    (finite places integrate to zero by good reduction). ``totals`` carries
    (order, size, total, gap); the empirical rate constant rescales the gap
    by the pairing convergence shape sqrt-size shape.
    """

    beta: str
    limit_prediction: float
    canonical_height: HeightValue
    totals: tuple[tuple[int, int, float, float], ...]
    empirical_rate_constant: float


def az_pairing_estimate(beta, n_max: int, min_size: int = 1, tol: float = 1e-10) -> PairingEstimate:
    """Per-orbit total lambda sums against the pairing limit, for N <= n_max.

    beta must be rational and non-preperiodic. By the product formula the
    total over every place of the orbit-averaged lambda is
    h(beta) + h(alpha_N) (``total_lambda_identity_check``), so no pairing
    value is needed.
    """
    beta = beta.as_fraction() if isinstance(beta, AlgebraicNumber) else Fraction(beta)
    if is_preperiodic_rational(beta):
        raise PreperiodicInputError(f"{beta} is preperiodic")
    h_phi = canonical_height(beta, 2, tol)
    limit = h_phi.value + lambda_integral(beta, ARCH)
    h_beta = weil_height_rational(beta).value
    rows = []
    rate = 0.0
    kept = [(n, size) for n in range(1, n_max + 1) if (size := orbit_size(n)) >= min_size]
    for (n, size), h_alpha in zip(kept, orbit_generator_heights([n for n, _ in kept])):
        total = h_beta + h_alpha.value
        gap = abs(total - limit)
        rows.append((n, size, total, gap))
        if size > 1:
            shape = (1 + math.log(math.sqrt(size))) / math.sqrt(size)
            rate = max(rate, gap / shape)
    return PairingEstimate(
        beta=str(beta),
        limit_prediction=limit,
        canonical_height=h_phi,
        totals=tuple(rows),
        empirical_rate_constant=rate,
    )


def measure_invariance_gap(d: int, monomial_degree: int, prec_digits: int = 25) -> float:
    """|int f(T_d(x)) dmu - int f dmu| for f = x^k: the invariance witness."""
    import mpmath as mp

    with mp.workdps(prec_digits):
        def lhs(t):
            return cheb_eval(d, 2 * mp.cos(t)) ** monomial_degree

        def rhs(t):
            return (2 * mp.cos(t)) ** monomial_degree

        a = mp.quad(lhs, [0, mp.pi]) / mp.pi
        b = mp.quad(rhs, [0, mp.pi]) / mp.pi
        return float(abs(a - b))
