import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from chebdyn import (
    DomainError,
    PrecisionError,
    algebraic_number,
    canonical_height,
    cheb_eval,
    dobrowolski_floor,
    is_prime,
    orbit_generator_height,
    preperiodic_orbit,
    weil_height_algebraic,
    weil_height_rational,
)
from chebdyn.algebraic import AlgebraicNumber
from chebdyn import heights
from chebdyn.chebyshev import ORBIT_COS_ERROR, conjugates_fast, orbit_size
from chebdyn.heights import HeightValue, green_function, orbit_generator_heights
from chebdyn.intpoly import IntPoly
from chebdyn.numerics import ApproxComplex

#: C >= d |E(d)| for every d >= 1, the constant ``orbit_generator_heights``
#: states; its leading series term is -(2 pi / sqrt(3)) / d = -3.62760 / d
ORBIT_HEIGHT_DEFECT_CONSTANT = 3.628


def test_weil_rational_examples():
    assert abs(weil_height_rational(3).value - math.log(3)) < 1e-15
    assert abs(weil_height_rational(Fraction(1, 2)).value - math.log(2)) < 1e-15
    assert weil_height_rational(0).value == 0.0


def test_weil_algebraic_examples():
    golden_conj = algebraic_number([-1, 1, 1])  # 2cos72 and its conjugate
    expect = 0.5 * math.log((1 + math.sqrt(5)) / 2)
    assert abs(weil_height_algebraic(golden_conj).value - expect) < 1e-12

    two = algebraic_number([-2, 1])
    assert abs(weil_height_algebraic(two).value - math.log(2)) < 1e-15

    circle = algebraic_number([5, -6, 5])  # (3 +- 4i)/5, both roots on |z| = 1
    assert abs(weil_height_algebraic(circle).value - 0.5 * math.log(5)) < 1e-12


def test_weil_algebraic_degree_cap():
    coeffs = [1] + [0] * 16 + [1]  # degree 17
    with pytest.raises(DomainError):
        weil_height_algebraic(AlgebraicNumber.with_embedding(IntPoly.from_coeffs(coeffs), 0, ApproxComplex(1 + 0j, 1.0)))


def test_canonical_height_oracles():
    # oracle: x = w + 1/w with |w| >= 1 gives h_phi = log(den) + log|w|
    with mp.workprec(80):
        oracle3 = float(mp.log((3 + mp.sqrt(5)) / 2))
    assert abs(canonical_height(3, 2, 1e-9).value - oracle3) <= 1e-9
    assert abs(canonical_height(Fraction(1, 2), 2, 1e-9).value - math.log(2)) <= 1e-9
    assert canonical_height(2, 2, 1e-9).value == 0.0


def _closed_form_oracle(q, prec=256):
    """log q + log((|x| + sqrt(x^2 - 4)) / 2) at prec bits, the last term
    only for |x| > 2: x = w + 1/w with |w| >= 1."""
    q = Fraction(q)
    with mp.workprec(prec):
        value = mp.log(q.denominator)
        x = abs(mp.mpf(q.numerator) / q.denominator)
        if x > 2:
            value += mp.log((x + mp.sqrt(x * x - 4)) / 2)
        return value


def test_canonical_height_closed_form_agreement():
    rng = random.Random(61)
    for _ in range(60):
        q = Fraction(rng.randint(-300, 300), rng.randint(1, 60))
        if abs(q) <= 2:
            continue
        got = canonical_height(q, 2, 1e-11)
        assert abs(got.value - _closed_form_oracle(q)) <= got.error_bound


def _escape_rate(z, prec):
    """lim log+|T_2^k(z)| / 2^k by iterating z -> z^2 - 2 at prec bits.

    Stops once |z_k| > 2^100, where the rest of the limit, the sum over
    j >= k of log|1 - 2 / z_j^2| / 2^(j+1), is below 2^-198 / 2^k; an orbit
    still bounded after 600 steps contributes at most log 2 / 2^600."""
    with mp.workprec(prec):
        z = mp.mpc(z)
        for k in range(600):
            if abs(z) > mp.mpf(2) ** 100:
                return mp.log(abs(z)) / mp.mpf(2) ** k
            z = z * z - 2
        return mp.mpf(0)


def _definition_oracle(beta, prec=320):
    """The canonical height from its definition: (log|a| + sum over the
    conjugates of the escape rate) / D, the roots from mpmath at prec bits;
    log q + the escape rate of p/q for a rational."""
    with mp.workprec(prec):
        if isinstance(beta, AlgebraicNumber):
            coeffs = list(reversed(beta.minpoly.coeffs))
            roots = mp.polyroots(coeffs, maxsteps=400, extraprec=prec)
            total = mp.log(abs(beta.leading)) + mp.fsum(_escape_rate(r, prec) for r in roots)
            return total / beta.degree
        q = Fraction(beta)
        return mp.log(q.denominator) + _escape_rate(mp.mpf(q.numerator) / q.denominator, prec)


def test_canonical_height_matches_its_definition_within_the_bound():
    near_two = [sign * (2 + Fraction(1, 10**k)) for k in range(1, 31) for sign in (1, -1)]
    near_two += [Fraction(2 * 10**k + 1, 10**k) for k in (15, 60, 200)]
    huge = [Fraction(10**400 + 7, 3), Fraction(-(10**400) - 1, 10**399 + 3), Fraction(3, 10**400 + 1)]
    huge += [Fraction(10**k + 1, 7) for k in (20, 60, 154, 155, 308, 309)]
    a = 3 * 10**12 + 1  # a x^2 - 4 a x + 4 a - 2: roots 2 +- sqrt(2 / a), 8.2e-7 from 2
    algebraic = [algebraic_number([-2, -2, 1]), algebraic_number([4 * a - 2, -4 * a, a])]
    algebraic += [algebraic_number([-2, 0, 0, 1]), algebraic_number([2, -1, 0, 3, 2], 2)]  # complex conjugates
    for beta in near_two + huge + algebraic:
        got = canonical_height(beta, 2, 1e-10)
        assert got.method == "closed-form"
        assert abs(got.value - _definition_oracle(beta)) <= got.error_bound, beta
    # the root 8.2e-7 above 2 adds g = arccosh(x / 2), about sqrt(x - 2) = 9.0e-4, to 2 h
    near = canonical_height(algebraic[1], 2, 1e-10)
    assert 8.9e-4 < 2 * near.value - math.log(a) < 9.1e-4


def _green_oracle(z, prec=320):
    """log|w| for z = w + 1/w with |w| >= 1, at prec bits."""
    with mp.workprec(prec):
        z = mp.mpc(z)
        root = mp.sqrt(z * z - 4)
        return max(abs(mp.log(abs((z + root) / 2))), abs(mp.log(abs((z - root) / 2))))


def test_green_function_near_plus_minus_two_within_its_bound():
    # x * x - 4 cancels near +-2; the kernel reads |x| - 2 from the integers
    for k in range(1, 31):
        for sign in (1, -1):
            x = sign * (2 + Fraction(1, 10**k))
            with mp.workprec(320):
                want = mp.acosh(abs(mp.mpf(x.numerator) / x.denominator) / 2)
            got = green_function(x)
            assert abs(got.value - want) <= got.error_bound, x
            # 9 u g from the integers below 2 + 1/256; the textbook form's
            # cancellation above it costs at most about 8 bits
            assert got.error_bound <= (1.1e-15 if k > 2 else 2e-13) * got.value, x
    # complex points within 1e-12 of +-2, exact as given
    for center in (2, -2):
        for radius in (1e-12, 3e-14, 1e-16):
            for t in range(16):
                z = center + radius * complex(math.cos(t * 0.4), math.sin(t * 0.4))
                got = green_function(z)
                assert abs(got.value - _green_oracle(z)) <= got.error_bound, z
                assert got.error_bound <= 3e-15 * got.value + 1e-300, z


def test_green_function_on_a_grid_and_its_discs():
    rng = random.Random(64)
    points = [complex(rng.uniform(-6, 6), rng.uniform(-3, 3)) for _ in range(300)]
    points += [complex(rng.uniform(-2, 2), 10.0 ** -rng.randint(1, 15)) for _ in range(100)]
    for z in points:
        got = green_function(z)
        assert abs(got.value - _green_oracle(z)) <= got.error_bound, z
    assert green_function(0.5 + 0j).value == green_function(Fraction(-2)).value == 0.0
    # a disc of radius r: the bound covers every point of it
    for z in points[:60]:
        r = 10.0 ** -rng.randint(4, 14)
        got = green_function(AlgebraicNumber.with_embedding(IntPoly.from_coeffs([1, 0, 1]), 0, ApproxComplex(z, r)))
        for t in range(8):
            w = z + r * complex(math.cos(t * 0.8), math.sin(t * 0.8))
            assert abs(got.value - _green_oracle(w)) <= got.error_bound, (z, r)


def test_canonical_height_raises_with_its_best_value_when_tol_is_below_the_bound():
    with pytest.raises(PrecisionError) as info:
        canonical_height(Fraction(7, 3), 2, 1e-20)
    best = info.value.best
    assert isinstance(best, HeightValue) and best.error_bound > 1e-20
    assert abs(best.value - _closed_form_oracle(Fraction(7, 3))) <= best.error_bound
    with pytest.raises(DomainError):
        canonical_height(3, 1)


def test_functional_equation():
    rng = random.Random(62)
    tol = 1e-10
    for _ in range(200):
        d = rng.choice([2, 3, 4])
        q = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        lhs = canonical_height(cheb_eval(d, q), d, tol).value
        rhs = d * canonical_height(q, d, tol).value
        assert abs(lhs - rhs) <= 2 * tol + 1e-9 * (1 + abs(rhs))


def test_weil_minus_canonical_bounded():
    rng = random.Random(63)
    worst = 0.0
    for _ in range(1000):
        q = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        if q == 0:
            continue
        h = weil_height_rational(q).value
        if h > math.log(10**6):
            continue
        gap = abs(h - canonical_height(q, 2, 1e-8).value)
        worst = max(worst, gap)
    # |h - h_phi| <= log 2 for the degree-2 system; keep the observed slack visible
    assert worst <= math.log(2) + 1e-6, worst


def test_vanishes_on_preperiodic_orbits():
    for n in range(1, 21):
        orbit = preperiodic_orbit(n)
        beta = AlgebraicNumber.with_embedding(orbit.minpoly, 0, ApproxComplex(complex(conjugates_fast(n)[0]), 4e-16))
        assert canonical_height(beta, 2, 1e-9).value <= 1e-9


def test_algebraic_canonical_height_oracle():
    # 1 + sqrt(3): one conjugate escapes, the other sits inside [-2, 2]
    beta = algebraic_number([-2, -2, 1])
    with mp.workprec(80):
        b = 1 + mp.sqrt(3)
        oracle = float(mp.log((b + mp.sqrt(b * b - 4)) / 2) / 2)
    assert abs(canonical_height(beta, 2, 1e-10).value - oracle) < 1e-9


def test_dobrowolski_examples():
    assert abs(dobrowolski_floor(10, 0.25) - 0.25 / (10 * math.log(10) ** 3)) < 1e-15
    assert abs(dobrowolski_floor(2, 0.3) - 0.3 / (2 * math.log(2) ** 3)) < 1e-15
    with pytest.raises(DomainError):
        dobrowolski_floor(1)


def test_dobrowolski_golden_ratio_boundary():
    # h((1+sqrt5)/2) = log(phi)/2 = 0.2406... is the smallest degree-2
    # non-torsion height, so a valid constant at D = 2 must satisfy
    # C <= 2 (log 2)^3 h = 0.1602...; the floor honors any such C and the
    # runnable default C = 0.25 overshoots it (reports always print C)
    golden = algebraic_number([-1, -1, 1])  # x^2 - x - 1
    h = weil_height_algebraic(golden).value
    assert h >= dobrowolski_floor(2, 0.15)
    assert h < dobrowolski_floor(2, 0.25)


def test_orbit_generator_height_matches_mahler_route():
    for n in (1, 2, 5, 7, 12, 30):
        orbit = preperiodic_orbit(n)
        direct = orbit_generator_height(n).value
        via_roots = weil_height_algebraic(
            AlgebraicNumber.with_embedding(orbit.minpoly, 0, ApproxComplex(complex(conjugates_fast(n)[0]), 4e-16))
        ).value
        assert abs(direct - via_roots) < 1e-11, n


def _per_order_height(n):
    """The one-order formula the blockwise kernel replaced, kept as its
    oracle: an np.gcd filter of 1..n/2, then one mean over the order."""
    if n <= 2:
        x = np.array([2.0 if n == 1 else -2.0])
    else:
        a = np.arange(1, n // 2 + 1)
        a = a[np.gcd(a, n) == 1]
        x = 2.0 * np.cos(2.0 * np.pi * a / n)
    v = float(np.log(np.maximum(np.abs(x), 1.0)).mean())
    return HeightValue(v, ORBIT_COS_ERROR + 1.01 * (x.size + 2) * 2.0**-53 * v, "mahler-numeric")


def test_orbit_generator_heights_within_both_bounds_of_the_numpy_formula():
    # the numpy conjugate mean that the Moebius sum replaced, as its oracle
    orders = range(1, 3001)
    for n, h in zip(orders, orbit_generator_heights(orders)):
        old = _per_order_height(n)
        assert abs(h.value - old.value) <= h.error_bound + old.error_bound, n
    for n in (1, 2):
        assert orbit_generator_height(n).value == _per_order_height(n).value == math.log(2)


def test_bulk_heights_equal_single_order_heights_bit_for_bit():
    # HeightValue equality is field-for-field ==, so every float must match
    # exactly; each list starts from an empty E(d) cache, so no value depends
    # on which orders were asked for before it or with it
    def fresh(orders):
        heights._orbit_height_defect.cache_clear()
        return heights.orbit_generator_heights(orders)

    everything = range(1, 3001)
    singles = {n: fresh((n,))[0] for n in [*everything, *range(3001, 4000)]}
    assert fresh(everything) == [singles[n] for n in everything]
    primes = [n for n in range(2, 4000) if is_prime(n)]
    for orders in (primes, range(37, 4000), [3001, 1, 7, 2, 7], [3989, 210, 3, 2, 1]):  # gaps, repeats, any order
        assert fresh(orders) == [singles[n] for n in orders]
    for n in (1, 2, 3, 210, 3989):
        assert orbit_generator_height(n) == singles[n]


def _tan_derivative_at_pi_over_3(n):
    """tan^(n)(pi/3) = P_n(sqrt(3)) with P_0 = T, P_{n+1} = (1 + T^2) P_n'."""
    poly = [0, 1]  # coefficients, lowest first
    for _ in range(n):
        deriv = [k * c for k, c in enumerate(poly)][1:]
        poly = [a + b for a, b in zip(deriv + [0, 0], [0, 0] + deriv)]
    return mp.fsum(c * mp.sqrt(3) ** i for i, c in enumerate(poly))


def _exact_series_coefficient(j, r):
    """e_{j,r} of ``heights._defect_series`` at 120 bits, from Fraction
    Bernoulli polynomials and the polynomials P_n."""
    bern = [Fraction(1)]
    for m in range(1, j + 1):
        bern.append(-sum(math.comb(m + 1, i) * bern[i] for i in range(m)) / (m + 1))

    def bernoulli_poly(x):
        return sum(math.comb(j, i) * bern[i] * x ** (j - i) for i in range(j + 1))

    c = Fraction(0) if r % 2 == 0 else Fraction(1, 2)
    pair = bernoulli_poly(Fraction(r, 6)) + bernoulli_poly((Fraction(r, 6) + c) % 1)
    with mp.workprec(120):
        deriv_f = -((2 * mp.pi) ** (j - 1)) * _tan_derivative_at_pi_over_3(j - 2)  # f^(j-1)(1/6)
        return 2 * (-1) ** j / mp.factorial(j) * deriv_f * mp.mpf(pair.numerator) / pair.denominator


def test_defect_series_coefficients_regenerate_exactly():
    # the integer tables built on first call, against a Fraction and mpmath
    # rebuild: each float within its stated (2 j + 2) u
    coefficients, weights, thresholds = heights._defect_series()
    assert thresholds[-1] <= heights.DEFECT_SERIES_FROM < thresholds[-2]
    assert thresholds[2:] == sorted(thresholds[2:], reverse=True)
    assert len(thresholds) - 1 == 26  # the order the series needs at d = 100
    for j in range(2, len(thresholds)):
        for r in range(6):
            want = _exact_series_coefficient(j, r)
            got = coefficients[r][j - 2]
            assert abs(got - want) <= (2 * j + 2) * 2.0**-53 * abs(want), (j, r)
            assert weights[r][j - 2] == (5 * j + 1) * abs(got)
    with mp.workprec(120):
        assert abs(coefficients[0][0] - float(-2 * mp.pi / mp.sqrt(3))) <= 2.0**-50


def test_defect_series_meets_the_direct_sums():
    # E(d) for d in [D0, 2 D0] both ways: the direct sum subtracts kappa_f,
    # the series the true kappa, so they may also differ by d |kappa_f - kappa|
    d0 = heights.DEFECT_SERIES_FROM
    worst = 0.0
    for d in range(d0, 2 * d0 + 1):
        direct, direct_err = heights._direct_defect(d)
        series, series_err = heights._series_defects(d, d + 1)[0]
        gap = abs(direct - series)
        assert gap <= direct_err + series_err + d * heights.LOG_PLUS_INTEGRAL_ERROR, d
        worst = max(worst, gap)
    assert worst < 2e-14  # inside the direct sums' worst-case bounds, 4e-14 to 8.4e-14


def _series_defect_loop(d):
    # the per-order Horner loop that the batched pass replaced, kept as its
    # reference: the order is looked up for each d on its own
    coefficients, weights, thresholds = heights._defect_series()
    order = next(j for j in range(2, len(thresholds)) if d >= thresholds[j])
    x = 1.0 / d
    value = weight = 0.0
    for c, w in zip(reversed(coefficients[d % 6][: order - 1]), reversed(weights[d % 6][: order - 1])):
        value = c + x * value
        weight = w + x * weight
    return x * value, heights.DEFECT_SERIES_TOL + 1.01 * 2.0**-53 * x * weight


def test_batched_defects_are_the_per_order_values_bit_for_bit():
    n_max = 6000
    heights._orbit_height_defect.cache_clear()
    batch = heights.orbit_height_defects(n_max)
    assert len(batch) == n_max + 1 and batch[0] == (0.0, 0.0)
    for d in range(1, n_max + 1):
        loop = heights._direct_defect(d) if d < heights.DEFECT_SERIES_FROM else _series_defect_loop(d)
        assert batch[d] == loop == heights._orbit_height_defect(d), d
    # a pass that starts or stops inside an order band reads the same values
    assert heights._series_defects(997, 2701) == batch[997:2701]
    assert heights.orbit_height_defects(57) == batch[:58]


def test_orbit_height_defect_constant_bounds_the_equidistribution_error():
    """|h(alpha_N) - kappa| m <= (C/2) sigma(N)/N for every 3 <= N <= 6000,
    with C = ORBIT_HEIGHT_DEFECT_CONSTANT, and C bounds d |E(d)| for all d:
    from the certified E(d) below 10^4, and above it from the series of
    order J with its remainder, which only falls as d grows."""
    c_bound = ORBIT_HEIGHT_DEFECT_CONSTANT
    kappa_err = heights.LOG_PLUS_INTEGRAL_ERROR
    for d in range(1, 10**4):
        e, err = heights._orbit_height_defect(d)  # below D0 against kappa_f
        assert d * (abs(e) + err + d * kappa_err) <= c_bound, d
    top, j_top = 10**4, 7
    with mp.workprec(120):
        rem = 4 * mp.zeta(j_top) / mp.pi * _tan_derivative_at_pi_over_3(j_top - 2)
        for r in range(6):
            tail = mp.fsum(abs(_exact_series_coefficient(j, r)) * mp.mpf(top) ** (2 - j) for j in range(2, j_top + 1))
            assert tail + rem * mp.mpf(top) ** (2 - j_top) <= c_bound, r
    kappa = heights.LOG_PLUS_INTEGRAL
    sigma = [0] * 6001
    for d in range(1, 6001):
        sigma[d::d] = [s + d for s in sigma[d::d]]
    orders = range(3, 6001)
    worst = 0.0
    for n, h in zip(orders, orbit_generator_heights(orders)):
        m = orbit_size(n)
        lhs = (abs(h.value - kappa) + h.error_bound + kappa_err) * m
        assert lhs <= c_bound / 2 * sigma[n] / n, n
        worst = max(worst, lhs / (sigma[n] / n))
    assert worst < 0.25  # the constant is far from tight on these orders
