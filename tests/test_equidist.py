import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from chebdyn import (
    ARCH,
    DomainError,
    PairingSieve,
    Place,
    PreperiodicInputError,
    algebraic_number,
    az_pairing_estimate,
    discrepancy,
    equilibrium_potential,
    finite_lambda_average,
    lambda_integral,
    log_plus_integral,
    orbit_lambda_average,
    orbit_size,
    preperiodic_orbit,
    total_lambda_identity_check,
    weil_height_rational,
)
from chebdyn.equidist import (
    arch_discrepancy_fast,
    equidist_rows,
    fitted_slope,
    measure_invariance_gap,
    quadrature_potential,
    real_place_defects,
)
from chebdyn import equidist, factorint, integrality, is_prime
from chebdyn.integrality import newton_polygon_valuations, orbit_shift_poly
from chebdyn.heights import LOG_PLUS_INTEGRAL_ERROR


def test_potential_examples():
    assert abs(equilibrium_potential(3) - math.log((3 + math.sqrt(5)) / 2)) < 1e-14
    assert equilibrium_potential(2) == 0.0
    assert equilibrium_potential(0) == 0.0
    assert equilibrium_potential(-2) == 0.0


def test_potential_against_quadrature_grid():
    # closed form vs adaptive quadrature off the support
    pts = []
    for re in (-5, -3.3, -2.2, 2.5, 3, 4.8):
        pts.append(complex(re, 0))
    for re in (-4, -1, 0, 1.7, 3.5):
        for im in (-2, -0.7, 0.4, 1.9):
            pts.append(complex(re, im))
    for z in pts:
        assert abs(equilibrium_potential(z) - quadrature_potential(z)) < 1e-8, z


def test_potential_on_support_matches_quadrature():
    for x in (0.0, 0.5, -1.3):
        assert abs(quadrature_potential(x)) < 1e-8
        assert equilibrium_potential(x) == 0.0


def test_potential_reads_the_integers_near_two_and_past_float_range():
    # z * z - 4 cancels near +-2: at 2 + 1e-15, g = 3.162e-8, which the
    # float formula missed by 1.8e-9
    for k in (12, 15, 30):
        x = 2 + Fraction(1, 10**k)
        with mp.workprec(320):
            want = mp.acosh(mp.mpf(x.numerator) / x.denominator / 2)
        assert abs(equilibrium_potential(x) - want) <= 1e-15 * want
        assert abs(equilibrium_potential(-x) - want) <= 1e-15 * want
    # past float range g is log|beta| to within 4 / beta^2, and
    # log+|beta| - g(beta) = log1p(w^-2) vanishes
    huge = Fraction(10**400 + 7, 3)
    with mp.workprec(320):
        want = mp.log(mp.mpf(huge.numerator) / 3)
    assert abs(equilibrium_potential(huge) - want) <= 1e-15 * want
    assert abs(lambda_integral(huge, ARCH) - log_plus_integral()) <= 1e-12
    assert lambda_integral(-1 / huge, ARCH) == log_plus_integral()


def test_log_plus_integral_closed_form():
    kappa = log_plus_integral()
    with mp.workdps(30):
        clausen = float(mp.clsin(2, mp.pi / 3) / mp.pi)
        # independent x-space quadrature: log+|x| vanishes on [-1, 1]
        direct = float(
            (2 / mp.pi) * mp.quad(lambda x: mp.log(x) / mp.sqrt(4 - x * x), [1, 2])
        )
    assert abs(kappa - clausen) < 1e-12
    assert abs(kappa - direct) < 1e-9
    # the literal is the nearest double to 3 sqrt(3) L(chi_-3, 2) / (4 pi),
    # so within the half ulp the orbit-height bounds charge for it
    with mp.workdps(40):
        third = mp.mpf(1) / 3
        l_value = (mp.zeta(2, third) - mp.zeta(2, 2 * third)) / 9
        exact = 3 * mp.sqrt(3) * l_value / (4 * mp.pi)
        assert kappa == float(exact)
        assert abs(kappa - exact) <= LOG_PLUS_INTEGRAL_ERROR


def test_lambda_integral_assembly():
    kappa = log_plus_integral()
    val = lambda_integral(3, ARCH)
    assert abs(val - (math.log(3) + kappa - equilibrium_potential(3))) < 1e-13
    # on the support with |beta| <= 1 the integral collapses to kappa
    assert abs(lambda_integral(Fraction(1, 2), ARCH) - kappa) < 1e-13
    assert lambda_integral(3, Place(11)) == 0.0  # good reduction convention


def test_orbit_lambda_average_examples():
    o5 = preperiodic_orbit(5)
    avg = orbit_lambda_average(o5, 3)
    lam1 = -math.log((3 - 2 * math.cos(2 * math.pi / 5)) / 3)
    lam2 = -math.log((3 - 2 * math.cos(4 * math.pi / 5)) / (2 * abs(math.cos(4 * math.pi / 5)) * 3))
    assert abs(avg - (lam1 + lam2) / 2) < 1e-12
    assert abs(avg - 0.14027056479872602) < 1e-12
    assert abs(orbit_lambda_average(o5, 3, Place(11)) - math.log(11) / 2) < 1e-14
    assert abs(orbit_lambda_average(preperiodic_orbit(1), 10) - math.log(20 / 8)) < 1e-14
    with pytest.raises(DomainError):
        orbit_lambda_average(o5, algebraic_number([-3, 0, 1]))


def test_finite_lambda_average_matches_newton_polygon():
    # oracle: the positive root valuations of the cleared psi_N(beta - x),
    # summed per conjugate; the exact route reads v_p of the pairing instead
    rng = random.Random(53)
    primes = (2, 3, 5, 7, 11)
    betas = []
    while len(betas) < 30:
        den = rng.choice((1, 2, 3, 4, 5, 7, 9, 10, 11, 21, 25, 77, 97))
        beta = Fraction(rng.randint(-300, 300), den)
        if abs(beta) > 2 or beta.denominator > 1:
            betas.append(beta)
    nonzero = denominator_cases = 0
    for beta in betas:
        for n in range(1, 121):
            orbit = preperiodic_orbit(n)
            g = orbit_shift_poly(orbit, beta)
            for p in primes:
                vals = newton_polygon_valuations(g, p)
                pos = sum(v for v in vals if v is not math.inf and v > 0)
                want = float(pos) * math.log(p) / orbit.size
                got = finite_lambda_average(n, beta, p)
                assert repr(got) == repr(want), (beta, n, p)
                nonzero += want > 0
                denominator_cases += beta.denominator % p == 0
    assert nonzero > 300 and denominator_cases > 1000  # 442 and 3240 of 18000


def test_identity_examples():
    rec = total_lambda_identity_check(preperiodic_orbit(5), 3)
    assert rec.gap < 1e-12
    assert abs(rec.rhs - (math.log(3) + 0.24060591252980174)) < 1e-11
    rec = total_lambda_identity_check(preperiodic_orbit(1), 3)
    assert abs(rec.lhs - math.log(6)) < 1e-12 and rec.gap < 1e-12
    rec = total_lambda_identity_check(preperiodic_orbit(4), Fraction(4, 3))
    assert abs(rec.lhs - math.log(4)) < 1e-12 and rec.gap < 1e-12


def test_identity_random_sample():
    rng = random.Random(414)
    count = 0
    while count < 30:
        n = rng.randint(1, 40)
        beta = Fraction(rng.randint(-99, 99), rng.randint(1, 40))
        try:
            rec = total_lambda_identity_check(preperiodic_orbit(n), beta)
        except PreperiodicInputError:
            continue
        assert rec.gap <= 1e-9, (n, beta, rec)
        count += 1


def test_measure_invariance():
    for d in (2, 3):
        for k in range(0, 7):
            assert measure_invariance_gap(d, k) < 1e-8, (d, k)


def test_discrepancy_records():
    rec = discrepancy(preperiodic_orbit(5), 3, ARCH)
    integral = lambda_integral(3, ARCH)
    assert abs(rec.orbit_average - 0.14027056479872602) < 1e-12
    assert abs(rec.discrepancy - abs(rec.orbit_average - integral)) < 1e-15

    rec4 = discrepancy(preperiodic_orbit(4), 3, ARCH)
    assert rec4.orbit_average == 0.0  # delta(0, 3) = 3/3 = 1
    assert abs(rec4.discrepancy - integral) < 1e-13


def test_fast_scan_matches_orbit_route():
    # oracle: the mpmath mean of the lambdas over the conjugates, which goes
    # neither through the product formula that discrepancy() uses nor
    # through the closed form that equidist_rows reads from it
    for beta in (Fraction(3), Fraction(97, 89), Fraction(-71, 13)):
        integral = lambda_integral(beta, ARCH)
        for n, size, disc in equidist_rows(beta, ARCH, [1, 2, 5, 12, 101]):
            arch = total_lambda_identity_check(preperiodic_orbit(n), beta).arch_average
            assert abs(disc - abs(arch - integral)) < 1e-11
            assert abs(disc - discrepancy(preperiodic_orbit(n), beta, ARCH).discrepancy) < 1e-11
            assert size == orbit_size(n)


def test_finite_equidist_rows_match_single_orbit_kernel():
    # 7/10: p = 2 and 5 divide the denominator, where every row is 0
    for beta in (Fraction(97, 89), Fraction(-71, 13), Fraction(7, 10)):
        for p in (2, 5, 7):
            rows = equidist_rows(beta, Place(p), range(1, 121))
            assert rows == [(n, orbit_size(n), finite_lambda_average(n, beta, p)) for n in range(1, 121)]


def test_real_place_row_near_a_conjugate():
    # beta lies 4.5e-10 from a conjugate of the order-387 orbit, where a
    # float64 mean of the lambdas is off by 1.7e-9; the oracle is that mean
    # at 60 digits minus the closed-form integral (|beta| < 1, on the support)
    beta = Fraction(57238241, 1007413503)
    n = 387
    rec = arch_discrepancy_fast(beta, n)
    with mp.workdps(60):
        b = mp.mpf(beta.numerator) / beta.denominator
        xs = [2 * mp.cospi(mp.mpf(2 * a) / n) for a in range(1, n // 2 + 1) if math.gcd(a, n) == 1]
        avg = mp.fsum(-mp.log(abs(x - b) / max(abs(x), 1)) for x in xs) / len(xs)
        kappa = 2 / mp.pi * mp.quad(lambda t: mp.log(2 * mp.cos(t)), [0, mp.pi / 3])
        want = abs(avg - kappa)
        assert abs(want - mp.mpf("0.131281313394843100")) < 1e-18
    assert abs(rec.discrepancy - float(want)) < 1e-12


def _real_place_delta(beta, n, dps=40):
    # the mean of lambda_x(beta) = -log(|x - beta| / (max(|x|, 1) max(|beta|, 1)))
    # over the conjugates x of the order-n orbit, less log+|beta| + kappa -
    # log|w| (beta = w + 1/w, |w| >= 1), all in mpmath
    with mp.workdps(dps):
        b = mp.mpf(beta.numerator) / beta.denominator
        if n <= 2:
            xs = [mp.mpf(2 if n == 1 else -2)]
        else:
            xs = [2 * mp.cospi(mp.mpf(2 * a) / n) for a in range(1, n // 2 + 1) if math.gcd(a, n) == 1]
        big = max(abs(b), 1)
        avg = mp.fsum(-mp.log(abs(x - b) / (max(abs(x), 1) * big)) for x in xs) / len(xs)
        w = (abs(b) + mp.sqrt(b * b - 4)) / 2 if abs(b) > 2 else mp.mpf(1)
        return avg - (mp.log(big) + mp.clsin(2, mp.pi / 3) / mp.pi - mp.log(w))


def _near(n0, a, gap):
    # a rational within about gap of 2 cos(2 pi a / n0), read at 40 digits
    with mp.workdps(40):
        target = 2 * mp.cospi(mp.mpf(2 * a) / n0) + gap
        q = 10**40
        return Fraction(int(mp.nint(target * q)), q)


def test_real_place_rows_within_their_bound_of_the_mpmath_mean():
    grid = [
        (_near(387, 5, mp.mpf("1e-9")), 387),
        (_near(60, 7, mp.mpf("-1e-12")), 60),
        (_near(11, 3, mp.mpf("1e-12")), 11),
        (Fraction(2 * 10**9 + 1, 10**9), 7),
        (Fraction(2 * 10**9 - 1, 10**9), 7),
        (Fraction(-2 * 10**9 - 1, 10**9), 7),
        (Fraction(10**400 + 7, 3), 7),
        (Fraction(1, 3), 7),
        (Fraction(-71, 53), 7),
        (Fraction(54497, 28758), 7),
        (Fraction(-10), 7),
        (Fraction(7, 2), 7),
    ]
    rng = random.Random(6007)
    worst = 0.0
    for beta, n0 in grid:
        n_max = max(2 * n0, 420)
        delta, bound = real_place_defects(beta, n_max)
        rows = equidist_rows(beta, ARCH, range(1, n_max + 1))
        orders = {1, 2, 3, 4, 5, 6, 12, 30, 210, 420, n0, 2 * n0, *rng.sample(range(7, n_max + 1), 6)}
        for n in sorted(orders):
            want = _real_place_delta(beta, n)
            assert abs(delta[n] - want) <= bound[n], (beta, n, float(delta[n] - want), bound[n])
            assert rows[n - 1] == (n, orbit_size(n), abs(delta[n]))
            worst = max(worst, bound[n])
    assert worst < 1e-13  # the bounds stay tight, even next to a conjugate


def test_real_place_rows_escalate_next_to_a_conjugate(monkeypatch):
    # beta within 1e-25 of 2 cos(2 pi / 7): |1 - w^d| is about 1e-25 d for
    # the d divisible by 7, below what 128 fixed-point bits certify, so those
    # d read the exact recurrence, in one pass to the last of them
    with mp.workdps(60):
        target = 2 * mp.cospi(mp.mpf(2) / 7)
        beta = Fraction(int(mp.nint(target * 10**26)), 10**26)
        assert 0 < abs(mp.mpf(beta.numerator) / beta.denominator - target) < mp.mpf("1e-25")
    passes = []
    real = equidist._scaled_chebyshev

    def counting(f):
        passes.append(f)
        return real(f)

    monkeypatch.setattr(equidist, "_scaled_chebyshev", counting)
    n_max = 60
    delta, bound = real_place_defects(beta, n_max)
    assert len(passes) == 1
    for n in range(1, n_max + 1):
        want = _real_place_delta(beta, n, dps=60)
        assert abs(delta[n] - want) <= bound[n], (n, float(delta[n] - want), bound[n])
        # the exact product-formula route, within its own rounding of
        # h(beta) = log 10^26 and log|F_N|
        exact = discrepancy(preperiodic_orbit(n), beta, ARCH).discrepancy
        assert abs(abs(delta[n]) - exact) <= bound[n] + 1e-13, n
    # the fixed point alone could not have told these d from a conjugate
    logs, _ = equidist._root_logs(beta, n_max)
    assert all(logs[d] < -50 for d in range(7, n_max + 1, 7))
    with pytest.raises(PreperiodicInputError):
        real_place_defects(Fraction(1), 12)  # 1 = 2 cos(2 pi / 6)


def test_real_place_rows_read_no_pairing_sieve(monkeypatch):
    # no big-integer pass at all for the float-sweep workload's kind of beta:
    # rationals of height 1-5 nats and approximants of a conjugate
    def refuse(*args, **kwargs):
        raise AssertionError("a real-place row read the exact recurrence")

    monkeypatch.setattr(integrality, "_scaled_chebyshev", refuse)
    monkeypatch.setattr(equidist, "_scaled_chebyshev", refuse)
    monkeypatch.setattr(integrality.PairingSieve, "__init__", refuse)
    monkeypatch.setattr(equidist.PairingSieve, "__init__", refuse)
    for beta in ("54497/28758", "9/16", "11/4", "-2/5", "-10", "104591/101348", "366/1261",
                 "-941019/796096", "-1265018692/1275708879"):
        rows = equidist_rows(Fraction(beta), ARCH, range(1, 3001))
        assert len(rows) == 3000


def test_lambda_integral_keeps_its_digits_for_large_beta():
    # kappa + log1p(w^-2) against 60 digits, where (log+|beta| + kappa) - g
    # lost up to 3e-15
    for beta in (Fraction(10**20 + 1, 3), Fraction(10**400 + 7, 3), Fraction(10**10 + 1), Fraction(-(10**10) - 1)):
        with mp.workdps(60):
            b = abs(mp.mpf(beta.numerator) / beta.denominator)
            w = (b + mp.sqrt(b * b - 4)) / 2
            want = mp.clsin(2, mp.pi / 3) / mp.pi + mp.log1p(w**-2)
        assert abs(lambda_integral(beta, ARCH) - want) <= math.ulp(0.32), beta
    # on [-2, 2] it is still log+|beta| + kappa
    for beta in (Fraction(1, 3), Fraction(-7, 4), Fraction(2)):
        assert lambda_integral(beta, ARCH) == math.log(max(abs(beta), 1)) + log_plus_integral()


def test_sweeps_walk_one_moebius_sum_per_quantity(monkeypatch):
    # phi comes from the arithmetic table, so a real-place sweep sums only
    # its terms and their error bounds, and the pairing sieve one valuation
    # list per prime, then its logs on the first read of log|F_N|
    calls = []
    real = equidist.moebius_sums

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(equidist, "moebius_sums", counting)
    monkeypatch.setattr(integrality, "moebius_sums", counting)
    real_place_defects(Fraction(54497, 28758), 3000)
    assert calls == [3000, 3000]
    calls.clear()
    primes = (2, 3, 5)
    sieve = PairingSieve(Fraction(97, 89), 300, primes)
    assert calls == [300] * len(primes)
    sieve.log_abs(300), sieve.log_abs(7)
    assert calls == [300] * (1 + len(primes))
    calls.clear()
    equidist_rows(Fraction(97, 89), Place(3), range(1, 121))
    assert calls == [120]


def test_real_place_rows_factor_nothing(monkeypatch):
    # every orbit size and phi(N) comes from the arithmetic table, so a
    # real-place sweep to N = 3000 runs no factorization
    calls = []
    real = factorint.factorize

    def counting(n):
        calls.append(n)
        return real(n)

    factorint.euler_phi.cache_clear()
    monkeypatch.setattr(factorint, "factorize", counting)
    rows = equidist_rows(Fraction(54497, 28758), ARCH, range(1, 3001))
    assert len(rows) == 3000
    assert calls == []


def _exact_slope(sizes, discs):
    # the least-squares slope of the float points, summed in Fractions
    pts = [(Fraction(math.log(s)), Fraction(math.log(d))) for s, d in zip(sizes, discs) if d > 0]
    n = len(pts)
    sx, sy = sum(x for x, _ in pts), sum(y for _, y in pts)
    num = n * sum(x * y for x, y in pts) - sx * sy
    den = n * sum(x * x for x, _ in pts) - sx * sx
    return float(Fraction(num, den))


def test_fitted_slope_is_the_exact_slope_rounded_once():
    rng = random.Random(2311)
    for _ in range(60):
        k = rng.randint(2, 200)
        sizes = [rng.randint(2, 1500) for _ in range(k)]
        discs = [10 ** rng.uniform(-300, 0) for _ in range(k)]
        assert fitted_slope(sizes, discs) == _exact_slope(sizes, discs)


def test_fitted_slope_matches_polyfit():
    def polyfit(sizes, discs):
        keep = [(s, d) for s, d in zip(sizes, discs) if d > 0]
        xs, ys = zip(*keep)
        return float(np.polyfit(np.log(np.asarray(xs, dtype=float)), np.log(np.asarray(ys)), 1)[0])

    # criterion 7's data: beta = 3 at the real place, prime N in [100, 5000]
    orders = [n for n in range(100, 5001) if is_prime(n)]
    rows = equidist_rows(Fraction(3), ARCH, orders)
    fits = [([size for _, size, _ in rows], [d for _, _, d in rows])]
    # the CLI's rows (orbit size > 1) of rational sweeps at both kinds of place
    for beta, place in [
        (Fraction(97, 89), ARCH),
        (Fraction(-11, 7), ARCH),
        (Fraction(8, 9), Place(7)),
        (Fraction(-71, 13), Place(2)),
        (Fraction(3), Place(3)),
    ]:
        rows = [(size, d) for _, size, d in equidist_rows(beta, place, range(1, 401)) if size > 1]
        fits.append(([size for size, _ in rows], [d for _, d in rows]))
    for sizes, discs in fits:
        slope = fitted_slope(sizes, discs)
        assert slope < 0
        assert abs(slope - polyfit(sizes, discs)) <= 1e-12 * abs(slope)


def test_fitted_slope_edge_cases():
    assert fitted_slope([], []) == 0.0
    # fewer than two positive rows
    assert fitted_slope([5, 7, 9], [0.1, 0.0, 0.0]) == 0.0
    # every usable row has one size: the denominator vanishes
    assert fitted_slope([7, 7, 7], [0.1, 0.2, 0.3]) == 0.0
    assert fitted_slope([7, 9, 7], [0.1, 0.0, 0.3]) == 0.0
    # zero discrepancies are left out of the fit
    sizes, discs = [3, 5, 11, 23, 47], [0.4, 0.3, 0.11, 0.06, 0.02]
    slope = fitted_slope(sizes, discs)
    assert slope < 0
    assert fitted_slope([2, *sizes, 101], [0.0, *discs, 0.0]) == slope


def test_az_estimate_consistency():
    est = az_pairing_estimate(3, 60)
    # two independent assemblies of the limit for rational |beta| > 2
    assert abs(est.limit_prediction - (math.log(3) + log_plus_integral())) < 1e-8
    # per-orbit totals equal h(beta) + h(orbit generator) exactly (identity),
    # so the gap sequence is |h(alpha_N) - kappa|
    for n, size, total, gap in est.totals:
        rec = total_lambda_identity_check(preperiodic_orbit(n), 3)
        assert abs(total - rec.lhs) < 1e-9
    assert est.empirical_rate_constant > 0


def test_az_rejects_preperiodic():
    with pytest.raises(PreperiodicInputError):
        az_pairing_estimate(2, 10)
