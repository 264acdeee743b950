import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from chebdyn import (
    ARCH,
    DomainError,
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
    DecayConstants,
    arch_discrepancy_fast,
    equidist_rows,
    fitted_slope,
    measure_invariance_gap,
    quadrature_potential,
)
from chebdyn import factorint, is_prime
from chebdyn.integrality import PairingSieve, newton_polygon_valuations, orbit_shift_poly
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
    rec = discrepancy(preperiodic_orbit(5), 3, ARCH, DecayConstants(c=1.0, delta=0.25, a=1.0))
    integral = lambda_integral(3, ARCH)
    assert abs(rec.orbit_average - 0.14027056479872602) < 1e-12
    assert abs(rec.discrepancy - abs(rec.orbit_average - integral)) < 1e-15
    assert rec.bound_rhs is not None and rec.hypothesis_holds is not None

    rec4 = discrepancy(preperiodic_orbit(4), 3, ARCH)
    assert rec4.orbit_average == 0.0  # delta(0, 3) = 3/3 = 1
    assert abs(rec4.discrepancy - integral) < 1e-13


def test_fast_scan_matches_orbit_route():
    # oracle: the mpmath mean of the lambdas over the conjugates, which does
    # not go through the product formula that both equidist_rows and
    # discrepancy() use
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
    rec = arch_discrepancy_fast(PairingSieve(beta, n), n)
    with mp.workdps(60):
        b = mp.mpf(beta.numerator) / beta.denominator
        xs = [2 * mp.cospi(mp.mpf(2 * a) / n) for a in range(1, n // 2 + 1) if math.gcd(a, n) == 1]
        avg = mp.fsum(-mp.log(abs(x - b) / max(abs(x), 1)) for x in xs) / len(xs)
        kappa = 2 / mp.pi * mp.quad(lambda t: mp.log(2 * mp.cos(t)), [0, mp.pi / 3])
        want = abs(avg - kappa)
        assert abs(want - mp.mpf("0.131281313394843100")) < 1e-18
    assert abs(rec.discrepancy - float(want)) < 1e-12


def test_real_place_rows_factor_nothing(monkeypatch):
    # every orbit size comes from the Moebius divisor sum, so a real-place
    # sweep to N = 3000 runs no factorization (an orbit size read through
    # euler_phi would factor every N: 2998 calls)
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
    sieve = PairingSieve(Fraction(3), max(orders))
    recs = [arch_discrepancy_fast(sieve, n) for n in orders]
    fits = [([r.orbit_size for r in recs], [r.discrepancy for r in recs])]
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


def test_decay_constants_validation():
    with pytest.raises(Exception):
        DecayConstants(delta=0.7)
