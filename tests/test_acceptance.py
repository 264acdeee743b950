"""Acceptance suite: one test per quantitative desk-scale criterion.

Every test prints a single line

    ACCEPTANCE <k>: PASS|FAIL -- <summary>

(run pytest with -s to see the lines as they appear). Tolerances are fixed
here, not configurable: they are the exit contract of the build.
"""

import math
import random
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
import sympy as sp

import chebdyn
import minpoly_oracle
from chebdyn import (
    AlgebraicNumber,
    PlaceSet,
    algebraic_number,
    canonical_height,
    cf_convergents,
    convergent_scan,
    euler_phi,
    near_orbit_scan,
    orbit_size,
    preperiodic_orbit,
    weil_height_rational,
)
from chebdyn.chebyshev import (
    _cyclotomic_half,
    conjugates_fast,
    halved_minpoly,
    is_preperiodic_rational,
    minpoly_spot_checks,
    orbit_value,
)
from chebdyn.equidist import equidist_rows, fitted_slope
from chebdyn.factorint import primes_upto, strip_primes
from chebdyn.heights import LOG_PLUS_INTEGRAL, sample_betas
from chebdyn.integrality import ARCH, newton_polygon_valuations, orbit_shift_poly, scan_orbits
from chebdyn.numerics import ApproxComplex
from chebdyn.roots import complex_roots
from equidist_oracle import az_pairing_estimate, total_lambda_identity_check


def report(num: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} -- {detail}")


def test_criterion_1_orbit_exactness():
    """deg psi_N = orbit size, monic, conjugate residuals <= 1e-9, N <= 1000, < 5 s.

    The residual and the identity mod p are read from the numpy oracles of
    the library's pure-Python checks (``minpoly_oracle``), which the CLI's
    orbit op runs: over every N <= 1000 those take about 4.4 s alone, and
    ``test_chebyshev`` pins them to the oracles.
    """
    halved_minpoly.cache_clear()
    preperiodic_orbit.cache_clear()
    _cyclotomic_half.cache_clear()
    t0 = time.perf_counter()
    worst_residual = 0.0
    for n in range(1, 1001):
        orbit = preperiodic_orbit(n)
        assert orbit.minpoly.is_monic, n
        assert orbit.minpoly.degree == orbit_size(n), n
        assert all(abs(c) <= 2 + 1e-12 for c in conjugates_fast(n)), n
        worst_residual = max(worst_residual, float(minpoly_oracle.minpoly_conjugate_residuals(n).max()))
        assert minpoly_spot_checks(n), n
        assert minpoly_oracle.minpoly_identity_mod(n), n
    elapsed = time.perf_counter() - t0
    ok = worst_residual <= 1e-9 and elapsed < 5.0
    report(
        1,
        ok,
        f"N <= 1000: worst conjugate residual {worst_residual:.2e} (tol 1e-9), "
        f"runtime {elapsed:.2f}s (cap 5s)",
    )
    assert worst_residual <= 1e-9
    assert elapsed < 5.0


def test_criterion_2_canonical_height_oracles():
    """Closed-form oracles at 3 and 1/2; zero on all conjugates of N <= 50."""
    with mp.workprec(96):
        oracle_3 = float(mp.log((3 + mp.sqrt(5)) / 2))
        oracle_half = float(mp.log(mp.mpf(2)))
    got_3 = canonical_height(3, 2, 1e-10).value
    got_half = canonical_height(Fraction(1, 2), 2, 1e-10).value
    worst_conj = 0.0
    for n in range(1, 51):
        orbit = preperiodic_orbit(n)
        for i, c in enumerate(conjugates_fast(n)):
            beta = AlgebraicNumber.with_embedding(orbit.minpoly, i, ApproxComplex(complex(c), 4e-16))
            worst_conj = max(worst_conj, abs(canonical_height(beta, 2, 1e-10).value))
    # the zero comes from the preperiodic classification; back it numerically:
    # every certified root disc of psi_N lies inside the invariant interval
    for n in range(3, 26):
        for r in complex_roots(halved_minpoly(n), 1e-12):
            assert abs(r.imag) <= r.error_bound and abs(r.real) + r.error_bound <= 2, n
    ok = (
        abs(got_3 - oracle_3) <= 1e-9
        and abs(got_half - oracle_half) <= 1e-9
        and worst_conj <= 1e-9
    )
    report(
        2,
        ok,
        f"|h(3)-oracle| = {abs(got_3 - oracle_3):.2e}, |h(1/2)-log2| = "
        f"{abs(got_half - oracle_half):.2e}, worst conjugate height {worst_conj:.2e} (tol 1e-9)",
    )
    assert abs(got_3 - oracle_3) <= 1e-9
    assert abs(got_half - oracle_half) <= 1e-9
    assert worst_conj <= 1e-9


def test_criterion_3_lambda_identity():
    """Exact all-places proximity identity: gap <= 1e-9, N <= 60, 100 seeded beta."""
    rng = random.Random(1031)
    betas = []
    while len(betas) < 100:
        q = Fraction(rng.randint(-99, 99), rng.randint(1, 30))
        if q in (0, 1, -1, 2, -2) or q in betas:
            continue
        betas.append(q)
    worst = 0.0
    checked = 0
    for n in range(1, 61):
        orbit = preperiodic_orbit(n)
        for q in betas:
            if orbit_value(n, q) == 0:
                continue
            rec = total_lambda_identity_check(orbit, q)
            worst = max(worst, rec.gap)
            checked += 1
    ok = worst <= 1e-9
    report(3, ok, f"{checked} identity checks, worst gap {worst:.2e} (tol 1e-9)")
    assert worst <= 1e-9


def test_criterion_4_dual_oracle_integrality():
    """Resultant-divisibility route vs Newton-polygon route on the full grid."""
    primes = primes_upto(97)
    disagreements = 0
    instances = 0
    rng = random.Random(404)
    for n in range(1, 61):
        minpoly = halved_minpoly(n)
        for den in range(1, 51):
            for num in range(-50, 51):
                if math.gcd(num, den) != 1:
                    continue
                beta = Fraction(num, den)
                f_val = orbit_value(n, beta)
                if f_val == 0:
                    continue
                g = minpoly.shifted_scaled_arg(num, den)
                assert g.coeffs[0] == f_val, (n, beta)  # independent exact routes
                divisors = [p for p in primes if f_val % p == 0]
                sample_trivial = rng.random() < 0.002
                for p in primes:
                    route_a = f_val % p == 0 and den % p != 0
                    if p in divisors or p == 2 or den % p == 0 or sample_trivial:
                        vals = newton_polygon_valuations(g, p)
                        route_b = any(v is not math.inf and v > 0 for v in vals)
                    else:
                        route_b = False  # flat hull: p divides neither end coefficient
                    instances += 1
                    if route_a != route_b:
                        disagreements += 1
    ok = disagreements == 0
    report(4, ok, f"{instances} (N, beta, p) instances, {disagreements} disagreements")
    assert disagreements == 0


def test_criterion_5_finiteness_window():
    """S-integral list for beta=3, S={inf,2,3,5,11}: stabilization and the
    small-case set among N <= 12.

    Erratum: the originally stated small-case list [1, 2, 3, 4, 5, 6, 12]
    omits N = 10. The order-10 point 2cos(pi/5) is the golden ratio, with
    minimal polynomial x^2 - x - 1, so psi_10(3) = 9 - 3 - 1 = 5, and 5 lies
    in S. The corrected list is [1, 2, 3, 4, 5, 6, 10, 12].

    The corrected list is also derived by an oracle that uses sympy alone.
    The roots w, 1/w of z^2 - 3z + 1 satisfy w + 1/w = 3, and
    Phi_N(z) = z^m psi_N(z + 1/z) for N >= 3, so Res_z(Phi_N, z^2 - 3z + 1)
    is psi_N(3)^2 for N >= 3 and +-psi_N(3) for N <= 2. N is S-integral
    relative to 3 exactly when that resultant's prime support lies in S.
    """
    s_fin = (2, 3, 5, 11)
    integral = [
        n for n in range(1, 5001) if strip_primes(orbit_value(n, Fraction(3)), s_fin) == 1
    ]
    small = [n for n in integral if n <= 12]
    stabilization = max(integral)
    stable = all(n <= 500 for n in integral)

    z = sp.symbols("z")
    oracle = {
        n: sp.factorint(sp.resultant(sp.cyclotomic_poly(n, z), z**2 - 3 * z + 1, z))
        for n in range(1, 13)
    }
    oracle_small = [n for n, fac in oracle.items() if all(p in s_fin for p in fac if p > 1)]

    originally_stated = [1, 2, 3, 4, 5, 6, 12]
    expected_small_cases = [1, 2, 3, 4, 5, 6, 10, 12]
    lists_ok = small == oracle_small == expected_small_cases
    ok = stable and lists_ok
    report(
        5,
        ok,
        f"list stabilizes at N = {stabilization} (window 5000 vs 500: "
        f"{'equal beyond it' if stable else 'NEW ORBITS LATE'}); among N <= 12 computed "
        f"{small}, sympy resultant oracle {oracle_small}, expected {expected_small_cases} "
        f"(erratum: the originally stated {originally_stated} omitted N = 10; "
        f"psi_10(3) = 5 and 5 is in S)",
    )
    assert stable, "new S-integral orbits appeared between N = 500 and N = 5000"
    table = "\n".join(
        f"  N = {n:2d}: Res(Phi_N, z^2 - 3z + 1) = {oracle[n]}, "
        f"orbit_value = {orbit_value(n, Fraction(3))}"
        for n in range(1, 13)
    )
    assert lists_ok, (
        f"S-integral orbits among N <= 12 disagree: chebdyn {small}, sympy oracle "
        f"{oracle_small}, expected {expected_small_cases}; S = {s_fin}\n{table}"
    )


def test_criterion_6_near_orbit_uniqueness():
    """At most one orbit strictly inside the 1/(p-1) barrier, 100 seeded pairs."""
    rng = random.Random(1033)
    ps = [p for p in primes_upto(50)]
    pairs = []
    while len(pairs) < 100:
        q = Fraction(rng.randint(-60, 60), rng.randint(1, 25))
        if is_preperiodic_rational(q) or q == 0:
            continue
        pairs.append((q, ps[rng.randrange(len(ps))]))
    worst_flags = 0
    for q, p in pairs:
        rep = near_orbit_scan(q, p, 500)
        worst_flags = max(worst_flags, len(rep.flagged))
        assert rep.at_most_one, (q, p, rep.flagged)
    report(6, worst_flags <= 1, f"100 seeded (beta, p <= 50) pairs, N <= 500: max flagged orbits = {worst_flags}")
    assert worst_flags <= 1


def test_criterion_7_equidistribution_decay():
    """Fitted log-log slope <= -0.4 and final discrepancy <= 1e-2 for beta = 3."""
    orders = [int(p) for p in primes_upto(5000) if p >= 100]
    rows = equidist_rows(Fraction(3), ARCH, orders)
    sizes = [size for _, size, _ in rows]
    discs = [disc for _, _, disc in rows]
    slope = fitted_slope(sizes, discs)
    final = max(d for s, d in zip(sizes, discs) if s >= max(sizes) * 0.8)
    ok = slope <= -0.4 and final <= 1e-2
    report(
        7,
        ok,
        f"prime N in [100, 5000]: fitted slope {slope:.3f} (cap -0.4), "
        f"largest-window discrepancy {final:.2e} (cap 1e-2)",
    )
    assert slope <= -0.4
    assert final <= 1e-2


def test_criterion_8_pairing_consistency():
    """Two assemblies of the pairing limit agree to 1e-8; orbit totals approach
    it within 5e-2 once the orbit size reaches 500."""
    kappa = LOG_PLUS_INTEGRAL
    worst_assembly = 0.0
    worst_tail_gap = 0.0
    for beta in (Fraction(3), Fraction(10), Fraction(7, 2)):
        est = az_pairing_estimate(beta, 1300, tol=1e-12)
        independent = weil_height_rational(beta).value + kappa  # |beta| > 2 rational
        worst_assembly = max(worst_assembly, abs(est.limit_prediction - independent))
        gaps = [gap for _, size, _, gap in est.totals if size >= 500]
        assert gaps, "no orbits of size >= 500 in the window"
        worst_tail_gap = max(worst_tail_gap, max(gaps))
    ok = worst_assembly <= 1e-8 and worst_tail_gap <= 5e-2
    report(
        8,
        ok,
        f"assembly agreement {worst_assembly:.2e} (tol 1e-8); worst total-vs-limit "
        f"gap at |P| >= 500: {worst_tail_gap:.2e} (cap 5e-2)",
    )
    assert worst_assembly <= 1e-8
    assert worst_tail_gap <= 5e-2


UNIT_CIRCLE_TEST_POINTS = [
    (5, -6, 5),
    (13, -10, 13),
    (25, -14, 25),
    (17, -16, 17),
    (29, -4, 29),
]


def test_criterion_9_two_log_bound():
    """Zero violations along CF convergents N <= 1e4 with the proof-assembled
    explicit constant, for the five fixed unit-circle points."""
    total_records = 0
    violations = 0
    calibration_ok = True
    for a, b, c in UNIT_CIRCLE_TEST_POINTS:
        beta = algebraic_number([c, b, a], 1)
        scan = convergent_scan(beta, 10**4, eps=0.1)
        total_records += len(scan.records)
        violations += scan.violations
        calibration_ok &= scan.calibrated_constant <= scan.explicit_constant
    ok = violations == 0 and calibration_ok
    report(
        9,
        ok,
        f"5 unit-circle points, {total_records} convergents with N <= 1e4: "
        f"{violations} violations; calibrated <= explicit constant: {calibration_ok}",
    )
    assert violations == 0
    assert calibration_ok


def test_criterion_10_uniform_count():
    """S = {inf,2,3}, 50 seeded beta (rational + quadratic, height <= log 100):
    at most |S_fin| = 2 S-integral orbits above the size threshold, N <= 2000."""
    rng = random.Random(1)
    betas = sample_betas(rng, 50, math.log(100), 2)
    places = PlaceSet.of(2, 3)
    worst = 0
    worst_beta = None
    for sb in betas:
        threshold = 2.0 * sb.degree**12
        _, exceptional = scan_orbits(sb.value, places, 2000, threshold)
        if exceptional > worst:
            worst, worst_beta = exceptional, sb.label
    ok = worst <= 2
    report(
        10,
        ok,
        f"50 seeded beta, N <= 2000, threshold 2*D^12: max exceptional count {worst}"
        + (f" (at {worst_beta})" if worst_beta else ""),
    )
    assert worst <= 2
