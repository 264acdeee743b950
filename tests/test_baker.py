import functools
import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import angle_oracle
from chebdyn import algebraic, baker, heights, roots
from chebdyn.chebyshev import conjugates_fast, preperiodic_orbit
from chebdyn.numerics import cos_two_pi, precision_ladder

from chebdyn import (
    BakerInstance,
    DomainError,
    PrecisionError,
    PreperiodicInputError,
    algebraic_number,
    angle_rational_gap,
    assembled_constant,
    arch_proximity,
    baker_lower_bound,
    cf_convergents,
    certified_angle,
    convergent_scan,
    pairing_value,
    proximity_bound_check,
    weil_height_algebraic,
)

#: palindromic quadratics a x^2 + b x + a with |b| < 2a: both roots on |z| = 1
UNIT_CIRCLE_POINTS = [
    (5, -6, 5),
    (13, -10, 13),
    (25, -14, 25),
    (17, -16, 17),
    (29, -4, 29),
]


def test_baker_bound_example():
    inst = BakerInstance(d1=2, log_a1=0.5, log_a2=0.5, b1=1, b2=-3)
    assert baker_lower_bound(inst) == -21600 * 16 * 0.25 * 100


def test_baker_bound_doubling_log_a2():
    # with log B below 10 the bound is linear in log A2
    a = BakerInstance(d1=2, log_a1=0.5, log_a2=0.5, b1=1, b2=-2)
    b = BakerInstance(d1=2, log_a1=0.5, log_a2=1.0, b1=1, b2=-2)
    assert math.log(a.big_b) < 10 and math.log(b.big_b) < 10
    assert abs(baker_lower_bound(b) - 2 * baker_lower_bound(a)) < 1e-6


def test_baker_bound_monotonicity():
    rng = random.Random(2)
    for _ in range(300):
        d1 = rng.randint(1, 6)
        la1 = 1 / d1 + rng.random() * 3
        la2 = 1 / d1 + rng.random() * 3
        b1 = rng.choice([1, -1]) * rng.randint(1, 10**6)
        b2 = rng.choice([1, -1]) * rng.randint(1, 10**6)
        base = baker_lower_bound(BakerInstance(d1, la1, la2, b1, b2))
        assert baker_lower_bound(BakerInstance(d1 + 1, la1, la2, b1, b2)) <= base + 1e-9
        assert baker_lower_bound(BakerInstance(d1, la1 * 1.5, la2, b1, b2)) <= base + 1e-9
        assert baker_lower_bound(BakerInstance(d1, la1, la2 * 1.5, b1, b2)) <= base + 1e-9


def test_baker_instance_validation():
    with pytest.raises(DomainError):
        BakerInstance(d1=2, log_a1=0.1, log_a2=0.5, b1=1, b2=1)  # log A1 < 1/D1
    with pytest.raises(DomainError):
        BakerInstance(d1=2, log_a1=0.5, log_a2=0.5, b1=0, b2=1)


def test_certified_angle():
    beta = algebraic_number([5, -6, 5], 1)  # (3+4i)/5
    theta, err = certified_angle(beta)
    assert abs(float(theta) - math.atan2(4, 3) / (2 * math.pi)) < 1e-12
    assert err < 1e-20


def test_certified_angle_rejects_roots_of_unity_and_off_circle():
    with pytest.raises(DomainError):
        certified_angle(algebraic_number([1, 1, 1]))  # zeta_3: zero height
    with pytest.raises(DomainError):
        certified_angle(algebraic_number([-2, 0, 1]))  # sqrt(2): |z| != 1


def test_angle_gap_examples():
    beta = algebraic_number([5, -6, 5], 1)
    theta0 = math.atan2(4, 3) / (2 * math.pi)
    rec = angle_rational_gap(beta, 1, 7, eps=0.1, c_eps=1.0)
    assert abs(rec.lhs - math.log(abs(1 / 7 - theta0))) < 1e-9
    assert rec.lhs == pytest.approx(-5.3546, abs=2e-4)
    assert rec.status == "holds"
    # the linear-form identity: lhs = log|a log1 - N log beta| - log(2 pi N)
    assert abs(rec.linear_form_log - (rec.lhs + math.log(2 * math.pi * 7))) < 1e-12

    far = angle_rational_gap(beta, 1, 2, eps=0.1, c_eps=1.0)
    assert far.lhs == pytest.approx(math.log(abs(0.5 - theta0)), abs=1e-9)
    assert far.status == "holds"


def test_angle_gap_validation():
    beta = algebraic_number([5, -6, 5], 1)
    with pytest.raises(DomainError):
        angle_rational_gap(beta, 1, 1, 0.1, 1.0)
    with pytest.raises(DomainError):
        angle_rational_gap(beta, 2, 4, 0.1, 1.0)


def test_convergent_scan_one_point():
    beta = algebraic_number([5, -6, 5], 1)
    scan = convergent_scan(beta, 10**4, eps=0.1)
    assert scan.violations == 0
    assert len(scan.records) >= 7
    assert scan.calibrated_constant <= scan.explicit_constant
    assert not scan.truncated
    assert (1, 7) in [(r.a, r.n) for r in scan.records]


def test_assembled_constant_grows_with_small_eps():
    beta = algebraic_number([5, -6, 5], 1)
    assert assembled_constant(beta, 0.05) > assembled_constant(beta, 0.5)


ORACLE_EPS = (0.02, 0.05, 0.1, 0.2, 0.5, 1, 2)


@functools.lru_cache(maxsize=None)
def _oracle_grid(eps):
    """N, log(2 pi N) and N^eps at each of the 20000 points of np.linspace's
    log grid, each value from libm."""
    n = [math.exp(t) for t in np.linspace(math.log(2), max(12.0 / eps, 30.0), 20000).tolist()]
    return np.array(n), np.array([math.log(2 * math.pi * x) for x in n]), np.array([x**eps for x in n])


def _full_scan_constant(beta, eps):
    """The full 20000-point maximum that assembled_constant prunes: the
    majorant's ratio at every grid point (libm for exp, log and pow; numpy
    only for the correctly rounded elementwise arithmetic)."""
    d, h = beta.degree, weil_height_algebraic(beta).value
    l2 = max(h, 2 * math.pi * abs(float(certified_angle(beta)[0])) / d, 1.0 / d)
    n, log_2pi_n, n_eps = _oracle_grid(eps)
    log_b = np.fromiter(map(math.log, ((n / 2 + 1) / (d * l2) + n).tolist()), float, n.size)
    ratio = (21600.0 * d**3 * l2 * np.maximum(10.0, log_b) ** 2 + log_2pi_n) / (d**3 * h * n_eps)
    return float(ratio.max()) * 1.0001


def test_pruned_assembled_constant_equals_the_full_scan():
    # every primitive a x^2 + b x + a with a <= 12 and |b| < 2a (both roots on
    # the unit circle, not roots of unity as a > 1), one embedding each: the
    # other has the opposite angle and the same constant
    betas = [
        algebraic_number([a, b, a], (a + b) % 2)
        for a in range(2, 13)
        for b in range(1 - 2 * a, 2 * a)
        if math.gcd(a, b) == 1
    ]
    assert len(betas) == 180
    for beta in betas:
        for eps in ORACLE_EPS:
            assert assembled_constant(beta, eps) == _full_scan_constant(beta, eps), (beta.minpoly, eps)


def test_proximity_check_beta_3():
    pc = proximity_bound_check(3, 30, eps=0.5, c_eps=1.0)
    assert pc.violations == 0
    assert pc.sandwich_ok is True
    # |beta| > 2: every proximity is at most -log(|beta| - 2) = 0
    assert all(r.proximity <= 0 + 1e-12 for r in pc.records)


def test_proximity_constant_one_counterexample():
    # the order-24 orbit crowds beta = 1/2 (2cos(5 pi/12) = 0.5176...):
    # proximity 4.04 exceeds (h+1) sqrt(4) = 3.39, so C_eps = 1 is not a
    # valid uniform constant; the shape needs the calibrated constant below
    pc = proximity_bound_check(Fraction(1, 2), 24, eps=0.5, c_eps=1.0)
    bad = [r for r in pc.records if not r.ok]
    assert [r.orbit_order for r in bad] == [24]


def test_proximity_check_seeded_with_calibrated_constant():
    rng = random.Random(1009)
    worst = 0.0
    betas = []
    while len(betas) < 25:
        q = Fraction(rng.randint(-100, 100), rng.randint(1, 100))
        if q in (0,) or abs(q) > 100:
            continue
        from chebdyn import is_preperiodic_rational, weil_height_rational

        if is_preperiodic_rational(q) or weil_height_rational(q).value > math.log(100):
            continue
        betas.append(q)
    for q in betas:
        pc = proximity_bound_check(q, 120, eps=0.5, c_eps=4.0)
        assert pc.violations == 0, q
        if pc.sandwich_ok is not None:
            assert pc.sandwich_ok


def test_proximity_rejects_preperiodic():
    with pytest.raises(PreperiodicInputError):
        proximity_bound_check(1, 10)


def test_convergent_scan_finds_the_roots_of_beta_once(monkeypatch):
    # h(beta) and theta_0 are per-beta constants: one certified root run
    # serves the whole scan (recomputed per convergent it took 31)
    beta = algebraic_number([5, 7, 5])  # poly:5,7,5@0
    calls = []
    real = roots.complex_roots

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    weil_height_algebraic.cache_clear()
    certified_angle.cache_clear()
    for module in (roots, heights, algebraic):
        monkeypatch.setattr(module, "complex_roots", counting)
    scan = convergent_scan(beta, 10000, 0.1)
    assert len(scan.records) > 5
    assert len(calls) <= 1


def test_proximity_check_lists_no_residues(monkeypatch):
    # arch_proximity reads the few residues nearest beta and the sandwich
    # reads the two ends of the orbit, so no order sieves its residues
    from chebdyn import chebyshev

    calls = []
    sieve = chebyshev.coprime_residues_half
    monkeypatch.setattr(chebyshev, "coprime_residues_half", lambda n: calls.append(n) or sieve(n))
    for beta in (Fraction(7, 3), algebraic_number([7, 3, 7], 0), algebraic_number([1, -5, 1], 1)):
        chebyshev.preperiodic_orbit.cache_clear()
        pc = proximity_bound_check(beta, 400, eps=0.1)
        assert calls == [], beta
    assert pc.sandwich_ok is True  # the sandwich did run on the real beta outside [-2, 2]


# ---------------------------------------------------------------------------
# the fixed-point angle and the nearest conjugates against their oracles
# ---------------------------------------------------------------------------

#: every beta a bench ``baker`` op draws: a x^2 + b x + a, 2 <= a <= 9,
#: |b| < 2a, gcd(a, b) = 1, both embeddings
BENCH_BETAS = [
    algebraic_number([a, b, a], index)
    for a in range(2, 10)
    for b in range(1 - 2 * a, 2 * a)
    if math.gcd(a, b) == 1
    for index in (0, 1)
]
#: a Salem quartic's conjugate on the unit circle: its embedding comes from
#: mpmath's certified roots and its angle from the same Newton step
SALEM = algebraic_number([1, -1, -1, -1, 1], 1)


def _oracle_explicit_constant(beta, eps, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(baker, "certified_angle", angle_oracle.certified_angle_mp)
        return assembled_constant(beta, eps)


def test_angle_and_scan_equal_the_mpmath_oracle(monkeypatch):
    assert len(BENCH_BETAS) == 216
    rows = 0
    for beta in [*BENCH_BETAS, SALEM]:
        for prec in (128, 192):
            theta, err = certified_angle(beta, prec)
            assert theta.denominator <= 1 << prec and err.denominator <= 1 << prec
            oracle, oracle_err = angle_oracle.certified_angle_mp(beta, prec)
            assert float(theta) == float(oracle), (beta, prec)
            with mp.workprec(2 * prec):
                gap = abs(mp.mpf(theta.numerator) / theta.denominator - oracle)
                assert gap <= mp.mpf(err.numerator) / err.denominator + oracle_err, (beta, prec)
        scan = convergent_scan(beta, 10000, 0.1)
        expect, calibrated = angle_oracle.convergent_rows(beta, 10000, 0.1, scan.c_eps)
        assert [(r.a, r.n, r.lhs, r.rhs, r.status) for r in scan.records] == expect, beta
        assert scan.calibrated_constant == calibrated, beta
        assert scan.explicit_constant == _oracle_explicit_constant(beta, 0.1, monkeypatch), beta
        rows += len(expect)
    assert rows > 1600


def test_angle_error_is_a_few_units_of_its_precision():
    for beta in (BENCH_BETAS[0], BENCH_BETAS[-1], SALEM):
        for prec in (128, 192, 256):
            _, err = certified_angle(beta, prec)
            assert 0 < err * (1 << prec) <= 8


def test_angle_gap_raises_when_the_ceiling_is_hit(monkeypatch):
    # a convergent with a 2^100 denominator lies about 2^-200 from theta_0:
    # under a 192-bit ceiling its gap sits inside the angle's error bound,
    # and at 256 bits it is resolved
    beta = algebraic_number([5, 7, 5], 0)
    theta, err = certified_angle(beta, 400)
    a, n = cf_convergents((theta, err), 1 << 100).convergents[-1]
    assert n > 1 << 90
    monkeypatch.setenv("CHEB_PRECISION_BITS", "192")
    with pytest.raises(PrecisionError):
        angle_rational_gap(beta, a, n, 0.1, 1.0)
    monkeypatch.setenv("CHEB_PRECISION_BITS", "256")
    assert angle_rational_gap(beta, a, n, 0.1, 1.0).lhs < -130


def _brute_proximity(order, beta):
    """The former arch_proximity: the minimum over every conjugate of
    ``conjugates_fast``, escalating through the first nearest one."""
    if isinstance(beta, Fraction):
        b, berr = complex(beta), abs(float(beta)) * 2e-16
    else:
        b, berr = complex(beta.embedding.value), beta.embedding.error_bound
    gaps = [abs(x - b) for x in conjugates_fast(order)]
    gap = min(gaps)
    if gap > 1e-6 + 8 * berr:
        return -math.log(gap)
    pairing_value(order, beta)
    a = preperiodic_orbit(order).a_values[gaps.index(gap)]
    for prec in precision_ladder(128):
        c = cos_two_pi(a, order, prec)
        with mp.workprec(prec):
            gap = abs(c - mp.mpc(b))
            if gap > 4 * (mp.mpf(2) ** (8 - prec) + berr):
                return float(-mp.log(gap))
    raise PrecisionError("unresolved", best=None)


def _near_conjugate(a, n, distance):
    """A rational within about ``distance`` of 2 cos(2 pi a / n)."""
    q = round(1 / distance)
    return Fraction(round(2 * math.cos(2 * math.pi * a / n) * q), q) + Fraction(1, 3 * q)


def test_arch_proximity_equals_the_minimum_over_every_conjugate():
    rng = random.Random(31)
    real = [Fraction(rng.randint(-900, 900), rng.randint(1, 300)) for _ in range(40)]
    real = [q for q in real if abs(q) not in (0, 1, 2)]
    assert any(abs(q) > 2 for q in real) and any(abs(q) < 2 for q in real)
    near = [_near_conjugate(a, n, 10.0**-k) for a, n, k in ((1, 7, 9), (3, 10, 8), (5, 24, 9), (17, 60, 7))]
    for beta in [*BENCH_BETAS, algebraic_number([1, -5, 1], 1), *real, *near]:
        for order in range(1, 401):
            assert arch_proximity(order, beta) == _brute_proximity(order, beta), (beta, order)
    # the near betas do take the escalation path at their own orders
    for beta, order in zip(near, (7, 10, 24, 60)):
        gap = min(abs(x - float(beta)) for x in conjugates_fast(order))
        assert gap < 1e-6


def test_proximity_sandwich_reads_the_orbit_ends():
    for beta in (Fraction(7, 3), Fraction(-9, 4), Fraction(2001, 1000), algebraic_number([1, -5, 1], 1)):
        b = complex(beta) if isinstance(beta, Fraction) else beta.embedding.value
        pc = proximity_bound_check(beta, 300, eps=0.1)
        ok = all(
            abs(b.real) - 2 - 1e-9 <= min(gaps) and max(gaps) <= abs(b.real) + 2 + 1e-9
            for gaps in ([abs(x - b) for x in conjugates_fast(n)] for n in range(1, 301))
        )
        assert pc.sandwich_ok is ok is True, beta
