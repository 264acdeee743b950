import math
import random
from fractions import Fraction

import pytest

from chebdyn import (
    ARCH,
    INFINITY,
    DomainError,
    IntPoly,
    Place,
    PlaceSet,
    PreperiodicInputError,
    algebraic_number,
    arch_proximity,
    chordal_distance,
    is_s_integral,
    local_lambda,
    meeting_primes,
    near_orbit_scan,
    newton_polygon_valuations,
    padic_valuation,
    preperiodic_orbit,
    resultant,
    root_of_unity_valuation,
)
from chebdyn.chebyshev import halved_minpoly, orbit_norm_quadratic, orbit_value
from chebdyn.errors import CoincidentPointsError
from chebdyn.factorint import euler_phi, factor_counts, primes_upto, strip_primes
from chebdyn.integrality import PairingSieve, orbit_shift_poly, pairing_value, scan_orbits


def test_place_validation():
    with pytest.raises(DomainError):
        Place(4)
    with pytest.raises(DomainError):
        PlaceSet(frozenset({Place(2)}))  # missing the archimedean place
    assert PlaceSet.parse("inf,2,3").finite_primes == (2, 3)
    with pytest.raises(DomainError):
        PlaceSet.parse("2,3")


def test_chordal_examples():
    assert chordal_distance(0, INFINITY) == 1.0
    assert chordal_distance(Fraction(1, 2), Fraction(1, 2), Place(7)) == 0
    assert abs(chordal_distance(1, 3) - 2 / 3) < 1e-15
    assert chordal_distance(0, Fraction(4, 3), Place(2)) == Fraction(1, 4)


def test_chordal_symmetry_and_range():
    rng = random.Random(11)
    for _ in range(300):
        x = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        y = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        p = Place(rng.choice([2, 3, 5, 7, 11]))
        d1, d2 = chordal_distance(x, y, p), chordal_distance(y, x, p)
        assert d1 == d2
        assert 0 <= d1 <= 1  # ultrametric pins finite places to [0, 1]
        da = chordal_distance(x, y)
        assert abs(da - chordal_distance(y, x)) < 1e-15
        assert -1e-15 <= da <= 2 + 1e-12  # max-norm real place tops out at 2


def test_chordal_archimedean_exceeds_one_on_opposite_signs():
    # the max-norm formula is not capped by 1 at the real place
    assert chordal_distance(Fraction(3, 2), Fraction(-3, 2)) > 1


def test_lambda_examples():
    assert abs(local_lambda(1, 3) - math.log(1.5)) < 1e-15
    assert abs(local_lambda(0, INFINITY)) == 0.0
    assert abs(local_lambda(0, Fraction(4, 3), Place(2)) - math.log(4)) < 1e-15
    with pytest.raises(CoincidentPointsError):
        local_lambda(Fraction(1, 2), Fraction(1, 2))


def test_lambda_lower_bounds():
    # nonnegative at finite places, >= -log 2 at the real place
    rng = random.Random(13)
    for _ in range(300):
        x = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        y = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        if x == y:
            continue
        assert local_lambda(x, y, rng.choice([Place(2), Place(5), Place(13)])) >= 0
        assert local_lambda(x, y, ARCH) >= -math.log(2) - 1e-12


def test_lambda_zero_at_non_meeting_places():
    # p-integral points with distinct reductions mod p sit at distance 1
    assert local_lambda(Fraction(1, 3), Fraction(2, 5), Place(7)) == 0.0
    assert local_lambda(3, 5, Place(7)) == 0.0
    assert local_lambda(3, 10, Place(7)) > 0.0  # same reduction: 3 = 10 mod 7


def test_meeting_primes_examples():
    assert meeting_primes(preperiodic_orbit(5), 3) == {11: 1}
    assert meeting_primes(preperiodic_orbit(1), 3) == {}
    assert meeting_primes(preperiodic_orbit(4), Fraction(4, 3)) == {2: 2}


def test_meeting_primes_rejects_conjugate():
    with pytest.raises(PreperiodicInputError):
        meeting_primes(preperiodic_orbit(4), 0)
    with pytest.raises(PreperiodicInputError):
        meeting_primes(preperiodic_orbit(6), 1)


def test_pairing_value_rejects_beta_in_the_orbit():
    # one beta per norm form of the shared kernel: degree 1, the closed-form
    # quadratic norm (golden ratio, order 10), the resultant (a root of psi_7)
    cases = (
        (Fraction(1), 6),
        (algebraic_number([-1, -1, 1]), 10),
        (algebraic_number([-1, -2, 1, 1]), 7),
    )
    for beta, order in cases:
        with pytest.raises(PreperiodicInputError, match=f"order-{order} orbit") as err:
            pairing_value(order, beta)
        assert "AlgebraicNumber" not in str(err.value)


def test_pairing_sieve_matches_pairing_value():
    # seeded rational betas of both signs and heights up to 14 nats, three
    # with tested primes in the denominator; N <= 300 covers N = 1 and 2
    rng = random.Random(11)
    primes = (2, 3, 5, 7, 11, 13)
    betas = [Fraction(-97, 89), Fraction(5, 12), Fraction(-7, 390)]
    while len(betas) < 12:
        big = round(math.exp(rng.uniform(1.1, 14.0)))
        small = rng.randint(1, big - 1)
        if math.gcd(big, small) != 1:
            continue
        num, den = (big, small) if rng.random() < 0.5 else (small, big)
        betas.append(Fraction(-num if rng.random() < 0.5 else num, den))
    assert min(betas) < 0 < max(betas)
    hits = 0
    for beta in betas:
        sieve = PairingSieve(beta, 300, primes)
        expected_rows = []
        for n in range(1, 301):
            f = orbit_value(n, beta)  # an independent oracle of the pairing
            if n <= 120:
                assert pairing_value(n, beta) == f, (beta, n)
            assert abs(sieve.log_abs(n) - math.log(abs(f))) < 1e-9, (beta, n)
            vals = [padic_valuation(f, p) for p in primes]
            assert [sieve.valuation(n, p) for p in primes] == vals, (beta, n)
            hits += any(vals)
            if strip_primes(f, primes) == 1:
                expected_rows.append((n, max(1, euler_phi(n) // 2), vals))
        rows, _ = scan_orbits(beta, PlaceSet.of(*primes), 300, 2.0)
        got = [(n, size, [meets.get(p, 0) for p in primes]) for n, size, meets in rows]
        assert got == expected_rows, beta
    assert hits > 100


def _wandering_algebraic(rng: random.Random, degree: int, coeff: int):
    """An irreducible primitive polynomial with leading coefficient >= 2 (so
    its roots are not algebraic integers, hence wandering), one root chosen."""
    while True:
        c = [rng.randint(-coeff, coeff) for _ in range(degree)] + [rng.randint(2, coeff)]
        if c[0] == 0 or math.gcd(*c) != 1:
            continue
        try:
            return algebraic_number(c, rng.randrange(degree))
        except DomainError:
            continue


def _pairing_oracle(n: int, f: IntPoly) -> int:
    """res(psi_n, f) by the routes the kernel does not share: the quadratic
    norm recurrence, or psi_n expanded and a subresultant."""
    return orbit_norm_quadratic(n, f) if f.degree == 2 else resultant(halved_minpoly(n), f)


def test_pairing_sieve_matches_pairing_value_above_degree_one():
    # seeded betas drawn like the algebraic bench scans, plus two with lead
    # 13 = 52/4: with S = {2, 3, 5, 7, 11}, lead primes sit inside S and
    # outside it, and both kinds divide some F_N
    rng = random.Random(12)
    cases = [(2, 9, 120), (2, 9, 120), (3, 6, 70), (3, 6, 70), (4, 4, 70), (4, 4, 70)]
    betas = [(_wandering_algebraic(rng, degree, coeff), n_max) for degree, coeff, n_max in cases]
    betas += [(algebraic_number([-2, 1, 13], 1), 120), (algebraic_number([-1, 2, 0, 52], 0), 70)]
    s_fin = (2, 3, 5, 7, 11)
    hits = {True: 0, False: 0}  # lead prime in S -> F_N it divides
    for beta, n_max in betas:
        lead = set(factor_counts(beta.leading))
        primes = (*s_fin, *sorted(lead - set(s_fin)))
        sieve = PairingSieve(beta, n_max, primes)
        expected_rows = []
        for n in range(1, n_max + 1):
            f = _pairing_oracle(n, beta.minpoly)
            assert pairing_value(n, beta) == f, (beta.minpoly, n)
            assert abs(sieve.log_abs(n) - math.log(abs(f))) < 1e-9, (beta.minpoly, n)
            vals = [padic_valuation(f, p) for p in primes]
            assert [sieve.valuation(n, p) for p in primes] == vals, (beta.minpoly, n)
            for p, v in zip(primes, vals):
                if p in lead and v:
                    hits[p in s_fin] += 1
            if strip_primes(f, primes) == 1:
                expected_rows.append((n, vals[: len(s_fin)]))
        rows, _ = scan_orbits(beta, PlaceSet.of(*s_fin), n_max, 2.0)
        got = [(n, [meets.get(p, 0) for p in s_fin]) for n, _, meets in rows]
        assert got == expected_rows, beta.minpoly
    assert {beta.degree for beta, _ in betas} == {2, 3, 4}
    assert hits[True] and hits[False]


def test_pairing_value_expands_no_minpoly():
    beta = algebraic_number([-3, 1, 2, 5])
    before = halved_minpoly.cache_info()
    value = pairing_value(2000, beta)
    assert halved_minpoly.cache_info() == before
    assert value == _pairing_oracle(2000, beta.minpoly)


@pytest.mark.parametrize("coeffs, order", [([-1, -2, 1, 1], 7), ([-1, 1, 1], 5)])
def test_pairing_sieve_rejects_algebraic_orbit_point(coeffs, order):
    beta = algebraic_number(coeffs, 1)
    with pytest.raises(PreperiodicInputError, match=f"a root of .* order-{order} orbit"):
        PairingSieve(beta, 3 * order)


@pytest.mark.parametrize("beta, order", [(2, 1), (-2, 2), (-1, 3), (0, 4), (1, 6)])
def test_pairing_sieve_rejects_preperiodic_beta(beta, order):
    with pytest.raises(PreperiodicInputError, match=f"order-{order} orbit"):
        PairingSieve(beta, 12)


def test_meeting_primes_algebraic_excludes_lead():
    beta = algebraic_number([5, -6, 5])  # lead 5: places over 5 are excluded
    meets = meeting_primes(preperiodic_orbit(4), beta)
    assert 5 not in meets
    # res(psi_4, f) = res(x, f) = f(0)-style pairing: value 5 -> support {5} excluded
    assert meets == {}


def test_is_s_integral_examples():
    o5 = preperiodic_orbit(5)
    assert is_s_integral(o5, 3, PlaceSet.of(11)).is_s_integral
    rep = is_s_integral(o5, 3, PlaceSet.of())
    assert not rep.is_s_integral and rep.witness == 11
    assert is_s_integral(preperiodic_orbit(1), 3, PlaceSet.of()).is_s_integral


def test_newton_polygon_examples():
    p = 5
    assert newton_polygon_valuations(IntPoly.of(-p, 0, 1), p) == [Fraction(1, 2)] * 2
    assert newton_polygon_valuations(IntPoly.of(p, -1, 1), p) == [Fraction(0), Fraction(1)]
    assert newton_polygon_valuations(IntPoly.of(1, 1, p), p) == [Fraction(-1), Fraction(0)]


def test_newton_polygon_zero_roots_and_sum_rule():
    vals = newton_polygon_valuations(IntPoly.of(0, 0, 4, 1), 2)
    assert vals[0] == 2 and vals[1:] == [math.inf, math.inf]
    rng = random.Random(17)
    for _ in range(300):
        coeffs = [rng.randint(-400, 400) for _ in range(rng.randint(1, 6))]
        coeffs.append(rng.choice([1, -1, 2, 6, 50]))
        g = IntPoly.from_coeffs(coeffs)
        if g.degree < 1 or g.coeffs[0] == 0:
            continue
        p = rng.choice([2, 3, 5, 7])
        vals = newton_polygon_valuations(g, p)
        assert sum(vals) == padic_valuation(g.coeffs[0], p) - padic_valuation(g.leading, p)


def test_root_of_unity_valuation_examples():
    assert root_of_unity_valuation(2, 2) == 1
    assert root_of_unity_valuation(9, 3) == Fraction(1, 6)
    assert root_of_unity_valuation(5, 3) == 0
    assert root_of_unity_valuation(1, 7) == math.inf
    assert root_of_unity_valuation(12, 2) == 0  # order divisible by two primes


def test_dual_oracle_small():
    # resultant divisibility vs Newton polygon positivity
    rng = random.Random(23)
    for _ in range(400):
        n = rng.randint(1, 40)
        beta = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        f_val = orbit_value(n, beta)
        if f_val == 0:
            continue
        orbit = preperiodic_orbit(n)
        g = orbit_shift_poly(orbit, beta)
        assert g.coeffs[0] == f_val  # two independent exact routes agree
        for p in (2, 3, 5, 7, 11, 13):
            route_a = f_val % p == 0 and beta.denominator % p != 0
            vals = newton_polygon_valuations(g, p)
            route_b = any(v is not math.inf and v > 0 for v in vals)
            assert route_a == route_b


def test_two_sided_integrality_symmetry():
    # verdicts agree with the two-sided per-place conditions: outside S either
    # no conjugate pair is p-adically close (both points p-integral), or the
    # denominator primes of beta force chordal distance 1 against the
    # integral conjugates of alpha (the exchanged-roles condition)
    rng = random.Random(29)
    count = 0
    while count < 200:
        n = rng.randint(1, 30)
        beta = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        if orbit_value(n, beta) == 0:
            continue
        count += 1
        orbit = preperiodic_orbit(n)
        primes = tuple(rng.sample(primes_upto(60), 3))
        verdict = strip_primes(pairing_value(n, beta), primes) == 1
        meets = meeting_primes(orbit, beta)
        outside = sorted(q for q in meets if q not in primes)
        assert verdict == (not outside)
        assert all(beta.denominator % q for q in meets)  # den primes never meet
        g = orbit_shift_poly(orbit, beta)
        for q in outside[:2]:
            vals = newton_polygon_valuations(g, q)
            assert any(v is not math.inf and v > 0 for v in vals)


def test_near_orbit_scan_examples():
    rep = near_orbit_scan(3, 11, 100)
    assert [n for n, _ in rep.flagged] == [5]  # v = 1 > 2/10
    # order-55 relatives sit at exactly the single-factor level 1/10
    assert rep.near_misses == ((55, Fraction(1, 10)),)
    assert rep.at_most_one

    rep = near_orbit_scan(3, 2, 3)
    # v_2(3 - (-1)) = 2 lands exactly at the two-factor barrier 2/(2-1)
    assert rep.flagged == ()
    assert rep.near_misses == ((3, Fraction(2)),)

    rep = near_orbit_scan(Fraction(1, 2), 7, 50)
    # the order-8 orbit meets beta = 1/2 at 7 (psi_8 value -7), valuation 1
    assert [n for n, _ in rep.flagged] == [8]
    assert rep.at_most_one


def test_near_orbit_two_points_above_single_factor_level():
    # both -2 (order 2) and 1 (order 6) sit 3-adically closer to 1/13 than
    # the single-factor level 1/2: the two-point exclusion genuinely needs
    # the two-factor barrier
    rep = near_orbit_scan(Fraction(1, 13), 3, 10)
    crossers = [n for n, v in list(rep.flagged) + list(rep.near_misses) if v >= Fraction(1, 2)]
    assert set(crossers) >= {2, 6}
    assert rep.at_most_one  # only v_3(1/13 + 2) = 3 clears 2/(3-1) strictly


def test_near_orbit_barrier_pair_regression():
    # beta = 6 at p = 2: v(6-2) = 2 (at the barrier) and v(6+2) = 3 (above);
    # exactly one flagged point survives the strict two-factor threshold
    rep = near_orbit_scan(6, 2, 6)
    assert [n for n, _ in rep.flagged] == [2]
    assert (1, Fraction(2)) in rep.near_misses
    assert rep.at_most_one


def test_near_orbit_rejects_preperiodic():
    with pytest.raises(PreperiodicInputError):
        near_orbit_scan(2, 5, 10)


def test_arch_proximity_examples():
    expect = -math.log(3 - 2 * math.cos(2 * math.pi / 5))
    assert abs(arch_proximity(5, 3) - expect) < 1e-12
    assert abs(arch_proximity(1, 10) + math.log(8)) < 1e-12
    near = arch_proximity(5, Fraction(6181, 10000))
    assert 9 < near < 10.5
    with pytest.raises(PreperiodicInputError):
        arch_proximity(1, 2)
