import math
import operator
import random
from fractions import Fraction

import mpmath as mp
import pytest
import sympy

import minpoly_oracle
from chebdyn import (
    DomainError,
    IntPoly,
    cheb_eval,
    cheb_poly,
    cyclotomic_coeffs,
    euler_phi,
    factor_counts,
    is_preperiodic_rational,
    orbit_generator_height,
    orbit_size,
    preperiodic_orbit,
    proximity_bound_check,
    resultant,
)
from chebdyn import chebyshev, factorint, heights
from chebdyn.chebyshev import (
    ORBIT_COS_ERROR,
    ChebMap,
    conjugates_fast,
    coprime_residues_half,
    distinct_primes,
    halved_minpoly,
    is_preperiodic_dynamic,
    minpoly_conjugate_residuals,
    minpoly_identity_exact,
    minpoly_identity_mod,
    moebius_divisors,
    moebius_sums,
    orbit_norm_quadratic,
    orbit_value,
    preperiodic_order_of_minpoly,
)
from chebdyn.factorint import arithmetic_table, primes_upto


def test_cheb_poly_examples():
    assert cheb_poly(1).coeffs == (0, 1)
    assert cheb_poly(2).coeffs == (-2, 0, 1)
    assert cheb_poly(4).coeffs == (2, 0, -4, 0, 1)  # recurrence applied twice


def test_cheb_eval_examples():
    assert cheb_eval(2, 3) == 7
    assert cheb_eval(3, 1) == -2  # matches 2cos(3*pi/3)
    assert cheb_eval(6, 5) == 12098  # = T_2(T_3(5)) = T_2(110)


def test_cheb_domain():
    with pytest.raises(DomainError):
        cheb_poly(0)
    with pytest.raises(DomainError):
        ChebMap(1)


def test_composition_identity_exact():
    rng = random.Random(2024)
    for _ in range(500):
        m = rng.randint(1, 12)
        n = rng.randint(1, max(1, 12 // m))
        z = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        assert cheb_eval(m * n, z) == cheb_eval(m, cheb_eval(n, z))


def test_trig_identity():
    rng = random.Random(55)
    for _ in range(1000):
        n = rng.randint(1, 24)
        theta = rng.uniform(0, 2 * math.pi)
        val = cheb_eval(n, 2 * math.cos(theta))
        assert abs(val - 2 * math.cos(n * theta)) <= 1e-10 * n * n + 1e-12


def test_cyclotomic_against_sympy():
    x = sympy.Symbol("x")
    # 2310 and 4620 are the largest radicals here; sympy is too slow at 30030
    for n in list(range(1, 130)) + [105, 385, 512, 729, 1000, 2310, 4620]:
        mine = cyclotomic_coeffs(n)
        ref = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert mine == [int(c) for c in ref], n


def test_cyclotomic_divisor_product_at_large_radicals():
    # prod_{d | n} Phi_d(x) = x^n - 1 mod a 61-bit prime at a few x, with no
    # sympy, which is too slow at these radicals
    p = (1 << 61) - 1
    for n in (30030, 255255):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        for x in (2, 3, 10**9 + 7):
            prod = 1
            for d in divisors:
                val = 0
                for c in reversed(cyclotomic_coeffs(d)):
                    val = (val * x + c) % p
                prod = prod * val % p
            assert prod == (pow(x, n, p) - 1) % p, (n, x)


def test_orbit_examples():
    o1 = preperiodic_orbit(1)
    assert o1.minpoly.coeffs == (-2, 1) and o1.size == 1
    assert o1.conjugates[0].value == 2.0
    o4 = preperiodic_orbit(4)
    assert o4.minpoly.coeffs == (0, 1)
    assert len(o4.conjugates) == 1 and abs(o4.conjugates[0].value) < 1e-15
    o5 = preperiodic_orbit(5)
    assert o5.minpoly.coeffs == (-1, 1, 1)
    assert [round(c.value, 4) for c in o5.conjugates] == [0.618, -1.618]
    assert preperiodic_orbit(7).minpoly.coeffs == (-1, -2, 1, 1)


def test_orbit_size_examples():
    assert orbit_size(1) == 1
    assert orbit_size(5) == 2  # phi(5)/2
    assert orbit_size(12) == 2  # phi(12)/2
    for n in range(3, 20001):  # the Moebius divisor sum against factorint's totient
        assert orbit_size(n) == euler_phi(n) // 2, n


def test_minpoly_against_sympy():
    x = sympy.Symbol("x")
    for n in range(1, 41):
        ref = sympy.minimal_polynomial(2 * sympy.cos(2 * sympy.pi / n), x)
        mine = halved_minpoly(n)
        assert [int(c) for c in sympy.Poly(ref, x).all_coeffs()[::-1]] == list(mine.coeffs), n


def test_minpoly_identity_exact_moderate():
    for n in range(1, 201):
        assert minpoly_identity_exact(n), n


def test_minpoly_identity_mod_random_orders():
    rng = random.Random(71)
    for n in rng.sample(range(201, 1001), 60):
        assert minpoly_identity_mod(n), n


#: every order to 300 and every 7th one to 1000
_ORACLE_ORDERS = [*range(1, 301), *range(301, 1001, 7)]


def test_psi_checks_match_the_numpy_oracles():
    # the pure-Python residual sums the same symmetric form with each angle
    # reduced mod n exactly, so it sits within 1e-11 of the numpy oracle's
    for n in _ORACLE_ORDERS:
        assert minpoly_identity_mod(n) and minpoly_oracle.minpoly_identity_mod(n), n
        got = max(minpoly_conjugate_residuals(n))
        want = float(minpoly_oracle.minpoly_conjugate_residuals(n).max())
        assert got <= 1e-9 and abs(got - want) <= 1e-11, (n, got, want)
        assert len(minpoly_conjugate_residuals(n)) == orbit_size(n), n


def test_psi_identity_mod_p_sees_one_coefficient_off_by_one(monkeypatch):
    for n in (7, 132, 997):
        coeffs = halved_minpoly(n).coeffs
        for i in sorted({0, 1, len(coeffs) // 2, len(coeffs) - 2}):
            bad = list(coeffs)
            bad[i] += 1
            monkeypatch.setattr(chebyshev, "halved_minpoly", lambda _, bad=bad: IntPoly(tuple(bad)))
            assert not minpoly_identity_mod(n), (n, i)
            assert not minpoly_identity_mod(n, 3), (n, i)
        monkeypatch.undo()
        assert minpoly_identity_mod(n) and minpoly_identity_mod(n, 3), n


def _scaled_cosines(n: int, bits: int) -> list[int]:
    """round(2^bits * 2 cos(2 pi k / n)) for k = 0..n/2, up to a few units.

    x_1 comes from mpmath; x_{k+1} = x_1 x_k - x_{k-1} then runs in integers.
    Each step adds at most two units (the truncation, and x_1's rounding
    times |x_k| <= 2), and a unit added at step j is at most k - j + 1 units
    at step k (|U_m| <= m + 1), so x_k is off by at most k (k + 1) units:
    below 2^-179 for n <= 2000 at 200 bits.
    """
    with mp.workprec(bits + 32):
        x1 = int(mp.nint(2 * mp.cospi(mp.mpf(2) / n) * mp.mpf(2) ** bits))
    xs = [2 << bits, x1]
    for _ in range(2, n // 2 + 1):
        xs.append(((x1 * xs[-1]) >> bits) - xs[-2])
    return xs


def test_orbit_conjugate_error_bounds_hold():
    """Every float conjugate of every orbit N <= 2000 lies within
    ORBIT_COS_ERROR of the exact 2 cos(2 pi a / N), and the orbit reports
    those values with that bound (0 at N <= 2, where they are exact).

    The former flat 4e-16 was exceeded from N = 3 on (error 4.4e-16), with
    errors of 5.1e-16 at (N, a) = (41, 11) and 9.83e-16 at (1987, 671).
    """
    bits = 200
    for n, a in ((41, 11), (1987, 671)):  # the oracle itself, against cospi
        with mp.workprec(bits + 32):
            exact = int(mp.nint(2 * mp.cospi(mp.mpf(2 * a) / n) * mp.mpf(2) ** bits))
        assert abs(_scaled_cosines(n, bits)[a] - exact) < 2**30
    for n, bound in ((1, 0.0), (2, 0.0), (3, ORBIT_COS_ERROR), (41, ORBIT_COS_ERROR)):
        conj = preperiodic_orbit(n).conjugates
        assert [c.value for c in conj] == conjugates_fast(n)
        assert all(type(c.value) is float and c.error_bound == bound for c in conj)
    worst = 0.0
    for n in range(3, 2001):
        xs = _scaled_cosines(n, bits)
        for a, c in zip(coprime_residues_half(n), conjugates_fast(n)):
            err = abs(int(c * 2.0**bits) - xs[a]) / 2**bits
            assert err <= ORBIT_COS_ERROR, (n, a, err)
            worst = max(worst, err)
    assert worst > 4e-16  # the sweep does see errors past the former bound


def test_coprime_sieve_matches_gcd_filter():
    # oracle: math.gcd over 1..n/2, and the np.gcd filter and numpy cos the
    # per-orbit kernel used before it moved to libm
    import numpy as np

    for n in range(1, 4001):
        want = [a for a in range(1, n // 2 + 1) if math.gcd(a, n) == 1] if n > 2 else [1]
        assert coprime_residues_half(n) == want, n
        if n > 2:
            b = np.arange(1, n // 2 + 1)
            b = b[np.gcd(b, n) == 1]
            assert conjugates_fast(n) == (2.0 * np.cos(2.0 * np.pi * b / n)).tolist(), n
    assert conjugates_fast(1) == [2.0] and conjugates_fast(2) == [-2.0]


def test_orbit_generator_height_within_its_bound():
    # oracle: sum log max(|x|, 1) over the 200-bit conjugates x, taken at
    # 80 bits as logs of exact integer products of 16 terms at a time
    bits = 200
    worst = 0.0
    for n in range(1, 2001):
        h = orbit_generator_height(n)
        xs = _scaled_cosines(n, bits)
        big = [abs(xs[a]) for a in coprime_residues_half(n) if abs(xs[a]) >> bits]
        with mp.workprec(80):
            total = mp.fsum(mp.log(math.prod(big[i : i + 16])) for i in range(0, len(big), 16))
            err = abs(h.value - float((total - len(big) * bits * mp.ln2) / orbit_size(n)))
        assert err <= h.error_bound, (n, err, h.error_bound)
        worst = max(worst, err / h.error_bound)
    assert worst > 0.0  # the oracle does resolve the float error


def test_orbit_height_defects_within_their_bounds():
    # E(d) = sum_{a<d} log max(1, |2 cos(2 pi a/d)|) - d kappa against the
    # 200-bit conjugates, logs of exact products of 16 taken at 128 bits;
    # below DEFECT_SERIES_FROM the kernel subtracts kappa_f itself
    bits = 200
    rng = random.Random(26)
    worst = {}
    with mp.workprec(128):
        third = mp.mpf(1) / 3
        kappa = 3 * mp.sqrt(3) * (mp.zeta(2, third) - mp.zeta(2, 2 * third)) / (36 * mp.pi)
        for d in [*range(1, 401), *rng.sample(range(401, 5001), 40)]:
            e, err = heights._orbit_height_defect(d)
            xs = _scaled_cosines(d, bits)
            big = [abs(xs[a]) for a in range(1, (d + 1) // 2) if abs(xs[a]) >> bits]
            total = 2 * mp.fsum(mp.log(math.prod(big[i : i + 16])) for i in range(0, len(big), 16))
            total -= 2 * len(big) * bits * mp.ln2
            total += mp.ln2 * (2 if d % 2 == 0 else 1)  # a = 0 and a = d/2
            k = mp.mpf(heights.LOG_PLUS_INTEGRAL) if d < heights.DEFECT_SERIES_FROM else kappa
            gap = float(abs(e - (total - d * k)))
            assert gap <= err, (d, gap, err)
            key = d < heights.DEFECT_SERIES_FROM
            worst[key] = max(worst.get(key, 0.0), gap / err)
    assert 0.0 < worst[True] < 0.5 and 0.0 < worst[False] < 0.5  # the oracle resolves both kernels


def test_orbit_expands_psi_n_only_when_read():
    """Orbit construction, its conjugates and the proximity scan, which
    reads only the conjugates, expand no minimal polynomial."""
    preperiodic_orbit.cache_clear()
    halved_minpoly.cache_clear()
    for n in range(1, 61):
        assert len(preperiodic_orbit(n).conjugates) == orbit_size(n)
    for beta in (Fraction(97, 89), Fraction(-71, 13)):
        proximity_bound_check(beta, 60)
    assert halved_minpoly.cache_info().misses == 0
    assert preperiodic_orbit(7).minpoly.coeffs == (-1, -2, 1, 1)
    assert halved_minpoly.cache_info().misses == 1


def test_arithmetic_table_across_growth(monkeypatch):
    # start from the smallest table, so the sweep crosses every doubling to
    # 1 << 16: spf (through distinct_primes) against factorization, mu
    # against the divisor walk, phi and the primes against sympy
    monkeypatch.setattr(factorint, "_TABLE", factorint._linear_sieve(1 << 10))
    limits = set()
    for n in range(2, 40001):
        assert distinct_primes(n) == sorted(factor_counts(n)), n
        table = arithmetic_table(n)
        limits.add(table.limit)
        assert table.mu[n] == dict(moebius_divisors(n)).get(1, 0), n
    assert limits == {1 << k for k in range(10, 17)}
    rng = random.Random(2903)
    for n in [1, 2, 1024, 1025, 2048, 2049, 40000, *rng.sample(range(3, 40001), 400)]:
        assert table.phi[n] == sympy.totient(n), n
    assert table.primes == list(sympy.primerange(2, table.limit + 1))
    assert primes_upto(40000) == list(sympy.primerange(2, 40001))


def test_moebius_sums_match_the_divisor_lists():
    # one sieve pass per prime against a divisor list per N: integers
    # exactly, floats equal to math.fsum of the same terms, the exact sum
    # rounded once, down to subnormals and up to 1e300
    rng = random.Random(4409)
    edge = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 2.5e-310, 1e300, -1e300, 1.0, -3.0]
    for n_max in (1, 2, 3, 500, 3000):
        floats = [0.0] + [
            rng.choice(edge) if rng.random() < 0.3 else rng.uniform(-1, 1) * 10.0 ** rng.randint(-20, 3)
            for _ in range(n_max)
        ]
        ints = [0] + [rng.choice((0, rng.randint(-(10**30), 10**30))) for _ in range(n_max)]
        got_f, got_i = moebius_sums(floats, n_max), moebius_sums(ints, n_max)
        spread = moebius_sums([abs(v) for v in floats], n_max, operator.add)
        got_phi = moebius_sums(range(n_max + 1), n_max)
        assert got_f[0] == 0.0 and got_i[0] == 0 and len(got_f) == len(got_i) == n_max + 1
        for n in range(1, n_max + 1):
            terms = moebius_divisors(n)
            assert got_f[n] == math.fsum(mu * floats[d] for d, mu in terms), (n_max, n)
            assert spread[n] == math.fsum(abs(floats[d]) for d, _ in terms), (n_max, n)
            assert got_i[n] == sum(mu * ints[d] for d, mu in terms), (n_max, n)
            assert type(got_f[n]) is float and type(got_i[n]) is int
            assert got_phi[n] == (2 * orbit_size(n) if n >= 3 else 1), n


def test_orbit_closure_under_dynamics():
    # T_d sends the order-N point to the point of order N/gcd(N, d)
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(3, 120)
        d = rng.randint(2, 6)
        target = preperiodic_orbit(n // math.gcd(n, d))
        targets = [c.value for c in target.conjugates]
        for c in preperiodic_orbit(n).conjugates:
            image = cheb_eval(d, c.value)
            assert min(abs(image - t) for t in targets) < 1e-9


def test_preperiodic_rational_classification():
    assert is_preperiodic_rational(2)
    assert is_preperiodic_rational(1)  # N = 6: 2cos(pi/3) = 1
    assert not is_preperiodic_rational(3)  # outside the Julia interval
    for v in (-2, -1, 0, 1, 2):
        assert is_preperiodic_rational(v)
        assert is_preperiodic_dynamic(v)
    rng = random.Random(303)
    for _ in range(200):
        q = Fraction(rng.randint(-60, 60), rng.randint(1, 40))
        assert is_preperiodic_rational(q) == is_preperiodic_dynamic(q)


def test_preperiodic_order_of_minpoly():
    assert preperiodic_order_of_minpoly(halved_minpoly(30)) == 30
    assert preperiodic_order_of_minpoly(IntPoly.of(-2, 1)) == 1
    assert preperiodic_order_of_minpoly(IntPoly.of(-1, 1, 1)) == 5
    assert preperiodic_order_of_minpoly(IntPoly.of(-2, 0, 1)) == 8  # sqrt(2)
    assert preperiodic_order_of_minpoly(IntPoly.of(-2, -2, 1)) is None  # 1+sqrt(3)
    assert preperiodic_order_of_minpoly(IntPoly.of(-3, 1)) is None


def test_preperiodic_order_of_minpoly_against_sympy():
    x = sympy.Symbol("x")
    # every psi_N is monic, so a non-monic f is ruled out before any psi_N is built
    halved_minpoly.cache_clear()
    for f in (IntPoly.of(-1, 1, 3), IntPoly.of(-3, 1, 2, 5), IntPoly.of(2, -1, 0, 3, 2)):
        assert sympy.Poly(list(f.coeffs[::-1]), x).is_irreducible
        for g in (f, -f, f * IntPoly.of(6)):
            assert preperiodic_order_of_minpoly(g) is None
    assert halved_minpoly.cache_info().misses == 0
    for n in range(3, 61):
        ref = sympy.minimal_polynomial(2 * sympy.cos(2 * sympy.pi / n), x, polys=True)
        f = IntPoly.from_coeffs([int(c) for c in ref.all_coeffs()[::-1]])
        assert preperiodic_order_of_minpoly(f) == n
        assert preperiodic_order_of_minpoly(-f) == n
    assert halved_minpoly.cache_info().misses > 0


def test_orbit_value_matches_minpoly_evaluation():
    rng = random.Random(88)
    for _ in range(250):
        n = rng.randint(1, 80)
        q = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        expected = halved_minpoly(n).eval_homogeneous(q.numerator, q.denominator)
        assert orbit_value(n, q) == expected


def test_orbit_norm_quadratic_matches_resultant():
    rng = random.Random(91)
    tried = 0
    while tried < 120:
        a = rng.randint(1, 7)
        b = rng.randint(-9, 9)
        c = rng.randint(-9, 9)
        f = IntPoly.of(c, b, a)
        if f.degree != 2 or b * b - 4 * a * c == 0:
            continue
        n = rng.randint(1, 40)
        assert orbit_norm_quadratic(n, f) == resultant(halved_minpoly(n), f)
        tried += 1


def test_orbit_norm_quadratic_rejects_nonpositive_order():
    f = IntPoly.of(-1, 1, 3)
    assert orbit_norm_quadratic(2, f) == 9
    for n in (0, -5):
        with pytest.raises(DomainError):
            orbit_norm_quadratic(n, f)


def test_conjugates_inside_julia_interval():
    for n in range(1, 301):
        assert all(abs(c.value) <= 2 + 1e-12 for c in preperiodic_orbit(n).conjugates)


def test_order_caches_are_bounded():
    # a long sweep must not keep every order's polynomials and orbits
    for fn in (
        chebyshev.moebius_divisors,
        chebyshev._cyclotomic_half,
        chebyshev.cheb_poly,
        chebyshev.halved_minpoly,
        chebyshev.preperiodic_orbit,
    ):
        assert fn.cache_info().maxsize == chebyshev.MOEBIUS_CACHE_SIZE, fn
