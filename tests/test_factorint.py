import math
import random
from fractions import Fraction

import pytest
import sympy

from chebdyn import DomainError, euler_phi, factorize, is_prime, padic_valuation
from chebdyn.factorint import factor_counts, strip_primes


def test_factorize_examples():
    assert factorize(12) == [2, 2, 3]
    assert factorize(1) == []
    assert factorize(2207) == [2207]  # trial division to sqrt shows primality
    assert factorize(-12) == [2, 2, 3]


def test_factorize_zero_rejected():
    with pytest.raises(DomainError):
        factorize(0)


def test_factorize_recomposes_small_range():
    for n in range(1, 20001):
        fs = factorize(n)
        assert math.prod(fs) == n
        assert fs == sorted(fs)
        assert all(is_prime(p) for p in set(fs))


def test_factorize_recomposes_random_64bit():
    rng = random.Random(20240811)
    for _ in range(1000):
        n = rng.randrange(2, 1 << 64)
        fs = factorize(n)
        assert math.prod(fs) == n
        assert fs == sorted(fs)


def test_factorize_hard_semiprime():
    p, q = 1000003, 1000033
    assert factorize(p * q) == [p, q]


def test_is_prime_against_sympy():
    rng = random.Random(7)
    for n in range(2, 2000):
        assert is_prime(n) == sympy.isprime(n)
    for _ in range(300):
        n = rng.randrange(2, 1 << 48)
        assert is_prime(n) == sympy.isprime(n)


def test_euler_phi_examples():
    assert euler_phi(5) == 4
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4


def test_euler_phi_against_sympy():
    for n in range(1, 500):
        assert euler_phi(n) == sympy.totient(n)


def test_padic_examples():
    assert padic_valuation(12, 2) == 2
    assert padic_valuation(Fraction(1, 9), 3) == -2
    assert padic_valuation(0, 5) == math.inf
    # an int skips the Fraction; its sign does not matter
    assert padic_valuation(-48, 2) == 4
    assert padic_valuation(-7 * 3**40, 3) == padic_valuation(Fraction(7 * 3**40), 3) == 40


def test_padic_rejects_composite():
    with pytest.raises(DomainError):
        padic_valuation(10, 4)


def test_padic_multiplicative_and_ultrametric():
    rng = random.Random(99)
    for _ in range(500):
        p = rng.choice([2, 3, 5, 7, 11, 13])
        a = Fraction(rng.randint(-500, 500) or 1, rng.randint(1, 500))
        b = Fraction(rng.randint(-500, 500) or 1, rng.randint(1, 500))
        assert padic_valuation(a * b, p) == padic_valuation(a, p) + padic_valuation(b, p)
        if a + b != 0:
            assert padic_valuation(a + b, p) >= min(
                padic_valuation(a, p), padic_valuation(b, p)
            )


def test_factor_counts_and_strip():
    assert factor_counts(360) == {2: 3, 3: 2, 5: 1}
    assert strip_primes(360, (2, 3)) == 5
    assert strip_primes(-64, (2,)) == 1
