import math
from fractions import Fraction

import mpmath as mp
import pytest

from chebdyn import DomainError, cf_convergents


def test_exact_rational():
    out = cf_convergents(Fraction(1, 3), 100)
    assert out.convergents == ((0, 1), (1, 3))
    assert not out.truncated


def test_sqrt2_minus_one():
    with mp.workprec(200):
        theta = mp.sqrt(2) - 1
    out = cf_convergents((theta, 1e-50), 12)
    assert out.convergents == ((0, 1), (1, 2), (2, 5), (5, 12))


def test_angle_of_three_four_five_triangle():
    with mp.workprec(200):
        theta = mp.atan2(4, 3) / (2 * mp.pi)
    out = cf_convergents((theta, 1e-50), 10**4)
    assert (1, 7) in out.convergents
    # convergents alternate around theta and improve
    t = float(theta)
    errs = [abs(a / n - t) for a, n in out.convergents]
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))


def test_golden_fibonacci_denominators():
    with mp.workprec(200):
        theta = (mp.sqrt(5) - 1) / 2
    out = cf_convergents((theta, 1e-50), 100)
    denominators = [n for _, n in out.convergents]
    assert denominators == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]


def test_truncation_under_coarse_error():
    out = cf_convergents((0.5 + 1e-3, 0.01), 10**6)
    assert out.truncated
    # nothing certified beyond what the interval supports
    for a, n in out.convergents:
        assert abs(a / n - 0.501) <= 0.011 + 1 / n**2


def test_negative_value():
    out = cf_convergents(Fraction(-7, 3), 50)
    assert out.convergents[0] == (-3, 1)
    assert Fraction(*out.convergents[-1]) == Fraction(-7, 3)


def test_bad_cap():
    with pytest.raises(DomainError):
        cf_convergents(Fraction(1, 2), 0)


def test_exact_centre_keeps_its_digits():
    # a 200-bit dyadic centre with a zero radius is the rational itself: its
    # expansion must not stop at a float's 53 bits
    theta = Fraction(math.isqrt(2 << 400) - (1 << 200), 1 << 200)  # sqrt(2) - 1, 200 bits
    exact = cf_convergents(theta, 10**12)
    assert cf_convergents((theta, Fraction(0)), 10**12) == exact
    assert exact.convergents[-1][1] > 10**11
