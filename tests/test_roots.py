import math
import random

import mpmath as mp
import pytest

from chebdyn import DomainError, IntPoly, complex_roots
from chebdyn.cli import main
from chebdyn.errors import PrecisionError
from chebdyn.roots import is_squarefree


def test_quadratic_formula_oracle():
    roots = complex_roots(IntPoly.of(-1, 1, 1), 1e-12)
    golden = (math.sqrt(5) - 1) / 2
    assert abs(roots[0].value - (-golden - 1)) <= roots[0].error_bound + 1e-15
    assert abs(roots[1].value - golden) <= roots[1].error_bound + 1e-15
    assert all(r.error_bound <= 1e-12 for r in roots)


def test_large_root_certifies_with_covering_bound(capsys):
    # a root near 1.54e4: its float64 rounding term (|z| + 1) * 2^-52 alone
    # exceeds 1e-12, so it may not block certification, but it stays in the
    # returned bound, which must cover the exact quadratic-formula root
    c, b, a = 332161872, -565306365, 36685
    assert main(["height", f"--beta=poly:{c},{b},{a}"]) == 0
    capsys.readouterr()
    roots = complex_roots(IntPoly.of(c, b, a))
    with mp.workdps(60):
        disc = mp.sqrt(b * b - 4 * a * c)
        exact = [(-b - disc) / (2 * a), (-b + disc) / (2 * a)]
        for r, x in zip(roots, exact):
            assert abs(mp.mpc(r.value) - x) <= r.error_bound
    assert abs(roots[1].value) > 1.5e4


def test_linear_and_gaussian():
    (r,) = complex_roots(IntPoly.of(-2, 1))
    assert r.value == 2.0
    ri, rj = complex_roots(IntPoly.of(1, 0, 1))
    assert abs(ri.value - (-1j)) < 1e-14
    assert abs(rj.value - 1j) < 1e-14


def test_order_is_deterministic():
    roots = complex_roots(IntPoly.of(-6, 11, -6, 1))  # roots 1, 2, 3
    assert [round(r.value.real) for r in roots] == [1, 2, 3]


def test_residual_certification():
    rng = random.Random(113)
    for _ in range(60):
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 5))]
        coeffs.append(rng.choice([1, 2, 3, -1]))
        f = IntPoly.from_coeffs(coeffs)
        if f.degree < 1 or not is_squarefree(f):
            continue
        roots = complex_roots(f, 1e-12)
        assert len(roots) == f.degree
        for r in roots:
            # |f| is Lipschitz near the root with constant sum |c_i| (1+|z|)^(d-1)
            lip = sum(abs(c) for c in f.coeffs) * (1 + abs(r.value)) ** (f.degree - 1)
            assert abs(f(r.value)) <= 2 * lip * r.error_bound + 1e-10


def test_rejects_non_squarefree_and_zero():
    with pytest.raises(DomainError):
        complex_roots(IntPoly.of(1, 2, 1))  # (x+1)^2
    with pytest.raises(DomainError):
        complex_roots(IntPoly.of())


def test_precision_ceiling_failure_carries_best(monkeypatch):
    monkeypatch.setenv("CHEB_PRECISION_BITS", "64")
    with pytest.raises(PrecisionError) as err:
        complex_roots(IntPoly.of(-1, 1, 1), 1e-40)
    assert err.value.best is not None  # best achieved approximation preserved


def test_quadratic_roots_and_heights_against_a_60_digit_oracle():
    # every quadratic that sample_betas can draw (a <= 6, |b|, |c| <= 12,
    # primitive, irreducible): the roots come from isqrt in closed form, each
    # the float nearest the exact root, within its bound, and the Mahler
    # height reads those floats
    from chebdyn import DomainError as Reducible, algebraic_number, weil_height_algebraic

    count = 0
    for a in range(1, 7):
        for b in range(-12, 13):
            for c in range(-12, 13):
                if math.gcd(math.gcd(a, b), c) != 1:
                    continue
                try:
                    beta = algebraic_number([c, b, a], 0)
                except Reducible:
                    continue
                count += 1
                with mp.workdps(60):
                    disc = mp.sqrt(mp.mpf(b * b - 4 * a * c))
                    exact = sorted(
                        [(-b - disc) / (2 * a), (-b + disc) / (2 * a)],
                        key=lambda z: (float(mp.re(z)), float(mp.im(z))),
                    )
                    roots = complex_roots(beta.minpoly, 1e-13)
                    for r, x in zip(roots, exact):
                        assert r.value == complex(float(mp.re(x)), float(mp.im(x))), (a, b, c)
                        assert abs(mp.mpc(r.value) - x) <= r.error_bound, (a, b, c)
                    h = weil_height_algebraic(beta)
                    log_plus = [math.log(abs(r.value)) for r in roots if abs(r.value) > 1.0]
                    assert h.value == (math.log(a) + sum(log_plus)) / 2, (a, b, c)
                    true_h = (mp.log(a) + sum(mp.log(max(1, abs(x))) for x in exact)) / 2
                    assert abs(true_h - h.value) <= h.error_bound, (a, b, c)
    assert count > 2500
