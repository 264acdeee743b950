import itertools
import random

import pytest
import sympy

from chebdyn import DomainError, IntPoly, algebraic, algebraic_number, complex_roots
from chebdyn.algebraic import _is_irreducible
from chebdyn.roots import CertifiedRoots, certified_roots, is_squarefree

X = sympy.Symbol("x")


def _sympy_irreducible(c: int, b: int, a: int) -> bool:
    return sympy.Poly(a * X**2 + b * X + c, X).is_irreducible


def _quadratic_grid() -> list[tuple[int, int, int]]:
    """Seeded (c, b, a) for a x^2 + b x + c, a != 0, low coefficient first."""
    grid = {
        (c, b, a)
        for c, b, a in itertools.product(range(-6, 7), range(-6, 7), range(-4, 5))
        if a
    }
    rng = random.Random(4)
    for _ in range(500):
        # k (p x + q)(r x + s): reducible, often non-primitive
        k, p, r = (rng.choice([-1, 1]) * rng.randint(1, 40) for _ in range(3))
        q, s = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
        grid.add((k * q * s, k * (p * s + q * r), k * p * r))
        a = rng.choice([-1, 1]) * rng.randint(1, 10**6)
        grid.add((rng.randint(-10**9, 10**9), rng.randint(-10**9, 10**9), a))
    return sorted(grid)


def test_degree_two_irreducibility_matches_sympy():
    grid = _quadratic_grid()
    discs = [b * b - 4 * a * c for c, b, a in grid]
    assert 0 in discs  # e.g. (x + 1)^2
    assert any(d > 0 and sympy.sqrt(d).is_Integer for d in discs)
    assert any(sympy.gcd_list([c, b, a]) > 1 for c, b, a in grid)
    assert any(a < 0 for _, _, a in grid)
    for c, b, a in grid:
        irreducible = _sympy_irreducible(c, b, a)
        assert _is_irreducible(IntPoly.from_coeffs([c, b, a])) == irreducible, (c, b, a)
        if not irreducible:
            with pytest.raises(DomainError):
                algebraic_number([c, b, a])
        elif max(abs(c), abs(b), abs(a)) <= 6:  # small roots certify quickly
            beta = algebraic_number([c, b, a])
            assert beta.minpoly.leading > 0 and beta.minpoly == beta.minpoly.primitive()


def _factor(rng: random.Random, degree: int, coeff: int) -> IntPoly:
    return IntPoly.from_coeffs([rng.randint(-coeff, coeff) for _ in range(degree)] + [rng.randint(1, 5)])


def _higher_degree_grid() -> list[IntPoly]:
    """Seeded degree 3-6 polynomials: products of random factors, random
    (mostly irreducible) ones, non-squarefree, non-primitive and negated
    ones, and ones with roots above 4.5e3."""
    rng = random.Random(12)
    big_root = [IntPoly.of(-4600, 1), IntPoly.of(-14003, 3), IntPoly.of(7, -4800, 1), IntPoly.of(-5, 3, 9001, -2)]
    grid = [
        IntPoly.of(1, 1, 1) * IntPoly.of(1, 1, 1),
        IntPoly.of(-1, 1) * IntPoly.of(-1, 1) * IntPoly.of(2, 1),
        IntPoly.of(1, 2) * IntPoly.of(1, 2) * IntPoly.of(1, 2),
        IntPoly.of(-2, 0, 0, 1),
        IntPoly.of(-1, 0, 0, 1),
    ]
    for _ in range(70):
        degree = rng.randint(3, 6)
        k = rng.randint(1, degree - 1)
        grid.append(_factor(rng, k, 9) * _factor(rng, degree - k, 9))
        grid.append(_factor(rng, degree, 20) * rng.choice([1, 1, 1, 2, 6, -1, -3]))
    for big in big_root:
        for _ in range(6):
            rest = 6 - big.degree if rng.random() < 0.5 else rng.randint(1, 3)
            grid.append(big * _factor(rng, rest, 9))
            grid.append(big * _factor(rng, rest, 9) + _factor(rng, big.degree + rest - 1, 3))
    return [f for f in grid if 3 <= f.degree <= 6]


def test_higher_degree_irreducibility_matches_sympy():
    grid = _higher_degree_grid()
    verdicts = [sympy.Poly(list(reversed(f.coeffs)), X).is_irreducible for f in grid]
    assert 80 < verdicts.count(False) < len(grid) - 40
    assert any(f.content() > 1 for f in grid) and any(f.leading < 0 for f in grid)
    assert any(not is_squarefree(f) for f in grid)
    assert sum(max(abs(r.value) for r in complex_roots(f)) > 4.5e3 for f in grid if is_squarefree(f)) > 20
    for f, irreducible in zip(grid, verdicts):
        if f.content() > 1 or f.leading < 0:
            assert _is_irreducible(f) == irreducible, f
        if irreducible:
            assert algebraic_number(f.coeffs).minpoly == (f.primitive() if f.leading > 0 else -f.primitive())
        else:
            with pytest.raises(DomainError, match="reducible"):
                algebraic_number(f.coeffs)


def test_irreducibility_escalates_a_wide_disc(monkeypatch):
    # inflated radii still bound the roots, but they leave every coefficient
    # disc too wide to read, so the test has to recompute finer roots
    reducible = IntPoly.of(-4600, 1) * IntPoly.of(5, 1, 0, 2)
    irreducible = reducible + IntPoly.of(1)
    for f, expected in ((reducible, False), (irreducible, True)):
        roots = certified_roots(f)
        wide = CertifiedRoots(roots.roots, tuple(r * 1e16 for r in roots.radii), roots.prec)
        calls = []
        with monkeypatch.context() as m:
            m.setattr(algebraic, "certified_roots", lambda *a: calls.append(a) or certified_roots(*a))
            assert _is_irreducible(f, wide) == expected
        assert calls
