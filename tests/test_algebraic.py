import itertools
import random

import pytest
import sympy

from chebdyn import DomainError, IntPoly, algebraic_number
from chebdyn.algebraic import _is_irreducible

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
