import importlib.util
import itertools
import random
import sys
from functools import lru_cache
from pathlib import Path

import pytest
import sympy

from chebdyn import DomainError, IntPoly, PrecisionError, algebraic, algebraic_number, complex_roots
from chebdyn.algebraic import (
    _PATTERN_PRIMES,
    _PATTERN_TRIES,
    _factor_degrees_mod_p,
    _is_irreducible,
    _modular_verdict,
)
from chebdyn.intpoly import resultant
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


@lru_cache(maxsize=1)
def _sympy_verdicts() -> tuple[bool, ...]:
    return tuple(sympy.Poly(list(reversed(f.coeffs)), X).is_irreducible for f in _higher_degree_grid())


def test_higher_degree_irreducibility_matches_sympy():
    grid = _higher_degree_grid()
    verdicts = _sympy_verdicts()
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


def _normalized(f: IntPoly) -> IntPoly:
    f = f.primitive()
    return -f if f.leading < 0 else f


def test_factor_degree_patterns_match_sympy_mod_p():
    rng = random.Random(22)
    checked = 0
    for _ in range(150):
        coeffs = [rng.randint(-30, 30) for _ in range(rng.randint(3, 8))] + [rng.randint(1, 9)]
        f = IntPoly.from_coeffs(coeffs)
        disc = resultant(f, f.derivative())
        for p in (2, 3, 5, 7, 11, 13):
            if (f.leading * disc) % p:
                factors = sympy.Poly(list(reversed(coeffs)), X, modulus=p).factor_list()[1]
                assert sorted(_factor_degrees_mod_p(f, p)) == sorted(g.degree() for g, _ in factors), (coeffs, p)
                checked += 1
    assert checked > 500


def test_degree_patterns_agree_with_sympy_and_decide_every_irreducible_grid_polynomial():
    decided = 0
    for f, irreducible in zip(_higher_degree_grid(), _sympy_verdicts()):
        verdict = _modular_verdict(_normalized(f))
        if irreducible:
            assert verdict is True, f  # no grid polynomial needs the roots
        else:  # patterns never prove a reducible f irreducible
            assert verdict is (False if not is_squarefree(f) else None), f
        decided += verdict is not None
    assert decided > 80


UNDECIDED = [
    (IntPoly.of(1, 0, 0, 0, 1), True),  # x^4 + 1
    (IntPoly.of(1, 0, -10, 0, 1), True),  # minimal polynomial of sqrt(2) + sqrt(3)
    (IntPoly.of(1, 0, 1) * IntPoly.of(3, 0, 1), False),
]


@pytest.mark.parametrize("f, irreducible", UNDECIDED)
def test_undecided_patterns_fall_back_to_roots_and_seed_the_embedding(monkeypatch, f, irreducible):
    disc = resultant(f, f.derivative())
    good = [p for p in _PATTERN_PRIMES if (f.leading * disc) % p][:_PATTERN_TRIES]
    assert len(good) == _PATTERN_TRIES
    assert all(_factor_degrees_mod_p(f, p) != [f.degree] for p in good)  # split mod every prime tried
    assert _modular_verdict(f) is None
    calls = []
    monkeypatch.setattr(algebraic, "certified_roots", lambda *a: calls.append(a) or certified_roots(*a))
    if not irreducible:
        with pytest.raises(DomainError, match="reducible"):
            algebraic_number(f.coeffs, 1)
        assert len(calls) == 1
        return
    beta = algebraic_number(f.coeffs, 1)
    assert len(calls) == 1 and "embedding" in vars(beta)  # the fallback's roots, kept
    assert beta.embedding == certified_roots(f).floats()[1]
    assert len(calls) == 1  # no second root run
    assert beta == algebraic.AlgebraicNumber(f, 1) and hash(beta) == hash(algebraic.AlgebraicNumber(f, 1))


#: two roots 1e-25 apart: (10^20 x - 10^25 + 7)((10^20 + 1) x - 10^25 - 3)(x^2 + 1) + 1
CLOSE_ROOTS = IntPoly.of(-10**25 + 7, 10**20) * IntPoly.of(-10**25 - 3, 10**20 + 1) * IntPoly.of(1, 0, 1) + IntPoly.of(1)


def test_close_roots_are_decided_irreducible_without_separating_them():
    assert sympy.Poly(list(reversed(CLOSE_ROOTS.coeffs)), X).is_irreducible
    with pytest.raises(PrecisionError):  # the root-subset test cannot read this f
        _is_irreducible(CLOSE_ROOTS, certified_roots(CLOSE_ROOTS))
    assert _modular_verdict(CLOSE_ROOTS) is True
    beta = algebraic_number(CLOSE_ROOTS.coeffs, 2)
    assert beta.minpoly == CLOSE_ROOTS and beta.degree == 4 and "embedding" not in vars(beta)


def _bench_poly_inputs() -> set[tuple[tuple[int, ...], int]]:
    """(coefficients, index) of every poly: beta in the first 16 ops of each
    benchmark workload at seeds 1-5."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    found = set()
    for name in workloads.WORKLOADS:
        for seed in range(1, 6):
            for op in itertools.islice(workloads.generate(name, seed), 16):
                for arg in op.argv:
                    if arg.startswith("--beta=poly:"):
                        body, index = arg[len("--beta=poly:"):].rsplit("@", 1)
                        found.add((tuple(map(int, body.split(","))), int(index)))
    return found


def test_embedding_read_on_demand_equals_the_eager_root_bit_for_bit():
    cases = sorted(_bench_poly_inputs())
    assert len(cases) > 20 and {len(c) - 1 for c, _ in cases} >= {2, 3, 4}
    grid = [f for f, irreducible in zip(_higher_degree_grid(), _sympy_verdicts()) if irreducible]
    cases += [(f.coeffs, k % f.degree) for k, f in enumerate(grid)]  # one embedding each, every index in turn
    for coeffs, index in cases:
        beta = algebraic_number(coeffs, index)
        assert "embedding" not in vars(beta)
        eager = certified_roots(beta.minpoly, 1e-12).floats()[index]
        got = beta.embedding
        assert (got.value.real.hex(), got.value.imag.hex(), got.error_bound.hex()) == (
            eager.value.real.hex(), eager.value.imag.hex(), eager.error_bound.hex()), (coeffs, index)
        assert beta.embedding is got  # computed once
