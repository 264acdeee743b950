"""Seeded op generators for the four benchmark workloads.

Each workload is an endless stream of CLI ops. The stream cycles through a
fixed list of op templates, and the workload seed only draws each template's
parameters (betas, place sets, orders) from a band of similar cost. A fixed
cycle keeps the op mix, and so the per-run throughput, the same from seed to
seed, while every seed still sends the program different inputs.

Nothing here imports chebdyn: the program receives only the generated argv.
Every beta is passed as ``--beta=VALUE`` because argparse reads
``--beta -71/13`` as a missing argument.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import sympy

WORKLOADS = ("sweep-rational", "sweep-algebraic", "queries", "float-sweep")

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)

#: sintegral ops draw pairing values of 64 to 84 bits, so that every verdict
#: pays for a real factorization. Above 84 bits the full factorization behind
#: the verdict can run for minutes (Brent rho on a product of two large
#: primes), and an op that overruns the per-op deadline would count as
#: failed; ROADMAP item 3(c) tracks that defect.
SINTEGRAL_MAX_BITS = 84
SINTEGRAL_MIN_BITS = 64


@dataclass(frozen=True)
class Op:
    """One CLI call: the argv after ``python -m chebdyn.cli`` plus what the
    oracles need to know about the inputs. ``orbits`` counts the orbit
    pairings or constructions the inputs ask for."""

    kind: str
    argv: tuple[str, ...]
    orbits: int
    params: dict = field(default_factory=dict, compare=False)


# ---------------------------------------------------------------------------
# input draws
# ---------------------------------------------------------------------------


def rational_beta(rng: random.Random, lo: float, hi: float) -> Fraction:
    """A rational p/q in lowest terms with height log max(|p|, q) in about
    [lo, hi] nats, either sign, either side of 1 in size. lo >= log 3 keeps
    it off the preperiodic points {-2, -1, 0, 1, 2}."""
    while True:
        big = round(math.exp(rng.uniform(lo, hi)))
        small = rng.randint(1, big - 1)
        if math.gcd(big, small) != 1:
            continue
        num, den = (big, small) if rng.random() < 0.5 else (small, big)
        return Fraction(-num if rng.random() < 0.5 else num, den)


def place_list(rng: random.Random, k_lo: int, k_hi: int) -> tuple[int, ...]:
    k = rng.randint(k_lo, k_hi)
    return tuple(sorted(rng.sample(SMALL_PRIMES, k)))


def places_arg(primes) -> str:
    return ",".join(["inf", *map(str, primes)])


def wandering_poly(rng: random.Random, degree: int, coeff: int) -> tuple[int, ...]:
    """Coefficients (lowest first) of an irreducible primitive integer
    polynomial with leading coefficient >= 2. A root of a non-monic
    irreducible polynomial is not an algebraic integer, so it is not
    preperiodic for the Chebyshev maps."""
    while True:
        c = [rng.randint(-coeff, coeff) for _ in range(degree)] + [rng.randint(2, coeff)]
        if c[0] == 0 or math.gcd(*c) != 1:
            continue
        if sympy.Poly(list(reversed(c)), sympy.Symbol("x")).is_irreducible:
            return tuple(c)


def poly_arg(coeffs, index: int) -> str:
    return f"poly:{','.join(map(str, coeffs))}@{index}"


def unit_circle_quadratic(rng: random.Random) -> tuple[int, ...]:
    """a x^2 + b x + a with |b| < 2a and a >= 2: a conjugate pair on the unit
    circle that is not a root of unity."""
    while True:
        a = rng.randint(2, 9)
        b = rng.randint(-2 * a + 1, 2 * a - 1)
        if math.gcd(a, b) == 1:
            return (a, b, a)


def orbit_size(n: int) -> int:
    return 1 if n <= 2 else int(sympy.totient(n)) // 2


def pairing_bits(beta: Fraction, n: int) -> float:
    """log2 |s^m psi_N(r/s)| from the closed-form conjugates (float estimate)."""
    r, s = beta.numerator, beta.denominator
    total = orbit_size(n) * math.log2(s)
    for a in range(1, n // 2 + 1):
        if math.gcd(a, n) == 1:
            total += math.log2(abs(r / s - 2 * math.cos(2 * math.pi * a / n)))
    return total


def approximant(rng: random.Random, n_max: int) -> tuple[Fraction, dict]:
    """A rational within about 10^-k of a conjugate 2 cos(2 pi a / N0)."""
    n0 = rng.randint(7, n_max)
    a = rng.choice([a for a in range(1, n0 // 2 + 1) if math.gcd(a, n0) == 1])
    k = rng.randint(2, 9)
    q = rng.randint(10**k, 2 * 10**k)
    target = 2 * math.cos(2 * math.pi * a / n0)
    beta = Fraction(round(target * q), q)
    if beta.denominator == 1 and abs(beta) <= 2:
        beta += Fraction(1, q)
    return beta, {"nearOrder": n0, "nearA": a, "distanceExp": k}


# ---------------------------------------------------------------------------
# op templates
# ---------------------------------------------------------------------------


def scan_op(beta_arg: str, primes, n_max: int, params: dict) -> Op:
    argv = ("scan", f"--beta={beta_arg}", f"--S={places_arg(primes)}", f"--Nmax={n_max}")
    return Op("scan", argv, n_max, {"S": list(primes), "Nmax": n_max, **params})


def rational_scan(lo, hi, n_max):
    def make(rng):
        beta = rational_beta(rng, lo, hi)
        return scan_op(str(beta), place_list(rng, 1, 4), n_max, {"beta": str(beta)})

    return make


def algebraic_scan(degree, coeff, n_max):
    def make(rng):
        c = wandering_poly(rng, degree, coeff)
        return scan_op(poly_arg(c, rng.randrange(degree)), place_list(rng, 1, 3), n_max, {"poly": list(c)})

    return make


def cor33(lo, hi, n_max):
    def make(rng):
        beta = rational_beta(rng, lo, hi)
        p = rng.choice((2, 3, 5, 7))
        argv = ("cor33", f"--beta={beta}", f"--p={p}", f"--Nmax={n_max}")
        return Op("cor33", argv, n_max, {"beta": str(beta), "p": p, "Nmax": n_max})

    return make


def equidist_finite(lo, hi, n_max):
    def make(rng):
        beta = rational_beta(rng, lo, hi)
        p = rng.choice((2, 3, 5, 7))
        argv = ("equidist", f"--beta={beta}", f"--place={p}", f"--Nmax={n_max}", "--csv={csv}")
        return Op("equidist", argv, n_max, {"beta": str(beta), "place": p, "Nmax": n_max})

    return make


def equidist_real(n_max, near):
    def make(rng):
        if near:
            beta, extra = approximant(rng, n_max)
        else:
            beta, extra = rational_beta(rng, 1.1, 5.0), {}
        argv = ("equidist", f"--beta={beta}", "--place=inf", f"--Nmax={n_max}", "--csv={csv}")
        return Op("equidist", argv, n_max, {"beta": str(beta), "place": "inf", "Nmax": n_max, **extra})

    return make


def theorem2(dcap, trials, n_max):
    def make(rng):
        primes = place_list(rng, 1, 3)
        seed = rng.randrange(1, 10**6)
        argv = (
            "theorem2", f"--S={places_arg(primes)}", f"--Dcap={dcap}", f"--trials={trials}",
            f"--Nmax={n_max}", f"--seed={seed}",
        )
        return Op("theorem2", argv, trials * n_max, {"S": list(primes), "Nmax": n_max, "trials": trials})

    return make


def baker(prox_n_max):
    def make(rng):
        c = unit_circle_quadratic(rng)
        argv = ["baker", f"--beta={poly_arg(c, rng.randrange(2))}", "--eps=0.1", "--csv={csv}"]
        if prox_n_max:
            argv.append(f"--prox-Nmax={prox_n_max}")
        return Op("baker", tuple(argv), prox_n_max, {"poly": list(c), "proxNmax": prox_n_max})

    return make


def orbit(rng):
    n = rng.randint(3, 160)
    return Op("orbit", ("orbit", f"--N={n}"), 1, {"N": n})


def cheb(rng):
    n = rng.randint(2, 60)
    at = rational_beta(rng, 0.7, 3.0)
    return Op("cheb", ("cheb", f"--n={n}", f"--at={at}"), 0, {"n": n, "at": str(at)})


def height(rng):
    if rng.random() < 0.5:
        beta = str(rational_beta(rng, 1.1, 9.0))
        params = {"beta": beta}
    else:
        c = wandering_poly(rng, rng.randint(2, 4), 9)
        beta = poly_arg(c, 0)
        params = {"poly": list(c)}
    return Op("height", ("height", f"--beta={beta}"), 0, params)


def canonical_height(rng):
    beta = rational_beta(rng, 1.1, 9.0)
    return Op("canonical-height", ("canonical-height", f"--beta={beta}"), 0, {"beta": str(beta)})


def sintegral(rng):
    while True:
        beta = rational_beta(rng, 1.1, 2.5)
        n = rng.randint(20, 320)
        if SINTEGRAL_MIN_BITS <= pairing_bits(beta, n) <= SINTEGRAL_MAX_BITS:
            break
    primes = place_list(rng, 1, 4)
    argv = ("sintegral", f"--beta={beta}", f"--N={n}", f"--S={places_arg(primes)}")
    return Op("sintegral", argv, 1, {"beta": str(beta), "N": n, "S": list(primes)})


# The bands below were sized so that one op takes roughly 0.8 to 2.5 s on
# one core of a 2-core x86 machine, startup (about 0.8 s) included.
CYCLES = {
    # rational pairing kernel: orbit_value + symmetric_coeffs + strip_primes
    "sweep-rational": (
        rational_scan(2.0, 2.7, 1400),
        cor33(1.1, 6.0, 900),
        equidist_finite(4.0, 9.0, 800),
        theorem2(1, 6, 500),
        rational_scan(11.0, 14.0, 600),
        cor33(1.1, 6.0, 900),
        equidist_finite(4.0, 9.0, 800),
        theorem2(1, 6, 500),
    ),
    # quadratic norm recurrence; psi_N expansion + subresultant for degree >= 3
    "sweep-algebraic": (
        algebraic_scan(2, 9, 1000),
        algebraic_scan(3, 6, 240),
        algebraic_scan(4, 4, 140),
        theorem2(2, 6, 300),
    ),
    # startup-bound short commands; the sintegral verdict carries the tail
    "queries": (orbit, sintegral, cheb, height, sintegral, canonical_height, cor33(1.1, 5.0, 150), baker(0)),
    # guarded float layers and the psi_N built only to read conjugates
    "float-sweep": (
        equidist_real(3000, near=True),
        baker(400),
        equidist_real(3000, near=False),
        baker(300),
    ),
}


#: whole cycles an untraced run takes at least: 16 ops, about 15 to 20 s on
#: the reference machine. The op count, and with it the tail percentile
#: (p37.5), then stays the same from run to run.
MIN_CYCLES = {"sweep-rational": 2, "sweep-algebraic": 4, "queries": 2, "float-sweep": 4}


def generate(workload: str, seed: int):
    """Endless op stream for ``workload``; the same seed gives the same ops."""
    if workload not in CYCLES:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    i = 0
    while True:
        for make in CYCLES[workload]:
            op = make(rng)
            # tables go next to the op's other outputs, one file per op
            argv = tuple(a.replace("{csv}", f"bench/out/{workload}/op{i}.csv") for a in op.argv)
            yield Op(op.kind, argv, op.orbits, op.params)
            i += 1
