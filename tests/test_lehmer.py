"""The degree-1 kernel of the pairing sieve (the Lehmer pair of a rational
beta) against the exact sieve of ``sieve_oracle``, and the degree-1 CLI ops
byte for byte against a run with that oracle and no cutoff."""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from chebdyn import PlaceSet, PreperiodicInputError, cli, equidist, integrality
from chebdyn.factorint import padic_valuation, primes_upto
from chebdyn.integrality import (
    COFACTOR_LOG_CUTOFF,
    PairingSieve,
    lehmer_logs,
    lehmer_valuations,
    pairing_value,
    primitive_divisor_cutoff,
    scan_orbits,
)
from sieve_oracle import ExactPairingSieve


def _rational(rng: random.Random, lo: float, hi: float) -> Fraction:
    """A rational of height about lo to hi nats, either sign, drawn as the
    bench draws them; lo >= log 3 keeps it off the preperiodic points."""
    while True:
        big = round(math.exp(rng.uniform(lo, hi)))
        small = rng.randint(1, big - 1)
        if math.gcd(big, small) != 1:
            continue
        num, den = (big, small) if rng.random() < 0.5 else (small, big)
        return Fraction(-num if rng.random() < 0.5 else num, den)


def _candidate_orders(primes) -> set[int]:
    """C(S): the N > 30 dividing p - 1 or p + 1 for some p in S."""
    return {n for p in primes for q in (p - 1, p + 1) for n in range(31, q + 1) if q % n == 0}


def _oracle_rows(sieve, primes, n_max):
    """The S-integral orders N <= n_max read from a sieve, as scan_orbits reads them."""
    logs = [math.log(p) for p in primes]
    return [
        n for n in range(1, n_max + 1)
        if sieve.log_abs(n) - sum(sieve.valuation(n, p) * lp for p, lp in zip(primes, logs)) < COFACTOR_LOG_CUTOFF
    ]


# ---------------------------------------------------------------------------
# valuations
# ---------------------------------------------------------------------------


def test_valuations_match_the_exact_sieve():
    # 30 seeded betas of height 1-14 nats, S = {2, 3, 5, 11}, N <= 2000, and
    # betas with a prime of S in the denominator (p | s) or dividing r^2 - 4 s^2
    rng = random.Random(34)
    primes = (2, 3, 5, 11)
    betas = [_rational(rng, 1.1, 14.0) for _ in range(30)]
    betas += [Fraction(7, 2 * 3 * 5 * 11), Fraction(-13, 44), Fraction(1, 9)]  # p | s
    betas += [Fraction(7, 3), Fraction(-9, 2), Fraction(13, 11), Fraction(47, 5)]  # p | r^2 - 4 s^2
    for beta in betas[30:37]:
        r, s = beta.numerator, beta.denominator
        assert any(s % p == 0 or (r * r - 4 * s * s) % p == 0 for p in primes)
    hits = dict.fromkeys(primes, 0)
    for beta in betas:
        n_max = 2000 if beta in betas[:30] else 600
        oracle = ExactPairingSieve(beta, n_max, primes)
        sieve = PairingSieve(beta, n_max, primes)
        for p in primes:
            assert lehmer_valuations(beta, n_max, p)[1:] == oracle.factor_valuations[p][1:], (beta, p)
            got = [sieve.valuation(n, p) for n in range(1, n_max + 1)]
            assert got == [oracle.valuation(n, p) for n in range(1, n_max + 1)], (beta, p)
            hits[p] += sum(map(bool, got))
            if beta.denominator % p == 0:
                assert not any(got), (beta, p)
    assert all(hits.values()), hits


def test_valuations_rebuild_the_exact_factor_when_the_residue_vanishes(monkeypatch):
    # with every modulus at most 2^6 (p itself past it), residues 0 mod p^K
    # are common, and each such d reads the exact G_d
    monkeypatch.setattr(integrality, "LEHMER_MODULUS_BOUND", 1 << 6)
    rebuilt = []
    real = integrality._exact_factor

    def counting(beta, d):
        rebuilt.append(d)
        return real(beta, d)

    monkeypatch.setattr(integrality, "_exact_factor", counting)
    for beta in (Fraction(7, 5), Fraction(-1, 3), Fraction(26, 7), Fraction(-130, 9)):
        for p in (2, 3, 5, 7, 11, 13, 67):
            oracle = ExactPairingSieve(beta, 300, (p,))
            assert lehmer_valuations(beta, 300, p)[1:] == oracle.factor_valuations[p][1:], (beta, p)
    assert len(rebuilt) > 50


def test_preperiodic_rationals_are_rejected_at_their_order():
    for beta, order in ((2, 1), (-2, 2), (-1, 3), (0, 4), (1, 6)):
        with pytest.raises(PreperiodicInputError, match=f"order-{order} orbit"):
            PairingSieve(beta, order, (2, 3))
        PairingSieve(beta, order - 1, (2, 3))  # G_d != 0 below its order


# ---------------------------------------------------------------------------
# logs
# ---------------------------------------------------------------------------


def _exact_logs(beta, n_max):
    with mp.workdps(60):
        return [None] + [mp.log(abs(mp.mpf(pairing_value(n, beta)))) for n in range(1, n_max + 1)]


def test_logs_lie_within_their_bounds():
    rng = random.Random(340)
    betas = [_rational(rng, 1.1, 14.0) for _ in range(6)]
    betas += [Fraction(5, 2), Fraction(-11, 7), Fraction(201, 100), Fraction(-1000, 7)]
    # within 1e-9 of a unit-circle conjugate, as the float-sweep approximants
    for n0, a, q in ((7, 1, 10**9 + 7), (13, 4, 2 * 10**9 + 1), (60, 7, 10**9 + 3)):
        betas.append(Fraction(round(2 * math.cos(2 * math.pi * a / n0) * q), q))
        assert abs(betas[-1] - 2 * math.cos(2 * math.pi * a / n0)) < 1e-9
    worst = 0.0
    for beta in betas:
        logs, bounds = lehmer_logs(beta, 240)
        exact = _exact_logs(beta, 240)
        for n in range(1, 241):
            assert abs(logs[n] - exact[n]) <= bounds[n], (beta, n, float(logs[n] - exact[n]), bounds[n])
            worst = max(worst, bounds[n] / max(1.0, abs(logs[n])))
    assert worst < 1e-12  # the bounds stay tight


def test_logs_escalate_next_to_a_conjugate(monkeypatch):
    # beta within 1e-25 of 2 cos(2 pi / 7): the d divisible by 7 escalate to
    # the exact recurrence inside equidist._root_logs, and the logs still lie
    # within their bounds and far below the tolerance
    with mp.workdps(60):
        beta = Fraction(int(mp.nint(2 * mp.cospi(mp.mpf(2) / 7) * 10**26)), 10**26)
    passes = []
    real = equidist._scaled_chebyshev

    def counting(f):
        passes.append(f)
        return real(f)

    monkeypatch.setattr(equidist, "_scaled_chebyshev", counting)
    logs, bounds = lehmer_logs(beta, 60)
    assert len(passes) == 1
    exact = _exact_logs(beta, 60)
    for n in range(1, 61):
        assert abs(logs[n] - exact[n]) <= bounds[n] < integrality.PAIRING_LOG_TOLERANCE, n
    assert exact[7] < 3 * math.log(beta.denominator) - 55  # F_7 = s^3 psi_7(beta), |psi_7(beta)| < 1e-25


def test_a_bound_past_the_tolerance_reads_the_exact_pairing(monkeypatch):
    beta, primes = Fraction(-97, 89), (2, 3, 5, 11)
    sieve = PairingSieve(beta, 60, primes)
    floats = [sieve.log_abs(n) for n in range(1, 61)]
    monkeypatch.setattr(integrality, "PAIRING_LOG_TOLERANCE", 0.0)
    for n, log in zip(range(1, 61), floats):
        assert sieve.log_abs(n) == math.log(abs(pairing_value(n, beta)))
        assert abs(sieve.log_abs(n) - log) < 1e-9


# ---------------------------------------------------------------------------
# the primitive-divisor cutoff
# ---------------------------------------------------------------------------


def test_cutoff_is_the_largest_candidate_order():
    assert _candidate_orders((2, 3, 61)) == {31, 60, 62}
    assert primitive_divisor_cutoff((2, 3, 61)) == 62
    assert primitive_divisor_cutoff(()) == 30
    rng = random.Random(5)
    pool = primes_upto(400)
    for _ in range(200):
        primes = rng.sample(pool, rng.randint(1, 4))
        assert primitive_divisor_cutoff(primes) == max([30, *_candidate_orders(primes)]), primes
    assert all(primitive_divisor_cutoff((p,)) == 30 for p in primes_upto(29))


def test_no_s_integral_orbit_outside_the_candidate_orders():
    # 200 seeded betas scanned by the exact sieve to N = 1500 with S = {2, 3, 61}
    rng = random.Random(61)
    primes = (2, 3, 61)
    allowed = set(range(1, 31)) | _candidate_orders(primes)
    for _ in range(200):
        beta = _rational(rng, 1.1, 5.0)
        orders = _oracle_rows(ExactPairingSieve(beta, 1500, primes), primes, 1500)
        assert set(orders) <= allowed, (beta, sorted(set(orders) - allowed))
        rows, _ = scan_orbits(beta, PlaceSet.of(*primes), 1500, 2.0)
        assert [n for n, _, _ in rows] == orders, beta


def test_prime_divisors_past_30_are_plus_or_minus_one_mod_n():
    # every prime p < 5000 with p | F_N, 30 < N <= 400 and p not dividing N
    # is +-1 mod N, read from the kernel's valuations
    rng = random.Random(400)
    primes = tuple(primes_upto(5000))
    hits = 0
    for beta in [Fraction(3), Fraction(-3, 2), *(_rational(rng, 1.1, 9.0) for _ in range(3))]:
        sieve = PairingSieve(beta, 400, primes)
        for n in range(31, 401):
            for p in primes:
                if n % p and sieve.valuation(n, p):
                    assert p % n in (1, n - 1), (beta, n, p)
                    hits += 1
        # and the valuations are those of the exact F_N
        for n in (31, 60, 97, 400):
            f = pairing_value(n, beta)
            assert all(sieve.valuation(n, p) == padic_valuation(f, p) for p in primes[:50]), (beta, n)
    assert hits > 20


# ---------------------------------------------------------------------------
# the degree-1 CLI ops, byte for byte
# ---------------------------------------------------------------------------


def _bench_like_argvs():
    """scan, theorem2 at Dcap 1 and 2, cor33 and finite-place equidist on
    seeded rational inputs drawn like the bench's sweep-rational ops."""
    rng = random.Random(3401)
    argvs = []
    for i in range(3):
        primes = sorted(rng.sample((2, 3, 5, 7, 11, 13), rng.randint(1, 4)))
        places = ",".join(["inf", *map(str, primes)])
        lo, hi = ((2.0, 2.7), (11.0, 14.0), (4.0, 9.0))[i]
        argvs.append(["scan", f"--beta={_rational(rng, lo, hi)}", f"--S={places}", "--Nmax=1400", "--csv={csv}"])
        argvs.append(["cor33", f"--beta={_rational(rng, 1.1, 6.0)}", f"--p={rng.choice((2, 3, 5, 7))}", "--Nmax=900"])
        argvs.append(["equidist", f"--beta={_rational(rng, 4.0, 9.0)}", f"--place={rng.choice((2, 3, 5, 7))}",
                      "--Nmax=800", "--csv={csv}"])
        argvs.append(["theorem2", f"--S={places}", "--Dcap=1", "--trials=6", "--Nmax=500",
                      f"--seed={rng.randrange(10**6)}", "--csv={csv}"])
    argvs.append(["theorem2", "--S=inf,2,3", "--Dcap=2", "--trials=6", "--Nmax=300", "--seed=7", "--csv={csv}"])
    argvs.append(["scan", "--beta=-3/2", "--S=inf,2,3,61", "--Nmax=400", "--csv={csv}"])
    return argvs


def _outputs(argvs, tmp_path, capsys, tag):
    outs = []
    for i, argv in enumerate(argvs):
        csv = tmp_path / f"{tag}{i}.csv"
        assert cli.main([a.replace("{csv}", str(csv)) for a in argv]) == 0, argv
        outs.append((capsys.readouterr().out, csv.read_bytes() if csv.exists() else None))
    return outs


def test_degree_one_ops_match_the_exact_sieve_without_cutoff(tmp_path, capsys, monkeypatch):
    argvs = _bench_like_argvs()
    shipped = _outputs(argvs, tmp_path, capsys, "shipped")
    monkeypatch.setattr(integrality, "PairingSieve", ExactPairingSieve)
    monkeypatch.setattr(equidist, "PairingSieve", ExactPairingSieve)
    monkeypatch.setattr(integrality, "primitive_divisor_cutoff", lambda primes: math.inf)
    oracle = _outputs(argvs, tmp_path, capsys, "oracle")
    for argv, got, want in zip(argvs, shipped, oracle):
        assert got == want, argv


def test_degree_one_ops_read_no_exact_recurrence(tmp_path, capsys, monkeypatch):
    # only an escalation (a residue 0 mod p^K, or a root log too near a root
    # of unity to certify in fixed point) reads the exact recurrence, and
    # these inputs have none
    def refuse(*args, **kwargs):
        raise AssertionError("a degree-1 op read the exact recurrence")

    monkeypatch.setattr(integrality, "_scaled_chebyshev", refuse)
    monkeypatch.setattr(equidist, "_scaled_chebyshev", refuse)
    argvs = [argv for argv in _bench_like_argvs() if "--Dcap=2" not in argv]
    assert len(_outputs(argvs, tmp_path, capsys, "refuse")) == len(argvs)
