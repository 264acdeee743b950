"""Integer factorization, primality, the arithmetic table and p-adic valuations.

One linear sieve gives the least prime factor, the Moebius function, the
totient and the primes of every k up to a limit that doubles on demand;
every arithmetic function of an order reads that table.

Factorization is deterministic: trial division by the primes below 1000,
then Brent's cycle-finding rho with a fixed parameter sequence. This is
enough for the resultant-sized integers appearing at desk scale, and the
fixed schedule keeps every report reproducible.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .records import record

# strong-pseudoprime bases making Miller-Rabin deterministic below 3.3e24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@record
class ArithmeticTable:
    """spf(k) (k >= 2), mu(k) and phi(k) for 0 <= k <= limit (0 at k = 0),
    and the primes up to limit in order."""

    limit: int
    spf: list
    mu: list
    phi: list
    primes: list


def _linear_sieve(limit: int) -> ArithmeticTable:
    """The table to limit by the linear sieve (Gries & Misra, CACM 21, 1978):
    each composite i p is struck once, from its least prime factor p. Along
    the way mu(i p) = -mu(i) and phi(i p) = phi(i) (p - 1) for p < spf(i),
    and mu(i p) = 0 and phi(i p) = phi(i) p for p = spf(i)."""
    spf = [0] * (limit + 1)
    mu = [0] * (limit + 1)
    phi = [0] * (limit + 1)
    mu[1] = phi[1] = 1
    primes = []
    for i in range(2, limit + 1):
        if not spf[i]:
            spf[i], mu[i], phi[i] = i, -1, i - 1
            primes.append(i)
        least, m, f = spf[i], mu[i], phi[i]
        for p in primes:
            ip = i * p
            if ip > limit:
                break
            spf[ip] = p
            if p == least:
                phi[ip] = f * p
                break
            mu[ip] = -m
            phi[ip] = f * (p - 1)
    return ArithmeticTable(limit, spf, mu, phi, primes)


#: the one table every arithmetic function reads; it starts past the primes
#: below 1000 that ``factorize`` and ``algebraic`` divide by
_TABLE = _linear_sieve(1 << 10)


def arithmetic_table(n: int) -> ArithmeticTable:
    """The table through n. Past its limit, the limit doubles until it
    reaches n and the new table replaces the old in one assignment, so a
    reader never sees a half-built table."""
    global _TABLE
    table = _TABLE
    if n > table.limit:
        limit = table.limit
        while limit < n:
            limit *= 2
        table = _TABLE = _linear_sieve(limit)
    return table


def primes_upto(n: int) -> list[int]:
    """The primes p <= n."""
    primes = arithmetic_table(n).primes
    return primes[: bisect_right(primes, n)]


#: primes that ``factorize`` divides out before rho; rho finds a factor p in
#: about sqrt(p) steps, so a longer trial list costs more than it saves
_TRIAL_PRIMES = primes_upto(1000)


def is_prime(n: int) -> bool:
    """Miller-Rabin with fixed bases; deterministic for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """A nontrivial factor of odd composite n, deterministic schedule."""
    if n % 2 == 0:
        return 2
    # fixed (c, y0) schedule: reproducible runs
    for c in range(1, 64):
        y, m = 2 + c, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                k += m
                g = math.gcd(q, n)
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed on {n}")  # pragma: no cover


def factorize(n: int) -> list[int]:
    """Prime factors of n with multiplicity, ascending. Sign is dropped.

    Raises DomainError for n = 0.
    """
    if n == 0:
        raise DomainError("cannot factor 0")
    n = abs(n)
    out: list[int] = []
    if n == 1:
        return out
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out.append(p)
            n //= p
    if n == 1:
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out.append(m)
            continue
        d = _brent_rho(m)
        stack.append(d)
        stack.append(m // d)
    out.sort()
    return out


def factor_counts(n: int) -> dict[int, int]:
    """Factorization of |n| as a prime -> multiplicity map."""
    counts: dict[int, int] = {}
    for p in factorize(n):
        counts[p] = counts.get(p, 0) + 1
    return counts


@lru_cache(maxsize=1 << 17)
def euler_phi(n: int) -> int:
    """phi(n), read from the arithmetic table."""
    if n < 1:
        raise DomainError("totient needs n >= 1")
    return arithmetic_table(n).phi[n]


def padic_valuation(q, p: int):
    """v_p(q) for a rational q, with v_p(0) = +infinity."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if isinstance(q, int):
        num, den = q, 1
    else:
        q = Fraction(q)
        num, den = q.numerator, q.denominator
    if num == 0:
        return math.inf
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def strip_primes(n: int, primes) -> int:
    """|n| with all factors of the given primes removed."""
    n = abs(n)
    if n == 0:
        return 0
    for p in primes:
        while n % p == 0:
            n //= p
    return n

