"""Chebyshev maps and exact enumeration of their preperiodic Galois orbits.

The normalization used throughout is the monic family on [-2, 2]:

    T_1 = x,  T_2 = x^2 - 2,  T_{k+1} = x T_k - T_{k-1},

so T_k(w + 1/w) = w^k + w^{-k}. The finite preperiodic points of T_d
(d >= 2) are exactly the values zeta + 1/zeta over roots of unity zeta;
the Galois orbit over Q of the order-N point is cut out by the monic
integer polynomial psi_N with psi_N(2 cos(2 pi a / N)) = 0 for gcd(a,N)=1.

psi_N is computed exactly from the N-th cyclotomic polynomial: writing
Phi_N(z)/z^m = d_0 + sum_k d_k (z^k + z^-k) with m = phi(N)/2, the
symmetric coefficients d_k are pushed through z^k + z^-k = T_k(z + 1/z).
No floating point enters the coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress
from operator import mul, sub

from .errors import DomainError
from .factorint import arithmetic_table, primes_upto
from .intpoly import IntPoly
from .records import record

# ---------------------------------------------------------------------------
# cyclotomic polynomials (exact integers, one truncated power series)
# ---------------------------------------------------------------------------

#: orders whose Moebius divisor lists, cyclotomic halves, T_n, minimal
#: polynomials and orbits stay cached (most recently used)
MOEBIUS_CACHE_SIZE = 1 << 13


def distinct_primes(n: int) -> list[int]:
    """The primes dividing n, ascending."""
    spf = arithmetic_table(n).spf
    out = []
    while n > 1:
        p = spf[n]
        out.append(p)
        while n % p == 0:
            n //= p
    return out


@lru_cache(maxsize=MOEBIUS_CACHE_SIZE)
def moebius_divisors(n: int) -> tuple[tuple[int, int], ...]:
    """(d, mu(n/d)) for the divisors d of n with mu(n/d) != 0.

    The divisor walk of one order; a sweep over every N <= Nmax reads
    ``moebius_sums`` instead. Cached: the cyclotomic kernel and
    ``heights.orbit_generator_heights`` walk the same order in turn."""
    terms = [(n, 1)]
    for p in distinct_primes(n):
        terms += [(d // p, -mu) for d, mu in terms]
    return tuple(terms)


def moebius_sums(values, n_max: int, step=sub) -> list:
    """sum_{d | N} mu(N/d) values[d] for 0 <= N <= n_max (0 at N = 0), values
    indexed from 1; with step=add, sum_{d | N} |mu(N/d)| values[d], the sum
    of the absolute terms for nonnegative values.

    One slice pass per prime p <= n_max replaces f(N) by f(N) - f(N/p) at
    every multiple N of p (f(N) + f(N/p) for add), the right-hand slice a
    copy taken before the pass; after the last prime, f(N) is the sum over
    the squarefree N/d. The cost is sum_p n_max / p element steps, about
    n_max log log n_max, against a divisor list per N.

    Integers stay exact. Floats are scaled exactly to integers over one
    power of two (``as_integer_ratio``, so subnormals and huge values keep
    every bit), summed as integers and divided once: int true division
    rounds correctly, so each output is the exact sum rounded once, as
    math.fsum of the terms rounds it, and 0.0 for a zero sum.
    """
    f = list(values[: n_max + 1])
    scale = 0
    if any(isinstance(v, float) for v in f):
        ratios = [v.as_integer_ratio() for v in f]
        bits = max(den for _, den in ratios).bit_length()
        scale = 1 << (bits - 1)  # every den is a power of two at most this
        f = [num << (bits - den.bit_length()) for num, den in ratios]
    f[0] = 0
    for p in primes_upto(n_max):
        f[p::p] = map(step, f[p::p], f[1 : n_max // p + 1])
    return [v / scale for v in f] if scale else f


@lru_cache(maxsize=MOEBIUS_CACHE_SIZE)
def _cyclotomic_half(n: int) -> tuple[int, ...]:
    """c_0..c_m of Phi_n for n >= 3, m = phi(n)/2: the lower half of the
    palindrome.

    Phi_n = prod_{d | n} (1 - x^d)^mu(n/d) for n > 1 (the signs cancel), read
    as a power series truncated past x^m (Arnold & Monagan, Math. Comp. 80,
    2011): a factor with d > m is 1 there, and sum mu(n/d) d = 2m.
    """
    m = orbit_size(n)
    c = [1] + [0] * m
    for d, mu in moebius_divisors(n):
        if d > m:
            continue
        if mu > 0:  # times (1 - x^d)
            c[d:] = map(sub, c[d:], c[: m + 1 - d])
        else:  # over (1 - x^d): each residue chain mod d is a running sum
            for r in range(d):
                c[r::d] = accumulate(c[r::d])
    return tuple(c)


def cyclotomic_coeffs(n: int) -> list[int]:
    """Coefficients of Phi_n, lowest degree first."""
    if n < 1:
        raise DomainError("cyclotomic index must be positive")
    if n <= 2:
        return [-1, 1] if n == 1 else [1, 1]
    c = _cyclotomic_half(n)
    return [*c, *c[-2::-1]]


def symmetric_coeffs(n: int) -> tuple[int, dict[int, int]]:
    """(m, {k: d_k}) with psi_n = d_0 + sum_{k>=1} d_k T_k of degree m.

    For n >= 3 that is Phi_n(z)/z^m = d_0 + sum_{k>=1} d_k (z^k + z^-k), Phi_n
    being palindromic of even degree 2m, so d_{m-j} = c_j; psi_1 = x - 2 and
    psi_2 = x + 2.
    """
    if n < 1:
        raise DomainError("order must be positive")
    if n <= 2:
        return 1, {0: -2 if n == 1 else 2, 1: 1}
    c = _cyclotomic_half(n)
    m = len(c) - 1
    return m, {k: c[m - k] for k in range(m + 1) if c[m - k]}


# ---------------------------------------------------------------------------
# Chebyshev polynomials and evaluation
# ---------------------------------------------------------------------------


@lru_cache(maxsize=MOEBIUS_CACHE_SIZE)
def cheb_poly(n: int) -> IntPoly:
    """T_n as an integer polynomial (T_1 = x, T_2 = x^2 - 2)."""
    if n < 1:
        raise DomainError("Chebyshev index must be >= 1")
    return IntPoly(tuple(_pk(n)))


def cheb_eval(n: int, z):
    """T_n(z) by the three-term recurrence; exact for int/Fraction z."""
    if n < 1:
        raise DomainError("Chebyshev index must be >= 1")
    if n == 1:
        return z
    prev = 2 + 0 * z
    cur = z
    for _ in range(n - 1):
        prev, cur = cur, z * cur - prev
    return cur


@record
class ChebMap:
    """The degree-d Chebyshev dynamical system, d >= 2."""

    degree: int

    def __post_init__(self):
        if self.degree < 2:
            raise DomainError("a Chebyshev dynamical system needs degree >= 2")

    @property
    def poly(self) -> IntPoly:
        return cheb_poly(self.degree)

    def __call__(self, z):
        return cheb_eval(self.degree, z)


# ---------------------------------------------------------------------------
# preperiodic orbits
# ---------------------------------------------------------------------------


def orbit_size(n: int) -> int:
    """Size of the Galois orbit over Q of the order-n preperiodic point:
    phi(n)/2 for n >= 3, phi read from the arithmetic table; 1 for n <= 2."""
    if n < 1:
        raise DomainError("order must be positive")
    if n <= 2:
        return 1
    return arithmetic_table(n).phi[n] // 2


def _coprime_mask(n: int) -> bytearray:
    """For n >= 3, a 1 at each 0 <= a <= n/2 with gcd(a, n) = 1: the
    multiples of each prime factor of n (0 among them) struck from all ones."""
    half = n // 2
    keep = bytearray(b"\x01") * (half + 1)
    for p in distinct_primes(n):
        keep[::p] = bytes(half // p + 1)
    return keep


def coprime_residues_half(n: int) -> list[int]:
    """a with gcd(a, n) = 1 and 1 <= a <= n/2 (a = 1 for n <= 2)."""
    if n <= 2:
        return [1]
    return list(compress(range(n // 2 + 1), _coprime_mask(n)))


_PK_CACHE: list[list[int]] = [[2], [0, 1]]


def _pk(k: int) -> list[int]:
    """Coefficients of T_k with the T_0 = 2 convention (exact ints)."""
    while len(_PK_CACHE) <= k:
        prev2, prev = _PK_CACHE[-2], _PK_CACHE[-1]
        new = [0] + prev
        for i, c in enumerate(prev2):
            new[i] -= c
        _PK_CACHE.append(new)
    return _PK_CACHE[k]


@lru_cache(maxsize=MOEBIUS_CACHE_SIZE)
def halved_minpoly(n: int) -> IntPoly:
    """Monic minimal polynomial of 2 cos(2 pi / n) over Q, exact."""
    m, dk = symmetric_coeffs(n)
    out = [0] * (m + 1)
    for k, e in dk.items():
        if k == 0:
            out[0] += e
        else:
            pk = _pk(k)
            for i in range(k, -1, -1):
                c = pk[i]
                if c:
                    out[i] += e * c
    return IntPoly.from_coeffs(out)


#: Rigorous bound on |x - 2 cos(2 pi a / n)| for each conjugate x of
#: ``conjugates_fast``, 1 <= a <= n/2, in float64
#: (u = 2^-53; a and n are exact floats):
#: - argument: 2.0*pi = 2 pi (1 + e0) with |e0| < u/2, and the product
#:   and the quotient each round once, so the float angle is
#:   theta (1 + e0)(1 + e1)(1 + e2) with |e1|, |e2| <= u; as theta <= pi its
#:   error is at most pi ((1 + u/2)(1 + u)^2 - 1) < 2.5000001 pi u.
#: - cos is 1-Lipschitz, so that error passes through unchanged.
#: - libm's ``math.cos`` is within 1 ulp (glibc and macOS libm hold theirs
#:   to 1 ulp); ulp <= 2u on [-1, 1].
#: - the doubling is exact, so the total is 2 (2.5000001 pi + 2) u < 2.19e-15.
ORBIT_COS_ERROR = 2.2e-15


def conjugate_fast(a: int, n: int) -> float:
    """2 cos(2 pi a / n) as a float, within ORBIT_COS_ERROR, and exact for
    n <= 2 (a = 1 there)."""
    if n <= 2:
        return 2.0 if n == 1 else -2.0
    return 2.0 * math.cos(2.0 * math.pi * a / n)


def conjugates_fast(n: int) -> list[float]:
    """The conjugates ``conjugate_fast(a, n)``, gcd(a, n) = 1, 1 <= a <= n/2.
    The a are ``preperiodic_orbit(n).a_values``, so an order is sieved once
    per process."""
    return [conjugate_fast(a, n) for a in preperiodic_orbit(n).a_values]


@record
class PreperiodicOrbit:
    """The Galois orbit over Q of zeta_N + 1/zeta_N: its conjugates are
    2 cos(2 pi a / order) for a in a_values, all in [-2, 2]
    (``conjugates_fast`` reads them as floats). The minimal polynomial is
    computed when read, so an orbit that is only averaged over expands no
    psi_N.
    """

    order: int
    size: int
    a_values: tuple[int, ...]

    @property
    def minpoly(self) -> IntPoly:
        poly = halved_minpoly(self.order)
        assert poly.degree == self.size
        return poly

    @property
    def conjugate_error_bound(self) -> float:
        """The error bound of every value in ``conjugates_fast(order)``."""
        return ORBIT_COS_ERROR if self.order > 2 else 0.0


@lru_cache(maxsize=MOEBIUS_CACHE_SIZE)
def preperiodic_orbit(n: int) -> PreperiodicOrbit:
    """The order-n orbit: its size and the residues a of its conjugates."""
    if n < 1:
        raise DomainError("order must be positive")
    return PreperiodicOrbit(n, orbit_size(n), tuple(coprime_residues_half(n)))


# rational preperiodic points and their orders
_RATIONAL_PREPERIODIC = {
    Fraction(2): 1,
    Fraction(-2): 2,
    Fraction(-1): 3,
    Fraction(0): 4,
    Fraction(1): 6,
}


def is_preperiodic_rational(x) -> bool:
    """True exactly for x in {-2, -1, 0, 1, 2}."""
    return Fraction(x) in _RATIONAL_PREPERIODIC


def rational_preperiodic_order(x) -> int | None:
    return _RATIONAL_PREPERIODIC.get(Fraction(x))


def preperiodic_order_of_minpoly(f: IntPoly, search_bound: int | None = None) -> int | None:
    """If f is (up to sign) some psi_N, return N, else None.

    phi(N)/2 = deg f forces phi(N) = 2 deg f, and phi(N) >= sqrt(N/2), so the
    search window is finite.
    """
    if f.is_zero:
        return None
    f = f.primitive()
    if f.leading < 0:
        f = -f
    d = f.degree
    if d == 1:
        q = Fraction(-f.coeffs[0], f.coeffs[1])
        return rational_preperiodic_order(q) if q.denominator == 1 else None
    if f.leading != 1:
        return None  # every psi_N is monic
    bound = search_bound or (8 * d * d + 16)
    for n in range(3, bound + 1):
        if orbit_size(n) == d and halved_minpoly(n) == f:
            return n
    return None


# ---------------------------------------------------------------------------
# independent pairing routes: no CLI command runs them, but the benchmark's
# tracer (bench/tracing.py) wraps them by name, so they stay here; the test
# suite reads them as oracles of integrality.PairingSieve
# ---------------------------------------------------------------------------


def orbit_value(n: int, beta: Fraction) -> int:
    """s^m psi_n(r/s) for beta = r/s in lowest terms, exact.

    Runs off the symmetric cyclotomic coefficients through the integer
    recurrence Q_{k+1} = r Q_k - s^2 Q_{k-1} (Q_k = s^k T_k(beta)), so the
    cost is linear in the orbit size.
    """
    beta = Fraction(beta)
    r, s = beta.numerator, beta.denominator
    if n == 1:
        return r - 2 * s
    if n == 2:
        return r + 2 * s
    m, dk = symmetric_coeffs(n)
    s2 = s * s
    q_prev, q_cur = 2, r
    spow = [1] * (m + 1)
    for i in range(1, m + 1):
        spow[i] = spow[i - 1] * s
    total = dk.get(0, 0) * spow[m]
    if 1 in dk:
        total += dk[1] * spow[m - 1] * q_cur
    for k in range(2, m + 1):
        q_prev, q_cur = q_cur, r * q_cur - s2 * q_prev
        e = dk.get(k)
        if e:
            total += e * spow[m - k] * q_cur
    return total


def orbit_norm_quadratic(n: int, f: IntPoly) -> int:
    """res(psi_n, f) for an irreducible quadratic f = a x^2 + b x + c, exact.

    Evaluates a^m psi_n(beta) = U + V beta in Z[beta] by the linear
    recurrence for a^k T_k(beta), then takes the quadratic norm. Matches
    the resultant convention res(psi, f) = a^deg(psi) psi(beta) psi(beta').
    """
    if n < 1:
        raise DomainError("order must be positive")
    if f.degree != 2:
        raise DomainError("quadratic norm path needs a degree-2 polynomial")
    c, b, a = f.coeffs
    if n <= 2:
        # psi = x - 2: a(beta - 2)(beta' - 2) = c + 2b + 4a, and the mirror for x + 2
        return c + 2 * b + 4 * a if n == 1 else c - 2 * b + 4 * a
    m, dk = symmetric_coeffs(n)
    a2 = a * a
    u_prev, v_prev = 2, 0  # T_0 = 2
    u_cur, v_cur = 0, a  # a T_1(beta) = a beta
    apow = [1] * (m + 1)
    for i in range(1, m + 1):
        apow[i] = apow[i - 1] * a
    big_u = dk.get(0, 0) * apow[m]
    big_v = 0
    if 1 in dk:
        big_u += dk[1] * apow[m - 1] * u_cur
        big_v += dk[1] * apow[m - 1] * v_cur
    for k in range(2, m + 1):
        # a beta (u + v beta) = -v c + (a u - v b) beta
        nu = -v_cur * c - a2 * u_prev
        nv = a * u_cur - v_cur * b - a2 * v_prev
        u_prev, v_prev, u_cur, v_cur = u_cur, v_cur, nu, nv
        e = dk.get(k)
        if e:
            big_u += e * apow[m - k] * u_cur
            big_v += e * apow[m - k] * v_cur
    # (U + V beta)(U + V beta') = (a U^2 - b U V + c V^2)/a with U + V beta
    # equal to a^m psi(beta), so res = a^m psi(beta) psi(beta') needs /a^{m+1}
    num = a * big_u * big_u - b * big_u * big_v + c * big_v * big_v
    val, rem = divmod(num, apow[m] * a)
    if rem:
        raise ArithmeticError("norm recurrence lost exactness")  # pragma: no cover
    return val


# ---------------------------------------------------------------------------
# exact verification helpers for the minimal polynomials
# ---------------------------------------------------------------------------


def minpoly_conjugate_residuals(n: int) -> list[float]:
    """|psi_n| at each conjugate, evaluated through the symmetric form.

    Writing psi_n(x) = d_0 + sum d_k T_k(x) and T_k(2 cos t) = 2 cos(k t)
    keeps every term O(1), so the residual is a faithful float measure of
    the construction instead of a catastrophic cancellation artifact.

    At x = 2 cos(2 pi a / n) the term of d_k reads 2 cos(2 pi r / n) for
    r = a k mod n, reduced exactly, from one table of the n values of libm's
    ``math.cos``. So the cost is n cosines and, per conjugate, one product
    per nonzero d_k with k >= 1. Each residual is the math.fsum of d_0 and
    then the products d_k 2 cos(2 pi r / n) in ascending k: their exact sum,
    rounded once.
    """
    m, dk = symmetric_coeffs(n)
    ks = sorted(k for k in dk if k)
    es = [dk[k] for k in ks]
    d0 = dk.get(0, 0)
    cosines = [2.0 * math.cos(2.0 * math.pi * r / n) for r in range(n)]
    return [
        abs(math.fsum([d0, *map(mul, es, [cosines[a * k % n] for k in ks])]))
        for a in coprime_residues_half(n)
    ]


def minpoly_spot_checks(n: int) -> bool:
    """Exact integer agreement of psi_n and its symmetric form at x in {0,±1,±2}.

    T_k at these points is periodic with exact integer values, so both sides
    are computed in pure integer arithmetic; this pins the basis conversion.
    """
    poly = halved_minpoly(n)
    m, dk = symmetric_coeffs(n)
    # T_k(0), T_k(1), T_k(-1), T_k(2), T_k(-2) are periodic integer sequences
    patterns = {
        0: [2, 0, -2, 0],
        1: [2, 1, -1, -2, -1, 1],
        -1: [2, -1, -1, 2, -1, -1],
        2: [2, 2],
        -2: [2, -2],
    }
    for x, pat in patterns.items():
        rhs = 0
        for k, e in dk.items():
            tk = pat[k % len(pat)]
            rhs += e * (tk if k else 1)  # d_0 multiplies 1, not T_0 = 2
        if poly(x) != rhs:
            return False
    return True


_IDENTITY_PRIME = 2147483647


def minpoly_identity_mod(n: int, p: int = _IDENTITY_PRIME) -> bool:
    """Check z^m psi_n(z + 1/z) == Phi_n(z) modulo p, for a prime p.

    With psi_n = sum_j b_j x^j, the left side is sum_j b_j z^(m-j) (1 + z^2)^j,
    built by Horner's rule h <- (1 + z^2) h + b_j z^(m-j) for j = m-1, ..., 0
    from h = b_m on one Kronecker-packed Python integer, a slot of w bits per
    coefficient. With every b_j reduced into [0, p), each coefficient of each
    h is a nonnegative integer below p sum_j 2^j < p 2^(m+1), so a slot of
    w >= p.bit_length() + m + 1 bits never carries into the next. A step is
    two shifts and two additions of integers of at most (2m + 1) w bits, so
    the cost is O(m^2 (m + log p)) bit operations, then one reduction mod p
    per slot. Equality mod a 31-bit prime is a sharp consistency check
    between the monomial coefficients and the cyclotomic source (exact
    equality over Z is covered separately for moderate n).
    """
    if n <= 2:
        return True
    b = [c % p for c in halved_minpoly(n).coeffs]
    m = len(b) - 1
    width = (p.bit_length() + m + 8) // 8  # bytes per slot
    slot = 8 * width
    h = b[m]
    for j in range(m - 1, -1, -1):
        h += (h << 2 * slot) + (b[j] << (m - j) * slot)
    packed = h.to_bytes((2 * m + 1) * width, "little")
    got = [int.from_bytes(packed[i : i + width], "little") % p for i in range(0, len(packed), width)]
    return got == [c % p for c in cyclotomic_coeffs(n)]


def minpoly_identity_exact(n: int) -> bool:
    """Exact integer identity z^m psi_n(z + 1/z) == Phi_n(z) (big integers)."""
    if n <= 2:
        return True
    b = halved_minpoly(n).coeffs
    m = len(b) - 1
    h = [0] * (2 * m + 1)
    h[0] = b[m]
    ln = 1
    for j in range(m - 1, -1, -1):
        new = [0] * (ln + 2)
        for i in range(ln):
            new[i] += h[i]
            new[i + 2] += h[i]
        new[m - j] += b[j]
        for i in range(ln + 2):
            h[i] = new[i]
        ln += 2
    return h == cyclotomic_coeffs(n)
