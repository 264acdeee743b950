"""Places of Q, chordal metrics, local proximity, and exact S-integrality.

Every per-place quantity uses the plain absolute value of the place (the
ordinary one at infinity, |p|_p = 1/p at a finite prime); number-field
normalization weights are absorbed by averaging over the Galois orbit.

The finite-place analysis reads one exact integer, the pairing F_N of the
order-N orbit against beta (``pairing_value``): s^m psi_N(r/s) for
beta = r/s, res(psi_N, f_beta) for algebraic beta. The primes meeting the
orbit are the prime divisors of F_N (away from the leading-coefficient
primes of f_beta), and for p-integral beta, v_p(F_N) is the sum of the
valuations v_p(beta - sigma(alpha)) over the conjugates. ``pairing_value``
serves single-N callers; ``PairingSieve`` reads log|F_N| and v_p(F_N) for
every N <= Nmax from one pass. Both run one exact kernel at every degree of
beta, with no psi_N expanded: a Chebyshev recurrence in Z[y]/(g) and its norm.

The Newton polygon of the denominator-cleared psi_N(beta - x) gives those
valuations one conjugate at a time, read off the lower convex hull of
(i, v_p(coefficient_i)). It is the route of the near-orbit scan (cor33),
which needs the largest single valuation, and the test suite's independent
oracle for the pairing.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .algebraic import AlgebraicNumber
from .chebyshev import (
    PreperiodicOrbit,
    conjugate_fast,
    is_preperiodic_rational,
    moebius_sums,
    orbit_size,
    preperiodic_orbit,
    symmetric_coeffs,
)
from .errors import CoincidentPointsError, DomainError, PrecisionError, PreperiodicInputError
from .factorint import factor_counts, is_prime, padic_valuation
from .intpoly import IntPoly, resultant
from .numerics import cos_two_pi, precision_ladder
from .records import record


class _Infinity:
    """The point at infinity of the projective line."""

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


@record(order=True)
class Place:
    """A place of Q: the archimedean one (p is None) or a finite prime p."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and not is_prime(self.p):
            raise DomainError(f"{self.p} is not prime")

    @staticmethod
    def parse(token: str) -> "Place":
        """A place from its token: "inf" or a prime."""
        if token == "inf":
            return Place(None)
        try:
            p = int(token)
        except ValueError:
            raise DomainError(f"bad place token {token!r}") from None
        return Place(p)

    @property
    def is_archimedean(self) -> bool:
        return self.p is None

    def __str__(self) -> str:
        return "inf" if self.p is None else str(self.p)


ARCH = Place(None)


@record
class PlaceSet:
    """A finite set of places that must contain the archimedean place."""

    places: frozenset[Place]

    def __post_init__(self):
        if ARCH not in self.places:
            raise DomainError("a place set must contain the archimedean place")

    @staticmethod
    def of(*primes: int) -> "PlaceSet":
        return PlaceSet(frozenset({ARCH, *(Place(p) for p in primes)}))

    @staticmethod
    def parse(text: str) -> "PlaceSet":
        toks = [t.strip() for t in text.split(",") if t.strip()]
        if "inf" not in toks:
            raise DomainError('the place list must contain "inf"')
        return PlaceSet(frozenset(map(Place.parse, toks)))

    @property
    def finite_primes(self) -> tuple[int, ...]:
        return tuple(sorted(pl.p for pl in self.places if pl.p is not None))

    def __contains__(self, place: Place) -> bool:
        return place in self.places

    def __str__(self) -> str:
        return ",".join(["inf", *map(str, self.finite_primes)])


# ---------------------------------------------------------------------------
# chordal metric and local proximity
# ---------------------------------------------------------------------------


def _projective_coords(x):
    if isinstance(x, _Infinity):
        return (1, 0)
    if isinstance(x, (int, Fraction)):
        q = Fraction(x)
        return (q.numerator, q.denominator)
    raise DomainError(f"exact projective coordinates needed, got {x!r}")


def chordal_distance(x, y, place: Place = ARCH):
    """The v-adic chordal distance on the projective line:

    delta_v(x, y) = |x1 y2 - y1 x2|_v / (max(|x1|,|x2|)_v max(|y1|,|y2|)_v).

    At a finite place the inputs must be exact (Fraction or INFINITY), the
    value is an exact Fraction, and the ultrametric inequality pins it to
    [0, 1]. At the real place floats/complex are accepted; there the
    max-norm formula can reach 2 (opposite-sign points near unit modulus),
    the price of the normalization that makes the all-places proximity
    identity close exactly.
    """
    if place.is_archimedean:
        def coords(z):
            if isinstance(z, _Infinity):
                return (1.0, 0.0)
            if isinstance(z, (int, Fraction)):
                return (float(z), 1.0)
            value = getattr(z, "value", z)  # ApproxReal / ApproxComplex
            return (complex(value) if isinstance(value, complex) else float(value), 1.0)

        x1, x2 = coords(x)
        y1, y2 = coords(y)
        num = abs(x1 * y2 - y1 * x2)
        den = max(abs(x1), abs(x2)) * max(abs(y1), abs(y2))
        return num / den
    p = place.p
    x1, x2 = _projective_coords(x)
    y1, y2 = _projective_coords(y)
    cross = x1 * y2 - y1 * x2
    if cross == 0:
        return Fraction(0)
    vx = min(padic_valuation(x1, p) if x1 else math.inf, padic_valuation(x2, p) if x2 else math.inf)
    vy = min(padic_valuation(y1, p) if y1 else math.inf, padic_valuation(y2, p) if y2 else math.inf)
    v = padic_valuation(cross, p) - vx - vy
    return Fraction(1, p**v) if v >= 0 else Fraction(p ** (-v))


def local_lambda(x, y, place: Place = ARCH) -> float:
    """The local proximity lambda_{x,v}(y) = -log delta_v(x, y).

    Nonnegative at every finite place; at the real place it is bounded
    below by -log 2 (see chordal_distance). Coincident points have
    infinite proximity and are rejected.
    """
    delta = chordal_distance(x, y, place)
    if delta == 0:
        raise CoincidentPointsError(f"{x} and {y} coincide at {place}")
    if isinstance(delta, Fraction):
        return float(math.log(delta.denominator) - math.log(delta.numerator))
    return -math.log(delta)


# ---------------------------------------------------------------------------
# meeting primes and S-integrality
# ---------------------------------------------------------------------------


def _pairing_beta(beta):
    """(beta, f_beta, the label naming beta in errors), with a rational beta
    = r/s as a Fraction and f_beta = s x - r."""
    if isinstance(beta, AlgebraicNumber) and not beta.is_rational:
        return beta, beta.minpoly, f"a root of {beta.minpoly}"
    beta = beta.as_fraction() if isinstance(beta, AlgebraicNumber) else Fraction(beta)
    return beta, IntPoly.of(-beta.numerator, beta.denominator), str(beta)


def _scaled_chebyshev(f: IntPoly):
    """Q_d = a^d T_d(beta), d = 1, 2, ..., as length-D integer vectors in
    Z[y]/(g): a = lc(f), g(y) = a^(D-1) f(y/a) is the monic minimal polynomial
    of y = a beta, Q_0 = 2, Q_1 = y and Q_{d+1} = y Q_d - a^2 Q_{d-1}. At D = 1
    (f = s x - r, g = y - r) the vector is the one integer s^d T_d(r/s)."""
    deg, a2 = f.degree, f.leading**2
    minus_g = [-c for c in f.scaled_monic().coeffs[:-1]]
    q_prev = [2] + [0] * (deg - 1)
    q = [minus_g[0]] if deg == 1 else [0, 1] + [0] * (deg - 2)  # Q_1 = y mod g
    while True:
        yield q
        top = q[-1]  # y q: q shifted up one place, with top y^D read as top (y^D - g)
        q_prev, q = q, [top * minus_g[0] - a2 * q_prev[0]] + [
            q[i - 1] + top * minus_g[i] - a2 * q_prev[i] for i in range(1, deg)
        ]


def _norm(v: list[int], g: IntPoly, scale: int) -> int:
    """Norm(v) / scale for v in Z[y]/(g), g monic of degree D = len(v), and
    scale = a^(k(D-1)) a power of lc(f_beta) that the norm carries (1 at D = 1):
    v[0] at D = 1, U^2 - g_1 U V + g_0 V^2 for v = U + V y at D = 2, res(v, g)
    above."""
    if len(v) == 1:
        return v[0]
    if len(v) == 2:
        u, w = v
        norm = u * u - g.coeffs[1] * u * w + g.coeffs[0] * w * w
    else:
        h = IntPoly.from_coeffs(v)
        norm = resultant(h, g) if not h.is_zero else 0
    value, rem = divmod(norm, scale)
    if rem:
        raise ArithmeticError("pairing lost exactness")  # pragma: no cover
    return value


def pairing_value(order: int, beta) -> int:
    """Exact integer pairing F_N = res(psi_N, f_beta) of the order-N orbit
    against beta: s^m psi_N(r/s) for rational beta = r/s.

    With psi_N = d_0 + sum_k d_k T_k (``symmetric_coeffs``), a^m psi_N(beta)
    = d_0 a^m + sum_k d_k a^(m-k) Q_k is one vector of Z[y]/(g)
    (``_scaled_chebyshev``) whose norm is a^(m(D-1)) F_N: no psi_N is
    expanded, at every degree. A beta in the orbit (F_N = 0) raises
    PreperiodicInputError.
    """
    beta, f, what = _pairing_beta(beta)
    a, deg = f.leading, f.degree
    m, dk = symmetric_coeffs(order)
    total = [dk.get(0, 0) * a**m] + [0] * (deg - 1)
    for k, q in zip(range(1, m + 1), _scaled_chebyshev(f)):
        if k in dk:
            w = dk[k] * a ** (m - k)
            total = [t + w * c for t, c in zip(total, q)]
    value = _norm(total, f.scaled_monic(), a ** (m * (deg - 1)))
    if value == 0:
        raise PreperiodicInputError(f"beta = {what} is a conjugate of the order-{order} orbit")
    return value


def _lead_primes(beta) -> set[int]:
    """Primes of lead(f_beta) for irrational algebraic beta: above them the
    orbit is integral while |beta|_w > 1, so the chordal distance is 1 and
    they never meet the orbit. Denominator primes of a rational beta never
    divide the pairing at all."""
    if isinstance(beta, AlgebraicNumber) and not beta.is_rational:
        return set(factor_counts(beta.leading))
    return set()


def meeting_primes(orbit: PreperiodicOrbit, beta) -> dict[int, int]:
    """Primes p where some conjugate pair (sigma(alpha), beta) becomes
    p-adically close, with the total valuation of the pairing as weight.

    This is the factorization support of the pairing value F_N
    (``pairing_value``) away from the leading-coefficient primes of f_beta.
    """
    counts = factor_counts(pairing_value(orbit.order, beta))
    for p in _lead_primes(beta):
        counts.pop(p, None)
    return counts


@record
class SIntegralityReport:
    orbit_order: int
    beta: str
    meeting_primes: dict[int, int]
    is_s_integral: bool
    witness: int | None
    place_set: str


def is_s_integral(orbit: PreperiodicOrbit, beta, places: PlaceSet) -> SIntegralityReport:
    """Decide whether the orbit is S-integral relative to beta, exactly.

    The verdict and the witness (the smallest meeting prime outside S) are
    read off the full factorization of the pairing value (``meeting_primes``).
    That is more work than the yes/no verdict needs: ``scan_orbits`` decides
    it from the sieve's log|F_N| and the valuations at S and the lead primes,
    without factoring the cofactor.
    """
    meets = meeting_primes(orbit, beta)
    outside = {p: e for p, e in meets.items() if p not in set(places.finite_primes)}
    witness = min(outside) if outside else None
    return SIntegralityReport(
        orbit_order=orbit.order,
        beta=str(beta),
        meeting_primes=meets,
        is_s_integral=not outside,
        witness=witness,
        place_set=str(places),
    )


#: F_N is S-integral iff log|F_N| - sum_p v_p(F_N) log p, the log of its
#: integer cofactor away from the primes p of S and of lc(f_beta), is below
#: this cutoff: the cofactor is 1 (log 0) or at least 2 (log 0.693). The
#: float error is far smaller, at every degree of beta: log|F_N| is half
#: the sum of at most 2^omega(N) terms +-log|G_d| (``PairingSieve``),
#: each math.log of an exact integer with relative error below 2^-50, and
#: ``moebius_sums`` rounds their exact sum once, so it is off by at most
#: 2^omega(N) max_d log|G_d| 2^-50 + 2^-53 log|F_N|; the valuations are exact
#: integers, and the stripped part adds at most |S| + omega(lc) products
#: v_p log p, each rounded as finely. That stays below 1e-6 while
#: 2^omega(N) max_d log|G_d| < 1e9 nats (1e9 nats is a G_d of 180 MB), so
#: the verdict is exact.
COFACTOR_LOG_CUTOFF = 0.34


class PairingSieve:
    """log|F_N| and v_p(F_N) for every N <= n_max and beta of any degree.

    One pass of the recurrence ``pairing_value`` reads, Q_d = a^d T_d(beta)
    in Z[y]/(g) (``_scaled_chebyshev``), gives G_d = a^d Norm(2 - T_d(beta))
    = Norm(2 a^d - Q_d) / a^(d(D-1)) (``_norm``) for d <= n_max, with a =
    lc(f_beta): 2 s^d - Q_d for rational beta = r/s. As 2 - T_d(w + 1/w) =
    -(w^d - 1)^2 / w^d splits over the orders e | d, G_d = +-F_1 F_2^[2 | d]
    prod_{3 <= e | d} F_e^2, and Moebius inversion gives prod_{d | N}
    G_d^mu(N/d) = F_N^2 for N >= 3 and +-F_N for N <= 2: the divisor-product
    form of cyclotomic values (Arnold & Monagan, Math. Comp. 80, 2011). Only
    log|G_d| and v_p(G_d) for the given primes are kept, so the sign of F_N
    is lost; every reader is sign-free. The cost is one recurrence to n_max
    plus the divisor sums, against a recurrence to the orbit size per N for
    ``pairing_value``. The divisor sums of every N come from one sieve pass
    (``chebyshev.moebius_sums``) per quantity: exact for the valuations, and
    for log|F_N| the exact sum rounded once, built only when first read;
    orbit sizes come from ``chebyshev.orbit_size``. log|F_N| serves only the
    S-integrality verdict (``scan_orbits``, to COFACTOR_LOG_CUTOFF); a
    real-place orbit average reads the same product in closed form, with no
    big integer (``equidist.real_place_defects``).

    G_d = 0 exactly when T_d(beta) = 2, that is when beta lies in an orbit
    of order dividing d; the first such d is that order, and it is rejected
    with PreperiodicInputError as ``pairing_value`` rejects it.
    """

    def __init__(self, beta, n_max: int, primes=()):
        self.beta, f, what = _pairing_beta(beta)
        a, lift = f.leading, f.leading ** (f.degree - 1)
        monic = f.scaled_monic()
        log_g = [0.0] * (n_max + 1)
        val_g = {p: [0] * (n_max + 1) for p in primes}
        two_a_d, scale = 2, 1
        for d, q in zip(range(1, n_max + 1), _scaled_chebyshev(f)):
            two_a_d *= a
            scale *= lift
            g_d = _norm([two_a_d - q[0], *(-c for c in q[1:])], monic, scale)
            if g_d == 0:
                raise PreperiodicInputError(f"beta = {what} is a conjugate of the order-{d} orbit")
            log_g[d] = math.log(abs(g_d))
            for p, vals in val_g.items():
                if g_d % p == 0:
                    vals[d] = padic_valuation(g_d, p)
        self._halves = [1, 1, 1] + [2] * (n_max - 2)
        self._log_g, self._log = log_g, None
        self._val = {p: [v // half for v, half in zip(moebius_sums(vals, n_max), self._halves)] for p, vals in val_g.items()}

    def log_abs(self, n: int) -> float:
        """log|F_n|. The sums are built on the first read, as some sweeps
        read only valuations (``near_orbit_scan``, finite-place rows)."""
        if self._log is None:
            sums = moebius_sums(self._log_g, len(self._log_g) - 1)
            self._log = [v / half for v, half in zip(sums, self._halves)]
        return self._log[n]

    def valuation(self, n: int, p: int) -> int:
        """v_p(F_n) for one of the sieve's primes."""
        return self._val[p][n]


def scan_orbits(beta, places: PlaceSet, n_max: int, size_threshold: float):
    """The S-integral orbits N <= n_max relative to a wandering beta.

    An orbit is S-integral when its pairing value has no prime factor outside
    the finite primes of S and the leading-coefficient primes of f_beta. One
    ``PairingSieve`` pass decides that for every N, at every degree of beta,
    without factoring: the cofactor of F_N away from those primes has log
    below COFACTOR_LOG_CUTOFF. Returns (rows, exceptional): one (N, orbit
    size, {p: v_p(F_N)} over the primes of S that divide F_N) per S-integral
    orbit, and the number of them whose size exceeds size_threshold.
    """
    s_fin = places.finite_primes
    stripped = (*s_fin, *sorted(_lead_primes(beta) - set(s_fin)))
    sieve = PairingSieve(beta, n_max, stripped)
    logs = [math.log(p) for p in stripped]
    rows = []
    exceptional = 0
    for n in range(1, n_max + 1):
        vals = [sieve.valuation(n, p) for p in stripped]
        if sieve.log_abs(n) - sum(v * lp for v, lp in zip(vals, logs)) >= COFACTOR_LOG_CUTOFF:
            continue
        size = orbit_size(n)
        rows.append((n, size, {p: e for p, e in zip(s_fin, vals) if e}))
        if size > size_threshold:
            exceptional += 1
    return rows, exceptional


# ---------------------------------------------------------------------------
# Newton polygons
# ---------------------------------------------------------------------------


def newton_polygon_valuations(g: IntPoly, p: int) -> list:
    """Multiset of p-adic valuations of the roots of g (ascending).

    Valuations are the negated slopes of the lower convex hull of
    (i, v_p(c_i)); zero roots contribute +infinity entries.
    """
    if g.is_zero:
        raise DomainError("Newton polygon of the zero polynomial")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    coeffs = list(g.coeffs)
    zeros = 0
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        zeros += 1
    pts = []
    for i, c in enumerate(coeffs):
        if c:
            pts.append((i, padic_valuation(c, p)))
    # lower convex hull, left to right (monotone chain)
    hull: list[tuple[int, int]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    vals: list = [math.inf] * zeros
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = Fraction(y2 - y1, x2 - x1)
        vals.extend([-slope] * (x2 - x1))
    vals.sort(key=lambda v: (v is math.inf, v))
    return vals


def orbit_shift_poly(orbit: PreperiodicOrbit, beta: Fraction) -> IntPoly:
    """Denominator-cleared psi_N(beta - x); its roots are beta - sigma(alpha)."""
    beta = Fraction(beta)
    return orbit.minpoly.shifted_scaled_arg(beta.numerator, beta.denominator)


def root_of_unity_valuation(m: int, p: int):
    """v_p(1 - zeta_m): +inf at m=1, 1/((p-1) p^(n-1)) at m = p^n, else 0."""
    if m < 1:
        raise DomainError("order must be positive")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if m == 1:
        return math.inf
    n = 0
    while m % p == 0:
        m //= p
        n += 1
    if m == 1 and n >= 1:
        return Fraction(1, (p - 1) * p ** (n - 1))
    return Fraction(0)


# ---------------------------------------------------------------------------
# near-orbit scan at one finite place (at most one orbit can be p-adically
# very close to a fixed beta)
# ---------------------------------------------------------------------------


@record
class NearOrbitReport:
    """Orbits N <= n_max carrying a point p-adically closer to beta than the
    two-factor root-of-unity barrier 2/(p-1).

    Why 2/(p-1) and strict: for distinct preperiodic points written through
    roots of unity, alpha_1 - alpha_2 factors as a product of TWO cyclotomic
    differences, each of p-adic size at least p^(-1/(p-1)); so two points
    with v_p(beta - alpha_i) strictly above 2/(p-1) would force
    |alpha_1 - alpha_2|_p below the product floor p^(-2/(p-1)), which is
    impossible. At most one flagged point is therefore a theorem. The
    single-factor level 1/(p-1) does NOT separate points: v = 1/13 at p = 3
    has both -2 and 1 above it, and whenever an orbit meets beta the
    order-pN relatives land at exactly 1/(p-1). Orbits whose best point
    falls in [1/(p-1), 2/(p-1)] are reported as ``near_misses``.
    """

    beta: str
    p: int
    n_max: int
    threshold: Fraction  # 2/(p-1), strict
    single_factor_level: Fraction  # 1/(p-1), informational
    flagged: tuple[tuple[int, Fraction], ...]  # (orbit order, max root valuation)
    near_misses: tuple[tuple[int, Fraction], ...]
    flagged_point_count: int
    at_most_one: bool
    #: Galois-orbit size bound p log(p)/eps from the local counting argument
    orbit_size_constant: float = 0.0


def near_orbit_scan(beta, p: int, n_max: int, eps: float = 0.5) -> NearOrbitReport:
    """Scan orbits N <= n_max for points with v_p(beta - alpha) > 2/(p-1).

    Only orbits whose pairing value is divisible by p can carry a positive
    valuation, so the Newton polygon is computed for those alone; one
    ``PairingSieve`` pass finds them.
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if eps <= 0:
        raise DomainError("eps must be positive")
    beta = Fraction(beta)
    if is_preperiodic_rational(beta):
        raise PreperiodicInputError(f"{beta} is preperiodic")
    threshold = Fraction(2, p - 1)
    single = Fraction(1, p - 1)
    flagged = []
    near = []
    point_count = 0
    sieve = PairingSieve(beta, n_max, (p,))
    for n in range(1, n_max + 1):
        if not sieve.valuation(n, p):
            continue
        orbit = preperiodic_orbit(n)
        vals = [v for v in newton_polygon_valuations(orbit_shift_poly(orbit, beta), p) if v is not math.inf]
        top = max(vals)
        if top > threshold:
            flagged.append((n, top))
            point_count += sum(1 for v in vals if v > threshold)
        elif top >= single:
            near.append((n, top))
    return NearOrbitReport(
        beta=str(beta),
        p=p,
        n_max=n_max,
        threshold=threshold,
        single_factor_level=single,
        flagged=tuple(flagged),
        near_misses=tuple(near),
        flagged_point_count=point_count,
        at_most_one=point_count <= 1,
        orbit_size_constant=p * math.log(p) / eps,
    )


# ---------------------------------------------------------------------------
# archimedean proximity
# ---------------------------------------------------------------------------


def _nearest_residues(order: int, x: float) -> list[int]:
    """The a, gcd(a, N) = 1 and 1 <= a <= N/2, among which 2 cos(2 pi a / N)
    comes nearest to the real x, for N = ``order``: a range of them,
    ascending.

    On [0, N/2], 2 cos(2 pi a / N) decreases in a, so its distance to x
    falls up to a* = N acos(x/2) / (2 pi) (x clamped to [-2, 2]) and rises
    after it. The float a* is off by far less than one residue, so the true
    a* lies in [floor(a*) - 1, ceil(a*) + 1]; the range runs from the
    coprime a at or below that window's foot to the one at or above its
    top (clipped to [1, N/2]), and every coprime a outside it lies farther
    from x than the range's end on its side."""
    if order <= 2:
        return [1]
    half = order // 2
    a_star = order * math.acos(max(-1.0, min(1.0, x / 2))) / (2 * math.pi)
    lo = min(max(math.floor(a_star) - 1, 1), half)
    hi = max(min(math.ceil(a_star) + 1, half), lo)
    while math.gcd(lo, order) != 1:
        lo -= 1
    while hi < half and math.gcd(hi, order) != 1:
        hi += 1
    return [a for a in range(lo, hi + 1) if math.gcd(a, order) == 1]


def arch_proximity(order: int, beta) -> float:
    """max over the conjugates of the order-N orbit of -log|sigma(alpha) -
    beta| at the real place.

    |x - beta| for real x is |x - Re beta| in the real direction, so the
    nearest conjugate is among ``_nearest_residues(N, Re beta)``. Each is
    evaluated by ``chebyshev.conjugate_fast``, the float of
    ``conjugates_fast``, so the gap is the float that the minimum over the
    whole orbit gives, and ties go to the least a as there.

    Escalates when beta sits inside the float uncertainty of that
    conjugate: a genuine coincidence (zero pairing value) raises, and
    otherwise ``numerics.cos_two_pi`` recomputes the conjugate on the
    precision ladder.
    """
    if isinstance(beta, AlgebraicNumber):
        b, berr = complex(beta.embedding.value), beta.embedding.error_bound
    else:
        beta = Fraction(beta)
        b, berr = complex(beta), abs(float(beta)) * 2e-16
    gap, a = min((abs(conjugate_fast(a, order) - b), a) for a in _nearest_residues(order, b.real))
    if gap > 1e-6 + 8 * berr:
        return -math.log(gap)
    # conjugate too close for float64: rule out beta being a conjugate
    # exactly, then recompute the gap to the nearest one at high precision
    import mpmath as mp

    pairing_value(order, beta)
    for prec in precision_ladder(128):
        c = cos_two_pi(a, order, prec)
        with mp.workprec(prec):
            gap = abs(c - mp.mpc(b))
            tolerance = mp.mpf(2) ** (8 - prec) + berr
            if gap > 4 * tolerance:
                return float(-mp.log(gap))
    raise PrecisionError(
        f"beta is numerically indistinguishable from a conjugate of orbit {order}",
        best=None,
    )
