"""Explicit two-term linear-forms-in-logarithms machinery.

The core inequality: for nonzero algebraic alpha_1, alpha_2 with chosen
log branches, D1 = [Q(alpha_1, alpha_2):Q], coefficient sizes log A_j
dominating max{h(alpha_j), |log alpha_j|/D1, 1/D1}, and nonzero integers
b_1, b_2 with b_1 log alpha_1 + b_2 log alpha_2 != 0,

    log|b_1 log alpha_1 + b_2 log alpha_2|
        >= -21600 D1^4 (log A_1)(log A_2) max(10, log B)^2,

    B = |b_1| / (D1 log A_2) + |b_2| / (D1 log A_1).

Specialized here to alpha_1 = 1 (branch log 1 = 2 pi i) and alpha_2 a
unit-circle algebraic number beta = exp(2 pi i theta_0): the inequality
turns into a lower bound on how well rationals a/N can approximate
theta_0, which is what keeps conjugates of preperiodic points away from
a fixed non-preperiodic beta on the Julia interval.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .algebraic import AlgebraicNumber
from .cfrac import cf_convergents
from .chebyshev import conjugate_fast, is_preperiodic_rational, orbit_size
from .errors import DomainError, PrecisionError, PreperiodicInputError
from .heights import weil_height_algebraic, weil_height_rational
from .integrality import arch_proximity
from .numerics import precision_ladder, round_div
from .records import record


@record
class BakerInstance:
    """Inputs of the two-term lower bound; invariants checked on build."""

    d1: int
    log_a1: float
    log_a2: float
    b1: int
    b2: int

    def __post_init__(self):
        if self.d1 < 1:
            raise DomainError("field degree must be >= 1")
        floor = 1.0 / self.d1 - 1e-12
        if self.log_a1 < floor or self.log_a2 < floor:
            raise DomainError("log A_j must be at least 1/D1")
        if self.b1 == 0 or self.b2 == 0:
            raise DomainError("the integer coefficients must be nonzero")

    @property
    def big_b(self) -> float:
        return abs(self.b1) / (self.d1 * self.log_a2) + abs(self.b2) / (self.d1 * self.log_a1)


def baker_lower_bound(inst: BakerInstance) -> float:
    """-21600 D1^4 (log A1)(log A2) max(10, log B)^2."""
    return (
        -21600.0
        * inst.d1**4
        * inst.log_a1
        * inst.log_a2
        * max(10.0, math.log(inst.big_b)) ** 2
    )


# ---------------------------------------------------------------------------
# certified angle of a unit-circle algebraic number
# ---------------------------------------------------------------------------


#: guard bits of the fixed-point angle below its returned precision
ANGLE_GUARD_BITS = 32
#: argument halvings before the arctangent series
ATAN_HALVINGS = 8


def _atan_series(t: int, w: int) -> tuple[int, int]:
    """(A, e): |A - atan(tau) 2^w| <= e for tau = t / 2^w in [0, 1/2], by
    the alternating series over m terms, with e = 3 m + 3.

    With t2 = floor(tau^2 2^w) (off by < 1) and p_{j+1} = floor(p_j t2 /
    2^w), p_0 = t, the error d_j of p_j against tau^(2j+1) 2^w obeys d_0 = 0
    and d_{j+1} <= d_j tau^2 + tau^(2j+1) + 1, so d_j <= 2 as tau^2 <= 1/4.
    Each term floor(p_j / (2j+1)) is then within 3, and once p_m = 0 the
    alternating tail is below tau^(2m+1) 2^w / (2m+1) <= 2."""
    t2 = (t * t) >> w
    power, total, k = t, 0, 1
    while power:
        term = power // k
        total += term if k & 2 == 0 else -term
        power = (power * t2) >> w
        k += 2
    return total, 3 * (k // 2) + 3


def _atan(t: int, w: int) -> tuple[int, int]:
    """(A, e): |A - atan(t / 2^w) 2^w| <= e for 0 <= t <= 2^w.

    Halving: tau -> tau / (1 + sqrt(1 + tau^2)) = tan(atan(tau) / 2), so
    atan(tau) = 2^k atan(tau_k) after k = ATAN_HALVINGS steps, and tau_k <=
    tan(pi / 2^(k+2)) < 1/2. One step reads S = isqrt(4^w + t^2), within 1
    below sqrt(1 + tau^2) 2^w, and floor(t 2^w / (2^w + S)). The step map
    has slope at most 1/2 on [0, 1], S moves the quotient by at most 1/4,
    and the floor by 1, so the error e_j of tau_j obeys e_{j+1} <= e_j / 2 +
    5/4, and e_j < 3 from e_0 = 0. atan is 1-Lipschitz, so atan(tau_k) is
    within the series error plus 3, which the doubling multiplies by 2^k."""
    one = 1 << w
    for _ in range(ATAN_HALVINGS):
        t = (t << w) // (one + math.isqrt(one * one + t * t))
    total, err = _atan_series(t, w)
    return total << ATAN_HALVINGS, (err + 3) << ATAN_HALVINGS


@lru_cache(maxsize=16)
def _pi(w: int) -> tuple[int, int]:
    """(P, e): |P - pi 2^w| <= e, by Machin's pi = 16 atan(1/5) - 4 atan(1/239).
    Each argument is floored (off by < 1, and atan is 1-Lipschitz)."""
    a, ea = _atan_series((1 << w) // 5, w)
    b, eb = _atan_series((1 << w) // 239, w)
    return 16 * a - 4 * b, 16 * (ea + 1) + 4 * (eb + 1)


def _atan2(y: int, x: int, w: int) -> tuple[int, int]:
    """(A, e): |A - atan2(y, x) 2^w| <= e, in (-pi, pi] 2^w, for integers
    (x, y) != (0, 0).

    atan(min/max) of |x|, |y| (``_atan``) from the quotient floored to w
    bits, which costs 1 more unit as atan is 1-Lipschitz; read as pi/2 minus
    it when |y| > |x| and as pi minus that when x < 0. pi/2 is floor(P/2),
    off by at most e_pi. The sign is y's."""
    ax, ay = abs(x), abs(y)
    pi, pi_err = _pi(w)
    if ay <= ax:
        phi, err = _atan((ay << w) // ax, w)
    else:
        phi, err = _atan((ax << w) // ay, w)
        phi, err = (pi >> 1) - phi, err + pi_err
    err += 1
    if x < 0:
        phi, err = pi - phi, err + pi_err
    return (-phi if y < 0 else phi), err


def _gauss_horner(coeffs, x: int, y: int, w: int) -> tuple[int, int]:
    """2^(n w) f((x + i y) / 2^w) as a Gaussian integer, f = sum coeffs[k] t^k
    of degree n: Horner in exact integers."""
    s = 1 << w
    re, im, scale = coeffs[-1], 0, 1
    for c in reversed(coeffs[:-1]):
        scale *= s
        re, im = re * x - im * y + c * scale, re * y + im * x
    return re, im


def _polished_embedding(beta: AlgebraicNumber, prec: int) -> tuple[int, int, int]:
    """(X, Y, R): the root beta lies within R 2^-P of z = (X + i Y) 2^-P, at
    P = ``prec`` bits.

    Newton's method from the float embedding, each step rounded to the
    grid: z -= f(z) / f'(z), with F = 2^(nP) f(z) and G = 2^((n-1)P) f'(z)
    exact Gaussian integers, so the step is F conj(G) / |G|^2 units. Some
    root lies within n |f(z)| / |f'(z)| = n |F| / |G| units of z (f'/f is
    the sum of 1/(z - root)); R bounds it from above through isqrt. That
    disc must lie inside the embedding's certified disc, which holds one
    root only: the start (X0, Y0) is within sqrt(2)/2 of the embedding, so
    isqrt(|z - z0|^2) + 2 + R units may not exceed its radius."""
    f = beta.minpoly.coeffs
    df = [k * c for k, c in enumerate(f)][1:]
    n = len(f) - 1
    e = beta.embedding
    x0, y0 = round(math.ldexp(e.real, prec)), round(math.ldexp(e.imag, prec))
    x, y = x0, y0
    for _ in range(8 + prec.bit_length()):
        fr, fi = _gauss_horner(f, x, y, prec)
        gr, gi = _gauss_horner(df, x, y, prec)
        den = gr * gr + gi * gi
        if den == 0:
            break
        dx, dy = round_div(fr * gr + fi * gi, den), round_div(fi * gr - fr * gi, den)
        if dx == 0 and dy == 0:
            break
        x, y = x - dx, y - dy
    if den == 0 or dx or dy:
        raise PrecisionError("embedding refinement failed", best=None)
    radius = math.isqrt(-(-n * n * (fr * fr + fi * fi) // den)) + 1
    moved = math.isqrt((x - x0) ** 2 + (y - y0) ** 2) + 2
    if moved + radius > math.floor(math.ldexp(e.error_bound, prec)):
        raise PrecisionError("embedding refinement left the certified disc", best=None)
    return x, y, radius


@lru_cache(maxsize=64)
def certified_angle(beta: AlgebraicNumber, prec: int = 128) -> tuple[Fraction, Fraction]:
    """theta_0 = arg(beta)/(2 pi) in (-1/2, 1/2] with a rigorous error bound,
    both exact dyadic fractions with denominator 2^P, P = ``prec``.

    Requires |beta| = 1 within the certification radius and beta not a root
    of unity (zero height would make the angle rational). Cached: a
    convergent scan reads theta_0 at one precision for every convergent.

    The root lies within r = R 2^-P of z = (X + i Y) 2^-P
    (``_polished_embedding``); a point z with ||z| - 1| > r + 2^(8-P) is
    off the circle. So |z| >= 1/2 once r < 1/4, and arg moves by at most
    asin(r / |z|) <= pi r / (2 |z|) <= pi r over the disc: theta by r/2.
    Then, at W = P + ANGLE_GUARD_BITS bits, phi = atan2(Y, X) is within e_phi
    (``_atan2``) and pi within e_pi (``_pi``), in units of 2^-W. With
    |phi| <= pi and P_pi >= 3, phi / (2 pi) moves by at most (e_phi + e_pi)/6
    when both are replaced, and rounding the quotient adds 1/2; rounding it
    to P bits adds 1/2 unit of 2^-P. The error returned is the sum, rounded
    up to whole units of 2^-P.
    """
    if weil_height_algebraic(beta).value < 1e-10:
        raise DomainError("beta is a root of unity (zero height)")
    x, y, radius = _polished_embedding(beta, prec)
    s = 1 << prec
    if 4 * radius >= s:
        raise PrecisionError("embedding refinement failed", best=None)
    mod = math.isqrt(x * x + y * y)  # |z| 2^P, within 1 below
    if mod - s > radius + 256 or s - (mod + 1) > radius + 256:
        raise DomainError("beta does not lie on the unit circle")
    w = prec + ANGLE_GUARD_BITS
    phi, phi_err = _atan2(y, x, w)
    pi, pi_err = _pi(w)
    theta = round_div(phi << w, 2 * pi)
    theta_err = -(-(phi_err + pi_err + 3) // 6) + 1
    err = -(-radius // 2) + 1 + -(-theta_err >> ANGLE_GUARD_BITS)
    return Fraction(round_div(theta, 1 << ANGLE_GUARD_BITS), s), Fraction(err, s)


# ---------------------------------------------------------------------------
# the angle-approximation inequality
# ---------------------------------------------------------------------------


@record
class AngleGapRecord:
    """One rational approximant a/N against the Baker-type barrier.

    ``lhs`` = log|a/N - theta_0|; ``rhs`` = -C_eps D^3 h(beta) N^eps;
    ``status`` is "holds", "violated", or "equal" (a/N = theta_0, impossible
    off roots of unity but kept for the statement's shape).
    ``linear_form_log`` re-expresses lhs through the two-logarithm linear
    form |a log 1 - N log beta| / (2 pi N) with the fixed branches.
    """

    a: int
    n: int
    lhs: float
    rhs: float
    status: str
    linear_form_log: float
    baker_floor: float


def _angle_instance(beta: AlgebraicNumber, theta0_abs: float, a: int, n: int) -> BakerInstance:
    d1 = beta.degree
    h = weil_height_algebraic(beta).value
    log_a2 = max(h, 2 * math.pi * theta0_abs / d1, 1.0 / d1)
    return BakerInstance(d1=d1, log_a1=1.0 / d1, log_a2=log_a2, b1=a if a else 1, b2=-n)


def angle_rational_gap(
    beta: AlgebraicNumber,
    a: int,
    n: int,
    eps: float,
    c_eps: float,
    prec: int = 192,
) -> AngleGapRecord:
    """Check log|a/N - theta_0| >= -C_eps D^3 h(beta) N^eps for one a/N.

    At each precision P of the ladder from ``prec``, theta_0 lies within
    E 2^-P of T 2^-P (``certified_angle``), so |a/N - theta_0| lies within
    E 2^-P of g / (|N| 2^P), with the integer g = |a 2^P - N T|. Once
    g > 4 |N| E, that quotient exceeds four times its error, so it is within
    25% of the gap, and lhs is its log (as it was with mpmath): ``decimal``
    at 50 digits rounds the quotient and its ln correctly,
    so lhs is the float nearest the log unless the log lies within about
    1e-48 (relative) of a midpoint between two floats.
    """
    from decimal import Context, Decimal

    if n == 0 or abs(n) == 1:
        raise DomainError("N must satisfy |N| >= 2")
    if math.gcd(a, n) != 1:
        raise DomainError("a/N must be in lowest terms")
    if eps <= 0 or c_eps <= 0:
        raise DomainError("eps and C_eps must be positive")
    for p in precision_ladder(prec):
        theta, terr = certified_angle(beta, p)
        scale = 1 << p
        gap = abs(a * scale - n * (theta * scale).numerator)
        if gap > 4 * abs(n) * (terr * scale).numerator:
            ctx = Context(prec=50)
            lhs = float(ctx.divide(Decimal(gap), Decimal(abs(n) << p)).ln(ctx))
            break
    else:
        raise PrecisionError("a/N indistinguishable from theta_0", best=None)
    d = beta.degree
    h = weil_height_algebraic(beta).value
    rhs = -c_eps * d**3 * h * abs(n) ** eps
    inst = _angle_instance(beta, abs(float(theta)), a, n)
    return AngleGapRecord(
        a=a,
        n=n,
        lhs=lhs,
        rhs=rhs,
        status="holds" if lhs >= rhs else "violated",
        linear_form_log=lhs + math.log(2 * math.pi * abs(n)),
        baker_floor=baker_lower_bound(inst),
    )


#: points of the log grid that ``assembled_constant`` maximizes over
GRID_POINTS = 20000
#: grid points per block of its pruned scan
GRID_BLOCK = 64


def assembled_constant(beta: AlgebraicNumber, eps: float) -> float:
    """The explicit C_eps built from the proof chain, valid for every
    reduced a/N with |a/N - theta_0| < 1/2 (all convergents qualify).

    C = sup_{N >= 2} [21600 D^3 L2 max(10, log B_up(N))^2 + log(2 pi N)]
                      / (D^3 h N^eps),

    with L2 the alpha_2 size parameter and B_up(N) an upper bound for B
    along convergents (|a| <= N/2 + 1). The supremum of the smooth
    majorant is located on a dense log grid, GRID_POINTS values of log N
    spaced evenly from log 2 to max(12/eps, 30) (as np.linspace places
    them); the function decays like (log N)^2 / N^eps past its single
    interior peak.

    The numerator and the denominator are both non-decreasing in N, so a
    block of GRID_BLOCK points is bounded by num(last) / den(first), padded
    by 1e-12 for rounding. Blocks are read in decreasing order of that
    bound until it falls below the largest ratio seen, as no later block
    can hold the maximum; the maximum is the full scan's, bit for bit.
    """
    if eps <= 0:
        raise DomainError("eps must be positive")
    d = beta.degree
    h = weil_height_algebraic(beta).value
    if h < 1e-10:
        raise DomainError("beta is a root of unity")
    theta, _ = certified_angle(beta)
    l2 = max(h, 2 * math.pi * abs(float(theta)) / d, 1.0 / d)
    start, stop = math.log(2), max(12.0 / eps, 30.0)
    last = GRID_POINTS - 1
    step = (stop - start) / last
    dl2, c1, two_pi, dh = d * l2, 21600.0 * d**3 * l2, 2 * math.pi, d**3 * h

    def point(i):  # N at the i-th grid point
        return math.exp(stop if i == last else i * step + start)

    def num(n):
        m = max(10.0, math.log((n / 2 + 1) / dl2 + n))
        return c1 * (m * m) + math.log(two_pi * n)

    def den(n):
        return dh * n**eps

    blocks = []
    for lo in range(0, GRID_POINTS, GRID_BLOCK):
        hi = min(lo + GRID_BLOCK, GRID_POINTS) - 1
        blocks.append((num(point(hi)) / den(point(lo)) * (1 + 1e-12), lo, hi))
    best = -math.inf
    for bound, lo, hi in sorted(blocks, reverse=True):
        if bound < best:
            break
        best = max(best, *(num(n) / den(n) for n in map(point, range(lo, hi + 1))))
    return best * 1.0001


@record
class ConvergentScan:
    beta: str
    eps: float
    c_eps: float
    explicit_constant: float
    calibrated_constant: float
    records: tuple[AngleGapRecord, ...]
    violations: int
    truncated: bool


def convergent_scan(
    beta: AlgebraicNumber, n_cap: int, eps: float, c_eps: float | None = None
) -> ConvergentScan:
    """Run the angle inequality over all certified CF convergents of theta_0
    with denominators <= n_cap. c_eps defaults to the assembled explicit
    constant; the calibrated constant (smallest passing value) is reported
    alongside."""
    explicit = assembled_constant(beta, eps)
    use_c = c_eps if c_eps is not None else explicit
    prec = max(192, 4 * int(math.log2(max(n_cap, 2))) + 96)
    theta, terr = certified_angle(beta, prec)
    convs = cf_convergents((theta, terr), n_cap)
    records = []
    calibrated = 0.0
    d, h = beta.degree, weil_height_algebraic(beta).value
    for a, n in convs.convergents:
        if abs(n) < 2 or math.gcd(a, n) != 1:
            continue
        rec = angle_rational_gap(beta, a, n, eps, use_c, prec)
        records.append(rec)
        calibrated = max(calibrated, -rec.lhs / (d**3 * h * n**eps))
    return ConvergentScan(
        beta=str(beta.minpoly),
        eps=eps,
        c_eps=use_c,
        explicit_constant=explicit,
        calibrated_constant=calibrated,
        records=tuple(records),
        violations=sum(r.status == "violated" for r in records),
        truncated=convs.truncated,
    )


# ---------------------------------------------------------------------------
# archimedean proximity bound over whole orbits
# ---------------------------------------------------------------------------


@record
class ProximityRecord:
    orbit_order: int
    orbit_size: int
    proximity: float
    bound: float
    ok: bool


@record
class ProximityCheck:
    beta: str
    eps: float
    c_eps: float
    degree: int
    height: float
    records: tuple[ProximityRecord, ...]
    violations: int
    sandwich_ok: bool | None


def proximity_bound_check(
    beta, n_max: int, eps: float = 0.5, c_eps: float = 1.0
) -> ProximityCheck:
    """max log|x - beta|^-1 over each orbit against C_eps D^3 (h+1) |P|^eps.

    For real |beta| > 2 the elementary sandwich
    |beta| - 2 <= |sigma(x) - beta| <= |beta| + 2 is verified as well. The
    conjugates 2 cos(2 pi a / N) decrease in a on [1, N/2], so |x - beta|
    is monotone over the orbit there and its extremes are the conjugates
    of the least and the greatest a; no order lists its conjugates.
    """
    if isinstance(beta, AlgebraicNumber):
        if beta.is_preperiodic:
            raise PreperiodicInputError("beta is preperiodic")
        d = beta.degree
        h = weil_height_algebraic(beta).value
        b_num = beta.embedding.value
        label = str(beta.minpoly)
    else:
        beta = Fraction(beta)
        if is_preperiodic_rational(beta):
            raise PreperiodicInputError(f"{beta} is preperiodic")
        d = 1
        h = weil_height_rational(beta).value
        b_num = complex(beta)
        label = str(beta)
    records = []
    sandwich_ok: bool | None = None
    if abs(b_num.imag) < 1e-300 and abs(b_num.real) > 2:
        sandwich_ok = True
    for n in range(1, n_max + 1):
        size = orbit_size(n)
        prox = arch_proximity(n, beta)
        bound = c_eps * d**3 * (h + 1.0) * size**eps
        records.append(ProximityRecord(n, size, prox, bound, prox < bound))
        if sandwich_ok is not None:
            lo, hi = abs(b_num.real) - 2, abs(b_num.real) + 2
            a_max = n // 2 if n > 2 else 1
            while math.gcd(a_max, n) != 1:
                a_max -= 1
            gaps = [abs(conjugate_fast(a, n) - b_num) for a in (1, a_max)]
            if min(gaps) < lo - 1e-9 or max(gaps) > hi + 1e-9:
                sandwich_ok = False
    return ProximityCheck(
        beta=label,
        eps=eps,
        c_eps=c_eps,
        degree=d,
        height=h,
        records=tuple(records),
        violations=sum(not r.ok for r in records),
        sandwich_ok=sandwich_ok,
    )
