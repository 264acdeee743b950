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
from .chebyshev import conjugates_fast, is_preperiodic_rational, preperiodic_orbit
from .errors import DomainError, PrecisionError, PreperiodicInputError
from .heights import weil_height_algebraic, weil_height_rational
from .integrality import arch_proximity
from .numerics import precision_ladder
from .records import record
from .roots import _horner_with_error


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


def _refined_embedding(beta: AlgebraicNumber, prec: int):
    """Newton-polish the stored embedding at ``prec`` bits; returns (z, radius)."""
    import mpmath as mp

    coeffs_high = list(reversed(beta.minpoly.coeffs))
    n = beta.degree
    deriv_high = [c * (n - i) for i, c in enumerate(coeffs_high[:-1])]
    with mp.workprec(prec):
        z = mp.mpc(beta.embedding.value)
        for _ in range(max(4, int(math.log2(prec)))):
            fz = mp.polyval(coeffs_high, z)
            fpz = mp.polyval(deriv_high, z)
            if fpz == 0:
                break
            z = z - fz / fpz
        fz, err_f = _horner_with_error(coeffs_high, z, prec)
        fpz, err_fp = _horner_with_error(deriv_high, z, prec)
        denom = abs(fpz) - err_fp
        if denom <= 0:
            raise PrecisionError("embedding refinement failed", best=None)
        return z, n * (abs(fz) + err_f) / denom


@lru_cache(maxsize=64)
def certified_angle(beta: AlgebraicNumber, prec: int = 128):
    """theta_0 = arg(beta)/(2 pi) in (-1/2, 1/2] with a rigorous error bound.

    Requires |beta| = 1 within the certification radius and beta not a root
    of unity (zero height would make the angle rational). Cached: a
    convergent scan reads theta_0 at one precision for every convergent.
    """
    import mpmath as mp

    if weil_height_algebraic(beta).value < 1e-10:
        raise DomainError("beta is a root of unity (zero height)")
    z, r = _refined_embedding(beta, prec)
    with mp.workprec(prec):
        if abs(abs(z) - 1) > r + mp.mpf(2) ** (8 - prec):
            raise DomainError("beta does not lie on the unit circle")
        theta = mp.atan2(z.imag, z.real) / (2 * mp.pi)
        err = float(r / (2 * math.pi) + mp.mpf(2) ** (8 - prec))
        return theta, err


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
    """Check log|a/N - theta_0| >= -C_eps D^3 h(beta) N^eps for one a/N."""
    import mpmath as mp

    if n == 0 or abs(n) == 1:
        raise DomainError("N must satisfy |N| >= 2")
    if math.gcd(a, n) != 1:
        raise DomainError("a/N must be in lowest terms")
    if eps <= 0 or c_eps <= 0:
        raise DomainError("eps and C_eps must be positive")
    for p in precision_ladder(prec):
        theta, terr = certified_angle(beta, p)
        with mp.workprec(p):
            gap = abs(mp.mpf(a) / n - theta)
            if gap > 4 * terr:
                lhs = float(mp.log(gap))
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
    |beta| - 2 <= |sigma(x) - beta| <= |beta| + 2 is verified as well.
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
        orbit = preperiodic_orbit(n)
        prox = arch_proximity(orbit, beta)
        bound = c_eps * d**3 * (h + 1.0) * orbit.size**eps
        records.append(ProximityRecord(n, orbit.size, prox, bound, prox < bound))
        if sandwich_ok is not None:
            lo, hi = abs(b_num.real) - 2, abs(b_num.real) + 2
            gaps = [abs(x - b_num) for x in conjugates_fast(n)]
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
