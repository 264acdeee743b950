"""The mpmath routes of the equidistribution layer, kept as test oracles of
``chebdyn.equidist`` and ``heights.green_function``.

``quadrature_potential`` and ``measure_invariance_gap`` integrate the
defining integrals by adaptive quadrature; ``total_lambda_identity_check``
sums the real-place lambdas of an orbit at high precision against the
product formula that ``equidist.real_place_lambda_average`` reads; and
``az_pairing_estimate`` tabulates the per-orbit totals against their
pairing limit. All are the library's former code, unchanged, except that
``_arch_average_mp`` reads each conjugate from ``numerics.cos_two_pi``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from chebdyn.algebraic import AlgebraicNumber
from chebdyn.chebyshev import PreperiodicOrbit, cheb_eval, is_preperiodic_rational, orbit_size
from chebdyn.equidist import lambda_integral
from chebdyn.errors import PreperiodicInputError
from chebdyn.heights import (
    HeightValue,
    canonical_height,
    orbit_generator_height,
    orbit_generator_heights,
    weil_height_rational,
)
from chebdyn.integrality import ARCH, pairing_value
from chebdyn.numerics import cos_two_pi
from chebdyn.records import record


def quadrature_potential(beta, prec_digits: int = 25) -> float:
    """Direct adaptive quadrature of (1/pi) int_0^pi log|2cos t - beta| dt.

    Independent oracle for the equilibrium potential; splits at the interior
    singularity when beta lies on the support.
    """
    import mpmath as mp

    z = complex(beta)
    with mp.workdps(prec_digits):
        zz = mp.mpc(z)

        def f(t):
            return mp.log(abs(2 * mp.cos(t) - zz))

        points = [0, mp.pi]
        if z.imag == 0 and -2 < z.real < 2:
            points = [0, mp.acos(mp.mpf(z.real) / 2), mp.pi]
        val = mp.quad(f, points) / mp.pi
        return float(val)


def _arch_average_mp(orbit: PreperiodicOrbit, beta: Fraction, prec: int) -> float:
    import mpmath as mp

    r, s = beta.numerator, beta.denominator
    with mp.workprec(prec):
        denom_b = mp.mpf(max(abs(r), s))
        total = mp.mpf(0)
        for a in orbit.a_values:
            c = cos_two_pi(a, orbit.order, prec)
            total += -mp.log(abs(c * s - r) / (max(abs(c), 1) * denom_b))
        return float(total / orbit.size)


@record
class LambdaIdentity:
    """Both sides of the exact all-places proximity identity.

    Summing the orbit-averaged lambda over the real place and every meeting
    prime (denominator primes contribute zero) must equal
    h(beta) + h(alpha): the product formula in local coordinates.
    """

    orbit_order: int
    beta: str
    lhs: float
    rhs: float
    gap: float
    arch_average: float
    finite_total: float


def total_lambda_identity_check(orbit: PreperiodicOrbit, beta, prec: int = 96) -> LambdaIdentity:
    """Assemble sum_v orbit-average lambda_v against h(beta) + h(alpha).

    The finite part is summed exactly over all primes at once: by unique
    factorization, sum_p (log p) v_p(F) = log|F| for the pairing value F,
    which already accounts for every meeting prime and gives denominator
    primes their zero contribution.
    """
    import mpmath as mp

    beta = beta.as_fraction() if isinstance(beta, AlgebraicNumber) else Fraction(beta)
    f_val = pairing_value(orbit.order, beta)
    arch = _arch_average_mp(orbit, beta, prec)
    with mp.workprec(prec):
        finite = float(mp.log(abs(mp.mpf(f_val))) / orbit.size) if abs(f_val) > 1 else 0.0
    lhs = arch + finite
    rhs = weil_height_rational(beta).value + orbit_generator_height(orbit.order).value
    return LambdaIdentity(
        orbit_order=orbit.order,
        beta=str(beta),
        lhs=lhs,
        rhs=rhs,
        gap=abs(lhs - rhs),
        arch_average=arch,
        finite_total=finite,
    )


@record
class PairingEstimate:
    """Convergence of per-orbit total proximity toward its height-pairing limit.

    ``limit_prediction`` = h_phi(beta) + int lambda dmu at the real place
    (finite places integrate to zero by good reduction). ``totals`` carries
    (order, size, total, gap); the empirical rate constant rescales the gap
    by the pairing convergence shape sqrt-size shape.
    """

    beta: str
    limit_prediction: float
    canonical_height: HeightValue
    totals: tuple[tuple[int, int, float, float], ...]
    empirical_rate_constant: float


def az_pairing_estimate(beta, n_max: int, min_size: int = 1, tol: float = 1e-10) -> PairingEstimate:
    """Per-orbit total lambda sums against the pairing limit, for N <= n_max.

    beta must be rational and non-preperiodic. By the product formula the
    total over every place of the orbit-averaged lambda is
    h(beta) + h(alpha_N) (``total_lambda_identity_check``), so no pairing
    value is needed.
    """
    beta = beta.as_fraction() if isinstance(beta, AlgebraicNumber) else Fraction(beta)
    if is_preperiodic_rational(beta):
        raise PreperiodicInputError(f"{beta} is preperiodic")
    h_phi = canonical_height(beta, 2, tol)
    limit = h_phi.value + lambda_integral(beta, ARCH)
    h_beta = weil_height_rational(beta).value
    rows = []
    rate = 0.0
    kept = [(n, size) for n in range(1, n_max + 1) if (size := orbit_size(n)) >= min_size]
    for (n, size), h_alpha in zip(kept, orbit_generator_heights([n for n, _ in kept])):
        total = h_beta + h_alpha.value
        gap = abs(total - limit)
        rows.append((n, size, total, gap))
        if size > 1:
            shape = (1 + math.log(math.sqrt(size))) / math.sqrt(size)
            rate = max(rate, gap / shape)
    return PairingEstimate(
        beta=str(beta),
        limit_prediction=limit,
        canonical_height=h_phi,
        totals=tuple(rows),
        empirical_rate_constant=rate,
    )


def measure_invariance_gap(d: int, monomial_degree: int, prec_digits: int = 25) -> float:
    """|int f(T_d(x)) dmu - int f dmu| for f = x^k: the invariance witness."""
    import mpmath as mp

    with mp.workdps(prec_digits):
        def lhs(t):
            return cheb_eval(d, 2 * mp.cos(t)) ** monomial_degree

        def rhs(t):
            return (2 * mp.cos(t)) ** monomial_degree

        a = mp.quad(lhs, [0, mp.pi]) / mp.pi
        b = mp.quad(rhs, [0, mp.pi]) / mp.pi
        return float(abs(a - b))
