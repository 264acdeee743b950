"""chebdyn: exact arithmetic for the Chebyshev dynamical system over Q.

Enumerates Galois orbits of preperiodic points (zeta_N + 1/zeta_N),
computes Weil and canonical heights, decides S-integrality exactly from one
pairing kernel at every degree of beta and from Newton polygons, and runs
equidistribution / proximity / uniform-count verifications at desk scale.
"""

from .algebraic import AlgebraicNumber, algebraic_number
from .baker import (
    AngleGapRecord,
    BakerInstance,
    angle_rational_gap,
    assembled_constant,
    baker_lower_bound,
    certified_angle,
    convergent_scan,
    proximity_bound_check,
)
from .cfrac import ConvergentList, cf_convergents
from .chebyshev import (
    ChebMap,
    PreperiodicOrbit,
    cheb_eval,
    cheb_poly,
    cyclotomic_coeffs,
    halved_minpoly,
    is_preperiodic_rational,
    orbit_size,
    preperiodic_orbit,
)
from .equidist import (
    DiscrepancyRecord,
    LambdaIdentity,
    PairingEstimate,
    az_pairing_estimate,
    discrepancy,
    equidist_rows,
    equilibrium_potential,
    finite_lambda_average,
    fitted_slope,
    lambda_integral,
    log_plus_integral,
    orbit_lambda_average,
    total_lambda_identity_check,
)
from .errors import (
    ChebdynError,
    CoincidentPointsError,
    DomainError,
    PrecisionError,
    PreperiodicInputError,
)
from .factorint import euler_phi, factor_counts, factorize, is_prime, padic_valuation
from .heights import (
    HeightValue,
    canonical_height,
    dobrowolski_floor,
    orbit_generator_height,
    sample_betas,
    weil_height_algebraic,
    weil_height_rational,
)
from .integrality import (
    ARCH,
    INFINITY,
    PairingSieve,
    Place,
    PlaceSet,
    SIntegralityReport,
    arch_proximity,
    chordal_distance,
    is_s_integral,
    local_lambda,
    meeting_primes,
    near_orbit_scan,
    newton_polygon_valuations,
    pairing_value,
    root_of_unity_valuation,
    scan_orbits,
)
from .intpoly import IntPoly, resultant
from .numerics import ApproxComplex, ApproxReal
from .roots import complex_roots

__version__ = "0.1.0"
