"""Command-line harness: orbit reports, height computations, S-integrality
sweeps, equidistribution scans, two-log bounds, and the uniform-count
experiment.

Exit codes: 0 when every emitted check passes, 2 when any check fails,
1 on a usage error (malformed beta, bad place list, unknown flags), 3 when
a result could not be certified within the precision ceiling.

beta grammar: "p/q" (or "p") for rationals; "poly:c0,c1,...,cd@k" for an
algebraic number by minimal-polynomial coefficients (lowest degree first)
with embedding index k in the deterministic root order (default 0).
"""

from __future__ import annotations

import argparse
import math
import random
import re
import sys
from fractions import Fraction

from .algebraic import AlgebraicNumber, algebraic_number
from .baker import convergent_scan, proximity_bound_check
from .chebyshev import (
    cheb_eval,
    cheb_poly,
    conjugates_fast,
    is_preperiodic_rational,
    minpoly_conjugate_residuals,
    minpoly_identity_mod,
    minpoly_spot_checks,
    preperiodic_orbit,
)
from .equidist import equidist_rows, fitted_slope, lambda_integral
from .errors import ChebdynError, DomainError, PrecisionError
from .factorint import euler_phi, is_prime
from .heights import (
    LOG_PLUS_INTEGRAL,
    canonical_height,
    dobrowolski_floor,
    sample_betas,
    weil_height_algebraic,
    weil_height_rational,
)
from .integrality import ARCH, Place, PlaceSet, is_s_integral, near_orbit_scan, scan_orbits
from .reports import all_checks_pass, build_report, make_check, write_csv, write_json

DEFAULT_SIZE_CONSTANT = 2.0  # threshold c in the size cutoff c * D^12

USAGE_ERROR = 1
CHECK_FAILURE = 2
PRECISION_FAILURE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit(2); the contract wants 1
        raise UsageError(message)


def parse_beta(text: str):
    """See the module docstring for the accepted grammar."""
    text = text.strip()
    if text.startswith("poly:"):
        body = text[5:]
        index = 0
        if "@" in body:
            body, idx_text = body.rsplit("@", 1)
            try:
                index = int(idx_text)
            except ValueError:
                raise UsageError(f"bad embedding index {idx_text!r}") from None
        try:
            coeffs = [int(t) for t in body.split(",")]
        except ValueError:
            raise UsageError(f"bad coefficient list {body!r}") from None
        try:
            return algebraic_number(coeffs, index)
        except DomainError as exc:  # a PrecisionError is not a usage error
            raise UsageError(str(exc)) from None
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"malformed beta {text!r}") from None


def finite_float(text: str) -> float:
    """A float flag's value; inf and nan would make the report non-JSON."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


class _Count(argparse.Action):
    """Stores a count or an order bound, which may be 0 but not negative.
    An action, not a type, so a value that is not an int keeps argparse's
    own "invalid int value" message."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value < 0:
            raise argparse.ArgumentError(self, f"must not be negative: {value}")
        setattr(namespace, self.dest, value)


def parse_places(text: str) -> PlaceSet:
    try:
        return PlaceSet.parse(text)
    except DomainError as exc:
        raise UsageError(str(exc)) from None


def parse_place(text: str) -> Place:
    try:
        return Place.parse(text.strip())
    except DomainError as exc:
        raise UsageError(str(exc)) from None


def _beta_height(beta):
    if isinstance(beta, AlgebraicNumber):
        return weil_height_algebraic(beta)
    return weil_height_rational(beta)


def _beta_degree(beta) -> int:
    return beta.degree if isinstance(beta, AlgebraicNumber) else 1


def _beta_label(beta) -> str:
    if isinstance(beta, AlgebraicNumber):
        return f"poly:{','.join(map(str, beta.minpoly.coeffs))}@{beta.index}"
    return str(beta)


def _emit(report, args, csv_payload=None):
    try:
        text = write_json(report, args.output)
    except ValueError as exc:  # finite flags can still overflow a result
        raise UsageError(f"the report would not be strict JSON: {exc}") from None
    if args.output is None:
        sys.stdout.write(text)
    if csv_payload is not None and getattr(args, "csv", None):
        header, rows = csv_payload
        write_csv(header, rows, args.csv)
    return 0 if all_checks_pass(report) else CHECK_FAILURE


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_orbit(args):
    n = args.N
    orbit = preperiodic_orbit(n)
    residual = max(minpoly_conjugate_residuals(n))
    conjugates = conjugates_fast(n)
    checks = [
        make_check("minpoly-monic", orbit.minpoly.is_monic, orbit.minpoly.coeffs[-1], 1),
        make_check("degree-equals-orbit-size", orbit.minpoly.degree == orbit.size, orbit.minpoly.degree, orbit.size),
        make_check("conjugate-residual", residual <= 1e-9, residual, 1e-9),
        make_check("integer-point-consistency", minpoly_spot_checks(n), None, None),
        make_check("palindromic-identity-mod-p", minpoly_identity_mod(n), None, None),
        make_check(
            "conjugates-in-julia-interval",
            all(abs(x) <= 2 + 1e-12 for x in conjugates),
            max(map(abs, conjugates)),
            2,
        ),
    ]
    results = {
        "order": n,
        "size": orbit.size,
        "eulerPhi": euler_phi(n),
        "minpoly": list(orbit.minpoly.coeffs),
        "conjugates": conjugates,
        "conjugateErrorBounds": [orbit.conjugate_error_bound] * len(conjugates),
    }
    report = build_report("chebdyn orbit", {"N": n}, results, checks)
    return _emit(report, args)


def cmd_cheb(args):
    poly = cheb_poly(args.n)
    results = {"n": args.n, "coeffs": list(poly.coeffs)}
    checks = []
    if args.at is not None:
        z = parse_beta(args.at)
        if isinstance(z, AlgebraicNumber):
            raise UsageError("cheb evaluation expects a rational point")
        val = cheb_eval(args.n, z)
        results["point"] = str(z)
        results["value"] = str(val)
        # composition cross-check through any nontrivial factor split
        for m in range(2, args.n):
            if args.n % m == 0:
                other = cheb_eval(args.n // m, cheb_eval(m, z))
                checks.append(make_check("composition-identity", other == val, str(other), str(val)))
                break
    report = build_report("chebdyn cheb", {"n": args.n, "at": args.at}, results, checks)
    return _emit(report, args)


def cmd_height(args):
    beta = parse_beta(args.beta)
    h = _beta_height(beta)
    results = {
        "beta": _beta_label(beta),
        "degree": _beta_degree(beta),
        "height": h.value,
        "errorBound": h.error_bound,
        "method": h.method,
    }
    report = build_report("chebdyn height", {"beta": args.beta}, results, [])
    return _emit(report, args)


def cmd_canonical_height(args):
    beta = parse_beta(args.beta)
    h_phi = canonical_height(beta, args.d, args.tol)
    h = _beta_height(beta)
    results = {
        "beta": _beta_label(beta),
        "degree": args.d,
        "canonicalHeight": h_phi.value,
        "errorBound": h_phi.error_bound,
        "method": h_phi.method,
        "weilHeight": h.value,
        "heightGap": h.value - h_phi.value,
    }
    checks = [
        make_check("canonical-height-nonnegative", h_phi.value >= -args.tol, h_phi.value, 0.0)
    ]
    report = build_report(
        "chebdyn canonical-height",
        {"beta": args.beta, "d": args.d, "tol": args.tol},
        results,
        checks,
    )
    return _emit(report, args)


def cmd_sintegral(args):
    beta = parse_beta(args.beta)
    places = parse_places(args.S)
    orbit = preperiodic_orbit(args.N)
    rep = is_s_integral(orbit, beta, places)
    results = {
        "orbit": args.N,
        "beta": _beta_label(beta),
        "S": str(places),
        "isSIntegral": rep.is_s_integral,
        "meetingPrimes": {str(p): e for p, e in sorted(rep.meeting_primes.items())},
        "witness": rep.witness,
    }
    checks = [
        make_check(
            "meeting-primes-inside-S-iff-integral",
            rep.is_s_integral == all(p in places.finite_primes for p in rep.meeting_primes),
            None,
            None,
        )
    ]
    report = build_report(
        "chebdyn sintegral", {"beta": args.beta, "N": args.N, "S": args.S}, results, checks
    )
    return _emit(report, args)


def cmd_scan(args):
    beta = parse_beta(args.beta)
    places = parse_places(args.S)
    if isinstance(beta, AlgebraicNumber):
        preper = beta.is_preperiodic
    else:
        preper = is_preperiodic_rational(beta)
    if preper:
        raise UsageError(f"beta {args.beta} is preperiodic; the scan needs a wandering point")
    degree = _beta_degree(beta)
    threshold = args.size_constant * degree**12
    rows, exceptional = scan_orbits(beta, places, args.Nmax, threshold)
    s_fin = places.finite_primes
    stabilization = max((n for n, _, _ in rows), default=0)
    results = {
        "beta": _beta_label(beta),
        "S": str(places),
        "Nmax": args.Nmax,
        "sizeThreshold": threshold,
        "sizeConstant": args.size_constant,
        "sIntegralOrbits": [
            {"N": n, "size": size, "meetingPrimes": {str(p): e for p, e in m.items()}}
            for n, size, m in rows
        ],
        "exceptionalCount": exceptional,
        "stabilizationPoint": stabilization,
        "maxObservedOrbitSize": max((size for _, size, _ in rows), default=0),
    }
    checks = [
        make_check(
            "exceptional-orbits-at-most-Sfin",
            exceptional <= len(s_fin),
            exceptional,
            len(s_fin),
        )
    ]
    report = build_report(
        "chebdyn scan",
        {
            "beta": args.beta,
            "S": args.S,
            "Nmax": args.Nmax,
            "sizeConstant": args.size_constant,
        },
        results,
        checks,
    )
    csv_rows = [(n, size, ";".join(f"{p}^{e}" for p, e in m.items())) for n, size, m in rows]
    return _emit(report, args, (["N", "orbit_size", "meeting_primes_in_S"], csv_rows))


def cmd_equidist(args):
    beta = parse_beta(args.beta)
    if isinstance(beta, AlgebraicNumber):
        raise UsageError("equidistribution scans take a rational beta")
    if is_preperiodic_rational(beta):
        raise UsageError("beta is preperiodic")
    place = parse_place(args.place)
    orders = range(1, args.Nmax + 1)
    if args.primes_only:
        orders = [n for n in orders if is_prime(n) and n >= args.Nmin]
    else:
        orders = [n for n in orders if n >= args.Nmin]
    rows = equidist_rows(beta, place, orders)
    sizes = [size for _, size, _ in rows if size > 1]
    discs = [d for _, size, d in rows if size > 1]
    slope = fitted_slope(sizes, discs) if len(sizes) > 4 else 0.0
    h_phi = canonical_height(beta, 2, 1e-10)
    results = {
        "beta": str(beta),
        "place": str(place),
        "Nmax": args.Nmax,
        "rows": len(rows),
        "fittedSlope": slope,
        "finalDiscrepancy": rows[-1][2] if rows else None,
        "logPlusIntegral": LOG_PLUS_INTEGRAL,
        "lambdaIntegral": lambda_integral(beta, place),
        "azLimitPrediction": h_phi.value + lambda_integral(beta, ARCH),
        "canonicalHeight": h_phi.value,
        "finitePlaceMeasureConvention": "canonical measure integrals vanish at finite places (good reduction)",
    }
    checks = []
    if args.slope_bound is not None:
        checks.append(make_check("fitted-slope", slope <= args.slope_bound, slope, args.slope_bound))
    report = build_report(
        "chebdyn equidist",
        {
            "beta": args.beta,
            "place": args.place,
            "Nmax": args.Nmax,
            "primesOnly": args.primes_only,
        },
        results,
        checks,
    )
    return _emit(report, args, (["N", "orbit_size", "discrepancy"], rows))


def cmd_baker(args):
    beta = parse_beta(args.beta)
    if not isinstance(beta, AlgebraicNumber):
        raise UsageError("the two-log scan needs an algebraic beta on the unit circle (poly:...)")
    scan = convergent_scan(beta, args.Nmax, args.eps, args.ceps)
    results = {
        "beta": _beta_label(beta),
        "eps": args.eps,
        "cEpsUsed": scan.c_eps,
        "explicitConstant": scan.explicit_constant,
        "calibratedConstant": scan.calibrated_constant,
        "convergents": len(scan.records),
        "truncated": scan.truncated,
    }
    checks = [
        make_check("no-gap-violations", scan.violations == 0, scan.violations, 0),
        make_check(
            "calibrated-below-explicit",
            scan.calibrated_constant <= scan.explicit_constant,
            scan.calibrated_constant,
            scan.explicit_constant,
        ),
    ]
    if args.prox_Nmax:
        prox = proximity_bound_check(beta, args.prox_Nmax, args.prox_eps, args.prox_ceps)
        results["proximity"] = {
            "Nmax": args.prox_Nmax,
            "eps": prox.eps,
            "cEps": prox.c_eps,
            "violations": prox.violations,
            "sandwichChecked": prox.sandwich_ok is not None,
            "sandwichOk": prox.sandwich_ok,
        }
        checks.append(
            make_check("orbit-proximity-bound", prox.violations == 0, prox.violations, 0)
        )
    report = build_report(
        "chebdyn baker",
        {"beta": args.beta, "eps": args.eps, "ceps": args.ceps, "Nmax": args.Nmax},
        results,
        checks,
    )
    csv_rows = [(r.a, r.n, r.lhs, r.rhs, r.status) for r in scan.records]
    return _emit(report, args, (["a", "N", "lhs", "rhs", "status"], csv_rows))


def cmd_cor33(args):
    beta = parse_beta(args.beta)
    if isinstance(beta, AlgebraicNumber):
        raise UsageError("the near-orbit scan takes a rational beta")
    rep = near_orbit_scan(beta, args.p, args.Nmax, args.eps)
    results = {
        "beta": str(beta),
        "p": args.p,
        "Nmax": args.Nmax,
        "threshold": str(rep.threshold),
        "singleFactorLevel": str(rep.single_factor_level),
        "flagged": [{"N": n, "maxValuation": str(v)} for n, v in rep.flagged],
        "nearMisses": [{"N": n, "maxValuation": str(v)} for n, v in rep.near_misses],
        "flaggedPointCount": rep.flagged_point_count,
        "orbitSizeConstant": rep.orbit_size_constant,
        "eps": args.eps,
    }
    checks = [
        make_check("at-most-one-flagged-point", rep.at_most_one, rep.flagged_point_count, 1)
    ]
    report = build_report(
        "chebdyn cor33",
        {"beta": args.beta, "p": args.p, "Nmax": args.Nmax, "eps": args.eps},
        results,
        checks,
    )
    return _emit(report, args)


def cmd_theorem2(args):
    places = parse_places(args.S)
    s_fin = places.finite_primes
    rng = random.Random(args.seed)
    try:
        betas = sample_betas(rng, args.trials, args.height_cap, args.Dcap)
    except DomainError as exc:
        raise UsageError(str(exc)) from None
    per_beta = []
    worst = 0
    for sb in betas:
        threshold = args.size_constant * sb.degree**12
        rows, exceptional = scan_orbits(sb.value, places, args.Nmax, threshold)
        worst = max(worst, exceptional)
        per_beta.append(
            {
                "beta": sb.label,
                "degree": sb.degree,
                "height": sb.height,
                "sIntegralOrbits": len(rows),
                "exceptionalCount": exceptional,
                "threshold": threshold,
                "maxOrbitSize": max((size for _, size, _ in rows), default=0),
            }
        )
    curve = [
        {"D": d, "sizeThreshold": args.size_constant * d**12}
        for d in range(1, args.Dcap + 1)
    ]
    results = {
        "S": str(places),
        "trials": args.trials,
        "seed": args.seed,
        "Nmax": args.Nmax,
        "heightCap": args.height_cap,
        "sizeConstant": args.size_constant,
        "thresholdCurve": curve,
        "dobrowolskiC": args.dobrowolski_c,
        "dobrowolskiFloorD2": dobrowolski_floor(2, args.dobrowolski_c),
        "perBeta": per_beta,
        "worstExceptionalCount": worst,
        "maxObservedOrbitSizeOverall": max((b["maxOrbitSize"] for b in per_beta), default=0),
    }
    checks = [
        make_check(
            "exceptional-count-at-most-Sfin-for-every-beta",
            worst <= len(s_fin),
            worst,
            len(s_fin),
        )
    ]
    report = build_report(
        "chebdyn theorem2",
        {
            "S": args.S,
            "Dcap": args.Dcap,
            "heightCap": args.height_cap,
            "Nmax": args.Nmax,
            "trials": args.trials,
            "seed": args.seed,
            "sizeConstant": args.size_constant,
            "dobrowolskiC": args.dobrowolski_c,
        },
        results,
        checks,
    )
    csv_rows = [
        (b["beta"], b["degree"], b["height"], b["sIntegralOrbits"], b["exceptionalCount"])
        for b in per_beta
    ]
    return _emit(
        report, args, (["beta", "degree", "height", "s_integral_orbits", "exceptional_count"], csv_rows)
    )


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _orbit_args(p):
    p.add_argument("--N", type=int, required=True)
    return cmd_orbit


def _cheb_args(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--at", help="rational point to evaluate at")
    return cmd_cheb


def _height_args(p):
    p.add_argument("--beta", required=True)
    return cmd_height


def _canonical_height_args(p):
    p.add_argument("--beta", required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--tol", type=finite_float, default=1e-9)
    return cmd_canonical_height


def _sintegral_args(p):
    p.add_argument("--beta", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--S", required=True, help='comma list of places, e.g. "inf,2,3"')
    return cmd_sintegral


def _scan_args(p):
    p.add_argument("--beta", required=True)
    p.add_argument("--S", required=True)
    p.add_argument("--Nmax", type=int, action=_Count, required=True)
    p.add_argument("--size-constant", type=finite_float, default=DEFAULT_SIZE_CONSTANT,
                   help="c in the exceptional-orbit size cutoff c*D^12")
    return cmd_scan


def _equidist_args(p):
    p.add_argument("--beta", required=True)
    p.add_argument("--Nmax", type=int, action=_Count, required=True)
    p.add_argument("--Nmin", type=int, default=1)
    p.add_argument("--place", default="inf")
    p.add_argument("--primes-only", action="store_true")
    p.add_argument("--slope-bound", type=finite_float, default=None,
                   help="emit a pass/fail check on the fitted log-log slope")
    return cmd_equidist


def _baker_args(p):
    p.add_argument("--beta", required=True, help="poly:... algebraic point on the unit circle")
    p.add_argument("--eps", type=finite_float, default=0.1)
    p.add_argument("--ceps", type=finite_float, default=None,
                   help="override the assembled explicit constant")
    p.add_argument("--Nmax", type=int, default=10000)
    p.add_argument("--prox-Nmax", type=int, action=_Count, default=0,
                   help="also check the per-orbit proximity bound up to this order")
    p.add_argument("--prox-eps", type=finite_float, default=0.5)
    p.add_argument("--prox-ceps", type=finite_float, default=4.0)
    return cmd_baker


def _cor33_args(p):
    p.add_argument("--beta", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--Nmax", type=int, action=_Count, required=True)
    p.add_argument("--eps", type=finite_float, default=0.5)
    return cmd_cor33


def _theorem2_args(p):
    p.add_argument("--S", required=True)
    p.add_argument("--Dcap", type=int, default=2)
    p.add_argument("--height-cap", type=finite_float, default=math.log(100))
    p.add_argument("--Nmax", type=int, action=_Count, default=2000)
    p.add_argument("--trials", type=int, action=_Count, default=50)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--size-constant", type=finite_float, default=DEFAULT_SIZE_CONSTANT)
    p.add_argument("--dobrowolski-c", type=finite_float, default=0.25)
    return cmd_theorem2


#: (name, help line, the function that adds its arguments and returns its
#: command, the flag whose value may be a negative rational or None)
SUBCOMMANDS = (
    ("orbit", "exact preperiodic orbit data for one order N", _orbit_args, None),
    ("cheb", "Chebyshev polynomial coefficients and exact evaluation", _cheb_args, "--at"),
    ("height", "Weil height of a rational or algebraic number", _height_args, "--beta"),
    ("canonical-height", "canonical height in closed form (local heights), with the h vs h_phi gap",
     _canonical_height_args, "--beta"),
    ("sintegral", "exact S-integrality verdict for one orbit", _sintegral_args, "--beta"),
    ("scan", "sweep orbits N <= Nmax for S-integrality", _scan_args, "--beta"),
    ("equidist", "orbit-average vs integral discrepancies", _equidist_args, "--beta"),
    ("baker", "two-log lower bound along CF convergents of the angle", _baker_args, "--beta"),
    ("cor33", "p-adically near orbits scan (at most one expected)", _cor33_args, "--beta"),
    ("theorem2", "seeded uniform-count experiment over sampled beta", _theorem2_args, None),
)


def build_parser(command: str | None = None) -> _Parser:
    """The chebdyn parser. Every subcommand gets its parser and help line,
    but only the one named ``command`` gets its arguments (every one when
    command is None): they are most of the cost of building the parser, and
    one call parses one subcommand."""
    parser = _Parser(prog="chebdyn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add_arguments, _ in SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        if command is None or command == name:
            func = add_arguments(p)
            p.add_argument("--output", help="write the JSON report here (default: stdout)")
            p.add_argument("--csv", help="write the CSV table here (where applicable)")
            p.set_defaults(func=func)
    return parser


def _join_negative_rationals(argv: list[str], flag: str | None) -> list[str]:
    """argv with "FLAG -p/q" passed on as "FLAG=-p/q": argparse reads a token
    -p/q as an option, not as the value of the flag before it (a negative
    integer it already reads as a value)."""
    out = []
    for token in argv:
        if out and out[-1] == flag and re.fullmatch(r"-[0-9]+/[0-9]+", token):
            out[-1] = f"{flag}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the subcommand is the first token that names one: argparse reads the
    # first token that is not an option as the subcommand and rejects others
    flags = {name: flag for name, _, _, flag in SUBCOMMANDS}
    at = next((i for i, token in enumerate(argv) if token in flags), len(argv))
    command = argv[at] if at < len(argv) else ""
    argv[at + 1 :] = _join_negative_rationals(argv[at + 1 :], flags.get(command))
    parser = build_parser(command)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except PrecisionError as exc:
        print(f"precision error: {exc}", file=sys.stderr)
        return PRECISION_FAILURE
    except ChebdynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
