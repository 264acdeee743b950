"""Correctness oracles for benchmark ops. None of them calls chebdyn.

Every report must be strict JSON that validates against the shipped schema.
The kind-specific checks recompute what a report claims from first
principles:

* pairing values through sympy's identity
  Res_z(Phi_N(z), z^d f(z + 1/z)) = +-(pairing value)^2 for N >= 3, which
  decides S-integrality and gives each meeting prime's exponent as half its
  valuation in the resultant;
* orbit minimal polynomials through z^m psi_N(z + 1/z) = Phi_N(z);
* rational canonical heights through the mpmath closed form, within the
  reported errorBound;
* real-place equidist rows through an mpmath orbit average;
* Weil heights through an mpmath Mahler measure.

Each check returns a list of problems; an empty list means the op passed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from fractions import Fraction
from functools import lru_cache

import jsonschema
import mpmath as mp
import sympy

Z = sympy.Symbol("z")

#: rows of one report that get a resultant check (seeded pick)
ROWS_PER_OP = 3
#: largest orbit order whose resultant the oracles compute
ORACLE_N_MAX = 600
#: float64 allowance for 2 cos(2 pi a / N) computed in doubles: the angle
#: (at most pi) picks up about three roundings of 2^-53 relative, which the
#: slope |2 sin| <= 2 doubles, and cos adds a few ulps. The reports' own
#: conjugateErrorBounds (4e-16) are not used: they are smaller than this
#: rounding and some conjugates miss them.
CONJUGATE_TOL = 4e-15


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


def parse_report(text: str) -> dict:
    """Strict JSON: NaN and Infinity are rejected."""
    return json.loads(text, parse_constant=_reject_constant)


@lru_cache(maxsize=None)
def _validator(schema_path: str):
    with open(schema_path) as fh:
        return jsonschema.Draft7Validator(json.load(fh))


# ---------------------------------------------------------------------------
# exact arithmetic helpers
# ---------------------------------------------------------------------------


def beta_poly(params: dict) -> list[int]:
    """Minimal polynomial of beta, lowest degree first (s x - r for r/s)."""
    if "poly" in params:
        return list(params["poly"])
    q = Fraction(params["beta"])
    return [-q.numerator, q.denominator]


def lift(coeffs):
    """z^d f(z + 1/z) for f of degree d, coefficients lowest first."""
    d = len(coeffs) - 1
    return sympy.expand(sum(c * Z ** (d - i) * (Z * Z + 1) ** i for i, c in enumerate(coeffs)))


@lru_cache(maxsize=256)
def resultant_sq(n: int, coeffs: tuple[int, ...]) -> int:
    """|Res_z(Phi_n(z), z^d f(z + 1/z))| = (pairing value)^2 for n >= 3."""
    phi = sympy.Poly(sympy.cyclotomic_poly(n, Z), Z)
    return abs(int(sympy.resultant(phi, sympy.Poly(lift(coeffs), Z))))


def valuation(n: int, p: int) -> int:
    v = 0
    while n and n % p == 0:
        n //= p
        v += 1
    return v


def strip(n: int, primes) -> int:
    for p in primes:
        while n % p == 0:
            n //= p
    return n


def closed_form_canonical_height(q: Fraction, dps: int = 40) -> mp.mpf:
    """log q + log((|x| + sqrt(x^2 - 4)) / 2), the last term only for |x| > 2."""
    with mp.workdps(dps):
        val = mp.log(q.denominator)
        ax = abs(mp.mpf(q.numerator) / q.denominator)
        if ax > 2:
            val += mp.log((ax + mp.sqrt(ax * ax - 4)) / 2)
        return val


def mahler_height(coeffs, dps: int = 40) -> mp.mpf:
    with mp.workdps(dps):
        roots = mp.polyroots(list(reversed(coeffs)), maxsteps=200, extraprec=200)
        total = mp.log(abs(coeffs[-1])) + sum(mp.log(abs(r)) for r in roots if abs(r) > 1)
        return total / (len(coeffs) - 1)


def conjugates(n: int):
    return [2 * mp.cospi(mp.mpf(2 * a) / n) for a in range(1, n // 2 + 1) if math.gcd(a, n) == 1]


def arch_discrepancy(q: Fraction, n: int, dps: int = 30) -> tuple[mp.mpf, float]:
    """(|orbit average - integral| of lambda at the real place, float64
    error allowance for the same sum). lambda_x(b) = -log(|x - b| /
    (max(|x|,1) max(|b|,1))); its integral against the arcsine measure is
    log+|b| + int log+|x| dmu - log|w| with b = w + 1/w, |w| >= 1."""
    with mp.workdps(dps):
        b = mp.mpf(q.numerator) / q.denominator
        xs = [mp.mpf(2)] if n == 1 else [mp.mpf(-2)] if n == 2 else conjugates(n)
        lam = [-mp.log(abs(x - b) / (max(abs(x), 1) * max(abs(b), 1))) for x in xs]
        avg = mp.fsum(lam) / len(xs)
        kappa = 2 / mp.pi * mp.quad(lambda t: mp.log(2 * mp.cos(t)), [0, mp.pi / 3])
        w = (abs(b) + mp.sqrt(b * b - 4)) / 2 if abs(b) > 2 else mp.mpf(1)
        integral = mp.log(max(abs(b), 1)) + kappa - mp.log(w)
        # float64 inputs carry a relative error near 2^-52 in x - b
        slack = sum(8e-16 * (abs(x) + abs(b)) / abs(x - b) for x in xs) / len(xs)
        return abs(avg - integral), float(slack) + 1e-12 * (1 + abs(float(avg)))


# ---------------------------------------------------------------------------
# per-kind checks
# ---------------------------------------------------------------------------


def _pick(rng: random.Random, items, k=ROWS_PER_OP):
    items = list(items)
    return items if len(items) <= k else rng.sample(items, k)


def _check_scan(op, report, rng, csv_text):
    res, params = report["results"], op.params
    coeffs = tuple(beta_poly(params))
    s_fin = params["S"]
    lead = [int(p) for p in sympy.primefactors(coeffs[-1])] if "poly" in params else []
    rows = {row["N"]: row for row in res["sIntegralOrbits"]}
    top = min(params["Nmax"], ORACLE_N_MAX)
    cand = _pick(rng, [n for n in rows if 3 <= n <= top])
    cand += _pick(rng, [n for n in range(3, top + 1) if n not in rows])
    problems = []
    for n in cand:
        sq = resultant_sq(n, coeffs)
        integral = strip(sq, [*s_fin, *lead]) == 1
        if integral != (n in rows):
            problems.append(f"N={n}: S-integral is {integral}, report says {n in rows}")
        elif integral:
            want = {str(p): valuation(sq, p) // 2 for p in s_fin if sq % p == 0}
            if rows[n]["meetingPrimes"] != want:
                problems.append(f"N={n}: meeting primes {rows[n]['meetingPrimes']} != {want}")
    return problems


def _check_sintegral(op, report, rng, csv_text):
    res, params = report["results"], op.params
    sq = resultant_sq(params["N"], tuple(beta_poly(params)))
    value = math.isqrt(sq)
    if value * value != sq:
        return [f"resultant {sq} is not a square"]
    meets = {int(p): e for p, e in res["meetingPrimes"].items()}
    problems = []
    if math.prod(p**e for p, e in meets.items()) != value:
        problems.append("meeting primes do not multiply to the pairing value")
    if not all(sympy.isprime(p) for p in meets):
        problems.append("a meeting prime is composite")
    outside = [p for p in meets if p not in params["S"]]
    if res["isSIntegral"] != (not outside):
        problems.append(f"verdict {res['isSIntegral']} with primes outside S {outside}")
    if res["witness"] != (min(outside) if outside else None):
        problems.append(f"witness {res['witness']} != {min(outside) if outside else None}")
    return problems


def _check_cor33(op, report, rng, csv_text):
    res, params = report["results"], op.params
    p = params["p"]
    problems = []
    if Fraction(res["threshold"]) != Fraction(2, p - 1):
        problems.append(f"threshold {res['threshold']} != 2/{p - 1}")
    coeffs = tuple(beta_poly(params))
    rows = [r for r in res["flagged"] + res["nearMisses"] if 3 <= r["N"] <= ORACLE_N_MAX]
    for row in _pick(rng, rows):
        # the root valuations of beta - sigma(alpha) sum to v_p(pairing value)
        v = valuation(resultant_sq(row["N"], coeffs), p) // 2
        if not 0 < Fraction(row["maxValuation"]) <= v:
            problems.append(f"N={row['N']}: max valuation {row['maxValuation']} outside (0, {v}]")
    return problems


def _check_height_of(value, bound, oracle, what):
    if abs(value - oracle) > bound:
        return [f"{what} {value!r} misses the oracle {mp.nstr(oracle, 20)} by more than {bound!r}"]
    return []


def _check_canonical_height(op, report, rng, csv_text):
    res = report["results"]
    oracle = closed_form_canonical_height(Fraction(op.params["beta"]))
    return _check_height_of(res["canonicalHeight"], res["errorBound"], oracle, "canonical height")


def _check_height(op, report, rng, csv_text):
    res = report["results"]
    coeffs = beta_poly(op.params)
    if "poly" in op.params:
        oracle = mahler_height(coeffs)
    else:
        oracle = mp.log(max(abs(coeffs[0]), abs(coeffs[1])))
    return _check_height_of(res["height"], res["errorBound"], oracle, "height")


def _check_equidist(op, report, rng, csv_text):
    res, params = report["results"], op.params
    q = Fraction(params["beta"])
    problems = []
    if res["rows"] != params["Nmax"]:
        problems.append(f"{res['rows']} rows for Nmax={params['Nmax']}")
    h = closed_form_canonical_height(q)
    if abs(res["canonicalHeight"] - h) > 1e-9:
        problems.append(f"canonical height {res['canonicalHeight']} != {mp.nstr(h, 17)}")
    table = list(csv.reader(io.StringIO(csv_text)))
    if table[0] != ["N", "orbit_size", "discrepancy"] or len(table) - 1 != res["rows"]:
        return problems + ["CSV table does not match the report"]
    rows = {int(r[0]): float(r[2]) for r in table[1:]}
    if params["place"] == "inf":
        picks = _pick(rng, rows)
        if params.get("nearOrder") in rows:
            picks.append(params["nearOrder"])
        for n in picks:
            want, slack = arch_discrepancy(q, n)
            if abs(rows[n] - want) > slack:
                problems.append(f"N={n}: discrepancy {rows[n]!r} != {mp.nstr(want, 17)} (+-{slack:.1e})")
        return problems
    # finite place: the orbit average is v_p(pairing) log p / |orbit|, and 0
    # when p divides the denominator (chordal distance 1 there)
    p = params["place"]
    for n in _pick(rng, [n for n in rows if 3 <= n <= ORACLE_N_MAX]):
        want = 0.0
        if q.denominator % p:
            v = valuation(resultant_sq(n, tuple(beta_poly(params))), p) // 2
            want = v * math.log(p) / (int(sympy.totient(n)) // 2)
        if abs(rows[n] - want) > 1e-12 * (1 + want):
            problems.append(f"N={n}: discrepancy {rows[n]!r} != {want!r}")
    return problems


def _check_orbit(op, report, rng, csv_text):
    res = report["results"]
    n = op.params["N"]
    problems = []
    if sympy.expand(lift(res["minpoly"]) - sympy.cyclotomic_poly(n, Z)) != 0:
        problems.append("z^m psi_N(z + 1/z) != Phi_N(z)")
    with mp.workdps(30):
        for got, want in zip(res["conjugates"], conjugates(n)):
            if abs(got - want) > CONJUGATE_TOL:
                problems.append(f"conjugate {got!r} misses {mp.nstr(want, 20)} by more than {CONJUGATE_TOL}")
                break
    return problems


def _check_cheb(op, report, rng, csv_text):
    res = report["results"]
    n, coeffs = op.params["n"], res["coeffs"]
    problems = []
    if sympy.expand(lift(coeffs) - Z ** (2 * n) - 1) != 0:
        problems.append("z^n T_n(z + 1/z) != z^(2n) + 1")
    x = Fraction(op.params["at"])
    if Fraction(res["value"]) != sum(c * x**i for i, c in enumerate(coeffs)):
        problems.append(f"T_n({x}) != {res['value']}")
    return problems


def _check_theorem2(op, report, rng, csv_text):
    res = report["results"]
    rows = res["perBeta"]
    problems = []
    if len(rows) != op.params["trials"]:
        problems.append(f"{len(rows)} betas for {op.params['trials']} trials")
    if res["worstExceptionalCount"] != max(r["exceptionalCount"] for r in rows):
        problems.append("worstExceptionalCount is not the maximum over betas")
    for row in _pick(rng, rows):
        label = row["beta"]
        if label.startswith("poly:"):
            oracle = mahler_height([int(c) for c in label[5:].split("@")[0].split(",")])
        else:
            q = Fraction(label)
            oracle = mp.log(max(abs(q.numerator), q.denominator))
        if abs(row["height"] - oracle) > 1e-12:
            problems.append(f"height of {label} {row['height']!r} != {mp.nstr(oracle, 17)}")
    return problems


def _angle_rows(theta, rows):
    problems = []
    for a, n, lhs, rhs, status in rows:
        a, n, lhs, rhs = int(a), int(n), float(lhs), float(rhs)
        gap = abs(mp.mpf(a) / n - theta)
        if gap >= mp.mpf(1) / (n * n):
            problems.append(f"{a}/{n} is not a convergent of the angle")
        if abs(lhs - mp.log(gap)) > 1e-9 * (1 + abs(lhs)):
            problems.append(f"{a}/{n}: lhs {lhs!r} != {mp.nstr(mp.log(gap), 17)}")
        if status != ("holds" if lhs >= rhs else "violated"):
            problems.append(f"{a}/{n}: status {status} for lhs {lhs} rhs {rhs}")
    return problems


def _check_baker(op, report, rng, csv_text):
    res = report["results"]
    a2, b, a0 = op.params["poly"]
    table = list(csv.reader(io.StringIO(csv_text)))
    if table[0] != ["a", "N", "lhs", "rhs", "status"] or len(table) - 1 != res["convergents"]:
        return ["CSV table does not match the report"]
    with mp.workdps(60):
        # a x^2 + b x + a has one conjugate pair with equal real parts, so the
        # float root order that picks the embedding index may put either
        # first: the rows must fit the angle of one of the two
        root = (-b + mp.sqrt(mp.mpf(b * b - 4 * a2 * a0))) / (2 * a2)
        theta = mp.atan2(mp.im(root), mp.re(root)) / (2 * mp.pi)
        tries = [_angle_rows(sign * theta, table[1:]) for sign in (1, -1)]
    return min(tries, key=len)


CHECKS = {
    "scan": _check_scan,
    "sintegral": _check_sintegral,
    "cor33": _check_cor33,
    "canonical-height": _check_canonical_height,
    "height": _check_height,
    "orbit": _check_orbit,
    "cheb": _check_cheb,
    "theorem2": _check_theorem2,
    "equidist": _check_equidist,
    "baker": _check_baker,
}


def check_op(op, exit_code: int, report_text: str, csv_text: str | None, schema_path: str, rng: random.Random) -> list[str]:
    """Problems found in one op's exit code, report and CSV table (where it
    has one). The CLI exits 0 when every check in the report passes and 2
    when one fails; a failed check is a result, not a fault."""
    try:
        report = parse_report(report_text)
    except ValueError as exc:
        return [f"exit code {exit_code}; report is not strict JSON: {exc}"]
    errors = [e.message for e in _validator(schema_path).iter_errors(report)]
    if errors:
        return [f"schema: {m}" for m in errors]
    expected = 0 if all(c["pass"] for c in report["checks"]) else 2
    if exit_code != expected:
        return [f"exit code {exit_code}, expected {expected} from the report's checks"]
    if csv_text is None and any(a.startswith("--csv=") for a in op.argv):
        return ["missing CSV table"]
    return CHECKS[op.kind](op, report, rng, csv_text)
