import ast
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from chebdyn.cli import main, parse_beta, parse_places, UsageError
from chebdyn.reports import load_schema, report_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_orbit_example(capsys):
    code, rep = run_cli(capsys, "orbit", "--N", "7")
    assert code == 0
    assert rep["results"]["minpoly"] == [-1, -2, 1, 1]
    assert rep["results"]["size"] == 3
    jsonschema.validate(rep, load_schema())


def test_sintegral_example(capsys):
    code, rep = run_cli(capsys, "sintegral", "--beta", "3", "--N", "5", "--S", "inf,11")
    assert code == 0
    assert rep["results"]["isSIntegral"] is True
    assert rep["results"]["meetingPrimes"] == {"11": 1}
    jsonschema.validate(rep, load_schema())


def test_scan_small_window(capsys):
    code, rep = run_cli(
        capsys, "scan", "--beta", "3", "--S", "inf,2,3,5,11", "--Nmax", "12"
    )
    assert code == 0
    orders = [row["N"] for row in rep["results"]["sIntegralOrbits"]]
    for n in (1, 2, 3, 4, 5, 6, 12):
        assert n in orders
    assert 7 not in orders and 8 not in orders  # psi values 29 and 7
    # the golden-ratio orbit meets beta = 3 at the single prime 5 in S:
    # psi_10(3) = 9 - 3 - 1 = 5, so N = 10 belongs in the list
    assert 10 in orders
    assert orders == [1, 2, 3, 4, 5, 6, 10, 12]
    jsonschema.validate(rep, load_schema())


def test_cheb_and_height(capsys):
    code, rep = run_cli(capsys, "cheb", "--n", "6", "--at", "5")
    assert code == 0 and rep["results"]["value"] == "12098"
    code, rep = run_cli(capsys, "height", "--beta", "poly:5,-6,5@0")
    assert code == 0
    assert abs(rep["results"]["height"] - 0.8047189562170501) < 1e-9


def test_canonical_height_reports_gap(capsys):
    code, rep = run_cli(capsys, "canonical-height", "--beta", "3", "--d", "2")
    assert code == 0
    res = rep["results"]
    assert abs(res["canonicalHeight"] - 0.9624236501192069) < 1e-9
    assert abs(res["weilHeight"] - 1.0986122886681098) < 1e-12
    assert abs(res["heightGap"] - (res["weilHeight"] - res["canonicalHeight"])) < 1e-15


def test_equidist_csv_and_slope(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    out_path = tmp_path / "rep.json"
    code = main(
        [
            "equidist",
            "--beta",
            "3",
            "--Nmax",
            "400",
            "--Nmin",
            "100",
            "--primes-only",
            "--slope-bound",
            "-0.4",
            "--csv",
            str(csv_path),
            "--output",
            str(out_path),
        ]
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "N,orbit_size,discrepancy"
    assert len(lines) > 30
    rep = json.loads(out_path.read_text())
    assert rep["results"]["fittedSlope"] <= -0.4
    jsonschema.validate(rep, load_schema())


#: 10^400 + 7 over 3: past float range
HUGE_BETA = f"{10**400 + 7}/3"


def _no_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_equidist_takes_a_beta_past_float_range(tmp_path, capsys):
    code = main(["equidist", f"--beta={HUGE_BETA}", "--Nmax", "30", "--csv", str(tmp_path / "rows.csv")])
    assert code == 0
    rep = json.loads(capsys.readouterr().out, parse_constant=_no_constant)  # strict JSON
    jsonschema.validate(rep, load_schema())
    res = rep["results"]
    assert res["rows"] == 30 and len((tmp_path / "rows.csv").read_text().splitlines()) == 31
    # h = log 3 + log|beta| to within 4 / beta^2, and lambda = kappa + log1p(w^-2)
    assert abs(res["canonicalHeight"] - 400 * math.log(10)) <= 1e-12 * res["canonicalHeight"]
    assert abs(res["lambdaIntegral"] - res["logPlusIntegral"]) <= 1e-12


def test_cor33_exit_and_payload(capsys):
    code, rep = run_cli(capsys, "cor33", "--beta", "3", "--p", "11", "--Nmax", "60")
    assert code == 0
    assert rep["results"]["flagged"] == [{"N": 5, "maxValuation": "1"}]


def test_baker_subcommand(tmp_path):
    out_path = tmp_path / "baker.json"
    csv_path = tmp_path / "baker.csv"
    code = main(
        [
            "baker",
            "--beta",
            "poly:5,-6,5@1",
            "--eps",
            "0.1",
            "--Nmax",
            "2000",
            "--output",
            str(out_path),
            "--csv",
            str(csv_path),
        ]
    )
    assert code == 0
    rep = json.loads(out_path.read_text())
    assert rep["results"]["convergents"] >= 5
    assert csv_path.read_text().splitlines()[0] == "a,N,lhs,rhs,status"
    jsonschema.validate(rep, load_schema())


def test_theorem2_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["theorem2", "--S", "inf,2,3", "--trials", "6", "--Nmax", "120", "--seed", "9"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rep = json.loads(a.read_text())
    assert rep["results"]["worstExceptionalCount"] <= 2
    jsonschema.validate(rep, load_schema())


def test_exit_code_on_check_failure(capsys):
    # impossible slope bound: the check fails and the exit code says so
    code = main(
        ["equidist", "--beta", "3", "--Nmax", "300", "--Nmin", "100",
         "--primes-only", "--slope-bound", "-50"]
    )
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["sintegral", "--beta", "x!", "--N", "5", "--S", "inf"],
        ["sintegral", "--beta", "3", "--N", "5", "--S", "2,3"],  # missing inf
        ["sintegral", "--beta", "3", "--N", "5", "--S", "inf,4"],  # non-prime
        ["scan", "--beta", "2", "--S", "inf", "--Nmax", "5"],  # preperiodic beta
        ["height", "--beta", "1/0"],
        ["nonsense"],
        # non-finite float flags would print Infinity or NaN into the report
        ["cor33", "--beta=3", "--p=11", "--Nmax=10", "--eps=inf"],
        ["scan", "--beta=3", "--S=inf,2", "--Nmax=10", "--size-constant=inf"],
        ["equidist", "--beta=3", "--Nmax=10", "--slope-bound=nan"],
        ["cor33", "--beta=3", "--p=11", "--Nmax=10", "--eps=5e-324"],  # p log p / eps = inf
        ["cor33", "--beta=3", "--p=11", "--Nmax=10", "--eps=0"],
    ],
)
def test_usage_errors_exit_one(argv, capsys):
    assert main(argv) == 1
    capsys.readouterr()


@pytest.mark.parametrize("place", ["x", "4", "3,5"])
def test_equidist_bad_place_is_a_usage_error(place, capsys):
    assert main(["equidist", "--beta=3", f"--place={place}", "--Nmax=10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")
    assert "Traceback" not in captured.err


#: (10^20 x - 10^25 + 7)((10^20 + 1) x - 10^25 - 3)(x^2 + 1) + 1: two roots
#: about 1e-25 apart, irreducible mod 13
CLOSE_ROOTS = (
    "poly:99999999999999999999999959999999999999999999999980,"
    "-2000000000000000000009999599999999999999999993,"
    "100000000009999999999999960000099999999999999999979,"
    "-2000000000000000000009999599999999999999999993,"
    "10000000000000000000100000000000000000000"
)


def test_precision_error_exits_three(capsys, monkeypatch):
    # at a 128-bit ceiling the Mahler measure cannot certify the two close
    # roots, which is not a usage error
    monkeypatch.setenv("CHEB_PRECISION_BITS", "128")
    assert main(["height", f"--beta={CLOSE_ROOTS}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("precision error: ")


def test_close_roots_scan_needs_no_roots(capsys):
    # irreducibility is decided mod 13, and a scan reads no embedding
    assert main(["scan", f"--beta={CLOSE_ROOTS}", "--S=inf,2,3", "--Nmax=60"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["beta"] == CLOSE_ROOTS + "@0"


def test_report_to_json_rejects_non_finite():
    with pytest.raises(ValueError):
        report_to_json({"results": {"eps": float("inf")}})


def test_beta_grammar():
    from fractions import Fraction

    assert parse_beta("3/4") == Fraction(3, 4)
    assert parse_beta("-7") == Fraction(-7)
    alg = parse_beta("poly:5,-6,5@1")
    assert alg.degree == 2 and alg.index == 1
    with pytest.raises(UsageError):
        parse_beta("poly:1,2,@")
    with pytest.raises(UsageError):
        parse_beta("poly:4,4,1")  # (x+2)^2 reducible
    with pytest.raises(UsageError):
        parse_places("inf,9")


# Runs main() on each argv in a fresh interpreter, optionally with one module
# made unimportable, and prints [module loaded after import, [[exit, stdout],
# ...], module loaded at the end] as JSON.
_FRESH_RUN = """
import contextlib, io, json, sys
module = sys.argv[2]
if sys.argv[1] == "block":
    sys.modules[module] = None
import chebdyn.cli
loaded = lambda: sys.modules.get(module) is not None
after_import = loaded()
runs = []
for argv in json.loads(sys.argv[3]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append([chebdyn.cli.main(argv), out.getvalue()])
print(json.dumps([after_import, runs, loaded()]))
"""


def _run_script(script, *args, cwd=None):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout)


def _fresh_run(mode, argvs, module="sympy", cwd=None):
    return _run_script(_FRESH_RUN, mode, module, json.dumps(argvs), cwd=cwd)


def test_sympy_stays_off_rational_and_quadratic_paths():
    # the name predates the cubic and quartic cases: no CLI path loads sympy
    argvs = [
        ["orbit", "--N", "7"],
        ["scan", "--beta", "3", "--S", "inf,2,3,5,11", "--Nmax", "12"],
        ["sintegral", "--beta", "3", "--N", "5", "--S", "inf,11"],
        ["baker", "--beta", "poly:5,-6,5@1", "--eps", "0.1", "--Nmax", "200"],
        ["height", "--beta", "poly:5,-6,5@1"],
        ["theorem2", "--S", "inf,2,3", "--trials", "4", "--Nmax", "60", "--seed", "3", "--Dcap", "2"],
        ["height", "--beta", "poly:-3,1,2,5@1"],
        ["scan", "--beta", "poly:-3,1,2,5@1", "--S", "inf,2,5", "--Nmax", "60"],
        ["height", "--beta", "poly:2,-1,0,3,2@2"],
        ["scan", "--beta", "poly:2,-1,0,3,2@2", "--S", "inf,2,3", "--Nmax", "50"],
    ]
    _, blocked, _ = _fresh_run("block", argvs)
    plain_import, plain, plain_end = _fresh_run("plain", argvs)
    assert not plain_import and not plain_end  # no op above loaded sympy
    assert [code for code, _ in plain] == [0] * len(argvs)
    assert blocked == plain  # same exit codes and report bytes
    assert 2 in {b["degree"] for b in json.loads(plain[5][1])["results"]["perBeta"]}
    assert [json.loads(plain[i][1])["results"]["degree"] for i in (6, 8)] == [3, 4]
    assert all(json.loads(plain[i][1])["results"]["sIntegralOrbits"] for i in (7, 9))


# Runs main() on one argv in a fresh interpreter and prints [heavy modules
# loaded after import chebdyn.cli, exit code, heavy modules loaded at the end].
_HEAVY_RUN = """
import contextlib, io, json, sys
loaded = lambda: sorted(m for m in ("numpy", "mpmath", "sympy", "dataclasses", "inspect") if m in sys.modules)
import chebdyn.cli
after_import = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = chebdyn.cli.main(json.loads(sys.argv[1]))
print(json.dumps([after_import, code, loaded()]))
"""


def _heavy_modules(argv):
    return _run_script(_HEAVY_RUN, json.dumps(argv))


def test_numpy_and_mpmath_load_only_in_the_ops_that_read_them():
    # the records are built without dataclasses, so no exact op loads it or
    # inspect; the ops that need mpmath assert less
    exact = [
        ["scan", "--beta", "3", "--S", "inf,2,3,5,11", "--Nmax", "12"],
        ["theorem2", "--S", "inf,2,3", "--trials", "4", "--Nmax", "60", "--seed", "3", "--Dcap", "1"],
        ["cheb", "--n", "5", "--at", "3/7"],
        ["height", "--beta", "7/3"],
        ["canonical-height", "--beta", "7/3"],
        # g is read from the integers, however close to 2 or large beta is
        ["canonical-height", "--beta=2000000000000001/1000000000000000"],
        ["equidist", f"--beta={HUGE_BETA}", "--Nmax", "5"],
        # psi_N's residual and its identity mod p are checked in Python
        # floats and integers
        ["orbit", "--N", "7"],
        ["orbit", "--N=132"],
        # Phi_N is a plain-integer power series, so no pairing reads numpy
        ["sintegral", "--beta", "3", "--N", "5", "--S", "inf,11"],
        ["cor33", "--beta", "3", "--p", "11", "--Nmax", "100"],
        # irreducibility is decided mod p and no scan reads the embedding, so
        # an algebraic scan finds no roots and builds no psi_N
        ["scan", "--beta", "poly:-3,1,2,5@1", "--S", "inf,2,5", "--Nmax", "60"],
        ["scan", "--beta", "poly:-1,1,3@1", "--S", "inf,2,3", "--Nmax", "60"],
        # finite-place rows come from the exact sieve and the slope is an
        # integer least-squares fit
        ["equidist", "--beta", "7/3", "--place", "3", "--Nmax", "50"],
        # real-place rows read each h(alpha_N) from a Moebius sum of closed
        # forms and kappa is a constant, so no conjugate pass or quadrature
        ["equidist", "--beta", "7/3", "--place", "inf", "--Nmax", "50"],
        # a quadratic's roots come from isqrt, and baker's angle from a
        # fixed-point Newton step, arctangent and pi, its gaps from integers
        # and its nearest conjugates from libm
        ["baker", "--beta", "poly:5,-6,5@1", "--eps", "0.1", "--Nmax", "200"],
        ["baker", "--beta", "poly:7,3,7@0", "--eps", "0.1", "--Nmax", "200", "--prox-Nmax", "60"],
        ["baker", "--beta=poly:5,7,5@0", "--eps=0.1", "--prox-Nmax=400"],
        ["height", "--beta=poly:4,3,5@0"],
        # the Mahler measure of each sampled quadratic reads the same roots
        ["theorem2", "--S=inf,2,7", "--Dcap=2", "--trials=6", "--Nmax=300", "--seed=221047"],
    ]
    for argv in exact:
        assert _heavy_modules(argv) == [[], 0, []], argv
    # roots of degree >= 3 still come from mpmath: a quartic height, and the
    # angle of a Salem conjugate on the unit circle
    for argv in (
        ["height", "--beta=poly:1,-1,-1,-1,1@1"],
        ["baker", "--beta=poly:1,-1,-1,-1,1@1", "--eps=0.1", "--Nmax=200"],
    ):
        after_import, code, loaded = _heavy_modules(argv)
        assert after_import == [] and code == 0, argv
        assert "mpmath" in loaded and "numpy" not in loaded and "sympy" not in loaded, argv


def _readme_examples():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    argvs = [shlex.split(line) for line in block.strip().splitlines()]
    assert argvs and all(argv[0] == "chebdyn" for argv in argvs)
    return [argv[1:] for argv in argvs]


def test_every_subcommand_runs_with_numpy_blocked(tmp_path):
    # one argv per subcommand, then the README examples, with numpy made
    # unimportable and without: the same exit codes and report bytes
    argvs = [
        ["orbit", "--N=132"],
        ["cheb", "--n", "6", "--at", "3/7"],
        ["height", "--beta=poly:1,-1,-1,-1,1@1"],
        ["canonical-height", "--beta", "poly:5,-6,5@1"],
        ["sintegral", "--beta", "poly:-1,1,3@1", "--N", "12", "--S", "inf,2,3"],
        ["scan", "--beta", "7/3", "--S", "inf,3", "--Nmax", "40"],
        ["equidist", "--beta=-11/7", "--place", "3", "--Nmax", "60"],
        ["baker", "--beta=poly:1,-1,-1,-1,1@1", "--eps=0.1", "--Nmax=200"],
        ["cor33", "--beta", "5/2", "--p", "3", "--Nmax", "60"],
        ["theorem2", "--S", "inf,2,3", "--trials", "3", "--Nmax", "40", "--seed", "5"],
        *_readme_examples(),
    ]
    commands = {"orbit", "cheb", "height", "canonical-height", "sintegral", "scan", "equidist", "baker", "cor33", "theorem2"}
    assert {argv[0] for argv in argvs} == commands
    (tmp_path / "blocked").mkdir()
    (tmp_path / "plain").mkdir()
    _, blocked, _ = _fresh_run("block", argvs, "numpy", cwd=tmp_path / "blocked")
    plain_import, plain, plain_end = _fresh_run("plain", argvs, "numpy", cwd=tmp_path / "plain")
    assert not plain_import and not plain_end  # no op above loaded numpy
    assert [code for code, _ in plain] == [0] * len(argvs)
    assert blocked == plain


def test_no_module_imports_numpy_mpmath_or_sympy_at_load():
    # dataclasses writes every method it adds with exec, and loads inspect
    heavy = {"numpy", "mpmath", "sympy", "dataclasses"}
    src = Path(__file__).resolve().parents[1] / "src" / "chebdyn"
    found = []
    for path in sorted(src.glob("*.py")):
        stack = list(ast.parse(path.read_text()).body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue  # runs only when called
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                names = []
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] in heavy]
            stack.extend(ast.iter_child_nodes(node))
    assert not found


def test_cubic_irreducibility_runs_without_sympy():
    # x^3 - 2 is irreducible; x^3 - 1 = (x - 1)(x^2 + x + 1) is rejected
    argvs = [["height", "--beta", "poly:-2,0,0,1"], ["height", "--beta", "poly:-1,0,0,1"]]
    _, [[code, out], [bad_code, bad_out]], sympy_loaded = _fresh_run("block", argvs)
    assert code == 0 and json.loads(out)["results"]["degree"] == 3
    assert bad_code == 1 and not bad_out  # a usage error, with no report
    assert not sympy_loaded


@pytest.mark.parametrize(
    "caps, message",
    [
        (["--Dcap", "1", "--height-cap", "0.5"], "the least is 0.693147"),
        (["--Dcap", "2", "--height-cap", "-0.5"], "the least is 0"),
        (["--height-cap", "1000"], "overflows"),
        (["--Dcap", "0"], "degree cap"),
    ],
)
def test_theorem2_rejects_caps_with_nothing_to_sample(caps, message):
    # no wandering rational has height below log 2 and no point below 0, so
    # the draw would never end; e^1000 overflows a double; no beta has
    # degree 0. A subprocess with a timeout, so a draw that never ends fails.
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "chebdyn.cli", "theorem2", "--S", "inf,2", "--Nmax", "20", "--trials", "2", *caps],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage error:") and message in proc.stderr, proc.stderr


def test_bench_tracer_resolves_traced_names(tmp_path):
    # the tracer wraps functions by name and rebinds module globals, so it
    # runs in its own interpreter; a renamed traced function breaks it here.
    # A cubic beta's single-N pairing must not expand psi_N.
    root = Path(__file__).resolve().parents[1]
    spans = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    for beta in ("97/89", "poly:-3,1,2,5"):
        argv = ["sintegral", f"--beta={beta}", "--N=30", "--S=inf,5"]
        proc = subprocess.run(
            [sys.executable, str(root / "bench" / "tracing.py"), str(spans), "0", *argv],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        names = {span[0] for span in json.loads(spans.read_text())["spans"]}
        assert "integrality.pairing_value" in names
        assert "chebyshev.halved_minpoly" not in names
