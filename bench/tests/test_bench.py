"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Op, generate  # noqa: E402

SCHEMA = str(ROOT / "src" / "chebdyn" / "schema.json")


def first_ops(workload, seed, k=12):
    ops = generate(workload, seed)
    return [next(ops) for _ in range(k)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_a_function_of_the_seed(workload):
    same = first_ops(workload, 7)
    assert [op.argv for op in same] == [op.argv for op in first_ops(workload, 7)]
    assert [op.argv for op in same] != [op.argv for op in first_ops(workload, 8)]
    for op in same:
        assert not any(a == "--beta" for a in op.argv)  # always --beta=VALUE


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 10) is None
    samples = [float(i) for i in range(1, 21)]
    random.Random(0).shuffle(samples)
    value, pct = run.tail_percentile(samples)
    assert (value, pct) == (10.0, 50.0)
    assert sum(s > value for s in samples) == 10
    value, pct = run.tail_percentile([float(i) for i in range(11)])
    assert value == 0.0 and pct == pytest.approx(100 / 11)


def cli_report(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "chebdyn.cli", *argv], env=env, cwd=ROOT, capture_output=True, text=True, check=True
    )
    return proc.stdout


def test_oracle_accepts_the_real_report_and_rejects_a_tampered_one():
    op = Op("sintegral", ("sintegral", "--beta=3", "--N=5", "--S=inf,2"), 1, {"beta": "3", "N": 5, "S": [2]})
    text = cli_report(*op.argv)
    assert oracles.check_op(op, 0, text, None, SCHEMA, random.Random(0)) == []
    report = json.loads(text)
    assert report["results"]["meetingPrimes"] == {"11": 1}  # psi_5(3) = 11
    report["results"]["meetingPrimes"] = {"11": 2}
    assert oracles.check_op(op, 0, json.dumps(report), None, SCHEMA, random.Random(0))
    report["results"]["meetingPrimes"] = {"11": 1}
    report["results"]["isSIntegral"] = True
    assert oracles.check_op(op, 0, json.dumps(report), None, SCHEMA, random.Random(0))
    assert oracles.check_op(op, 0, text.replace('"witness": 11', '"witness": NaN'), None, SCHEMA, random.Random(0))
    assert oracles.check_op(op, 2, text, None, SCHEMA, random.Random(0))  # all checks pass: exit 0
    del report["checks"]
    assert oracles.check_op(op, 0, json.dumps(report), None, SCHEMA, random.Random(0))


def test_deadline_kill_counts_as_a_failure(tmp_path):
    op = Op("orbit", ("orbit", "--N=7"), 1, {"N": 7})
    proc = run.run_process(
        [sys.executable, "-c", "import time; time.sleep(30)"], dict(os.environ), tmp_path, 0.5,
        tmp_path / "out", tmp_path / "err",
    )
    assert proc.timed_out and 0.5 <= proc.wall_s < 10
    killed = {"op": op, "proc": proc, "out": b"", "csv": None}
    killed["problems"] = run.judge(killed, SCHEMA, random.Random(0))
    assert killed["problems"]
    ok = run.Proc(0, 1.0, 60.0, False)
    fine = {"op": op, "proc": ok, "out": b"", "csv": None, "problems": []}
    records = [fine] * 11 + [killed]
    metrics, _ = run.end_to_end(records, [1.0], 12.0)
    assert metrics["decided_frac"][0] == pytest.approx(11 / 12)
    assert metrics["ops_per_s"][0] == pytest.approx(11 / 12.0)
    assert metrics["op_latency_tail_s"][0] == 1.0
    metrics, _ = run.end_to_end([fine] + [killed] * 11, [1.0], 12.0)
    assert metrics["op_latency_p50_s"][0] == metrics["op_latency_tail_s"][0] == proc.wall_s
    assert run.summary([{"workload": "queries", "ops": [{"problems": r["problems"]} for r in records],
                         "metrics": metrics}])["failed"] == 1


def test_self_time_subtracts_child_spans():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    times = tracing.self_times(spans)
    assert times["a"] == [1, pytest.approx(6.0)]
    assert times["b"] == [2, pytest.approx(3.0)]
    assert times["c"] == [1, pytest.approx(1.0)]


def test_import_times_read_the_first_import_of_each_package():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |       2000 |     mpmath",
        "import time:       200 |       5000 |   sympy",
        "import time:       300 |       9000 | chebdyn",
        "import time:        10 |         10 | chebdyn",
    ])
    assert tracing.import_times(text) == {"mpmath": 0.002, "sympy": 0.005, "chebdyn": 0.009}


def test_metrics_match_benchmark_json():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = {
        "op": 0,
        "spans": [["cli.main", 0.0, 3.0, -1], ["chebyshev.orbit_value", 1.0, 2.0, 0]],
        "errors": dict.fromkeys(tracing.MODULES, 0),
        "maxBits": {"chebyshev.orbit_value": 70, "intpoly.resultant": 0, "factorint.factorize": 12},
        "counts": {"numerics.precision_ladder.steps": 3, "reports.write_json.bytes": 100},
        "caches": {"chebyshev.preperiodic_orbit": {"hits": 1, "misses": 3, "entries": 3},
                   "factorint.euler_phi": {"hits": 0, "misses": 0, "entries": 0}},
        "expansions": 4,
        "usefulExpansions": 1,
    }
    layers = tracing.rollup([doc], [{"sympy": 0.5}], 2.2, 2.0)
    assert list(layers) == [m["name"] for m in config["per_layer"]]
    assert [u for _, u in layers.values()] == [m["unit"] for m in config["per_layer"]]
    assert layers["cli.self_s"][0] == pytest.approx(2.0)
    assert layers["chebyshev.orbit_value.calls"][0] == 1
    assert layers["chebyshev.preperiodic_orbit.hit_ratio"][0] == 0.25
    assert layers["chebyshev.halved_minpoly.useful_ratio"][0] == 0.25
    assert layers["trace.overhead_frac"][0] == pytest.approx(0.1)
    ok = {"op": Op("orbit", (), 1), "proc": run.Proc(0, 1.0, 60.0, False), "problems": []}
    metrics, _ = run.end_to_end([ok] * 11, [1.0], 11.0)
    assert [(n, u) for n, (_, u) in metrics.items()] == [(m["name"], m["unit"]) for m in config["end_to_end"]]
