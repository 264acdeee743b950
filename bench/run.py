"""chebdyn benchmark: seeded CLI workloads run as fresh subprocesses.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0

One closed-loop client runs one op at a time: ``python -m chebdyn.cli`` in
a fresh interpreter with ``PYTHONPATH=src``, so every op pays the cold caches
and startup a user pays. It is sized for a 2-core machine: the waiting
client leaves a core to the op. A run times whole cycles of the workload's op
templates until ``--seconds`` have passed and, untraced, at least MIN_CYCLES
cycles have run (16 ops; with the configured 10 s the op count decides);
then the oracles in oracles.py check every report, each on a
seeded sample of its rows. Nothing else runs while an op is timed.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs each op
twice, plain and under tracing.py, and prints the per-layer metrics,
including the tracing overhead measured on the same ops.

Every run writes bench/out/result-<workload>-seed<N>-trace<T>.json with each
op's argv, exit code, wall time, peak RSS and report sha256, the package
versions and nproc, so a later change can show that report bytes did not
change. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from oracles import check_op  # noqa: E402
from workloads import CYCLES, MIN_CYCLES, WORKLOADS, generate  # noqa: E402

#: per-op deadline; an op still running then is killed and counts as failed
DEADLINE_S = 60.0
#: fresh-interpreter imports timed for setup_s, spread over the run
SETUP_SAMPLES = 3
#: ops between setup samples; every untraced run has at least 16 ops
SETUP_EVERY = 6


@dataclass
class Proc:
    """One finished subprocess."""

    exit_code: int
    wall_s: float
    rss_mb: float
    timed_out: bool


def run_process(cmd: list[str], env: dict, cwd: Path, deadline: float, out_path: Path, err_path: Path) -> Proc:
    """Run cmd to completion or to the deadline, whichever comes first.

    The child leads its own process group, which a deadline kill takes down
    whole. It is waited for without being reaped first, so the kill can never
    hit a recycled pid; then wait4 reaps it and reads its peak RSS.
    """
    lock = threading.Lock()
    state = {"done": False, "killed": False}
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=out, stderr=err, start_new_session=True)

        def kill():
            with lock:
                if not state["done"]:
                    os.killpg(proc.pid, signal.SIGKILL)
                    state["killed"] = True

        timer = threading.Timer(deadline, kill)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
            with lock:
                state["done"] = True
        finally:
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0, state["killed"])


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """(value, percentile) at the highest nearest-rank percentile that has at
    least ten samples beyond it, or None with fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    rank = n - 10
    return sorted(samples)[rank - 1], 100.0 * rank / n


def op_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # a user setting that changes results and timings; pinned to its default
    env.pop("CHEB_PRECISION_BITS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def setup_sample(root: Path, env: dict, out_dir: Path, i: int) -> float:
    """Wall time of a fresh interpreter importing chebdyn.cli from src/."""
    cmd = [sys.executable, "-c", "import chebdyn.cli; print(chebdyn.cli.__file__)"]
    out, err = out_dir / f"setup{i}.out", out_dir / f"setup{i}.err"
    proc = run_process(cmd, env, root, DEADLINE_S, out, err)
    where = Path(out.read_text().strip())
    if proc.exit_code != 0 or root / "src" not in where.parents:
        raise RuntimeError(f"chebdyn.cli did not import from {root / 'src'}: {err.read_text()[-500:]}")
    return proc.wall_s


class Runner:
    """Closed-loop run of one workload."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float, trace: bool):
        self.root, self.workload, self.seed = root, workload, seed
        self.seconds, self.trace = seconds, trace
        self.env = op_env(root)
        self.out_dir = BENCH / "out" / workload
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        self.schema = str(root / "src" / "chebdyn" / "schema.json")

    def cli(self, op) -> list[str]:
        return [sys.executable, "-m", "chebdyn.cli", *op.argv]

    def traced_cli(self, op, i: int) -> list[str]:
        spans = self.out_dir / f"op{i}.spans.json"
        return [sys.executable, "-X", "importtime", str(BENCH / "tracing.py"), str(spans), str(i), *op.argv]

    def run(self) -> dict:
        ops = generate(self.workload, self.seed)
        records, setup = [], []
        traced_wall = plain_wall = paused = 0.0
        t0 = time.perf_counter()
        # whole cycles only, so that every run times the same op mix, and
        # (untraced) a steady number of them
        cycle = len(CYCLES[self.workload])
        min_ops = cycle * (1 if self.trace else MIN_CYCLES[self.workload])
        while time.perf_counter() - t0 - paused < self.seconds or len(records) % cycle or len(records) < min_ops:
            i = len(records)
            if i % SETUP_EVERY == 0 and len(setup) < (1 if self.trace else SETUP_SAMPLES):
                # setup samples spread over the run, outside the timed window;
                # a traced run takes only the first, which checks the import
                t = time.perf_counter()
                setup.append(setup_sample(self.root, self.env, self.out_dir, len(setup)))
                paused += time.perf_counter() - t
            op = next(ops)
            out, err = self.out_dir / f"op{i}.out", self.out_dir / f"op{i}.err"
            proc = run_process(self.cli(op), self.env, self.root, DEADLINE_S, out, err)
            rec = {"op": op, "proc": proc, "out": out.read_bytes(), "csv": self._csv(op)}
            if self.trace:
                tout, terr = self.out_dir / f"op{i}.traced.out", self.out_dir / f"op{i}.traced.err"
                tproc = run_process(self.traced_cli(op, i), self.env, self.root, DEADLINE_S, tout, terr)
                rec["traced"] = {"proc": tproc, "out": tout.read_bytes(), "err": terr.read_text()}
                traced_wall += tproc.wall_s
                plain_wall += proc.wall_s
            records.append(rec)
        wall = time.perf_counter() - t0 - paused
        t = time.perf_counter()
        self._judge(records)
        oracle_s = time.perf_counter() - t
        result = {
            "workload": self.workload,
            "seed": self.seed,
            "trace": int(self.trace),
            "seconds": self.seconds,
            "deadlineS": DEADLINE_S,
            "setupSamplesS": setup,
            "wallS": wall,
            "oracleS": oracle_s,
            "nproc": os.cpu_count(),
            "versions": versions(),
        }
        if self.trace:
            result["metrics"] = self._layer_metrics(records, traced_wall, plain_wall)
        else:
            result["metrics"], result["tailPercentile"] = end_to_end(records, setup, wall)
        result["ops"] = [self._op_entry(i, rec) for i, rec in enumerate(records)]
        return result

    def _csv(self, op):
        path = next((a.split("=", 1)[1] for a in op.argv if a.startswith("--csv=")), None)
        if path is None:
            return None
        full = self.root / path
        return full.read_text() if full.exists() else ""

    def _judge(self, records):
        rng = random.Random(f"oracle/{self.workload}/{self.seed}")
        for rec in records:
            rec["problems"] = judge(rec, self.schema, rng)

    def _op_entry(self, i, rec):
        proc = rec["proc"]
        entry = {
            "id": i,
            "kind": rec["op"].kind,
            "argv": list(rec["op"].argv),
            "orbits": rec["op"].orbits,
            "exitCode": proc.exit_code,
            "timedOut": proc.timed_out,
            "wallS": proc.wall_s,
            "rssMb": proc.rss_mb,
            "reportSha256": hashlib.sha256(rec["out"]).hexdigest(),
            "problems": rec["problems"],
        }
        if rec["csv"] is not None:
            entry["csvSha256"] = hashlib.sha256(rec["csv"].encode()).hexdigest()
        if "traced" in rec:
            entry["tracedWallS"] = rec["traced"]["proc"].wall_s
            entry["selfS"] = rec.get("selfS")
        return entry

    def _layer_metrics(self, records, traced_wall, plain_wall):
        docs, imports = [], []
        for i, rec in enumerate(records):
            spans = self.out_dir / f"op{i}.spans.json"
            if spans.exists():
                docs.append(json.loads(spans.read_text()))
                rec["selfS"] = tracing.module_self_times(docs[-1]["spans"])
            imports.append(tracing.import_times(rec["traced"]["err"]))
        return tracing.rollup(docs, imports, traced_wall, plain_wall)


def judge(rec: dict, schema: str, rng: random.Random) -> list[str]:
    """Problems with one op: a deadline kill, an exit code its report does
    not explain, a report the oracles reject, or (traced) an exit code or
    report bytes that tracing changed.
    An op with no problems is decided."""
    proc = rec["proc"]
    if proc.timed_out:
        return [f"killed at the {DEADLINE_S:g} s deadline"]
    problems = check_op(rec["op"], proc.exit_code, rec["out"].decode(errors="replace"), rec["csv"], schema, rng)
    traced = rec.get("traced")
    if traced and (traced["proc"].exit_code != proc.exit_code or traced["out"] != rec["out"]):
        problems.append("traced run changed the exit code or the report bytes")
    return problems


def end_to_end(records, setup, wall):
    """End-to-end metrics {name: (value, unit)} and the tail percentile used."""
    decided = [rec for rec in records if not rec["problems"]]
    # a killed op misses every latency limit: it sorts above every finished
    # op, and a percentile that lands on one reads the time it was killed at
    killed_at = max((rec["proc"].wall_s for rec in records if rec["proc"].timed_out), default=0.0)
    latencies = [math.inf if rec["proc"].timed_out else rec["proc"].wall_s for rec in records]
    tail = tail_percentile(latencies)

    def read(latency):
        return killed_at if latency == math.inf else latency

    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(decided) / wall, "1/s"),
        "orbits_per_s": (sum(rec["op"].orbits for rec in decided) / wall, "1/s"),
        "op_latency_p50_s": (read(statistics.median(latencies)), "s"),
        "op_latency_tail_s": (read(tail[0]), "s"),
        "decided_frac": (len(decided) / len(records), "ratio"),
        "peak_rss_mb": (max(rec["proc"].rss_mb for rec in records), "MB"),
    }
    return metrics, tail[1]


def versions() -> dict:
    out = {"python": sys.version.split()[0]}
    for pkg in ("numpy", "mpmath", "sympy"):
        try:
            out[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            out[pkg] = None
    return out


def print_table(result):
    n = len(result["ops"])
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} ops={n} "
          f"wall={result['wallS']:.2f}s deadline={result['deadlineS']:g}s")
    notes = {
        "setup_s": f"median of {len(result['setupSamplesS'])} fresh imports",
        "op_latency_p50_s": f"median of {n} ops",
        "op_latency_tail_s": f"p{result.get('tailPercentile', 0):.1f} of {n} ops (10 beyond)",
    }
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:48s} {value:14.6g} {unit:6s} {notes.get(name, '')}")
    for entry in result["ops"]:
        if entry["problems"]:
            print(f"FAILED op {entry['id']} {' '.join(entry['argv'])}: {'; '.join(entry['problems'])}")


def summary(results) -> dict:
    attempted = sum(len(r["ops"]) for r in results)
    failed = sum(1 for r in results for e in r["ops"] if e["problems"])
    prefix = len(results) > 1
    metrics = {}
    for r in results:
        for name, (value, unit) in r["metrics"].items():
            metrics[f"{r['workload']}.{name}" if prefix else name] = {"value": value, "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="chebdyn benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "chebdyn" / "cli.py").is_file():
        print(f"no chebdyn sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    results = []
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result = Runner(root, workload, args.seed, args.seconds, bool(args.trace)).run()
        name = f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
        (BENCH / "out" / name).write_text(json.dumps(result, indent=1) + "\n")
        print_table(result)
        results.append(result)
    print(json.dumps(summary(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
