"""Per-layer tracing of one CLI op, from outside the program.

Run as a script, it stands in for ``python -m chebdyn.cli``:

    python -X importtime bench/tracing.py SPANS_JSON OP_ID CLI_ARG...

It imports ``chebdyn.cli``, wraps the public functions listed below and
rebinds every name that refers to them in every chebdyn module namespace
(the modules import each other's names directly), runs the CLI, and at exit
writes the recorded spans and counters to SPANS_JSON. The report it prints
is the untraced program's report, byte for byte.

A span is (name, start, end, parent); all spans of one op share its op id.
``rollup`` turns the span files of a run into the per-layer metrics: a
span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

MODULES = (
    "cli", "chebyshev", "intpoly", "factorint", "integrality", "algebraic", "roots",
    "heights", "equidist", "baker", "cfrac", "numerics", "reports",
)

#: functions whose call count and self time are reported
TIMED = {
    "chebyshev": ("orbit_value", "symmetric_coeffs", "orbit_norm_quadratic", "halved_minpoly", "preperiodic_orbit"),
    "intpoly": ("resultant", "IntPoly.shifted_scaled_arg"),
    "factorint": ("factorize", "strip_primes", "is_prime"),
    "integrality": ("pairing_value", "is_s_integral", "newton_polygon_valuations", "arch_proximity"),
    "algebraic": ("algebraic_number",),
    "roots": ("complex_roots",),
    "heights": ("canonical_height", "weil_height_algebraic"),
    "equidist": ("conjugates_fast", "discrepancy"),
    "baker": ("certified_angle",),
    "cfrac": ("cf_convergents",),
}
#: functions whose self time alone is reported
SELF_ONLY = {
    "integrality": ("near_orbit_scan",),
    "equidist": ("arch_discrepancy_fast",),
    "baker": ("convergent_scan", "proximity_bound_check"),
    "numerics": ("cos_two_pi",),
    "reports": ("write_json", "write_csv"),
}
#: functions that read a psi_N to verify it; an expansion they touch is useful
MINPOLY_CHECKS = {
    "chebyshev": (
        "minpoly_conjugate_residuals", "minpoly_spot_checks", "minpoly_identity_mod",
        "minpoly_identity_exact", "preperiodic_order_of_minpoly",
    ),
    "cli": ("cmd_orbit",),
}
IMPORTS = ("sympy", "numpy", "mpmath", "chebdyn")
#: functions whose largest integer (result, or argument of factorize) is kept
MAX_BITS = ("chebyshev.orbit_value", "intpoly.resultant", "factorint.factorize")


def _lookup(module, dotted: str):
    owner, _, attr = dotted.rpartition(".")
    holder = getattr(module, owner) if owner else module
    return holder, attr


class Recorder:
    """Spans and counters of one traced op, kept in memory until exit."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.errors = dict.fromkeys(MODULES, 0)
        self.max_bits = dict.fromkeys(MAX_BITS, 0)
        self.counts = {"numerics.precision_ladder.steps": 0, "reports.write_json.bytes": 0}
        self.expansions: dict[int, list] = {}  # id(psi_N) -> [psi_N, useful]
        self.in_check = 0

    def span(self, name: str, module: str, fn, after=None):
        """Wrap fn so that each call records a span; ``after(args, result)``
        sees every successful call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            record = [name, time.perf_counter(), 0.0, parent]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[module] += 1
                raise
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- hooks ------------------------------------------------------------

    def _note_bits(self, key: str, n: int):
        self.max_bits[key] = max(self.max_bits[key], abs(n).bit_length())

    def _mark(self, poly):
        entry = self.expansions.get(id(poly))
        if entry is not None and entry[0] is poly:
            entry[1] = True

    def install(self):
        """Wrap the traced functions and return the ``chebdyn.cli`` module."""
        # an import statement, not importlib, so that -X importtime logs it
        import chebdyn.cli  # noqa: F401

        mods = {name: sys.modules[f"chebdyn.{name}"] for name in MODULES}
        minpoly_cache = mods["chebyshev"].halved_minpoly
        self.caches = {
            "chebyshev.preperiodic_orbit": mods["chebyshev"].preperiodic_orbit,
            "factorint.euler_phi": mods["factorint"].euler_phi,
        }
        misses = [minpoly_cache.cache_info().misses]

        def expanded(args, result):
            # a cache miss is an expansion; a call inside a check reads it
            now = minpoly_cache.cache_info().misses
            if now > misses[0]:
                misses[0] = now
                self.expansions.setdefault(id(result), [result, False])
            if self.in_check:
                self._mark(result)

        def resultant_used(args, result):
            self._mark(args[0])
            self._mark(args[1])
            self._note_bits("intpoly.resultant", result)

        def write_json_bytes(args, result):
            self.counts["reports.write_json.bytes"] += len(result.encode())

        after = {
            "chebyshev.orbit_value": lambda args, result: self._note_bits("chebyshev.orbit_value", result),
            "chebyshev.halved_minpoly": expanded,
            "intpoly.resultant": resultant_used,
            "intpoly.IntPoly.shifted_scaled_arg": lambda args, result: self._mark(args[0]),
            "factorint.factorize": lambda args, result: self._note_bits("factorint.factorize", args[0]),
            "reports.write_json": write_json_bytes,
        }
        plan = [(m, f) for table in (TIMED, SELF_ONLY) for m, fs in table.items() for f in fs]
        plan += [("cli", "main")] + [("cli", f) for f in dir(mods["cli"]) if f.startswith("cmd_")]
        checks = {(m, f) for m, fs in MINPOLY_CHECKS.items() for f in fs}
        plan += sorted(checks - set(plan))
        replace = {}  # id(original) -> (original, wrapper)
        for module, dotted in plan:
            holder, attr = _lookup(mods[module], dotted)
            orig = getattr(holder, attr)
            key = f"{module}.{dotted}"
            wrapper = self.span(key, module, orig, after.get(key))
            if (module, dotted) in checks:
                wrapper = self._check_context(wrapper)
            if holder is mods[module]:
                replace[id(orig)] = (orig, wrapper)
            else:  # a method: one class attribute to rebind
                setattr(holder, attr, wrapper)
        ladder = mods["numerics"].precision_ladder
        replace[id(ladder)] = (ladder, self._counted_ladder(ladder))
        # rebind every chebdyn name that refers to an original
        for name, mod in list(sys.modules.items()):
            if name != "chebdyn" and not name.startswith("chebdyn."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        return mods["cli"]

    def _check_context(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.in_check += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.in_check -= 1

        return wrapper

    def _counted_ladder(self, ladder):
        @functools.wraps(ladder)
        def wrapper(*args, **kwargs):
            for prec in ladder(*args, **kwargs):
                self.counts["numerics.precision_ladder.steps"] += 1
                yield prec

        return wrapper

    def dump(self, path: str):
        caches = {}
        for key, fn in self.caches.items():
            info = fn.cache_info()
            caches[key] = {"hits": info.hits, "misses": info.misses, "entries": info.currsize}
        doc = {
            "op": self.op_id,
            "spans": self.spans,
            "errors": self.errors,
            "maxBits": self.max_bits,
            "counts": self.counts,
            "caches": caches,
            "expansions": len(self.expansions),
            "usefulExpansions": sum(used for _, used in self.expansions.values()),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# roll-up of a run's span files into per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans) -> dict[str, list]:
    """name -> [calls, self seconds]; self = duration minus child durations."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = {}
    for (name, start, end, _), inner in zip(spans, child):
        entry = out.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - inner
    return out


def module_self_times(spans) -> dict[str, float]:
    """Self seconds per module for one op's spans."""
    out = dict.fromkeys(MODULES, 0.0)
    for name, (_, self_s) in self_times(spans).items():
        out[name.split(".", 1)[0]] += self_s
    return out


def import_times(stderr_text: str) -> dict[str, float]:
    """Cumulative seconds of each package's first import in -X importtime output."""
    out = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        if name in IMPORTS and name not in out:
            out[name] = int(parts[1]) / 1e6
    return out


def _ratio(num, den, empty):
    return num / den if den else empty


def rollup(docs: list[dict], imports: list[dict], traced_wall: float, plain_wall: float) -> dict:
    """Per-layer metrics of one traced run: {name: (value, unit)}."""
    times: dict[str, list] = {}
    errors = dict.fromkeys(MODULES, 0)
    max_bits = dict.fromkeys(MAX_BITS, 0)
    counts = {}
    caches: dict[str, dict] = {}
    expansions = useful = 0
    for doc in docs:
        for name, (calls, self_s) in self_times(doc["spans"]).items():
            entry = times.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        for module, n in doc["errors"].items():
            errors[module] += n
        for key, bits in doc["maxBits"].items():
            max_bits[key] = max(max_bits[key], bits)
        for key, n in doc["counts"].items():
            counts[key] = counts.get(key, 0) + n
        for key, info in doc["caches"].items():
            agg = caches.setdefault(key, {"hits": 0, "misses": 0, "entries": 0})
            agg["hits"] += info["hits"]
            agg["misses"] += info["misses"]
            agg["entries"] = max(agg["entries"], info["entries"])
        expansions += doc["expansions"]
        useful += doc["usefulExpansions"]

    def calls_of(key):
        return times.get(key, [0, 0.0])[0]

    def self_of(key):
        return times.get(key, [0, 0.0])[1]

    metrics = {}
    modules = dict.fromkeys(MODULES, 0.0)
    for name, (_, self_s) in times.items():
        modules[name.split(".", 1)[0]] += self_s
    for module in MODULES:
        metrics[f"{module}.self_s"] = (modules[module], "s")
        metrics[f"{module}.errors"] = (errors[module], "count")
    for module, fns in TIMED.items():
        for fn in fns:
            metrics[f"{module}.{fn}.calls"] = (calls_of(f"{module}.{fn}"), "count")
            metrics[f"{module}.{fn}.self_s"] = (self_of(f"{module}.{fn}"), "s")
    for module, fns in SELF_ONLY.items():
        for fn in fns:
            metrics[f"{module}.{fn}.self_s"] = (self_of(f"{module}.{fn}"), "s")
    for key, bits in max_bits.items():
        metrics[f"{key}.max_bits"] = (bits, "bits")
    for key in ("chebyshev.preperiodic_orbit", "factorint.euler_phi"):
        info = caches.get(key, {"hits": 0, "misses": 0, "entries": 0})
        metrics[f"{key}.hit_ratio"] = (_ratio(info["hits"], info["hits"] + info["misses"], 0.0), "ratio")
    metrics["chebyshev.preperiodic_orbit.entries"] = (caches.get("chebyshev.preperiodic_orbit", {}).get("entries", 0), "count")
    # no expansion at all wastes nothing
    metrics["chebyshev.halved_minpoly.useful_ratio"] = (_ratio(useful, expansions, 1.0), "ratio")
    metrics["numerics.cos_two_pi.calls"] = (calls_of("numerics.cos_two_pi"), "count")
    metrics["numerics.precision_ladder.steps"] = (counts.get("numerics.precision_ladder.steps", 0), "count")
    metrics["reports.write_json.bytes"] = (counts.get("reports.write_json.bytes", 0), "bytes")
    for pkg in IMPORTS:
        samples = [imp[pkg] for imp in imports if pkg in imp]
        metrics[f"import.{pkg}_s"] = (statistics.median(samples) if samples else 0.0, "s")
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0, "ratio")
    return metrics


def main(argv: list[str]) -> int:
    spans_path, op_id, cli_argv = argv[0], int(argv[1]), argv[2:]
    recorder = Recorder(op_id)
    cli = recorder.install()
    try:
        return cli.main(cli_argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
