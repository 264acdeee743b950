"""Machine-readable report emission: stable-key JSON plus fixed-header CSV.

Reports are byte-deterministic for a fixed config and seed: keys are
sorted, floats go through repr, and no timestamps are embedded.
"""

from __future__ import annotations

import csv
import io
import json

VERSION = "0.1.0"


def make_check(name: str, passed: bool, lhs=None, rhs=None) -> dict:
    def scrub(v):
        if v is None or isinstance(v, (int, float, str)):
            return v
        return str(v)

    return {"name": name, "pass": bool(passed), "lhs": scrub(lhs), "rhs": scrub(rhs)}


def build_report(tool: str, config: dict, results: dict, checks: list[dict]) -> dict:
    return {
        "tool": tool,
        "version": VERSION,
        "config": config,
        "results": results,
        "checks": checks,
    }


def report_to_json(report: dict) -> str:
    """Strict JSON: a non-finite float raises ValueError instead of printing
    the non-standard tokens Infinity or NaN."""
    return json.dumps(report, sort_keys=True, indent=2, default=str, allow_nan=False) + "\n"


def write_json(report: dict, path: str | None) -> str:
    text = report_to_json(report)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def write_csv(header: list[str], rows: list[tuple], path: str | None) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    text = buf.getvalue()
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def load_schema() -> dict:
    from importlib import resources

    with resources.files("chebdyn").joinpath("schema.json").open() as fh:
        return json.load(fh)


def all_checks_pass(report: dict) -> bool:
    return all(c["pass"] for c in report["checks"])
