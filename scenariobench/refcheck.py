"""Output check: compare a report with the reference recorded for its input.

Numbers (panel entries, quantum information gain, default-state
sensitivity, each check's lhs and rhs) must agree within the report's own
equality tolerance. The input fingerprint, ``overall_pass``,
``purity_preserving``, whether the Hall section was skipped, and the multiset
of check names must agree exactly. The skip reason itself is not compared:
it quotes an eigenvalue that depends on the eigensolver's rounding.
"""

from __future__ import annotations

import gzip
import json
import math
from collections import defaultdict
from pathlib import Path

TOL = 1e-9  # infobounds.EQ_TOL, the tolerance of the report's equality checks
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
EXACT = ("fingerprint", "overall_pass", "purity_preserving", "hall_skipped")


def _round(x):
    # 12 significant digits keep the stored error far below TOL
    return x if x is None or not math.isfinite(x) else float(f"{x:.12g}")


def digest(report: dict) -> dict:
    """The parts of a report JSON (emit_report(..., "json")) that are checked."""
    values = dict(report["panel"])
    values["quantum_info_gain"] = report["quantum_info_gain"]
    values["default_state_sensitivity"] = report["default_state_sensitivity"]
    return {
        "fingerprint": report["fingerprint"],
        "overall_pass": report["overall_pass"],
        "purity_preserving": report["purity_preserving"],
        "hall_skipped": report["hall_skipped"] is not None,
        "values": {k: _round(v) for k, v in values.items()},
        "checks": [[c["name"], _round(c["lhs"]), _round(c["rhs"])] for c in report["checks"]],
    }


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    if not (math.isfinite(a) and math.isfinite(b)):
        return a == b
    return abs(a - b) <= TOL


def _by_name(checks) -> dict:
    grouped = defaultdict(list)
    for name, lhs, rhs in checks:
        grouped[name].append((lhs, rhs))
    return grouped


def mismatches(report: dict, ref: dict) -> list:
    """Every way ``report`` differs from the reference digest ``ref``; empty if none."""
    got = digest(report)
    out = [f"{k}: {got[k]!r} != {ref[k]!r}" for k in EXACT if got[k] != ref[k]]
    if set(got["values"]) != set(ref["values"]):
        out.append(f"value names {sorted(got['values'])} != {sorted(ref['values'])}")
    for name, want in ref["values"].items():
        if name in got["values"] and not _close(got["values"][name], want):
            out.append(f"{name}: {got['values'][name]!r} != {want!r}")
    got_checks, ref_checks = _by_name(got["checks"]), _by_name(ref["checks"])
    if {k: len(v) for k, v in got_checks.items()} != {k: len(v) for k, v in ref_checks.items()}:
        out.append(f"check names {sorted(got_checks)} != {sorted(ref_checks)}")
        return out
    for name, rows in ref_checks.items():
        for i, (want, have) in enumerate(zip(rows, got_checks[name])):
            for side, w, h in zip(("lhs", "rhs"), want, have):
                if not _close(h, w):
                    out.append(f"{name}[{i}].{side}: {h!r} != {w!r}")
    return out


def reference_path(workload: str, pool: str) -> Path:
    return REFERENCE_DIR / f"{workload}-{pool}.json.gz"


def load_reference(workload: str, pool: str) -> dict:
    with gzip.open(reference_path(workload, pool), "rt") as fh:
        return json.load(fh)
