"""Check every recorded benchmark input against its reference report.

    python3 tools/refsweep.py

For each workload, input pool, slot and variant under scenariobench/reference/
(1176 inputs), the scenario JSON is generated as the benchmark generates it
and put through the benchmark's timed operation: json.loads ->
scenario_from_json -> run_scenario -> emit_report(..., "json"). Each report is
compared with its reference by refcheck.mismatches. Prints one line per
workload and pool, every mismatch, and one SHA-256 over the generated inputs and
one over the emitted reports, each over the texts in the sweep's fixed order
(workload, pool, slot, variant), so two trees whose digests agree wrote the
same bytes. Exits 1 if any report mismatched or raised. A benchmark run sees
one variant per slot; this sees all of them.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scenariobench"))

import refcheck  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def sweep(q, workload: str, pool: str, inputs, reports) -> tuple:
    """(inputs checked, mismatch lines) for one workload and pool; each input
    text and each report text is fed to the ``inputs`` and ``reports`` hashes."""
    refs = refcheck.load_reference(workload, pool)["reports"]
    mix = q.harness.splitmix64
    checked, problems = 0, []
    for slot in range(len(workloads.SLOTS[workload])):
        for variant in range(workloads.VARIANTS):
            key = f"{slot}:{variant}"
            seed = workloads.scenario_seed(mix, workload, pool, slot, variant)
            text = json.dumps(workloads.make_scenario(q, workload, slot, seed).to_json())
            inputs.update(text.encode() + b"\n")
            try:
                report = run.analyze_json(q.harness, text)
                reports.update(report.encode() + b"\n")
                found = refcheck.mismatches(json.loads(report), refs[key])
            except Exception as exc:  # a raising input is a mismatch, not the end of the sweep
                found = [f"raised {type(exc).__name__}: {exc}"]
                reports.update(f"raised {type(exc).__name__}\n".encode())
            checked += 1
            problems += [f"{workload}/{pool} {key}: {p}" for p in found]
    return checked, problems


def main() -> int:
    run.pin_blas_threads()
    q = run.import_qinstr()
    total, failed = 0, []
    inputs, reports = hashlib.sha256(), hashlib.sha256()
    for workload in workloads.SLOTS:
        for pool in workloads.POOL_SEEDS:
            checked, problems = sweep(q, workload, pool, inputs, reports)
            print(f"{workload}/{pool}: {checked} inputs, {len(problems)} mismatches", flush=True)
            total += checked
            failed += problems
    for line in failed:
        print(line)
    print(f"{total} inputs, {len(failed)} mismatches")
    print(f"inputs sha256 {inputs.hexdigest()}")
    print(f"reports sha256 {reports.hexdigest()}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
