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

    python3 tools/refsweep.py --parent TREE

also puts every input text through the qinstr of TREE (a checkout holding
``src/qinstr``), imported beside this one as ``tools/abtime.py`` imports it,
and compares the two reports of each input: the fingerprint, the check names,
each row's pass flag, the purity class, the Hall skip,
``default_state_sensitivity`` and ``overall_pass`` must agree exactly. It
prints how many reports changed bytes, for each workload and pool and in all,
and the largest move of a value (a panel entry, the information gain, a row's
lhs or rhs) with its input and field, and exits 1 on any exact difference or
on a move beyond refcheck's tolerance. This is the comparison a change that moves values without
re-recording the references must pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scenariobench"))

import abtime  # noqa: E402
import refcheck  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


EXACT = ("fingerprint", "purity_preserving", "hall_skipped", "default_state_sensitivity", "overall_pass")


class ParentComparison:
    """Each report of the sweep against the report the parent tree's qinstr
    writes for the same input text."""

    def __init__(self, parent):
        self.parent = parent
        self.changed = 0
        self.exact = []  # lines naming an exact difference
        self.largest = (0.0, "no value moved")

    def add(self, where: str, text: str, report) -> None:
        """Compare ``report``, this tree's report text for ``text`` (None if it
        raised), with the parent's."""
        try:
            old = run.analyze_json(self.parent.harness, text)
        except Exception:  # a raise on one side only is an exact difference
            old = None
        if report is None or old is None:
            if (report is None) != (old is None):
                self.changed += 1
                self.exact.append(f"{where}: {'the parent' if old is None else 'this tree'} raised")
            return
        self.changed += report != old
        new, old = json.loads(report), json.loads(old)
        self.exact += [f"{where}: {key} {old[key]!r} -> {new[key]!r}" for key in EXACT if new[key] != old[key]]
        names = [row["name"] for row in new["checks"]]
        if names != [row["name"] for row in old["checks"]] or new["panel"].keys() != old["panel"].keys():
            self.exact.append(f"{where}: the check names or the panel entries differ")
            return
        self.exact += [f"{where}: {row['name']} pass {was['pass']} -> {row['pass']}"
                       for row, was in zip(new["checks"], old["checks"]) if row["pass"] != was["pass"]]
        values = [(f"panel {k}", v, old["panel"][k]) for k, v in new["panel"].items()]
        values.append(("quantum_info_gain", new["quantum_info_gain"], old["quantum_info_gain"]))
        values += [(f"{row['name']} {side}", row[side], was[side])
                   for row, was in zip(new["checks"], old["checks"]) for side in ("lhs", "rhs")]
        for field, a, b in values:
            move = 0.0 if a == b else abs(a - b) if math.isfinite(a - b) else math.inf
            if move > self.largest[0]:
                self.largest = (move, f"{where}, {field}")

    def summary(self, total: int) -> list:
        move, where = self.largest
        return [*self.exact,
                f"parent: {self.changed} of {total} reports changed bytes, {len(self.exact)} exact differences, "
                f"largest move {move:.3g} ({where})"]

    def failed(self) -> bool:
        return bool(self.exact) or not self.largest[0] <= refcheck.TOL


def input_text(q, workload: str, pool: str, slot: int, variant: int) -> str:
    """The scenario JSON of one benchmark input, generated as the benchmark
    generates it; ``tools/cost.py`` reads its inputs through this too."""
    seed = workloads.scenario_seed(q.harness.splitmix64, workload, pool, slot, variant)
    return json.dumps(workloads.make_scenario(q, workload, slot, seed).to_json())


def sweep(q, workload: str, pool: str, inputs, reports, parent=None) -> tuple:
    """(inputs checked, mismatch lines) for one workload and pool; each input
    text and each report text is fed to the ``inputs`` and ``reports`` hashes,
    and each report to ``parent`` (a ParentComparison) when one is given."""
    refs = refcheck.load_reference(workload, pool)["reports"]
    checked, problems = 0, []
    for slot in range(len(workloads.SLOTS[workload])):
        for variant in range(workloads.VARIANTS):
            key = f"{slot}:{variant}"
            text = input_text(q, workload, pool, slot, variant)
            inputs.update(text.encode() + b"\n")
            report = None
            try:
                report = run.analyze_json(q.harness, text)
                reports.update(report.encode() + b"\n")
                found = refcheck.mismatches(json.loads(report), refs[key])
            except Exception as exc:  # a raising input is a mismatch, not the end of the sweep
                found = [f"raised {type(exc).__name__}: {exc}"]
                reports.update(f"raised {type(exc).__name__}\n".encode())
            if parent is not None:
                parent.add(f"{workload}/{pool} {key}", text, report)
            checked += 1
            problems += [f"{workload}/{pool} {key}: {p}" for p in found]
    return checked, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, help="a checkout whose reports this tree's must match")
    args = parser.parse_args(argv)

    run.pin_blas_threads()
    parent = None if args.parent is None else ParentComparison(abtime.load_tree(args.parent))
    q = run.import_qinstr()
    total, failed = 0, []
    inputs, reports = hashlib.sha256(), hashlib.sha256()
    for workload in workloads.SLOTS:
        for pool in workloads.POOL_SEEDS:
            changed = 0 if parent is None else parent.changed
            checked, problems = sweep(q, workload, pool, inputs, reports, parent)
            line = f"{workload}/{pool}: {checked} inputs, {len(problems)} mismatches"
            if parent is not None:
                line += f", {parent.changed - changed} reports changed bytes against the parent"
            print(line, flush=True)
            total += checked
            failed += problems
    for line in failed:
        print(line)
    print(f"{total} inputs, {len(failed)} mismatches")
    print(f"inputs sha256 {inputs.hexdigest()}")
    print(f"reports sha256 {reports.hexdigest()}")
    if parent is not None:
        print("\n".join(parent.summary(total)))
    return 1 if failed or (parent is not None and parent.failed()) else 0


if __name__ == "__main__":
    sys.exit(main())
