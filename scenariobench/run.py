"""Scenario-pipeline benchmark for qinstr.

    python3 scenariobench/run.py --workload accept_grid --seed 1 --seconds 6 --trace 0

The timed operation is what ``qinstr analyze`` does with one scenario file:
``json.loads`` -> ``harness.scenario_from_json`` -> ``harness.run_scenario`` ->
``harness.emit_report(..., "json")``. One caller runs it in a closed loop over
whole passes of the workload (see ``workloads.py``) until ``--seconds`` have
elapsed, on scenario JSON generated from ``--seed``. Percentiles are taken per
pass, over the pass's fixed number of scenarios, and then the median over the
passes, so they mean the same whatever number of passes fits. Every report is checked
against the reference recorded for its input (``refcheck.py``); a mismatch or
an exception counts as a failed scenario and is never dropped. Times are
rescaled to a reference machine speed by a calibration loop run between
scenarios (see ``calibrate``), because a shared machine's speed drifts; the
unscaled wall-clock figures are printed on a JSON line before the result, and
are per-layer metrics of the traced run.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one untraced
pass and then one traced pass of the same scenarios, prints the per-layer
metrics and writes the spans to ``scenariobench/out/``.
``--holdout`` takes the inputs from the second, held-out pool.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. qinstr is imported from
``src/`` of the checkout this file sits in; without it the run exits with 2.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import refcheck
import tracer
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9
TAIL_ABOVE = 10  # the tail percentile leaves this many samples above it
# CAL_REF_S is about the calibration's median time on a 2-vCPU 2.1 GHz Xeon VM,
# so rescaled times read close to that machine's usual wall time.
CAL_PRODUCTS, CAL_LOOP, CAL_REF_S = 400, 30000, 0.006
MODULES = ("harness", "infobounds", "hallmap", "entropy", "qstate", "instrument", "matcore")


def pin_blas_threads() -> None:
    """One single-threaded process: BLAS must not spread over the cores."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_qinstr() -> SimpleNamespace:
    """Import qinstr afresh from this checkout's src/ (never an installed copy)."""
    for name in [m for m in sys.modules if m == "qinstr" or m.startswith("qinstr.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("qinstr")
    if Path(package.__file__).resolve().parent != (SRC / "qinstr").resolve():
        raise ImportError(f"qinstr imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(
        package=package, **{m: importlib.import_module(f"qinstr.{m}") for m in MODULES}
    )


def analyze_json(harness, text: str) -> str:
    """The timed operation. Attributes are looked up per call so tracing sees them."""
    report = harness.run_scenario(harness.scenario_from_json(json.loads(text)))
    return harness.emit_report(report, "json")


def calibrate() -> float:
    """Seconds for a fixed mix of small complex matrix products and interpreter
    work: the machine's speed at this moment, independent of qinstr."""
    import numpy as np

    t0 = time.perf_counter()
    a = (np.arange(9.0).reshape(3, 3) + 1j * np.eye(3)) / 10
    total = 0.0
    for _ in range(CAL_PRODUCTS):
        total += float((a @ a.conj().T).trace().real)
    for i in range(CAL_LOOP):
        total += i * i % 7
    return time.perf_counter() - t0


class Pass:
    """Outcome of running scenarios: per-scenario seconds, failures, report digests.

    ``ref_times`` rescales each scenario's seconds to the reference speed
    (calibration taking CAL_REF_S) by the calibrations just before and after it.
    ``cal_times`` holds every calibration's seconds.
    """

    def __init__(self):
        self.times, self.ref_times, self.cal_times = [], [], []
        self.failures, self.digests = [], []

    def run(self, op, scenarios, refs, on_start=None) -> float:
        """Run every scenario once; return the pass's wall seconds."""
        started = time.perf_counter()
        cal_before = calibrate()
        self.cal_times.append(cal_before)
        for index, (key, text) in enumerate(scenarios):
            if on_start is not None:
                on_start(index)
            t0 = time.perf_counter()
            try:
                out, error = op(text), None
            except Exception as exc:  # a failing scenario is counted, not fatal
                error = f"raised {type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
            cal_after = calibrate()
            self.cal_times.append(cal_after)
            self.times.append(seconds)
            self.ref_times.append(seconds * 2 * CAL_REF_S / (cal_before + cal_after))
            cal_before = cal_after
            if error is None:
                report = json.loads(out)
                self.digests.append(refcheck.digest(report))
                mismatches = refcheck.mismatches(report, refs[key])
                error = "; ".join(mismatches[:3]) if mismatches else None
            if error is not None:
                self.failures.append(f"{key}: {error}")
        return time.perf_counter() - started


def warm_up(op, scenarios) -> None:
    """One untimed, unchecked operation: lazy imports and first-call costs."""
    try:
        op(scenarios[0][1])
    except Exception:  # the timed passes count it
        pass


def tail(times: list) -> tuple:
    """(value, percentile): the highest percentile with TAIL_ABOVE samples above it."""
    ordered = sorted(times)
    n = len(ordered)
    index = n - TAIL_ABOVE - 1 if n > TAIL_ABOVE else n - 1
    return ordered[index], 100.0 * (index + 1) / n


def timing(times: list, per_pass: int) -> dict:
    """Throughput, p50 and tail of whole passes of ``per_pass`` scenarios each.

    p50 and the tail are taken per pass and their medians reported, so the
    tail's percentile depends on the pass size only, not on how many passes
    fitted in the run.
    """
    passes = [times[k:k + per_pass] for k in range(0, len(times), per_pass)]
    tails = [tail(p) for p in passes]
    return {
        "scenarios_per_s": len(times) / sum(times),
        "scenario_ms_p50": statistics.median(statistics.median(p) for p in passes) * 1e3,
        "scenario_ms_tail": statistics.median(value for value, _ in tails) * 1e3,
        "tail_pct": tails[0][1],
    }


def setup(workload: str, seed: int, pool: str) -> tuple:
    """Import qinstr and generate the scenario JSON, SETUP_REPEATS times.

    Returns the last (qinstr, scenarios) and the median set-up seconds, both
    rescaled to the reference speed like the scenario times and unscaled.
    """
    seconds, wall = [], []
    cal_before = calibrate()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        q = import_qinstr()
        scenarios = workloads.generate(q, workload, seed, pool)
        elapsed = time.perf_counter() - t0
        cal_after = calibrate()
        wall.append(elapsed)
        seconds.append(elapsed * 2 * CAL_REF_S / (cal_before + cal_after))
        cal_before = cal_after
    return q, scenarios, (statistics.median(seconds), statistics.median(wall))


def provenance(q, workload: str, seed: int, pool: str) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "eig_backend": getattr(q.package, "EIG_BACKEND", "absent"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "qinstr_tol": q.harness.default_tol(),
        "workload": workload,
        "seed": seed,
        "pool": pool,
    }


def wall_clock(times: list, cal_times: list, per_pass: int) -> dict:
    """The unscaled figures of whole passes, and the mean calibration time."""
    figures = timing(times, per_pass)
    del figures["tail_pct"]
    figures["calibration_ms"] = statistics.fmean(cal_times) * 1e3
    return figures


def end_to_end(q, scenarios, refs, seconds: float, setup_s: tuple) -> tuple:
    op = functools.partial(analyze_json, q.harness)
    warm_up(op, scenarios)
    result = Pass()
    elapsed, passes = 0.0, 0
    while passes == 0 or elapsed < seconds:
        elapsed += result.run(op, scenarios, refs)
        passes += 1
    n, per_pass = len(result.times), len(scenarios)
    ref = timing(result.ref_times, per_pass)
    metrics = {
        "scenarios_per_s": (ref["scenarios_per_s"], "1/s"),
        "scenario_ms_p50": (ref["scenario_ms_p50"], "ms"),
        "scenario_ms_tail": (ref["scenario_ms_tail"], "ms"),
        "ok_frac": (1.0 - len(result.failures) / n, "fraction"),
        "setup_s": (setup_s[0], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    wall = wall_clock(result.times, result.cal_times, per_pass)
    wall["setup_s"] = setup_s[1]
    notes = [
        f"scenario_ms_tail is p{ref['tail_pct']:.1f} of each pass's {per_pass} samples, "
        f"median over {passes} passes ({n} samples in {elapsed:.1f} s)",
        "wall clock (not rescaled): " + json.dumps(wall),
    ]
    return result, metrics, notes


def per_layer(q, scenarios, refs, workload: str, prov: dict) -> tuple:
    op = functools.partial(analyze_json, q.harness)
    warm_up(op, scenarios)
    result = Pass()
    result.run(op, scenarios, refs)
    first_traced = len(result.digests)
    spans = tracer.Tracer()
    with spans.installed(q.package):
        result.run(spans.wrap("bench.op", op), scenarios, refs, on_start=spans.begin_scenario)
    n = len(scenarios)
    metrics = tracer.layer_metrics(spans, n, result.digests[first_traced:])
    overhead = sum(result.ref_times[n:]) / sum(result.ref_times[:n]) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "fraction")
    units = {"scenarios_per_s": "1/s"}
    for name, value in wall_clock(result.times[:n], result.cal_times[:n + 1], n).items():
        metrics[f"wall.{name}"] = (value, units.get(name, "ms"))
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}.csv.gz"
    spans.write(path, prov)
    notes = [f"spans written to {path.relative_to(HERE.parent)}"]
    if spans.absent:
        notes.append("absent layers (reported as 0): " + ", ".join(spans.absent))
    return result, metrics, notes


def emit(prov: dict, result: Pass, metrics: dict, notes: list) -> None:
    """Print provenance, each metric with its unit, notes, failures, then the result line."""
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    for line in notes + [f"FAILED {f}" for f in result.failures]:
        print(line)
    summary = {
        "correct": not result.failures,
        "attempted": len(result.times),
        "failed": len(result.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(summary))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.SLOTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--holdout", action="store_true", help="use the held-out input pool")
    args = parser.parse_args(argv)

    if not (SRC / "qinstr" / "__init__.py").is_file():
        print(f"qinstr sources not found under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    pool = "holdout" if args.holdout else "main"
    refs = refcheck.load_reference(args.workload, pool)["reports"]
    q, scenarios, setup_s = setup(args.workload, args.seed, pool)
    prov = provenance(q, args.workload, args.seed, pool)
    if args.trace:
        result, metrics, notes = per_layer(q, scenarios, refs, args.workload, prov)
    else:
        result, metrics, notes = end_to_end(q, scenarios, refs, args.seconds, setup_s)
    emit(prov, result, metrics, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
