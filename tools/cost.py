"""Count the calls one scenario makes, per stage of the benchmark's timed operation.

    python3 tools/cost.py [--workload accept_grid]

The inputs are variant 0 of every slot of a workload's main pool, generated
as ``tools/refsweep.py`` generates them, and each goes through the
benchmark's timed operation (``run.analyze_json``: json.loads ->
scenario_from_json -> run_scenario -> emit_report). A stage is found in the
run: a qinstr function or property getter that ``run.analyze_json`` or
``run_scenario`` calls directly, but ``run_scenario`` itself and the frames
of comprehensions and generator expressions (code names that start with
"<"). For each stage, in run order, it prints the mean per scenario of four
counts: qinstr-level Python calls, C calls (``sys.setprofile``'s ``c_call``
events), LAPACK calls by routine, counted through ``matcore.lapack``, the
one binding every module calls LAPACK by, and the spectra taken (matrices
decomposed) by path: ``closed``, the matrices of each ``matcore.eigvalsh``
call less those it hands to ``matcore.lapack`` (its 2 x 2 closed form, and
its 3 x 3 trigonometric form, whose guard hands some matrices of a stack to
LAPACK); ``lapack``, the matrices of LAPACK's ``eigh`` and ``eigvalsh`` calls;
``jacobi``, ``matcore.jacobi_eig`` (ingest's clamp).
Their sum is the eigendecompositions per scenario. A call is charged to the outermost
stage on its stack; OTHER takes the calls outside every stage (json.loads,
and run_scenario's own lines). A stage that never runs on a workload has no
row.

Counts do not depend on timing, so they compare two trees on any machine,
unlike the benchmark; numpy's own C calls vary with the numpy version. Only
built-in functions and methods raise ``c_call``: a ufunc (``np.divide``) or
an array-function dispatcher (``np.where``) is not counted. After a warm-up
pass, two passes are counted; the tool exits 1 if they differ.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scenariobench"))

import refsweep  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

OTHER = "(other)"
ROUTINES = ("eigh", "eigvalsh", "svd")
SPECTRAL = ("eigh", "eigvalsh")  # the LAPACK routines that take a spectrum
PATHS = ("closed", "lapack", "jacobi")  # the spectra, by path


def inputs(q, workload: str) -> list:
    """The scenario JSON of variant 0 of every main-pool slot of ``workload``."""
    return [refsweep.input_text(q, workload, "main", slot, 0) for slot in range(len(workloads.SLOTS[workload]))]


class Tally:
    """The profile hook and the counts of one pass: {stage: Counter}, with
    the keys "python", "c", one per LAPACK routine and one per PATHS entry."""

    def __init__(self, q):
        self.package = str(Path(q.harness.__file__).resolve().parent)
        self.callers = {run.analyze_json.__code__, q.harness.run_scenario.__code__}
        self.kinds = {}  # code object -> (qinstr-level?, a stage when one of callers calls it?)
        self.counts = {}  # in the order the stages first run
        self.stage, self.frame = OTHER, None
        self.skip = set()  # code whose own C calls are this tool's, not the program's

    def kind(self, code) -> tuple:
        if code not in self.kinds:
            ours = code.co_filename.startswith(self.package)
            self.kinds[code] = ours, (ours and code not in self.callers and not code.co_name.startswith("<"))
        return self.kinds[code]

    def add(self, key: str, n: int = 1) -> None:
        counts = self.counts.setdefault(self.stage, Counter())
        counts[key] += n

    def profile(self, frame, event, arg) -> None:
        if event == "call":
            ours, can_stage = self.kind(frame.f_code)
            if can_stage and self.frame is None and frame.f_back.f_code in self.callers:
                self.stage, self.frame = frame.f_code.co_name, frame
            if ours:
                self.add("python")
        elif event == "c_call":
            if frame.f_code not in self.skip:
                self.add("c")
        elif event == "return" and frame is self.frame:
            self.stage, self.frame = OTHER, None


def count_pass(q, texts: list) -> dict:
    """{stage: Counter} summed over one pass of ``texts``."""
    tally = Tally(q)
    real = {name: getattr(q.matcore, name) for name in ("lapack", "eigvalsh", "jacobi_eig")}
    lapack_spectra = 0  # over the pass, so that a call's spectra in closed form show as the rest

    def lapack(routine, *args, **kwargs):
        nonlocal lapack_spectra
        tally.add(routine.__name__)
        if routine.__name__ in SPECTRAL:
            n = math.prod(args[0].shape[:-2])
            tally.add("lapack", n)
            lapack_spectra += n
        return real["lapack"](routine, *args, **kwargs)

    def eigvalsh(a):
        before = lapack_spectra
        vals = real["eigvalsh"](a)
        tally.add("closed", math.prod(a.shape[:-2]) - (lapack_spectra - before))
        return vals

    def jacobi_eig(a):
        tally.add("jacobi")
        return real["jacobi_eig"](a)

    wrappers = {"lapack": lapack, "eigvalsh": eigvalsh, "jacobi_eig": jacobi_eig}
    tally.skip = {count_pass.__code__, Tally.add.__code__, *(fn.__code__ for fn in wrappers.values())}
    for name, fn in wrappers.items():
        setattr(q.matcore, name, fn)
    sys.setprofile(tally.profile)
    try:
        for text in texts:
            run.analyze_json(q.harness, text)
    finally:
        sys.setprofile(None)
        for name, fn in real.items():
            setattr(q.matcore, name, fn)
    return tally.counts


def table(counts: dict, n: int) -> list:
    """The printed rows: mean per scenario of each count, per stage in run
    order, then OTHER, then the total; the spectra by path stand apart, right
    of a bar."""
    routines = sorted(set(ROUTINES).union(*(c.keys() for c in counts.values())) - {"python", "c", *PATHS})
    keys = ("python", "c", *routines, *PATHS)

    def line(label: str, cells: list) -> str:
        return f"{label:<26}" + "".join(cells[:-len(PATHS)]) + " |" + "".join(cells[-len(PATHS):])

    lines = [line("stage", [f" {key:>9}" for key in keys])]
    total = Counter()
    for stage in sorted(counts, key=lambda stage: stage == OTHER):
        total.update(counts[stage])
        lines.append(line(stage, [f" {counts[stage][key] / n:9.2f}" for key in keys]))
    lines.append(line("total", [f" {total[key] / n:9.2f}" for key in keys]))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(workloads.SLOTS),
                        help="one workload (default: every workload)")
    args = parser.parse_args(argv)

    run.pin_blas_threads()
    q = run.import_qinstr()
    status = 0
    for workload in [args.workload] if args.workload else list(workloads.SLOTS):
        texts = inputs(q, workload)
        for text in texts:  # warm-up
            run.analyze_json(q.harness, text)
        first, second = count_pass(q, texts), count_pass(q, texts)
        print(f"{workload}: {len(texts)} inputs, mean calls per scenario")
        print("\n".join(table(first, len(texts))), flush=True)
        if first != second:
            print(f"{workload}: the two counted passes differ")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
