"""Time two source trees against each other on one workload, in one process.

    python3 tools/abtime.py PARENT_TREE CHANGE_TREE --workload accept_grid

Each tree is a checkout (a directory holding ``src/qinstr``). Both trees'
qinstr are imported into this process side by side, and the benchmark's
timed operation (``run.analyze_json``: json.loads -> scenario_from_json ->
run_scenario -> emit_report) runs on each input of one benchmark pass, on
one tree and then on the other, for ROUNDS rounds; which tree goes first
alternates from input to input and from round to round. The inputs are the
main-pool ones ``scenariobench/run.py`` generates for its default run seed,
written by the parent tree.

Prints the median and the quartiles, over the inputs, of the per-input ratio
(change / parent) of the median op time over the rounds, and the ratio of
the summed medians. Both trees run under the same machine state at every
moment, so this ratio drifts far less than two benchmark runs made one after
the other. It sizes a change; the benchmark judges it.

Exits 1 if the two trees write different report bytes for any input.
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scenariobench"))

import run  # noqa: E402
import workloads  # noqa: E402

ROUNDS = 20  # passes over the inputs
SEED = 1  # scenariobench/run.py's default run seed


def _drop_qinstr() -> None:
    for name in [m for m in sys.modules if m == "qinstr" or m.startswith("qinstr.")]:
        del sys.modules[name]


def load_tree(tree: Path) -> SimpleNamespace:
    """The qinstr modules of ``tree/src``, as ``run.import_qinstr`` returns them.
    The package is then taken out of ``sys.modules`` so that the next tree's
    qinstr imports afresh; each module keeps the names it bound on import."""
    src = (tree / "src").resolve()
    if not (src / "qinstr" / "__init__.py").is_file():
        raise SystemExit(f"no qinstr sources under {src}")
    _drop_qinstr()
    sys.path.insert(0, str(src))
    try:
        q = SimpleNamespace(**{m: importlib.import_module(f"qinstr.{m}") for m in run.MODULES})
    finally:
        sys.path.remove(str(src))
        _drop_qinstr()
    if Path(q.harness.__file__).resolve().parent != src / "qinstr":
        raise SystemExit(f"qinstr imported from {q.harness.__file__}, not from {src}")
    return q


def quartiles(values: list) -> list:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="the tree to compare against")
    parser.add_argument("change", type=Path, help="the tree being sized")
    parser.add_argument("--workload", required=True, choices=list(workloads.SLOTS))
    args = parser.parse_args(argv)

    run.pin_blas_threads()
    trees = [load_tree(args.parent), load_tree(args.change)]
    texts = [text for _key, text in workloads.generate(trees[0], args.workload, SEED, "main")]
    times = [[[] for _ in texts], [[] for _ in texts]]  # [tree][input] -> seconds per round
    differ = 0
    for index, text in enumerate(texts):  # warm-up, and the byte comparison
        reports = [run.analyze_json(q.harness, text) for q in trees]
        if reports[0] != reports[1]:
            differ += 1
            print(f"input {index}: the trees wrote different reports")
    for rnd in range(ROUNDS):
        for index, text in enumerate(texts):
            first = (index + rnd) % 2
            for side in (first, 1 - first):
                harness = trees[side].harness
                t0 = time.perf_counter()
                run.analyze_json(harness, text)
                times[side][index].append(time.perf_counter() - t0)

    medians = [[statistics.median(t) for t in side] for side in times]
    ratios = [c / p for p, c in zip(*medians)]
    q1, med, q3 = quartiles(ratios)
    print(f"{args.workload}: {len(texts)} inputs x {ROUNDS} rounds")
    print(f"parent {sum(medians[0]) / len(texts) * 1e3:.3f} ms/op, "
          f"change {sum(medians[1]) / len(texts) * 1e3:.3f} ms/op (sum of per-input medians)")
    print(f"per-input ratio change/parent: median {med:.4f} [quartiles {q1:.4f}-{q3:.4f}]")
    print(f"ratio of summed medians: {sum(medians[1]) / sum(medians[0]):.4f}")
    print(f"reports differ on {differ} of {len(texts)} inputs")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
