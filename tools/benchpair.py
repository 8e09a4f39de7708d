"""Run paired benchmark runs of two source trees and judge them by the claim rule.

    python3 tools/benchpair.py PARENT_TREE CHANGE_TREE --workload rank_deficient \\
        [--holdout] --pairs 10 --seed 541 --out BENCH_name.json

Each tree is a checkout holding ``scenariobench/run.py`` and ``src/qinstr``.
Pair i runs each tree's own ``scenariobench/run.py`` as a subprocess, on run
seed ``--seed`` + i for both trees and for the ``run_seconds`` that
``BENCHMARK.json`` sets; the parent runs first in even pairs and the change in
odd ones. Every run's end-to-end metrics are kept. Per metric,
the medians and quartiles over the runs of each tree, ``change_rel`` (change
median / parent median - 1) and ``wins`` (pairs in which the change reads
better; a tie counts for neither side) are printed and, with ``--out``,
written in ``BENCH_scenario.json``'s schema, under
``workloads[W][main|holdout]``: a file that already exists keeps its other
workloads and pools, so one file can gather several calls.

Two verdicts follow, one line each, on the metrics ``BENCHMARK.json`` lists
as end to end (the change tree's copy):

- claims: the metrics that meet the claim rule: at least 10 pairs, wins in
  at least 9 of 10 of them, and a median that moves the better way by more
  than the distance between the parent's quartiles; none at all when the
  change's runs fail more scenarios in sum than the parent's;
- regressions: the metrics whose change median is worse than the parent's by
  more than the metric's relative bound, and, as unresolved, those whose
  runs on either tree spread over more than the bound (quartile distance
  over median), so that no such move could be seen, unless every change run
  reads better than every parent run.

The tool exits 1 if a run fails or prints no result line, and 0 otherwise,
whatever the verdicts: it reports, and the reader judges.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

CLAIM_WINS = (9, 10)  # the change must win at least 9 pairs in 10


def tree_label(tree: Path) -> str:
    """The tree's commit (with ``-dirty`` for uncommitted changes) when it is
    a git checkout, else its directory name."""
    done = subprocess.run(["git", "-C", str(tree), "describe", "--always", "--dirty"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else tree.resolve().name


def bench_run(tree: Path, workload: str, seed: int, seconds: float, holdout: bool) -> dict:
    """One ``scenariobench/run.py`` run in ``tree``: its result line, with the
    provenance it printed under the key ``provenance``."""
    argv = [sys.executable, "scenariobench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)] + (["--holdout"] if holdout else [])
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{tree_label(tree)}: run.py exited {done.returncode}: {done.stderr.strip()}")
    result = json.loads(lines[-1])
    provenance = [line.split(": ", 1)[1] for line in lines if line.startswith("provenance: ")]
    result["provenance"] = json.loads(provenance[0]) if provenance else None
    return result


def quartiles(values: list) -> list:
    """The first and third quartiles (a single value is both)."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def summarize(runs: list, better: dict) -> dict:
    """Per metric of ``better`` ({name: "higher" | "lower"}), the medians and
    quartiles of each side, change_rel and wins, over ``runs`` (one
    {"parent": {name: value}, "change": {...}} per pair)."""
    metrics = {}
    for name, way in better.items():
        parent = [r["parent"][name] for r in runs]
        change = [r["change"][name] for r in runs]
        sign = 1.0 if way == "higher" else -1.0
        p_med, c_med = statistics.median(parent), statistics.median(change)
        metrics[name] = {
            "parent_median": p_med,
            "parent_quartiles": quartiles(parent),
            "change_median": c_med,
            "change_quartiles": quartiles(change),
            "change_rel": c_med / p_med - 1.0 if p_med else 0.0,
            "wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        }
    return metrics


def failed(runs: list, side: str) -> int:
    """The scenarios that failed over every run of one side."""
    return sum(r[f"{side}_failed"] for r in runs)


def claims(metrics: dict, better: dict, runs: list) -> list:
    """The metrics that meet the claim rule over ``runs``: at least
    CLAIM_WINS[1] pairs, wins in at least CLAIM_WINS of them, and a median
    moved the better way by more than the parent's quartile distance; none
    when the change fails more scenarios than the parent, since a gain
    bought with failures is no gain."""
    met = []
    pairs = len(runs)
    if pairs < CLAIM_WINS[1] or failed(runs, "change") > failed(runs, "parent"):
        return met
    for name, m in metrics.items():
        q1, q3 = m["parent_quartiles"]
        gain = (m["change_median"] - m["parent_median"]) * (1.0 if better[name] == "higher" else -1.0)
        if m["wins"] * CLAIM_WINS[1] >= CLAIM_WINS[0] * pairs and gain > q3 - q1:
            met.append(name)
    return met


def regressions(metrics: dict, better: dict, bounds: dict, runs: list) -> tuple:
    """(worse, unresolved): the metrics whose change median is worse than the
    parent's by more than their relative bound, and those whose runs on
    either side spread (quartile distance over median) wider than it, unless
    every change run of ``runs`` reads better than every parent run."""
    worse, unresolved = [], []
    for name, m in metrics.items():
        bound = bounds[name]
        sign = 1.0 if better[name] == "higher" else -1.0
        p_med, c_med = m["parent_median"], m["change_median"]
        if sign * (c_med - p_med) < -bound * abs(p_med):
            worse.append(name)
        elif (any(med and (q3 - q1) / abs(med) > bound
                  for med, (q1, q3) in ((p_med, m["parent_quartiles"]), (c_med, m["change_quartiles"])))
              and not min(sign * r["change"][name] for r in runs) > max(sign * r["parent"][name] for r in runs)):
            unresolved.append(name)
    return worse, unresolved


def report(workload: str, pool: str, entry: dict) -> list:
    """The printed table of one workload and pool, and its two verdicts."""
    lines = [f"{workload}/{pool}: {entry['pairs']} pairs, seeds {entry['seeds'][0]}-{entry['seeds'][-1]}",
             f"{'metric':18s} {'parent median [q1, q3]':>32s} {'change median [q1, q3]':>32s} {'change':>8s} {'wins':>6s}"]
    for name, m in entry["metrics"].items():
        cells = [f"{m[f'{side}_median']:.4g} [{m[f'{side}_quartiles'][0]:.4g}, {m[f'{side}_quartiles'][1]:.4g}]"
                 for side in ("parent", "change")]
        lines.append(f"{name:18s} {cells[0]:>32s} {cells[1]:>32s} {m['change_rel']:+8.2%} "
                     f"{m['wins']:>3d}/{entry['pairs']:<2d}")
    lines.append(f"claims (>= {CLAIM_WINS[1]} pairs, wins in {CLAIM_WINS[0]} of {CLAIM_WINS[1]}, "
                 f"median beyond the parent's IQR): "
                 + (", ".join(entry["claims"]) or "none"))
    lines.append("regressions beyond the BENCHMARK.json bound: " + (", ".join(entry["regressions"]) or "none")
                 + "; unresolved: " + (", ".join(entry["unresolved"]) or "none"))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="the tree to compare against")
    parser.add_argument("change", type=Path, help="the tree whose gain is judged")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--holdout", action="store_true", help="use the held-out input pool")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="the first pair's run seed")
    parser.add_argument("--out", type=Path, help="the BENCH_*.json file to write into")
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    pool = "holdout" if args.holdout else "main"
    trees = {"parent": args.parent, "change": args.change}

    runs, seeds, provenance = [], [], {}
    try:
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                result = bench_run(trees[side], args.workload, seed, seconds, args.holdout)
                provenance.setdefault(side, result["provenance"])
                pair[side] = {name: m["value"] for name, m in result["metrics"].items()}
                pair[f"{side}_failed"] = result["failed"]
            print(f"pair {i + 1}/{args.pairs} (seed {seed}, {order[0]} first): "
                  + ", ".join(f"{side} {pair[side]['scenarios_per_s']:.1f}" for side in trees)
                  + " scenarios/s", flush=True)
            runs.append(pair)
            seeds.append(seed)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1

    metrics = summarize(runs, better)
    worse, unresolved = regressions(metrics, better, bounds, runs)
    entry = {"pairs": args.pairs, "seeds": seeds, "metrics": metrics, "claims": claims(metrics, better, runs),
             "regressions": worse, "unresolved": unresolved, "runs": runs}
    print("\n".join(report(args.workload, pool, entry)))

    if args.out is not None:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc.update({
            "command": "python3 scenariobench/run.py --workload W --seed S --seconds T [--holdout], in each tree",
            "method": (f"tools/benchpair.py: pairs of parent and change runs on one seed each, alternating which "
                       f"side runs first; medians and quartiles over the runs; 'wins' counts the pairs where the "
                       f"change reads better; a claim needs at least {CLAIM_WINS[1]} pairs, wins in "
                       f"{CLAIM_WINS[0]} of {CLAIM_WINS[1]} of them and a median beyond the parent's quartile "
                       f"distance"),
            "parent": tree_label(args.parent),
            "change": tree_label(args.change),
        })
        doc.setdefault("workloads", {}).setdefault(args.workload, {})[pool] = {
            **entry, "seconds": seconds, "provenance": provenance}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
