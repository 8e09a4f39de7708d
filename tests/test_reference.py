"""The package is what the product loads, the per-state oracle
(``tests/oracle.py``) stands apart from the stacked pipeline it checks, and
every number of a report but the GL check's equals the oracle's
(``oracle.per_state_scalars``, judged by ``harness.judged_rows``) within
1e-12: each panel entry, the information gain and both sides of each row."""

import ast
import functools
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
from qinstr import harness
from qinstr.harness import (
    ACCEPTANCE_GRID, EXAMPLE_NAMES, Scenario, example_scenario, random_scenario, run_scenario, splitmix64)
from test_acceptance import MASTER_SEED, TRIALS
from test_harness import RUN_SCENARIO_CALLS
from test_infobounds import NULL_CELL_SCENARIOS
from test_symmetry import EDGE_SLOTS, edge_id, edge_scenario

PACKAGE = Path(harness.__file__).resolve().parent
ORACLE = (
    "q_rel_entropy",
    "c_rel_entropy",
    "mixed_rel_entropy",
    "fidelity_like_support_check",
    "maximally_mixed",
    "AposterioriFamily",
    "a_posteriori",
    "apply_outcome",
    "total_channel",
    "channel_roundtrip",
    "quantum_info_gain",
    "merge_outcomes",
    "outcome_probs",
    "DualEnsemble",
    "build_hall_instrument",
    "dual_states",
    "dual_ensemble",
    "live_letters_hall_read",
    "per_state_scalars",
)


class TestLayout:
    def test_the_product_loads_every_package_module(self, tmp_path):
        # -X importtime lists on stderr every module the run imports; -m runs
        # __main__ as the main module, so it is not imported
        path = tmp_path / "scenario.json"
        path.write_text(harness.json_text(example_scenario("zero-one-plus").to_json()))
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "qinstr", "analyze", str(path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["overall_pass"] is True
        loaded = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
        package = {f"qinstr.{p.stem}" for p in PACKAGE.glob("*.py")} - {"qinstr.__init__", "qinstr.__main__"}
        assert sorted(package - loaded) == []

    def test_the_oracle_stands_apart(self):
        for path in sorted(PACKAGE.glob("*.py")):
            defined = set()
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined.add(node.name)
                elif isinstance(node, ast.Assign):
                    defined |= {t.id for t in node.targets if isinstance(t, ast.Name)}
            assert sorted(defined & set(ORACLE)) == [], path.name
        # what the oracle reads from qinstr: the functions it imports by name,
        # and each attribute it reads off an imported qinstr module
        names = vars(oracle)
        read = [v for v in names.values() if inspect.isfunction(v) and v.__module__.startswith("qinstr.")]
        read += [
            getattr(names[node.value.id], node.attr)
            for node in ast.walk(ast.parse(inspect.getsource(oracle)))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and inspect.ismodule(names.get(node.value.id)) and names[node.value.id].__name__.startswith("qinstr.")
        ]
        stages = {fn for _, _, fn in RUN_SCENARIO_CALLS}
        assert read and stages
        assert [fn.__name__ for fn in read if fn in stages] == []


# Shapes (d1, d2, letters, outcomes, Kraus operators) beyond the grid's
# d <= 3: each (d1, d2) from {2, 3, 4, 5} with max(d1, d2) >= 4, where the
# compound states reach 25 x 25, but those that random_instrument cannot
# normalize (outcomes * Kraus * d2 < d1); and the wide workload's nine.
LARGE_SHAPES = tuple(
    (d1, d2, nl, no, kp)
    for d1 in (2, 3, 4, 5)
    for d2 in (2, 3, 4, 5)
    if max(d1, d2) >= 4
    for nl in (2, 4)
    for no in (2, 4)
    for kp in (1, 2)
    if no * kp * d2 >= d1
)
WIDE_SHAPES = tuple((5, 5, nl, no, 2) for nl in (2, 3, 4) for no in (2, 3, 4))

# the desk scenarios, the 72 grid shapes on seeds 0 and 1, the d = 4-5 shapes
# above, the 24 rank_deficient edge slots, where eta is singular and Hall is
# skipped, the 200 scenarios of the acceptance suite, whose reports the
# criteria judge, and TestNullCells' NULL_CELL_SCENARIOS, whose live cells of
# trace near NULL_TRACE the oracle reads by the pipeline's exact zeros. Left
# out: the gl_* rows, which test_batched_gl_matches_sequential holds; their
# replay by sequential_gl takes 3.2 s on the 144 grid scenarios (2-vCPU VM).
ORACLE_INPUTS = {
    **{name: functools.partial(example_scenario, name) for name in EXAMPLE_NAMES},
    **{f"grid-{seed}-" + "-".join(map(str, shape)): functools.partial(random_scenario, *shape, seed=seed)
       for seed in (0, 1) for shape in ACCEPTANCE_GRID},
    **{"large-0-" + "-".join(map(str, shape)): functools.partial(random_scenario, *shape, seed=0)
       for shape in LARGE_SHAPES},
    **{"wide-1-" + "-".join(map(str, shape)): functools.partial(random_scenario, *shape, seed=1)
       for shape in WIDE_SHAPES},
    **{f"edge-{edge_id(slot)}": functools.partial(edge_scenario, slot) for slot in EDGE_SLOTS},
    **{f"suite-{index}": functools.partial(
        random_scenario, *ACCEPTANCE_GRID[index % len(ACCEPTANCE_GRID)], seed=splitmix64(MASTER_SEED + index))
       for index in range(TRIALS)},
    **{f"null-{name}": functools.partial(Scenario, *pair) for name, pair in NULL_CELL_SCENARIOS.items()},
}


@pytest.mark.parametrize("name", ORACLE_INPUTS)
def test_report_matches_the_per_state_oracle(name):
    s = ORACLE_INPUTS[name]()
    report = run_scenario(s)
    assert report["overall_pass"] is True
    scalars = oracle.per_state_scalars(s.ensemble, s.instrument)
    unit = harness.NATS_PER_UNIT[s.log_base]
    for key, value in (*report["panel"].items(), ("quantum_info_gain", report["quantum_info_gain"])):
        assert abs(value - scalars[key] / unit) <= 1e-12, (key, value, scalars[key])
    checks = [c for c in report["checks"] if not c["name"].startswith("gl_")]
    rows = harness.judged_rows(scalars, s.log_base, s.tol)
    assert [row["name"] for row in rows] == [c["name"] for c in checks]
    for row, c in zip(rows, checks):
        assert abs(row["lhs"] - c["lhs"]) <= 1e-12 and abs(row["rhs"] - c["rhs"]) <= 1e-12, (row, c)
