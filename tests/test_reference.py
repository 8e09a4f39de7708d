"""The package is what the product loads, the per-state oracle
(``tests/oracle.py``) stands apart from the stacked pipeline it checks, and a
report does not depend on the Kraus representation of its instrument: the
paper identifies an instrument with its channel."""

import ast
import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
from oracle import channel_roundtrip
from qinstr import harness
from qinstr.harness import ACCEPTANCE_GRID, example_scenario, random_scenario, run_scenario
from test_harness import RUN_SCENARIO_CALLS

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
    "dual_ensemble",
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


def _close(x: float, y: float) -> bool:
    return x == y if math.isinf(x) or math.isinf(y) else abs(x - y) <= 1e-12


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("shape", ACCEPTANCE_GRID)
def test_report_does_not_depend_on_the_kraus_representation(shape, seed):
    s = random_scenario(*shape, seed=seed)
    rebuilt = channel_roundtrip(s.instrument)
    assert not np.array_equal(rebuilt.kraus_stack, s.instrument.kraus_stack)
    a = run_scenario(s)
    b = run_scenario(dataclasses.replace(s, instrument=rebuilt))
    assert b["purity_preserving"] == a["purity_preserving"]
    assert b["hall_skipped"] == a["hall_skipped"]
    assert [c["name"] for c in b["checks"]] == [c["name"] for c in a["checks"]]
    assert b["panel"].keys() == a["panel"].keys()
    assert all(_close(b["panel"][k], a["panel"][k]) for k in a["panel"])
    assert all(_close(cb["lhs"], ca["lhs"]) and _close(cb["rhs"], ca["rhs"]) for ca, cb in zip(a["checks"], b["checks"]))
    assert _close(b["quantum_info_gain"], a["quantum_info_gain"])
