"""The per-state oracle (``qinstr.reference``) stands apart from the stacked
pipeline it checks, and a report does not depend on the Kraus representation
of its instrument: the paper identifies an instrument with its channel."""

import ast
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qinstr import harness
from qinstr.harness import ACCEPTANCE_GRID, example_scenario, random_scenario, run_scenario
from qinstr.reference import channel_roundtrip

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


def _names_reference(node) -> bool:
    """Whether an import statement imports the reference module or from it."""
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[-1] == "reference" for a in node.names)
    if isinstance(node, ast.ImportFrom):
        module = (node.module or "").split(".")
        return module[-1] == "reference" or any(a.name == "reference" for a in node.names)
    return False


class TestOracleStandsApart:
    def test_analyze_never_loads_the_oracle(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(harness.json_text(example_scenario("zero-one-plus").to_json()))
        code = (
            "import sys\n"
            "from qinstr.harness import main\n"
            f"assert main(['analyze', {str(path)!r}]) == 0\n"
            "assert 'qinstr.reference' not in sys.modules\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["overall_pass"] is True

    def test_each_oracle_name_is_defined_only_in_reference(self):
        defined = {}
        for path in sorted(PACKAGE.glob("*.py")):
            tree = ast.parse(path.read_text())
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, ast.Assign):
                    names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                else:
                    continue
                for name in names:
                    defined.setdefault(name, []).append(path.name)
            if path.name != "reference.py":
                assert not any(_names_reference(n) for n in ast.walk(tree)), path.name
        assert {name: defined.get(name) for name in ORACLE} == {name: ["reference.py"] for name in ORACLE}


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
    assert b.purity_preserving == a.purity_preserving
    assert b.hall_skipped == a.hall_skipped
    assert [c.name for c in b.checks] == [c.name for c in a.checks]
    assert b.panel.keys() == a.panel.keys()
    assert all(_close(b.panel[k], a.panel[k]) for k in a.panel)
    assert all(_close(cb.lhs, ca.lhs) and _close(cb.rhs, ca.rhs) for ca, cb in zip(a.checks, b.checks))
    assert _close(b.quantum_info_gain, a.quantum_info_gain)
