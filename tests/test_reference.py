"""The package is what the product loads, and the per-state oracle
(``tests/oracle.py``) stands apart from the stacked pipeline it checks;
``tests/test_corpus.py`` holds every report of the corpus to it."""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import oracle
from conftest import RUN_SCENARIO_CALLS
from qinstr import harness
from qinstr.harness import example_scenario

PACKAGE = Path(harness.__file__).resolve().parent
# every public function and class of the oracle
ORACLE = {name for name, v in vars(oracle).items()
          if (inspect.isfunction(v) or inspect.isclass(v)) and v.__module__ == oracle.__name__ and name[0] != "_"}


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
