"""What a report keeps across numpy's SIMD dispatch and OpenBLAS's kernel.

A child Python runs with numpy's dispatched SIMD targets switched off
(``NPY_DISABLE_CPU_FEATURES``, read by numpy at import) and, where asked, an
older OpenBLAS kernel (``OPENBLAS_CORETYPE``). Both variables are set for the
child process alone. A report's values, checks, purity class and Hall skip
agree with the parent's; the fingerprints of generated scenarios, and of
letters that ingest clamps, do not (the strict xfail below)."""

import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import GOLDEN_GENERATED, GOLDEN_PURE_LETTERS, golden_pure_letters
from qinstr import harness
from qinstr.harness import EXAMPLE_NAMES, emit_report, example_scenario, random_scenario, run_scenario

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

TOL = 1e-9  # infobounds.EQ_TOL, the tolerance the benchmark's reference check reads numbers at

# Reads {"texts": [scenario JSON], "specs": [random_scenario args]} on stdin;
# writes the dispatch targets still enabled, each text's JSON report and each
# spec's fingerprint.
CHILD = """
import json, sys
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from qinstr import harness
job = json.load(sys.stdin)
print(json.dumps({
    "enabled": [t for t in __cpu_dispatch__ if __cpu_features__.get(t)],
    "reports": [harness.emit_report(harness.run_scenario(harness.scenario_from_json(json.loads(t))))
                for t in job["texts"]],
    "generated": [harness._fingerprint(harness.random_scenario(*spec)) for spec in job["specs"]],
}))
"""


def enabled_dispatch() -> list:
    """numpy's dispatched SIMD targets that this process runs with."""
    return [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]


def run_child(env: dict, texts=(), specs=()) -> dict:
    src = str(Path(harness.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", CHILD],
        input=json.dumps({"texts": list(texts), "specs": list(specs)}),
        capture_output=True, text=True, check=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src, **env},
    )
    return json.loads(done.stdout)


def openblas() -> bool:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 prints only
        return False
    return "openblas" in config["Build Dependencies"]["blas"]["name"].lower()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="fingerprints depend on numpy's SIMD dispatch: generated digits and "
                          "ingest's Jacobi clamp move with it")
@pytest.mark.parametrize("case", ["read-pure-letters", "generated"])
def test_golden_fingerprints_hold_under_narrowed_dispatch(case):
    """The goldens of TestGoldenFingerprints, under numpy without its dispatched
    SIMD targets: the pure-letter scenario read back from its JSON (ingest's
    clamp moves it), and the three generated specs."""
    enabled = enabled_dispatch()
    if not enabled:
        pytest.skip("numpy runs no dispatched SIMD target here")
    env = {"NPY_DISABLE_CPU_FEATURES": " ".join(enabled)}
    if case == "read-pure-letters":
        out = run_child(env, texts=[json.dumps(golden_pure_letters().to_json())])
        got = [json.loads(r)["fingerprint"] for r in out["reports"]]
        want = [GOLDEN_PURE_LETTERS[1]]
    else:
        out = run_child(env, specs=[spec for spec, _ in GOLDEN_GENERATED])
        got, want = out["generated"], [expected for _, expected in GOLDEN_GENERATED]
    if out["enabled"]:
        pytest.skip(f"the child still runs {out['enabled']}")
    assert got == want


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=0.0, abs_tol=TOL)


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64") or not openblas(),
                    reason="the narrowed settings are those of numpy on x86-64 with OpenBLAS")
def test_analysis_is_portable_where_fingerprints_are_not():
    """The desk scenarios, the golden generated specs and the golden pure
    letters, written here as JSON and analyzed by a child with numpy's
    dispatch narrowed and OpenBLAS's Prescott kernel (the oldest x86-64 one, so
    no CPU lacks its instructions): every number agrees within TOL, and check
    names, pass flags, the purity class and the Hall skip exactly. The
    fingerprint agrees too, but for the pure letters, whose clamp reruns in
    the child; generated letters arrive as text, full rank, and are not
    clamped."""
    scenarios = {name: example_scenario(name) for name in EXAMPLE_NAMES}
    scenarios.update({f"generated-{spec[-1]}": random_scenario(*spec) for spec, _ in GOLDEN_GENERATED})
    scenarios["pure-letters"] = golden_pure_letters()
    texts = [json.dumps(s.to_json()) for s in scenarios.values()]
    env = {"OPENBLAS_CORETYPE": "Prescott", "NPY_DISABLE_CPU_FEATURES": " ".join(enabled_dispatch())}
    out = run_child(env, texts=texts)
    for name, text, theirs in zip(scenarios, texts, out["reports"], strict=True):
        ours = json.loads(emit_report(run_scenario(harness.scenario_from_json(json.loads(text)))))
        theirs = json.loads(theirs)
        if name != "pure-letters":
            assert theirs["fingerprint"] == ours["fingerprint"], name
        for key in ("purity_preserving", "hall_skipped", "overall_pass"):
            assert theirs[key] == ours[key], (name, key)
        assert theirs["panel"].keys() == ours["panel"].keys(), name
        values = [(k, theirs["panel"][k], v) for k, v in ours["panel"].items()]
        values += [(k, theirs[k], ours[k]) for k in ("quantum_info_gain", "default_state_sensitivity")]
        assert [(c["name"], c["pass"]) for c in theirs["checks"]] == [(c["name"], c["pass"]) for c in ours["checks"]]
        values += [(c["name"], t[side], c[side]) for t, c in zip(theirs["checks"], ours["checks"])
                   for side in ("lhs", "rhs")]
        assert [v for v in values if not _close(v[1], v[2])] == [], name
