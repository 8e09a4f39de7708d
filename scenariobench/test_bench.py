"""Tests of the benchmark itself:  python3 -m pytest scenariobench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import refcheck
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD, SEED, FEW = "rank_deficient", 3, 4


@pytest.fixture(scope="module")
def setup():
    q, scenarios, setup_s = run.setup(WORKLOAD, SEED, "main")
    refs = refcheck.load_reference(WORKLOAD, "main")["reports"]
    return q, scenarios[:FEW], refs, setup_s


def printed(capsys, result, metrics, notes):
    run.emit({"workload": WORKLOAD}, result, metrics, notes)
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_short_run_prints_every_end_to_end_metric(setup, capsys):
    q, scenarios, refs, setup_s = setup
    lines, result = printed(capsys, *run.end_to_end(q, scenarios, refs, 0.0, setup_s))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == FEW
    for spec in SPEC["end_to_end"]:
        got = result["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"] and got["value"] > 0
        assert any(line.startswith(f"{spec['name']}: ") and line.endswith(f" {spec['unit']}") for line in lines)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def traced(setup, capsys):
    q, scenarios, refs, _ = setup
    return printed(capsys, *run.per_layer(q, scenarios, refs, WORKLOAD, {}))


def test_short_traced_run_prints_every_per_layer_metric(setup, capsys):
    lines, result = traced(setup, capsys)
    assert result["correct"] and result["attempted"] == 2 * FEW
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for spec in SPEC["per_layer"]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
        assert any(line.startswith(f"{spec['name']}: ") and line.endswith(f" {spec['unit']}") for line in lines)


def test_per_layer_counts_repeat_across_traced_runs(setup, capsys):
    counts = [
        {k: v["value"] for k, v in traced(setup, capsys)[1]["metrics"].items()
         if v["unit"] == "count" or k.endswith("_share")}
        for _ in range(2)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["matcore.eig"] > 0 and counts[0]["hallmap.skipped_share"] == 1.0


def test_tail_percentile_does_not_depend_on_the_number_of_passes():
    one = [0.1 * ((7 * i) % 48 + 1) for i in range(48)]
    first = run.timing(one, 48)
    assert first["tail_pct"] == 100.0 * 38 / 48  # 10 of 48 samples above it
    for passes in (2, 3):
        again = run.timing(one * passes, 48)
        assert again == pytest.approx(first)


def test_check_rejects_perturbed_report(setup):
    q, scenarios, refs, _ = setup
    key, text = scenarios[0]
    report = json.loads(run.analyze_json(q.harness, text))
    assert refcheck.mismatches(report, refs[key]) == []
    report["panel"]["chi_initial"] += 1e-6
    assert any("chi_initial" in m for m in refcheck.mismatches(report, refs[key]))
    report["panel"]["chi_initial"] -= 1e-6
    report["checks"][0]["rhs"] += 1e-6
    assert refcheck.mismatches(report, refs[key])
    report["checks"][0]["rhs"] -= 1e-6
    report["checks"].pop()
    assert refcheck.mismatches(report, refs[key])


def test_every_pool_input_has_a_reference():
    for workload, slots in workloads.SLOTS.items():
        for pool in workloads.POOL_SEEDS:
            keys = set(refcheck.load_reference(workload, pool)["reports"])
            assert keys == {f"{s}:{v}" for s in range(len(slots)) for v in range(workloads.VARIANTS)}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOAD, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
