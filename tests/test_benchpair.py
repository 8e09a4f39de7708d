"""The claim rule and the regression bound of ``tools/benchpair.py``, on
made-up runs: the verdicts, not the benchmark they read."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import benchpair  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
BASE = {"scenarios_per_s": 350.0, "scenario_ms_p50": 2.8, "scenario_ms_tail": 3.2,
        "ok_frac": 1.0, "setup_s": 0.07, "peak_rss_mb": 45.0}


def pairs(throughput_pairs, change_failed=0, **change):
    """One pair per (parent, change) scenarios_per_s reading; every other
    metric reads BASE on the parent and BASE updated by ``change`` on the
    change. No parent run fails a scenario, and each change run fails
    ``change_failed``."""
    return [{"parent": {**BASE, "scenarios_per_s": p}, "parent_failed": 0,
             "change": {**BASE, **change, "scenarios_per_s": c}, "change_failed": change_failed}
            for p, c in throughput_pairs]


def verdicts(runs):
    metrics = benchpair.summarize(runs, BETTER)
    return benchpair.claims(metrics, BETTER, runs), *benchpair.regressions(metrics, BETTER, BOUNDS, runs)


def test_a_tree_against_itself_claims_nothing():
    parent = [340.0, 352.0, 347.0, 361.0, 338.0, 355.0, 349.0, 344.0, 358.0, 351.0]
    runs = pairs(zip(parent, parent))
    assert verdicts(runs) == ([], [], [])
    assert all(m["wins"] == 0 and m["change_rel"] == 0.0 for m in benchpair.summarize(runs, BETTER).values())


@pytest.mark.parametrize("wins, claimed", [(10, True), (9, True), (8, False)])
def test_a_claim_needs_nine_wins_in_ten(wins, claimed):
    # the parent's quartiles lie 2.5 apart, and the change reads 10 higher in
    # each pair it wins, 1 lower in each it loses
    parent = [348.0, 349.0, 350.0, 350.0, 351.0, 351.0, 352.0, 352.0, 353.0, 354.0]
    runs = pairs((p, p + 10.0 if i < wins else p - 1.0) for i, p in enumerate(parent))
    assert verdicts(runs)[0] == (["scenarios_per_s"] if claimed else [])


def test_a_claim_needs_ten_pairs():
    runs = pairs((p, p + 10.0) for p in (348.0, 350.0, 351.0, 352.0, 354.0, 349.0, 353.0, 350.0, 351.0))
    assert verdicts(runs)[0] == []
    assert verdicts(runs + pairs([(350.0, 360.0)]))[0] == ["scenarios_per_s"]


def test_a_claim_needs_a_median_beyond_the_parent_spread():
    # ten wins, by less than the distance between the parent's quartiles
    parent = [330.0, 335.0, 340.0, 345.0, 350.0, 355.0, 360.0, 365.0, 370.0, 375.0]
    runs = pairs((p, p + 5.0) for p in parent)
    assert benchpair.summarize(runs, BETTER)["scenarios_per_s"]["wins"] == 10
    assert verdicts(runs)[0] == []


def test_a_gain_with_more_failures_claims_nothing():
    # ten wins far beyond the parent's spread, but every change run fails a
    # scenario that no parent run fails
    parent = [348.0, 349.0, 350.0, 350.0, 351.0, 351.0, 352.0, 352.0, 353.0, 354.0]
    assert verdicts(pairs((p, p + 20.0) for p in parent))[0] == ["scenarios_per_s"]
    assert verdicts(pairs(((p, p + 20.0) for p in parent), change_failed=1))[0] == []


def test_a_move_beyond_the_bound_is_a_regression():
    # peak_rss_mb is 6 % worse, past its 5 % bound; p50 2 % worse, within its 20 %
    runs = pairs(((350.0, 350.0),) * 5, peak_rss_mb=BASE["peak_rss_mb"] * 1.06,
                 scenario_ms_p50=BASE["scenario_ms_p50"] * 1.02)
    assert verdicts(runs) == ([], ["peak_rss_mb"], [])


def test_runs_spread_wider_than_the_bound_are_unresolved():
    parent = [250.0, 300.0, 350.0, 400.0, 450.0]
    assert verdicts(pairs(zip(parent, parent))) == ([], [], ["scenarios_per_s"])


def test_a_wide_spread_is_resolved_when_every_change_run_reads_better():
    # both sides spread 40 % (wider than the 20 % bound), but the slowest
    # change run beats the fastest parent run
    parent = [250.0, 300.0, 350.0, 400.0, 450.0]
    assert verdicts(pairs((p, p + 250.0) for p in parent)) == ([], [], [])
    assert verdicts(pairs((p, p + 150.0) for p in parent)) == ([], [], ["scenarios_per_s"])
