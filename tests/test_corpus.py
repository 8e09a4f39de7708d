"""Every oracle on every input of the corpus (``tests/corpus.py``) but the
pairs its table leaves out, with no recorded reference; a case is (input,
oracle), and a seeded oracle's draws take the input's seeds. Within 1e-12:
every number of a report but the GL check's is ``oracle.per_state_scalars``'
(judged by ``harness.judged_rows``); its GL rows are ``oracle.sequential_gl``'s
at the scenario's own trials, seed and demixtures, and its purity class is
the one that oracle samples; no transformation of
``oracle.TRANSFORMS`` moves a panel entry or a check; and under each channel
of ``oracle.RELATIONS`` the panel entries that read its output do not rise,
and those that read neither side of it stay."""

import pytest

import corpus
from oracle import RELATIONS, TRANSFORMS, sequential_gl
from qinstr import harness
from qinstr.harness import run_scenario
from qinstr.infobounds import analyze, entropy_panel

TOL = 1e-12


def name_of(value):
    """An input's test id is its name; a seed or an oracle name is its own."""
    return value.name if isinstance(value, corpus.Input) else None


@pytest.mark.parametrize("inp", corpus.inputs("per_state_scalars"), ids=name_of)
def test_report_matches_the_per_state_oracle(inp):
    corpus.RAN["per_state_scalars", inp.family] += 1
    s, report, scalars = inp.scenario, inp.report, inp.scalars
    assert report["overall_pass"] is True
    unit = harness.NATS_PER_UNIT[s.log_base]
    for key, value in (*report["panel"].items(), ("quantum_info_gain", report["quantum_info_gain"])):
        assert abs(value - scalars[key] / unit) <= TOL, (key, value, scalars[key])
    checks = [c for c in report["checks"] if not c["name"].startswith("gl_")]
    rows = harness.judged_rows(scalars, s.log_base, s.tol)
    assert [row["name"] for row in rows] == [c["name"] for c in checks]
    for row, c in zip(rows, checks):
        assert abs(row["lhs"] - c["lhs"]) <= TOL and abs(row["rhs"] - c["rhs"]) <= TOL, (row, c)


@pytest.mark.parametrize("inp", corpus.inputs("sequential_gl"), ids=name_of)
def test_gl_rows_match_the_sequential_oracle(inp):
    corpus.RAN["sequential_gl", inp.family] += 1
    s, report = inp.scenario, inp.report
    preserving, checks = sequential_gl(s.instrument, s.gl_trials, s.seed, s.gl_demix)
    assert report["purity_preserving"] == preserving
    unit = harness.NATS_PER_UNIT[s.log_base]
    rows = [c for c in report["checks"] if c["name"].startswith("gl_")]
    assert [row["name"] for row in rows] == [name for name, _, _ in checks]
    for row, (_, lhs, rhs) in zip(rows, checks):
        assert abs(row["lhs"] - lhs / unit) <= TOL and abs(row["rhs"] - rhs / unit) <= TOL, (row, lhs, rhs)


@pytest.mark.parametrize("inp, name, seed", [
    (inp, name, seed) for name in TRANSFORMS for inp, seed in corpus.cases(name)], ids=name_of)
def test_report_is_invariant(inp, name, seed):
    corpus.RAN[name, inp.family] += 1
    transform, moves_gl = TRANSFORMS[name]
    a, b = inp.report, run_scenario(transform(inp.scenario, seed))
    assert b["purity_preserving"] == a["purity_preserving"]
    assert b["hall_skipped"] == a["hall_skipped"]
    assert [c["name"] for c in b["checks"]] == [c["name"] for c in a["checks"]]
    assert b["panel"].keys() == a["panel"].keys()
    for k in a["panel"]:
        assert abs(b["panel"][k] - a["panel"][k]) <= TOL, k
    for ca, cb in zip(a["checks"], b["checks"]):
        if not (moves_gl and ca["name"].startswith("gl_")):
            assert abs(cb["lhs"] - ca["lhs"]) <= TOL and abs(cb["rhs"] - ca["rhs"]) <= TOL, (ca, cb)
    assert abs(b["quantum_info_gain"] - a["quantum_info_gain"]) <= TOL
    assert b["default_state_sensitivity"] == a["default_state_sensitivity"]


@pytest.mark.parametrize("inp, name, seed", [
    (inp, name, seed) for name in RELATIONS for inp, seed in corpus.cases(name)], ids=name_of)
def test_panel_is_ordered(inp, name, seed):
    corpus.RAN[name, inp.family] += 1
    channel, fall, stay = RELATIONS[name]
    fine = inp.report["panel"]  # in nats: every corpus scenario reads base e
    coarse = entropy_panel(analyze(*channel(inp.scenario, seed)))
    for entry in fall:
        assert coarse[entry] <= fine[entry] + TOL, entry
    for entry in fine if stay is None else stay:
        assert abs(coarse[entry] - fine[entry]) <= TOL, entry


def test_every_oracle_runs_on_every_family_or_says_why():
    # a pair runs or has its reason in the table, never both; a key names an oracle and a family or input
    for name in corpus.ORACLES:
        ran = {inp.family for inp in corpus.inputs(name)}
        for family in corpus.FAMILIES:
            assert (family in ran) != ((name, family) in corpus.LEFT_OUT), (name, family)
    for name, what in corpus.LEFT_OUT:
        assert name in corpus.ORACLES and (what in corpus.FAMILIES or what in corpus.INPUTS), (name, what)
    assert all(inp.scenario.log_base == "e" for inp in corpus.INPUTS.values())


def test_the_edge_slots_skip_hall_and_each_basis_slot_holds_a_null_outcome():
    for inp in corpus.FAMILIES["edge"]:
        assert inp.report["hall_skipped"] is not None  # eta is singular
        if "basis" in inp.name:
            assert analyze(inp.scenario.ensemble, inp.scenario.instrument).output_marginal.min() == 0.0
