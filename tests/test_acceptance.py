"""End-to-end acceptance gate: the seeded 200-trial random suite plus the desk
examples, with one printed pass/fail line per criterion."""

import math
import time

import numpy as np
import pytest

import conftest

from qinstr import matcore
from qinstr.harness import (
    ACCEPTANCE_GRID,
    emit_report,
    example_scenario,
    main,
    random_scenario,
    run_acceptance_suite,
    run_scenario,
    splitmix64,
)
from qinstr.infobounds import INEQ_TOL, analyze, entropy_panel
from qinstr.instrument import random_instrument
from qinstr.qstate import DensityMatrix
from oracle import a_posteriori, a_priori_state, q_rel_entropy, quantum_info_gain, random_density, total_channel

MASTER_SEED = 20240817
TRIALS = 200

INEQUALITY_NAMES = (
    "sww",
    "holevo",
    "bl1",
    "lower_bound",
    "scutaru1_ic_ge_chi_eps_if",
    "scutaru1_chi_eps_if_ge_chi_eps_i",
    "scutaru1_chi_eps_if_ge_chi_eps_f",
    "scutaru2_ic_ge_chi_eps_i",
    "scutaru2_ic_ge_chi_tau_f",
    "scutaru2_chi_eps_i_ge_gamma",
    "scutaru2_chi_tau_f_ge_gamma",
    "hall_bound",
    "new_bound",
)

IDENTITY_NAMES = (
    "idts_out",
    "idts_in",
    "chain_via_out",
    "chain_via_in",
    "chain_via_joint",
)


def _verdict(number, ok, detail):
    line = f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)  # echoed in the terminal summary
    assert ok, line


def _named(report, name):
    return [c for c in report["checks"] if c["name"] == name]


@pytest.fixture(scope="session")
def suite():
    """The suite's reports, its summary and its wall time, which the suite
    itself does not time, so that its output is the same on every run."""
    started = time.perf_counter()
    reports, summary = run_acceptance_suite(trials=TRIALS, master_seed=MASTER_SEED)
    return reports, summary, time.perf_counter() - started


def test_criterion_1_inequality_suite(suite):
    reports, summary, runtime = suite
    worst = {}
    for r in reports:
        for name in INEQUALITY_NAMES:
            for c in _named(r, name):
                if name not in worst or c["slack"] < worst[name]:
                    worst[name] = c["slack"]
    violations = {k: v for k, v in worst.items() if v < -1e-8}
    ok = not violations and summary["failures"] == 0 and runtime < 60.0
    _verdict(
        1,
        ok,
        f"{TRIALS} trials, 0 required: {summary['failures']} failures, "
        f"min slack {min(worst.values()):.3e}, runtime {runtime:.1f}s",
    )


def rel_entropy_panel(s):
    """The six panel chi's in their q_rel_entropy form, from states built one at
    a time and checked (DensityMatrix) by the per-state a_posteriori and
    total_channel: independent of the stacked path the report takes."""
    e, ins = s.ensemble, s.instrument
    letters = [DensityMatrix(m) for m in e.states]
    eta_i = a_priori_state(e)
    eta_f = total_channel(ins, eta_i)
    grid = [a_posteriori(ins, rho) for rho in letters]
    post_letter = [total_channel(ins, rho) for rho in letters]
    post_mean = a_posteriori(ins, eta_i).states
    joint = e.probs[:, None] * np.array([fam.probs.probs for fam in grid])
    joint = joint / joint.sum()
    p_f = joint.sum(axis=0)
    cells = [(a, w) for a, w in zip(*np.nonzero(joint > 1e-12))]

    def rel(weights, members, barycenter):
        return sum(p * q_rel_entropy(m, barycenter) for p, m in zip(weights, members) if p > 1e-12)

    def mean_over_cells(barycenter_of):
        return sum(
            joint[a, w] * q_rel_entropy(grid[a].states[w], barycenter_of(a, w)) for a, w in cells
        )

    return {
        "chi_initial": rel(e.probs, letters, eta_i),
        "chi_post": rel(e.probs, post_letter, eta_f),
        "chi_out": rel(p_f, post_mean, eta_f),
        "chi_joint": mean_over_cells(lambda a, w: eta_f),
        "mean_chi_given_out": mean_over_cells(lambda a, w: post_mean[w]),
        "mean_chi_given_in": mean_over_cells(lambda a, w: post_letter[a]),
    }


def test_criterion_2_identity_suite(suite):
    reports, _, _ = suite
    worst = 0.0
    for r in reports:
        for name in IDENTITY_NAMES:
            for c in _named(r, name):
                worst = max(worst, abs(c["slack"]))
    # the identity rows agree by construction, so every panel chi is also held
    # to its relative-entropy form, computed one state at a time
    worst_chi = 0.0
    for index, r in enumerate(reports):
        d1, d2, nl, no, kp = ACCEPTANCE_GRID[index % len(ACCEPTANCE_GRID)]
        s = random_scenario(d1, d2, nl, no, kp, splitmix64(MASTER_SEED + index))
        for name, value in rel_entropy_panel(s).items():
            worst_chi = max(worst_chi, abs(r["panel"][name] - value))
    _verdict(
        2,
        worst <= 1e-9 and worst_chi <= 1e-10,
        f"max identity deviation {worst:.3e} (<= 1e-9), max panel chi deviation "
        f"from the q_rel_entropy form {worst_chi:.3e} (<= 1e-10)",
    )


def test_criterion_3_desk_zero_one_plus():
    report = run_scenario(example_scenario("zero-one-plus"))
    i_c = report["panel"]["classical_mi"]
    chi = report["panel"]["chi_initial"]
    sww = _named(report, "sww")[0]
    ok = (
        abs(i_c - 0.21576) <= 1e-4
        and abs(chi - 0.41654) <= 1e-4
        and report["panel"]["mean_chi_given_out"] <= 1e-9
        and abs(sww["slack"] - (chi - i_c)) <= 1e-9
    )
    _verdict(3, ok, f"I_c={i_c:.5f}, chi={chi:.5f}, SWW slack = chi - I_c")


def test_criterion_4_desk_orthogonal_projective():
    report = run_scenario(example_scenario("orthogonal-projective"))
    i_c = report["panel"]["classical_mi"]
    chi = report["panel"]["chi_initial"]
    holevo = _named(report, "holevo")[0]
    from oracle import build_hall_instrument

    s = example_scenario("orthogonal-projective")
    h = build_hall_instrument(s.ensemble, a_priori_state(s.ensemble))
    # with orthogonal pure letters the Kraus operator M(a) is the projector
    # |a><a|, i.e. the letter state itself
    dev = max(
        float(np.max(np.abs(m.kraus[0] - rho)))
        for m, rho in zip(h.maps, s.ensemble.states)
    )
    ok = (
        abs(i_c - math.log(2)) <= 1e-10
        and abs(chi - math.log(2)) <= 1e-10
        and abs(holevo["slack"]) <= 1e-10
        and dev <= 1e-9
    )
    _verdict(4, ok, f"I_c = chi = ln 2, Holevo slack 0, Hall Kraus dev {dev:.2e}")


def test_criterion_5_hall_duality(suite):
    reports, _, _ = suite
    ran = 0
    worst_law = 0.0
    worst_ic = 0.0
    worst_iq = 0.0
    for r in reports:
        if r["hall_skipped"] is not None:
            continue
        ran += 1
        worst_law = max(worst_law, abs(_named(r, "duality_conditional_law")[0]["slack"]))
        worst_ic = max(worst_ic, abs(_named(r, "duality_ic")[0]["slack"]))
        worst_iq = max(worst_iq, abs(_named(r, "new_iq_identity")[0]["slack"]))
    ok = ran > 0 and worst_law <= 1e-9 and worst_ic <= 1e-9 and worst_iq <= 1e-9
    _verdict(
        5,
        ok,
        f"{ran} invertible trials: law dev {worst_law:.2e}, I_c dev {worst_ic:.2e}, "
        f"I_q identity dev {worst_iq:.2e}",
    )


def test_criterion_6_groenewold_lindblad(suite):
    reports, _, _ = suite
    rank1_all_pp = True
    min_gain_slack = math.inf
    found_non_pp_multi = False
    for index, r in enumerate(reports):
        kraus_per_outcome = ACCEPTANCE_GRID[index % len(ACCEPTANCE_GRID)][4]
        if kraus_per_outcome == 1:
            if not r["purity_preserving"]:
                rank1_all_pp = False
        elif not r["purity_preserving"]:
            found_non_pp_multi = True
        for c in _named(r, "gl_info_gain_nonneg"):
            min_gain_slack = min(min_gain_slack, c["slack"])
    ok = rank1_all_pp and found_non_pp_multi and min_gain_slack >= -1e-8
    _verdict(
        6,
        ok,
        f"all rank-1 purity-preserving, non-PP multi-Kraus witness found, "
        f"min I_q {min_gain_slack:.3e}",
    )


def test_every_instrument_outside_the_purity_class_has_a_pure_witness(suite):
    """The converse of criterion 6's class: on a pure input the gain is
    -sum_w P(w) S(psi_w) <= 0, zero iff every a posteriori state is pure, so
    an instrument classified non-purity-preserving must take a pure state to a
    negative gain. On every such suite instrument, a basis ket or the uniform
    superposition does, by more than INEQ_TOL."""
    reports, _, _ = suite
    witnessed = []
    for index, r in enumerate(reports):
        if not r["purity_preserving"]:
            d1, *shape = ACCEPTANCE_GRID[index % len(ACCEPTANCE_GRID)]
            ins = random_scenario(d1, *shape, splitmix64(MASTER_SEED + index)).instrument
            family = [*np.eye(d1), np.ones(d1)]
            witnessed.append(min(quantum_info_gain(ins, conftest.pure(v)) for v in family))
    assert witnessed and max(witnessed) < -INEQ_TOL, max(witnessed)


def test_criterion_7_uhlmann_monotonicity():
    rng = np.random.default_rng(MASTER_SEED)
    worst_channel = -math.inf
    for k in range(100):
        s, t = random_density(2, rng), random_density(2, rng)
        chan = random_instrument(2, 2, 1, 3, seed=int(rng.integers(2 ** 31)))
        delta = q_rel_entropy(total_channel(chan, s), total_channel(chan, t)) - q_rel_entropy(s, t)
        worst_channel = max(worst_channel, delta)

    worst_pt = -math.inf
    for k in range(100):
        s12, t12 = random_density(4, rng), random_density(4, rng)
        s1 = DensityMatrix(matcore.partial_trace(s12.mat, "second", 2, 2))
        t1 = DensityMatrix(matcore.partial_trace(t12.mat, "second", 2, 2))
        worst_pt = max(worst_pt, q_rel_entropy(s1, t1) - q_rel_entropy(s12, t12))

    ok = worst_channel <= 1e-8 and worst_pt <= 1e-8
    _verdict(
        7,
        ok,
        f"max entropy increase: channels {worst_channel:.3e}, "
        f"partial trace {worst_pt:.3e} (<= 1e-8)",
    )


def test_criterion_8_strictness_witness(suite):
    reports, _, _ = suite
    max_posterior_chi = max(r["panel"]["mean_chi_given_out"] for r in reports)
    max_d_term = 0.0
    for r in reports:
        nb = _named(r, "new_bound")
        if nb:
            max_d_term = max(max_d_term, r["panel"]["chi_initial"] - nb[0]["rhs"])
    ok = max_posterior_chi > 1e-6 and max_d_term > 1e-6
    _verdict(
        8,
        ok,
        f"max posterior-chi term {max_posterior_chi:.3e}, max D-term {max_d_term:.3e} "
        f"(both > 1e-6)",
    )


def test_criterion_9_determinism_and_interface(tmp_path, capsys):
    s = example_scenario("zero-one-plus")
    byte_identical = emit_report(run_scenario(s), "json") == emit_report(run_scenario(s), "json")

    import json

    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(s.to_json()))
    code_pass = main(["analyze", str(path)])
    code_missing = main(["analyze", str(tmp_path / "absent.json")])
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code_bad = main(["analyze", str(bad)])
    capsys.readouterr()

    ok = byte_identical and code_pass == 0 and code_missing == 2 and code_bad == 2
    _verdict(
        9,
        ok,
        f"byte-identical reports: {byte_identical}; exit codes "
        f"pass={code_pass}, missing={code_missing}, malformed={code_bad}",
    )


def test_suite_cross_check_against_direct_panel(suite):
    # spot-check three suite reports against an independent re-derivation of
    # I_c from the joint table
    for index in (0, 57, 143):
        d1, d2, nl, no, kp = ACCEPTANCE_GRID[index % len(ACCEPTANCE_GRID)]
        seed = splitmix64(MASTER_SEED + index)
        sc = random_scenario(d1, d2, nl, no, kp, seed)
        ms = analyze(sc.ensemble, sc.instrument)
        joint = ms.joint
        p_r, p_c = joint.sum(axis=1), joint.sum(axis=0)
        direct = sum(
            joint[a, w] * math.log(joint[a, w] / (p_r[a] * p_c[w]))
            for a in range(joint.shape[0])
            for w in range(joint.shape[1])
            if joint[a, w] > 1e-15
        )
        assert abs(ms.classical_mi - direct) < 1e-10
        assert abs(entropy_panel(ms)["classical_mi"] - direct) < 1e-10
