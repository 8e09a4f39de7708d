import json
import math

import numpy as np
import pytest

import corpus
from conftest import (
    KET0,
    KET1,
    PLUS,
    counted,
    judged,
    orthogonal_ensemble,
    projective_qubit,
    zero_plus_ensemble,
)
from qinstr import hallmap, matcore, qstate
from qinstr.errors import QinstrError
from qinstr.hallmap import hall_section
from qinstr.harness import (
    Scenario,
    main,
    random_scenario,
    run_scenario,
    scenario_from_json,
)
from qinstr.infobounds import (
    analyze,
    entropy_panel,
    random_ensemble,
)
from qinstr.instrument import NULL_TRACE, Instrument, KrausMap, random_instrument
from qinstr.qstate import Ensemble, pure_state
from oracle import (
    a_posteriori,
    a_priori_state,
    build_hall_instrument,
    dual_ensemble,
    maximally_mixed,
    outcome_probs,
    purity,
)


DUALITY = ("duality_conditional_law", "duality_ic")
HALL = ("hall_bound",)
NEW = ("new_bound", "new_d_term_nonneg", "new_iq_identity", "new_le_holevo", "new_vs_hall_data")


def hall_checks(e, ins, names):
    """The named Hall rows of (e, ins), judged, by name."""
    ms = analyze(e, ins)
    rows = {row["name"]: row for row in judged(hall_section(ms), entropy_panel(ms))}
    return {name: rows[name] for name in names}


class TestBuildHallInstrument:
    def test_orthogonal_pair_gives_projectors(self):
        # eta = I/2, so M(a) = sqrt(1/2) |a><a| (I/2)^{-1/2} = |a><a|
        e = orthogonal_ensemble()
        h = build_hall_instrument(e, a_priori_state(e))
        assert np.allclose(h.maps[0].kraus[0], np.diag([1.0, 0.0]), atol=1e-10)
        assert np.allclose(h.maps[1].kraus[0], np.diag([0.0, 1.0]), atol=1e-10)

    def test_single_letter_is_identity(self):
        e = Ensemble(("only",), np.array([1.0]), (maximally_mixed(2).mat,))
        h = build_hall_instrument(e, a_priori_state(e))
        assert np.allclose(h.maps[0].kraus[0], np.eye(2), atol=1e-10)

    def test_singular_a_priori_rejected(self):
        e = Ensemble((0, 1), np.array([0.5, 0.5]), (KET0.mat, KET0.mat))
        with pytest.raises(QinstrError, match="^a priori state is singular: least eigenvalue at or below 1.0e-09$"):
            build_hall_instrument(e, a_priori_state(e))

    def test_normalization_holds(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            e = random_ensemble(3, 3, np.random.default_rng(seed))
            h = build_hall_instrument(e, a_priori_state(e))
            total = h.effects.sum(axis=0)
            assert np.max(np.abs(total - np.eye(3))) < 1e-9

    def test_reproduces_letter_probabilities_on_eta(self):
        # P_J(a | eta_i) = P_i(a)
        e = zero_plus_ensemble()
        h = build_hall_instrument(e, a_priori_state(e))
        probs = outcome_probs(h, a_priori_state(e))
        assert np.allclose(probs.probs, e.probs, atol=1e-10)

    def test_posteriors_on_eta_are_letter_states(self):
        # pi_{eta_i}(a) = rho_i(a)
        e = zero_plus_ensemble()
        h = build_hall_instrument(e, a_priori_state(e))
        fam = a_posteriori(h, a_priori_state(e))
        for rho, post in zip(e.states, fam.states):
            assert np.max(np.abs(post.mat - rho)) < 1e-9

    def test_pure_inputs_stay_pure(self):
        # single Kraus operator per outcome
        e = random_ensemble(2, 3, np.random.default_rng(3))
        h = build_hall_instrument(e, a_priori_state(e))
        fam = a_posteriori(h, PLUS)
        for p, s in zip(fam.probs.probs, fam.states):
            if p > 1e-12:
                assert purity(s) >= 1 - 1e-9


class TestDualEnsemble:
    def test_identity_instrument_returns_eta(self):
        e = zero_plus_ensemble()
        ins = Instrument((0,), (KrausMap(2, 2, (np.eye(2, dtype=complex),)),))
        dual = dual_ensemble(e, ins)
        assert np.allclose(dual.states[0], a_priori_state(e).mat, atol=1e-10)

    def test_barycenter_is_eta(self):
        e = random_ensemble(3, 2, np.random.default_rng(5))
        ins = random_instrument(3, 2, 3, 2, seed=6)
        dual = dual_ensemble(e, ins)
        mix = sum(p * s for p, s in zip(dual.probs.probs, dual.states) if p > 1e-12)
        assert np.max(np.abs(mix - a_priori_state(e).mat)) < 1e-9

    def test_probs_match_outcome_probs(self):
        e = zero_plus_ensemble()
        ins = projective_qubit()
        dual = dual_ensemble(e, ins)
        assert np.allclose(dual.probs.probs, [0.75, 0.25], atol=1e-10)

    def test_null_outcome_holds_the_zero_matrix(self):
        # |1> alone under the z measurement: outcome 0 holds no live cell
        single = Ensemble(("a",), np.array([1.0]), (KET1.mat,))
        dual = dual_ensemble(single, projective_qubit())
        assert not dual.states[0].any()
        assert np.allclose(dual.states[1], KET1.mat)

    def test_an_outcome_with_a_null_cell_takes_its_live_letters_dual_state(self):
        # P(A|0) = 1e-15 is null and P(A|1) = 4e-12 live: sigma_A is the dual
        # state of |1> alone, where eta's would put 2.5e-4 on |0>
        e, ins = corpus.NULL_CELL_SCENARIOS["null_cell_beside_a_near_cutoff_live_cell"]
        dual = dual_ensemble(e, ins)
        assert dual.held.tolist() == [[False, True], [True, True]]
        assert np.max(np.abs(dual.states[0] - KET1.mat)) <= 1e-15

    def test_an_outcome_with_no_null_cell_keeps_the_dual_state_of_eta(self):
        # under zero-one-plus only outcome 1 holds a null cell (P(1|0) = 0)
        e = zero_plus_ensemble()
        root = matcore.spectral_apply(a_priori_state(e).spectral(), np.sqrt)
        dual = dual_ensemble(e, projective_qubit())
        assert dual.held.tolist() == [[True, False], [True, True]]
        assert np.max(np.abs(dual.states[0] - root @ KET0.mat @ root / 0.75)) <= 1e-15
        assert np.max(np.abs(dual.states[1] - PLUS.mat)) <= 1e-15


class TestVerifyDuality:
    def test_desk_example(self):
        e = zero_plus_ensemble()
        ins = projective_qubit()
        report = hall_checks(e, ins, DUALITY)
        assert all(row["pass"] for row in report.values()), report
        assert abs(report["duality_ic"]["rhs"] - 0.2157615543388356) < 1e-10
        assert abs(report["duality_ic"]["lhs"] - 0.2157615543388356) < 1e-9


class TestHallBound:
    def test_desk_example(self):
        report = hall_checks(zero_plus_ensemble(), projective_qubit(), HALL)
        assert all(row["pass"] for row in report.values())
        check = report["hall_bound"]
        assert check["lhs"] == pytest.approx(0.2157615543388356, abs=1e-10)
        assert check["rhs"] >= check["lhs"]


class TestNewBound:
    def test_orthogonal_projective(self):
        # orthogonal pure letters, z measurement: dual states are pure, the
        # Hall instrument leaves them pure, so every I_q term vanishes and the
        # bound degenerates to Holevo: I_c = chi = log 2
        e = orthogonal_ensemble()
        report = hall_checks(e, projective_qubit(), NEW)
        assert all(row["pass"] for row in report.values()), report
        nb = report["new_bound"]
        assert abs(nb["lhs"] - math.log(2)) < 1e-9
        assert abs(nb["rhs"] - math.log(2)) < 1e-9

    def test_desk_example(self):
        report = hall_checks(zero_plus_ensemble(), projective_qubit(), NEW)
        assert all(row["pass"] for row in report.values()), report
        nb = report["new_bound"]
        assert nb["lhs"] == pytest.approx(0.2157615543388356, abs=1e-10)
        assert nb["rhs"] <= 0.4164955306996875 + 1e-10  # never above Holevo

    def test_iq_identity_reads_zero_slack(self):
        # J_a(eta) = P_a rho_a: J's law on eta is P_i and its a posteriori
        # states are the letters, so I_q{eta; J} is read from the scenario's
        # entropies as chi_initial is, and the row's two sides are one float
        # on the desk scenarios and the 144 grid scenarios (the per-state
        # oracle still builds J on eta, oracle.per_state_scalars, which
        # test_report_matches_the_per_state_oracle holds the row to)
        for inp in corpus.FAMILIES["desk"] + corpus.FAMILIES["grid"]:
            row = {c["name"]: c for c in inp.report["checks"]}["new_iq_identity"]
            assert row["slack"] == 0.0 and row["lhs"] == row["rhs"], (inp.name, row)

    def test_strictly_improves_somewhere(self):
        # the D term is strictly positive on some instance
        best = 0.0
        for seed in range(20):
            rng = np.random.default_rng(700 + seed)
            e = random_ensemble(2, 2, rng)
            ins = random_instrument(2, 2, 2, 1, seed=800 + seed)
            report = hall_checks(e, ins, NEW)
            panel = entropy_panel(analyze(e, ins))
            best = max(best, panel["chi_initial"] - report["new_bound"]["rhs"])
        assert best > 1e-6

    def test_new_vs_hall_recorded_as_data(self):
        ms = analyze(zero_plus_ensemble(), projective_qubit())
        (check,) = judged(hall_section(ms), entropy_panel(ms), kind="data", tol=0.0)
        assert check["name"] == "new_vs_hall_data"
        assert check["pass"]  # informational, never fails


class TestHallSection:
    def test_check_names_in_order(self):
        ms = analyze(zero_plus_ensemble(), projective_qubit())
        rows = judged(hall_section(ms), entropy_panel(ms))
        assert [row["name"] for row in rows] == [*DUALITY, *HALL, *NEW]

    def test_skipped_on_singular_a_priori(self):
        # run_scenario decides the skip: the fixed text, and no Hall row
        e = Ensemble((0, 1), np.array([0.5, 0.5]), (KET0.mat, KET0.mat))
        report = run_scenario(Scenario(ensemble=e, instrument=projective_qubit()))
        assert report["hall_skipped"] == "a priori state is singular: least eigenvalue at or below 1.0e-09"
        assert not {c["name"] for c in report["checks"]} & {*DUALITY, *HALL, *NEW}

    def test_near_singular_a_priori_is_analyzed(self, tmp_path):
        # eta's least eigenvalue ~1e-8 passes INVERTIBILITY_TOL, but rounding
        # in eta^{-1/2} leaves J's effects ~8e-9 off the identity, so building
        # J fails its check; the section never builds J, so it is analyzed
        eps = 1e-8
        rng = np.random.default_rng(3)
        v, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        v0, v1, v2 = v.T
        mixed = (1 - eps / 0.3) * np.outer(v1, v1.conj()) + eps / 0.3 * np.outer(v2, v2.conj())
        letters = (pure_state(v0), pure_state((v0 + v1) / np.sqrt(2)), mixed)
        e = Ensemble((0, 1, 2), np.array([0.4, 0.3, 0.3]), letters)
        s = Scenario(ensemble=e, instrument=random_instrument(3, 3, 2, 1, seed=0))
        with pytest.raises(QinstrError, match="sum of effects deviates from identity by"):
            build_hall_instrument(e, a_priori_state(e))
        path = tmp_path / "near_singular.json"
        path.write_text(json.dumps(s.to_json()))
        assert main(["analyze", str(path)]) == 0
        report = run_scenario(scenario_from_json(json.loads(path.read_text())))
        assert report["hall_skipped"] is None
        assert report["overall_pass"]
        # one Kraus operator per outcome: D is mean_chi_given_out
        checks = {c["name"]: c for c in report["checks"]}
        assert abs(checks["sww"]["slack"] - checks["new_bound"]["slack"]) <= 1e-12

    def test_singular_skip_reason_is_free_of_rounding_noise(self):
        # eta's least eigenvalue is exactly 0 for one ensemble and rounding
        # noise (~1e-17) for the other; the reports must not tell them apart
        reasons, least = [], []
        for ket in ([1, 0], [0.6, 0.8j]):
            letter = pure_state(ket)
            e = Ensemble((0, 1), np.array([0.3, 0.7]), (letter, letter))
            least.append(a_priori_state(e).spectral().eigenvalues[0])
            reasons.append(run_scenario(Scenario(ensemble=e, instrument=projective_qubit()))["hall_skipped"])
        assert least[0] == 0.0 and least[1] != 0.0
        assert reasons[0] == reasons[1]
        assert "a priori state is singular" in reasons[0]

    def test_run_scenario_builds_no_instrument(self, monkeypatch):
        # the Hall section reads J off the scenario's arrays; only the
        # scenario's own instrument is ever built, before the run
        s = random_scenario(3, 2, 3, 3, 2, seed=11)
        counts = {"instruments": 0}
        monkeypatch.setattr(Instrument, "__post_init__", counted(counts, "instruments", Instrument.__post_init__))
        report = run_scenario(s)
        assert report["hall_skipped"] is None
        assert counts == {"instruments": 0}

    def test_run_scenario_builds_the_a_priori_state_once(self, monkeypatch):
        # the one matcore.herm_eig of a run on a built scenario (the call a
        # traced benchmark run counts as matcore.eig) is the Hall section's
        # eta_w stack, and no stage builds a DensityMatrix: a derived state
        # is a plain array. Every stage calls herm_eig through matcore, so
        # this counts each call
        s = random_scenario(3, 2, 3, 3, 2, seed=11)
        counts = {"herm_eig": 0, "states": 0}
        monkeypatch.setattr(matcore, "herm_eig", counted(counts, "herm_eig", matcore.herm_eig))
        monkeypatch.setattr(qstate.DensityMatrix, "__post_init__",
                            counted(counts, "states", qstate.DensityMatrix.__post_init__))
        report = run_scenario(s)
        assert report["hall_skipped"] is None
        assert report["default_state_sensitivity"] is None
        assert counts == {"herm_eig": 1, "states": 0}


def test_d_term_is_the_mean_chi_given_out_for_one_kraus_instruments():
    """Hall's identity for K_w = U_w |K_w|: rho_a^{1/2} E(w) rho_a^{1/2} and
    K_w rho_a K_w^dag share their nonzero spectrum, and so do eta's, so the
    D-term is mean_chi_given_out and new_bound's slack is sww's. The two sides
    come from different code: J's gains on the dual states, and the panel's
    grid. With two Kraus operators per outcome D is larger. On the
    acceptance suite's 200 scenarios."""
    for inp in corpus.FAMILIES["suite"]:
        report = {c["name"]: c for c in inp.report["checks"]}
        gap = report["sww"]["slack"] - report["new_bound"]["slack"]  # D - mean_chi_given_out
        if len(inp.scenario.instrument.maps[0].kraus) == 1:
            assert abs(gap) <= 1e-12, (inp.name, gap)
        else:
            assert gap >= 1e-3, (inp.name, gap)


@pytest.mark.parametrize("t", [1e-8, 1e-9, 1e-10, 1e-11, 3e-12])
def test_near_null_dual_outcome_is_analyzed(t):
    # a valid scenario: E(1) = diag(1, t), so on the dual state of outcome 1
    # the Hall instrument's |1>-letter outcome has trace ~t, live (above
    # NULL_TRACE). Its output divided as it is lies 3.7e-10 (t = 1e-8) to
    # 1.2e-6 off Hermitian, and the Hall section failed the Hermiticity rule
    # (the CLI exited 2) while derived states were judged again; the a
    # posteriori state is read by eigvalsh, from one triangle.
    ins = Instrument((0, 1), (
        KrausMap(2, 2, (np.diag([0.0, np.sqrt(1 - t)]).astype(complex),)),
        KrausMap(2, 2, (np.diag([1.0, np.sqrt(t)]).astype(complex),)),
    ))
    tilted = pure_state(np.array([1.0, np.exp(1j)]) / np.sqrt(2))
    e = Ensemble((0, 1, 2), np.full(3, 1 / 3), (KET1.mat, KET0.mat, tilted))
    assert run_scenario(Scenario(e, ins))["overall_pass"]


@pytest.mark.parametrize("a, b", [(0.9, 1.5), (0.5, 1.9), (0.99, 1.2), (1.0, 4.0), (1.0, 1e3)])
def test_near_cutoff_outcome_is_null_in_the_hall_section(a, b, tmp_path, capsys):
    # a valid scenario: on |0> and |1> with priors 1/2, E(1) = diag(a, b) in
    # units of NULL_TRACE. The |0> cell of outcome 1 is null (a <= 1) and the
    # |1> cell live, so outcome 1 is live with P_{i|f}(0|1) = 0. J's law on the
    # dual state of outcome 1 gives letter 0 a / (a + b) unless the section
    # reads that cell as null too: once it read the effects' law (a + b) / 2
    # against a zero column, and later it counted the cell on J's own scale,
    # where (1, 4) read 0.2 and (1, 1e3) read 9.99e-4; both failed duality.
    a, b = a * NULL_TRACE, b * NULL_TRACE
    ins = Instrument((0, 1), (
        KrausMap(2, 2, (np.diag(np.sqrt([1 - a, 1 - b])).astype(complex),)),
        KrausMap(2, 2, (np.diag(np.sqrt([a, b])).astype(complex),)),
    ))
    s = Scenario(orthogonal_ensemble(), ins)
    assert outcome_probs(ins, a_priori_state(s.ensemble)).probs[1] > NULL_TRACE
    ms = analyze(s.ensemble, ins)
    assert ms.live[1] and ms.cond_in_given_out[0, 1] == 0.0
    report = run_scenario(s)
    assert report["hall_skipped"] is None
    assert {c["name"]: c for c in report["checks"]}["duality_conditional_law"]["lhs"] <= 1e-12
    assert report["overall_pass"]
    path = tmp_path / "near_cutoff.json"
    path.write_text(json.dumps(s.to_json()))
    assert main(["analyze", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["overall_pass"] is True



@pytest.mark.parametrize("shift", [2e-6, 1e-3])
def test_wrong_law_on_an_outcome_of_weight_1e_3_fails_duality(shift, monkeypatch):
    # duality_conditional_law is judged on the scale of the joint law,
    # P_f(w) |P_J(a | sigma_w) - P_{i|f}(a|w)|: on |0> and |1> with priors 1/2
    # under E(1) = 1e-3 I, outcome 1 has P_f = 1e-3, and J's law moved there by
    # `shift` from one letter to the other deviates by 1e-3 * shift > EQ_TOL
    ins = Instrument((0, 1), (
        KrausMap(2, 2, (np.sqrt(1 - 1e-3) * np.eye(2, dtype=complex),)),
        KrausMap(2, 2, (np.sqrt(1e-3) * np.eye(2, dtype=complex),)),
    ))
    ms = analyze(orthogonal_ensemble(), ins)
    assert abs(ms.output_marginal[1] - 1e-3) <= 1e-15
    row = {row["name"]: row for row in judged(hall_section(ms), entropy_panel(ms))}["duality_conditional_law"]
    assert row["lhs"] <= 1e-15 and row["pass"]
    posteriors = hallmap._posteriors

    def wrong(outs):
        law, posts = posteriors(outs)
        law[:, 1] += [shift, -shift]
        return law, posts

    monkeypatch.setattr(hallmap, "_posteriors", wrong)
    row = {row["name"]: row for row in judged(hall_section(ms), entropy_panel(ms))}["duality_conditional_law"]
    assert abs(row["lhs"] - 1e-3 * shift) <= 1e-15
    assert not row["pass"]
