import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    KET0,
    KET1,
    PLUS,
    downstream,
    effect_sum_off_the_identity_in_every_entry,
    judged,
    orthogonal_ensemble,
    projective_qubit,
    refill,
    right_normalized,
    scaled_zero_one_plus,
    zero_plus_ensemble,
)
from corpus import FAMILIES, NULL_CELL_SCENARIOS, diagonal_instrument
from qinstr import infobounds, matcore
from qinstr.errors import QinstrError
from qinstr.harness import (
    ACCEPTANCE_GRID,
    Scenario,
    judged_rows,
    run_scenario,
)
from qinstr.infobounds import (
    INEQ_TOL,
    ScenarioEntropies,
    _floored_prior,
    _gains,
    analyze,
    compound_states,
    entropy_panel,
    groenewold_lindblad_check,
    random_ensemble,
    scutaru_chains,
)
from qinstr.instrument import (
    NULL_TRACE,
    RANK_ONE_TOL,
    Instrument,
    KrausMap,
    _apply_to_stack,
    _posteriors,
    random_instrument,
)
from qinstr.qstate import DensityMatrix, Ensemble, pure_state
from oracle import (
    a_priori_state,
    haar_unitary,
    maximally_mixed,
    merge_outcomes,
    quantum_info_gain,
    random_density,
    sequential_gl,
)


def measure_and_prepare(p=0.3):
    """Two outcomes, each with two Kraus operators |v><e_j| that share one
    rank-1 range and are not proportional: each outcome prepares its own ket."""
    eye = np.eye(2)
    v = np.array([1.0, 1.0j, 0.0]) / np.sqrt(2)
    u = np.array([0.0, 0.6, 0.8])
    maps = tuple(
        KrausMap(2, 3, tuple(np.sqrt(w) * np.outer(ket, eye[j]) for j in range(2)))
        for w, ket in ((p, v), (1 - p, u))
    )
    return Instrument(("v", "u"), maps)


def perturbed_pair(eps):
    """One outcome with Kraus operators K and K + eps X, right-normalised;
    rank <= 1 fails by a relative second singular value of about eps / 2."""
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return right_normalized([(np.eye(2, dtype=complex), np.eye(2) + eps * x)])


def with_zero_outcome():
    """The projective qubit plus an outcome whose operator is zero."""
    ins = projective_qubit()
    zero = KrausMap(2, 2, (np.zeros((2, 2), dtype=complex),))
    return Instrument((0, 1, 2), ins.maps + (zero,))


def brute_force_mi(joint):
    p_r = joint.sum(axis=1)
    p_c = joint.sum(axis=0)
    total = 0.0
    for i in range(joint.shape[0]):
        for j in range(joint.shape[1]):
            if joint[i, j] > 0:
                total += joint[i, j] * math.log(joint[i, j] / (p_r[i] * p_c[j]))
    return total


class TestAnalyze:
    def test_instrument_of_another_input_dimension_is_rejected(self):
        with pytest.raises(QinstrError, match="ensemble dim 2 vs instrument dim_in 3"):
            analyze(zero_plus_ensemble(), random_instrument(3, 2, 2, 1, seed=0))

    def test_joint_table_zero_plus(self):
        ms = analyze(zero_plus_ensemble(), projective_qubit())
        assert np.allclose(ms.joint, [[0.5, 0.0], [0.25, 0.25]], atol=1e-12)
        assert np.allclose(ms.output_marginal, [0.75, 0.25], atol=1e-12)

    def test_conditionals_consistent(self):
        ms = analyze(zero_plus_ensemble(), projective_qubit())
        # joint = P_i * P_{f|i} = P_f * P_{i|f}
        rebuilt1 = ms.ensemble.probs[:, None] * ms.cond_out_given_in
        rebuilt2 = ms.output_marginal[None, :] * ms.cond_in_given_out
        assert np.allclose(rebuilt1, ms.joint, atol=1e-12)
        assert np.allclose(rebuilt2, ms.joint, atol=1e-12)

    def test_posterior_grid_mixes_to_mean(self):
        rng = np.random.default_rng(0)
        e = random_ensemble(3, 3, rng)
        ins = random_instrument(3, 2, 3, 2, seed=1)
        ms = analyze(e, ins)
        p_f = ms.output_marginal
        for w in range(len(ins.outcomes)):
            if p_f[w] < 1e-12:
                continue
            mix = sum(
                ms.cond_in_given_out[a, w] * DensityMatrix(ms.posterior_letter_states[a][w]).mat
                for a in range(len(e.letters))
            )
            assert np.max(np.abs(mix - DensityMatrix(ms.posterior_mean_states[w]).mat)) < 1e-9

    def test_every_array_field_is_read_only(self):
        # a derived state or law is read-only, views of analyze's arrays too
        ms = analyze(zero_plus_ensemble(), projective_qubit())
        arrays = {f.name: getattr(ms, f.name) for f in dataclasses.fields(ms)
                  if isinstance(getattr(ms, f.name), np.ndarray)}
        assert len(arrays) == 10
        assert [name for name, a in arrays.items() if a.flags.writeable] == []

    def test_post_a_priori_is_mean_of_post_letters(self):
        rng = np.random.default_rng(2)
        e = random_ensemble(2, 3, rng)
        ins = random_instrument(2, 3, 2, 2, seed=3)
        ms = analyze(e, ins)
        mix = sum(p * DensityMatrix(s).mat for p, s in zip(e.probs, ms.post_letter_states))
        assert np.max(np.abs(mix - DensityMatrix(ms.post_a_priori).mat)) < 1e-10


@pytest.mark.parametrize(
    "lhs, rhs, passes",
    [
        (0.0, -math.inf, False),
        (0.0, math.inf, True),
        (math.inf, math.inf, False),  # slack inf - inf is NaN, which fails
        (math.inf, -math.inf, False),
    ],
)
def test_infinite_rhs_is_judged_by_slack(lhs, rhs, passes):
    # holevo (I_c <= chi_initial) is a "ge" row, new_vs_hall_data
    # (chi_initial - D against chi_dual) a "data" row
    (row,) = judged({"classical_mi": lhs, "chi_initial": rhs})
    assert row["name"] == "holevo" and row["pass"] is passes
    (row,) = judged({"chi_initial": lhs, "d_term": 0.0, "chi_dual": rhs}, kind="data")
    assert row["pass"] is True  # data is never judged


# scalars that give one row of each kind a NaN slack: holevo, duality_ic,
# compound_tau_mix (a deviation row's rhs is 0.0, so its lhs is NaN) and
# new_vs_hall_data
NAN_SLACK = {
    "ge": {"classical_mi": math.inf, "chi_initial": math.inf},
    "eq": {"dual_classical_mi": math.inf, "classical_mi": math.inf},
    "dev": {"tau_mix_dev": math.nan},
    "data": {"chi_initial": math.inf, "d_term": 0.0, "chi_dual": math.inf},
}


@pytest.mark.parametrize("kind", ["ge", "eq", "dev", "data"])
def test_infinite_row_fails_every_judged_kind(kind):
    # a NaN slack fails every judged kind; a data row is never judged
    (row,) = judged(NAN_SLACK[kind], kind=kind, tol=1.0)
    assert math.isnan(row["slack"]) and row["pass"] is (kind == "data")


class TestJudgedRows:
    def test_a_side_is_summed_from_its_first_term(self):
        # left to right and never from 0.0, which would turn the -0.0 entropy
        # of a pure state into 0.0; a side with no terms is 0.0
        panel = entropy_panel(analyze(zero_plus_ensemble(), projective_qubit()))
        rows = {row["name"]: row for row in judged_rows({**panel, "chi_post": -0.0}, "e", INEQ_TOL)}
        assert math.copysign(1.0, rows["lower_bound"]["lhs"]) == -1.0
        assert rows["bl1"]["rhs"] == panel["chi_initial"] + panel["chi_out"] - panel["chi_joint"]
        assert rows["chain_via_out"]["rhs"] == panel["classical_mi"] + panel["mean_chi_given_out"] + panel["chi_out"]
        assert judged_rows({"tau_mix_dev": 0.5}, "e", INEQ_TOL) == [
            {"name": "compound_tau_mix", "lhs": 0.5, "rhs": 0.0, "slack": -0.5, "pass": False}]

    def test_a_row_needs_each_of_its_terms(self):
        # a side of one list-valued term gives one row per entry, and a row missing a term is not built
        rows = judged_rows({"gl_chain_lhs": [1.0, 2.0], "gl_chain_rhs": [3.0, 4.0], "chi_eps_i": 0.1}, "e", INEQ_TOL)
        assert [(row["name"], row["lhs"], row["rhs"]) for row in rows] == [("gl_chain", 1.0, 3.0), ("gl_chain", 2.0, 4.0)]
        assert judged_rows({"gl_chain_lhs": [], "gl_chain_rhs": []}, "e", INEQ_TOL) == []


class TestClassicalMutualInfo:
    def test_zero_plus_frozen_value(self):
        ms = analyze(zero_plus_ensemble(), projective_qubit())
        i_c = ms.classical_mi
        assert abs(i_c - 0.2157615543388356) < 1e-12
        assert abs(i_c - brute_force_mi(ms.joint)) < 1e-12

    def test_orthogonal_is_log2(self):
        ms = analyze(orthogonal_ensemble(), projective_qubit())
        assert abs(ms.classical_mi - math.log(2)) < 1e-12

    def test_biased_prior_reads_its_own_law(self):
        # priors 0.5 + 0.495e-12, within PROB_TOL of summing to 1: I_c reads
        # both marginals off analyze's normalized joint law, so it is ln 2;
        # against the prior as given, it read ln 2 - 9.9e-13
        e = Ensemble((0, 1), np.full(2, 0.5 + 0.495e-12), (KET0.mat, KET1.mat))
        ms = analyze(e, projective_qubit())
        assert abs(ms.classical_mi - math.log(2)) <= 1e-15
        assert abs(ms.classical_mi - brute_force_mi(ms.joint)) <= 1e-15

    def test_rare_letter_is_finite(self):
        # P_i x P_f = 1e-14 on the rare cell: I_c is H(p), not +inf
        eps = 1e-7
        e = Ensemble((0, 1), np.array([1 - eps, eps]), (KET0.mat, KET1.mat))
        entropy = -((1 - eps) * math.log1p(-eps) + eps * math.log(eps))
        assert abs(analyze(e, projective_qubit()).classical_mi - entropy) < 1e-12
        report = run_scenario(Scenario(e, projective_qubit()))
        assert abs(report["panel"]["classical_mi"] - entropy) < 1e-12
        assert all(math.isfinite(c["lhs"]) and math.isfinite(c["rhs"]) for c in report["checks"])
        assert report["overall_pass"]

    def test_product_joint_gives_zero(self):
        # identity instrument: outcome carries no letter information
        ins = Instrument((0,), (KrausMap(2, 2, (np.eye(2, dtype=complex),)),))
        ms = analyze(zero_plus_ensemble(), ins)
        assert ms.classical_mi < 1e-12


class TestEntropyPanel:
    def test_zero_plus_values(self):
        ms = analyze(zero_plus_ensemble(), projective_qubit())
        panel = entropy_panel(ms)
        assert abs(panel["chi_initial"] - 0.4164955306996875) < 1e-10
        assert abs(panel["classical_mi"] - 0.2157615543388356) < 1e-10
        # projective instrument on a qubit leaves pure posterior states, and
        # every posterior grid state equals the corresponding mean state
        assert abs(panel["mean_chi_given_out"]) < 1e-10
        assert abs(panel["chi_joint"] - panel["chi_out"]) < 1e-10

    def test_orthogonal_panel(self):
        ms = analyze(orthogonal_ensemble(), projective_qubit())
        panel = entropy_panel(ms)
        assert abs(panel["chi_initial"] - math.log(2)) < 1e-10
        assert abs(panel["classical_mi"] - math.log(2)) < 1e-10


class TestIdentitiesAndBounds:
    def test_identities_on_desk_example(self):
        panel = entropy_panel(analyze(zero_plus_ensemble(), projective_qubit()))
        checks = {row["name"]: row for row in judged(panel, kind="eq")}
        assert all(row["pass"] for row in checks.values())
        assert abs(checks["idts_out"]["slack"]) < 1e-12

    def test_bounds_on_desk_example(self):
        panel = entropy_panel(analyze(zero_plus_ensemble(), projective_qubit()))
        checks = {row["name"]: row for row in judged(panel, kind="ge")}
        assert all(row["pass"] for row in checks.values())
        # Holevo slack chi - I_c frozen from the two oracles above
        assert abs(checks["holevo"]["slack"] - (0.4164955306996875 - 0.2157615543388356)) < 1e-10


class TestQuantumInfoGain:
    def test_projective_on_maximally_mixed(self):
        # entropy log 2 before, pure states after
        gain = quantum_info_gain(projective_qubit(), maximally_mixed(2))
        assert abs(gain - math.log(2)) < 1e-10

    def test_identity_instrument_zero_gain(self):
        ins = Instrument((0,), (KrausMap(2, 2, (np.eye(2, dtype=complex),)),))
        assert abs(quantum_info_gain(ins, maximally_mixed(2))) < 1e-12

    def test_pure_input_zero_entropy(self):
        gain = quantum_info_gain(projective_qubit(), PLUS)
        assert abs(gain) < 1e-10  # 0 - 0

    def test_can_be_negative_for_non_purity_preserving(self):
        # a two-Kraus instrument can increase mean entropy on mixed inputs
        found_negative = False
        for k in range(50):
            ins = random_instrument(2, 2, 2, 2, seed=1000 + k)
            rng = np.random.default_rng(k)
            if quantum_info_gain(ins, random_density(2, rng)) < -1e-6:
                found_negative = True
                break
        assert found_negative


GL_CASES = [
    (random_instrument(d1, d2, no, kp, seed=index), 20, index, 5)
    for index, (d1, d2, _nl, no, kp) in enumerate(ACCEPTANCE_GRID)
] + [
    (projective_qubit(), 50, 0, 5),
    (random_instrument(2, 3, 3, 1, seed=42), 50, 1, 5),
    (random_instrument(2, 2, 1, 2, seed=7), 50, 2, 5),
] + [(random_instrument(3, 2, 3, 2, seed=500 + s), 20, s, 3) for s in range(5)] + [
    (random_instrument(2, 3, 3, 1, seed=42), 20, 3, 0),
    (random_instrument(2, 2, 1, 2, seed=7), 20, 3, 0),
] + [
    (measure_and_prepare(), 50, 4, 3),
    # relative second singular values 5e-8 and 5e-4, either side of the
    # threshold RANK_ONE_TOL = 3e-6
    (perturbed_pair(1e-7), 50, 5, 3),
    (perturbed_pair(1e-3), 50, 6, 3),
    (with_zero_outcome(), 50, 7, 3),
    (merge_outcomes(random_instrument(2, 2, 3, 1, seed=8), 0, 1), 50, 8, 3),
]


class TestPurityClass:
    """The exact (Ozawa) purity class, ``Instrument.purity_preserving``."""

    def test_projective_and_depolarizing(self):
        assert projective_qubit().purity_preserving
        # Kraus operators |k><j| / sqrt(2): every input goes to I/2
        units = tuple(
            np.outer(np.eye(2)[k], np.eye(2)[j]).astype(complex) / np.sqrt(2)
            for k in range(2)
            for j in range(2)
        )
        depolarize = Instrument((0,), (KrausMap(2, 2, units),))
        assert not depolarize.purity_preserving

    @pytest.mark.parametrize("ins, expected", [
        (measure_and_prepare(), True),
        (perturbed_pair(1e-7), True),
        # relative second singular values 1e-6 and 1e-5, either side of RANK_ONE_TOL
        (perturbed_pair(2e-6), True),
        (perturbed_pair(2e-5), False),
        (perturbed_pair(1e-3), False),
        (with_zero_outcome(), True),
        (merge_outcomes(random_instrument(2, 2, 3, 1, seed=8), 0, 1), False),
        (random_instrument(2, 3, 3, 1, seed=42), True),
        # two Kraus operators in one outcome mix pure inputs
        (random_instrument(2, 2, 1, 2, seed=7), False),
    ])
    def test_classes(self, ins, expected):
        assert ins.purity_preserving == expected


def near_rank_one_pair(r, seed=0):
    """Outcome 0 = {A, r B} and outcome 1 = {C}, with A, B, C Ginibre qubit
    operators drawn in that order, right-normalized: outcome 0 fails
    rank <= 1 by a relative second singular value of the order of r."""
    rng = np.random.default_rng(seed)
    a, b, c = ((rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2) for _ in range(3))
    return right_normalized([(a, r * b), (c,)])


def test_purity_preserving_class_has_no_negative_pure_gain():
    """An instrument classified purity-preserving takes no pure state to a gain
    below -INEQ_TOL, the tolerance of the gl_info_gain_nonneg row the class
    gates. Here (relative second singular value 5.6e-5) the least gain on
    {|0>, |1>, |+>} misses it by 4.5 times the tolerance, so BLAS digits do
    not decide the outcome: the instrument must not be so classified."""
    ins = near_rank_one_pair(3e-5)
    least = min(quantum_info_gain(ins, ket) for ket in (KET0, KET1, PLUS))
    assert not ins.purity_preserving or least >= -INEQ_TOL, least


def prepared_beside_mixing(seed=3):
    """d1 = d2 = 3, {u_k} a Haar basis: outcomes 0 and 1 measure and prepare,
    each with two Kraus operators sqrt(e) |phi_w><u_k| sharing the range of a
    random ket phi_w; outcome 2, {sqrt(0.5) |u_0><u_0|, sqrt(0.6) |u_1><u_2|},
    has two ranges, so it mixes. The effects sum to I."""
    rng = np.random.default_rng(seed)
    u = haar_unitary(3, rng)
    kets = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    kets /= np.linalg.norm(kets, axis=1, keepdims=True)
    groups = [[np.sqrt(e) * np.outer(ket, u[:, k].conj()) for e, k in terms]
              for ket, terms in zip(kets, (((0.5, 0), (0.3, 1)), ((0.7, 1), (0.4, 2))))]
    groups.append([np.sqrt(0.5) * np.outer(u[:, 0], u[:, 0].conj()), np.sqrt(0.6) * np.outer(u[:, 1], u[:, 2].conj())])
    return Instrument((0, 1, 2), tuple(KrausMap(3, 3, tuple(group)) for group in groups))


PURE_OUTPUT_CASES = {
    **{inp.name: inp.scenario for inp in FAMILIES["edge"] if "basis" in inp.name},
    "prepared-beside-mixing": Scenario(random_ensemble(3, 3, np.random.default_rng(5)), prepared_beside_mixing()),
    "measure-and-prepare": Scenario(random_ensemble(2, 3, np.random.default_rng(6)), measure_and_prepare()),
}


@pytest.mark.parametrize("name", PURE_OUTPUT_CASES)
def test_pure_outputs_take_no_spectrum(monkeypatch, name):
    """Every output of an outcome of ``Instrument.pure_outputs`` is one pure
    state or 0: its entropies, in the scenario's grid and rho_f(w) and in the
    GL check's gains, read exactly 0.0, and none of its states reaches
    ``matcore.eigvalsh``. The masked states are made NaN where
    ``_posteriors`` returns them, so a spectrum of any of them would hold a
    NaN; every other entropy reads as without the NaNs, bit for bit. With
    the mask read as all false, every state takes its spectrum, and every
    entropy and gain agrees with the skip's within 1e-14."""
    s = PURE_OUTPUT_CASES[name]
    ins = s.instrument
    pure = ins.pure_outputs
    assert pure.any() and not pure.flags.writeable
    rhos = np.stack([random_density(ins.dim_in, np.random.default_rng(seed)).mat for seed in range(4)])
    ms, d2 = analyze(s.ensemble, ins), ins.dim_out
    expected, expected_gains = ms.entropies, _gains(ins, rhos)[0]
    with monkeypatch.context() as patch:
        patch.setattr(Instrument, "pure_outputs", property(lambda i: np.zeros(len(i.maps), dtype=bool)))
        assert not ins.pure_outputs.any()
        unskipped = analyze(s.ensemble, ins).entropies
        unskipped_gains = _gains(ins, rhos)[0]
    for field in ScenarioEntropies._fields:
        np.testing.assert_allclose(getattr(expected, field), getattr(unskipped, field), rtol=0, atol=1e-14)
    np.testing.assert_allclose(expected_gains, unskipped_gains, rtol=0, atol=1e-14)
    # the states skipped are pure to rounding, or null
    skipped = np.concatenate([ms.posterior_letter_states[:, pure].reshape(-1, d2, d2),
                              _posteriors(_apply_to_stack(ins, rhos))[1][pure].reshape(-1, d2, d2)])
    assert np.abs(np.linalg.eigvalsh(skipped)[:, :-1]).max() <= 1e-15

    spectra, s_post = [], []
    real_eigvalsh, real_info_gain = matcore.eigvalsh, infobounds._info_gain

    def eigvalsh(a):
        spectra.append(np.array(a))
        return real_eigvalsh(a)

    def poisoned(outs):
        probs, states = _posteriors(outs)
        states = states.copy()
        states[pure] = np.nan
        return probs, states

    def info_gain(s_in, probs, s_out):
        s_post.append(s_out)
        return real_info_gain(s_in, probs, s_out)

    monkeypatch.setattr(matcore, "eigvalsh", eigvalsh)
    monkeypatch.setattr(infobounds, "_posteriors", poisoned)
    monkeypatch.setattr(infobounds, "_info_gain", info_gain)
    got = analyze(s.ensemble, ins).entropies
    gains = _gains(ins, rhos)[0]
    assert spectra and not any(np.isnan(a).any() for a in spectra)
    assert (got.grid[:, pure] == 0.0).all() and (got.mean[pure] == 0.0).all()
    assert (s_post[0][:, pure] == 0.0).all()
    for field in ScenarioEntropies._fields:
        assert np.array_equal(getattr(got, field), getattr(expected, field)), field
    assert np.array_equal(gains, expected_gains)


def test_the_class_tolerance_is_not_the_pure_output_rule():
    """Outcome A of ``letter_with_little_live_weight`` has relative second
    singular value 1.4e-6: at RANK_ONE_TOL it is in Ozawa's class, but its
    outputs have entropy ~r**2 ln(1 / r**2), so it is not a pure-output
    outcome, whose rule is on the rounding's scale (NULL_TRACE)."""
    ins = NULL_CELL_SCENARIOS["letter_with_little_live_weight"][1]
    s = np.linalg.svd(ins.kraus_stack[0].swapaxes(0, 1).reshape(2, -1), compute_uv=False)
    assert NULL_TRACE < s[1] / s[0] <= RANK_ONE_TOL
    assert ins.purity_preserving
    assert ins.pure_outputs.tolist() == [False, True]


class TestReportInfoGain:
    """The report's I_q(eta_i) comes from analyze's eta column, not from a
    second application of the instrument."""

    def test_null_outcome(self):
        s = Scenario(ensemble=orthogonal_ensemble(), instrument=with_zero_outcome())
        ms = analyze(s.ensemble, s.instrument)
        assert ms.output_marginal[2] == 0.0
        reference = quantum_info_gain(s.instrument, a_priori_state(s.ensemble))
        assert abs(ms.info_gain - reference) <= 1e-12
        assert abs(run_scenario(s)["quantum_info_gain"] - reference) <= 1e-12


def assert_fill_reaches_no_number(e, ins, state):
    ms = analyze(e, ins)
    assert (ms.cond_out_given_in == 0.0).any()
    assert downstream(refill(ms, state.mat)) == downstream(ms)


class TestNullCells:
    """A posteriori states are defined only up to null sets: whatever state a
    null cell holds, no number moves."""

    # each report of these passes: test_corpus.test_report_matches_the_per_state_oracle
    @pytest.mark.parametrize("name", NULL_CELL_SCENARIOS)
    def test_fill_reaches_no_number(self, name):
        assert_fill_reaches_no_number(*NULL_CELL_SCENARIOS[name], PLUS)

    def test_live_cell_under_a_null_column(self):
        ms = analyze(*NULL_CELL_SCENARIOS["live_cell_under_a_null_column"])
        assert ms.live.all()
        assert abs(np.trace(compound_states(ms).tau_f[1]).real - 1.0) <= 1e-15

    def test_letter_with_no_live_weight(self):
        ms = analyze(*NULL_CELL_SCENARIOS["letter_with_no_live_weight"])
        assert np.array_equal(compound_states(ms).tau_f[1], ms.posterior_mean_states[1])

    def test_letter_with_little_live_weight(self):
        tau_f = compound_states(analyze(*NULL_CELL_SCENARIOS["letter_with_little_live_weight"])).tau_f
        assert abs(np.trace(tau_f[1]).real - 1.0) <= 1e-15

    def test_null_flag_reads_the_one_null_cell_rule(self):
        # the one rule (instrument._posteriors) decides on a cell's trace, not
        # on its probability: a cell of trace 2.4e-14 beside one of trace 2
        # has probability 1.2e-14 <= NULL_TRACE and stays live, with its
        # state, so the null flag, which reads the rule's exact zeros, finds no
        # null cell. Normalized letters under a normalized instrument leave
        # such a gap only at rounding, if at all, so the outputs are built by hand
        outs = np.stack([2.4e-14 * KET0.mat, 2.0 * KET1.mat])[:, None]  # [outcome, input, d2, d2]
        probs, states = _posteriors(outs)
        assert 0.0 < probs[0, 0] <= NULL_TRACE
        assert np.array_equal(states[:, 0], [KET0.mat, KET1.mat])

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(2, 3),
        n_letters=st.integers(2, 3),
        n_outcomes=st.integers(2, 4),
        kraus=st.integers(1, 2),
        data=st.data(),
    )
    def test_random_scenarios_with_null_cells(self, d, n_letters, n_outcomes, kraus, data):
        # effects: per basis vector, each outcome's weight is regular
        # (>= 0.05 before normalization) or tiny (<= 6e-16, so <= 1.2e-14
        # after it); letters: pure states on a subset of the basis with
        # amplitudes >= 0.1. So a cell's trace is >= 4e-5 or <= 1.2e-14, below
        # NULL_TRACE. Priors are regular or tiny too, so a column can be null
        # under live cells, and a letter can keep no live weight at all.
        tiny = st.sampled_from([0.0, 1e-17, 3e-16, 6e-16])
        regular = st.floats(0.05, 1.0)
        raw = np.array([[data.draw(st.one_of(tiny, regular)) for _ in range(d)] for _ in range(n_outcomes)])
        assume((raw.max(axis=0) >= 0.05).all())
        effects = raw / raw.sum(axis=0)
        letters = []
        for _ in range(n_letters):
            support = data.draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=d, unique=True))
            amp = np.zeros(d, dtype=complex)
            for k in support:
                amp[k] = data.draw(st.floats(0.1, 1.0)) * np.exp(1j * data.draw(st.floats(0.0, 6.0)))
            letters.append(pure_state(amp / np.linalg.norm(amp)))
        priors = np.array([data.draw(st.one_of(st.sampled_from([1e-15, 1e-13, 3e-13]), regular))
                           for _ in range(n_letters)])
        assume(priors.max() >= 0.05)
        e = Ensemble(tuple(range(n_letters)), priors / priors.sum(), tuple(letters))
        seed = data.draw(st.integers(0, 2 ** 16))
        ins = diagonal_instrument(effects, kraus, seed)
        assume((analyze(e, ins).cond_out_given_in == 0.0).any())
        assert_fill_reaches_no_number(e, ins, random_density(d, np.random.default_rng(seed)))


def test_effect_sum_within_its_tolerance_is_analyzed():
    # a derived state is a state by construction and is not judged again at
    # HERM_TOL = 1e-10, which the effect sum's error once failed
    assert run_scenario(scaled_zero_one_plus())["overall_pass"]


def test_fill_of_a_live_outcome_reaches_no_number():
    # E(0) = diag(t, 0) and E(1) = diag(1 - t, 1), and letter |0> has trace
    # b = 1 - 5e-11 (within HERM_TOL). The |0> cell of outcome 0 has trace
    # t b = 2e-12 - 8e-23, so it is live, and so is outcome 0, whose rho_f(0)
    # is that cell's state; the |1> cell of outcome 0 is null. An earlier rule
    # filled rho_f(0), because I_0(eta) has trace t b / 2 <= 1e-12 (its
    # cut-off then), while it kept outcome 0 live (P_f(0) = t / 2 > 1e-12), so
    # the fill moved chi_out and mean_chi_given_out by 6.9e-13
    t, b = 2e-12 + 2e-23, 1 - 5e-11
    ins = Instrument((0, 1), (
        KrausMap(2, 2, (np.diag(np.sqrt([t, 0.0])).astype(complex),)),
        KrausMap(2, 2, (np.diag(np.sqrt([1 - t, 1.0])).astype(complex),)),
    ))
    e = Ensemble((0, 1), np.array([0.5, 0.5]), (b * KET0.mat, KET1.mat))
    ms = analyze(e, ins)
    assert ms.live.all()
    assert not any(np.array_equal(m, np.eye(2) / 2) for m in ms.posterior_mean_states)
    assert_fill_reaches_no_number(e, ins, PLUS)


def test_floored_prior_over_slots_floors_each_row_alone():
    # the GL check floors every demixture's prior in one call: each row reads,
    # bit for bit, the prior its own draws give, and 0 past its letters,
    # whatever the padding holds; a slot whose draw is exactly 0.0 is a letter
    rng = np.random.default_rng(11)
    n_letters = rng.integers(2, 4, size=200)
    slots = np.arange(3) < n_letters[:, None]
    draws = rng.uniform(size=(200, 3))
    draws[0, 1] = 0.0
    priors = _floored_prior(draws, slots)
    for row, n, prior in zip(draws, n_letters, priors):
        assert np.array_equal(prior[:n], _floored_prior(row[:n]))
        assert not prior[n:].any()
    assert priors[0, 1] > 0.0


@pytest.mark.parametrize("ins, trials, seed, n_demix", GL_CASES)
def test_batched_gl_matches_sequential(ins, trials, seed, n_demix):
    rows = judged(groenewold_lindblad_check(ins, trials=trials, seed=seed, n_demix=n_demix))
    ref_pp, ref_checks = sequential_gl(ins, trials, seed, n_demix)
    assert ins.purity_preserving == ref_pp
    assert all(row["pass"] for row in rows), rows
    assert [row["name"] for row in rows] == [name for name, _, _ in ref_checks]
    for row, (_name, lhs, rhs) in zip(rows, ref_checks):
        assert abs(row["lhs"] - lhs) <= 1e-12
        assert abs(row["rhs"] - rhs) <= 1e-12


class TestCompoundStates:
    def test_consistency_desk(self):
        ms = analyze(zero_plus_ensemble(), projective_qubit())
        cs = compound_states(ms)
        assert all(row["pass"] for row in judged(cs.deviations))

    def test_dimensions(self):
        rng = np.random.default_rng(20)
        e = random_ensemble(2, 2, rng)
        ins = random_instrument(2, 3, 2, 2, seed=21)
        cs = compound_states(analyze(e, ins))
        assert DensityMatrix(cs.eps_if[0]).dim == 6
        assert DensityMatrix(cs.eps_i[0]).dim == 2
        assert DensityMatrix(cs.eps_f[0]).dim == 3
        assert DensityMatrix(cs.gamma_if).dim == 6

    def test_rows_judge_the_construction_not_the_effect_sum(self):
        # Tr_2 eta_if = sum_a P_a tr(eta_f^a) rho_a, and on this valid input
        # it differs from eta_i by 1.86e-9: judged against eta_i (and the tau_f
        # mixture against eta_f), compound_tr2_eta_if and compound_tr2_gamma
        # read 1.86e-9 and compound_tau_mix 1.30e-9, and the report failed
        s = effect_sum_off_the_identity_in_every_entry()
        assert run_scenario(s)["overall_pass"]
        rows = judged(compound_states(analyze(s.ensemble, s.instrument)).deviations)
        assert max(row["lhs"] for row in rows) <= 1e-14, rows


class TestScutaruChains:
    def test_desk_example(self):
        ms = analyze(zero_plus_ensemble(), projective_qubit())
        checks = {row["name"]: row for row in judged(scutaru_chains(ms, compound_states(ms)), entropy_panel(ms))}
        assert all(row["pass"] for row in checks.values()), checks
        # every link sits below I_c
        i_c = ms.classical_mi
        assert checks["scutaru1_ic_ge_chi_eps_if"]["rhs"] == pytest.approx(i_c)

    def test_orthogonal_example(self):
        ms = analyze(orthogonal_ensemble(), projective_qubit())
        checks = {row["name"]: row for row in judged(scutaru_chains(ms, compound_states(ms)), entropy_panel(ms))}
        assert all(row["pass"] for row in checks.values())
        # perfectly distinguishable: the first-chain bound is tight at log 2
        assert abs(checks["scutaru1_ic_ge_chi_eps_if"]["rhs"] - math.log(2)) < 1e-10
