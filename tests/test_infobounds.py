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
    judged,
    orthogonal_ensemble,
    projective_qubit,
    zero_plus_ensemble,
)
from qinstr.errors import QinstrError
from qinstr.hallmap import hall_section
from qinstr.harness import (
    ACCEPTANCE_GRID,
    Scenario,
    example_scenario,
    judged_rows,
    random_scenario,
    run_scenario,
)
from qinstr.infobounds import (
    INEQ_TOL,
    analyze,
    compound_states,
    entropy_panel,
    groenewold_lindblad_check,
    random_ensemble,
    random_pure,
    scutaru_chains,
)
from qinstr.instrument import NULL_TRACE, Instrument, KrausMap, _posteriors, random_instrument
from qinstr.qstate import DensityMatrix, Ensemble, pure_state
from oracle import (
    a_priori_state,
    haar_unitary,
    map_action,
    maximally_mixed,
    merge_outcomes,
    q_rel_entropy,
    quantum_info_gain,
    random_density,
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


def right_normalized(groups):
    """The instrument with one outcome per group of raw d x d Kraus operators,
    every operator right-multiplied by S^{-1/2}, S = sum K^dag K, as
    random_instrument normalizes."""
    vals, vecs = np.linalg.eigh(sum(k.conj().T @ k for group in groups for k in group))
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    d = len(inv_sqrt)
    return Instrument(tuple(range(len(groups))),
                      tuple(KrausMap(d, d, tuple(k @ inv_sqrt for k in group)) for group in groups))


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

    def test_entropy_combination_crosscheck(self):
        # I_c = H(P_i) + H(P_f) - H(P_if)
        rng = np.random.default_rng(4)
        e = random_ensemble(2, 3, rng)
        ins = random_instrument(2, 2, 4, 2, seed=5)
        ms = analyze(e, ins)

        def shannon(p):
            p = p[p > 1e-15]
            return float(-(p * np.log(p)).sum())

        expected = (
            shannon(ms.ensemble.probs)
            + shannon(ms.output_marginal)
            - shannon(ms.joint.ravel())
        )
        assert abs(ms.classical_mi - expected) < 1e-10

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

    def test_chi_initial_matches_relative_entropy_form(self):
        # chi_initial = sum_a P_a S(rho_a | eta), one state at a time
        rng = np.random.default_rng(6)
        e = random_ensemble(3, 3, rng)
        ins = random_instrument(3, 2, 2, 2, seed=7)
        ms = analyze(e, ins)
        eta = a_priori_state(e)
        expected = sum(p * q_rel_entropy(DensityMatrix(s), eta) for p, s in zip(e.probs, e.states))
        assert abs(entropy_panel(ms)["chi_initial"] - expected) < 1e-10

    def test_tripartite_sum(self):
        rng = np.random.default_rng(8)
        e = random_ensemble(2, 2, rng)
        ins = random_instrument(2, 2, 3, 1, seed=9)
        panel = entropy_panel(analyze(e, ins))
        assert abs(panel["tripartite"] - panel["classical_mi"] - panel["chi_joint"]) < 1e-12


class TestIdentitiesAndBounds:
    @pytest.mark.parametrize("seed", range(10))
    def test_identities_random(self, seed):
        rng = np.random.default_rng(100 + seed)
        e = random_ensemble(int(rng.integers(2, 4)), int(rng.integers(2, 4)), rng)
        ins = random_instrument(
            e.dim, int(rng.integers(2, 4)), int(rng.integers(2, 4)), int(rng.integers(1, 3)),
            seed=200 + seed,
        )
        panel = entropy_panel(analyze(e, ins))
        rows = judged(panel, kind="eq")
        assert all(row["pass"] for row in rows), rows

    @pytest.mark.parametrize("seed", range(10))
    def test_bounds_random(self, seed):
        rng = np.random.default_rng(300 + seed)
        e = random_ensemble(int(rng.integers(2, 4)), int(rng.integers(2, 4)), rng)
        ins = random_instrument(
            e.dim, int(rng.integers(2, 4)), int(rng.integers(2, 4)), int(rng.integers(1, 3)),
            seed=400 + seed,
        )
        panel = entropy_panel(analyze(e, ins))
        rows = judged(panel, kind="ge")
        assert all(row["pass"] for row in rows), rows

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


class TestGroenewoldLindblad:
    def test_projective_is_purity_preserving(self):
        pp, gl = groenewold_lindblad_check(projective_qubit(), trials=50, seed=0, n_demix=5)
        rows = judged(gl)
        assert pp
        assert all(row["pass"] for row in rows)
        assert {row["name"]: row for row in rows}["gl_info_gain_nonneg"]["slack"] >= -1e-8

    def test_rank1_random_is_purity_preserving(self):
        ins = random_instrument(2, 3, 3, 1, seed=42)
        pp, gl = groenewold_lindblad_check(ins, trials=50, seed=1, n_demix=5)
        rows = judged(gl)
        assert pp
        assert all(row["pass"] for row in rows)

    def test_depolarizing_like_is_not(self):
        # two-Kraus single-outcome channel mixes pure inputs
        ins = random_instrument(2, 2, 1, 2, seed=7)
        pp, gl = groenewold_lindblad_check(ins, trials=50, seed=2, n_demix=5)
        rows = judged(gl)
        assert not pp
        assert "gl_info_gain_nonneg" not in {row["name"] for row in rows}
        assert all(row["pass"] for row in rows)  # chain inequality still holds

    @pytest.mark.parametrize("seed", range(5))
    def test_chain_inequality_random(self, seed):
        ins = random_instrument(3, 2, 3, 2, seed=500 + seed)
        rows = judged(groenewold_lindblad_check(ins, trials=20, seed=seed, n_demix=3)[1])
        assert all(row["pass"] for row in rows), rows


def sequential_gl(ins, trials, seed, n_demix=5):
    """The GL check one DensityMatrix at a time, from the per-state functions."""
    rng = np.random.default_rng(seed)
    d1 = ins.dim_in
    min_purity = 1.0
    for _ in range(trials):
        rho = random_pure(d1, rng)
        for m in ins.maps:
            out = map_action(m, rho)
            tr = float(np.trace(out).real)
            if tr > 1e-12:
                min_purity = min(min_purity, float(np.trace(out @ out).real) / tr**2)
    purity_preserving = min_purity >= 1.0 - 1e-8
    checks = []
    if purity_preserving:
        gains = [quantum_info_gain(ins, random_density(d1, rng)) for _ in range(trials)]
        checks.append(("gl_info_gain_nonneg", 0.0, min(gains)))
    for _ in range(n_demix):
        e = random_ensemble(d1, int(rng.integers(2, 4)), rng)
        ms = analyze(e, ins)
        rhs = ms.classical_mi + sum(
            p * quantum_info_gain(ins, DensityMatrix(rho)) for p, rho in zip(e.probs, e.states)
        )
        checks.append(("gl_chain", rhs, quantum_info_gain(ins, a_priori_state(e))))
    return purity_preserving, checks


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
    """The exact (Ozawa) purity class of groenewold_lindblad_check."""

    def test_projective_and_depolarizing(self):
        assert groenewold_lindblad_check(projective_qubit(), trials=2, seed=0, n_demix=5)[0]
        # Kraus operators |k><j| / sqrt(2): every input goes to I/2
        units = tuple(
            np.outer(np.eye(2)[k], np.eye(2)[j]).astype(complex) / np.sqrt(2)
            for k in range(2)
            for j in range(2)
        )
        depolarize = Instrument((0,), (KrausMap(2, 2, units),))
        assert not groenewold_lindblad_check(depolarize, trials=2, seed=0, n_demix=5)[0]

    @pytest.mark.parametrize("ins, expected", [
        (measure_and_prepare(), True),
        (perturbed_pair(1e-7), True),
        (perturbed_pair(1e-3), False),
        (with_zero_outcome(), True),
        (merge_outcomes(random_instrument(2, 2, 3, 1, seed=8), 0, 1), False),
    ])
    def test_classes(self, ins, expected):
        assert groenewold_lindblad_check(ins, trials=2, seed=0, n_demix=5)[0] == expected


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
    preserving = groenewold_lindblad_check(ins, trials=2, seed=0, n_demix=0)[0]
    least = min(quantum_info_gain(ins, ket) for ket in (KET0, KET1, PLUS))
    assert not preserving or least >= -INEQ_TOL, least


class TestReportInfoGain:
    """The report's I_q(eta_i) comes from analyze's eta column, not from a
    second application of the instrument."""

    @staticmethod
    def _check(s):
        ms = analyze(s.ensemble, s.instrument)
        reference = quantum_info_gain(s.instrument, a_priori_state(s.ensemble))
        assert abs(ms.info_gain - reference) <= 1e-12
        assert abs(run_scenario(s)["quantum_info_gain"] - reference) <= 1e-12

    @pytest.mark.parametrize("shape", ACCEPTANCE_GRID[::7])
    def test_random(self, shape):
        self._check(random_scenario(*shape, seed=sum(shape)))

    def test_null_outcome(self):
        s = Scenario(ensemble=orthogonal_ensemble(), instrument=with_zero_outcome())
        assert analyze(s.ensemble, s.instrument).output_marginal[2] == 0.0
        self._check(s)


def diagonal_instrument(effects, kraus=1, seed=0):
    """One outcome per row of ``effects`` (each row the diagonal of E(w), the
    columns summing to 1), with Kraus operators U diag(sqrt(E(w)) / sqrt(kraus))
    for random unitaries U, so the a posteriori states are not diagonal."""
    effects = np.asarray(effects, dtype=float)
    rng = np.random.default_rng(seed)
    d = effects.shape[1]
    maps = tuple(
        KrausMap(d, d, tuple(haar_unitary(d, rng) @ np.diag(np.sqrt(row / kraus)) for _ in range(kraus)))
        for row in effects
    )
    return Instrument(tuple(range(len(effects))), maps)


def refill(ms, state):
    """``ms`` with the a posteriori state of every null cell (a grid cell of
    P(w | a) exactly 0, an outcome of P_f(w) exactly 0) replaced by ``state``."""
    grid = ms.posterior_letter_states.copy()
    grid[ms.cond_out_given_in == 0.0] = state
    mean = ms.posterior_mean_states.copy()
    mean[ms.output_marginal == 0.0] = state
    return dataclasses.replace(ms, posterior_letter_states=grid, posterior_mean_states=mean)


def downstream(ms):
    """Every number the pipeline takes from ``ms``: the panel, I_q(eta), the
    compound states and their rows, the Scutaru chains and the Hall section,
    or the error it raises (``test_hallmap.test_near_null_dual_outcome_is_analyzed``)."""
    cs = compound_states(ms)
    panel = entropy_panel(ms)
    rows = judged({**cs.deviations, **scutaru_chains(ms, cs)}, panel)
    try:
        rows += judged(hall_section(ms), panel)
    except QinstrError as exc:
        rows.append(repr(exc))
    arrays = [a.tobytes() for a in (cs.eps_if, cs.eps_i, cs.eps_f, cs.eta_if, cs.tau_f, cs.gamma_if)]
    return panel, ms.info_gain, rows, arrays


def assert_fill_reaches_no_number(e, ins, state):
    ms = analyze(e, ins)
    assert (ms.cond_out_given_in == 0.0).any()
    assert downstream(refill(ms, state.mat)) == downstream(ms)


# TestNullCells' hand-built scenarios, (ensemble, instrument) by name; outcome
# A is 0 and B is 1. tests/test_symmetry.py runs them through its
# transformations, by these names. Three names describe the scenario as an
# earlier rule saw it, which also called an outcome null when its weight P_f
# was <= 1e-12; now a cell of trace <= NULL_TRACE (1.4e-14) is the only null,
# and an outcome is null iff every cell under it is. The cut-off the other
# two names mean is NULL_TRACE.
NULL_CELL_SCENARIOS = {
    # P(A|0) = 0.9e-14 is a null cell under the live outcome A, so rho_f(A)
    # is letter 1's cell state alone
    "sub_cutoff_cell_under_a_live_column": (
        orthogonal_ensemble(), diagonal_instrument([[0.9e-14, 0.8], [1 - 0.9e-14, 0.2]])),
    # P(A|1) = 7e-10 is live, so outcome A is live although P_f(A) = 7e-13
    # (the earlier rule called column A null and dropped it from tau_f(1))
    "live_cell_under_a_null_column": (
        Ensemble((0, 1), np.array([0.999, 0.001]), (KET0.mat, KET1.mat)),
        diagonal_instrument([[0.0, 7e-10], [1.0, 1 - 7e-10]])),
    # P(B|1) = 1 is live, so outcome B is live although P_f(B) = 1e-13, and
    # tau_f(1) is rho_f(B) (the earlier rule left letter 1 no live weight)
    "letter_with_no_live_weight": (
        Ensemble((0, 1), np.array([1 - 1e-13, 1e-13]), (KET0.mat, KET1.mat)),
        diagonal_instrument([[1.0, 0.0], [0.0, 1.0]])),
    # letter 1's cells P(A|1) = 2e-12 and P(B|1) are both live, so tau_f(1)
    # mixes rho_f(A) and rho_f(B) although P_f(B) = 1e-15 (the earlier rule
    # kept only A and renormalized letter 1 by 2e-12)
    "letter_with_little_live_weight": (
        Ensemble((0, 1), np.array([1 - 1e-15, 1e-15]), (KET0.mat, KET1.mat)),
        diagonal_instrument([[1.0, 2e-12], [0.0, 1 - 2e-12]])),
    # P(A|0) = 1e-15 is null and P(A|1) = 4e-12 live, so outcome A is live at
    # P_f(A) = 2e-12 and Hall's J must read the |0> cell of A as null too
    "null_cell_beside_a_near_cutoff_live_cell": (
        orthogonal_ensemble(), diagonal_instrument([[1e-15, 4e-12], [1 - 1e-15, 1 - 4e-12]])),
}


class TestNullCells:
    """A posteriori states are defined only up to null sets: whatever state a
    null cell holds, no number moves."""

    def test_sub_cutoff_cell_under_a_live_column(self):
        assert_fill_reaches_no_number(*NULL_CELL_SCENARIOS["sub_cutoff_cell_under_a_live_column"], PLUS)

    def test_live_cell_under_a_null_column(self):
        e, ins = NULL_CELL_SCENARIOS["live_cell_under_a_null_column"]
        assert_fill_reaches_no_number(e, ins, PLUS)
        ms = analyze(e, ins)
        assert ms.live.all()
        assert abs(np.trace(compound_states(ms).tau_f[1]).real - 1.0) <= 1e-15

    def test_letter_with_no_live_weight(self):
        e, ins = NULL_CELL_SCENARIOS["letter_with_no_live_weight"]
        assert_fill_reaches_no_number(e, ins, PLUS)
        ms = analyze(e, ins)
        assert np.array_equal(compound_states(ms).tau_f[1], ms.posterior_mean_states[1])
        assert run_scenario(Scenario(e, ins))["overall_pass"]

    def test_letter_with_little_live_weight(self):
        e, ins = NULL_CELL_SCENARIOS["letter_with_little_live_weight"]
        assert_fill_reaches_no_number(e, ins, PLUS)
        tau_f = compound_states(analyze(e, ins)).tau_f
        assert abs(np.trace(tau_f[1]).real - 1.0) <= 1e-15
        assert run_scenario(Scenario(e, ins))["overall_pass"]

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


def scaled_zero_one_plus() -> Scenario:
    """The zero-one-plus desk scenario with every Kraus entry scaled by
    sqrt(1 + 3e-10): the effects sum to (1 + 3e-10) I, which ingest accepts
    (POVM_SUM_TOL = 1e-9) and the Instrument normalizes once, when it is
    built."""
    s = example_scenario("zero-one-plus")
    scale = math.sqrt(1 + 3e-10)
    ins = Instrument(s.instrument.outcomes, tuple(KrausMap(2, 2, scale * m.kraus) for m in s.instrument.maps))
    return Scenario(s.ensemble, ins)


def test_effect_sum_within_its_tolerance_is_analyzed():
    # a derived state is a state by construction and is not judged again at
    # HERM_TOL = 1e-10, which the effect sum's error once failed
    assert run_scenario(scaled_zero_one_plus())["overall_pass"]


def effect_sum_off_the_identity_in_every_entry() -> Scenario:
    """random_scenario(3, 2, 2, 2, 1, 7)'s Kraus operators right-multiplied by
    (I + c J)^(1/2), with J the all-ones matrix and c = 0.999e-9, so that the
    effects sum to I + c J: every entry is within POVM_SUM_TOL of the
    identity's, while the operator norm of the deviation is 3c. The letters
    are psi psi^dag, psi = (0.88, b, b) near J's range, at prior 1 - 1e-6,
    and |1><1| at 1e-6."""
    ins = random_scenario(3, 2, 2, 2, 1, 7).instrument
    c = 0.999e-9
    root = np.eye(3) + (math.sqrt(1 + 3 * c) - 1) / 3 * np.ones((3, 3))
    ins = Instrument(ins.outcomes, tuple(KrausMap(3, 2, m.kraus @ root) for m in ins.maps))
    b = math.sqrt((1 - 0.88 ** 2) / 2)
    letters = (pure_state([0.88, b, b]), pure_state([0, 1, 0]))
    return Scenario(Ensemble((0, 1), np.array([1 - 1e-6, 1e-6]), letters), ins)


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


@pytest.mark.parametrize("ins, trials, seed, n_demix", GL_CASES)
def test_batched_gl_matches_sequential(ins, trials, seed, n_demix):
    pp, gl = groenewold_lindblad_check(ins, trials=trials, seed=seed, n_demix=n_demix)
    rows = judged(gl)
    ref_pp, ref_checks = sequential_gl(ins, trials, seed, n_demix)
    assert pp == ref_pp
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

    @pytest.mark.parametrize("seed", range(5))
    def test_consistency_random(self, seed):
        rng = np.random.default_rng(600 + seed)
        e = random_ensemble(int(rng.integers(2, 4)), int(rng.integers(2, 4)), rng)
        ins = random_instrument(
            e.dim, int(rng.integers(2, 4)), int(rng.integers(2, 4)), 2, seed=700 + seed
        )
        rows = judged(compound_states(analyze(e, ins)).deviations)
        assert all(row["pass"] for row in rows), rows


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

    @pytest.mark.parametrize("seed", range(8))
    def test_random(self, seed):
        rng = np.random.default_rng(800 + seed)
        e = random_ensemble(int(rng.integers(2, 4)), int(rng.integers(2, 4)), rng)
        ins = random_instrument(
            e.dim, int(rng.integers(2, 4)), int(rng.integers(2, 4)), int(rng.integers(1, 3)),
            seed=900 + seed,
        )
        ms = analyze(e, ins)
        rows = judged(scutaru_chains(ms, compound_states(ms)), entropy_panel(ms))
        assert all(row["pass"] for row in rows), rows


class TestMergeOutcomes:
    def test_preserves_normalization(self):
        ins = random_instrument(2, 2, 3, 2, seed=30)
        merged = merge_outcomes(ins, ins.outcomes[0], ins.outcomes[1])
        assert len(merged.outcomes) == 2
        total = merged.effects.sum(axis=0)
        assert np.max(np.abs(total - np.eye(2))) < 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_coarse_graining_never_increases_ic(self, seed):
        rng = np.random.default_rng(1000 + seed)
        e = random_ensemble(2, 3, rng)
        ins = random_instrument(2, 2, 3, 2, seed=1100 + seed)
        merged = merge_outcomes(ins, ins.outcomes[0], ins.outcomes[1])
        ic_fine = analyze(e, ins).classical_mi
        ic_coarse = analyze(e, merged).classical_mi
        assert ic_coarse <= ic_fine + 1e-10
