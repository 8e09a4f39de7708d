"""Valid scenarios at an edge of the input contract, drawn by hypothesis. Each
must then be analyzed with no error but ``NoConvergence``, pass every check,
and hold its rows at rounding: every eq and dev row within 1e-12 of 0 and
every ge slack >= -1e-12. Eight edges:

- a near-null effect: one effect has one or more eigenvalues in
  [1e-15, 1e-11], in a random basis, and some letters lie at or near the span
  S of their eigenvectors, so their cells of that outcome have traces around
  the null rule's NULL_TRACE, on either side of it. When S is the whole space,
  every cell of that outcome is near null while the a priori state stays
  invertible, so Hall's section runs on it. Overwriting every null cell's
  fill must move no number;
- an effect sum off the identity: every Kraus entry of a random scenario is
  scaled by sqrt(1 + delta), |delta| <= 0.9 POVM_SUM_TOL, which the
  Instrument normalizes when it is built;
- an effect sum off the identity in every entry: I + delta w w^dag, with w a
  vector of phases, under a dominant letter near w's direction. Ingest bounds
  the deviation's entries by POVM_SUM_TOL, and its operator norm is d1 times
  that, which the normalization must take out too;
- a near-singular a priori state: its least eigenvalue lies on either side of
  INVERTIBILITY_TOL, and Hall's section is skipped exactly when it is at or
  below it;
- ingest's clamp path: some letters have a least eigenvalue in
  [-0.9 HERM_TOL, 0], which ingest clamps to 0 before any stage reads them;
- a near-purity-preserving instrument: one outcome's two Kraus operators fail
  rank <= 1 by a relative second singular value of the order of r, log-uniform
  in [1e-9, 1e-3], under pure or mixed letters. Its purity class must hold
  both ways: classified purity-preserving, it takes no letter and no state of
  a fixed pure family (the basis kets and their uniform superposition) to a
  gain below -INEQ_TOL; classified otherwise, it takes a state of that family
  to a negative gain;
- an extra outcome: one outcome is added to a random scenario, with the
  single Kraus operator sqrt(delta) |psi><phi|, delta log-uniform in
  [1e-12, 0.99e-9], so the effect sum is off the identity by at most delta;
- scaled letters: each letter of a random scenario is scaled by 1 + eps_a,
  |eps_a| <= 0.9 HERM_TOL.

The rows stay at rounding because no stage reads a slack the contract
allows: the instrument is normalized and each letter divided by its trace
when it is built, an entropy reads every positive eigenvalue, and a cell is
null only at NULL_TRACE, on the rounding's scale.

Each scenario is read back from its JSON, as the CLI reads a file."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qinstr.errors import NoConvergence, QinstrError
from qinstr.hallmap import INVERTIBILITY_TOL, hall_section
from qinstr.harness import (
    ACCEPTANCE_GRID,
    Scenario,
    example_scenario,
    matrix_to_json,
    random_scenario,
    run_scenario,
    scenario_from_json,
)
from qinstr.infobounds import INEQ_TOL, analyze
from qinstr.instrument import POVM_SUM_TOL, Instrument, KrausMap, random_instrument
from qinstr.matcore import HERM_TOL
from qinstr.qstate import DensityMatrix, Ensemble, pure_state
import corpus
from conftest import KIND, downstream, refill, right_normalized
from oracle import haar_unitary, per_state_scalars, quantum_info_gain, random_density


def judged_run(s: Scenario) -> tuple:
    """s's report and (kind, name, slack) of each of its rows, the kind read from ``ROWS``."""
    report = run_scenario(s)
    return report, [(KIND[row["name"]], row["name"], row["slack"]) for row in report["checks"]]


def judged_slacks(s: Scenario) -> list:
    """(kind, name, slack) of each row of s's report, or [] when the analysis
    raises NoConvergence."""
    try:
        return judged_run(s)[1]
    except NoConvergence:
        return []


def off_rounding(slacks) -> list:
    """(name, slack) of each eq or dev row further than 1e-12 from 0 and of
    each ge row whose slack is below -1e-12."""
    return [(name, slack) for kind, name, slack in slacks
            if (kind in ("eq", "dev") and abs(slack) > 1e-12) or (kind == "ge" and slack < -1e-12)]


def assert_passes_at_rounding(report, slacks):
    assert report["overall_pass"], [row for row in report["checks"] if not row["pass"]]
    assert off_rounding(slacks) == []


def _ginibre(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def near_null_scenario(d, n_outcomes, n_letters, kraus, small, offsets, seed) -> Scenario:
    """Outcome 0's effect is V diag(small, r) V^dag, with V a random unitary
    and the first len(small) eigenvalues ``small`` (at most d of them), the
    rest r_j drawn from [0.05, 0.95]; the other outcomes' Kraus operators are
    Ginibre draws normalized so that the effects sum to the identity. A letter
    of ``offsets`` is the pure state x + offset g, with x a random vector in
    the span S of the first len(small) columns of V and g a Ginibre vector;
    the rest are Ginibre mixed states."""
    rng = np.random.default_rng(seed)
    v = haar_unitary(d, rng)
    m = min(len(small), d)
    spec = np.concatenate([small[:m], rng.uniform(0.05, 0.95, d - m)])

    def root(x):  # V x^(1/2) V^dag
        return (v * np.sqrt(x)) @ v.conj().T

    first = [haar_unitary(d, rng) @ root(spec / kraus) for _ in range(kraus)]
    g = _ginibre(rng, (n_outcomes - 1, kraus, d, d))
    lam, u = np.linalg.eigh(np.einsum("wkji,wkjl->il", g.conj(), g))
    rest = g @ (u * lam ** -0.5) @ u.conj().T @ root(1.0 - spec)
    ins = Instrument(tuple(range(n_outcomes)), (
        KrausMap(d, d, first), *(KrausMap(d, d, group) for group in rest)))
    near = [pure_state(v[:, :m] @ _ginibre(rng, m) + t * _ginibre(rng, d)) for t in offsets]
    letters = near + [random_density(d, rng).mat for _ in range(n_letters - len(near))]
    priors = rng.uniform(0.05, 1.0, n_letters)
    return Scenario(Ensemble(tuple(range(n_letters)), priors / priors.sum(), tuple(letters)), ins)


# All cells live, and outcome 0 has P_f = 1.6e-9. J's law and P_{i|f} each
# carry the absolute rounding (~1e-17) of traces against an effect whose other
# eigenvalues are of order 1, which is ~1e-8 of that outcome's weight: judged
# between the conditionals at EQ_TOL, duality_conditional_law read 1.6e-8 and
# failed; judged on the scale of the joint law it reads ~1e-16.
near_null_draws = given(
    d=st.integers(2, 3),
    n_outcomes=st.integers(2, 3),
    kraus=st.integers(1, 2),
    small=st.lists(st.floats(-15.0, -11.0).map(lambda x: 10.0 ** x), min_size=1, max_size=3),
    offsets=st.lists(st.sampled_from([0.0, 1e-7, 1e-6, 3e-6, 1e-5]), min_size=1, max_size=3),
    others=st.integers(0, 2),
    seed=st.integers(0, 2 ** 32 - 1),
)


@example(d=2, n_outcomes=3, kraus=2, small=[1.2129744592230844e-12], offsets=[1e-07, 1e-05],
         others=0, seed=2404865353)
@settings(max_examples=150, derandomize=True, deadline=None)
@near_null_draws
def test_near_null_effect(d, n_outcomes, kraus, small, offsets, others, seed):
    s = near_null_scenario(d, n_outcomes, len(offsets) + others, kraus, small, offsets, seed)
    s = scenario_from_json(json.loads(json.dumps(s.to_json())))
    try:
        assert_passes_at_rounding(*judged_run(s))
    except NoConvergence:
        return
    ms = analyze(s.ensemble, s.instrument)
    state = random_density(d, np.random.default_rng(seed)).mat
    assert downstream(refill(ms, state)) == downstream(ms)


HALL_SCALARS = ("dual_law_dev", "dual_classical_mi", "chi_dual", "d_term", "dual_least_gain", "dual_eta_gain")


# Hall's section cuts the roots of E(w) / P_f(w) at SUPPORT_CUTOFF, and the
# oracle the roots of the letters and of their live mixtures: on a near-null
# effect the two frames must still agree. Only Hall's six scalars are
# compared, because on some draws (d = 3, one Kraus operator, every
# eigenvalue of E(0) below 6e-12) the oracle's mean_chi_given_in reads +inf,
# its relative entropies reading a live cell's weight on a kernel, where the
# pipeline's entropy difference reads 4e-12 to 9e-12. A draw whose near-null live
# cell the oracle cannot build, its output over a trace near NULL_TRACE
# being off Hermitian beyond HERM_TOL, is not compared.
@settings(max_examples=250, derandomize=True, deadline=None)
@near_null_draws
def test_near_null_effect_hall_matches_the_oracle(d, n_outcomes, kraus, small, offsets, others, seed):
    s = near_null_scenario(d, n_outcomes, len(offsets) + others, kraus, small, offsets, seed)
    s = scenario_from_json(json.loads(json.dumps(s.to_json())))
    try:
        ms = analyze(s.ensemble, s.instrument)
        if ms.a_priori_eigenvalues[0] <= INVERTIBILITY_TOL:
            return
        got = hall_section(ms)
    except NoConvergence:
        return
    try:
        want = per_state_scalars(s.ensemble, s.instrument)
    except QinstrError as exc:
        assert "Hermiticity deviation" in str(exc)
        return
    assert all(abs(got[key] - want[key]) <= 1e-12 for key in HALL_SCALARS), (got, want)


def round_trip(obj: dict) -> Scenario:
    return scenario_from_json(json.loads(json.dumps(obj)))


def rank_one_deviation_scenario(d1, d2, n_letters, n_outcomes, kraus, delta, rare, offset, seed) -> Scenario:
    """A random scenario whose Kraus operators are right-multiplied by
    (I + D)^(1/2), D = delta w w^dag with w a vector of random phases, so the
    effect sum is I + D, off the identity by delta in every entry. Letter 0 is
    the pure state of w / sqrt(d1) + offset g, g a Ginibre vector, at prior
    1 - rare; the other letters share ``rare``."""
    base = random_scenario(d1, d2, n_letters, n_outcomes, kraus, seed)
    rng = np.random.default_rng(seed)
    w = np.exp(2j * np.pi * rng.uniform(size=d1))
    ww = np.outer(w, w.conj())
    root = np.eye(d1) + (np.sqrt(1.0 + delta * d1) - 1.0) / d1 * ww  # (I + delta w w^dag)^(1/2)
    ins = Instrument(base.instrument.outcomes, tuple(KrausMap(d1, d2, m.kraus @ root) for m in base.instrument.maps))
    letters = base.ensemble.given_states.copy()
    letters[0] = pure_state(w / np.sqrt(d1) + offset * _ginibre(rng, d1))
    rest = base.ensemble.probs[1:]
    priors = np.concatenate([[1.0 - rare], rare * rest / rest.sum()])
    return Scenario(Ensemble(base.ensemble.letters, priors, letters), ins)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    d1=st.integers(2, 3),
    d2=st.integers(2, 3),
    n_letters=st.integers(2, 4),
    n_outcomes=st.integers(2, 4),
    kraus=st.integers(1, 2),
    delta=st.floats(-0.9 * POVM_SUM_TOL, 0.9 * POVM_SUM_TOL),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_effect_sum_off_the_identity(d1, d2, n_letters, n_outcomes, kraus, delta, seed):
    obj = random_scenario(d1, d2, n_letters, n_outcomes, kraus, seed).to_json()
    scaled = np.sqrt(1.0 + delta) * np.array(obj["instrument"]["kraus"])
    obj["instrument"]["kraus"] = scaled.tolist()
    try:
        assert_passes_at_rounding(*judged_run(round_trip(obj)))
    except NoConvergence:
        return


def near_singular_scenario(d2, n_letters, n_outcomes, kraus, least, seed) -> Scenario:
    """d1 = 3. Every letter is a Ginibre mixed state on the span S of the first
    two columns of a random unitary V, but the last, which moves weight
    t = least / P_last onto V's third column: rho = (1 - t) sigma + t |v><v|.
    The a priori state is then block diagonal in V's basis, and its least
    eigenvalue is ``least`` (S's block is well conditioned)."""
    rng = np.random.default_rng(seed)
    v = haar_unitary(3, rng)
    priors = rng.uniform(0.05, 1.0, n_letters)
    priors /= priors.sum()
    blocks = np.zeros((n_letters, 3, 3), dtype=complex)
    blocks[:, :2, :2] = [random_density(2, rng).mat for _ in range(n_letters)]
    t = least / priors[-1]
    blocks[-1] *= 1.0 - t
    blocks[-1, 2, 2] = t
    letters = v @ blocks @ v.conj().T
    ins = random_instrument(3, d2, n_outcomes, kraus, seed=seed)
    return Scenario(Ensemble(tuple(range(n_letters)), priors, letters), ins)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    d2=st.integers(2, 3),
    n_letters=st.integers(2, 4),
    n_outcomes=st.integers(2, 3),
    kraus=st.integers(1, 2),
    least=st.floats(np.log10(5e-11), np.log10(5e-9)).map(lambda x: 10.0 ** x),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_near_singular_a_priori_state(d2, n_letters, n_outcomes, kraus, least, seed):
    s = round_trip(near_singular_scenario(d2, n_letters, n_outcomes, kraus, least, seed).to_json())
    report, slacks = judged_run(s)
    assert_passes_at_rounding(report, slacks)
    ms = analyze(s.ensemble, s.instrument)
    singular = ms.a_priori_eigenvalues[0] <= INVERTIBILITY_TOL
    assert (report["hall_skipped"] is not None) == singular


def clamp_edge_scenario(d1, d2, n_outcomes, kraus, eps, others, seed) -> Scenario:
    """A letter for each e of ``eps`` is Q diag(w (1 + e), -e, 0, ...) Q^dag,
    with Q a random unitary and w a random probability vector of 1 to d1 - 1
    entries: a unit-trace letter whose least eigenvalue is -e. ``others``
    Ginibre mixed letters follow; the instrument is random."""
    rng = np.random.default_rng(seed)
    letters = []
    for e in eps:
        w = rng.dirichlet(np.ones(rng.integers(1, d1)))
        spec = np.concatenate([w * (1.0 + e), [-e], np.zeros(d1 - 1 - w.size)])
        q = haar_unitary(d1, rng)
        letters.append((q * spec) @ q.conj().T)
    letters += [random_density(d1, rng).mat for _ in range(others)]
    priors = rng.uniform(0.05, 1.0, len(letters))
    ins = random_instrument(d1, d2, n_outcomes, kraus, seed=seed)
    return Scenario(Ensemble(tuple(range(len(letters))), priors / priors.sum(), np.array(letters)), ins)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    d1=st.integers(2, 3),
    d2=st.integers(2, 3),
    n_outcomes=st.integers(2, 3),
    kraus=st.integers(1, 2),
    eps=st.lists(st.floats(0.0, 0.9 * HERM_TOL), min_size=1, max_size=3),
    others=st.integers(0, 2),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_letter_at_the_clamp_edge(d1, d2, n_outcomes, kraus, eps, others, seed):
    s = round_trip(clamp_edge_scenario(d1, d2, n_outcomes, kraus, eps, others, seed).to_json())
    try:
        assert_passes_at_rounding(*judged_run(s))
    except NoConvergence:
        return


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    d1=st.integers(2, 3),
    d2=st.integers(2, 3),
    n_letters=st.integers(2, 4),
    n_outcomes=st.integers(2, 4),
    kraus=st.integers(1, 2),
    delta=st.floats(-0.9 * POVM_SUM_TOL, 0.9 * POVM_SUM_TOL),
    rare=st.floats(-7.0, -1.0).map(lambda x: 10.0 ** x),
    offset=st.sampled_from([0.0, 1e-3, 0.1]),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_effect_sum_off_the_identity_by_a_rank_one_deviation(
        d1, d2, n_letters, n_outcomes, kraus, delta, rare, offset, seed):
    s = rank_one_deviation_scenario(d1, d2, n_letters, n_outcomes, kraus, delta, rare, offset, seed)
    assert_passes_at_rounding(*judged_run(round_trip(s.to_json())))


def near_purity_preserving_scenario(d, n_letters, r, pure, seed) -> Scenario:
    """Outcome 0 = {A, r B} and outcome 1 = {C}, with A, B, C Ginibre d x d
    operators, right-normalized: outcome 0 fails rank <= 1 by a relative
    second singular value of the order of r. The letters are random pure
    states when ``pure``, Ginibre mixed states otherwise."""
    rng = np.random.default_rng(seed)
    a, b, c = _ginibre(rng, (3, d, d))
    ins = right_normalized([(a, r * b), (c,)])
    if pure:
        letters = [pure_state(_ginibre(rng, d)) for _ in range(n_letters)]
    else:
        letters = [random_density(d, rng).mat for _ in range(n_letters)]
    priors = rng.uniform(0.05, 1.0, n_letters)
    return Scenario(Ensemble(tuple(range(n_letters)), priors / priors.sum(), tuple(letters)), ins)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    d=st.integers(2, 3),
    n_letters=st.integers(2, 4),
    r=st.floats(-9.0, -3.0).map(lambda x: 10.0 ** x),
    pure=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_near_purity_preserving_instrument(d, n_letters, r, pure, seed):
    s = round_trip(near_purity_preserving_scenario(d, n_letters, r, pure, seed).to_json())
    try:
        report, slacks = judged_run(s)
    except NoConvergence:
        return
    assert_passes_at_rounding(report, slacks)
    family = [pure_state(ket) for ket in np.eye(d)] + [pure_state(np.ones(d))]
    gains = [quantum_info_gain(s.instrument, DensityMatrix(rho)) for rho in family]
    if report["purity_preserving"]:
        gains += [quantum_info_gain(s.instrument, DensityMatrix(rho)) for rho in s.ensemble.states]
        assert min(gains) >= -INEQ_TOL, gains
    else:
        assert min(gains) < 0.0, gains


def extra_outcome_scenario(shape, delta, seed) -> dict:
    """The JSON of a random acceptance-grid scenario of ``shape``, plus one
    outcome whose single Kraus operator is sqrt(delta) |psi><phi|, with psi
    and phi random unit vectors: the effect sum is I + delta |phi><phi|, off
    the identity by at most delta."""
    d1, d2 = shape[:2]
    obj = random_scenario(*shape, seed).to_json()
    rng = np.random.default_rng(seed)
    psi, phi = (v / np.linalg.norm(v) for v in (_ginibre(rng, d2), _ginibre(rng, d1)))
    ins = obj["instrument"]
    ins["outcomes"].append(len(ins["outcomes"]))
    ins["kraus"].append(matrix_to_json(np.sqrt(delta) * np.outer(psi, phi.conj())[None]))
    return obj


def test_acceptance_grid_rows_sit_at_rounding():
    # the generator's Jacobi normalizer leaves effect sums off the identity by
    # up to ~1e-13, which reaches no row: the instrument is normalized when
    # it is built
    off = [(inp.name, row["name"], row["slack"]) for inp in corpus.FAMILIES["grid"]
           for row in inp.report["checks"] if KIND[row["name"]] in ("eq", "dev") and abs(row["slack"]) > 4e-15]
    assert off == []


# Each ge row that is tight (at equality) on a desk scenario, named here and
# not found by a threshold at run time, so that a bias that widens a slack
# cannot drop its row from the pin. A name stands for every row of that name.
TIGHT_GE_ROWS = {
    "zero-one-plus": {"lower_bound", "scutaru2_ic_ge_chi_tau_f", "scutaru2_chi_eps_i_ge_gamma",
                      "new_d_term_nonneg", "new_le_holevo"},
    "orthogonal-projective": {
        "sww", "holevo", "bl1", "lower_bound", "scutaru1_ic_ge_chi_eps_if", "scutaru1_chi_eps_if_ge_chi_eps_i",
        "scutaru1_chi_eps_if_ge_chi_eps_f", "scutaru2_ic_ge_chi_eps_i", "scutaru2_ic_ge_chi_tau_f",
        "scutaru2_chi_eps_i_ge_gamma", "scutaru2_chi_tau_f_ge_gamma", "hall_bound", "new_bound",
        "new_d_term_nonneg", "new_le_holevo"},
    "identity-instrument": {
        "sww", "bl1", "lower_bound", "gl_info_gain_nonneg", "gl_chain", "scutaru1_ic_ge_chi_eps_if",
        "scutaru1_chi_eps_if_ge_chi_eps_i", "scutaru1_chi_eps_if_ge_chi_eps_f", "scutaru2_ic_ge_chi_eps_i",
        "scutaru2_ic_ge_chi_tau_f", "scutaru2_chi_eps_i_ge_gamma", "scutaru2_chi_tau_f_ge_gamma",
        "hall_bound", "new_bound"},
}


@pytest.mark.parametrize("name", list(TIGHT_GE_ROWS))
def test_tight_ge_rows_sit_at_rounding(name):
    # the tight-witness pin: where a desk scenario meets a bound with
    # equality, its slack reads rounding (<= 2.2e-16 when pinned), so a bias
    # of either sign on either side of the row fails here
    rows = [(kind, row, slack) for kind, row, slack in judged_slacks(example_scenario(name))
            if row in TIGHT_GE_ROWS[name]]
    assert {row for _, row, _ in rows} == TIGHT_GE_ROWS[name]
    assert all(kind == "ge" for kind, _, _ in rows)
    off = [(row, slack) for _, row, slack in rows if abs(slack) > 4e-15]
    assert off == []


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    shape=st.sampled_from(ACCEPTANCE_GRID),
    delta=st.floats(-12.0, np.log10(0.99e-9)).map(lambda x: 10.0 ** x),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_extra_outcome_leaves_the_rows_at_rounding(shape, delta, seed):
    assert off_rounding(judged_slacks(round_trip(extra_outcome_scenario(shape, delta, seed)))) == []


def scaled_letters_scenario(shape, eps, seed) -> Scenario:
    """A random acceptance-grid scenario of ``shape``, or the desk scenario
    it names, whose letter a as given is scaled by 1 + eps[a], so its trace
    is off 1 by eps[a]."""
    s = example_scenario(shape) if isinstance(shape, str) else random_scenario(*shape, seed)
    e = s.ensemble
    scale = 1.0 + np.asarray(eps[:len(e.letters)])
    return Scenario(Ensemble(e.letters, e.probs, scale[:, None, None] * e.given_states), s.instrument, seed=s.seed)


# zero-one-plus at trace 1 + 0.99999e-10 read compound_tr1_eta_if -7.5e-11
# and new_d_term_nonneg -1.0e-10 while the analysis read the letters as given
@example(shape="zero-one-plus", eps=[0.99999e-10] * 4, seed=0)
@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    shape=st.sampled_from(ACCEPTANCE_GRID),
    eps=st.lists(st.floats(-0.9 * HERM_TOL, 0.9 * HERM_TOL), min_size=4, max_size=4),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_scaled_letters_leave_the_rows_at_rounding(shape, eps, seed):
    assert off_rounding(judged_slacks(round_trip(scaled_letters_scenario(shape, eps, seed).to_json()))) == []
