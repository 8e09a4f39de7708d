"""Every chi of the pipeline is an entropy difference against its family's own
barycenter (entropy.chi_against). These tests hold it to the relative-entropy
form it replaces, and to finiteness where that form's support test gave +inf."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import judged
from qinstr import matcore
from qinstr.hallmap import hall_section
from qinstr.harness import ACCEPTANCE_GRID, Scenario, main, random_scenario, run_scenario
from qinstr.infobounds import (
    analyze,
    compound_states,
    entropy_panel,
    random_pure,
    scutaru_chains,
)
from qinstr.instrument import Instrument, KrausMap, random_instrument
from qinstr.qstate import DensityMatrix, Ensemble, pure_state
from oracle import a_priori_state, dual_ensemble, q_rel_entropy


def rel_form(weights, members, barycenter):
    """sum_b w_b S_q(member_b | barycenter) through q_rel_entropy."""
    return sum(w * q_rel_entropy(m, barycenter) for w, m in zip(weights, members) if w > 1e-12)


def states(stack):
    """DensityMatrix of each matrix of a stack (a grid keeps its shape)."""
    stack = np.asarray(stack)
    if stack.ndim == 2:
        return DensityMatrix(stack)
    return [states(m) for m in stack]


def projective(d):
    eye = np.eye(d)
    maps = tuple(KrausMap(d, d, (np.outer(eye[k], eye[k]).astype(complex),)) for k in range(d))
    return Instrument(tuple(range(d)), maps)


def rare_direction_ensemble(lam=7e-10):
    """|0>, |+> and a rare letter whose weight outside their span is lam: eta's
    eigenvalue there, 1e-3 lam, lies below SUPPORT_CUTOFF, and every entropy
    still reads it."""
    inv = 1 / math.sqrt(2)
    states = (
        pure_state([1, 0, 0]),
        pure_state([inv, inv, 0]),
        np.diag([0.5 - lam / 2, 0.5 - lam / 2, lam]),
    )
    return Ensemble((0, 1, 2), np.array([0.5, 0.499, 0.001]), states)


def pure_letters_scenario(seed):
    rng = np.random.default_rng(seed)
    e = Ensemble((0, 1), np.array([0.4, 0.6]), (random_pure(3, rng), random_pure(3, rng)))
    return Scenario(e, random_instrument(3, 3, 3, 1, seed=seed), seed=seed)


CROSS_CHECK = [random_scenario(*shape, seed=index) for index, shape in enumerate(ACCEPTANCE_GRID)]
CROSS_CHECK.append(pure_letters_scenario(5))


@pytest.mark.parametrize("s", CROSS_CHECK)
def test_every_chi_matches_the_relative_entropy_form(s):
    ms = analyze(s.ensemble, s.instrument)
    panel = entropy_panel(ms)
    p_i, p_f = ms.ensemble.probs, ms.output_marginal
    eta_i, eta_f = a_priori_state(s.ensemble), states(ms.post_a_priori)
    grid = states(ms.posterior_letter_states)
    post_letter, post_mean = states(ms.post_letter_states), states(ms.posterior_mean_states)
    cells = [(a, w) for a in range(len(grid)) for w in range(len(p_f)) if ms.joint[a, w] > 1e-12]
    expected = {
        "chi_initial": rel_form(p_i, states(s.ensemble.states), eta_i),
        "chi_post": rel_form(p_i, post_letter, eta_f),
        "chi_out": rel_form(p_f, post_mean, eta_f),
        "chi_joint": rel_form(ms.joint.ravel(), [x for row in grid for x in row], eta_f),
        "mean_chi_given_out": sum(
            ms.joint[a, w] * q_rel_entropy(grid[a][w], post_mean[w])
            for a, w in cells
        ),
        "mean_chi_given_in": sum(
            ms.joint[a, w] * q_rel_entropy(grid[a][w], post_letter[a])
            for a, w in cells
        ),
    }
    for name, value in expected.items():
        assert abs(panel[name] - value) <= 1e-10, name

    cs = compound_states(ms)
    chains = {row["name"]: row for row in judged(scutaru_chains(ms, cs), panel)}
    kron = DensityMatrix(matcore.kron(eta_i.mat, eta_f.mat))
    links = {
        "scutaru1_ic_ge_chi_eps_if": rel_form(p_f, states(cs.eps_if), states(cs.eta_if)),
        "scutaru1_chi_eps_if_ge_chi_eps_i": rel_form(p_f, states(cs.eps_i), eta_i),
        "scutaru1_chi_eps_if_ge_chi_eps_f": rel_form(p_f, states(cs.eps_f), eta_f),
        "scutaru2_ic_ge_chi_tau_f": rel_form(p_i, states(cs.tau_f), eta_f),
        "scutaru2_chi_eps_i_ge_gamma": q_rel_entropy(states(cs.gamma_if), kron),
    }
    for name, value in links.items():
        assert abs(chains[name]["lhs"] - value) <= 1e-10, name

    if eta_i.spectral().eigenvalues[0] > 1e-9:
        dual = dual_ensemble(s.instrument, eta_i)
        live = [(p, states(x)) for p, x in zip(dual.probs.probs, dual.states) if p > 1e-12]
        chi_dual = rel_form([p for p, _ in live], [x for _, x in live], eta_i)
        hall = {row["name"]: row for row in judged(hall_section(ms), panel)}
        assert abs(hall["hall_bound"]["rhs"] - chi_dual) <= 1e-10


class TestRareDirection:
    def test_report_is_finite_and_passes(self):
        report = run_scenario(Scenario(rare_direction_ensemble(), projective(3)))
        assert all(math.isfinite(v) for v in report["panel"].values())
        assert all(math.isfinite(c["lhs"]) and math.isfinite(c["rhs"]) for c in report["checks"])
        assert report["overall_pass"]

    def test_analyze_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(Scenario(rare_direction_ensemble(), projective(3)).to_json()))
        assert main(["analyze", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["overall_pass"] is True


def _log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(lambda x: 10.0 ** x)


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(2, 3),
    weight=_log_uniform(1e-9, 1e-3),
    lam=_log_uniform(1e-14, 1e-6),
    pure_outside=st.booleans(),
    use_projective=st.booleans(),
    seed=st.integers(0, 10 ** 6),
)
def test_rare_letters_stay_finite(d, weight, lam, pure_outside, use_projective, seed):
    """Common letters live in the first d-1 coordinates (so without the rare
    letter eta is rank-deficient); the rare letter has weight `weight` and puts
    `lam` on the last coordinate. The projective instrument makes that
    coordinate's outcome near-null."""
    rng = np.random.default_rng(seed)

    def ket():
        v = np.zeros(d, dtype=complex)
        v[: d - 1] = rng.standard_normal(d - 1) + 1j * rng.standard_normal(d - 1)
        return v / np.linalg.norm(v)

    common = [pure_state(ket()) for _ in range(2)]
    k = ket()
    last = np.zeros(d)
    last[-1] = 1.0
    rare = (1 - lam) * np.outer(k, k.conj()) + lam * np.diag(last)
    if not pure_outside:
        rare = 0.5 * rare + 0.5 * common[0]
    split = rng.uniform(0.2, 0.8)
    probs = np.array([(1 - weight) * split, (1 - weight) * (1 - split), weight])
    e = Ensemble((0, 1, 2), probs, (*common, rare))
    ins = projective(d) if use_projective else random_instrument(d, d, 3, 1, seed=seed)
    scenario = Scenario(e, ins, gl_trials=10, gl_demix=1, seed=seed)
    report = run_scenario(scenario)

    assert all(math.isfinite(v) for v in report["panel"].values())
    assert all(math.isfinite(c["lhs"]) and math.isfinite(c["rhs"]) for c in report["checks"])
    shannon = -sum(p * math.log(p) for p in probs)
    assert report["panel"]["chi_initial"] <= shannon + scenario.tol
