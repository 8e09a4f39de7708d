"""Joint input/output statistics of (ensemble, instrument), mutual-entropy
closed forms, identities, inequalities and compound states. Every state here
is a plain array, and ``random_pure`` draws a pure letter as one."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import matcore
from .entropy import _entropy, chi_against, mutual_info, vn_entropies, weighted_sum
from .errors import QinstrError
from .instrument import (
    Instrument,
    _apply_to_stack,
    _posteriors,
    a_posteriori_stack,
)
from .qstate import Ensemble, pure_state

EQ_TOL = 1e-9
INEQ_TOL = 1e-8
PURITY_TOL = 1e-8
# An output whose eigenvalues are l1 >> l2 has purity about 1 - 2 l2 / l1, and
# l2 / l1 is about r**2 when the Kraus family's second singular value is r
# times its first (up to a factor of order 1 that depends on the input). So a
# purity deficit of PURITY_TOL is a relative second singular value of about
# sqrt(PURITY_TOL / 2).
RANK_ONE_TOL = math.sqrt(PURITY_TOL / 2)
PROB_FLOOR = 0.05  # letter probabilities of a generated ensemble are raised to it, then renormalized


class BoundCheck(NamedTuple):
    """One inequality (lhs <= rhs) or equality record; its slack is rhs - lhs."""

    name: str
    lhs: float
    rhs: float
    # "ge" inequality, "eq" equality, "dev" an equality whose lhs is a
    # deviation, not an entropy, so it reads the same in either log base;
    # "data" informational
    kind: str = "ge"

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def passes(self, tol: float) -> bool:
        return _passes(self.kind, self.slack, tol)


def _passes(kind: str, slack: float, tol: float) -> bool:
    """The one tolerance policy: an inequality passes iff slack >= -tol, an
    equality (or deviation) iff |slack| <= min(EQ_TOL, tol); data always
    passes. A NaN slack fails every judged kind."""
    if kind == "data":
        return True
    if kind in ("eq", "dev"):
        return abs(slack) <= min(EQ_TOL, tol)
    return slack >= -tol


class ScenarioEntropies(NamedTuple):
    """The von Neumann entropies of one scenario's states."""

    grid: np.ndarray  # S(posterior_letter_states), [letter, outcome]
    mean: np.ndarray  # S(rho_f(omega)), [outcome]
    post: np.ndarray  # S(eta_f^alpha), [letter]
    eta_f: float  # S(eta_f)
    letters: np.ndarray  # S(rho_alpha), [letter]
    eta_i: float  # S(eta_i)


@dataclass(frozen=True)
class MeasurementStatistics:
    """Everything derivable from one (ensemble, instrument) pair.

    The joint table is indexed [letter, outcome]; posterior_letter_states is a
    matching grid of a posteriori states. A null cell holds the fill I/d2
    (``instrument._posteriors``, the only null rule and the only fill) and
    weighs exactly 0 in cond_out_given_in, joint and cond_in_given_out.
    ``live`` marks the outcomes that hold a live cell (P_f(w) > 0), and
    rho_f(w) is the P_{i|f} mixture of an outcome's live cells: the empty
    mixture, 0, for a null outcome, which weighs exactly 0. Every derived
    state and law, P_f among them, is a plain read-only array, a state or a
    law by construction and not checked again (the rules of a state serve
    inputs only, ``qstate``). eta_i is kept as its spectrum, which its entropy
    and Hall's skip read. The entropies and I_c are computed once, on first
    use, and every stage reads them here.
    """

    ensemble: Ensemble
    instrument: Instrument
    joint: np.ndarray
    output_marginal: np.ndarray  # P_f(omega), [outcome]
    live: np.ndarray  # the outcome holds a live cell: P_f(omega) > 0, [outcome]
    cond_out_given_in: np.ndarray  # P_{f|i}(omega|alpha), [letter, outcome]
    cond_in_given_out: np.ndarray  # P_{i|f}(alpha|omega), [letter, outcome]
    posterior_letter_states: np.ndarray  # [letter, outcome, d2, d2]
    posterior_mean_states: np.ndarray  # rho_f(omega), [outcome, d2, d2]
    post_letter_states: np.ndarray  # eta_f^alpha, [letter, d2, d2]
    a_priori_eigenvalues: np.ndarray  # eta_i's spectrum (eigvalsh), ascending
    post_a_priori: np.ndarray  # eta_f, [d2, d2]

    @cached_property
    def entropies(self) -> ScenarioEntropies:
        """Every state's entropy: the output side (the posterior grid, rho_f(w),
        eta_f^a and eta_f) from one batched vn_entropies call; the letters and
        eta_i from their spectra (``Ensemble.spectra``,
        ``a_priori_eigenvalues``)."""
        n_l, n_o = self.joint.shape
        d2 = self.instrument.dim_out
        s = vn_entropies(np.concatenate([
            self.posterior_letter_states.reshape(-1, d2, d2),
            self.posterior_mean_states,
            self.post_letter_states,
            self.post_a_priori[None],
        ]))
        n_grid = n_l * n_o
        return ScenarioEntropies(
            grid=s[:n_grid].reshape(n_l, n_o),
            mean=s[n_grid:n_grid + n_o],
            post=s[n_grid + n_o:-1],
            eta_f=s[-1],
            letters=_entropy(self.ensemble.spectra.eigenvalues),
            eta_i=float(_entropy(self.a_priori_eigenvalues)),
        )

    @cached_property
    def classical_mi(self) -> float:
        """I_c = S_c(P_if | P_i x P_f), from the joint table."""
        return float(mutual_info(self.joint, self.ensemble.probs, self.output_marginal))

    @property
    def info_gain(self) -> float:
        """I_q(eta_i), the quantum information gain on the a priori state. Its a
        posteriori states are rho_f(w) (the grid's outcome mixtures analyze
        computed) and its outcome law is P_f, so no channel is applied again."""
        s = self.entropies
        return float(_info_gain(s.eta_i, self.output_marginal, s.mean))


@dataclass(frozen=True)
class EntropyPanel:
    chi_initial: float
    chi_post: float
    chi_out: float
    chi_joint: float
    mean_chi_given_out: float
    mean_chi_given_in: float
    classical_mi: float
    tripartite: float

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def analyze(e: Ensemble, ins: Instrument) -> MeasurementStatistics:
    """Joint/conditional probabilities and all post-measurement state families.

    The instrument is applied once, to the stack of letter states, giving the
    grid of I_w(rho_a), whose null cells ``_posteriors`` alone decides; the
    other families are read off it: rho_f(w) = sum_a P_{i|f}(a|w) rho_a(w) (0
    for a null outcome, whose P_{i|f} column is 0), eta_f^a = sum_w I_w(rho_a)
    and eta_f = sum_a P_a eta_f^a. Of eta_i = sum_a P_a rho_a only the
    spectrum is kept, from one ``eigvalsh``.
    """
    if e.dim != ins.dim_in:
        raise QinstrError(f"ensemble dim {e.dim} vs instrument dim_in {ins.dim_in}")
    outs = _apply_to_stack(ins, e.states)
    cond, posts = _posteriors(outs)
    post_letter = outs.sum(axis=0)

    joint = e.probs[:, None] * cond.T
    joint = joint / joint.sum()
    p_f = joint.sum(axis=0)
    live = p_f > 0.0
    cond_if = np.divide(joint, p_f, out=np.zeros_like(joint), where=live)
    mean = np.einsum("aw,waij->wij", cond_if, posts)
    eta = sum(p * s for p, s in zip(e.probs, e.states))
    p_f.setflags(write=False)
    return MeasurementStatistics(
        ensemble=e,
        instrument=ins,
        joint=joint,
        output_marginal=p_f,
        live=live,
        cond_out_given_in=cond.T,
        cond_in_given_out=cond_if,
        posterior_letter_states=posts.swapaxes(0, 1),
        posterior_mean_states=mean,
        post_letter_states=post_letter,
        a_priori_eigenvalues=matcore.lapack(np.linalg.eigvalsh, eta),
        post_a_priori=np.einsum("a,aij->ij", e.probs, post_letter),
    )


def entropy_panel(ms: MeasurementStatistics) -> EntropyPanel:
    """All chi-quantities and mutual entropies in their closed forms, each chi
    against its family's own barycenter (rho_f(w) for column w of the
    posterior grid, eta_f^a for row a), from the scenario's entropies."""
    s = ms.entropies
    p_i = ms.ensemble.probs
    p_f = ms.output_marginal
    chi_joint = chi_against(ms.joint.ravel(), s.grid.ravel(), s.eta_f)
    i_c = ms.classical_mi
    return EntropyPanel(
        chi_initial=chi_against(p_i, s.letters, s.eta_i),
        chi_post=chi_against(p_i, s.post, s.eta_f),
        chi_out=chi_against(p_f, s.mean, s.eta_f),
        chi_joint=chi_joint,
        mean_chi_given_out=weighted_sum(p_f, chi_against(ms.cond_in_given_out.T, s.grid.T, s.mean)),
        mean_chi_given_in=weighted_sum(p_i, chi_against(ms.cond_out_given_in, s.grid, s.post)),
        classical_mi=i_c,
        tripartite=i_c + chi_joint,
    )


def check_identities(panel: EntropyPanel) -> tuple:
    """Both decompositions of the joint chi plus the tripartite chain rules."""
    return (
        BoundCheck(
            "idts_out",
            panel.chi_joint,
            panel.chi_out + panel.mean_chi_given_out,
            kind="eq",
        ),
        BoundCheck(
            "idts_in",
            panel.chi_joint,
            panel.chi_post + panel.mean_chi_given_in,
            kind="eq",
        ),
        BoundCheck(
            "chain_via_out",
            panel.tripartite,
            panel.classical_mi + panel.mean_chi_given_out + panel.chi_out,
            kind="eq",
        ),
        BoundCheck(
            "chain_via_in",
            panel.tripartite,
            panel.classical_mi + panel.mean_chi_given_in + panel.chi_post,
            kind="eq",
        ),
        BoundCheck(
            "chain_via_joint",
            panel.tripartite,
            panel.classical_mi + panel.chi_joint,
            kind="eq",
        ),
    )


def check_bounds(panel: EntropyPanel) -> tuple:
    """The four inequality families of the mutual-entropy section."""
    return (
        BoundCheck("sww", panel.classical_mi + panel.mean_chi_given_out, panel.chi_initial),
        BoundCheck("holevo", panel.classical_mi, panel.chi_initial),
        BoundCheck(
            "bl1",
            panel.classical_mi,
            panel.chi_initial + panel.chi_out - panel.chi_joint,
        ),
        BoundCheck("lower_bound", panel.chi_post, panel.classical_mi + panel.mean_chi_given_out),
    )


def random_pure(dim: int, rng: np.random.Generator) -> np.ndarray:
    return pure_state(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


def random_ensemble(dim: int, n_letters: int, rng: np.random.Generator) -> Ensemble:
    probs = _floored_prior(rng.uniform(size=n_letters))
    states = _ginibre_states(rng.standard_normal((n_letters, 2, dim, dim)))
    return Ensemble(tuple(range(n_letters)), probs, states)


def _floored_prior(draws: np.ndarray, slots=True) -> np.ndarray:
    """A generated ensemble's letter probabilities from its uniform draws (last
    axis: letter): normalized, raised to PROB_FLOOR and normalized again. A
    stack of priors padded with zeros gives its letters in use as ``slots``;
    the padding stays 0 and leaves the sums as they are."""
    probs = draws / draws.sum(axis=-1, keepdims=True)
    probs = np.where(slots, np.maximum(probs, PROB_FLOOR), 0.0)
    return probs / probs.sum(axis=-1, keepdims=True)


def _ginibre_states(g: np.ndarray) -> np.ndarray:
    """Normalized Ginibre states G G^dag / Tr for a stack of [re, im] draws."""
    g = (g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0)
    m = g @ g.conj().swapaxes(-1, -2)
    return m / m.trace(axis1=-2, axis2=-1).real[:, None, None]


def _info_gain(s_in, probs, s_post) -> np.ndarray:
    """The information gain S(rho) - sum_w P(w | rho) S(rho_w) from the input's
    entropy and its a posteriori law and entropies (last axis: outcome)."""
    return s_in - weighted_sum(probs, s_post)


def _gains(ins: Instrument, rhos: np.ndarray) -> tuple:
    """The information gain of each state of a stack (``_info_gain``) and the
    outcome probabilities [outcome, n]."""
    probs, posts = a_posteriori_stack(ins, rhos)
    s_post = vn_entropies(posts.reshape(-1, ins.dim_out, ins.dim_out)).reshape(probs.shape)
    return _info_gain(vn_entropies(rhos), probs.T, s_post.T), probs


def _rank_one(a: np.ndarray) -> np.ndarray:
    """Whether each matrix of a stack has rank <= 1 (a zero matrix has): its
    second singular value is at most RANK_ONE_TOL times its first."""
    if min(a.shape[-2:]) < 2:
        return np.ones(len(a), dtype=bool)
    s = matcore.lapack(np.linalg.svd, a, compute_uv=False)
    return s[:, 1] <= RANK_ONE_TOL * s[:, 0]


def _preserves_purity(ins: Instrument) -> bool:
    """Whether the instrument takes every pure state to a pure state or to 0,
    outcome by outcome: Ozawa's exact class (J. Math. Phys. 27, 759, 1986).

    An outcome preserves purity iff its Kraus operators are all proportional
    to one operator (the stacked vec(K_k) have rank <= 1), or they all share
    one rank-1 range (measure-and-prepare: [K_1 | K_2 | ...] has rank <= 1).
    The zero operators that pad ``Instrument.kraus_stack`` change neither rank.
    """
    kraus = ins.kraus_stack
    n_o, width, d2, d1 = kraus.shape
    proportional = _rank_one(kraus.reshape(n_o, width, d2 * d1))
    if proportional.all():
        return True
    one_range = _rank_one(kraus.swapaxes(1, 2).reshape(n_o, d2, width * d1))
    return bool((proportional | one_range).all())


def groenewold_lindblad_check(ins: Instrument, trials: int, seed: int, n_demix: int) -> tuple[bool, tuple]:
    """Exact purity classification plus the information-gain inequalities.

    Returns (purity_preserving, rows). The class is Ozawa's, read off the
    Kraus operators (``_preserves_purity``). The gain-positivity record is only
    emitted for instruments classified purity-preserving; the chain inequality
    I_c + sum_a P_a I_q(rho_a) <= I_q(eta) (the instrument-level equivalent of
    the strengthened Holevo bound) is checked unconditionally on random
    demixtures.

    The random numbers are those ``random_pure``, ``reference.random_density``
    and ``random_ensemble`` would draw, trial after trial; only the draws loop.
    The ``trials`` pure states that once sampled the purity class are still
    drawn, and dropped, so that every later draw stays as it was.
    The trial states, the demixtures' letters and their barycenters eta form
    one stack, whose gains come from one ``_gains`` call, and the chain rows
    are computed together from priors (floored together by
    ``_floored_prior``) and outcome laws padded to three letters.
    """
    rng = np.random.default_rng(seed)
    d1 = ins.dim_in

    rng.standard_normal((trials, 2, d1))
    purity_preserving = _preserves_purity(ins)

    n_trials = trials if purity_preserving else 0
    draws = [rng.standard_normal((n_trials, 2, d1, d1))]
    uniforms = np.zeros((n_demix, 3))
    slots = np.zeros((n_demix, 3), dtype=bool)  # [demixture, letter] in use
    for j in range(n_demix):  # random_ensemble's draws, in its order
        n = int(rng.integers(2, 4))
        slots[j, :n] = True
        uniforms[j, :n] = rng.uniform(size=n)
        draws.append(rng.standard_normal((n, 2, d1, d1)))
    priors = _floored_prior(uniforms, slots)
    states = _ginibre_states(np.concatenate(draws))
    n_states = len(states)
    letters = np.zeros((n_demix, 3, d1, d1), dtype=np.complex128)
    letters[slots] = states[n_trials:]
    etas = np.einsum("ja,jamn->jmn", priors, letters)
    gains, cond = _gains(ins, np.concatenate([states, etas]))

    checks = []
    if purity_preserving:
        checks.append(BoundCheck("gl_info_gain_nonneg", 0.0, float(gains[:n_trials].min())))

    letter_gains = np.zeros((n_demix, 3))
    letter_gains[slots] = gains[n_trials:n_states]
    laws = np.zeros((n_demix, 3, len(cond)))  # P(w | rho_a), [demixture, letter, outcome]
    laws[slots] = cond[:, n_trials:n_states].T
    joint = priors[:, :, None] * laws
    joint = joint / joint.sum(axis=(1, 2), keepdims=True)
    rhs = mutual_info(joint, priors, joint.sum(axis=1)) + (priors * letter_gains).sum(axis=1)
    checks += [BoundCheck("gl_chain", r, g) for r, g in zip(rhs.tolist(), gains[n_states:].tolist())]
    return purity_preserving, tuple(checks)


@dataclass(frozen=True)
class CompoundStates:
    """The bipartite compound states on H1 (x) H2 and their building blocks, as arrays."""

    eps_if: np.ndarray  # [outcome, d1 d2, d1 d2]
    eps_i: np.ndarray  # [outcome, d1, d1]
    eps_f: np.ndarray  # [outcome, d2, d2]
    eta_if: np.ndarray  # [d1 d2, d1 d2]
    tau_f: np.ndarray  # [letter, d2, d2]
    gamma_if: np.ndarray  # [d1 d2, d1 d2]
    consistency: tuple  # the BoundCheck rows of the marginal and mixture identities


def compound_states(ms: MeasurementStatistics) -> CompoundStates:
    """The compound states and their consistency rows. A row compares a
    marginal or a mixture with what the algebra gives for the instrument as
    read, whose effect sum may be off the identity within POVM_SUM_TOL:
    Tr_2 eta_if and Tr_2 gamma_if with sum_a P_a tr(eta_f^a) rho_a, Tr_1 of
    both with eta_f, and the tau_f mixture with sum_a P_a eta_f^a / tr eta_f^a.
    The comparands come from the letters, eta_f^a and their traces, never from
    the compound states, so a row reads the construction's rounding. A null
    outcome's eps_if is the empty mixture, 0, and weighs exactly 0."""
    e = ms.ensemble
    d1 = e.dim
    d2 = ms.instrument.dim_out
    p_f = ms.output_marginal
    rho_f = ms.posterior_mean_states

    eps_if = np.einsum(
        "aw,amn->wmn", ms.cond_in_given_out, matcore.kron(e.states, ms.post_letter_states)
    )
    eps_i = matcore.partial_trace(eps_if, "second", d1, d2)
    eps_f = matcore.partial_trace(eps_if, "first", d1, d2)
    eta_if = np.einsum("w,wmn->mn", p_f, eps_if)
    tau_f = np.einsum("aw,wij->aij", ms.cond_out_given_in, rho_f)
    gamma_if = np.einsum("w,wmn->mn", p_f, matcore.kron(eps_i, rho_f))

    post = ms.post_letter_states
    tr_post = post.trace(axis1=-2, axis2=-1).real  # tr eta_f^a, [letter]
    tr2 = np.einsum("a,aij->ij", e.probs * tr_post, e.states)
    mix = np.einsum("a,aij->ij", e.probs / tr_post, post)
    eta_f = ms.post_a_priori
    pairs = (  # (row, marginal, the state it must equal)
        ("compound_tr2_eta_if", matcore.partial_trace(eta_if, "second", d1, d2), tr2),
        ("compound_tr1_eta_if", matcore.partial_trace(eta_if, "first", d1, d2), eta_f),
        ("compound_tr2_gamma", matcore.partial_trace(gamma_if, "second", d1, d2), tr2),
        ("compound_tr1_gamma", matcore.partial_trace(gamma_if, "first", d1, d2), eta_f),
        ("compound_tau_mix", np.einsum("a,aij->ij", e.probs, tau_f), mix),
    )
    checks = tuple(BoundCheck(name, float(np.abs(a - b).max()), 0.0, kind="dev") for name, a, b in pairs)
    return CompoundStates(
        eps_if=eps_if,
        eps_i=eps_i,
        eps_f=eps_f,
        eta_if=eta_if,
        tau_f=tau_f,
        gamma_if=gamma_if,
        consistency=checks,
    )


def scutaru_chains(ms: MeasurementStatistics, cs: CompoundStates) -> tuple:
    """Both compound-state inequality chains, one record per link. S(eta_i),
    S(eta_f) and I_c are the scenario's (``ms.entropies``); the compound
    states' entropies come from one batched vn_entropies call per dimension."""
    n_o = len(cs.eps_f)
    p_i = ms.ensemble.probs
    p_f = ms.output_marginal
    i_c = ms.classical_mi
    s_eta_i, s_eta_f = ms.entropies.eta_i, ms.entropies.eta_f

    s_joint = vn_entropies(np.concatenate([cs.eps_if, cs.eta_if[None], cs.gamma_if[None]]))
    s_eps_i = vn_entropies(cs.eps_i)
    s_out = vn_entropies(np.concatenate([cs.eps_f, cs.tau_f]))

    chi_eps_if = chi_against(p_f, s_joint[:n_o], s_joint[n_o])
    chi_eps_i = chi_against(p_f, s_eps_i, s_eta_i)
    chi_eps_f = chi_against(p_f, s_out[:n_o], s_eta_f)
    chi_tau_f = chi_against(p_i, s_out[n_o:], s_eta_f)
    # S(gamma_if | eta_i (x) eta_f): gamma's marginals are eta_i and eta_f when
    # the effects sum to I (the compound_tr*_gamma rows), so it is a mutual information
    gamma_rel = s_eta_i + s_eta_f - s_joint[-1]

    return (
        BoundCheck("scutaru1_ic_ge_chi_eps_if", chi_eps_if, i_c),
        BoundCheck("scutaru1_chi_eps_if_ge_chi_eps_i", chi_eps_i, chi_eps_if),
        BoundCheck("scutaru1_chi_eps_if_ge_chi_eps_f", chi_eps_f, chi_eps_if),
        BoundCheck("scutaru2_ic_ge_chi_eps_i", chi_eps_i, i_c),
        BoundCheck("scutaru2_ic_ge_chi_tau_f", chi_tau_f, i_c),
        BoundCheck("scutaru2_chi_eps_i_ge_gamma", gamma_rel, chi_eps_i),
        BoundCheck("scutaru2_chi_tau_f_ge_gamma", gamma_rel, chi_tau_f),
    )
