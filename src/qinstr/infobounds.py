"""Joint input/output statistics of (ensemble, instrument), mutual-entropy
closed forms, compound states and the table of check rows (``ROWS``). Every
state here is a plain array, and ``random_pure`` draws a pure letter as one."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import matcore
from .entropy import _entropy, chi_against, mutual_info, vn_entropies, weighted_sum
from .errors import QinstrError
from .instrument import Instrument, _apply_to_stack, _posteriors
from .qstate import Ensemble, pure_state

EQ_TOL = 1e-9
INEQ_TOL = 1e-8
PROB_FLOOR = 0.05  # letter probabilities of a generated ensemble are raised to it, then renormalized


# Every check row, in report order: (name, kind, lhs terms, rhs terms), which
# harness.judged_rows alone builds and judges. A kind is "ge" (lhs <= rhs),
# "eq" (an equality), "dev" (an equality whose lhs is a deviation, not an
# entropy, so it reads the same in either log base) or "data" (never judged).
# A term names a scalar that a stage returns (the panel, the GL check, the
# compound states, the Scutaru chains, the Hall section); a leading "-"
# subtracts it.
ROWS = (
    ("idts_out", "eq", ("chi_joint",), ("chi_out", "mean_chi_given_out")),
    ("idts_in", "eq", ("chi_joint",), ("chi_post", "mean_chi_given_in")),
    ("chain_via_out", "eq", ("tripartite",), ("classical_mi", "mean_chi_given_out", "chi_out")),
    ("chain_via_in", "eq", ("tripartite",), ("classical_mi", "mean_chi_given_in", "chi_post")),
    ("chain_via_joint", "eq", ("tripartite",), ("classical_mi", "chi_joint")),
    ("sww", "ge", ("classical_mi", "mean_chi_given_out"), ("chi_initial",)),
    ("holevo", "ge", ("classical_mi",), ("chi_initial",)),
    ("bl1", "ge", ("classical_mi",), ("chi_initial", "chi_out", "-chi_joint")),
    ("lower_bound", "ge", ("chi_post",), ("classical_mi", "mean_chi_given_out")),
    ("gl_info_gain_nonneg", "ge", (), ("gl_least_gain",)),
    ("gl_chain", "ge", ("gl_chain_lhs",), ("gl_chain_rhs",)),
    ("compound_tr2_eta_if", "dev", ("tr2_eta_if_dev",), ()),
    ("compound_tr1_eta_if", "dev", ("tr1_eta_if_dev",), ()),
    ("compound_tr2_gamma", "dev", ("tr2_gamma_dev",), ()),
    ("compound_tr1_gamma", "dev", ("tr1_gamma_dev",), ()),
    ("compound_tau_mix", "dev", ("tau_mix_dev",), ()),
    ("scutaru1_ic_ge_chi_eps_if", "ge", ("chi_eps_if",), ("classical_mi",)),
    ("scutaru1_chi_eps_if_ge_chi_eps_i", "ge", ("chi_eps_i",), ("chi_eps_if",)),
    ("scutaru1_chi_eps_if_ge_chi_eps_f", "ge", ("chi_eps_f",), ("chi_eps_if",)),
    ("scutaru2_ic_ge_chi_eps_i", "ge", ("chi_eps_i",), ("classical_mi",)),
    ("scutaru2_ic_ge_chi_tau_f", "ge", ("chi_tau_f",), ("classical_mi",)),
    ("scutaru2_chi_eps_i_ge_gamma", "ge", ("gamma_rel",), ("chi_eps_i",)),
    ("scutaru2_chi_tau_f_ge_gamma", "ge", ("gamma_rel",), ("chi_tau_f",)),
    ("duality_conditional_law", "dev", ("dual_law_dev",), ()),
    ("duality_ic", "eq", ("dual_classical_mi",), ("classical_mi",)),
    ("hall_bound", "ge", ("classical_mi",), ("chi_dual",)),
    ("new_bound", "ge", ("classical_mi",), ("chi_initial", "-d_term")),
    ("new_d_term_nonneg", "ge", (), ("dual_least_gain",)),
    ("new_iq_identity", "eq", ("dual_eta_gain",), ("chi_initial",)),
    ("new_le_holevo", "ge", ("chi_initial", "-d_term"), ("chi_initial",)),
    ("new_vs_hall_data", "data", ("chi_initial", "-d_term"), ("chi_dual",)),
)


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
    matching grid of a posteriori states. A null cell holds 0
    (``instrument._posteriors``, the only null rule), as its probability does,
    and weighs exactly 0 in cond_out_given_in, joint and cond_in_given_out.
    ``live`` marks the outcomes that hold a live cell (P_f(w) > 0), and
    rho_f(w) is the P_{i|f} mixture of an outcome's live cells: the empty
    mixture, 0, for a null outcome, which weighs exactly 0. Every array field
    (each derived state and law) is a plain array that ``analyze`` marks
    read-only, a state or a law by construction and not checked again (the
    rules of a state serve inputs only, ``qstate``). eta_i is kept as its
    spectrum, which its entropy and Hall's skip read. The entropies and I_c
    are computed once, on first use, and every stage reads them here.
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
    a_priori_eigenvalues: np.ndarray  # eta_i's spectrum (matcore.eigvalsh), ascending
    post_a_priori: np.ndarray  # eta_f, [d2, d2]

    @cached_property
    def entropies(self) -> ScenarioEntropies:
        """Every state's entropy: the output side (the posterior grid, rho_f(w),
        eta_f^a and eta_f) from one batched vn_entropies call; the letters and
        eta_i from their spectra (``Ensemble.eigenvalues``,
        ``a_priori_eigenvalues``). The grid columns and rho_f(w) of an outcome
        of ``Instrument.pure_outputs`` are pure states or 0: they read exactly
        0.0 and take no spectrum."""
        n_l, n_o = self.joint.shape
        d2 = self.instrument.dim_out
        mixed = _mixed_outputs(self.instrument)
        means = self.posterior_mean_states[mixed]
        n_mean = len(means)
        n_grid = n_l * n_mean
        s = vn_entropies(np.concatenate([
            self.posterior_letter_states[:, mixed].reshape(-1, d2, d2),
            means,
            self.post_letter_states,
            self.post_a_priori[None],
        ]))
        grid, mean = np.zeros((n_l, n_o)), np.zeros(n_o)
        grid[:, mixed] = s[:n_grid].reshape(n_l, n_mean)
        mean[mixed] = s[n_grid:n_grid + n_mean]
        return ScenarioEntropies(
            grid=grid,
            mean=mean,
            post=s[n_grid + n_mean:-1],
            eta_f=s[-1],
            letters=_entropy(self.ensemble.eigenvalues),
            eta_i=float(_entropy(self.a_priori_eigenvalues)),
        )

    @cached_property
    def classical_mi(self) -> float:
        """I_c = S_c(P_if | P_i x P_f), read off the joint law alone (``mutual_info``)."""
        return float(mutual_info(self.joint))

    @property
    def info_gain(self) -> float:
        """I_q(eta_i), the quantum information gain on the a priori state. Its a
        posteriori states are rho_f(w) (the grid's outcome mixtures analyze
        computed) and its outcome law is P_f, so no channel is applied again."""
        s = self.entropies
        return float(_info_gain(s.eta_i, self.output_marginal, s.mean))


def analyze(e: Ensemble, ins: Instrument) -> MeasurementStatistics:
    """Joint/conditional probabilities and all post-measurement state families.

    The instrument is applied once, to the stack of letter states, giving the
    grid of I_w(rho_a), whose null cells ``_posteriors`` alone decides; the
    other families are read off it: rho_f(w) = sum_a P_{i|f}(a|w) rho_a(w) (0
    for a null outcome, whose P_{i|f} column is 0), eta_f^a = sum_w I_w(rho_a)
    and eta_f = sum_a P_a eta_f^a. Of eta_i = sum_a P_a rho_a only the
    spectrum is kept, from ``matcore.eigvalsh`` (closed form at d = 2).
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
    eta = np.einsum("a,aij->ij", e.probs, e.states)
    ms = MeasurementStatistics(
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
        a_priori_eigenvalues=matcore.eigvalsh(eta),
        post_a_priori=np.einsum("a,aij->ij", e.probs, post_letter),
    )
    for value in vars(ms).values():  # every array field, each view itself too
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return ms


def entropy_panel(ms: MeasurementStatistics) -> dict:
    """All chi-quantities and mutual entropies in their closed forms, by
    name, each chi against its family's own barycenter (rho_f(w) for column w
    of the posterior grid, eta_f^a for row a), from the scenario's entropies."""
    s = ms.entropies
    p_i = ms.ensemble.probs
    p_f = ms.output_marginal
    chi_joint = chi_against(ms.joint.ravel(), s.grid.ravel(), s.eta_f)
    i_c = ms.classical_mi
    return {
        "chi_initial": chi_against(p_i, s.letters, s.eta_i),
        "chi_post": chi_against(p_i, s.post, s.eta_f),
        "chi_out": chi_against(p_f, s.mean, s.eta_f),
        "chi_joint": chi_joint,
        "mean_chi_given_out": weighted_sum(p_f, chi_against(ms.cond_in_given_out.T, s.grid.T, s.mean)),
        "mean_chi_given_in": weighted_sum(p_i, chi_against(ms.cond_out_given_in, s.grid, s.post)),
        "classical_mi": i_c,
        "tripartite": i_c + chi_joint,
    }


def random_pure(dim: int, rng: np.random.Generator) -> np.ndarray:
    return pure_state(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


def random_ensemble(dim: int, n_letters: int, rng: np.random.Generator) -> Ensemble:
    probs = _floored_prior(rng.uniform(size=n_letters))
    states = _ginibre_states(rng.standard_normal((n_letters, 2, dim, dim)))
    return Ensemble(tuple(range(n_letters)), probs, states)


def _floored_prior(draws: np.ndarray, slots=True) -> np.ndarray:
    """A generated ensemble's letter probabilities from its uniform draws
    (last axis: letter; leading axes, one ensemble each): normalized, raised
    to PROB_FLOOR and normalized again. A draw outside ``slots`` (a mask that
    broadcasts against ``draws``) is no letter, and reads 0 throughout, which
    leaves each sum over the letters in use bit for bit as it was."""
    draws = np.where(slots, draws, 0.0)
    probs = np.where(slots, np.maximum(draws / draws.sum(axis=-1, keepdims=True), PROB_FLOOR), 0.0)
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
    outcome probabilities [outcome, n]. The outputs of an outcome of
    ``ins.pure_outputs`` are pure states or 0: their entropies read exactly
    0.0 and take no spectrum. The inputs and the other outputs take theirs
    from one ``vn_entropies`` call per matrix size, one when d1 = d2."""
    probs, posts = _posteriors(_apply_to_stack(ins, rhos))
    n, d1, d2 = len(rhos), ins.dim_in, ins.dim_out
    mixed = _mixed_outputs(ins)
    outs = posts[mixed]  # [outcome, n, d2, d2]
    if d1 == d2:
        s = vn_entropies(np.concatenate([rhos, outs.reshape(-1, d2, d2)]))
        s_in, s_out = s[:n], s[n:]
    else:
        s_in, s_out = vn_entropies(rhos), vn_entropies(outs.reshape(-1, d2, d2))
    s_post = np.zeros(probs.shape)
    s_post[mixed] = s_out.reshape(outs.shape[:2])
    return _info_gain(s_in, probs.T, s_post.T), probs


def _mixed_outputs(ins: Instrument):
    """The outcomes whose outputs take a spectrum, those outside
    ``ins.pure_outputs``: a mask, or every outcome as a slice, so that a
    reader copies no state when no outcome is masked."""
    pure = ins.pure_outputs
    return ~pure if pure.any() else slice(None)


def groenewold_lindblad_check(ins: Instrument, trials: int, seed: int, n_demix: int) -> dict:
    """The information-gain scalars. ``gl_least_gain``, the least gain over
    the trial states, is given only for an instrument of Ozawa's purity class
    (``Instrument.purity_preserving``); the chain inequality I_c + sum_a P_a
    I_q(rho_a) <= I_q(eta) (the instrument-level equivalent of the
    strengthened Holevo bound) is read unconditionally on random demixtures,
    its sides listed one entry per demixture (``gl_chain_lhs``,
    ``gl_chain_rhs``).

    The random numbers are those ``random_pure``, the tests' ``random_density``
    and ``random_ensemble`` would draw, trial after trial; only the draws loop.
    The ``trials`` pure states that once sampled the purity class are still
    drawn, and dropped, so that every later draw stays as it was.
    The trial states, the demixtures' letters and their barycenters eta form
    one stack, whose gains come from one ``_gains`` call, and the chain rows
    are computed together from priors and outcome laws padded with zeros to
    three letters. The letters a demixture drew mark its slots, and one
    ``_floored_prior`` call floors every demixture's prior over its slots, as
    ``random_ensemble`` floors one.
    """
    rng = np.random.default_rng(seed)
    d1 = ins.dim_in

    rng.standard_normal((trials, 2, d1))
    n_trials = trials if ins.purity_preserving else 0
    draws = [rng.standard_normal((n_trials, 2, d1, d1))]
    n_letters = np.zeros(n_demix, dtype=int)
    uniforms = np.zeros((n_demix, 3))  # [demixture, letter]
    for j in range(n_demix):  # random_ensemble's draws, in its order
        n_letters[j] = rng.integers(2, 4)
        uniforms[j, :n_letters[j]] = rng.uniform(size=n_letters[j])
        draws.append(rng.standard_normal((n_letters[j], 2, d1, d1)))
    slots = np.arange(3) < n_letters[:, None]  # [demixture, letter] in use
    priors = _floored_prior(uniforms, slots)  # 0 past a demixture's letters
    states = _ginibre_states(np.concatenate(draws))
    n_states = len(states)
    letters = np.zeros((n_demix, 3, d1, d1), dtype=np.complex128)
    letters[slots] = states[n_trials:]
    etas = np.einsum("ja,jamn->jmn", priors, letters)
    gains, cond = _gains(ins, np.concatenate([states, etas]))

    letter_gains = np.zeros((n_demix, 3))
    letter_gains[slots] = gains[n_trials:n_states]
    laws = np.zeros((n_demix, 3, len(cond)))  # P(w | rho_a), [demixture, letter, outcome]
    laws[slots] = cond[:, n_trials:n_states].T
    lhs = mutual_info(priors[:, :, None] * laws) + (priors * letter_gains).sum(axis=1)
    scalars = {"gl_chain_lhs": lhs.tolist(), "gl_chain_rhs": gains[n_states:].tolist()}
    if ins.purity_preserving:
        scalars["gl_least_gain"] = float(gains[:n_trials].min())
    return scalars


@dataclass(frozen=True)
class CompoundStates:
    """The bipartite compound states on H1 (x) H2 and their building blocks, as arrays."""

    eps_if: np.ndarray  # [outcome, d1 d2, d1 d2]
    eps_i: np.ndarray  # [outcome, d1, d1]
    eps_f: np.ndarray  # [outcome, d2, d2]
    eta_if: np.ndarray  # [d1 d2, d1 d2]
    tau_f: np.ndarray  # [letter, d2, d2]
    gamma_if: np.ndarray  # [d1 d2, d1 d2]
    deviations: dict  # the largest entry deviations of the marginal and mixture identities


def compound_states(ms: MeasurementStatistics) -> CompoundStates:
    """The compound states and their five consistency deviations (the
    ``compound_*`` rows of ``ROWS``), each the largest entry of a marginal or
    a mixture less the state the algebra gives, the letters having unit
    trace (``Ensemble``) and the effects summing to I (``Instrument``), each
    normalized when it is built: Tr_2 eta_if and Tr_2 gamma_if less
    eta_i = sum_a P_a rho_a, and Tr_1 of both and the tau_f mixture less
    eta_f. The comparands come from the letters and eta_f, never from the
    compound states, so a deviation reads the construction's rounding. A
    null outcome's eps_if is the empty mixture, 0, and weighs exactly 0."""
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

    eta_i = np.einsum("a,aij->ij", e.probs, e.states)
    eta_f = ms.post_a_priori
    pairs = (  # (deviation, marginal, the state it must equal)
        ("tr2_eta_if_dev", matcore.partial_trace(eta_if, "second", d1, d2), eta_i),
        ("tr1_eta_if_dev", matcore.partial_trace(eta_if, "first", d1, d2), eta_f),
        ("tr2_gamma_dev", matcore.partial_trace(gamma_if, "second", d1, d2), eta_i),
        ("tr1_gamma_dev", matcore.partial_trace(gamma_if, "first", d1, d2), eta_f),
        ("tau_mix_dev", np.einsum("a,aij->ij", e.probs, tau_f), eta_f),
    )
    return CompoundStates(
        eps_if=eps_if,
        eps_i=eps_i,
        eps_f=eps_f,
        eta_if=eta_if,
        tau_f=tau_f,
        gamma_if=gamma_if,
        deviations={name: float(np.abs(a - b).max()) for name, a, b in pairs},
    )


def scutaru_chains(ms: MeasurementStatistics, cs: CompoundStates) -> dict:
    """The five chi's of both compound-state inequality chains, which the
    ``scutaru*`` rows of ``ROWS`` compare with each other and with the
    panel's I_c. S(eta_i) and S(eta_f) are the scenario's (``ms.entropies``);
    the compound states' entropies come from three vn_entropies calls, one
    each on H1 (x) H2, H1 and H2: two of one size when d1 = d2."""
    n_o = len(cs.eps_f)
    p_i = ms.ensemble.probs
    p_f = ms.output_marginal
    s_eta_i, s_eta_f = ms.entropies.eta_i, ms.entropies.eta_f

    s_joint = vn_entropies(np.concatenate([cs.eps_if, cs.eta_if[None], cs.gamma_if[None]]))
    s_eps_i = vn_entropies(cs.eps_i)
    s_out = vn_entropies(np.concatenate([cs.eps_f, cs.tau_f]))

    return {
        "chi_eps_if": chi_against(p_f, s_joint[:n_o], s_joint[n_o]),
        "chi_eps_i": chi_against(p_f, s_eps_i, s_eta_i),
        "chi_eps_f": chi_against(p_f, s_out[:n_o], s_eta_f),
        "chi_tau_f": chi_against(p_i, s_out[n_o:], s_eta_f),
        # S(gamma_if | eta_i (x) eta_f): gamma's marginals are eta_i and eta_f
        # (the compound_tr*_gamma rows), so it is a mutual information
        "gamma_rel": s_eta_i + s_eta_f - s_joint[-1],
    }
