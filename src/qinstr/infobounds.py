"""Joint input/output statistics of (ensemble, instrument), mutual-entropy
closed forms, identities, inequalities and compound states."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import matcore
from .entropy import chi_against, mutual_info, vn_entropies, vn_entropy, q_rel_entropy
from .errors import DimensionMismatch, InfiniteQuantity
from .instrument import (
    Instrument,
    KrausMap,
    ZERO_PROB_TOL,
    a_posteriori,
    a_posteriori_stack,
    min_output_purity,
    total_channel,
)
from .qstate import (
    ClassicalDist,
    DensityMatrix,
    Ensemble,
    a_priori_state,
    validate_density,
)

EQ_TOL = 1e-9
INEQ_TOL = 1e-8
PURITY_TOL = 1e-8


@dataclass(frozen=True)
class BoundCheck:
    """One inequality (lhs <= rhs) or equality record with its slack."""

    name: str
    lhs: float
    rhs: float
    kind: str = "ge"  # "ge" inequality, "eq" equality, "data" informational

    @property
    def slack(self) -> float:
        if math.isinf(self.rhs) and math.isinf(self.lhs):
            return 0.0
        return self.rhs - self.lhs

    def passes(self, tol: float) -> bool:
        """The one tolerance policy: an inequality passes iff slack >= -tol, an
        equality iff |slack| <= min(EQ_TOL, tol); data always passes."""
        if self.kind == "data":
            return True
        if self.kind == "eq":
            return abs(self.slack) <= min(EQ_TOL, tol)
        if math.isinf(self.rhs):
            return True
        return self.slack >= -tol


@dataclass(frozen=True)
class BoundReport:
    checks: tuple

    def all_pass(self, tol: float = INEQ_TOL) -> bool:
        return all(c.passes(tol) for c in self.checks)

    def to_json(self, tol: float = INEQ_TOL) -> list:
        return [
            {
                "name": c.name,
                "lhs": float(c.lhs),
                "rhs": float(c.rhs),
                "slack": float(c.slack),
                "pass": bool(c.passes(tol)),
            }
            for c in self.checks
        ]

    def __getitem__(self, name: str) -> BoundCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


@dataclass(frozen=True)
class MeasurementStatistics:
    """Everything derivable from one (ensemble, instrument) pair.

    The joint table is indexed [letter, outcome]; posterior_letter_states is a
    matching 2-D grid of a posteriori states (the default state on null cells,
    which carry zero weight everywhere).
    """

    ensemble: Ensemble
    instrument: Instrument
    joint: np.ndarray
    input_marginal: ClassicalDist
    output_marginal: ClassicalDist
    cond_out_given_in: np.ndarray  # P_{f|i}(omega|alpha), [letter, outcome]
    cond_in_given_out: np.ndarray  # P_{i|f}(alpha|omega), [letter, outcome]
    posterior_letter_states: tuple  # grid [letter][outcome] of DensityMatrix
    posterior_mean_states: tuple  # rho_f(omega) per outcome
    post_letter_states: tuple  # eta_f^alpha per letter
    a_priori: DensityMatrix  # eta_i
    post_a_priori: DensityMatrix  # eta_f


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
        return {
            "chi_initial": self.chi_initial,
            "chi_post": self.chi_post,
            "chi_out": self.chi_out,
            "chi_joint": self.chi_joint,
            "mean_chi_given_out": self.mean_chi_given_out,
            "mean_chi_given_in": self.mean_chi_given_in,
            "classical_mi": self.classical_mi,
            "tripartite": self.tripartite,
        }


def analyze(
    e: Ensemble, ins: Instrument, default: Optional[DensityMatrix] = None
) -> MeasurementStatistics:
    """Joint/conditional probabilities and all post-measurement state families."""
    if e.dim != ins.dim_in:
        raise DimensionMismatch(f"ensemble dim {e.dim} vs instrument dim_in {ins.dim_in}")
    eta_i = a_priori_state(e)
    n_l = len(e.letters)
    n_o = len(ins.outcomes)

    cond_fi = np.zeros((n_l, n_o))
    post_grid = []
    post_letter = []
    for a, rho_a in enumerate(e.states):
        fam = a_posteriori(ins, rho_a, default)
        cond_fi[a, :] = fam.probs.probs
        post_grid.append(fam.states)
        post_letter.append(total_channel(ins, rho_a))

    joint = e.probs[:, None] * cond_fi
    joint = joint / joint.sum()
    p_f = joint.sum(axis=0)
    output_marginal = ClassicalDist(ins.outcomes, p_f)

    cond_if = np.zeros((n_l, n_o))
    for w in range(n_o):
        if p_f[w] > ZERO_PROB_TOL:
            cond_if[:, w] = joint[:, w] / p_f[w]

    mean_fam = a_posteriori(ins, eta_i, default)
    return MeasurementStatistics(
        ensemble=e,
        instrument=ins,
        joint=joint,
        input_marginal=e.prior(),
        output_marginal=output_marginal,
        cond_out_given_in=cond_fi,
        cond_in_given_out=cond_if,
        posterior_letter_states=tuple(tuple(row) for row in post_grid),
        posterior_mean_states=mean_fam.states,
        post_letter_states=tuple(post_letter),
        a_priori=eta_i,
        post_a_priori=total_channel(ins, eta_i),
    )


def classical_mutual_info(ms: MeasurementStatistics) -> float:
    """S_c(P_if | P_i x P_f) from the joint table."""
    return mutual_info(ms.joint, ms.input_marginal.probs, ms.output_marginal.probs)


def entropy_panel(ms: MeasurementStatistics) -> EntropyPanel:
    """All chi-quantities and mutual entropies in their closed forms."""
    e = ms.ensemble
    eta_i, eta_f = ms.a_priori, ms.post_a_priori
    p_i = ms.input_marginal.probs
    p_f = ms.output_marginal.probs

    chi_initial = chi_against(p_i, e.states, eta_i)
    chi_post = chi_against(p_i, ms.post_letter_states, eta_f)
    chi_out = chi_against(p_f, ms.posterior_mean_states, eta_f)

    chi_joint = 0.0
    mean_chi_given_out = 0.0
    mean_chi_given_in = 0.0
    for a in range(len(e.letters)):
        for w in range(len(ms.instrument.outcomes)):
            p = ms.joint[a, w]
            if p <= ZERO_PROB_TOL:
                continue
            state = ms.posterior_letter_states[a][w]
            chi_joint += p * q_rel_entropy(state, eta_f)
            mean_chi_given_out += p * q_rel_entropy(state, ms.posterior_mean_states[w])
            mean_chi_given_in += p * q_rel_entropy(state, ms.post_letter_states[a])

    i_c = classical_mutual_info(ms)
    return EntropyPanel(
        chi_initial=chi_initial,
        chi_post=chi_post,
        chi_out=chi_out,
        chi_joint=chi_joint,
        mean_chi_given_out=mean_chi_given_out,
        mean_chi_given_in=mean_chi_given_in,
        classical_mi=i_c,
        tripartite=i_c + chi_joint,
    )


def check_identities(panel: EntropyPanel) -> BoundReport:
    """Both decompositions of the joint chi plus the tripartite chain rules."""
    values = panel.to_json().values()
    if any(math.isinf(v) for v in values):
        raise InfiniteQuantity("identity checks require finite panel entries")
    checks = (
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
    return BoundReport(checks)


def check_bounds(panel: EntropyPanel) -> BoundReport:
    """The four inequality families of the mutual-entropy section."""
    checks = (
        BoundCheck("sww", panel.classical_mi + panel.mean_chi_given_out, panel.chi_initial),
        BoundCheck("holevo", panel.classical_mi, panel.chi_initial),
        BoundCheck(
            "bl1",
            panel.classical_mi,
            panel.chi_initial + panel.chi_out - panel.chi_joint,
        ),
        BoundCheck("lower_bound", panel.chi_post, panel.classical_mi + panel.mean_chi_given_out),
    )
    return BoundReport(checks)


def quantum_info_gain(
    ins: Instrument, eta: DensityMatrix, default: Optional[DensityMatrix] = None
) -> float:
    """Entropy of the input minus mean entropy of the a posteriori states."""
    if eta.dim != ins.dim_in:
        raise DimensionMismatch(f"state dim {eta.dim} vs instrument dim_in {ins.dim_in}")
    fam = a_posteriori(ins, eta, default)
    mean = sum(
        p * vn_entropy(s)
        for p, s in zip(fam.probs.probs, fam.states)
        if p > ZERO_PROB_TOL
    )
    return vn_entropy(eta) - mean


def random_density(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Normalized Ginibre state G G^dag / Tr."""
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    m = g @ g.conj().T
    return validate_density(m / np.trace(m).real)


def random_pure(dim: int, rng: np.random.Generator) -> DensityMatrix:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v = v / np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))


def random_ensemble(
    dim: int, n_letters: int, rng: np.random.Generator, prob_floor: float = 0.05
) -> Ensemble:
    probs = rng.uniform(size=n_letters)
    probs = probs / probs.sum()
    probs = np.maximum(probs, prob_floor)
    probs = probs / probs.sum()
    states = tuple(random_density(dim, rng) for _ in range(n_letters))
    return Ensemble(tuple(range(n_letters)), probs, states)


def _ginibre_states(g: np.ndarray) -> np.ndarray:
    """random_density's normalized G G^dag for a stack of [re, im] draws."""
    g = (g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0)
    m = g @ g.conj().swapaxes(-1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None]


def _gains(ins: Instrument, rhos: np.ndarray) -> tuple:
    """quantum_info_gain of each state of a stack, and the outcome probabilities."""
    probs, posts = a_posteriori_stack(ins, rhos)
    s_post = vn_entropies(posts.reshape(-1, ins.dim_out, ins.dim_out)).reshape(probs.shape)
    mean = np.sum(np.where(probs > ZERO_PROB_TOL, probs * s_post, 0.0), axis=0)
    return vn_entropies(rhos) - mean, probs


def _chain_checks(ins: Instrument, rng: np.random.Generator, n_demix: int) -> list:
    """gl_chain on random_ensemble demixtures: I_c + sum_a P_a I_q(rho_a) <= I_q(eta)."""
    priors, letters = [], []
    for _ in range(n_demix):
        n = int(rng.integers(2, 4))
        probs = rng.uniform(size=n)  # random_ensemble's draws, in its order
        probs = np.maximum(probs / probs.sum(), 0.05)
        priors.append(probs / probs.sum())
        letters.append(_ginibre_states(rng.standard_normal((n, 2, ins.dim_in, ins.dim_in))))
    etas = [np.einsum("a,aij->ij", p, rhos)[None] for p, rhos in zip(priors, letters)]
    gains, cond = _gains(ins, np.concatenate(letters + etas))
    bounds = np.cumsum([len(p) for p in priors])[:-1]
    checks = []
    for p, letter_gains, cond_fi, eta_gain in zip(
        priors,
        np.split(gains[:-n_demix], bounds),
        np.split(cond[:, :-n_demix], bounds, axis=1),
        gains[-n_demix:],
    ):
        joint = p[:, None] * cond_fi.T
        joint = joint / joint.sum()
        rhs = mutual_info(joint, p, joint.sum(axis=0)) + float(p @ letter_gains)
        checks.append(BoundCheck("gl_chain", rhs, float(eta_gain)))
    return checks


def groenewold_lindblad_check(
    ins: Instrument, trials: int = 100, seed: int = 0, n_demix: int = 5
) -> tuple[bool, BoundReport]:
    """Empirical purity classification plus the information-gain inequalities.

    Returns (purity_preserving, report). The gain-positivity record is only
    emitted for instruments classified purity-preserving; the chain inequality
    (the instrument-level equivalent of the strengthened Holevo bound) is
    checked unconditionally on random demixtures.

    Each part runs on one stack of states and draws the same random numbers as
    ``random_pure``, ``random_density`` and ``random_ensemble`` would, trial
    after trial.
    """
    rng = np.random.default_rng(seed)
    d1 = ins.dim_in

    kets = rng.standard_normal((trials, 2, d1))
    kets = kets[:, 0] + 1j * kets[:, 1]
    kets = kets / np.linalg.norm(kets, axis=1, keepdims=True)
    purity_preserving = min_output_purity(ins, kets) >= 1.0 - PURITY_TOL

    checks = []
    if purity_preserving:
        gains, _ = _gains(ins, _ginibre_states(rng.standard_normal((trials, 2, d1, d1))))
        checks.append(BoundCheck("gl_info_gain_nonneg", 0.0, float(np.min(gains))))

    # chain inequality on random demixtures (equivalent form of the
    # strengthened Holevo bound; holds for every instrument)
    if n_demix:
        checks += _chain_checks(ins, rng, n_demix)
    return purity_preserving, BoundReport(tuple(checks))


@dataclass(frozen=True)
class CompoundStates:
    """The bipartite compound states on H1 (x) H2 and their building blocks."""

    eps_if: tuple  # per outcome, on H1 (x) H2
    eps_i: tuple  # per outcome, on H1
    eps_f: tuple  # per outcome, on H2
    eta_if: DensityMatrix
    tau_f: tuple  # per letter, on H2
    gamma_if: DensityMatrix
    consistency: BoundReport


def compound_states(ms: MeasurementStatistics) -> CompoundStates:
    e = ms.ensemble
    d1 = e.dim
    d2 = ms.instrument.dim_out
    n_l = len(e.letters)
    n_o = len(ms.instrument.outcomes)
    p_f = ms.output_marginal.probs

    eps_if, eps_i, eps_f = [], [], []
    mm1 = np.eye(d1, dtype=np.complex128) / d1
    mm2 = np.eye(d2, dtype=np.complex128) / d2
    for w in range(n_o):
        if p_f[w] > ZERO_PROB_TOL:
            m = sum(
                ms.cond_in_given_out[a, w]
                * matcore.kron(e.states[a].mat, ms.post_letter_states[a].mat)
                for a in range(n_l)
            )
        else:
            m = matcore.kron(mm1, mm2)  # zero-weight filler, excluded everywhere
        eps_if.append(validate_density(m))
        eps_i.append(validate_density(matcore.partial_trace(m, "second", d1, d2)))
        eps_f.append(validate_density(matcore.partial_trace(m, "first", d1, d2)))

    eta_if = validate_density(
        sum(p_f[w] * eps_if[w].mat for w in range(n_o) if p_f[w] > ZERO_PROB_TOL)
    )
    tau_f = tuple(
        validate_density(
            sum(
                ms.cond_out_given_in[a, w] * ms.posterior_mean_states[w].mat
                for w in range(n_o)
                if ms.cond_out_given_in[a, w] > ZERO_PROB_TOL
            )
        )
        for a in range(n_l)
    )
    gamma_if = validate_density(
        sum(
            p_f[w] * matcore.kron(eps_i[w].mat, ms.posterior_mean_states[w].mat)
            for w in range(n_o)
            if p_f[w] > ZERO_PROB_TOL
        )
    )

    def dev(a, b):
        return float(np.max(np.abs(a - b)))

    eta_i, eta_f = ms.a_priori, ms.post_a_priori
    checks = (
        BoundCheck("compound_tr2_eta_if", dev(matcore.partial_trace(eta_if.mat, "second", d1, d2), eta_i.mat), 0.0, kind="eq"),
        BoundCheck("compound_tr1_eta_if", dev(matcore.partial_trace(eta_if.mat, "first", d1, d2), eta_f.mat), 0.0, kind="eq"),
        BoundCheck("compound_tr2_gamma", dev(matcore.partial_trace(gamma_if.mat, "second", d1, d2), eta_i.mat), 0.0, kind="eq"),
        BoundCheck("compound_tr1_gamma", dev(matcore.partial_trace(gamma_if.mat, "first", d1, d2), eta_f.mat), 0.0, kind="eq"),
        BoundCheck(
            "compound_tau_mix",
            dev(sum(p * t.mat for p, t in zip(e.probs, tau_f)), eta_f.mat),
            0.0,
            kind="eq",
        ),
    )
    return CompoundStates(
        eps_if=tuple(eps_if),
        eps_i=tuple(eps_i),
        eps_f=tuple(eps_f),
        eta_if=eta_if,
        tau_f=tau_f,
        gamma_if=gamma_if,
        consistency=BoundReport(checks),
    )


def scutaru_chains(
    ms: MeasurementStatistics, cs: Optional[CompoundStates] = None
) -> BoundReport:
    """Both compound-state inequality chains, one record per link."""
    if cs is None:
        cs = compound_states(ms)
    p_i = ms.input_marginal.probs
    p_f = ms.output_marginal.probs
    eta_i, eta_f = ms.a_priori, ms.post_a_priori
    i_c = classical_mutual_info(ms)

    chi_eps_if = chi_against(p_f, cs.eps_if, cs.eta_if)
    chi_eps_i = chi_against(p_f, cs.eps_i, eta_i)
    chi_eps_f = chi_against(p_f, cs.eps_f, eta_f)
    chi_tau_f = chi_against(p_i, cs.tau_f, eta_f)
    gamma_rel = q_rel_entropy(
        cs.gamma_if, validate_density(matcore.kron(eta_i.mat, eta_f.mat))
    )

    checks = (
        BoundCheck("scutaru1_ic_ge_chi_eps_if", chi_eps_if, i_c),
        BoundCheck("scutaru1_chi_eps_if_ge_chi_eps_i", chi_eps_i, chi_eps_if),
        BoundCheck("scutaru1_chi_eps_if_ge_chi_eps_f", chi_eps_f, chi_eps_if),
        BoundCheck("scutaru2_ic_ge_chi_eps_i", chi_eps_i, i_c),
        BoundCheck("scutaru2_ic_ge_chi_tau_f", chi_tau_f, i_c),
        BoundCheck("scutaru2_chi_eps_i_ge_gamma", gamma_rel, chi_eps_i),
        BoundCheck("scutaru2_chi_tau_f_ge_gamma", gamma_rel, chi_tau_f),
    )
    return BoundReport(checks)


def merge_outcomes(ins: Instrument, w1, w2) -> Instrument:
    """Coarse-grain two outcomes into one (their Kraus lists are concatenated)."""
    m1 = ins.map_for(w1)
    m2 = ins.map_for(w2)
    merged = KrausMap(ins.dim_in, ins.dim_out, m1.kraus + m2.kraus)
    outcomes, maps = [], []
    for o, m in zip(ins.outcomes, ins.maps):
        if o == w1:
            outcomes.append(f"{w1}+{w2}")
            maps.append(merged)
        elif o == w2:
            continue
        else:
            outcomes.append(o)
            maps.append(m)
    return Instrument(tuple(outcomes), tuple(maps))
