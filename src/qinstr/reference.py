"""The definitional forms that the criteria check the stacked pipeline against.

The paper reads an instrument as a channel that takes one state to a
probability and an a posteriori state. Each function here evaluates a
quantity in that form, one state at a time: the relative entropies through
both spectral decompositions (testing supports, so they return +inf, Python
``math.inf``, when one leaves the other), the a posteriori family of one
state and its outcome law, the action of one map and of the instrument, a
Choi-matrix rebuild of an instrument, the information gain and the purity of
one state, a random mixed state, the coarse-graining of two outcomes, and
Hall's J and dual ensemble, which ``hallmap.hall_section`` does without.
A state is a ``DensityMatrix`` here, a type only the oracles and the tests
build: the a priori state (``a_priori_state``) is one, a law is a checked
``ClassicalDist`` and ``vn_entropy`` is one state's entropy. The pipeline
takes states as arrays and keeps what it derives as plain arrays. This
module's independence is the reason it exists: no pipeline module imports it,
and nothing here calls the stacked path it checks
(``instrument.Instrument.channel_matrix``, ``instrument._posteriors``,
``entropy.vn_entropies``). ``import qinstr`` does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import matcore
from .entropy import _entropy
from .errors import QinstrError
from .hallmap import INVERTIBILITY_TOL, SINGULAR
from .infobounds import _ginibre_states
from .instrument import Instrument, KrausMap
from .matcore import HERM_TOL, SUPPORT_CUTOFF
from .qstate import PROB_TOL, DensityMatrix, Ensemble

INF = math.inf


@dataclass(frozen=True, eq=False)
class ClassicalDist:
    """Probability distribution over a finite label set, kept as given once
    every entry is >= -PROB_TOL and the sum is 1 within HERM_TOL."""

    labels: tuple
    probs: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        probs = np.array(self.probs, dtype=np.float64)
        if probs.ndim != 1 or len(labels) != probs.shape[0]:
            raise QinstrError("labels and probabilities differ in length")
        if not (probs >= -PROB_TOL).all():  # NaN fails too
            raise QinstrError(f"negative or NaN probability in {probs}")
        if abs(probs.sum() - 1.0) > HERM_TOL:
            raise QinstrError(f"probabilities sum to {probs.sum()}, not 1")
        probs.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", probs)


def a_priori_state(e: Ensemble) -> DensityMatrix:
    """Barycenter of the ensemble, checked as a state."""
    return DensityMatrix(sum(p * s for p, s in zip(e.probs, e.states)))


def vn_entropy(rho: DensityMatrix) -> float:
    return float(_entropy(rho.spectral().eigenvalues))


def fidelity_like_support_check(sigma: DensityMatrix, tau: DensityMatrix) -> bool:
    """True iff supp(sigma) is contained in supp(tau)."""
    if sigma.dim != tau.dim:
        raise QinstrError(f"dims {sigma.dim} and {tau.dim} differ")
    vals, vecs = tau.spectral()
    keep = vals <= matcore.SUPPORT_CUTOFF
    if not np.any(keep):
        return True
    comp = vecs[:, keep]  # columns spanning the kernel of tau
    block = comp.conj().T @ sigma.mat @ comp
    return float(np.max(np.abs(block))) <= matcore.SUPPORT_CUTOFF


def maximally_mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(np.eye(dim, dtype=np.complex128) / dim)


def random_density(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Normalized Ginibre state G G^dag / Tr (``_ginibre_states`` of one draw)."""
    return DensityMatrix(_ginibre_states(rng.standard_normal((1, 2, dim, dim)))[0])


def purity(rho: DensityMatrix) -> float:
    return float(np.trace(rho.mat @ rho.mat).real)


def q_rel_entropy(sigma: DensityMatrix, tau: DensityMatrix) -> float:
    """Tr{sigma (log sigma - log tau)}, +inf when supp(sigma) leaves supp(tau).

    Evaluated through both spectral decompositions:
    sum_j l_j log l_j - sum_{jk} l_j |<u_j|v_k>|^2 log m_k,
    exact on the supports without forming log of a matrix difference.
    """
    if sigma.dim != tau.dim:
        raise QinstrError(f"dims {sigma.dim} and {tau.dim} differ")
    if not fidelity_like_support_check(sigma, tau):
        return INF
    svals, svecs = sigma.spectral()
    tvals, tvecs = tau.spectral()
    overlap = np.abs(svecs.conj().T @ tvecs) ** 2  # [j, k]
    total = 0.0
    for j, lj in enumerate(svals):
        if lj <= SUPPORT_CUTOFF:
            continue
        total += lj * math.log(lj)
        for k, mk in enumerate(tvals):
            w = overlap[j, k]
            if mk > SUPPORT_CUTOFF:
                total -= lj * w * math.log(mk)
            elif lj * w > SUPPORT_CUTOFF:
                return INF  # residual weight on the kernel of tau
    return total


def c_rel_entropy(p: ClassicalDist, q: ClassicalDist) -> float:
    """Kullback-Leibler divergence, with 0 log(0/q) = 0."""
    if p.labels != q.labels:
        raise QinstrError("distributions live on different label sets")
    total = 0.0
    for pj, qj in zip(p.probs, q.probs):
        if pj <= SUPPORT_CUTOFF:
            continue
        if qj <= SUPPORT_CUTOFF:
            return INF
        total += pj * math.log(pj / qj)
    return total


def mixed_rel_entropy(
    f1: tuple[ClassicalDist, Sequence[DensityMatrix]],
    f2: tuple[ClassicalDist, Sequence[DensityMatrix]],
) -> float:
    """Relative entropy of two classical/quantum families:
    S_c(P1|P2) + sum_w P1(w) S_q(s1(w)|s2(w))."""
    p1, states1 = f1
    p2, states2 = f2
    if p1.labels != p2.labels:
        raise QinstrError("families live on different label sets")
    if len(states1) != len(p1.labels) or len(states2) != len(p2.labels):
        raise QinstrError("state count does not match label count")
    dims = {s.dim for s in list(states1) + list(states2)}
    if len(dims) != 1:
        raise QinstrError(f"states have inconsistent dims {dims}")
    total = c_rel_entropy(p1, p2)
    if math.isinf(total):
        return INF
    for w, s1, s2 in zip(p1.probs, states1, states2):
        if w <= SUPPORT_CUTOFF:
            continue
        term = q_rel_entropy(s1, s2)
        if math.isinf(term):
            return INF
        total += w * term
    return total


def map_action(m: KrausMap, rho: np.ndarray) -> np.ndarray:
    """sum_k K_k rho K_k^dag, the map's action on one matrix."""
    return (m.kraus @ rho @ m.kraus.conj().swapaxes(-1, -2)).sum(axis=0)


def map_for(ins: Instrument, outcome) -> KrausMap:
    """The Kraus map of one outcome, by its label."""
    if outcome not in ins.outcomes:
        raise QinstrError(f"no outcome {outcome!r}")
    return ins.maps[ins.outcomes.index(outcome)]


@dataclass(frozen=True)
class AposterioriFamily:
    """Outcome probabilities plus normalized conditional states."""

    probs: ClassicalDist
    states: tuple


def outcome_probs(ins: Instrument, rho: DensityMatrix) -> ClassicalDist:
    if rho.dim != ins.dim_in:
        raise QinstrError(f"state dim {rho.dim} vs instrument dim_in {ins.dim_in}")
    probs = np.maximum(np.einsum("wij,ji->w", ins.effects, rho.mat).real, 0.0)
    return ClassicalDist(ins.outcomes, probs / probs.sum())


def apply_outcome(ins: Instrument, rho: DensityMatrix, outcome) -> np.ndarray:
    """Unnormalized positive output for a single outcome."""
    if rho.dim != ins.dim_in:
        raise QinstrError(f"state dim {rho.dim} vs instrument dim_in {ins.dim_in}")
    return map_action(map_for(ins, outcome), rho.mat)


def a_posteriori(ins: Instrument, rho: DensityMatrix) -> AposterioriFamily:
    """Normalized conditional states by the null-cell rule of ``_posteriors``:
    a null outcome gets probability 0 and the fill I/d2."""
    fill = maximally_mixed(ins.dim_out)
    probs, states = [], []
    for outcome, m in zip(ins.outcomes, ins.maps):
        out = map_action(m, rho.mat)
        tr = float(np.trace(out).real)
        live = tr > SUPPORT_CUTOFF
        probs.append(tr if live else 0.0)
        states.append(DensityMatrix(out / tr) if live else fill)
    probs = np.array(probs)
    dist = ClassicalDist(ins.outcomes, probs / probs.sum())
    return AposterioriFamily(dist, tuple(states))


def total_channel(ins: Instrument, rho: DensityMatrix) -> DensityMatrix:
    """Non-selective post-measurement state."""
    if rho.dim != ins.dim_in:
        raise QinstrError(f"state dim {rho.dim} vs instrument dim_in {ins.dim_in}")
    return DensityMatrix(sum(map_action(m, rho.mat) for m in ins.maps))


def channel_roundtrip(ins: Instrument) -> Instrument:
    """Rebuild the instrument from its channel action on the matrix units.

    For each outcome, the action is sampled on the matrix-unit basis of H1,
    assembled into the Choi matrix and refactored into Kraus form; the result
    acts identically on all inputs.
    """
    d1, d2 = ins.dim_in, ins.dim_out
    new_maps = []
    for m in ins.maps:
        # block (j, k) of the Choi matrix is the map's action on |j><k|:
        # entry ((j, a), (k, b)) = sum_K K[a, j] conj(K[b, k])
        cols = m.kraus.swapaxes(-1, -2).reshape(-1, d1 * d2)
        vals, vecs = matcore.herm_eig(cols.T @ cols.conj())
        keep = vals > SUPPORT_CUTOFF
        kraus = np.sqrt(vals[keep])[:, None] * vecs[:, keep].T
        new_maps.append(KrausMap(d1, d2, kraus.reshape(-1, d1, d2).swapaxes(-1, -2)))
    return Instrument(ins.outcomes, tuple(new_maps))


def quantum_info_gain(ins: Instrument, eta: DensityMatrix) -> float:
    """Entropy of the input minus mean entropy of the a posteriori states,
    S(eta) - sum_w P(w) S(rho_w), from eta's one a posteriori family."""
    if eta.dim != ins.dim_in:
        raise QinstrError(f"state dim {eta.dim} vs instrument dim_in {ins.dim_in}")
    fam = a_posteriori(ins, eta)
    return vn_entropy(eta) - sum(p * vn_entropy(s) for p, s in zip(fam.probs.probs, fam.states))


def merge_outcomes(ins: Instrument, w1, w2) -> Instrument:
    """Coarse-grain two outcomes into one (their Kraus lists are concatenated)."""
    m1 = map_for(ins, w1)
    m2 = map_for(ins, w2)
    merged = KrausMap(ins.dim_in, ins.dim_out, np.concatenate([m1.kraus, m2.kraus]))
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


@dataclass(frozen=True)
class DualEnsemble:
    """Outcome-indexed ensemble whose barycenter is the original a priori state."""

    probs: ClassicalDist
    states: np.ndarray  # [outcome, d1, d1]; the zero matrix on null outcomes


def build_hall_instrument(e: Ensemble, eta: DensityMatrix) -> Instrument:
    """Kraus operators sqrt(P_a) rho_a^{1/2} eta^{-1/2}, one per letter, where
    ``eta`` is the a priori state of ``e``: Hall's measurement-from-ensemble
    instrument J, whose rows ``hallmap.hall_section`` computes without it.

    Raises QinstrError, with the text of ``hallmap.SINGULAR``, when eta's
    least eigenvalue is <= INVERTIBILITY_TOL. Just above it, rounding in
    eta^{-1/2} can leave the effects' sum off the identity by more than
    POVM_SUM_TOL, and the Instrument's effect-sum rule raises.
    """
    vals, _ = eta.spectral()
    if vals[0] <= INVERTIBILITY_TOL:
        raise QinstrError(SINGULAR)
    inv_sqrt = matcore.spectral_apply(eta.spectral(), lambda x: x ** -0.5)
    lam, u = e.spectra  # each letter's square root, on its support
    roots = (u * np.sqrt(np.where(lam > SUPPORT_CUTOFF, lam, 0.0))[:, None]) @ u.conj().swapaxes(-1, -2)
    kraus = np.sqrt(e.probs)[:, None, None] * roots @ inv_sqrt
    maps = tuple(KrausMap(e.dim, e.dim, k) for k in kraus[:, None])
    return Instrument(e.letters, maps)


def dual_ensemble(ins: Instrument, eta: DensityMatrix) -> DualEnsemble:
    """sigma_i(omega) = eta^{1/2} E(omega) eta^{1/2} / P_f(omega), where ``eta``
    is the a priori state, and P_f its outcome law (``outcome_probs``, which
    also checks eta's dimension against the instrument's)."""
    probs = outcome_probs(ins, eta)
    sqrt_eta = matcore.spectral_apply(eta.spectral(), np.sqrt)
    p_f = probs.probs[:, None, None]
    states = np.divide(
        sqrt_eta @ ins.effects @ sqrt_eta,
        p_f,
        out=np.zeros_like(ins.effects),
        where=p_f > SUPPORT_CUTOFF,
    )
    return DualEnsemble(probs=probs, states=states)
