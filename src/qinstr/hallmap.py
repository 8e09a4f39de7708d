"""Hall-type dual construction: the measurement-from-ensemble instrument, the
dual ensemble, duality of the classical informations, Hall's bound and the
strengthened upper bound on the classical mutual information."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import matcore
from .entropy import chi_against, mutual_info, q_rel_entropy
from .errors import DimensionMismatch, SingularAprioriState
from .infobounds import (
    BoundCheck,
    BoundReport,
    EQ_TOL,
    INEQ_TOL,
    MeasurementStatistics,
    analyze,
    classical_mutual_info,
    quantum_info_gain,
)
from .instrument import Instrument, KrausMap, ZERO_PROB_TOL, povm_of
from .qstate import ClassicalDist, DensityMatrix, Ensemble, a_priori_state, validate_density

INVERTIBILITY_TOL = 1e-9


@dataclass(frozen=True)
class HallInstrument:
    """Instrument with one Kraus operator per letter, built from an ensemble."""

    base: Instrument
    source_ensemble: Ensemble


@dataclass(frozen=True)
class DualEnsemble:
    """Outcome-indexed ensemble whose barycenter is the original a priori state."""

    outcome_labels: tuple
    probs: ClassicalDist
    states: tuple  # one per positive-probability outcome; None on null outcomes


def _sqrt_state(rho: DensityMatrix) -> np.ndarray:
    vals, vecs = rho.spectral()
    root = np.where(vals > matcore.SUPPORT_CUTOFF, np.sqrt(np.maximum(vals, 0.0)), 0.0)
    return (vecs * root) @ vecs.conj().T


def build_hall_instrument(e: Ensemble) -> HallInstrument:
    """Kraus operators sqrt(P_a) rho_a^{1/2} eta^{-1/2}, one per letter."""
    eta = a_priori_state(e)
    vals, _ = eta.spectral()
    if vals[0] <= INVERTIBILITY_TOL:
        raise SingularAprioriState(
            f"a priori state eigenvalue {vals[0]:.3e} below {INVERTIBILITY_TOL:.1e}"
        )
    inv_sqrt = matcore.spectral_apply(eta.mat, lambda x: x ** -0.5)
    maps = tuple(
        KrausMap(e.dim, e.dim, (np.sqrt(p) * _sqrt_state(rho) @ inv_sqrt,))
        for p, rho in zip(e.probs, e.states)
    )
    base = Instrument(e.letters, maps)
    return HallInstrument(base=base, source_ensemble=e)


def dual_ensemble(e: Ensemble, ins: Instrument) -> DualEnsemble:
    """sigma_i(omega) = eta^{1/2} E(omega) eta^{1/2} / P_f(omega)."""
    if e.dim != ins.dim_in:
        raise DimensionMismatch(f"ensemble dim {e.dim} vs instrument dim_in {ins.dim_in}")
    eta = a_priori_state(e)
    sqrt_eta = _sqrt_state(eta)
    effects = povm_of(ins).effects
    p_f = np.array([max(float(np.trace(eff @ eta.mat).real), 0.0) for eff in effects])
    p_f = p_f / p_f.sum()
    states = []
    for eff, p in zip(effects, p_f):
        if p > ZERO_PROB_TOL:
            states.append(validate_density(sqrt_eta @ eff @ sqrt_eta / p))
        else:
            states.append(None)
    return DualEnsemble(
        outcome_labels=ins.outcomes,
        probs=ClassicalDist(ins.outcomes, p_f),
        states=tuple(states),
    )


def verify_duality(
    e: Ensemble, ins: Instrument, ms: Optional[MeasurementStatistics] = None
) -> BoundReport:
    """Dual-instrument statistics reproduce the original conditional law and I_c."""
    if ms is None:
        ms = analyze(e, ins)
    h = build_hall_instrument(e)
    dual = dual_ensemble(e, ins)
    effects_j = povm_of(h.base).effects

    max_dev = 0.0
    p_f = dual.probs.probs
    joint_dual = np.zeros((len(ins.outcomes), len(e.letters)))
    for w, sigma in enumerate(dual.states):
        if sigma is None:
            continue
        for a, eff in enumerate(effects_j):
            val = float(np.trace(eff @ sigma.mat).real)
            joint_dual[w, a] = p_f[w] * max(val, 0.0)
            max_dev = max(max_dev, abs(val - ms.cond_in_given_out[a, w]))

    i_c_orig = classical_mutual_info(ms)
    joint_dual = joint_dual / joint_dual.sum()
    i_c_dual = mutual_info(joint_dual, joint_dual.sum(axis=1), joint_dual.sum(axis=0))
    checks = (
        BoundCheck("duality_conditional_law", max_dev, 0.0, kind="eq"),
        BoundCheck("duality_ic", i_c_dual, i_c_orig, kind="eq"),
    )
    return BoundReport(checks, eq_tol=EQ_TOL)


def hall_bound(
    e: Ensemble, ins: Instrument, ms: Optional[MeasurementStatistics] = None
) -> BoundReport:
    """I_c <= chi{P_f, sigma_i} (the dual-ensemble chi against eta_i)."""
    if ms is None:
        ms = analyze(e, ins)
    eta = ms.a_priori
    dual = dual_ensemble(e, ins)
    chi_dual = sum(
        p * q_rel_entropy(sigma, eta)
        for p, sigma in zip(dual.probs.probs, dual.states)
        if sigma is not None and p > ZERO_PROB_TOL
    )
    i_c = classical_mutual_info(ms)
    return BoundReport((BoundCheck("hall_bound", i_c, chi_dual),), ineq_tol=INEQ_TOL)


def new_bound(
    e: Ensemble, ins: Instrument, ms: Optional[MeasurementStatistics] = None
) -> BoundReport:
    """The strengthened upper bound I_c <= chi_initial - D, with
    D = sum_w P_f(w) I_q{sigma_i(w)} for the ensemble-built instrument."""
    if ms is None:
        ms = analyze(e, ins)
    h = build_hall_instrument(e)
    dual = dual_ensemble(e, ins)
    eta = ms.a_priori

    chi_initial = chi_against(e.probs, e.states, eta)
    i_c = classical_mutual_info(ms)

    d_term = 0.0
    min_gain = math.inf
    for p, sigma in zip(dual.probs.probs, dual.states):
        if sigma is None or p <= ZERO_PROB_TOL:
            continue
        gain = quantum_info_gain(h.base, sigma)
        min_gain = min(min_gain, gain)
        d_term += p * gain

    gain_at_eta = quantum_info_gain(h.base, eta)
    hall_chi = hall_bound(e, ins, ms)["hall_bound"].rhs

    checks = (
        BoundCheck("new_bound", i_c, chi_initial - d_term),
        BoundCheck("new_d_term_nonneg", 0.0, min_gain),
        BoundCheck("new_iq_identity", gain_at_eta, chi_initial, kind="eq"),
        BoundCheck("new_le_holevo", chi_initial - d_term, chi_initial),
        # empirical ordering vs Hall's bound, recorded as data (not asserted)
        BoundCheck("new_vs_hall_data", chi_initial - d_term, hall_chi, kind="data"),
    )
    return BoundReport(checks, ineq_tol=INEQ_TOL)
