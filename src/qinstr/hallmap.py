"""Hall-type dual construction: the measurement-from-ensemble instrument, the
dual ensemble, duality of the classical informations, Hall's bound and the
strengthened upper bound on the classical mutual information."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .entropy import chi_against, mutual_info
from .errors import DimensionMismatch, SingularAprioriState
from .infobounds import (
    BoundCheck,
    BoundReport,
    MeasurementStatistics,
    classical_mutual_info,
    quantum_info_gain,
)
from .instrument import Instrument, KrausMap, povm_of
from .matcore import SUPPORT_CUTOFF
from .qstate import ClassicalDist, DensityMatrix, Ensemble, validate_density

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


def build_hall_instrument(e: Ensemble, eta: DensityMatrix) -> HallInstrument:
    """Kraus operators sqrt(P_a) rho_a^{1/2} eta^{-1/2}, one per letter, where
    ``eta`` is the a priori state of ``e``."""
    vals, _ = eta.spectral()
    if vals[0] <= INVERTIBILITY_TOL:
        raise SingularAprioriState(
            f"a priori state eigenvalue {vals[0]:.3e} below {INVERTIBILITY_TOL:.1e}"
        )
    inv_sqrt = matcore.spectral_apply(eta.spectral(), lambda x: x ** -0.5)
    maps = tuple(
        KrausMap(
            e.dim, e.dim, (np.sqrt(p) * matcore.spectral_apply(rho.spectral(), np.sqrt) @ inv_sqrt,)
        )
        for p, rho in zip(e.probs, e.states)
    )
    base = Instrument(e.letters, maps)
    return HallInstrument(base=base, source_ensemble=e)


def dual_ensemble(e: Ensemble, ins: Instrument, eta: DensityMatrix) -> DualEnsemble:
    """sigma_i(omega) = eta^{1/2} E(omega) eta^{1/2} / P_f(omega), where ``eta``
    is the a priori state of ``e``."""
    if e.dim != ins.dim_in:
        raise DimensionMismatch(f"ensemble dim {e.dim} vs instrument dim_in {ins.dim_in}")
    sqrt_eta = matcore.spectral_apply(eta.spectral(), np.sqrt)
    effects = povm_of(ins).effects
    p_f = np.array([max(float(np.trace(eff @ eta.mat).real), 0.0) for eff in effects])
    p_f = p_f / p_f.sum()
    states = []
    for eff, p in zip(effects, p_f):
        if p > SUPPORT_CUTOFF:
            states.append(validate_density(sqrt_eta @ eff @ sqrt_eta / p))
        else:
            states.append(None)
    return DualEnsemble(
        outcome_labels=ins.outcomes,
        probs=ClassicalDist(ins.outcomes, p_f),
        states=tuple(states),
    )


def hall_section(ms: MeasurementStatistics) -> BoundReport:
    """Every Hall-type check of one scenario, from one Hall instrument J and one
    dual ensemble {P_f, sigma_i}:

    - duality: J's statistics on the dual states reproduce the original
      conditional law P_{i|f} and I_c;
    - Hall's bound I_c <= chi{P_f, sigma_i} (the dual chi against eta_i);
    - the strengthened bound I_c <= chi_initial - D, with
      D = sum_w P_f(w) I_q{sigma_i(w); J}, its parts, and its ordering against
      Hall's bound (recorded as data, not asserted).
    """
    e, ins, eta = ms.ensemble, ms.instrument, ms.a_priori
    h = build_hall_instrument(e, eta)
    dual = dual_ensemble(e, ins, eta)
    effects_j = povm_of(h.base).effects
    i_c = classical_mutual_info(ms)

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
    joint_dual = joint_dual / joint_dual.sum()
    i_c_dual = mutual_info(joint_dual, joint_dual.sum(axis=1), joint_dual.sum(axis=0))

    live = [
        (p, sigma) for p, sigma in zip(p_f, dual.states)
        if sigma is not None and p > SUPPORT_CUTOFF
    ]
    chi_dual = chi_against([p for p, _ in live], [sigma for _, sigma in live], eta)
    gains = [quantum_info_gain(h.base, sigma) for _, sigma in live]
    d_term = sum(p * gain for (p, _), gain in zip(live, gains))

    chi_initial = chi_against(e.probs, e.states, eta)
    new_rhs = chi_initial - d_term
    return BoundReport((
        BoundCheck("duality_conditional_law", max_dev, 0.0, kind="eq"),
        BoundCheck("duality_ic", i_c_dual, i_c, kind="eq"),
        BoundCheck("hall_bound", i_c, chi_dual),
        BoundCheck("new_bound", i_c, new_rhs),
        BoundCheck("new_d_term_nonneg", 0.0, min(gains)),
        BoundCheck("new_iq_identity", quantum_info_gain(h.base, eta), chi_initial, kind="eq"),
        BoundCheck("new_le_holevo", new_rhs, chi_initial),
        BoundCheck("new_vs_hall_data", new_rhs, chi_dual, kind="data"),
    ))
