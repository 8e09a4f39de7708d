"""Hall-type dual construction: the measurement-from-ensemble instrument, the
dual ensemble, duality of the classical informations, Hall's bound and the
strengthened upper bound on the classical mutual information."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .entropy import chi_against, mutual_info
from .errors import BadTrace, SingularAprioriState
from .infobounds import BoundCheck, BoundReport, MeasurementStatistics, _gains
from .instrument import POVM_SUM_TOL, Instrument, KrausMap, outcome_probs
from .matcore import SUPPORT_CUTOFF
from .qstate import ClassicalDist, DensityMatrix, Ensemble

INVERTIBILITY_TOL = 1e-9


@dataclass(frozen=True)
class DualEnsemble:
    """Outcome-indexed ensemble whose barycenter is the original a priori state."""

    probs: ClassicalDist
    states: np.ndarray  # [outcome, d1, d1]; the zero matrix on null outcomes


def build_hall_instrument(e: Ensemble, eta: DensityMatrix) -> Instrument:
    """Kraus operators sqrt(P_a) rho_a^{1/2} eta^{-1/2}, one per letter, where
    ``eta`` is the a priori state of ``e``.

    Raises SingularAprioriState when eta's least eigenvalue is <=
    INVERTIBILITY_TOL, or when it is so small that rounding in eta^{-1/2}
    leaves the effects' sum off the identity by more than POVM_SUM_TOL (the
    Instrument's BadTrace). Each reason is fixed text: the eigenvalue and the
    deviation are rounding noise there, and the report prints the reason.
    """
    vals, _ = eta.spectral()
    if vals[0] <= INVERTIBILITY_TOL:
        raise SingularAprioriState(
            f"a priori state is singular: least eigenvalue at or below {INVERTIBILITY_TOL:.1e}"
        )
    inv_sqrt = matcore.spectral_apply(eta.spectral(), lambda x: x ** -0.5)
    lam, u = e.spectra  # each letter's square root, on its support
    roots = (u * np.sqrt(np.where(lam > SUPPORT_CUTOFF, lam, 0.0))[:, None]) @ u.conj().swapaxes(-1, -2)
    kraus = np.sqrt(e.probs)[:, None, None] * roots @ inv_sqrt
    maps = tuple(KrausMap(e.dim, e.dim, k) for k in kraus[:, None])
    try:
        return Instrument(e.letters, maps)
    except BadTrace as exc:
        raise SingularAprioriState(
            "a priori state is near-singular: the Hall instrument's sum of effects"
            f" deviates from identity by more than {POVM_SUM_TOL:.1e}"
        ) from exc


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


def hall_section(ms: MeasurementStatistics) -> BoundReport:
    """Every Hall-type check of one scenario, from one Hall instrument J and one
    dual ensemble {P_f, sigma_i}:

    - duality: J's statistics on the dual states reproduce the original
      conditional law P_{i|f} and I_c;
    - Hall's bound I_c <= chi{P_f, sigma_i} (the dual chi against eta_i);
    - the strengthened bound I_c <= chi_initial - D, with
      D = sum_w P_f(w) I_q{sigma_i(w); J}, its parts, and its ordering against
      Hall's bound (recorded as data, not asserted).

    The information gains of J on the live dual states and on eta_i, and their
    entropies, come from one stacked ``_gains`` call; I_c and the letters' and
    eta_i's entropies are the scenario's (``ms.entropies``).
    """
    e, ins, eta = ms.ensemble, ms.instrument, ms.a_priori
    h = build_hall_instrument(e, eta)
    dual = dual_ensemble(ins, eta)
    i_c = ms.classical_mi

    p_f = dual.probs.probs
    live = p_f > SUPPORT_CUTOFF
    law = np.einsum("aij,wji->wa", h.effects, dual.states[live]).real  # P_J(a | sigma_w)
    max_dev = np.max(np.abs(law - ms.cond_in_given_out[:, live].T))
    joint_dual = p_f[live, None] * np.maximum(law, 0.0)
    joint_dual = joint_dual / joint_dual.sum()
    i_c_dual = mutual_info(joint_dual, joint_dual.sum(axis=1), joint_dual.sum(axis=0))

    gains, _, s_in = _gains(h, np.concatenate([dual.states[live], eta.mat[None]]))
    chi_dual = chi_against(p_f[live], s_in[:-1], s_in[-1])
    d_term = p_f[live] @ gains[:-1]

    chi_initial = chi_against(e.probs, ms.entropies.letters, ms.entropies.eta_i)
    new_rhs = chi_initial - d_term
    return BoundReport((
        BoundCheck("duality_conditional_law", max_dev, 0.0, kind="dev"),
        BoundCheck("duality_ic", i_c_dual, i_c, kind="eq"),
        BoundCheck("hall_bound", i_c, chi_dual),
        BoundCheck("new_bound", i_c, new_rhs),
        BoundCheck("new_d_term_nonneg", 0.0, np.min(gains[:-1])),
        BoundCheck("new_iq_identity", gains[-1], chi_initial, kind="eq"),
        BoundCheck("new_le_holevo", new_rhs, chi_initial),
        BoundCheck("new_vs_hall_data", new_rhs, chi_dual, kind="data"),
    ))
