"""Hall-type bounds of one scenario: duality of the classical informations,
Hall's bound and the strengthened upper bound on the classical mutual
information, all read off the measurement-from-ensemble instrument J.

J has Kraus operators sqrt(P_a) rho_a^{1/2} eta^{-1/2} (M. J. W. Hall, PRA 55,
100, 1997), but every row reads J only on the dual states
sigma_w = eta^{1/2} E(w) eta^{1/2} / P_f(w) and on eta, where
J_a(sigma_w) = P_a rho_a^{1/2} E(w) rho_a^{1/2} / P_f(w) and J_a(eta) = P_a rho_a:
eta^{-1/2} cancels. So the section is computed from the scenario's own arrays,
and J and the dual ensemble, built one state at a time, live in ``reference``
as the oracle the tests hold it to."""

from __future__ import annotations

import numpy as np

from . import matcore
from .entropy import chi_against, mutual_info, vn_entropies
from .errors import SingularAprioriState
from .infobounds import BoundCheck, BoundReport, MeasurementStatistics, _info_gain
from .instrument import _posteriors
from .matcore import SUPPORT_CUTOFF

INVERTIBILITY_TOL = 1e-9


def hall_section(ms: MeasurementStatistics) -> BoundReport:
    """Every Hall-type check of one scenario, over the live outcomes of its
    outcome law P_f (``ms.output_marginal``):

    - duality: J's law on the dual states, P_a Tr[rho_a E(w)] / P_f(w) from the
      effects, reproduces P_{i|f} from the channel (``ms.cond_in_given_out``),
      and so I_c;
    - Hall's bound I_c <= chi{P_f, sigma_w} (the dual chi against eta_i);
    - the strengthened bound I_c <= chi_initial - D, with
      D = sum_w P_f(w) I_q{sigma_w; J}, its parts, and its ordering against
      Hall's bound (recorded as data, not asserted).

    J's a posteriori states come from one ``_posteriors`` call on the stack
    P_a rho_a^{1/2} X rho_a^{1/2}, X running over E(w) / P_f(w) and I; their
    entropies and the dual states' from one ``vn_entropies`` call. I_c and the
    letters' and eta_i's entropies are the scenario's (``ms.entropies``).

    Raises SingularAprioriState, with fixed text, when eta's least eigenvalue
    is <= INVERTIBILITY_TOL. No row needs the inverse, but the Hall skip and
    the set of check names are compared exactly against the recorded
    benchmark references, so the skip stays until those are re-recorded.
    """
    e, eta = ms.ensemble, ms.a_priori
    if eta.spectral().eigenvalues[0] <= INVERTIBILITY_TOL:
        raise SingularAprioriState(
            f"a priori state is singular: least eigenvalue at or below {INVERTIBILITY_TOL:.1e}"
        )
    p_f = ms.output_marginal.probs
    live = p_f > SUPPORT_CUTOFF
    p_f = p_f[live]
    x = np.concatenate([ms.instrument.effects[live] / p_f[:, None, None], np.eye(e.dim)[None]])

    lam, u = e.spectra  # each letter's square root, on its support
    roots = (u * np.sqrt(np.where(lam > SUPPORT_CUTOFF, lam, 0.0))[:, None]) @ u.conj().swapaxes(-1, -2)
    outs = e.probs[:, None, None, None] * (roots[:, None] @ x @ roots[:, None])  # [letter, input]
    law, posts = _posteriors(outs)  # P_J(a | input), [letter, input]
    sqrt_eta = matcore.spectral_apply(eta.spectral(), np.sqrt)
    sigma = sqrt_eta @ x[:-1] @ sqrt_eta
    s_post, s_sigma = np.split(vn_entropies(np.concatenate([posts.reshape(-1, e.dim, e.dim), sigma])), [law.size])
    gains = _info_gain(np.append(s_sigma, ms.entropies.eta_i), law.T, s_post.reshape(law.shape).T)

    i_c = ms.classical_mi
    max_dev = np.max(np.abs(law[:, :-1] - ms.cond_in_given_out[:, live]))
    joint_dual = p_f[:, None] * law[:, :-1].T
    joint_dual = joint_dual / joint_dual.sum()
    i_c_dual = mutual_info(joint_dual, joint_dual.sum(axis=1), joint_dual.sum(axis=0))
    chi_dual = chi_against(p_f, s_sigma, ms.entropies.eta_i)
    d_term = p_f @ gains[:-1]

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
