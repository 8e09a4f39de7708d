"""Hall-type bounds of one scenario: duality of the classical informations,
Hall's bound and the strengthened upper bound on the classical mutual
information, all read off the measurement-from-ensemble instrument J.

J has Kraus operators sqrt(P_a) rho_a^{1/2} eta^{-1/2} (M. J. W. Hall, PRA 55,
100, 1997), but every row reads J only on the dual states
sigma_w = eta_w^{1/2} E(w) eta_w^{1/2} / P_f(w) and on eta, where eta_w is the
dual state of outcome w's live letters (eta itself when w holds no null cell),
J_a(sigma_w) = P_a rho_a^{1/2} E(w) rho_a^{1/2} / P_f(w) and J_a(eta) = P_a rho_a:
eta^{-1/2} cancels. So the section is computed from the scenario's own arrays,
and J and the dual ensemble, built one state at a time, live in ``reference``
as the oracle the tests hold it to. The states it derives (sigma_w, J's a
posteriori states) stay plain arrays: the rules of a state serve inputs only
(``qstate``)."""

from __future__ import annotations

import numpy as np

from . import matcore
from .entropy import chi_against, mutual_info, vn_entropies
from .infobounds import BoundCheck, MeasurementStatistics, _info_gain
from .instrument import _posteriors
from .matcore import SUPPORT_CUTOFF

INVERTIBILITY_TOL = 1e-9
SINGULAR = f"a priori state is singular: least eigenvalue at or below {INVERTIBILITY_TOL:.1e}"


def hall_section(ms: MeasurementStatistics) -> tuple:
    """Every Hall-type check row of one scenario, over the live outcomes that
    ``analyze`` decided (``ms.live``) of its outcome law P_f:

    - duality: J's law on the dual states, P_a Tr[rho_a E(w)] / P_f(w) from the
      effects, reproduces P_{i|f} from the channel (``ms.cond_in_given_out``),
      judged on the scale of the joint law, max over (a, w) of
      P_f(w) |P_J(a | sigma_w) - P_{i|f}(a|w)|, and so I_c;
    - Hall's bound I_c <= chi{P_f, sigma_w} (the dual chi against eta_i);
    - the strengthened bound I_c <= chi_initial - D, with
      D = sum_w P_f(w) I_q{sigma_w; J}, its parts, and its ordering against
      Hall's bound (recorded as data, not asserted).

    Every live outcome takes the dual state of its live letters,
    eta_w = sum_a P_a [cell (a, w) live] rho_a, which is eta_i when w holds no
    null cell, so J reads the nulls P_{i|f} reads and its gains stay >= 0.
    Each rho_a^{1/2} and eta_w^{1/2} come from one stacked form, on the
    support, over ``Ensemble.spectra`` and the eta_w's, decomposed by one
    batched ``herm_eig``. J's a posteriori states come from one
    ``_posteriors`` call on the stack P_a rho_a^{1/2} X rho_a^{1/2}, X running
    over E(w) / P_f(w) and I, with ``analyze``'s null cells set to 0. The
    entropies come from one ``vn_entropies`` call; I_c and the letters' and
    eta_i's are the scenario's (``ms.entropies``).

    ``harness.run_scenario`` calls it only when eta's least eigenvalue
    (``ms.a_priori_eigenvalues``) is above INVERTIBILITY_TOL, and otherwise
    reports the skip with the fixed text SINGULAR. No row needs the inverse,
    and the section reads no decomposition of eta, but the Hall skip and the
    set of check names are compared exactly against the recorded benchmark
    references, so the skip stays until those are re-recorded.
    """
    e = ms.ensemble
    p_f = ms.output_marginal[ms.live]
    x = np.concatenate([ms.instrument.effects[ms.live] / p_f[:, None, None], np.eye(e.dim)[None]])
    held = ms.cond_out_given_in[:, ms.live] > 0.0  # analyze's live cells
    eta_w = np.einsum("wa,aij->wij", e.probs * held.T, e.states)

    n_l = len(e.letters)
    lam, u = (np.concatenate(parts) for parts in zip(e.spectra, matcore.herm_eig(eta_w)))
    roots = (u * np.sqrt(np.where(lam > SUPPORT_CUTOFF, lam, 0.0))[:, None]) @ u.conj().swapaxes(-1, -2)
    outs = e.probs[:, None, None, None] * (roots[:n_l, None] @ x @ roots[:n_l, None])  # [letter, input]
    outs[:, :-1][~held] = 0.0
    law, posts = _posteriors(outs)  # P_J(a | input), [letter, input]
    sigma = roots[n_l:] @ x[:-1] @ roots[n_l:]
    s_all = vn_entropies(np.concatenate([posts.reshape(-1, e.dim, e.dim), sigma]))
    s_post, s_sigma = s_all[:law.size], s_all[law.size:]
    gains = _info_gain(np.append(s_sigma, ms.entropies.eta_i), law.T, s_post.reshape(law.shape).T)

    i_c = ms.classical_mi
    max_dev = (p_f * np.abs(law[:, :-1] - ms.cond_in_given_out[:, ms.live])).max()
    joint_dual = p_f[:, None] * law[:, :-1].T
    joint_dual = joint_dual / joint_dual.sum()
    i_c_dual = mutual_info(joint_dual, joint_dual.sum(axis=1), joint_dual.sum(axis=0))
    chi_dual = chi_against(p_f, s_sigma, ms.entropies.eta_i)
    d_term = p_f @ gains[:-1]

    chi_initial = chi_against(e.probs, ms.entropies.letters, ms.entropies.eta_i)
    new_rhs = chi_initial - d_term
    return (
        BoundCheck("duality_conditional_law", max_dev, 0.0, kind="dev"),
        BoundCheck("duality_ic", i_c_dual, i_c, kind="eq"),
        BoundCheck("hall_bound", i_c, chi_dual),
        BoundCheck("new_bound", i_c, new_rhs),
        BoundCheck("new_d_term_nonneg", 0.0, gains[:-1].min()),
        BoundCheck("new_iq_identity", gains[-1], chi_initial, kind="eq"),
        BoundCheck("new_le_holevo", new_rhs, chi_initial),
        BoundCheck("new_vs_hall_data", new_rhs, chi_dual, kind="data"),
    )
