"""Hall-type bounds of one scenario: duality of the classical informations,
Hall's bound and the strengthened upper bound on the classical mutual
information, all read off the measurement-from-ensemble instrument J.

J has Kraus operators sqrt(P_a) rho_a^{1/2} eta^{-1/2} (M. J. W. Hall, PRA 55,
100, 1997), but every row reads J only on the dual states
sigma_w = eta_w^{1/2} E(w) eta_w^{1/2} / P_f(w) and on eta, where eta_w is the
dual state of outcome w's live letters (eta itself when w holds no null cell),
J_a(sigma_w) = P_a rho_a^{1/2} E(w) rho_a^{1/2} / P_f(w) and J_a(eta) = P_a rho_a:
eta^{-1/2} cancels, and J's law on eta is P_i with the letters as its a
posteriori states. So the section is computed from the scenario's own arrays,
and J and the dual ensemble, built one state at a time, are the oracle the
tests hold it to (``tests/oracle.py``). The states it derives (sigma_w, J's a
posteriori states) stay plain arrays: the rules of a state serve inputs only
(``qstate``)."""

from __future__ import annotations

import numpy as np

from . import matcore
from .entropy import chi_against, mutual_info, vn_entropies
from .infobounds import MeasurementStatistics, _info_gain
from .instrument import _posteriors
from .matcore import SUPPORT_CUTOFF

INVERTIBILITY_TOL = 1e-9
SINGULAR = f"a priori state is singular: least eigenvalue at or below {INVERTIBILITY_TOL:.1e}"


def hall_section(ms: MeasurementStatistics) -> dict:
    """The six scalars that the Hall-type rows of ``ROWS`` read beside the
    panel's I_c and chi_initial, over the live outcomes that ``analyze``
    decided (``ms.live``) of its outcome law P_f:

    - ``dual_law_dev``, max over (a, w) of P_f(w) |P_J(a | sigma_w) - P_{i|f}(a|w)|:
      J's law on the dual states, P_a Tr[rho_a E(w)] / P_f(w) from the
      effects, against P_{i|f} from the channel, on the scale of the joint law;
    - ``dual_classical_mi``, I_c read off J's joint law P_f(w) P_J(a | sigma_w);
    - ``chi_dual``, Hall's bound on I_c, S(eta_i) - sum_w P_f(w) S(sigma_w).
      When an outcome holds a null cell, sum_w P_f(w) sigma_w is not eta_i,
      so this is not chi{P_f, sigma_w} against eta_i. It is chi of eta's own
      dual ensemble {P_f(w), eta^{1/2} E(w) eta^{1/2} / P_f(w)}, whose
      barycenter is eta: sigma_w has the spectrum of
      E(w)^{1/2} eta_w E(w)^{1/2} / P_f(w), and eta's dual state that of the
      same form on eta, which differs by the null cells' weight alone;
    - ``d_term``, D = sum_w P_f(w) I_q{sigma_w; J} of the strengthened bound
      I_c <= chi_initial - D, and ``dual_least_gain``, its least part;
    - ``dual_eta_gain``, I_q{eta; J} = S(eta) - sum_a P_a S(rho_a), read from
      the scenario's entropies (``ms.entropies``), as chi_initial is.

    Every live outcome takes the dual state of its live letters,
    eta_w = sum_a P_a [cell (a, w) live] rho_a, which is eta_i when w holds no
    null cell, so J reads the nulls P_{i|f} reads and its gains stay >= 0.
    Each rho_a^{1/2} and eta_w^{1/2} come from one stacked form, on the
    support, over ``Ensemble.spectra`` and the eta_w's, decomposed by one
    batched ``herm_eig``. J's a posteriori states on the sigma_w come from one
    ``_posteriors`` call on the stack P_a rho_a^{1/2} E(w) rho_a^{1/2} / P_f(w),
    with ``analyze``'s null cells set to 0; those on eta are the letters, so
    no identity input is decomposed. The sigma_w's and J's a posteriori
    states' entropies come from one ``vn_entropies`` call; eta_i's and the
    letters' are the scenario's (``ms.entropies``). I_c and chi_initial are
    the panel's, which the rows read: the section computes neither.

    ``harness.run_scenario`` calls it only when eta's least eigenvalue
    (``ms.a_priori_eigenvalues``) is above INVERTIBILITY_TOL, and otherwise
    reports the skip with the fixed text SINGULAR. No row needs the inverse,
    and the section reads no decomposition of eta, but the Hall skip and the
    set of check names are compared exactly against the recorded benchmark
    references, so the skip stays until those are re-recorded.
    """
    e = ms.ensemble
    p_f = ms.output_marginal[ms.live]
    x = ms.instrument.effects[ms.live] / p_f[:, None, None]
    held = ms.cond_out_given_in[:, ms.live] > 0.0  # analyze's live cells
    eta_w = np.einsum("wa,aij->wij", e.probs * held.T, e.states)

    n_l = len(e.letters)
    lam, u = (np.concatenate(parts) for parts in zip(e.spectra, matcore.herm_eig(eta_w)))
    roots = (u * np.sqrt(np.where(lam > SUPPORT_CUTOFF, lam, 0.0))[:, None]) @ u.conj().swapaxes(-1, -2)
    outs = e.probs[:, None, None, None] * (roots[:n_l, None] @ x @ roots[:n_l, None])  # [letter, outcome]
    outs[~held] = 0.0
    law, posts = _posteriors(outs)  # P_J(a | sigma_w), [letter, outcome]
    sigma = roots[n_l:] @ x @ roots[n_l:]
    s_all = vn_entropies(np.concatenate([posts.reshape(-1, e.dim, e.dim), sigma]))
    s_post, s_sigma = s_all[:law.size], s_all[law.size:]
    gains = _info_gain(s_sigma, law.T, s_post.reshape(law.shape).T)
    s = ms.entropies

    return {
        "dual_law_dev": (p_f * np.abs(law - ms.cond_in_given_out[:, ms.live])).max(),
        "dual_classical_mi": mutual_info(p_f[:, None] * law.T),
        "chi_dual": chi_against(p_f, s_sigma, s.eta_i),
        "d_term": p_f @ gains,
        "dual_least_gain": gains.min(),
        "dual_eta_gain": _info_gain(s.eta_i, e.probs, s.letters),
    }
