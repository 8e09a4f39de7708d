"""Hall-type bounds of one scenario: duality of the classical informations,
Hall's bound and the strengthened upper bound on the classical mutual
information, all read off the measurement-from-ensemble instrument J.

J has Kraus operators sqrt(P_a) rho_a^{1/2} eta^{-1/2} (M. J. W. Hall, PRA 55,
100, 1997), but every row reads J only through the spectrum and trace of
J_a(sigma_w) = P_a rho_a^{1/2} E(w) rho_a^{1/2} / P_f(w) (eta^{-1/2} cancels)
and of J_a(eta) = P_a rho_a. By Sylvester's law (AB and BA share their
nonzero spectrum) the section builds them in the frame of the effect, from
the scenario's own arrays; J and the dual ensemble, built one state at a
time in the frame of the letters, are the oracle the tests hold it to
(``tests/oracle.py``). The states it derives stay plain arrays: the rules
of a state serve inputs only (``qstate``)."""

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
      barycenter is eta: its member w has the spectrum of R_w eta R_w, and
      sigma_w differs from that by the null cells' weight alone;
    - ``d_term``, D = sum_w P_f(w) I_q{sigma_w; J} of the strengthened bound
      I_c <= chi_initial - D, and ``dual_least_gain``, its least part;
    - ``dual_eta_gain``, I_q{eta; J} = S(eta) - sum_a P_a S(rho_a), read from
      the scenario's entropies (``ms.entropies``), as chi_initial is.

    Every outcome is read in its effect's frame: R_w is the square root, on
    its support (eigenvalues above SUPPORT_CUTOFF), of E(w) / P_f(w), from
    the section's one decomposition, a batched ``herm_eig`` over the live
    outcomes. J's outputs P_a R_w rho_a R_w share their spectrum and trace
    with J_a(sigma_w) (Sylvester's law); ``analyze``'s null cells are set to
    0, so J reads the nulls P_{i|f} reads and its gains stay >= 0. Their a
    posteriori states come from one ``_posteriors`` call, and sigma_w, the
    dual state of w's live letters, is their sum over the letters. On eta,
    J's a posteriori states are the letters, so no identity input is
    decomposed. The entropies of the sigma_w's and of J's a posteriori
    states come from one ``vn_entropies`` call; eta_i's and the letters' are
    the scenario's (``ms.entropies``). I_c and chi_initial are the panel's:
    the section computes neither.

    ``harness.run_scenario`` calls it only when eta's least eigenvalue
    (``ms.a_priori_eigenvalues``) is above INVERTIBILITY_TOL, and otherwise
    reports the skip with the fixed text SINGULAR. No row needs the inverse,
    and the section reads no decomposition of eta, but the Hall skip and the
    set of check names are compared exactly against the recorded benchmark
    references, so the skip stays until those are re-recorded.
    """
    e = ms.ensemble
    p_f = ms.output_marginal[ms.live]
    lam, u = matcore.herm_eig(ms.instrument.effects[ms.live] / p_f[:, None, None])
    roots = (u * np.sqrt(np.where(lam > SUPPORT_CUTOFF, lam, 0.0))[:, None]) @ u.conj().swapaxes(-1, -2)
    outs = e.probs[:, None, None, None] * (roots @ e.states[:, None] @ roots)  # [letter, outcome]
    outs[ms.cond_out_given_in[:, ms.live] == 0.0] = 0.0  # analyze's null cells
    law, posts = _posteriors(outs)  # P_J(a | sigma_w), [letter, outcome]
    s_all = vn_entropies(np.concatenate([posts.reshape(-1, e.dim, e.dim), outs.sum(axis=0)]))
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
