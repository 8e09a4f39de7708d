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
``per_state_scalars`` puts them together into every scalar a report reads
but the GL check's, which
``test_corpus.test_report_matches_the_per_state_oracle`` holds each report
to, and ``sequential_gl`` into the GL check's rows and a sampled purity
class, which ``test_corpus.test_gl_rows_match_the_sequential_oracle`` holds
each report's ``gl_*`` rows and ``purity_preserving`` to.
A state is a ``DensityMatrix`` here, a type only the oracles and the tests
build: the a priori state (``a_priori_state``) is one, a law is a checked
``ClassicalDist`` and ``vn_entropy`` is one state's entropy. The tests' random
draws come from here too: a Ginibre state (``random_density``) and a Haar
unitary (``haar_unitary``). The pipeline takes states as arrays and keeps what
it derives as plain arrays. This module's independence is the reason it
exists: it is test code, outside the package, and nothing here calls the
stacked path it checks (``instrument.Instrument.channel_matrix``,
``instrument._posteriors``, ``entropy.vn_entropies``) or a stage of
``harness.run_scenario`` (``tests/test_reference.py``).

Beside these two stand the other two oracles, each a table of
callables that need no recorded reference. A report depends on its scenario
only through the ensemble as a state and the instrument as a channel, so each
of ``TRANSFORMS`` (relabelled outcomes or letters, a unitary on either space,
an outcome split by a coin that ignores the letter, and another Kraus
representation of each outcome's map) moves no number of it. Mutual
entropies do not increase under a channel, so each of ``RELATIONS`` (a merge
of two outcomes, a channel on H2 after the instrument, a merge of two
letters, and an outcome split by a coin and merged back) orders two panels.
``tests/corpus.py`` names the inputs all four run on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from qinstr import matcore
from qinstr.entropy import _entropy
from qinstr.errors import QinstrError
from qinstr.hallmap import INVERTIBILITY_TOL, SINGULAR
from qinstr.infobounds import _ginibre_states, random_ensemble, random_pure
from qinstr.instrument import NULL_TRACE, Instrument, KrausMap, random_instrument
from qinstr.matcore import HERM_TOL, SUPPORT_CUTOFF
from qinstr.qstate import PROB_TOL, DensityMatrix, Ensemble

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
    """True iff supp(sigma) is contained in supp(tau): sigma's block on the
    kernel of tau (its eigenvalues <= 0) is within NULL_TRACE of 0."""
    if sigma.dim != tau.dim:
        raise QinstrError(f"dims {sigma.dim} and {tau.dim} differ")
    vals, vecs = tau.spectral()
    keep = vals <= 0.0
    if not np.any(keep):
        return True
    comp = vecs[:, keep]  # columns spanning the kernel of tau
    block = comp.conj().T @ sigma.mat @ comp
    return float(np.max(np.abs(block))) <= NULL_TRACE


def maximally_mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(np.eye(dim, dtype=np.complex128) / dim)


def random_density(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Normalized Ginibre state G G^dag / Tr (``_ginibre_states`` of one draw)."""
    return DensityMatrix(_ginibre_states(rng.standard_normal((1, 2, dim, dim)))[0])


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """The Q factor of a Ginibre draw, its phases fixed by R's diagonal, so
    that it is Haar-distributed."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def purity(rho: DensityMatrix) -> float:
    return float(np.trace(rho.mat @ rho.mat).real)


def q_rel_entropy(sigma: DensityMatrix, tau: DensityMatrix) -> float:
    """Tr{sigma (log sigma - log tau)}, +inf when supp(sigma) leaves supp(tau).

    Evaluated through both spectral decompositions:
    sum_j l_j log l_j - sum_{jk} l_j |<u_j|v_k>|^2 log m_k,
    exact on the supports without forming log of a matrix difference. The
    first sum reads every l_j > 0, as an entropy does (``entropy._entropy``),
    and log m_k every m_k > 0; weight beyond NULL_TRACE, the pipeline's null
    rule, on tau's kernel (m_k <= 0) reads +inf.
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
        if lj <= 0.0:
            continue
        total += lj * math.log(lj)
        for k, mk in enumerate(tvals):
            w = overlap[j, k]
            if mk > 0.0:
                total -= lj * w * math.log(mk)
            elif lj * w > NULL_TRACE:
                return INF  # residual weight on the kernel of tau
    return total


def c_rel_entropy(p: ClassicalDist, q: ClassicalDist) -> float:
    """Kullback-Leibler divergence, with 0 log(0/q) = 0 and p log(p/0) = +inf
    on exact zeros, which is how the pipeline marks a null cell."""
    if p.labels != q.labels:
        raise QinstrError("distributions live on different label sets")
    total = 0.0
    for pj, qj in zip(p.probs, q.probs):
        if pj == 0.0:
            continue
        if qj == 0.0:
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
    """Normalized conditional states by the null-cell rule of ``_posteriors``,
    but a null outcome's state is the fill I/d2, not 0, as a ``DensityMatrix``
    has trace 1; no number reads it, since its probability is 0."""
    probs, states = [], []
    for m in ins.maps:
        out = map_action(m, rho.mat)
        tr = float(np.trace(out).real)
        live = tr > NULL_TRACE
        probs.append(tr if live else 0.0)
        states.append(DensityMatrix(out / tr) if live else maximally_mixed(ins.dim_out))
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
    """Outcome-indexed ensemble of dual states, each of the letters live under
    its outcome; its barycenter is the a priori state when no outcome holds a
    null cell."""

    probs: ClassicalDist
    states: np.ndarray  # [outcome, d1, d1]; the zero matrix on null outcomes
    held: np.ndarray  # [letter, outcome]: True on the live cells


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


def dual_states(e: Ensemble, held: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """eta_w^{1/2} E(w) eta_w^{1/2} / Tr[eta_w E(w)] for each effect E(w), with
    eta_w = sum_a P_a rho_a over the letters ``held[:, w]`` marks: Hall's dual
    state of E(w) on their mixture, the zero matrix where no letter is held."""
    states = np.zeros_like(effects)
    for w, effect in enumerate(effects):
        if held[:, w].any():
            eta_w = sum(p * rho for p, rho, h in zip(e.probs, e.states, held[:, w]) if h)
            root = matcore.spectral_apply(matcore.herm_eig(eta_w), np.sqrt)
            states[w] = root @ effect @ root / np.trace(eta_w @ effect).real
    return states


def dual_ensemble(e: Ensemble, ins: Instrument) -> DualEnsemble:
    """The dual ensemble under the pipeline's null rule: outcome omega's state
    is the dual state (``dual_states``) of the letters whose cell (a, omega)
    is live by ``a_posteriori``'s rule, which is eta's when omega holds no
    null cell, at the outcome law of the live cells; a null outcome, of
    probability exactly 0, holds no letter and so the zero matrix."""
    grid = np.array([a_posteriori(ins, DensityMatrix(rho)).probs.probs for rho in e.states])  # [letter, outcome]
    held = grid > 0.0
    return DualEnsemble(ClassicalDist(ins.outcomes, e.probs @ grid), dual_states(e, held, ins.effects), held)


def live_letters_hall_read(e: Ensemble, held: np.ndarray, sigma: DensityMatrix) -> tuple:
    """J's law on ``sigma`` over every letter (0 off ``held``) and its
    information gain there, where J is Hall's instrument of the letters
    ``held`` marks, at their priors renormalized. Their mixture can be
    singular (one pure letter), so the letters and ``sigma``, which lives on
    the mixture's range, are first compressed to that range (eigenvalues above
    SUPPORT_CUTOFF), where J is defined."""
    labels = tuple(a for a, h in zip(e.letters, held) if h)
    probs = e.probs[held] / e.probs[held].sum()
    vals, vecs = a_priori_state(Ensemble(labels, probs, e.states[held])).spectral()
    v = vecs[:, vals > SUPPORT_CUTOFF]  # an isometry onto the range
    live = Ensemble(labels, probs, v.conj().T @ e.states[held] @ v)
    h = build_hall_instrument(live, a_priori_state(live))
    compressed = DensityMatrix(v.conj().T @ sigma.mat @ v)
    law = np.zeros(len(e.letters))
    law[held] = a_posteriori(h, compressed).probs.probs
    return law, quantum_info_gain(h, compressed)


def classical_mutual_info(law: np.ndarray) -> float:
    """I_c of a joint law, S_c(law | the product of its marginals)."""
    cells = tuple(np.ndindex(law.shape))
    product = np.outer(law.sum(axis=1), law.sum(axis=0))
    return c_rel_entropy(ClassicalDist(cells, law.ravel()), ClassicalDist(cells, product.ravel()))


def per_state_scalars(e: Ensemble, ins: Instrument) -> dict:
    """Every scalar a report reads but the GL check's, in nats, by the name its
    stage gives it (``infobounds.ROWS``): the panel, ``quantum_info_gain``, the
    five compound deviations at their exact value 0.0, the five Scutaru chi's
    and, when eta's least eigenvalue is above INVERTIBILITY_TOL, Hall's six
    scalars: J's law and gain on each live outcome's dual state
    (``dual_ensemble``) through the J of its live letters
    (``live_letters_hall_read``), and I_q{eta; J} through the J of all of them
    (``build_hall_instrument``).

    Each chi is a mean relative entropy (``q_rel_entropy``) of states built one
    at a time by ``a_posteriori`` and ``total_channel``; the compound states
    are summed one cell at a time with ``np.kron``. A cell, an outcome or a
    member is left out only where ``a_posteriori`` gave it probability
    exactly 0, by its NULL_TRACE rule.
    """
    letters = [DensityMatrix(rho) for rho in e.states]
    eta_i = a_priori_state(e)
    eta_f = total_channel(ins, eta_i)
    grid = [a_posteriori(ins, rho) for rho in letters]  # rho_a(w) = grid[a].states[w]
    post = [total_channel(ins, rho) for rho in letters]  # eta_f^a
    mean = a_posteriori(ins, eta_i).states  # rho_f(w)
    joint = e.probs[:, None] * np.array([fam.probs.probs for fam in grid])  # [letter, outcome]
    p_f = joint.sum(axis=0)
    live = np.flatnonzero(p_f)
    cond = joint[:, live] / p_f[live]  # P_{i|f}(a|w), [letter, live outcome]

    def chi(weights, members, barycenter):
        return sum(w * q_rel_entropy(m, barycenter) for w, m in zip(weights, members) if w)

    def mixture(weights, mats):
        return DensityMatrix(sum(w * m for w, m in zip(weights, mats)))

    products = [np.kron(rho.mat, out.mat) for rho, out in zip(letters, post)]  # rho_a (x) eta_f^a
    eps_if = [mixture(c, products) for c in cond.T]
    eps_i = [mixture(c, [rho.mat for rho in letters]) for c in cond.T]
    eps_f = [mixture(c, [out.mat for out in post]) for c in cond.T]
    tau_f = [mixture(fam.probs.probs[live], [mean[w].mat for w in live]) for fam in grid]
    eta_if = mixture(e.probs, products)
    gamma_if = mixture(p_f[live], [np.kron(x.mat, mean[w].mat) for x, w in zip(eps_i, live)])
    i_c = classical_mutual_info(joint)
    chi_joint = chi(joint.ravel(), [x for fam in grid for x in fam.states], eta_f)
    scalars = {
        "chi_initial": chi(e.probs, letters, eta_i),
        "chi_post": chi(e.probs, post, eta_f),
        "chi_out": chi(p_f, mean, eta_f),
        "chi_joint": chi_joint,
        "mean_chi_given_out": sum(chi(joint[:, w], [fam.states[w] for fam in grid], mean[w]) for w in live),
        "mean_chi_given_in": sum(chi(joint[a], grid[a].states, post[a]) for a in range(len(letters))),
        "classical_mi": i_c,
        # S(omega_AWB | omega_A x omega_W x eta_f) of the letter-outcome-output state
        "tripartite": i_c + chi_joint,
        "quantum_info_gain": quantum_info_gain(ins, eta_i),
        **dict.fromkeys(("tr2_eta_if_dev", "tr1_eta_if_dev", "tr2_gamma_dev", "tr1_gamma_dev", "tau_mix_dev"), 0.0),
        "chi_eps_if": chi(p_f[live], eps_if, eta_if),
        "chi_eps_i": chi(p_f[live], eps_i, eta_i),
        "chi_eps_f": chi(p_f[live], eps_f, eta_f),
        "chi_tau_f": chi(e.probs, tau_f, eta_f),
        "gamma_rel": q_rel_entropy(gamma_if, DensityMatrix(np.kron(eta_i.mat, eta_f.mat))),
    }

    if eta_i.spectral().eigenvalues[0] > INVERTIBILITY_TOL:
        dual = dual_ensemble(e, ins)
        q_f = dual.probs.probs[live]
        sigmas = [DensityMatrix(dual.states[w]) for w in live]
        reads = [live_letters_hall_read(e, dual.held[:, w], sigma) for w, sigma in zip(live, sigmas)]
        law = np.array([law_w for law_w, _ in reads]).T  # P_J(a | sigma_w)
        gains = np.array([gain for _, gain in reads])
        # Hall's chi is that of eta's own dual states, whose barycenter is eta:
        # the live letters' dual state shares their spectrum up to the null
        # cells' weight, but not their eigenvectors
        hall_duals = dual_states(e, np.ones((len(letters), len(live)), bool), ins.effects[live])
        scalars.update({
            "dual_law_dev": np.max(q_f * np.abs(law - cond)),
            "dual_classical_mi": classical_mutual_info(q_f * law),
            "chi_dual": chi(q_f, [DensityMatrix(sigma) for sigma in hall_duals], eta_i),
            "d_term": q_f @ gains,
            "dual_least_gain": gains.min(),
            "dual_eta_gain": quantum_info_gain(build_hall_instrument(e, eta_i), eta_i),
        })
    return scalars


def sequential_gl(ins: Instrument, trials: int, seed: int, n_demix: int) -> tuple:
    """The GL check one state at a time, and the purity class it samples:
    (class, rows), each row (name, lhs, rhs) in nats, in report order. The
    class holds iff no outcome takes any of ``trials`` random pure states to
    an output of purity below 1 - 1e-8; the gain trials (for that class
    only) and the demixtures draw on from the same generator, in the order
    ``infobounds.groenewold_lindblad_check`` draws. A demixture's I_c is that
    of its letters' ``a_posteriori`` laws."""
    rng = np.random.default_rng(seed)
    d1 = ins.dim_in
    min_purity = 1.0
    for _ in range(trials):
        rho = random_pure(d1, rng)
        for m in ins.maps:
            out = map_action(m, rho)
            tr = float(np.trace(out).real)
            if tr > 1e-12:
                min_purity = min(min_purity, float(np.trace(out @ out).real) / tr**2)
    purity_preserving = min_purity >= 1.0 - 1e-8
    rows = []
    if purity_preserving:
        gains = [quantum_info_gain(ins, random_density(d1, rng)) for _ in range(trials)]
        rows.append(("gl_info_gain_nonneg", 0.0, min(gains)))
    for _ in range(n_demix):
        e = random_ensemble(d1, int(rng.integers(2, 4)), rng)
        letters = [DensityMatrix(rho) for rho in e.states]
        joint = e.probs[:, None] * np.array([a_posteriori(ins, rho).probs.probs for rho in letters])
        lhs = classical_mutual_info(joint) + sum(p * quantum_info_gain(ins, rho) for p, rho in zip(e.probs, letters))
        rows.append(("gl_chain", lhs, quantum_info_gain(ins, a_priori_state(e))))
    return purity_preserving, rows


def _instrument(ins: Instrument, outcomes, kraus) -> Instrument:
    return Instrument(tuple(outcomes), tuple(KrausMap(ins.dim_in, ins.dim_out, k) for k in kraus))


def permute_outcomes(s, seed):
    ins = s.instrument
    order = np.roll(np.arange(len(ins.outcomes)), 1)
    ins = _instrument(ins, [ins.outcomes[w] for w in order], [ins.maps[w].kraus for w in order])
    return replace(s, instrument=ins)


def permute_letters(s, seed):
    e = s.ensemble
    order = np.roll(np.arange(len(e.letters)), 1)
    e = Ensemble(tuple(e.letters[a] for a in order), e.probs[order], e.states[order])
    return replace(s, ensemble=e)


def rotate_output(s, seed):
    """K -> V K for a unitary V on H2."""
    ins = s.instrument
    v = haar_unitary(ins.dim_out, np.random.default_rng(seed))
    return replace(s, instrument=_instrument(ins, ins.outcomes, [v @ m.kraus for m in ins.maps]))


def rotate_input(s, seed):
    """rho -> U rho U^dag and K -> K U^dag for a unitary U on H1."""
    e, ins = s.ensemble, s.instrument
    u = haar_unitary(e.dim, np.random.default_rng(seed))
    e = Ensemble(e.letters, e.probs, u @ e.states @ u.conj().T)
    ins = _instrument(ins, ins.outcomes, [m.kraus @ u.conj().T for m in ins.maps])
    return replace(s, ensemble=e, instrument=ins)


def split_outcome(s, seed):
    """Outcome 0's Kraus operators K become c K and s K, with c^2 + s^2 = 1."""
    ins = s.instrument
    theta = np.random.default_rng(seed).uniform(0.2, 1.4)
    kraus = [np.cos(theta) * ins.maps[0].kraus, *(m.kraus for m in ins.maps[1:]), np.sin(theta) * ins.maps[0].kraus]
    return replace(s, instrument=_instrument(ins, (*ins.outcomes, "split"), kraus))


def rebuild_kraus(s, seed):
    """Each outcome's Kraus operators refactored from its Choi matrix
    (``channel_roundtrip``), padded with a zero operator, and the first factor
    and the pad mixed by a seeded 2 x 2 unitary: the same channel, and other
    operators on every input, the basis slots' projectors too, which are
    their own Choi factors."""
    ins = channel_roundtrip(s.instrument)
    u = haar_unitary(2, np.random.default_rng(seed))
    kraus = [np.concatenate([u[0, 0] * m.kraus[:1], m.kraus[1:], u[1, 0] * m.kraus[:1]]) for m in ins.maps]
    ins = _instrument(ins, ins.outcomes, kraus)
    assert not np.array_equal(ins.kraus_stack, s.instrument.kraus_stack)
    return replace(s, instrument=ins)


# transform: (scenario, seed) -> a scenario of the same report, and whether it
# moves the gl_* rows: the random states of the Groenewold-Lindblad trials are
# drawn in a fixed basis of H1, so a rotation of H1 moves them
TRANSFORMS = {
    "permute_outcomes": (permute_outcomes, False),
    "permute_letters": (permute_letters, False),
    "rotate_output": (rotate_output, False),
    "rotate_input": (rotate_input, True),
    "split_outcome": (split_outcome, False),
    "rebuild_kraus": (rebuild_kraus, False),
}


def merged_outcomes(s, seed):
    ins = s.instrument
    return s.ensemble, merge_outcomes(ins, ins.outcomes[0], ins.outcomes[1])


def channel_after(s, seed):
    """The instrument followed by a random two-Kraus channel on H2: each Kraus
    operator K becomes the products C K, one per Kraus operator C of the channel."""
    ins = s.instrument
    c = random_instrument(ins.dim_out, ins.dim_out, 1, 2, seed=seed).maps[0].kraus
    return s.ensemble, _instrument(ins, ins.outcomes, [(c[:, None] @ m.kraus).reshape(-1, *m.kraus.shape[1:])
                                                       for m in ins.maps])


def merged_letters(s, seed):
    """Letters 0 and 1 merged into their mixture, at the sum of their priors."""
    e = s.ensemble
    p = e.probs[:2].sum()
    mix = np.einsum("a,aij->ij", e.probs[:2], e.states[:2]) / p
    e = Ensemble(("0+1", *e.letters[2:]), np.array([p, *e.probs[2:]]), np.concatenate([mix[None], e.states[2:]]))
    return e, s.instrument


def split_and_merged_back(s, seed):
    """An outcome split by a coin and merged back: a channel with an inverse,
    which puts two proportional Kraus operators in one outcome. (A unitary on
    H2 is another; ``rotate_output`` holds the whole report under it.)"""
    ins, c = s.instrument, 0.3
    kraus = (np.sqrt(c) * ins.maps[0].kraus, *(m.kraus for m in ins.maps[1:]), np.sqrt(1 - c) * ins.maps[0].kraus)
    return s.ensemble, merge_outcomes(_instrument(ins, (*ins.outcomes, "split"), kraus), ins.outcomes[0], "split")


# relation: (channel, panel entries that cannot rise, entries that stay, None
# for every entry); a channel takes (scenario, seed) to the (ensemble,
# instrument) after it. Merging two outcomes is a channel on the outcome
# register, after the instrument, and merging two letters one on the letter
# register, before it; mean chi given out has no order under the first and
# mean chi given in none under the second.
RELATIONS = {
    "merged_outcomes": (
        merged_outcomes,
        ("classical_mi", "chi_out", "chi_joint", "mean_chi_given_in", "tripartite"),
        ("chi_initial", "chi_post"),
    ),
    "channel_after": (
        channel_after,
        ("chi_post", "chi_out", "chi_joint", "mean_chi_given_in", "mean_chi_given_out", "tripartite"),
        ("chi_initial", "classical_mi"),
    ),
    "merged_letters": (
        merged_letters,
        ("chi_initial", "chi_post", "chi_joint", "mean_chi_given_out", "classical_mi", "tripartite"),
        ("chi_out",),
    ),
    "split_and_merged_back": (split_and_merged_back, (), None),
}
