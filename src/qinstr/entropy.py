"""Von Neumann entropy, relative entropies and chi-quantities.

All quantities are in nats; conversion to bits is a presentation concern
handled by the harness. Every chi is the mutual entropy of a family against
its own barycenter, and ``chi_against`` is the one function that evaluates
it, as an entropy difference from entropy vectors: finite in finite
dimension, with no support test. The relative entropies (``q_rel_entropy``,
``c_rel_entropy``, ``mixed_rel_entropy``) take arbitrary pairs, so they test
supports and return +inf (Python ``math.inf``) when one leaves the other; no
pipeline stage calls them.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, LabelMismatch
from .matcore import SUPPORT_CUTOFF
from .qstate import (
    ClassicalDist,
    DensityMatrix,
    density_eigvals,
    fidelity_like_support_check,
)

INF = math.inf


def _entropy(vals: np.ndarray) -> np.ndarray:
    """-sum l log l over the eigenvalues above SUPPORT_CUTOFF (last axis)."""
    return -np.sum(vals * np.log(np.where(vals > SUPPORT_CUTOFF, vals, 1.0)), axis=-1)


def vn_entropy(rho: DensityMatrix) -> float:
    return float(_entropy(rho.spectral().eigenvalues))


def vn_entropies(stack) -> np.ndarray:
    """vn_entropy of each state of an (n, d, d) stack, checked by density_eigvals."""
    return _entropy(density_eigvals(stack))


def q_rel_entropy(sigma: DensityMatrix, tau: DensityMatrix) -> float:
    """Tr{sigma (log sigma - log tau)}, +inf when supp(sigma) leaves supp(tau).

    Evaluated through both spectral decompositions:
    sum_j l_j log l_j - sum_{jk} l_j |<u_j|v_k>|^2 log m_k,
    exact on the supports without forming log of a matrix difference.
    """
    if sigma.dim != tau.dim:
        raise DimensionMismatch(f"dims {sigma.dim} and {tau.dim} differ")
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
        raise LabelMismatch("distributions live on different label sets")
    total = 0.0
    for pj, qj in zip(p.probs, q.probs):
        if pj <= SUPPORT_CUTOFF:
            continue
        if qj <= SUPPORT_CUTOFF:
            return INF
        total += pj * math.log(pj / qj)
    return total


def mutual_info(joint: np.ndarray, p_row: np.ndarray, p_col: np.ndarray) -> np.ndarray:
    """S_c(P_if | P_i x P_f) of a joint table [row, col] and its marginals;
    tables stacked on leading axes give one each.

    Only p > 0 cells count: p <= min(P_i, P_f) keeps every term finite.
    """
    live = joint > 0.0
    rows = np.where(live, p_row[..., :, None], 1.0)
    cols = np.where(live, p_col[..., None, :], 1.0)
    p = np.where(live, joint, 1.0)
    total = np.sum(np.where(live, p * (np.log(p) - np.log(rows) - np.log(cols)), 0.0), axis=(-2, -1))
    return np.maximum(total, 0.0)


def mixed_rel_entropy(
    f1: tuple[ClassicalDist, Sequence[DensityMatrix]],
    f2: tuple[ClassicalDist, Sequence[DensityMatrix]],
) -> float:
    """Relative entropy of two classical/quantum families:
    S_c(P1|P2) + sum_w P1(w) S_q(s1(w)|s2(w))."""
    p1, states1 = f1
    p2, states2 = f2
    if p1.labels != p2.labels:
        raise LabelMismatch("families live on different label sets")
    if len(states1) != len(p1.labels) or len(states2) != len(p2.labels):
        raise LabelMismatch("state count does not match label count")
    dims = {s.dim for s in list(states1) + list(states2)}
    if len(dims) != 1:
        raise DimensionMismatch(f"states have inconsistent dims {dims}")
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


def weighted_sum(weights, values) -> np.ndarray:
    """sum_b w_b values_b over the members of weight > SUPPORT_CUTOFF; the last
    axis indexes the members, leading axes broadcast."""
    w = np.asarray(weights, dtype=np.float64)
    return np.sum(np.where(w > SUPPORT_CUTOFF, w * values, 0.0), axis=-1)


def chi_against(weights, entropies, barycenter_entropy) -> np.ndarray:
    """chi{w, members} = sum_b w_b S_q(member_b | barycenter), evaluated as
    S(barycenter) - sum_b w_b S(member_b) from the members' entropies.

    Holds only when barycenter = sum_b w_b member_b (up to rounding): then
    every member's support lies in the barycenter's, the relative-entropy form
    is finite, and the two forms agree. Members of weight <= SUPPORT_CUTOFF
    are skipped. Families stacked on leading axes give one chi each.
    """
    return barycenter_entropy - weighted_sum(weights, entropies)
