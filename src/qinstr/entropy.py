"""Von Neumann entropy, mutual information and chi-quantities.

All quantities are in nats; conversion to bits is a presentation concern
handled by the harness. Every chi is the mutual entropy of a family against
its own barycenter, and ``chi_against`` is the one function that evaluates
it, as an entropy difference from entropy vectors: finite in finite
dimension, with no support test. The states it reads are derived, states by
construction, and so plain arrays: the rules of a state serve inputs only
(``qstate``). The relative entropies, which take arbitrary pairs and test
supports, and the entropy of one oracle state (``vn_entropy``) are test
code, in ``tests/oracle.py``.
"""

from __future__ import annotations

import numpy as np

from . import matcore
from .errors import NoConvergence


def _entropy(vals: np.ndarray) -> np.ndarray:
    """-sum l log l over every eigenvalue l > 0 (last axis): l log l -> 0 as
    l -> 0, so an entropy needs no support rule."""
    return -(vals * np.log(np.where(vals > 0.0, vals, 1.0))).sum(axis=-1)


def vn_entropies(stack) -> np.ndarray:
    """The von Neumann entropy of each derived state (a state by construction,
    ``qstate``) of an (n, d, d) stack, from one ``matcore.eigvalsh`` call
    (a closed form at d = 2 and on a large 3 x 3 stack, LAPACK elsewhere); a
    non-finite one raises NoConvergence."""
    s = _entropy(matcore.eigvalsh(stack))
    if not np.isfinite(s).all():
        raise NoConvergence("von Neumann entropy of a derived state is not finite")
    return s


def mutual_info(joint: np.ndarray) -> np.ndarray:
    """S_c(P_if | P_i x P_f) of a joint law [row, col] against the product of
    its own marginals; laws stacked on leading axes give one each.

    Only p > 0 cells count, finite as p <= min(P_i, P_f); a p = 0 cell reads 1 log 1 = 0.
    """
    live = joint > 0.0
    rows = np.where(live, joint.sum(axis=-1, keepdims=True), 1.0)
    cols = np.where(live, joint.sum(axis=-2, keepdims=True), 1.0)
    p = np.where(live, joint, 1.0)
    total = (p * (np.log(p) - np.log(rows) - np.log(cols))).sum(axis=(-2, -1))
    return np.maximum(total, 0.0)


def weighted_sum(weights, values) -> np.ndarray:
    """sum_b w_b values_b; the last axis indexes the members, leading axes
    broadcast. A null member weighs exactly 0 (``instrument._posteriors``)."""
    return (np.asarray(weights, dtype=np.float64) * values).sum(axis=-1)


def chi_against(weights, entropies, barycenter_entropy) -> np.ndarray:
    """chi{w, members} = sum_b w_b S_q(member_b | barycenter), evaluated as
    S(barycenter) - sum_b w_b S(member_b) from the members' entropies.

    Holds only when barycenter = sum_b w_b member_b (up to rounding): then
    every member's support lies in the barycenter's, the relative-entropy form
    is finite, and the two forms agree. Families stacked on leading axes give
    one chi each.
    """
    return barycenter_entropy - weighted_sum(weights, entropies)
