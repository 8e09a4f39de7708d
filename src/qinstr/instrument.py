"""Completely positive instruments in Kraus form: channel action, POV measure,
a posteriori states and seeded random generation.

A ``KrausMap`` holds its Kraus operators, as given, in one read-only
[k, d2, d1] array, checked once. An ``Instrument`` is built once, to its
contract: the effect-sum rule (sum_w E(w) = I within POVM_SUM_TOL) is
checked at construction, and the deviation it measures right-normalizes the
Kraus stack, from which the POV measure E(w) = sum_k K_k^dag K_k and the
channel matrix are built there, so no stage reads the slack the rule allows.
The analysis applies an instrument to stacks through
``Instrument.channel_matrix``; ``_posteriors`` holds the a posteriori rule
and the one null decision, at NULL_TRACE, on the rounding's scale; the
outcome law the pipeline reads is ``analyze``'s P_f, from the same channel.
The per-state forms the tests check them against, one map's action and
``outcome_probs`` among them, are test code (``tests/oracle.py``)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matcore
from .errors import NoConvergence, QinstrError
from .matcore import SUPPORT_CUTOFF

POVM_SUM_TOL = 1e-9  # sum of an instrument's effects against the identity
# a cell of trace <= NULL_TRACE is null. With unit-trace letters and effects
# summing to I, rounding leaves an exactly null cell within 1 eps (<= 1.8e-16
# after a unitary on H1, d <= 5): a 64-fold margin, with no norm or dimension factor
NULL_TRACE = 64 * np.finfo(np.float64).eps  # 1.42e-14


@dataclass(frozen=True, eq=False)
class KrausMap:
    """Completely positive map rho -> sum_k K_k rho K_k^dag, H1 -> H2.

    ``kraus`` (a stack or a sequence of matrices) is kept as one read-only
    [k, d2, d1] complex array, checked once for its shape and for finite
    entries."""

    dim_in: int
    dim_out: int
    kraus: np.ndarray

    def __post_init__(self):
        try:
            kraus = np.array(self.kraus, dtype=np.complex128)
        except ValueError as exc:  # operators of different shapes
            raise QinstrError(f"Kraus operators do not form one array: {exc}") from exc
        if not kraus.size:
            raise QinstrError("a Kraus map needs at least one Kraus operator")
        if kraus.shape[1:] != (self.dim_out, self.dim_in):
            raise QinstrError(
                f"Kraus operators stacked as {kraus.shape}, expected (k, {self.dim_out}, {self.dim_in})"
            )
        if not np.isfinite(kraus).all():
            raise QinstrError("Kraus operators contain NaN/Inf entries")
        kraus.setflags(write=False)
        object.__setattr__(self, "kraus", kraus)


@dataclass(frozen=True, eq=False)
class Instrument:
    """Outcome-indexed family of Kraus maps, jointly trace-preserving.

    ``maps`` keep the operators as given, which the scenario file writes and
    its fingerprint hashes. The rule measures D = sum_w E(w) - I on them once;
    every stage reads the read-only fields built from that D: ``kraus_stack``
    [outcome, k, d2, d1], the operators right-normalized K -> K (I - D/2),
    whose effects sum to I + O(D^2), zero-padded to one width (a zero
    operator changes neither action nor effect); ``effects`` [outcome, d1, d1],
    its POV measure; and ``channel_matrix``, the stack as one channel."""

    outcomes: tuple
    maps: tuple
    kraus_stack: np.ndarray = field(init=False, repr=False)
    effects: np.ndarray = field(init=False, repr=False)
    channel_matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        outcomes = tuple(self.outcomes)
        maps = tuple(self.maps)
        if len(outcomes) != len(maps) or not maps:
            raise QinstrError("need one Kraus map per outcome")
        if any(outcomes.index(o) != i for i, o in enumerate(outcomes)):
            raise QinstrError(f"duplicate outcome labels in {outcomes!r}")
        d1, d2 = maps[0].dim_in, maps[0].dim_out
        if any(m.dim_in != d1 or m.dim_out != d2 for m in maps):
            raise QinstrError("Kraus maps have inconsistent dimensions")
        stack = np.zeros((len(maps), max(len(m.kraus) for m in maps), d2, d1), dtype=np.complex128)
        for w, m in enumerate(maps):
            stack[w, :len(m.kraus)] = m.kraus
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the rule below
            v = stack.reshape(-1, d1)  # every Kraus operator stacked by rows
            dev = v.conj().T @ v - np.eye(d1)
            worst = np.abs(dev).max()
        if not worst <= POVM_SUM_TOL:  # NaN fails too
            raise QinstrError(f"sum of effects deviates from identity by {worst:.3e}")
        stack = stack @ (np.eye(d1) - 0.5 * dev)
        # E(w) = sum_k K_k^dag K_k = V^dag V, V = [K_1; K_2; ...] the outcome's operators stacked by rows
        v = stack.reshape(len(maps), -1, d1)
        effects = v.conj().swapaxes(-1, -2) @ v
        # row-major vec(rho) -> the stacked vec(I_w(rho)), d2*d2 rows per outcome
        channel = matcore.kron(stack, stack.conj()).sum(axis=1).reshape(-1, d1 * d1)
        for name, value in (("outcomes", outcomes), ("maps", maps), ("kraus_stack", stack),
                            ("effects", effects), ("channel_matrix", channel)):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def dim_in(self) -> int:
        return self.maps[0].dim_in

    @property
    def dim_out(self) -> int:
        return self.maps[0].dim_out


def _apply_to_stack(ins: Instrument, rhos: np.ndarray) -> np.ndarray:
    """Unnormalized outputs [outcome, n] of every map on an (n, d1, d1) stack,
    written contiguous by one batched product with the channel matrix."""
    n, d1, d2 = len(rhos), ins.dim_in, ins.dim_out
    blocks = ins.channel_matrix.reshape(len(ins.maps), d2 * d2, d1 * d1).swapaxes(-1, -2)
    return (np.reshape(rhos, (n, d1 * d1)) @ blocks).reshape(len(ins.maps), n, d2, d2)


def _posteriors(outs: np.ndarray) -> tuple:
    """Probabilities (normalized over the outcome axis 0) and normalized states
    of unnormalized outputs, by the pipeline's only null rule: a cell is live
    iff its trace is > NULL_TRACE, and a null cell gets probability and
    state exactly 0, as a null outcome's block I_w(rho) is 0; every other stage
    reads nullness off those exact zeros. A live cell's state is its output
    divided by its trace, Hermitian to rounding, as eta_f^a and eta_f are:
    every reader of it is ``eigvalsh``, which reads one triangle, or a row
    judged at its tolerance."""
    tr = np.einsum("...ii->...", outs).real
    live = tr > NULL_TRACE
    states = np.divide(outs, tr[..., None, None], out=np.zeros_like(outs), where=live[..., None, None])
    probs = np.where(live, tr, 0.0)
    return probs / probs.sum(axis=0), states


def random_instrument(
    d1: int, d2: int, n_outcomes: int, kraus_per_outcome: int, seed: int
) -> Instrument:
    """Ginibre-drawn Kraus operators, right-normalized by S^{-1/2}."""
    if min(d1, d2, n_outcomes, kraus_per_outcome) < 1:
        raise QinstrError("all dimensions and counts must be positive")
    rng = np.random.default_rng(seed)
    # each operator draws its real part, then its imaginary part
    draw = rng.standard_normal((n_outcomes, kraus_per_outcome, 2, d2, d1))
    raw = (draw[:, :, 0] + 1j * draw[:, :, 1]) / np.sqrt(2.0)
    s = (raw.conj().swapaxes(-1, -2) @ raw).reshape(-1, d1, d1).sum(axis=0)
    # jacobi_eig, not herm_eig: its rounding sets the generated Kraus
    # operators' last digits, which scenario fingerprints hash
    spec = matcore.jacobi_eig(s)
    if spec.eigenvalues[0] < SUPPORT_CUTOFF:
        raise NoConvergence(f"normalizer eigenvalue {spec.eigenvalues[0]:.3e} too small")
    s_inv_sqrt = matcore.spectral_apply(spec, lambda x: x ** -0.5)
    maps = tuple(KrausMap(d1, d2, group) for group in raw @ s_inv_sqrt)
    return Instrument(tuple(range(n_outcomes)), maps)

