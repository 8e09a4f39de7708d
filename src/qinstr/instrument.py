"""Completely positive instruments in Kraus form: channel action, POV measure,
a posteriori states and seeded random generation.

A ``KrausMap`` holds its Kraus operators as one read-only [k, d2, d1] array,
checked once; the effects and the channel matrix are array operations on
it. An instrument's POV measure is the dual action of its maps on the
identity, E(w) = sum_k K_k^dag K_k, held once as
``Instrument.effects``; the effect-sum rule (sum_w E(w) = 1 within
POVM_SUM_TOL) is checked there, at construction. The analysis applies an
instrument to stacks through ``Instrument.channel_matrix``, and
``_posteriors`` holds the a posteriori rule and the one null decision; the
outcome law the pipeline reads is ``analyze``'s P_f, from the same channel.
The per-state forms the tests check them against, one map's action and
``outcome_probs`` among them, live in ``reference``."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import matcore
from .errors import NoConvergence, QinstrError
from .matcore import SUPPORT_CUTOFF

POVM_SUM_TOL = 1e-9  # sum of an instrument's effects against the identity


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
    """Outcome-indexed family of Kraus maps, jointly trace-preserving."""

    outcomes: tuple
    maps: tuple

    def __post_init__(self):
        outcomes = tuple(self.outcomes)
        maps = tuple(self.maps)
        if len(outcomes) != len(maps) or not maps:
            raise QinstrError("need one Kraus map per outcome")
        if any(outcomes.index(o) != i for i, o in enumerate(outcomes)):
            raise QinstrError(f"duplicate outcome labels in {outcomes!r}")
        d1 = maps[0].dim_in
        d2 = maps[0].dim_out
        if any(m.dim_in != d1 or m.dim_out != d2 for m in maps):
            raise QinstrError("Kraus maps have inconsistent dimensions")
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "maps", maps)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the rule below
            dev = np.abs(self.effects.sum(axis=0) - np.eye(d1)).max()
        if not dev <= POVM_SUM_TOL:  # NaN fails too
            raise QinstrError(f"sum of effects deviates from identity by {dev:.3e}")

    @property
    def dim_in(self) -> int:
        return self.maps[0].dim_in

    @property
    def dim_out(self) -> int:
        return self.maps[0].dim_out

    @cached_property
    def effects(self) -> np.ndarray:
        """The POV measure [outcome, d1, d1]: E(w) = sum_k K_k^dag K_k = V^dag V,
        with V = [K_1; K_2; ...] the outcome's (zero-padded) Kraus operators stacked by rows."""
        v = self.kraus_stack.reshape(len(self.maps), -1, self.dim_in)
        effects = v.conj().swapaxes(-1, -2) @ v
        effects.setflags(write=False)
        return effects

    @cached_property
    def kraus_stack(self) -> np.ndarray:
        """The Kraus operators [outcome, k, d2, d1]. An outcome with fewer
        operators than the most is padded with zero operators, which change
        neither its action nor its effect."""
        width = max(len(m.kraus) for m in self.maps)
        stack = np.zeros((len(self.maps), width, self.dim_out, self.dim_in), dtype=np.complex128)
        for w, m in enumerate(self.maps):
            stack[w, :len(m.kraus)] = m.kraus
        stack.setflags(write=False)
        return stack

    @cached_property
    def channel_matrix(self) -> np.ndarray:
        """The instrument as one channel rho -> (+)_w I_w(rho): the matrix
        (outcome-major, d2*d2 rows per outcome, by d1*d1) that takes the
        row-major vec(rho) to the stacked vec(I_w(rho)), sum_k K_k (x) conj(K_k)
        per outcome from one kron over the Kraus stack."""
        k = self.kraus_stack
        return matcore.kron(k, k.conj()).sum(axis=1).reshape(-1, self.dim_in * self.dim_in)


def _apply_to_stack(ins: Instrument, rhos: np.ndarray) -> np.ndarray:
    """Unnormalized outputs [outcome, n] of every map on an (n, d1, d1) stack,
    from one product with the instrument's channel matrix."""
    n, d1, d2 = len(rhos), ins.dim_in, ins.dim_out
    outs = np.reshape(rhos, (n, d1 * d1)) @ ins.channel_matrix.T
    return outs.reshape(n, len(ins.maps), d2, d2).swapaxes(0, 1)


def a_posteriori_stack(ins: Instrument, rhos: np.ndarray) -> tuple:
    """The a posteriori family of each state of an (n, d1, d1) stack: outcome
    probabilities and conditional states, both indexed [outcome, n]. The states are not
    validated here."""
    return _posteriors(_apply_to_stack(ins, rhos))


def _posteriors(outs: np.ndarray) -> tuple:
    """Probabilities (normalized over the outcome axis 0) and normalized states
    of unnormalized outputs, by the pipeline's only null rule: a cell is live
    iff its trace is > SUPPORT_CUTOFF, and a null cell gets probability exactly
    0 and the fixed fill I/d2. Every other stage reads nullness off those exact
    zeros, so the fill reaches no number. A live cell's state is the Hermitian
    part of its output divided by its trace, so it is exactly Hermitian, as a
    state is, however close its trace is to SUPPORT_CUTOFF."""
    fill = np.eye(outs.shape[-1]) / outs.shape[-1]
    outs = 0.5 * (outs + outs.conj().swapaxes(-1, -2))
    tr = outs.trace(axis1=-2, axis2=-1).real
    live = tr > SUPPORT_CUTOFF
    states = np.where(live[..., None, None], outs / np.where(live, tr, 1.0)[..., None, None], fill)
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

