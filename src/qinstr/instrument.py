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
Ozawa's purity class is a property of that channel alone,
``Instrument.purity_preserving``, read off the Kraus stack on first read, by
the same SVD pass as ``Instrument.pure_outputs``, the [outcome] mask of the
outcomes whose operators share one rank-one range to rounding (second
singular value of [K_1 | K_2 | ...] at most NULL_TRACE times its first), so
that every output of the outcome is one pure state or 0, of entropy exactly 0;
the purity of each outcome's output of the identity, which needs no SVD,
rules outcomes out of the mask first (PURE_PRETEST). The per-state forms
the tests check them against, one map's action and ``outcome_probs`` among
them, are test code (``tests/oracle.py``)."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import matcore
from .errors import NoConvergence, QinstrError
from .matcore import SUPPORT_CUTOFF

POVM_SUM_TOL = 1e-9  # sum of an instrument's effects against the identity
# a cell of trace <= NULL_TRACE is null. With unit-trace letters and effects
# summing to I, rounding leaves an exactly null cell within 1 eps (<= 1.8e-16
# after a unitary on H1, d <= 5): a 64-fold margin, with no norm or dimension factor
NULL_TRACE = 64 * np.finfo(np.float64).eps  # 1.42e-14
# The pure-output mask reads it as a relative second singular value, of the
# same rounding: operators with one common range read a few eps (<= 1.5 eps
# over 400 Haar-drawn measure-and-prepare outcomes at d = 3, exactly 0 on a
# projector)
# An outcome's output of the identity, M = sum_k K_k K_k^dag, has purity
# tr(M^2) / tr(M)^2 = 1 - 2 (s2 / s1)^2 + ...: inside the mask its deficit is
# below 1e-27, under the rounding of the purity itself (a few eps), so a
# deficit above PURE_PRETEST puts an outcome outside the mask (s2 / s1 > 1e-7)
# with no SVD, and the mask takes one only when some outcome passes
PURE_PRETEST = 1e-12
# The class gates gl_info_gain_nonneg, judged at INEQ_TOL. An outcome of
# relative second singular value r takes a pure state to a gain of about
# -r**2 ln(1 / r**2); at r <= 3e-6 the least over near-rank-one Ginibre
# instruments (d = 2, 3) was -3.3e-10, above -INEQ_TOL / 10.
RANK_ONE_TOL = 3e-6


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

    @cached_property
    def purity_preserving(self) -> bool:
        """Whether the instrument takes every pure state to a pure state or to 0,
        outcome by outcome: Ozawa's exact class (J. Math. Phys. 27, 759, 1986),
        computed on first read and kept (``_purity``)."""
        return self._purity[0]

    @cached_property
    def pure_outputs(self) -> np.ndarray:
        """The read-only [outcome] mask of the outcomes whose every output is one
        pure state or 0 (measure-and-prepare), so of entropy exactly 0, which
        the entropy readers take without a spectrum: [K_1 | K_2 | ...] has
        rank <= 1 to rounding. Computed on first read and kept (``_purity``)."""
        return self._purity[1]

    @cached_property
    def _purity(self) -> tuple:
        """The purity class and the pure-output mask, from one pass of at most
        two SVDs of the Kraus stack.

        An outcome preserves purity iff its Kraus operators are all proportional
        to one operator (the stacked vec(K_k) have rank <= 1), or they all share
        one rank-1 range (measure-and-prepare: [K_1 | K_2 | ...] has rank <= 1),
        each at RANK_ONE_TOL. The class tests the common range only when some
        outcome's operators are not proportional. The mask reads the same
        singular values at NULL_TRACE, not at RANK_ONE_TOL (an outcome of
        relative second singular value r = 1.4e-6 is in the class, but its
        outputs have entropy ~r**2 ln(1 / r**2) = 5e-11, far above rounding),
        and needs them only when some outcome's output of the identity is pure
        within PURE_PRETEST. So an instrument of one generic Kraus operator
        per outcome takes no SVD, and the mask adds at most one to the class's.
        The zero operators that pad ``kraus_stack`` change neither rank, and the
        stack's right-normalization by the invertible I - D/2 keeps both rank
        answers.
        """
        kraus = self.kraus_stack
        n_o, width, d2, d1 = kraus.shape
        proportional, = _rank_one(kraus.reshape(n_o, width, d2 * d1), RANK_ONE_TOL)
        ranges = kraus.swapaxes(1, 2).reshape(n_o, d2, width * d1)  # [K_1 | K_2 | ...]
        if proportional.all():
            # the output of the identity, R R^dag; a lone operator's effect
            # K^dag K, kept, has the spectrum of K K^dag
            m = self.effects if width == 1 else ranges @ ranges.conj().swapaxes(1, 2)
            tr = m.reshape(n_o, -1)[:, ::m.shape[-1] + 1].real.sum(axis=1)
            if not ((np.abs(m) ** 2).sum(axis=(1, 2)) >= (1.0 - PURE_PRETEST) * tr ** 2).any():
                pure = np.zeros(n_o, dtype=bool)
                pure.setflags(write=False)
                return True, pure
        one_range, pure = _rank_one(ranges, RANK_ONE_TOL, NULL_TRACE)
        pure.setflags(write=False)
        return bool((proportional | one_range).all()), pure


def _rank_one(a: np.ndarray, *tols: float) -> tuple:
    """For each tolerance, whether each matrix of a stack has rank <= 1 at it
    (a zero matrix has): its second singular value is at most tol times its
    first. One SVD serves every tolerance."""
    if min(a.shape[-2:]) < 2:
        return tuple(np.ones(len(a), dtype=bool) for _ in tols)
    s = matcore.lapack(np.linalg.svd, a, compute_uv=False)
    return tuple(s[:, 1] <= tol * s[:, 0] for tol in tols)


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
    every reader of it is ``matcore.eigvalsh``, which reads the lower
    triangle and the real diagonal, or a row judged at its tolerance."""
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

