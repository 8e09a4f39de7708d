"""Density matrices, POVMs, classical distributions and letter-state ensembles."""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import matcore
from .errors import BadTrace, DimensionMismatch, LabelMismatch, NotHermitian, NotPositive
from .matcore import HERM_TOL

POVM_SUM_TOL = 1e-9  # sum of effects against the identity, POVM or instrument
PROB_TOL = 1e-12


@dataclass(frozen=True)
class DensityMatrix:
    """Positive semidefinite unit-trace Hermitian matrix.

    The spectral decomposition is computed once at construction (it doubles as
    the positivity check) and cached for entropy evaluations. A caller that
    already holds ``herm_eig(mat)`` passes it as ``spectrum`` so it is not
    computed twice; the checks still run on it.
    """

    mat: np.ndarray
    spectrum: InitVar[Optional[matcore.SpectralDecomp]] = field(default=None, kw_only=True)
    _spec: matcore.SpectralDecomp = field(init=False, repr=False, compare=False)

    def __post_init__(self, spectrum):
        mat = matcore.as_matrix(self.mat)
        matcore.check_hermitian(mat)
        mat = np.ascontiguousarray(0.5 * (mat + mat.conj().T))
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)
        tr = float(np.trace(mat).real)
        if abs(tr - 1.0) > HERM_TOL:
            raise BadTrace(f"trace {tr} differs from 1 by more than {HERM_TOL:.1e}")
        spec = matcore.herm_eig(mat) if spectrum is None else spectrum
        if spec.eigenvalues[0] < -HERM_TOL:
            raise NotPositive(f"minimum eigenvalue {spec.eigenvalues[0]:.3e} below -{HERM_TOL:.1e}")
        object.__setattr__(self, "_spec", spec)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def spectral(self) -> matcore.SpectralDecomp:
        return self._spec

    def purity(self) -> float:
        return float(np.trace(self.mat @ self.mat).real)


def validate_density(m, *, eig=None) -> DensityMatrix:
    """Check/repair a candidate density matrix.

    Eigenvalues in (-HERM_TOL, 0) are clamped to 0 and the trace renormalized;
    anything more negative is a hard error. Without clamping, the decomposition
    made here is the one the returned state keeps. ``eig`` is the eigensolver
    (``matcore.herm_eig`` when None).
    """
    m = matcore.as_matrix(m)
    matcore.check_hermitian(m)
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > HERM_TOL:
        raise BadTrace(f"trace {tr} differs from 1 by more than {HERM_TOL:.1e}")
    spec = (matcore.herm_eig if eig is None else eig)(m)
    vals, vecs = spec
    if vals[0] < -HERM_TOL:
        raise NotPositive(f"minimum eigenvalue {vals[0]:.3e} below -{HERM_TOL:.1e}")
    if vals[0] < 0.0:
        vals = np.maximum(vals, 0.0)
        vals = vals / vals.sum()
        return DensityMatrix((vecs * vals) @ vecs.conj().T)
    return DensityMatrix(m, spectrum=spec)


def density_eigvals(stack) -> np.ndarray:
    """Eigenvalues (ascending) of each matrix of an (n, d, d) stack, with
    validate_density's checks and clamping, from one batched ``eigvalsh``."""
    a = np.asarray(stack, dtype=np.complex128)
    if not np.all(np.isfinite(a)):
        raise NotHermitian("stack contains NaN/Inf entries")
    adj = a.conj().swapaxes(-1, -2)
    dev = float(np.max(np.abs(a - adj), initial=0.0))
    if dev > HERM_TOL:
        raise NotHermitian(f"Hermiticity deviation {dev:.3e} exceeds {HERM_TOL:.1e}")
    tr = np.trace(a, axis1=-2, axis2=-1).real
    worst = float(np.max(np.abs(tr - 1.0), initial=0.0))
    if worst > HERM_TOL:
        raise BadTrace(f"trace differs from 1 by {worst:.3e}, more than {HERM_TOL:.1e}")
    vals = np.linalg.eigvalsh(0.5 * (a + adj))
    low = float(np.min(vals, initial=0.0))
    if low < -HERM_TOL:
        raise NotPositive(f"minimum eigenvalue {low:.3e} below -{HERM_TOL:.1e}")
    clamp = vals[:, 0] < 0.0
    if np.any(clamp):
        fixed = np.maximum(vals[clamp], 0.0)
        vals[clamp] = fixed / fixed.sum(axis=-1, keepdims=True)
    return vals


@dataclass(frozen=True)
class ClassicalDist:
    """Probability distribution over a finite label set."""

    labels: tuple
    probs: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or len(labels) != probs.shape[0]:
            raise LabelMismatch("labels and probabilities differ in length")
        if np.any(probs < -PROB_TOL):
            raise NotPositive(f"negative probability {probs.min():.3e}")
        probs = np.maximum(probs, 0.0)
        if abs(probs.sum() - 1.0) > HERM_TOL:
            raise BadTrace(f"probabilities sum to {probs.sum()}, not 1")
        probs = probs / probs.sum()
        probs.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", probs)

    def __getitem__(self, label) -> float:
        return float(self.probs[self.labels.index(label)])


@dataclass(frozen=True)
class Povm:
    """Positive effects summing to the identity."""

    outcomes: tuple
    effects: tuple

    def __post_init__(self):
        outcomes = tuple(self.outcomes)
        effects = tuple(matcore.as_matrix(e) for e in self.effects)
        if len(outcomes) != len(effects):
            raise LabelMismatch("outcomes and effects differ in length")
        dims = {e.shape for e in effects}
        if len(dims) != 1:
            raise DimensionMismatch(f"effects have inconsistent shapes {dims}")
        for label, e in zip(outcomes, effects):
            vals, _ = matcore.herm_eig(e)
            if vals[0] < -HERM_TOL:
                raise NotPositive(f"effect {label!r} has eigenvalue {vals[0]:.3e}")
        total = sum(effects)
        dev = np.max(np.abs(total - np.eye(total.shape[0])))
        if dev > POVM_SUM_TOL:
            raise BadTrace(f"effects sum deviates from identity by {dev:.3e}")
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "effects", effects)

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]


@dataclass(frozen=True)
class Ensemble:
    """Finite alphabet with strictly positive probabilities and one state per letter."""

    letters: tuple
    probs: np.ndarray
    states: tuple

    def __post_init__(self):
        letters = tuple(self.letters)
        probs = np.asarray(self.probs, dtype=np.float64)
        states = tuple(self.states)
        if probs.shape != (len(letters),) or len(states) != len(letters):
            raise LabelMismatch("letters, probs and states differ in length")
        if any(letters.index(a) != i for i, a in enumerate(letters)):
            raise LabelMismatch(f"duplicate letter labels in {letters!r}")
        if not np.all(probs > 0.0):  # NaN fails too
            raise NotPositive("letter probabilities must be strictly positive")
        if abs(probs.sum() - 1.0) > PROB_TOL:
            raise BadTrace(f"letter probabilities sum to {probs.sum()}, not 1")
        dims = {s.dim for s in states}
        if len(dims) != 1:
            raise DimensionMismatch(f"letter states have inconsistent dims {dims}")
        probs = probs.copy()
        probs.setflags(write=False)
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "states", states)

    @property
    def dim(self) -> int:
        return self.states[0].dim

    def prior(self) -> ClassicalDist:
        return ClassicalDist(self.letters, self.probs)


def a_priori_state(e: Ensemble) -> DensityMatrix:
    """Barycenter of the ensemble."""
    mix = sum(p * s.mat for p, s in zip(e.probs, e.states))
    return validate_density(mix)


def fidelity_like_support_check(sigma: DensityMatrix, tau: DensityMatrix) -> bool:
    """True iff supp(sigma) is contained in supp(tau)."""
    if sigma.dim != tau.dim:
        raise DimensionMismatch(f"dims {sigma.dim} and {tau.dim} differ")
    vals, vecs = tau.spectral()
    keep = vals <= matcore.SUPPORT_CUTOFF
    if not np.any(keep):
        return True
    comp = vecs[:, keep]  # columns spanning the kernel of tau
    block = comp.conj().T @ sigma.mat @ comp
    return float(np.max(np.abs(block))) <= matcore.SUPPORT_CUTOFF


def pure_state(vec: Sequence[complex]) -> DensityMatrix:
    """Density matrix of a (normalized) ket."""
    v = np.asarray(vec, dtype=np.complex128)
    v = v / np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))


def maximally_mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(np.eye(dim, dtype=np.complex128) / dim)


def ensemble_to_json(e: Ensemble) -> dict:
    return {
        "letters": list(e.letters),
        "probs": [float(p) for p in e.probs],
        "states": [matcore.matrix_to_json(s.mat) for s in e.states],
    }


def density_from_json(rows: list) -> DensityMatrix:
    """A state read from JSON, decomposed by ``matcore.herm_eig``.

    A state whose least eigenvalue is <= HERM_TOL is validated with
    ``matcore.jacobi_eig`` instead: a clamp repair rebuilds the matrix from the
    eigendecomposition, and scenario fingerprints hash the repaired matrix, so
    its digits must not depend on the solver that serves the analysis. Above
    HERM_TOL neither solver clamps (Jacobi's eigenvalues of a state are good to
    ~1e-13), and both keep the symmetrized input. Every check of
    ``validate_density`` runs on either path.
    """
    m = matcore.matrix_from_json(rows)
    spec = matcore.herm_eig(m)
    if spec.eigenvalues[0] > HERM_TOL:
        return DensityMatrix(m, spectrum=spec)
    return validate_density(m, eig=matcore.jacobi_eig)


def ensemble_from_json(obj: dict) -> Ensemble:
    states = tuple(density_from_json(m) for m in obj["states"])
    return Ensemble(tuple(obj["letters"]), np.array(obj["probs"], dtype=float), states)
