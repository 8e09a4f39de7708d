"""Letter-state ensembles and the rules of a state, which serve inputs only.

States enter as arrays (``pure_state`` gives a ket's). Inputs are checked
against their definitions once and kept as given, never repaired. The rules of
a state live in one function, ``_checked``: the Hermiticity rule
(``matcore.hermitian_part``), unit trace and positivity, the last read off the
one batched decomposition (``matcore.herm_eig``) of the stack it checks, which
is each letter's one spectrum. ``Ensemble`` applies it, and so does
``DensityMatrix``, the state type of the oracles in ``qinstr.reference``,
which no pipeline path builds. Everything the pipeline derives from checked
inputs (I_w(rho) / tr, the a priori state, P_f) is a state or a law by
construction and stays a plain array, never checked again. The one repair is
ingest's rule (``_clamped``), which the scenario file's reader
(``harness.ensemble_from_json``) applies: a valid letter read from JSON whose
Jacobi least eigenvalue is negative is clamped, because scenario fingerprints
hash the digits that clamp has always produced. An instrument's POV measure lives
on the instrument (``instrument.Instrument.effects``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import matcore
from .errors import QinstrError
from .matcore import HERM_TOL

PROB_TOL = 1e-12


def _checked(states) -> tuple:
    """The rules of a state, on a [n, d, d] stack of candidate states: each is
    Hermitian (``matcore.hermitian_part``, the one Hermiticity rule), of unit
    trace within HERM_TOL and, by its one decomposition (``matcore.herm_eig``,
    batched), of least eigenvalue >= -HERM_TOL (NaN fails). Returns the
    read-only Hermitian part of the stack and its decomposition."""
    states = np.ascontiguousarray(matcore.hermitian_part(states))
    worst = float(np.abs(states.trace(axis1=-2, axis2=-1).real - 1.0).max(initial=0.0))
    if worst > HERM_TOL:
        raise QinstrError(f"trace differs from 1 by {worst:.3e}, more than {HERM_TOL:.1e}")
    spec = matcore.herm_eig(states)
    least = float(spec.eigenvalues[:, 0].min())
    if not least >= -HERM_TOL:
        raise QinstrError(f"minimum eigenvalue {least:.3e} below -{HERM_TOL:.1e}")
    for a in (states, *spec):
        a.setflags(write=False)
    return states, spec


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Positive semidefinite unit-trace Hermitian matrix: the oracles' state type.

    The checks keep the input (its Hermitian part) and never repair it: an
    eigenvalue in [-HERM_TOL, 0) stays, and every entropy leaves it out of the
    support. The rules of a state (``_checked``) run on the matrix as a stack
    of one; their decomposition, which doubles as the positivity check, is
    kept for entropy evaluations.
    """

    mat: np.ndarray
    _spec: matcore.SpectralDecomp = field(init=False, repr=False)

    def __post_init__(self):
        if np.ndim(self.mat) != 2:
            raise QinstrError(f"expected a 2-D matrix, got ndim={np.ndim(self.mat)}")
        mat, (vals, vecs) = _checked(np.asarray(self.mat)[None])
        object.__setattr__(self, "mat", mat[0])
        object.__setattr__(self, "_spec", matcore.SpectralDecomp(vals[0], vecs[0]))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def spectral(self) -> matcore.SpectralDecomp:
        return self._spec


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Finite alphabet with strictly positive probabilities and one state per letter.

    ``states``, a [letter, d, d] stack or anything ``numpy.asarray`` reads as
    one, is kept as one read-only complex stack. It is checked by the rules of
    a state (``_checked``; its Hermitian part is kept), whose one batched
    decomposition ``spectra`` holds ([letter, d] and [letter, d, d]).
    """

    letters: tuple
    probs: np.ndarray
    states: np.ndarray
    spectra: matcore.SpectralDecomp = field(init=False, repr=False)

    def __post_init__(self):
        letters = tuple(self.letters)
        probs = np.asarray(self.probs, dtype=np.float64)
        try:
            states = np.asarray(self.states, dtype=np.complex128)
        except (TypeError, ValueError) as exc:  # ragged, or not numbers
            raise QinstrError(f"letter states do not form one numeric stack: {exc}") from exc
        if probs.shape != (len(letters),) or states.shape[:1] != (len(letters),):
            raise QinstrError("letters, probs and states differ in length")
        if any(letters.index(a) != i for i, a in enumerate(letters)):
            raise QinstrError(f"duplicate letter labels in {letters!r}")
        if not (probs > 0.0).all():  # NaN fails too
            raise QinstrError("letter probabilities must be strictly positive")
        if abs(probs.sum() - 1.0) > PROB_TOL:
            raise QinstrError(f"letter probabilities sum to {probs.sum()}, not 1")
        if states.ndim != 3:
            raise QinstrError(f"expected a [letter, d, d] stack, got shape {states.shape}")
        states, spectra = _checked(states)
        probs = probs.copy()
        probs.setflags(write=False)
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "spectra", spectra)

    @property
    def dim(self) -> int:
        return self.states.shape[-1]


def pure_state(vec: Sequence[complex]) -> np.ndarray:
    """The [d, d] state v v^dag / |v|^2 of a ket."""
    v = np.asarray(vec, dtype=np.complex128)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def _clamped(states: np.ndarray, least: np.ndarray) -> Optional[np.ndarray]:
    """Ingest's repair of a checked [n, d, d] stack of letters read from JSON,
    given their least LAPACK eigenvalues: the stack with each clamped state
    replaced, or None when no state is clamped.

    A state whose least eigenvalue is <= HERM_TOL is decomposed again by
    ``matcore.jacobi_eig``. If Jacobi's least eigenvalue is negative, the
    negative eigenvalues are clamped to 0, the spectrum is renormalized and
    the matrix rebuilt from it. Scenario fingerprints hash the states read, so
    these digits must not depend on the solver that serves the analysis, nor
    change. Above HERM_TOL Jacobi could not clamp (its eigenvalues of a state
    are good to ~1e-13), so it does not run. Jacobi takes the checked matrix,
    which is exactly Hermitian, so its own symmetrization leaves the input
    unchanged. Every check of a state runs before the clamp, and again on the
    rebuilt state.
    """
    out = None
    for i in np.flatnonzero(least <= HERM_TOL):
        vals, vecs = matcore.jacobi_eig(states[i])
        if vals[0] < 0.0:
            out = states.copy() if out is None else out
            vals = np.maximum(vals, 0.0)
            out[i] = (vecs * (vals / vals.sum())) @ vecs.conj().T
    return out

