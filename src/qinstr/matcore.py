"""Dense complex linear algebra: Hermitian eigendecomposition via cyclic Jacobi,
spectral functions on the support, Kronecker products and partial traces.

Conventions (project-wide): row-major complex128 arrays, eigenvectors stored as
columns, eigenvalues ascending. The Jacobi kernel comes from ``_kernels``
(compiled extension when available, numpy fallback otherwise).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from ._kernels import jacobi_sweeps
from .errors import DimensionMismatch, NoConvergence, NotHermitian

HERM_TOL = 1e-10
SUPPORT_CUTOFF = 1e-12
MAX_SWEEPS = 100
OFF_DIAG_TOL = 1e-13


class SpectralDecomp(NamedTuple):
    eigenvalues: np.ndarray  # real, ascending
    eigenvectors: np.ndarray  # unitary, columns


def as_matrix(entries) -> np.ndarray:
    """Coerce to a C-contiguous complex128 2-D array, rejecting non-finite entries."""
    a = np.ascontiguousarray(entries, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a.view(np.float64))):
        raise NotHermitian("matrix contains NaN/Inf entries")
    return a


def check_hermitian(a: np.ndarray, tol: float = HERM_TOL) -> None:
    if a.shape[0] != a.shape[1]:
        raise NotHermitian(f"matrix is {a.shape[0]}x{a.shape[1]}, not square")
    dev = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    if dev > tol:
        raise NotHermitian(f"Hermiticity deviation {dev:.3e} exceeds {tol:.1e}")


def herm_eig(a: np.ndarray, herm_tol: float = HERM_TOL) -> SpectralDecomp:
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations."""
    a = as_matrix(a)
    check_hermitian(a, herm_tol)
    n = a.shape[0]
    work = np.ascontiguousarray(0.5 * (a + a.conj().T))
    vecs = np.eye(n, dtype=np.complex128)
    off_tol = OFF_DIAG_TOL * max(1.0, float(np.linalg.norm(work)))
    if not jacobi_sweeps(work, vecs, MAX_SWEEPS, off_tol):
        raise NoConvergence(f"Jacobi did not converge in {MAX_SWEEPS} sweeps")
    vals = np.diag(work).real.copy()
    order = np.argsort(vals, kind="stable")
    return SpectralDecomp(vals[order], np.ascontiguousarray(vecs[:, order]))


def spectral_apply(
    spec: SpectralDecomp,
    f: Callable[[float], float],
    support_cutoff: float = SUPPORT_CUTOFF,
) -> np.ndarray:
    """Return U f(L) U^dag from a decomposition (L, U), with f applied only to
    eigenvalues above the cutoff.

    Eigenvalues <= support_cutoff map to 0 (support-restricted functional
    calculus), so e.g. log and x**-1/2 are safe on rank-deficient inputs.
    """
    vals, vecs = spec
    fvals = np.array([f(v) if v > support_cutoff else 0.0 for v in vals])
    return (vecs * fvals) @ vecs.conj().T


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.kron(as_matrix(a), as_matrix(b))


def partial_trace(a: np.ndarray, subsystem: str, d1: int, d2: int) -> np.ndarray:
    """Trace out one factor of a matrix on H1 (x) H2."""
    a = as_matrix(a)
    if a.shape != (d1 * d2, d1 * d2):
        raise DimensionMismatch(
            f"expected a {d1 * d2}x{d1 * d2} matrix for dims ({d1},{d2}), got {a.shape}"
        )
    blocks = a.reshape(d1, d2, d1, d2)
    if subsystem == "first":
        return np.einsum("ijik->jk", blocks)
    if subsystem == "second":
        return np.einsum("ijkj->ik", blocks)
    raise DimensionMismatch(f"subsystem must be 'first' or 'second', got {subsystem!r}")


def matrix_to_json(a: np.ndarray) -> list:
    """Rows of [re, im] pairs."""
    a = as_matrix(a)
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def matrix_from_json(rows: list) -> np.ndarray:
    try:
        a = np.array([[complex(re, im) for re, im in row] for row in rows], dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"malformed matrix JSON: {exc}") from exc
    return as_matrix(a)
