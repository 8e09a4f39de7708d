"""Dense complex linear algebra: Hermitian eigendecomposition, spectral
functions on the support, Kronecker products and partial traces.

Conventions (project-wide): row-major complex128 arrays, eigenvectors stored as
columns, eigenvalues ascending. Every decomposition is LAPACK's, called
through ``lapack``, which makes a LAPACK failure a ``NoConvergence`` (the CLI
exits 2 on it while the file is read, 3 inside a stage); every
``eigh`` is ``herm_eig``, which takes its matrix or stack as given. The one
Hermiticity rule lives here, ``hermitian_part`` (finite, square, Hermitian
within HERM_TOL, then (A + A^dag) / 2, on a matrix or a stack), and runs
where inputs enter: in the rule of a state (``qstate``) and in
``jacobi_eig``. Input states are checked once and never repaired, except at
ingest (``qstate.ensemble_from_json``), which clamps eigenvalues in
[-HERM_TOL, 0) of a letter read from JSON; a state derived from them is a
plain array, Hermitian by construction, decomposed (``herm_eig`` or
``eigvalsh``) but never checked again.
``jacobi_eig`` is a numpy cyclic Jacobi kept for input canonicalisation only:
its rounding sets the last digits of generated Kraus operators
(``random_instrument``) and of the letters that ingest clamps, and scenario
fingerprints hash those digits, so those two call sites must not change
solver. At ingest it runs only on letters whose least eigenvalue is
<= HERM_TOL, the only ones the clamp can reach.

The scenario file's typing rules live here too, and every reader calls them:
an object has a closed set of keys (``as_object``), numbers are JSON numbers
(``as_numbers``, which ``matrix_from_json`` applies to every entry), a count
is an integer (``as_count``), a tolerance a finite, non-negative number
(``as_tol``, which also reads ``QINSTR_TOL``) and labels are a list
(``as_labels``).
"""

from __future__ import annotations

import itertools
import math
import numbers
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian, SchemaError

HERM_TOL = 1e-10  # Hermiticity; qstate also judges traces, sums and positivity at it
SUPPORT_CUTOFF = 1e-12  # eigenvalues at or below it lie outside the support; cells of such trace are null
MAX_SWEEPS = 100
OFF_DIAG_TOL = 1e-13


class SpectralDecomp(NamedTuple):
    eigenvalues: np.ndarray  # real, ascending
    eigenvectors: np.ndarray  # unitary, columns


def hermitian_part(a) -> np.ndarray:
    """The Hermitian part (A + A^dag) / 2 of a matrix, or of each matrix of a
    (..., d, d) stack, once every entry is finite and each matrix is square and
    Hermitian within HERM_TOL. The one Hermiticity rule: ``jacobi_eig`` and
    the rule of a state (``qstate._checked``) call it. A matrix equal
    to its adjoint is its own Hermitian part: the same values come back."""
    a = np.asarray(a, dtype=np.complex128)
    if not np.isfinite(a).all():
        raise NotHermitian("matrix contains NaN/Inf entries")
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NotHermitian(f"matrix of shape {a.shape} is not square")
    adj = a.conj().swapaxes(-1, -2)
    dev = float(np.abs(a - adj).max(initial=0.0))
    if dev > HERM_TOL:
        raise NotHermitian(f"Hermiticity deviation {dev:.3e} exceeds {HERM_TOL:.1e}")
    return 0.5 * (a + adj)


def lapack(routine: Callable, *args, **kwargs):
    """``routine(*args, **kwargs)`` for a ``numpy.linalg`` routine, its
    ``LinAlgError`` raised as ``NoConvergence``: a numerical step that failed,
    not a failed check."""
    try:
        return routine(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"{routine.__name__} failed: {exc}") from exc


def herm_eig(a: np.ndarray) -> SpectralDecomp:
    """The one ``eigh``: LAPACK's decomposition of a Hermitian matrix or (..., d, d)
    stack, taken as given (a checked input, or Hermitian by construction)."""
    return SpectralDecomp(*lapack(np.linalg.eigh, a))


def jacobi_eig(a: np.ndarray) -> SpectralDecomp:
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Only for input canonicalisation (see the module docstring); use herm_eig
    everywhere else.
    """
    work = np.ascontiguousarray(hermitian_part(a))
    n = work.shape[0]
    vecs = np.eye(n, dtype=np.complex128)
    off_tol = OFF_DIAG_TOL * max(1.0, float(np.linalg.norm(work)))
    if not _jacobi_sweeps(work, vecs, MAX_SWEEPS, off_tol):
        raise NoConvergence(f"Jacobi did not converge in {MAX_SWEEPS} sweeps")
    vals = np.diag(work).real.copy()
    order = np.argsort(vals, kind="stable")
    return SpectralDecomp(vals[order], np.ascontiguousarray(vecs[:, order]))


def _off_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def _jacobi_sweeps(a: np.ndarray, v: np.ndarray, max_sweeps: int, off_tol: float) -> bool:
    """Run cyclic Jacobi sweeps in place on ``a`` (accumulating the rotations in
    ``v``); return True once the off-diagonal Frobenius norm is <= off_tol."""
    n = a.shape[0]
    if n < 2:
        return True
    for _ in range(max_sweeps):
        if _off_norm(a) <= off_tol:
            return True
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                mag = abs(apq)
                if mag == 0.0:
                    continue
                phase = apq / mag
                app = a[p, p].real
                aqq = a[q, q].real
                tau = (aqq - app) / (2.0 * mag)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                sp = s * phase
                # A <- J^dag A J with J the rotation in the (p, q) plane
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - np.conj(sp) * col_q
                a[:, q] = sp * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - sp * row_q
                a[q, :] = np.conj(sp) * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
                vcol_p = v[:, p].copy()
                v[:, p] = c * vcol_p - np.conj(sp) * v[:, q]
                v[:, q] = sp * vcol_p + c * v[:, q]
    return _off_norm(a) <= off_tol


def spectral_apply(spec: SpectralDecomp, f: Callable[[float], float]) -> np.ndarray:
    """Return U f(L) U^dag from a decomposition (L, U), with f applied only to
    eigenvalues above SUPPORT_CUTOFF.

    Eigenvalues <= SUPPORT_CUTOFF map to 0 (support-restricted functional
    calculus), so e.g. log and x**-1/2 are safe on rank-deficient inputs.
    """
    vals, vecs = spec
    fvals = np.array([f(v) if v > SUPPORT_CUTOFF else 0.0 for v in vals])
    return (vecs * fvals) @ vecs.conj().T


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (x) b; for stacks, the product of each pair (leading axes broadcast)."""
    out = np.einsum("...ij,...kl->...ikjl", a, b)
    *batch, m, p, n, q = out.shape
    return out.reshape(*batch, m * p, n * q)


def partial_trace(a: np.ndarray, subsystem: str, d1: int, d2: int) -> np.ndarray:
    """Trace out one factor of a matrix on H1 (x) H2, or of each matrix of a stack."""
    a = np.asarray(a, dtype=np.complex128)
    if a.shape[-2:] != (d1 * d2, d1 * d2):
        raise DimensionMismatch(
            f"expected a {d1 * d2}x{d1 * d2} matrix for dims ({d1},{d2}), got {a.shape}"
        )
    blocks = a.reshape(a.shape[:-2] + (d1, d2, d1, d2))
    if subsystem == "first":
        return np.einsum("...ijik->...jk", blocks)
    if subsystem == "second":
        return np.einsum("...ijkj->...ik", blocks)
    raise DimensionMismatch(f"subsystem must be 'first' or 'second', got {subsystem!r}")


def matrix_to_json(a: np.ndarray) -> list:
    """Rows of [re, im] pairs, for a matrix already checked (a state's or a
    Kraus operator's): the entries are not checked again."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
    return a.view(np.float64).reshape(*a.shape, 2).tolist()


def matrix_from_json(rows: list) -> np.ndarray:
    """The complex matrix, or stack of matrices, that ``matrix_to_json`` wrote:
    every entry a [re, im] pair of JSON numbers (``as_numbers``), in one
    ``numpy.array`` pass. The entries are not checked here; the matrix's
    reader checks them."""
    a = as_numbers("matrix JSON", rows)
    if a.ndim < 3 or a.shape[-1] != 2:
        raise DimensionMismatch(
            f"malformed matrix JSON: expected rows of [re, im] number pairs, got shape {a.shape}"
        )
    return a.view(np.complex128)[..., 0]


def as_numbers(name: str, values) -> np.ndarray:
    """A JSON list (or nested lists) of numbers as one float64 array, read in
    one ``numpy.array`` pass. Only JSON numbers are taken (dtype kind i, u or
    f): ``numpy.array(values, np.float64)`` would read "0.5" as 0.5, so a
    numeric string, null, an object, ragged lists or a boolean is a
    SchemaError. numpy promotes a boolean among numbers to 0 or 1, so the
    entries' types are read too, by ``map`` over the flattened lists (C
    iteration, no Python loop per entry)."""
    try:
        a = np.array(values)
    except (TypeError, ValueError) as exc:  # ragged lists
        raise SchemaError(f"malformed {name}: {exc}") from exc
    if a.dtype.kind not in "iuf":
        raise SchemaError(
            f"{name} must hold JSON numbers only (no string, boolean or null), "
            f"got numpy dtype {a.dtype}"
        )
    entries = [values]
    for _ in range(a.ndim):
        entries = itertools.chain.from_iterable(entries)
    if bool in map(type, entries):
        raise SchemaError(f"{name} must hold JSON numbers only, got a boolean among them")
    return a.astype(np.float64, copy=False)


def as_count(name: str, value, least: int) -> int:
    """``value`` as an integer >= ``least``. An integral float reads as its
    integer (2.0 is 2, so a fingerprint does not move); a boolean, a string, a
    fraction or a non-finite number is a SchemaError."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise SchemaError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def as_tol(name: str, value) -> float:
    """``value`` as a finite, non-negative float; a boolean, a string or a
    NaN, infinite or negative number is a SchemaError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0.0 <= value < math.inf:
        raise SchemaError(f"{name} must be a finite, non-negative number, got {value!r}")
    return float(value)


def as_labels(name: str, values) -> tuple:
    """A JSON list of labels as a tuple; a string is no list of labels."""
    if not isinstance(values, list):
        raise SchemaError(f"{name} must be a list of labels, got {type(values).__name__}")
    return tuple(values)


def as_object(name: str, obj, keys: tuple) -> dict:
    """``obj``, once it is a JSON object whose every key is one of ``keys``: a
    misspelt or retired key is a SchemaError that names it, never ignored."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{name} must be an object, got {type(obj).__name__}")
    for key in obj:
        if key not in keys:
            raise SchemaError(f"unknown key {key!r} in {name}; its keys are {', '.join(keys)}")
    return obj
