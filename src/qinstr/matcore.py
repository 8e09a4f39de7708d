"""Dense complex linear algebra: Hermitian eigendecomposition, spectral
functions on the support, Kronecker products and partial traces. The support
is a square root's, above SUPPORT_CUTOFF (``spectral_apply``, Hall's roots,
``random_instrument``'s normalizer), as the root of a 1e-17 rounding
eigenvalue is 3e-9; an entropy needs none, and a null cell is NULL_TRACE's.

Conventions (project-wide): row-major complex128 arrays, eigenvectors stored as
columns, eigenvalues ascending. Every decomposition is LAPACK's, called
through ``lapack``, which makes a LAPACK failure a ``NoConvergence`` (the CLI
exits 2 on it while the file is read, 3 inside a stage), but the spectra
``eigvalsh`` takes in closed form: every 2 x 2 one, and on a stack of
TRIG_STACK or more 3 x 3 matrices each one whose eigenvalues lie apart
(TRIG_GUARD); every ``eigh`` is
``herm_eig`` and every spectrum a derived state takes is ``eigvalsh``'s, each
taking its matrix or stack as given. A derived state of an outcome of
``Instrument.pure_outputs`` takes none: it is pure or 0, of entropy exactly 0
(``infobounds._gains``, ``MeasurementStatistics.entropies``). The one
Hermiticity rule lives here, ``hermitian_part`` (finite, square, Hermitian
within HERM_TOL, then (A + A^dag) / 2, on a matrix or a stack; a
``QinstrError`` whose message names the part that fails), and runs where
inputs enter: in the rule of a state (``qstate``) and in
``jacobi_eig``. Input states are checked once and never repaired, except at
ingest (``qstate._clamped``), which clamps eigenvalues in [-HERM_TOL, 0) of a
letter read from JSON; a state derived from them is a plain array, Hermitian
by construction, decomposed (``herm_eig`` or ``eigvalsh``) but never checked
again.
``jacobi_eig`` is a numpy cyclic Jacobi kept for input canonicalisation only:
its rounding sets the last digits of generated Kraus operators
(``random_instrument``) and of the letters that ingest clamps, and scenario
fingerprints hash those digits, so those two call sites must not change
solver. At ingest it runs only on letters whose least eigenvalue is
<= HERM_TOL, the only ones the clamp can reach.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import NoConvergence, QinstrError

HERM_TOL = 1e-10  # Hermiticity; qstate also judges traces, sums and positivity at it
SUPPORT_CUTOFF = 1e-12  # eigenvalues at or below it lie outside a square root's support
MAX_SWEEPS = 100
OFF_DIAG_TOL = 1e-13
# a stack of TRIG_STACK or more 3 x 3 matrices takes ``_trig3``'s form: ~33 us
# of numpy calls and ~0.1 us a matrix, against LAPACK's ~1.2 us a matrix
# (2-vCPU Xeon VM, numpy 2.4), so they cross at ~25 matrices, at ~40 when a
# quarter of the stack falls back; at 64 the form takes 50-60 us against 80
TRIG_STACK = 64
# against 40-digit mpmath the form is off by <= 1.6 eps max|a_ij| / sqrt(1 - |r|):
# acos is ill-conditioned at a double eigenvalue (|r| = 1), which a pure state
# has at 0 (off by 4.5e7 eps). A matrix with 1 - |r| <= TRIG_GUARD goes to
# LAPACK, so the form stays within 16 eps, beside LAPACK's own ~6
TRIG_GUARD = 1e-2
_TRIG_ROWS, _TRIG_COLS = (0, 1, 2, 1, 2, 2), (0, 1, 2, 0, 0, 1)  # the diagonal, then b10, b20, b21
_TRIG_OFFSETS = 2 * np.pi / 3 * np.array([1.0, -1.0, 0.0])  # ascending for acos(r)/3 in [0, pi/3]


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
        raise QinstrError("matrix contains NaN/Inf entries")
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise QinstrError(f"matrix of shape {a.shape} is not square")
    adj = a.conj().swapaxes(-1, -2)
    dev = float(np.abs(a - adj).max(initial=0.0))
    if dev > HERM_TOL:
        raise QinstrError(f"Hermiticity deviation {dev:.3e} exceeds {HERM_TOL:.1e}")
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


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """The one spectrum rule for derived states: the ascending eigenvalues of
    a Hermitian matrix or (..., d, d) stack, read from its lower triangle and
    real diagonal alone, as LAPACK's ``eigvalsh`` reads them. At d = 2 they
    are (a + c)/2 -/+ hypot((a - c)/2, |b|), with b the lower entry, within a
    few eps of max |a_ij| of LAPACK's, and a NaN read gives NaN; a stack of
    TRIG_STACK or more 3 x 3 matrices takes ``_trig3``'s form, and every other
    spectrum is LAPACK's."""
    if a.shape[-1] == 3 and a.size >= 9 * TRIG_STACK:
        return _trig3(a)
    if a.shape[-1] != 2:
        return lapack(np.linalg.eigvalsh, a)
    p, q = a[..., 0, 0].real, a[..., 1, 1].real
    mid = 0.5 * (p + q)
    r = np.hypot(0.5 * (p - q), np.abs(a[..., 1, 0]))
    vals = np.empty(a.shape[:-1])
    np.subtract(mid, r, out=vals[..., 0])
    np.add(mid, r, out=vals[..., 1])
    return vals


def _trig3(a: np.ndarray) -> np.ndarray:
    """Smith's spectrum (Commun. ACM 4, 168, 1961) of each matrix of a (..., 3, 3)
    stack, from its lower triangle and real diagonal: q + 2p cos(acos(r)/3 +
    2 pi k/3), q = tr(A)/3, 6p^2 = tr((A - qI)^2), r = det(A - qI)/(2p^3). Each
    matrix with 1 - |r| <= TRIG_GUARD (a near-double pair, c I, zero, a NaN
    read) goes to one LAPACK call, as in Kopp's hybrid (arXiv:physics/0610206)."""
    e = a[..., _TRIG_ROWS, _TRIG_COLS]
    q = e[..., :3].real.sum(axis=-1, keepdims=True) / 3
    dev = e[..., :3].real - q
    sq = np.abs(e[..., 3:]) ** 2  # |b10|^2, |b20|^2, |b21|^2
    p = np.sqrt(((dev * dev).sum(axis=-1) + 2 * sq.sum(axis=-1)) / 6)
    det = (dev.prod(axis=-1) - (dev * sq[..., ::-1]).sum(axis=-1)
           + 2 * (e[..., 3] * e[..., 5] * e[..., 4].conj()).real)
    two_p3 = 2 * p ** 3
    ok = np.abs(det) < (1 - TRIG_GUARD) * two_p3
    r = np.divide(det, two_p3, out=np.zeros_like(det), where=ok)
    vals = q + 2 * p[..., None] * np.cos(np.arccos(r)[..., None] / 3 + _TRIG_OFFSETS)
    if not ok.all():
        vals[~ok] = lapack(np.linalg.eigvalsh, a[~ok])
    return vals


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
    """U f(L) U^dag from a decomposition (L, U), with f applied on the support
    (eigenvalues > SUPPORT_CUTOFF) and 0 off it, so x**-1/2 and sqrt are safe
    on rank-deficient inputs."""
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
        raise QinstrError(f"expected a {d1 * d2}x{d1 * d2} matrix for dims ({d1},{d2}), got {a.shape}")
    blocks = a.reshape(a.shape[:-2] + (d1, d2, d1, d2))
    if subsystem == "first":
        return np.einsum("...ijik->...jk", blocks)
    if subsystem == "second":
        return np.einsum("...ijkj->...ik", blocks)
    raise QinstrError(f"subsystem must be 'first' or 'second', got {subsystem!r}")
