import json

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qinstr
from qinstr import harness, matcore
from qinstr.entropy import vn_entropies
from qinstr.errors import NoConvergence, QinstrError
from qinstr.qstate import DensityMatrix


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return a + a.conj().T


class TestHermEig:
    def test_already_diagonal(self):
        vals, vecs = matcore.herm_eig(np.diag([1.0, 0.0]))
        assert np.allclose(vals, [0.0, 1.0])
        assert np.allclose(np.abs(vecs), [[0, 1], [1, 0]])

    def test_plus_projector(self):
        a = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
        vals, vecs = matcore.herm_eig(a)
        assert np.allclose(vals, [0.0, 1.0], atol=1e-12)
        # eigenvectors are |-> and |+> up to phase
        assert abs(abs(vecs[0, 0]) - 1 / np.sqrt(2)) < 1e-12
        assert abs(abs(vecs[1, 1]) - 1 / np.sqrt(2)) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_is_numpy_eigh_bit_for_bit(self, seed):
        # herm_eig takes its input as given: LAPACK's eigenvalues and
        # eigenvectors, unchecked and unsymmetrised
        a = random_hermitian(4, seed)
        a = 0.5 * (a + a.conj().T)
        vals, vecs = matcore.herm_eig(a)
        ref_vals, ref_vecs = np.linalg.eigh(0.5 * (a + a.conj().T))
        assert np.array_equal(vals, ref_vals) and np.array_equal(vecs, ref_vecs)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10 ** 6))
    def test_reconstruction_property(self, dim, seed):
        a = random_hermitian(dim, seed)
        vals, vecs = matcore.herm_eig(a)
        assert np.max(np.abs((vecs * vals) @ vecs.conj().T - a)) < 1e-9


class TestSolvers:
    """LAPACK (herm_eig) against the numpy Jacobi kept for input canonicalisation."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10 ** 6))
    def test_herm_eig_agrees_with_jacobi_eig(self, dim, seed):
        a = random_hermitian(dim, seed)
        lapack = matcore.herm_eig(a)
        jacobi = matcore.jacobi_eig(a)
        assert np.max(np.abs(lapack.eigenvalues - jacobi.eigenvalues)) < 1e-10
        for vals, vecs in (lapack, jacobi):
            assert np.all(np.diff(vals) >= 0)
            assert np.max(np.abs((vecs * vals) @ vecs.conj().T - a)) < 1e-9

    def test_eigh_failure_is_no_convergence(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NoConvergence):
            matcore.herm_eig(np.eye(2))

    def test_jacobi_without_sweeps_does_not_converge(self, monkeypatch):
        monkeypatch.setattr(matcore, "MAX_SWEEPS", 0)
        assert matcore.jacobi_eig(np.diag([1.0, 2.0])).eigenvalues.tolist() == [1.0, 2.0]
        with pytest.raises(NoConvergence, match="Jacobi did not converge in 0 sweeps"):
            matcore.jacobi_eig(random_hermitian(2, 0))

    def test_jacobi_rejects_bad_input(self):
        with pytest.raises(QinstrError, match="Hermiticity deviation 1.000e.00 exceeds 1.0e-10"):
            matcore.jacobi_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(QinstrError, match="matrix contains NaN/Inf entries"):
            matcore.jacobi_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_backend_identified(self):
        assert qinstr.EIG_BACKEND == "lapack+closed2+trig3"


def two_by_two_stacks(n=2500, seed=0) -> dict:
    """n Hermitian 2 x 2 matrices of each kind the closed form must meet:
    Ginibre states, pure states, lambda I, diagonal, and indefinite ones
    scaled by 1e150 and 1e-150 (half each)."""
    rng = np.random.default_rng(seed)

    def gaussian():
        return rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))

    g = gaussian()
    psi = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    h = gaussian()
    eye = np.eye(2, dtype=complex)
    return {
        "ginibre": g @ g.conj().swapaxes(-1, -2),
        "pure": psi[:, :, None] * psi[:, None, :].conj(),
        "degenerate": rng.standard_normal(n)[:, None, None] * eye,
        "diagonal": rng.standard_normal((n, 2))[:, :, None] * eye,
        "scaled": (h + h.conj().swapaxes(-1, -2)) * np.repeat([1e150, 1e-150], n // 2)[:, None, None],
    }


def three_by_three_stacks(n=2500, seed=0) -> dict:
    """n 3 x 3 states of each kind Smith's form must meet or hand to LAPACK:
    Ginibre, rank two, rank one, a near-double pair at 0 and one away from 0
    (gaps log-spaced from 1e-15 to 0.3, across TRIG_GUARD), diagonal, c I,
    and the zero matrix."""
    rng = np.random.default_rng(seed)

    def rotated(spectra):
        u, _ = np.linalg.qr(rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3)))
        return (u * spectra[:, None, :]) @ u.conj().swapaxes(-1, -2)

    g = rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3))
    h = rng.standard_normal((n, 3, 2)) + 1j * rng.standard_normal((n, 3, 2))
    psi = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    gap = np.logspace(-15, np.log10(0.3), n)
    stacks = {
        "ginibre": g @ g.conj().swapaxes(-1, -2),
        "rank-two": h @ h.conj().swapaxes(-1, -2),
        "rank-one": psi[:, :, None] * psi[:, None, :].conj(),
        "pair-at-zero": rotated(np.stack([0 * gap, gap, 1 - gap], axis=-1)),
        "pair-away": rotated(np.stack([0.2 + 0 * gap, 0.4 - gap / 2, 0.4 + gap / 2], axis=-1)),
        "diagonal": rng.uniform(size=(n, 3))[:, :, None] * np.eye(3, dtype=complex),
        "multiple-of-i": rng.uniform(size=n)[:, None, None] * np.eye(3, dtype=complex),
    }
    stacks = {kind: a / np.trace(a, axis1=-2, axis2=-1).real[:, None, None] for kind, a in stacks.items()}
    return {**stacks, "zero": np.zeros((n, 3, 3), dtype=complex)}


def well_separated(n) -> np.ndarray:
    """n Ginibre states whose eigenvalues lie a fifth of their spread apart or
    more, by LAPACK, so that 1 - |r| is far above TRIG_GUARD."""
    a = three_by_three_stacks()["ginibre"]
    vals = np.linalg.eigvalsh(a)
    return a[np.diff(vals, axis=-1).min(axis=-1) >= 0.2 * np.ptp(vals, axis=-1)][:n]


THREE_BY_THREE = ["ginibre", "rank-two", "rank-one", "pair-at-zero", "pair-away", "diagonal", "multiple-of-i", "zero"]


def lapack_spectra(monkeypatch) -> list:
    """The stacks ``matcore.eigvalsh`` hands to LAPACK, as it hands them."""
    calls = []
    real = matcore.lapack

    def counted(routine, a, *args, **kwargs):
        calls.append(a)
        return real(routine, a, *args, **kwargs)

    monkeypatch.setattr(matcore, "lapack", counted)
    return calls


class TestEigvalsh:
    """matcore.eigvalsh: the closed form at d = 2, Smith's form on a stack of
    TRIG_STACK or more 3 x 3 matrices, with LAPACK where two eigenvalues nearly
    coincide, and LAPACK's spectrum everywhere else."""

    @pytest.mark.parametrize("kind", ["ginibre", "pure", "degenerate", "diagonal", "scaled"])
    def test_closed_form_matches_lapack(self, kind):
        a = two_by_two_stacks()[kind]
        ref = np.linalg.eigvalsh(a)
        err = np.abs(matcore.eigvalsh(a) - ref).max(axis=-1)
        scale = np.abs(a).max(axis=(-2, -1))
        assert (err <= 8 * np.finfo(np.float64).eps * scale).all()

    @pytest.mark.parametrize("dim, n", [(1, 64), (3, 63), (3, 1), (4, 64), (5, 64)])
    def test_off_the_gate_is_one_lapack_call(self, monkeypatch, dim, n):
        # d = 1 and d >= 4 at any size, and a 3 x 3 stack below TRIG_STACK
        assert (n < matcore.TRIG_STACK) == (dim == 3)
        a = np.stack([random_hermitian(dim, seed) for seed in range(n)])
        calls = lapack_spectra(monkeypatch)
        assert np.array_equal(matcore.eigvalsh(a), np.linalg.eigvalsh(a))
        assert len(calls) == 1 and calls[0] is a

    @pytest.mark.parametrize("kind", THREE_BY_THREE)
    def test_trigonometric_form_matches_lapack(self, kind):
        # worst measured on 4 x 2500 states of each kind: 14.1 eps max|a_ij|
        # (Ginibre); the form's own bound is 16 eps, and LAPACK's ~6
        a = three_by_three_stacks()[kind]
        err = np.abs(matcore.eigvalsh(a) - np.linalg.eigvalsh(a)).max(axis=-1)
        assert (err <= 24 * np.finfo(np.float64).eps * np.abs(a).max(axis=(-2, -1))).all()

    @pytest.mark.parametrize("kind", THREE_BY_THREE)
    def test_trigonometric_entropies_match_mpmath(self, kind):
        # the von Neumann entropy of every 10th state against 40-digit mpmath:
        # worst measured on 400 states of each kind, 106 eps (rank two; LAPACK 38),
        # as an eigenvalue off by a few eps near 0 moves -l log l by 36 times that
        a = three_by_three_stacks(n=400, seed=7)[kind]
        s = vn_entropies(a)
        with mpmath.workdps(40):
            for i in range(0, len(a), 10):
                lower = np.tril(a[i], -1) + np.diag(a[i].diagonal().real)
                exact = mpmath.eighe(mpmath.matrix((lower + np.tril(a[i], -1).conj().T).tolist()))[0]
                entropy = -mpmath.fsum(x * mpmath.log(x) for x in exact if x > 0)
                assert abs(s[i] - float(entropy)) <= 256 * np.finfo(np.float64).eps, (i, s[i], entropy)

    def test_the_guard_hands_lapack_what_the_form_cannot_hold(self, monkeypatch):
        # a stack of TRIG_STACK well-separated states, with a rank-one state,
        # I/3, zero and a NaN read planted in it: only those, in order and as
        # given, reach LAPACK, and theirs are LAPACK's spectra bit for bit; the
        # rest make no LAPACK call
        a = well_separated(matcore.TRIG_STACK)
        planted = [3, 17, 40, 41]
        a[3] = three_by_three_stacks(n=1)["rank-one"][0]
        a[17] = np.eye(3) / 3
        a[40] = 0.0
        a[41] = np.eye(3) / 3
        a[41, 2, 1] = np.nan
        calls = lapack_spectra(monkeypatch)
        vals = matcore.eigvalsh(a)
        assert len(calls) == 1 and np.array_equal(calls[0], a[planted], equal_nan=True)
        assert np.array_equal(vals[planted], np.linalg.eigvalsh(a[planted]), equal_nan=True)
        assert np.isnan(vals[41]).any() and np.isfinite(np.delete(vals, 41, axis=0)).all()

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2, 2), (3, 4, 2, 2), (0, 2, 2)])
    def test_ascending_with_leading_shape_kept(self, shape):
        a = two_by_two_stacks(n=12)["ginibre"][:int(np.prod(shape[:-2]))].reshape(shape)
        vals = matcore.eigvalsh(a)
        assert vals.shape == shape[:-1]
        assert (np.diff(vals, axis=-1) >= 0).all()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_reads_the_lower_triangle_and_real_diagonal(self, dim):
        # as LAPACK's eigvalsh: junk above the diagonal and an imaginary part
        # on it leave the spectrum as it was (at d = 3, on a stack that takes
        # Smith's form, part of it through the guard)
        a = two_by_two_stacks(n=100)["ginibre"] if dim == 2 else np.concatenate(
            [three_by_three_stacks(n=50)[kind] for kind in ("ginibre", "rank-one")])
        junk = a.copy()
        upper = np.triu_indices(dim, 1)
        junk[:, upper[0], upper[1]] = 7.0 - 3.0j
        junk[:, range(dim), range(dim)] += 5.0j
        assert np.array_equal(matcore.eigvalsh(junk), matcore.eigvalsh(a))
        assert np.array_equal(np.linalg.eigvalsh(junk), np.linalg.eigvalsh(a))

    @pytest.mark.parametrize("entry", [(0, 0), (1, 0), (1, 1)])
    def test_nan_read_gives_nan_and_no_convergence(self, entry):
        a = np.stack([np.eye(2, dtype=complex) / 2] * 3)
        a[1][entry] = np.nan
        vals = matcore.eigvalsh(a)
        assert np.isnan(vals[1]).all() and np.isfinite(vals[[0, 2]]).all()
        with pytest.raises(NoConvergence, match="entropy of a derived state is not finite"):
            vn_entropies(a)


@pytest.mark.parametrize("m, match", [
    (np.full((2, 3), 1 / 3), r"matrix of shape \((1, )?2, 3\) is not square"),
    (np.array([[np.nan, 0.0], [0.0, 0.5]]), "matrix contains NaN/Inf entries"),
    (np.array([[0.5, 0.1], [0.0, 0.5]]), "Hermiticity deviation 1.000e-01 exceeds 1.0e-10"),
], ids=["not-square", "nan", "not-hermitian"])
@pytest.mark.parametrize("reader", [matcore.jacobi_eig, DensityMatrix],
                         ids=["jacobi_eig", "DensityMatrix"])
def test_one_hermiticity_rule(reader, m, match):
    """Where inputs enter, Jacobi and a state reject a matrix by
    matcore.hermitian_part, so the same inputs fail each of them by the same
    rule (herm_eig takes its matrix as given)."""
    with pytest.raises(QinstrError, match=match):
        matcore.hermitian_part(m)
    with pytest.raises(QinstrError, match=match):
        reader(m)


class TestSpectralApply:
    def test_sqrt_on_rank_deficient(self):
        out = matcore.spectral_apply(matcore.herm_eig(np.diag([4.0, 0.0])), np.sqrt)
        assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-12)

    def test_inverse_sqrt_of_half_identity(self):
        out = matcore.spectral_apply(matcore.herm_eig(np.eye(2) / 2), lambda x: x ** -0.5)
        assert np.allclose(out, np.sqrt(2) * np.eye(2), atol=1e-12)

    def test_log_diagonal(self):
        out = matcore.spectral_apply(matcore.herm_eig(np.diag([0.75, 0.25])), np.log)
        assert np.allclose(out, np.diag([np.log(0.75), np.log(0.25)]), atol=1e-12)

    def test_identity_function_reproduces(self):
        a = random_hermitian(5, 9)
        a = a @ a.conj().T  # PSD, full support
        out = matcore.spectral_apply(matcore.herm_eig(a), lambda x: x)
        assert np.max(np.abs(out - a)) < 1e-9


class TestKronPartialTrace:
    def test_kron_scalar(self):
        b = random_hermitian(3, 1)
        assert np.allclose(matcore.kron(np.array([[2.0]]), b), 2 * b)

    def test_kron_diag(self):
        out = matcore.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
        assert np.allclose(out, np.diag([1.0, 0, 0, 0]))

    def test_kron_trace_multiplicative(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            g1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            g2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            r1 = g1 @ g1.conj().T
            r1 /= np.trace(r1)
            r2 = g2 @ g2.conj().T
            r2 /= np.trace(r2)
            assert abs(np.trace(matcore.kron(r1, r2)) - 1.0) < 1e-12

    def test_kron_associative(self):
        rng = np.random.default_rng(6)
        a, b, c = (rng.standard_normal((2, 2)) for _ in range(3))
        left = matcore.kron(matcore.kron(a, b), c)
        right = matcore.kron(a, matcore.kron(b, c))
        assert np.allclose(left, right)

    @staticmethod
    def _pt_oracle(a, subsystem, d1, d2):
        # direct index summation
        if subsystem == "second":
            out = np.zeros((d1, d1), dtype=complex)
            for i in range(d1):
                for k in range(d1):
                    out[i, k] = sum(a[i * d2 + j, k * d2 + j] for j in range(d2))
        else:
            out = np.zeros((d2, d2), dtype=complex)
            for j in range(d2):
                for l in range(d2):
                    out[j, l] = sum(a[i * d2 + j, i * d2 + l] for i in range(d1))
        return out

    @pytest.mark.parametrize("d1,d2", [(2, 2), (2, 3), (3, 2)])
    def test_against_index_summation(self, d1, d2):
        a = random_hermitian(d1 * d2, d1 * 10 + d2)
        for sub in ("first", "second"):
            assert np.allclose(
                matcore.partial_trace(a, sub, d1, d2), self._pt_oracle(a, sub, d1, d2)
            )

    def test_product_state(self):
        rng = np.random.default_rng(7)
        for da, db in [(2, 2), (3, 3)]:
            ga = rng.standard_normal((da, da)) + 1j * rng.standard_normal((da, da))
            gb = rng.standard_normal((db, db)) + 1j * rng.standard_normal((db, db))
            rho = ga @ ga.conj().T
            rho /= np.trace(rho)
            sig = gb @ gb.conj().T
            sig /= np.trace(sig)
            prod = matcore.kron(rho, sig)
            assert np.max(np.abs(matcore.partial_trace(prod, "second", da, db) - rho)) < 1e-10
            assert np.max(np.abs(matcore.partial_trace(prod, "first", da, db) - sig)) < 1e-10

    def test_trace_preserved(self):
        a = random_hermitian(4, 11)
        a = a @ a.conj().T
        t1 = np.trace(matcore.partial_trace(a, "first", 2, 2))
        t2 = np.trace(matcore.partial_trace(a, "second", 2, 2))
        assert abs(t1 - np.trace(a)) < 1e-10
        assert abs(t2 - np.trace(a)) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(QinstrError, match=r"expected a 6x6 matrix for dims \(2,3\), got \(4, 4\)"):
            matcore.partial_trace(np.eye(4), "first", 2, 3)

    def test_unknown_subsystem(self):
        with pytest.raises(QinstrError, match="subsystem must be 'first' or 'second', got 'third'"):
            matcore.partial_trace(np.eye(4), "third", 2, 2)


class TestJson:
    def test_roundtrip(self):
        # a matrix is read back as a stack of one
        a = random_hermitian(3, 13)
        assert np.array_equal(harness.stack_from_json("states", harness.matrix_to_json(a[None])), a[None])

    def test_matches_the_per_entry_loop(self):
        a = np.array([
            [complex(-0.0, 1e-300), complex(1e17, -0.0)],
            [complex(1e-300, -1e17), complex(-0.0, -0.0)],
        ])
        loop = [[[float(z.real), float(z.imag)] for z in row] for row in a]
        got = harness.matrix_to_json(a)
        assert got == loop
        # signs of zero survive, so the JSON text (and a fingerprint) is the same
        assert json.dumps(got) == json.dumps(loop)
        assert json.dumps(got).count("-0.0") == 4
