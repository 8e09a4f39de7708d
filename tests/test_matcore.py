import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qinstr
from qinstr import harness, matcore
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

    @pytest.mark.parametrize("seed", range(8))
    def test_random_reconstruction(self, seed):
        a = random_hermitian(4, seed)
        vals, vecs = matcore.herm_eig(a)
        recon = (vecs * vals) @ vecs.conj().T
        assert np.max(np.abs(recon - a)) < 1e-9
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(4))) < 1e-9
        assert np.all(np.diff(vals) >= 0)

    def test_matches_numpy(self):
        a = random_hermitian(7, 42)
        vals, _ = matcore.herm_eig(a)
        assert np.allclose(vals, np.linalg.eigvalsh(a), atol=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_hermitian_input_decomposed_as_its_hermitian_part(self, seed):
        # an input equal to its adjoint skips the check and the symmetrisation
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
        assert qinstr.EIG_BACKEND == "lapack"


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
        a = random_hermitian(3, 13)
        assert np.array_equal(harness.matrix_from_json(harness.matrix_to_json(a)), a)

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
