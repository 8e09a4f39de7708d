import re
from dataclasses import fields

import numpy as np
import pytest

from conftest import KET0, KET1, PLUS, counted
from qinstr import matcore
from qinstr.errors import QinstrError
from qinstr.matcore import HERM_TOL
from qinstr.harness import ensemble_from_json, example_scenario, matrix_to_json
from qinstr.qstate import DensityMatrix, Ensemble
from oracle import ClassicalDist, a_priori_state, fidelity_like_support_check, maximally_mixed, random_density


def ingest(m) -> Ensemble:
    """One state read by ingest, as a one-letter ensemble."""
    return ensemble_from_json({"letters": [0], "probs": [1.0], "states": [matrix_to_json(m)]})


def read(m) -> tuple:
    """One state read by ingest: the matrix the stages read and its eigenvalues."""
    e = ingest(m)
    return e.states[0], e.eigenvalues[0]


class TestValidateDensity:
    def test_accepts_mixed(self):
        dm = DensityMatrix(np.diag([0.5, 0.5]))
        assert dm.dim == 2

    def test_rejects_negative(self):
        with pytest.raises(QinstrError, match="minimum eigenvalue -5.000e-01 below -1.0e-10"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_keeps_tiny_negativity(self):
        m = np.diag([0.7 + 1e-11, 0.3, -1e-11])
        dm = DensityMatrix(m)
        assert np.array_equal(dm.mat, m)
        assert dm.spectral().eigenvalues[0] == -1e-11

    def test_clamps_tiny_negativity(self):
        # only at ingest
        mat, vals = read(np.diag([0.7 + 1e-11, 0.3, -1e-11]))
        assert vals[0] >= 0.0
        assert abs(np.trace(mat).real - 1.0) < 1e-12

    def test_rejects_bad_trace(self):
        with pytest.raises(QinstrError, match="trace differs from 1 by 2.000e-01, more than 1.0e-10"):
            DensityMatrix(np.diag([0.6, 0.6]))

    def test_ingest_checks_the_trace_before_the_clamp(self):
        with pytest.raises(QinstrError, match="trace differs from 1 by 2.000e-01, more than 1.0e-10"):
            read(np.diag([0.7, 0.5, -1e-11]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(QinstrError, match="Hermiticity deviation 1.000e-01 exceeds 1.0e-10"):
            DensityMatrix(np.array([[0.5, 0.1], [0.0, 0.5]]))

    def test_rejects_a_stack(self):
        with pytest.raises(QinstrError, match="expected a 2-D matrix, got ndim=3"):
            DensityMatrix(np.stack([np.eye(2) / 2] * 2))


class TestAprioriState:
    def test_single_letter(self):
        e = Ensemble(("a",), np.array([1.0]), (PLUS.mat,))
        assert np.allclose(a_priori_state(e).mat, PLUS.mat)

    def test_orthogonal_pair(self):
        e = Ensemble((0, 1), np.array([0.5, 0.5]), (KET0.mat, KET1.mat))
        assert np.allclose(a_priori_state(e).mat, np.eye(2) / 2)

    def test_zero_plus_pair(self):
        e = Ensemble((0, 1), np.array([0.5, 0.5]), (KET0.mat, PLUS.mat))
        expected = np.array([[0.75, 0.25], [0.25, 0.25]])
        assert np.allclose(a_priori_state(e).mat, expected, atol=1e-12)

    def test_affine_in_the_mixing_weight(self):
        s1, s2, s3 = (random_density(2, np.random.default_rng(seed)) for seed in (1, 2, 3))
        lam = 0.3
        e1 = Ensemble((0, 1), np.array([0.6, 0.4]), (s1.mat, s2.mat))
        e2 = Ensemble((0, 1), np.array([0.2, 0.8]), (s3.mat, s1.mat))
        mixed_probs = lam * e1.probs + (1 - lam) * e2.probs
        # same letters, mixed letter states with matching conditional weights
        states = tuple(
            (lam * p1 * st1 + (1 - lam) * p2 * st2) / (lam * p1 + (1 - lam) * p2)
            for p1, st1, p2, st2 in zip(e1.probs, e1.states, e2.probs, e2.states)
        )
        e_mix = Ensemble((0, 1), mixed_probs, states)
        expect = lam * a_priori_state(e1).mat + (1 - lam) * a_priori_state(e2).mat
        assert np.max(np.abs(a_priori_state(e_mix).mat - expect)) < 1e-10

    def test_zero_probability_letter_rejected(self):
        with pytest.raises(QinstrError, match="letter probabilities must be strictly positive"):
            Ensemble((0, 1), np.array([1.0, 0.0]), (KET0.mat, KET1.mat))


class TestSupportCheck:
    def test_equal_pure(self):
        assert fidelity_like_support_check(KET0, KET0)

    def test_orthogonal_pure(self):
        assert not fidelity_like_support_check(KET0, KET1)

    def test_full_rank_reference(self):
        assert fidelity_like_support_check(KET0, maximally_mixed(2))

    def test_dim_mismatch(self):
        with pytest.raises(QinstrError, match="dims 2 and 3 differ"):
            fidelity_like_support_check(KET0, maximally_mixed(3))


class TestClassicalDist:
    @pytest.mark.parametrize("probs", [[1.0], [0.5, 0.25, 0.25], [[0.5, 0.5]]], ids=["short", "long", "matrix"])
    def test_one_probability_per_label(self, probs):
        with pytest.raises(QinstrError, match="labels and probabilities differ in length"):
            ClassicalDist((0, 1), np.array(probs))

    def test_bad_sum(self):
        with pytest.raises(QinstrError, match=r"probabilities sum to 1\.1, not 1"):
            ClassicalDist((0, 1), np.array([0.5, 0.6]))

    @pytest.mark.parametrize("bad", [np.nan, -1e-9])
    def test_rejects_nan_and_negative(self, bad):
        with pytest.raises(QinstrError, match="negative or NaN probability in"):
            ClassicalDist((0, 1), np.array([bad, 0.5]))

    def test_keeps_its_input(self):
        probs = np.array([0.3, 0.7 + 1e-12, -1e-13])
        d = ClassicalDist((0, 1, 2), probs)
        assert np.array_equal(d.probs, probs)
        assert probs.flags.writeable


class TestJson:
    def test_ensemble_roundtrip(self):
        s = example_scenario("zero-one-plus")
        e = s.ensemble
        e2 = ensemble_from_json(s.to_json()["ensemble"])
        assert e2.letters == e.letters
        assert np.allclose(e2.probs, e.probs)
        for s1, s2 in zip(e.states, e2.states):
            assert np.allclose(s1, s2)

    @staticmethod
    def jacobi_clamp(m):
        """The ingest rule, written out: the input when Jacobi's least
        eigenvalue is >= 0, else the clamped and renormalized spectrum rebuilt
        on Jacobi's eigenvectors; symmetrized, as DensityMatrix keeps it."""
        vals, vecs = matcore.jacobi_eig(m)
        if vals[0] < 0.0:
            vals = np.maximum(vals, 0.0)
            m = (vecs * (vals / vals.sum())) @ vecs.conj().T
        return 0.5 * (m + m.conj().T)

    @pytest.mark.parametrize("least", [0.0, 1e-17, -1e-17, 1e-11, 1e-9, None])
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_read_state_equals_jacobi_validation(self, least, dim):
        # LAPACK decomposes; only a least eigenvalue <= HERM_TOL goes on to
        # Jacobi, and either way the letter as given, which the scenario file
        # writes, is the matrix the Jacobi clamp gives
        rng = np.random.default_rng(dim)
        for _ in range(10):
            spectrum = rng.uniform(0.05, 1.0, dim)
            if least is not None:
                spectrum[0] = 0.0
                spectrum *= (1.0 - least) / spectrum.sum()
                spectrum[0] = least
            else:
                spectrum /= spectrum.sum()
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            m = (q * spectrum) @ q.conj().T
            assert np.array_equal(ingest(m).given_states[0], self.jacobi_clamp(m))


    def test_letters_read_as_one_stack_are_read_as_one_at_a_time(self):
        # the stacked reader clamps exactly the letters, and to exactly the
        # digits, that reading each letter alone gives, and its spectra are
        # those each letter's own decomposition gives
        rng = np.random.default_rng(11)
        for dim in (2, 3, 5):
            mats = []
            for least in (0.0, 1e-17, -1e-17, 1e-11, 1e-9, None):
                spectrum = rng.uniform(0.05, 1.0, dim)
                if least is not None:
                    spectrum[0] = 0.0
                    spectrum *= (1.0 - least) / spectrum.sum()
                    spectrum[0] = least
                else:
                    spectrum /= spectrum.sum()
                q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
                mats.append((q * spectrum) @ q.conj().T)
            e = ensemble_from_json({
                "letters": list(range(len(mats))),
                "probs": [1 / len(mats)] * len(mats),
                "states": [matrix_to_json(m) for m in mats],
            })
            assert not e.states.flags.writeable
            for m, letter, vals in zip(mats, e.states, e.eigenvalues):
                one, one_vals = read(m)
                assert np.array_equal(letter, one)
                assert np.array_equal(vals, one_vals)

    def test_a_stack_and_a_sequence_of_arrays_make_one_ensemble(self):
        # one path: what numpy.asarray reads as a [letter, d, d] stack
        e = Ensemble((0, 1), np.array([0.5, 0.5]), (KET0.mat, PLUS.mat))
        stacked = Ensemble((0, 1), np.array([0.5, 0.5]), np.stack([KET0.mat, PLUS.mat]))
        assert np.array_equal(e.states, stacked.states)
        assert np.array_equal(e.eigenvalues, stacked.eigenvalues)
        with pytest.raises(QinstrError, match="minimum eigenvalue -5.000e-01 below -1.0e-10"):
            Ensemble((0, 1), np.array([0.5, 0.5]), np.stack([KET0.mat, np.diag([1.5, -0.5])]))
        # ragged letters, and letters that are not numbers, form no stack;
        # a DensityMatrix is the oracles' type, not an Ensemble's letter
        for letters in ((KET0.mat, maximally_mixed(3).mat), (KET0, PLUS), (KET0.mat, [["a", "b"], ["c", "d"]])):
            with pytest.raises(QinstrError, match="letter states do not form one numeric stack"):
                Ensemble((0, 1), np.array([0.5, 0.5]), letters)


def test_density_matrix_requires_unit_trace():
    with pytest.raises(QinstrError, match="trace differs from 1 by 1.000e.00, more than 1.0e-10"):
        DensityMatrix(np.eye(2))


def ginibre(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


class TestDecomposeOnce:
    def test_keeps_its_own_decomposition(self):
        rng = np.random.default_rng(0)
        for dim in range(2, 9):
            for _ in range(5):
                rho = DensityMatrix(ginibre(dim, rng))
                vals, vecs = rho.spectral()
                ref_vals, ref_vecs = matcore.herm_eig(rho.mat)
                assert np.array_equal(vals, ref_vals)
                assert np.array_equal(vecs, ref_vecs)

    def test_one_eig_without_clamping(self, monkeypatch):
        m = ginibre(3, np.random.default_rng(1))
        counts = {"herm_eig": 0}
        monkeypatch.setattr(matcore, "herm_eig", counted(counts, "herm_eig", matcore.herm_eig))
        DensityMatrix(m)
        assert counts == {"herm_eig": 1}

    @pytest.mark.parametrize("build", [
        lambda rng: DensityMatrix(ginibre(3, rng)),
        lambda rng: Ensemble((0, 1, 2), np.array([0.2, 0.3, 0.5]), np.stack([ginibre(3, rng) for _ in range(3)])),
    ], ids=["DensityMatrix", "Ensemble"])
    def test_one_rule_of_a_state(self, monkeypatch, build):
        # the rules of a state live in one place: a state's matrix, or an
        # ensemble's stack, passes the Hermiticity rule once and is decomposed
        # once, by the one eigh entry
        counts = {"hermitian_part": 0, "herm_eig": 0}
        monkeypatch.setattr(matcore, "hermitian_part", counted(counts, "hermitian_part", matcore.hermitian_part))
        monkeypatch.setattr(matcore, "herm_eig", counted(counts, "herm_eig", matcore.herm_eig))
        build(np.random.default_rng(3))
        assert counts == {"hermitian_part": 1, "herm_eig": 1}

    def test_ensemble_decomposes_its_letters_once(self, monkeypatch):
        # a sequence of letters is stacked, checked by the rules of a state and
        # decomposed by one batched eigh, whose eigenvalues are the ones each
        # letter's own decomposition gives; no eigenvector is kept
        rng = np.random.default_rng(2)
        letters = tuple(ginibre(3, rng) for _ in range(3))
        probs = np.array([0.2, 0.3, 0.5])
        counts = {"eigh": 0}
        monkeypatch.setattr(np.linalg, "eigh", counted(counts, "eigh", np.linalg.eigh))
        e = Ensemble((0, 1, 2), probs, letters)
        assert counts == {"eigh": 1}
        for i, rho in enumerate(map(DensityMatrix, letters)):
            assert np.array_equal(e.states[i], rho.mat)
            assert np.array_equal(e.eigenvalues[i], rho.spectral().eigenvalues)
        assert not e.states.flags.writeable and not e.eigenvalues.flags.writeable
        assert [f.name for f in fields(Ensemble)] == ["letters", "probs", "states", "eigenvalues", "given_states"]

    def test_letters_are_normalized_once_and_kept_as_given(self, monkeypatch):
        # letters whose traces are off 1 within HERM_TOL are kept as given
        # (their Hermitian part) for the scenario file, and the stages read
        # each divided by its trace, with its eigenvalues divided alike: still
        # one eigh
        rng = np.random.default_rng(4)
        letters = np.array([(1.0 + eps) * ginibre(3, rng) for eps in (0.9e-10, -0.9e-10, 0.0)])
        counts = {"eigh": 0}
        monkeypatch.setattr(np.linalg, "eigh", counted(counts, "eigh", np.linalg.eigh))
        e = Ensemble((0, 1, 2), np.array([0.2, 0.3, 0.5]), letters)
        assert counts == {"eigh": 1}
        for i, rho in enumerate(map(DensityMatrix, letters)):
            tr = np.trace(rho.mat).real
            assert np.array_equal(e.given_states[i], rho.mat)
            assert np.array_equal(e.states[i], rho.mat / tr)
            assert np.array_equal(e.eigenvalues[i], rho.spectral().eigenvalues / tr)
            assert abs(np.trace(e.states[i]).real - 1.0) <= 4e-16
        assert not (e.given_states.flags.writeable or e.states.flags.writeable
                    or e.eigenvalues.flags.writeable)

    def test_clamping_redecomposes(self, monkeypatch):
        counts = {"eigh": 0, "jacobi_eig": 0}
        monkeypatch.setattr(np.linalg, "eigh", counted(counts, "eigh", np.linalg.eigh))
        monkeypatch.setattr(matcore, "jacobi_eig", counted(counts, "jacobi_eig", matcore.jacobi_eig))
        # at ingest: LAPACK finds the state at the edge, Jacobi decomposes it
        # for the clamp, and the rebuilt stack is decomposed once more
        _, vals = read(np.diag([0.7 + 1e-11, 0.3, -1e-11]))
        assert counts == {"eigh": 2, "jacobi_eig": 1}
        assert vals[0] >= 0.0


# one rule set: each bad input fails DensityMatrix and an Ensemble given a
# stack (ingest's path) alike, with the same message. Only inputs are checked:
# a state derived from them is a state by construction, and vn_entropies does
# not judge it again. Each id names the rule that fails.
BAD_STATES = [
    pytest.param(np.array([[np.nan, 0.0], [0.0, 0.5]]), "matrix contains NaN/Inf entries",
                 id="NotHermitian-m0"),
    pytest.param(np.full((2, 3), 1 / 3), r"matrix of shape \(1, 2, 3\) is not square", id="NotHermitian-m1"),
    pytest.param(np.array([[0.5, 0.1], [0.0, 0.5]]), "Hermiticity deviation 1.000e-01 exceeds 1.0e-10",
                 id="NotHermitian-m2"),
    pytest.param(np.diag([0.6, 0.6]), "trace differs from 1 by 2.000e-01, more than 1.0e-10", id="BadTrace-m3"),
    pytest.param(np.diag([1.5, -0.5]), "minimum eigenvalue -5.000e-01 below -1.0e-10", id="NotPositive-m4"),
    pytest.param(np.diag([1.0 + 2 * HERM_TOL, -2 * HERM_TOL]), "minimum eigenvalue -2.000e-10 below -1.0e-10",
                 id="NotPositive-m5"),
]


@pytest.mark.parametrize("states", [np.ones((1, 2)), np.ones((1, 2, 2, 2))], ids=["matrix-rows", "stack-of-stacks"])
def test_ensemble_states_are_a_letter_stack_of_matrices(states):
    with pytest.raises(QinstrError, match=re.escape(f"expected a [letter, d, d] stack, got shape {states.shape}")):
        Ensemble((0,), np.array([1.0]), states)


@pytest.mark.parametrize("m, match", BAD_STATES)
def test_density_matrix_and_ensemble_share_the_rules(m, match):
    with pytest.raises(QinstrError, match=match):
        DensityMatrix(m)
    with pytest.raises(QinstrError, match=match):
        Ensemble((0,), np.array([1.0]), m[None])
