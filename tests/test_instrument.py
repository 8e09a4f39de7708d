import numpy as np
import pytest

from qinstr import matcore
from qinstr.errors import DimensionMismatch, UnknownOutcome
from qinstr.instrument import (
    Instrument,
    KrausMap,
    a_posteriori,
    a_posteriori_stack,
    apply_outcome,
    channel_roundtrip,
    min_output_purity,
    outcome_probs,
    povm_of,
    random_instrument,
    total_channel,
)
from qinstr.qstate import maximally_mixed, pure_state, validate_density

KET0 = pure_state([1, 0])
PLUS = pure_state([1 / np.sqrt(2), 1 / np.sqrt(2)])


def identity_instrument(dim=2):
    return Instrument((0,), (KrausMap(dim, dim, (np.eye(dim, dtype=complex),)),))


def projective_qubit():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    return Instrument((0, 1), (KrausMap(2, 2, (p0,)), KrausMap(2, 2, (p1,))))


class TestApplyOutcome:
    def test_identity(self):
        out = apply_outcome(identity_instrument(), PLUS, 0)
        assert np.allclose(out, PLUS.mat)

    def test_projective_on_plus(self):
        out = apply_outcome(projective_qubit(), PLUS, 0)
        assert np.allclose(out, 0.5 * KET0.mat, atol=1e-12)

    def test_traces_sum_to_one(self):
        ins = random_instrument(3, 2, 3, 2, seed=5)
        rho = maximally_mixed(3)
        total = sum(np.trace(apply_outcome(ins, rho, w)).real for w in ins.outcomes)
        assert abs(total - 1.0) < 1e-10

    def test_unknown_outcome(self):
        with pytest.raises(UnknownOutcome):
            apply_outcome(identity_instrument(), PLUS, "nope")

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_outcome(identity_instrument(2), maximally_mixed(3), 0)


class TestPovm:
    def test_identity(self):
        povm = povm_of(identity_instrument())
        assert np.allclose(povm.effects[0], np.eye(2))

    def test_projective(self):
        povm = povm_of(projective_qubit())
        assert np.allclose(povm.effects[0], np.diag([1.0, 0.0]))
        assert np.allclose(povm.effects[1], np.diag([0.0, 1.0]))

    def test_random_instrument_gives_valid_povm(self):
        ins = random_instrument(2, 3, 4, 2, seed=9)
        povm = povm_of(ins)  # constructor re-checks PSD and sum-to-identity
        total = sum(povm.effects)
        assert np.max(np.abs(total - np.eye(2))) < 1e-9


class TestOutcomeProbs:
    def test_identity(self):
        probs = outcome_probs(identity_instrument(), PLUS)
        assert np.allclose(probs.probs, [1.0])

    def test_projective_on_plus(self):
        probs = outcome_probs(projective_qubit(), PLUS)
        assert np.allclose(probs.probs, [0.5, 0.5], atol=1e-12)

    def test_projective_diagonal(self):
        rho = validate_density(np.diag([0.75, 0.25]))
        probs = outcome_probs(projective_qubit(), rho)
        assert np.allclose(probs.probs, [0.75, 0.25], atol=1e-12)

    def test_two_routes_agree(self):
        # Tr{I(w)[rho]} and Tr{E(w) rho} coincide
        ins = random_instrument(3, 2, 3, 2, seed=17)
        rng = np.random.default_rng(4)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = validate_density(g @ g.conj().T / np.trace(g @ g.conj().T).real)
        via_effects = outcome_probs(ins, rho).probs
        via_action = np.array(
            [np.trace(apply_outcome(ins, rho, w)).real for w in ins.outcomes]
        )
        assert np.max(np.abs(via_effects - via_action)) < 1e-10

    def test_affinity(self):
        ins = random_instrument(2, 2, 3, 2, seed=23)
        rng = np.random.default_rng(8)

        def rand_dm():
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            m = g @ g.conj().T
            return validate_density(m / np.trace(m).real)

        r1, r2 = rand_dm(), rand_dm()
        lam = 0.37
        mixed = validate_density(lam * r1.mat + (1 - lam) * r2.mat)
        expect = lam * outcome_probs(ins, r1).probs + (1 - lam) * outcome_probs(ins, r2).probs
        assert np.max(np.abs(outcome_probs(ins, mixed).probs - expect)) < 1e-10


class TestAposteriori:
    def test_projective_on_plus(self):
        fam = a_posteriori(projective_qubit(), PLUS)
        assert np.allclose(fam.states[0].mat, np.diag([1.0, 0.0]), atol=1e-12)
        assert np.allclose(fam.states[1].mat, np.diag([0.0, 1.0]), atol=1e-12)

    def test_identity(self):
        fam = a_posteriori(identity_instrument(), PLUS)
        assert np.allclose(fam.states[0].mat, PLUS.mat)

    def test_zero_probability_gets_default(self):
        fam = a_posteriori(projective_qubit(), KET0, default=PLUS)
        assert fam.probs.probs[1] == 0.0
        assert fam.states[1] is PLUS

    def test_mixture_property_random(self):
        # sum_w P(w) pi(w) = I(Omega)[rho] on many random instances
        for k in range(200):
            rng = np.random.default_rng(1000 + k)
            d1, d2 = rng.integers(2, 4), rng.integers(2, 4)
            ins = random_instrument(int(d1), int(d2), int(rng.integers(2, 4)), int(rng.integers(1, 3)), seed=2000 + k)
            g = rng.standard_normal((d1, d1)) + 1j * rng.standard_normal((d1, d1))
            rho = validate_density(g @ g.conj().T / np.trace(g @ g.conj().T).real)
            fam = a_posteriori(ins, rho)
            mix = sum(p * s.mat for p, s in zip(fam.probs.probs, fam.states) if p > 1e-12)
            assert np.max(np.abs(mix - total_channel(ins, rho).mat)) < 1e-9

    def test_rank1_kraus_preserves_purity(self):
        for k in range(20):
            ins = random_instrument(2, 3, 3, 1, seed=300 + k)
            rng = np.random.default_rng(k)
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            rho = pure_state(v)
            fam = a_posteriori(ins, rho)
            for p, s in zip(fam.probs.probs, fam.states):
                if p > 1e-12:
                    assert s.purity() >= 1 - 1e-9


class TestStacks:
    def test_a_posteriori_stack_matches_per_state(self):
        ins = random_instrument(3, 2, 3, 2, seed=9)
        rng = np.random.default_rng(9)
        states = []
        for _ in range(4):
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            states.append(validate_density(g @ g.conj().T / np.trace(g @ g.conj().T).real))
        probs, posts = a_posteriori_stack(ins, np.stack([s.mat for s in states]))
        for n, rho in enumerate(states):
            fam = a_posteriori(ins, rho)
            assert np.allclose(probs[:, n], fam.probs.probs, atol=1e-12)
            for w, post in enumerate(fam.states):
                assert np.allclose(posts[w, n], post.mat, atol=1e-12)

    def test_null_outcome_is_maximally_mixed(self):
        probs, posts = a_posteriori_stack(projective_qubit(), KET0.mat[None])
        assert np.allclose(probs[:, 0], [1.0, 0.0])
        assert np.allclose(posts[1, 0], maximally_mixed(2).mat)

    def test_min_output_purity(self):
        kets = np.array([[1.0, 0.0], [1.0, 1.0]], dtype=complex) / [[1.0], [np.sqrt(2)]]
        assert abs(min_output_purity(projective_qubit(), kets) - 1.0) < 1e-12
        # Kraus operators |k><j| / sqrt(2): every input goes to I/2
        units = tuple(
            np.outer(np.eye(2)[k], np.eye(2)[j]).astype(complex) / np.sqrt(2)
            for k in range(2)
            for j in range(2)
        )
        depolarize = Instrument((0,), (KrausMap(2, 2, units),))
        assert abs(min_output_purity(depolarize, kets) - 0.5) < 1e-12


class TestTotalChannel:
    def test_identity(self):
        assert np.allclose(total_channel(identity_instrument(), PLUS).mat, PLUS.mat)

    def test_projective_on_plus(self):
        out = total_channel(projective_qubit(), PLUS)
        assert np.allclose(out.mat, np.eye(2) / 2, atol=1e-12)

    def test_random_trace_one(self):
        ins = random_instrument(3, 3, 2, 2, seed=77)
        out = total_channel(ins, maximally_mixed(3))
        assert abs(np.trace(out.mat).real - 1.0) < 1e-10


class TestChannelRoundtrip:
    @pytest.mark.parametrize(
        "make",
        [identity_instrument, projective_qubit, lambda: random_instrument(2, 2, 2, 2, seed=3)],
    )
    def test_action_identical_on_matrix_units(self, make):
        ins = make()
        rebuilt = channel_roundtrip(ins)
        d1 = ins.dim_in
        for w, (m1, m2) in enumerate(zip(ins.maps, rebuilt.maps)):
            for j in range(d1):
                for k in range(d1):
                    unit = np.zeros((d1, d1), dtype=complex)
                    unit[j, k] = 1.0
                    assert np.max(np.abs(m1.apply(unit) - m2.apply(unit))) < 1e-10


class TestRandomInstrument:
    def test_deterministic(self):
        a = random_instrument(2, 3, 3, 2, seed=11)
        b = random_instrument(2, 3, 3, 2, seed=11)
        for ma, mb in zip(a.maps, b.maps):
            for ka, kb in zip(ma.kraus, mb.kraus):
                assert np.array_equal(ka, kb)

    def test_normalization(self):
        ins = random_instrument(3, 2, 4, 2, seed=13)
        total = sum(m.effect() for m in ins.maps)
        assert np.max(np.abs(total - np.eye(3))) < 1e-9

    def test_single_outcome_channel(self):
        ins = random_instrument(2, 2, 1, 4, seed=19)
        out = total_channel(ins, PLUS)
        assert abs(np.trace(out.mat).real - 1.0) < 1e-10

    def test_normalizer_decomposed_once(self, monkeypatch):
        calls = []
        herm_eig = matcore.herm_eig

        def counted(a):
            calls.append(a)
            return herm_eig(a)

        monkeypatch.setattr(matcore, "herm_eig", counted)
        random_instrument(3, 2, 3, 2, seed=13)
        assert len(calls) == 1
