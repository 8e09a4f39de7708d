import numpy as np
import pytest

from conftest import KET0, PLUS, projective_qubit, pure
from qinstr import matcore
from qinstr.errors import QinstrError
from qinstr.instrument import (
    Instrument,
    KrausMap,
    a_posteriori_stack,
    random_instrument,
)
from qinstr.qstate import DensityMatrix
from qinstr.reference import (
    a_posteriori,
    apply_outcome,
    channel_roundtrip,
    map_action,
    maximally_mixed,
    merge_outcomes,
    outcome_probs,
    purity,
    quantum_info_gain,
    total_channel,
)


def identity_instrument(dim=2):
    return Instrument((0,), (KrausMap(dim, dim, (np.eye(dim, dtype=complex),)),))


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
        with pytest.raises(QinstrError, match="no outcome 'nope'"):
            apply_outcome(identity_instrument(), PLUS, "nope")

    def test_dim_mismatch(self):
        with pytest.raises(QinstrError, match="state dim 3 vs instrument dim_in 2"):
            apply_outcome(identity_instrument(2), maximally_mixed(3), 0)


@pytest.mark.parametrize("oracle", [outcome_probs, total_channel, quantum_info_gain])
def test_each_per_state_oracle_checks_the_state_dimension(oracle):
    with pytest.raises(QinstrError, match="state dim 3 vs instrument dim_in 2"):
        oracle(identity_instrument(2), maximally_mixed(3))


def kraus_loop_effects(ins):
    """E(w) = sum_k K_k^dag K_k, one Kraus operator at a time."""
    out = []
    for m in ins.maps:
        e = np.zeros((ins.dim_in, ins.dim_in), dtype=complex)
        for k in m.kraus:
            e += k.conj().T @ k
        out.append(e)
    return np.array(out)


class TestPovm:
    """The instrument's POV measure, ``Instrument.effects``."""

    def test_identity(self):
        assert np.allclose(identity_instrument().effects, [np.eye(2)])

    def test_projective(self):
        effects = projective_qubit().effects
        assert np.allclose(effects[0], np.diag([1.0, 0.0]))
        assert np.allclose(effects[1], np.diag([0.0, 1.0]))

    def test_random_instrument_gives_valid_povm(self):
        ins = random_instrument(2, 3, 4, 2, seed=9)
        assert ins.effects.shape == (4, 2, 2)
        assert np.max(np.abs(ins.effects.sum(axis=0) - np.eye(2))) < 1e-9

    @pytest.mark.parametrize("shape,seed", [((2, 3, 4, 2), 9), ((3, 2, 3, 1), 10), ((3, 3, 2, 3), 11)])
    def test_matches_the_kraus_loop(self, shape, seed):
        ins = random_instrument(*shape, seed=seed)
        assert np.allclose(ins.effects, kraus_loop_effects(ins), rtol=0, atol=1e-14)

    def test_merged_outcomes_with_unequal_kraus_counts(self):
        ins = random_instrument(3, 2, 3, 2, seed=30)
        merged = merge_outcomes(ins, ins.outcomes[0], ins.outcomes[1])
        assert [len(m.kraus) for m in merged.maps] == [4, 2]
        assert np.allclose(merged.effects, kraus_loop_effects(merged), rtol=0, atol=1e-14)
        assert np.allclose(merged.effects[0], ins.effects[0] + ins.effects[1], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_effects_are_positive(self, seed):
        ins = random_instrument(3, 2, 4, 1, seed=40 + seed)
        assert np.linalg.eigvalsh(ins.effects).min() >= -1e-14

    def test_effects_missing_the_identity_are_a_bad_trace(self):
        half = KrausMap(2, 2, (np.sqrt(0.5) * np.eye(2, dtype=complex),))
        with pytest.raises(QinstrError, match="sum of effects deviates from identity by 5.000e-01"):
            Instrument((0,), (half,))


class TestKrausMap:
    def test_empty_kraus_tuple_rejected(self):
        with pytest.raises(QinstrError, match="a Kraus map needs at least one Kraus operator"):
            KrausMap(2, 2, ())

    def test_tuple_and_array_build_the_same_read_only_stack(self):
        ops = random_instrument(3, 2, 1, 3, seed=8).maps[0].kraus
        from_tuple = KrausMap(3, 2, tuple(np.array(k) for k in ops))
        from_array = KrausMap(3, 2, np.array(ops))
        for m in (from_tuple, from_array):
            assert m.kraus.shape == (3, 2, 3) and m.kraus.dtype == np.complex128
            assert not m.kraus.flags.writeable
            with pytest.raises(ValueError):
                m.kraus[0, 0, 0] = 0.0
        assert (from_tuple.dim_in, from_tuple.dim_out) == (from_array.dim_in, from_array.dim_out)
        assert np.array_equal(from_tuple.kraus, from_array.kraus)

    @pytest.mark.parametrize("shape,seed", [((2, 3, 4, 2), 9), ((3, 2, 3, 1), 10), ((3, 3, 2, 3), 11)])
    def test_apply_equals_the_kraus_loop(self, shape, seed):
        ins = random_instrument(*shape, seed=seed)
        rho = maximally_mixed(ins.dim_in).mat + 0.1j * np.triu(np.ones((ins.dim_in,) * 2), 1)
        for m in ins.maps:
            loop = np.zeros((m.dim_out, m.dim_out), dtype=complex)
            for k in m.kraus:
                loop += k @ rho @ k.conj().T
            assert np.array_equal(map_action(m, rho), loop)

    def test_the_stack_is_the_callers_copy(self):
        ops = np.stack([np.eye(2, dtype=complex)] * 2) / np.sqrt(2)
        m = KrausMap(2, 2, ops)
        ops[0] = 0.0
        assert ops.flags.writeable and np.array_equal(m.kraus[0], np.eye(2) / np.sqrt(2))

    @pytest.mark.parametrize("kraus", [
        (np.eye(2), np.eye(3)),  # operators of different shapes
        np.eye(2),  # one matrix, not a stack of them
        (np.ones((3, 2)),),  # d2 x d1 = 3 x 2, not 2 x 2
    ], ids=["ragged", "matrix", "wrong-shape"])
    def test_bad_shapes_are_a_dimension_mismatch(self, kraus):
        with pytest.raises(QinstrError, match=r"Kraus operators (do not form one array|stacked as \(.+\), expected \(k, 2, 2\))"):
            KrausMap(2, 2, kraus)

    def test_non_finite_entry_rejected(self):
        with pytest.raises(QinstrError, match="Kraus operators contain NaN/Inf entries"):
            KrausMap(2, 2, (np.diag([1.0, np.inf]),))

    @pytest.mark.parametrize("d1, d2", [(3, 2), (2, 3)])
    def test_maps_of_other_dimensions_are_rejected(self, d1, d2):
        other = KrausMap(d1, d2, (np.zeros((d2, d1), dtype=complex),))
        with pytest.raises(QinstrError, match="Kraus maps have inconsistent dimensions"):
            Instrument((0, 1), (identity_instrument(2).maps[0], other))


def kraus_loop_channel_matrix(ins):
    """The channel matrix one outcome and one Kraus operator at a time:
    sum_k K_k (x) conj(K_k), summed in order."""
    return np.concatenate([
        sum(matcore.kron(k, k.conj()) for k in m.kraus) for m in ins.maps
    ])


class TestChannelMatrix:
    @pytest.mark.parametrize("shape,seed", [((2, 3, 4, 2), 9), ((3, 2, 3, 1), 10), ((3, 3, 2, 3), 11)])
    def test_equals_the_per_map_kron_loop(self, shape, seed):
        ins = random_instrument(*shape, seed=seed)
        assert np.array_equal(ins.channel_matrix, kraus_loop_channel_matrix(ins))

    def test_ragged_kraus_counts(self):
        ins = random_instrument(3, 2, 4, 1, seed=31)
        merged = merge_outcomes(merge_outcomes(ins, 0, 1), "0+1", 2)
        assert [len(m.kraus) for m in merged.maps] == [3, 1]
        assert np.array_equal(merged.channel_matrix, kraus_loop_channel_matrix(merged))
        ins = random_instrument(2, 3, 3, 2, seed=32)
        merged = merge_outcomes(ins, 1, 2)
        assert [len(m.kraus) for m in merged.maps] == [2, 4]
        assert np.array_equal(merged.channel_matrix, kraus_loop_channel_matrix(merged))


class TestOutcomeProbs:
    def test_identity(self):
        probs = outcome_probs(identity_instrument(), PLUS)
        assert np.allclose(probs.probs, [1.0])

    def test_projective_on_plus(self):
        probs = outcome_probs(projective_qubit(), PLUS)
        assert np.allclose(probs.probs, [0.5, 0.5], atol=1e-12)

    def test_projective_diagonal(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        probs = outcome_probs(projective_qubit(), rho)
        assert np.allclose(probs.probs, [0.75, 0.25], atol=1e-12)

    def test_two_routes_agree(self):
        # Tr{I(w)[rho]} and Tr{E(w) rho} coincide
        ins = random_instrument(3, 2, 3, 2, seed=17)
        rng = np.random.default_rng(4)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = DensityMatrix(g @ g.conj().T / np.trace(g @ g.conj().T).real)
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
            return DensityMatrix(m / np.trace(m).real)

        r1, r2 = rand_dm(), rand_dm()
        lam = 0.37
        mixed = DensityMatrix(lam * r1.mat + (1 - lam) * r2.mat)
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
        # the null-cell rule of _posteriors: probability 0 and the fill I/d2
        fam = a_posteriori(projective_qubit(), KET0)
        assert fam.probs.probs[1] == 0.0
        assert np.array_equal(fam.states[1].mat, np.eye(2) / 2)

    def test_mixture_property_random(self):
        # sum_w P(w) pi(w) = I(Omega)[rho] on many random instances
        for k in range(200):
            rng = np.random.default_rng(1000 + k)
            d1, d2 = rng.integers(2, 4), rng.integers(2, 4)
            ins = random_instrument(int(d1), int(d2), int(rng.integers(2, 4)), int(rng.integers(1, 3)), seed=2000 + k)
            g = rng.standard_normal((d1, d1)) + 1j * rng.standard_normal((d1, d1))
            rho = DensityMatrix(g @ g.conj().T / np.trace(g @ g.conj().T).real)
            fam = a_posteriori(ins, rho)
            mix = sum(p * s.mat for p, s in zip(fam.probs.probs, fam.states) if p > 1e-12)
            assert np.max(np.abs(mix - total_channel(ins, rho).mat)) < 1e-9

    def test_rank1_kraus_preserves_purity(self):
        for k in range(20):
            ins = random_instrument(2, 3, 3, 1, seed=300 + k)
            rng = np.random.default_rng(k)
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            rho = pure(v)
            fam = a_posteriori(ins, rho)
            for p, s in zip(fam.probs.probs, fam.states):
                if p > 1e-12:
                    assert purity(s) >= 1 - 1e-9


class TestStacks:
    def test_a_posteriori_stack_matches_per_state(self):
        ins = random_instrument(3, 2, 3, 2, seed=9)
        rng = np.random.default_rng(9)
        states = []
        for _ in range(4):
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            states.append(DensityMatrix(g @ g.conj().T / np.trace(g @ g.conj().T).real))
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
                    assert np.max(np.abs(map_action(m1, unit) - map_action(m2, unit))) < 1e-10


class TestRandomInstrument:
    def test_deterministic(self):
        a = random_instrument(2, 3, 3, 2, seed=11)
        b = random_instrument(2, 3, 3, 2, seed=11)
        for ma, mb in zip(a.maps, b.maps):
            for ka, kb in zip(ma.kraus, mb.kraus):
                assert np.array_equal(ka, kb)

    def test_normalization(self):
        ins = random_instrument(3, 2, 4, 2, seed=13)
        assert np.max(np.abs(ins.effects.sum(axis=0) - np.eye(3))) < 1e-9

    def test_single_outcome_channel(self):
        ins = random_instrument(2, 2, 1, 4, seed=19)
        out = total_channel(ins, PLUS)
        assert abs(np.trace(out.mat).real - 1.0) < 1e-10

    @pytest.mark.parametrize("shape", [(0, 2, 2, 1), (2, 0, 2, 1), (2, 2, 0, 1), (2, 2, 2, 0)],
                             ids=["d1", "d2", "outcomes", "kraus"])
    def test_counts_below_one_are_rejected(self, shape):
        with pytest.raises(QinstrError, match="all dimensions and counts must be positive"):
            random_instrument(*shape, seed=0)

    def test_normalizer_decomposed_once(self, monkeypatch):
        calls = []
        jacobi_eig = matcore.jacobi_eig

        def counted(a):
            calls.append(a)
            return jacobi_eig(a)

        monkeypatch.setattr(matcore, "jacobi_eig", counted)
        random_instrument(3, 2, 3, 2, seed=13)
        assert len(calls) == 1
