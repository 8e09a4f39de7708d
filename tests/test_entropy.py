import math

import numpy as np
import pytest

from conftest import KET0, KET1, PLUS, pure
from qinstr import matcore
from qinstr.entropy import chi_against, vn_entropies
from qinstr.errors import NoConvergence, QinstrError
from qinstr.instrument import random_instrument
from qinstr.qstate import DensityMatrix
from oracle import (
    ClassicalDist,
    c_rel_entropy,
    fidelity_like_support_check,
    maximally_mixed,
    mixed_rel_entropy,
    q_rel_entropy,
    random_density,
    total_channel,
    vn_entropy,
)


def rand_dm(dim, seed):
    return random_density(dim, np.random.default_rng(seed))


class TestVnEntropy:
    def test_pure_state(self):
        assert vn_entropy(KET0) == 0.0

    def test_maximally_mixed_qubit(self):
        assert abs(vn_entropy(maximally_mixed(2)) - math.log(2)) < 1e-12

    def test_three_quarters(self):
        # -(3/4) log(3/4) - (1/4) log(1/4), scalar oracle
        expected = 0.75 * math.log(4 / 3) + 0.25 * math.log(4)
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        assert abs(vn_entropy(rho) - expected) < 1e-12
        assert abs(expected - 0.5623351446188083) < 1e-15

    def test_bounded_by_log_dim(self):
        for seed in range(5):
            rho = rand_dm(3, seed)
            s = vn_entropy(rho)
            assert -1e-12 <= s <= math.log(3) + 1e-9


class TestVnEntropies:
    def test_matches_per_state_entropy(self):
        states = [rand_dm(4, seed) for seed in range(6)] + [pure([1, 2j, 0, 1])]
        batched = vn_entropies(np.stack([s.mat for s in states]))
        for s, value in zip(states, batched):
            assert abs(value - vn_entropy(s)) < 1e-12

    def test_tiny_negativity_stays_outside_the_support(self):
        # kept, not clamped: both entropies leave the eigenvalue -1e-11 out
        m = np.diag([0.7 + 1e-11, 0.3, -1e-11])
        rho = DensityMatrix(m)
        assert rho.spectral().eigenvalues[0] == -1e-11
        value = vn_entropies(m[None])[0]
        assert value == pytest.approx(-(0.7 + 1e-11) * math.log(0.7 + 1e-11) - 0.3 * math.log(0.3), abs=1e-15)
        assert abs(value - vn_entropy(rho)) < 1e-15

    def test_empty_stack(self):
        assert vn_entropies(np.zeros((0, 3, 3))).shape == (0,)

    def test_non_finite_entropy_is_a_numerical_failure(self):
        # a derived state is not checked again, so a NaN that reached one is a
        # failed numerical step (exit 3), never a NaN row (exit 1)
        stack = np.stack([np.eye(2) / 2, np.full((2, 2), np.nan)])
        with pytest.raises(NoConvergence, match="not finite"):
            vn_entropies(stack)


class TestQRelEntropy:
    def test_self_is_zero(self):
        rho = rand_dm(3, 1)
        assert abs(q_rel_entropy(rho, rho)) < 1e-10

    def test_orthogonal_pure_is_infinite(self):
        assert math.isinf(q_rel_entropy(KET0, KET1))

    def test_dim_mismatch(self):
        with pytest.raises(QinstrError, match="dims 2 and 3 differ"):
            q_rel_entropy(KET0, maximally_mixed(3))

    def test_weight_on_the_kernel_below_the_support_check_is_infinite(self):
        # sigma = (1 + e) |u1><u1| - e |u2><u2|, a state within HERM_TOL, with
        # |<1|u1>|^2 = e: its <1|sigma|1> is ~0, so the support check passes,
        # but its live eigenvalue carries weight e > SUPPORT_CUTOFF onto the
        # kernel of tau = |0><0|
        e = 5e-12
        u1, u2 = np.array([math.sqrt(1 - e), math.sqrt(e)]), np.array([-math.sqrt(e), math.sqrt(1 - e)])
        sigma = DensityMatrix((1 + e) * np.outer(u1, u1) - e * np.outer(u2, u2))
        assert fidelity_like_support_check(sigma, KET0)
        assert q_rel_entropy(sigma, KET0) == math.inf

    def test_commuting_reduces_to_kl(self):
        sigma = DensityMatrix(np.diag([0.5, 0.5]))
        tau = DensityMatrix(np.diag([0.75, 0.25]))
        expected = 0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
        assert abs(q_rel_entropy(sigma, tau) - expected) < 1e-12
        assert abs(expected - 0.14384103622589045) < 1e-15

    def test_klein_inequality(self):
        for seed in range(30):
            s = rand_dm(3, 2 * seed)
            t = rand_dm(3, 2 * seed + 1)
            val = q_rel_entropy(s, t)
            assert val >= -1e-9
            # zero iff equal
            if val < 1e-8:
                assert np.max(np.abs(s.mat - t.mat)) < 1e-4

    def test_uhlmann_monotone_under_channels(self):
        # criterion: 100 random (sigma, tau, channel) triples
        for k in range(100):
            s = rand_dm(2, 3000 + k)
            t = rand_dm(2, 4000 + k)
            chan = random_instrument(2, 2, 1, 3, seed=5000 + k)
            before = q_rel_entropy(s, t)
            after = q_rel_entropy(total_channel(chan, s), total_channel(chan, t))
            assert after <= before + 1e-8

    def test_uhlmann_monotone_under_partial_trace(self):
        # criterion: 100 random bipartite pairs
        for k in range(100):
            s12 = rand_dm(4, 6000 + k)
            t12 = rand_dm(4, 7000 + k)
            before = q_rel_entropy(s12, t12)
            s1 = DensityMatrix(matcore.partial_trace(s12.mat, "second", 2, 2))
            t1 = DensityMatrix(matcore.partial_trace(t12.mat, "second", 2, 2))
            assert q_rel_entropy(s1, t1) <= before + 1e-8


class TestCRelEntropy:
    def test_equal(self):
        p = ClassicalDist((0, 1), np.array([0.3, 0.7]))
        assert c_rel_entropy(p, p) == 0.0

    def test_disjoint_support(self):
        p = ClassicalDist((0, 1), np.array([1.0, 0.0]))
        q = ClassicalDist((0, 1), np.array([0.0, 1.0]))
        assert math.isinf(c_rel_entropy(p, q))

    def test_scalar_formula(self):
        p = ClassicalDist((0, 1), np.array([0.5, 0.5]))
        q = ClassicalDist((0, 1), np.array([0.75, 0.25]))
        assert abs(c_rel_entropy(p, q) - 0.14384103622589045) < 1e-12

    def test_null_entry_of_p_adds_nothing(self):
        p = ClassicalDist((0, 1), np.array([0.0, 1.0]))
        q = ClassicalDist((0, 1), np.array([0.0, 1.0]))
        assert c_rel_entropy(p, q) == 0.0
        assert c_rel_entropy(p, ClassicalDist((0, 1), np.array([0.5, 0.5]))) == math.log(2)

    def test_label_sets_must_agree(self):
        half = np.array([0.5, 0.5])
        with pytest.raises(QinstrError, match="distributions live on different label sets"):
            c_rel_entropy(ClassicalDist((0, 1), half), ClassicalDist((0, 2), half))


class TestMixedRelEntropy:
    def test_identical_families(self):
        p = ClassicalDist((0, 1), np.array([0.4, 0.6]))
        states = (rand_dm(2, 1), rand_dm(2, 2))
        assert abs(mixed_rel_entropy((p, states), (p, states))) < 1e-10

    def test_reduces_to_classical(self):
        p1 = ClassicalDist((0, 1), np.array([0.5, 0.5]))
        p2 = ClassicalDist((0, 1), np.array([0.75, 0.25]))
        states = (rand_dm(2, 3), rand_dm(2, 4))
        got = mixed_rel_entropy((p1, states), (p2, states))
        assert abs(got - c_rel_entropy(p1, p2)) < 1e-10

    def test_reduces_to_mean_quantum(self):
        p = ClassicalDist((0, 1), np.array([0.5, 0.5]))
        s1 = (rand_dm(2, 5), rand_dm(2, 6))
        s2 = (rand_dm(2, 7), rand_dm(2, 8))
        expected = 0.5 * q_rel_entropy(s1[0], s2[0]) + 0.5 * q_rel_entropy(s1[1], s2[1])
        got = mixed_rel_entropy((p, s1), (p, s2))
        assert abs(got - expected) < 1e-10

    def test_agrees_with_block_diagonal_route(self):
        # direct evaluation on block-diagonal matrices over (label, dim)
        p1 = ClassicalDist((0, 1), np.array([0.3, 0.7]))
        p2 = ClassicalDist((0, 1), np.array([0.6, 0.4]))
        s1 = (rand_dm(2, 9), rand_dm(2, 10))
        s2 = (rand_dm(2, 11), rand_dm(2, 12))
        block1 = np.zeros((4, 4), dtype=complex)
        block2 = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            block1[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = p1.probs[i] * s1[i].mat
            block2[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = p2.probs[i] * s2[i].mat
        direct = q_rel_entropy(DensityMatrix(block1), DensityMatrix(block2))
        via_decomposition = mixed_rel_entropy((p1, s1), (p2, s2))
        assert abs(direct - via_decomposition) < 1e-9

    def test_infinite_classical_part(self):
        states = (rand_dm(2, 15), rand_dm(2, 16))
        p1 = ClassicalDist((0, 1), np.array([1.0, 0.0]))
        p2 = ClassicalDist((0, 1), np.array([0.0, 1.0]))
        assert mixed_rel_entropy((p1, states), (p2, states)) == math.inf

    def test_infinite_quantum_part(self):
        p = ClassicalDist((0, 1), np.array([0.5, 0.5]))
        assert mixed_rel_entropy((p, (KET0, KET0)), (p, (KET0, KET1))) == math.inf

    def test_null_member_adds_nothing(self):
        # the member of weight 0 would give +inf, and is skipped
        p = ClassicalDist((0, 1), np.array([1.0, 0.0]))
        assert mixed_rel_entropy((p, (PLUS, KET0)), (p, (PLUS, KET1))) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("second, match", [
        ((ClassicalDist((0, 2), np.array([0.5, 0.5])), (KET0, KET1)), "families live on different label sets"),
        ((ClassicalDist((0, 1), np.array([0.5, 0.5])), (KET0,)), "state count does not match label count"),
        ((ClassicalDist((0, 1), np.array([0.5, 0.5])), (KET0, maximally_mixed(3))),
         r"states have inconsistent dims \{2, 3\}"),
    ], ids=["labels", "count", "dims"])
    def test_families_must_agree_in_shape(self, second, match):
        first = (ClassicalDist((0, 1), np.array([0.5, 0.5])), (KET0, KET1))
        with pytest.raises(QinstrError, match=match):
            mixed_rel_entropy(first, second)

    def test_singleton_classical_part(self):
        p = ClassicalDist(("only",), np.array([1.0]))
        s1, s2 = rand_dm(2, 13), rand_dm(2, 14)
        assert mixed_rel_entropy((p, (s1,)), (p, (s2,))) == pytest.approx(
            q_rel_entropy(s1, s2), abs=1e-12
        )


class TestChiQuantity:
    """chi of a family against its own barycenter, through ``chi_against``."""

    @staticmethod
    def chi(probs, members):
        bary = DensityMatrix(sum(p * m.mat for p, m in zip(probs, members)))
        return chi_against(probs, [vn_entropy(m) for m in members], vn_entropy(bary))

    def test_equal_members(self):
        rho = rand_dm(2, 20)
        assert abs(self.chi([0.5, 0.5], (rho, rho))) < 1e-10

    def test_orthogonal_pure_pair(self):
        assert abs(self.chi([0.5, 0.5], (KET0, KET1)) - math.log(2)) < 1e-10

    def test_zero_plus_pair_against_eigen_oracle(self):
        # barycenter [[3/4,1/4],[1/4,1/4]] has eigenvalues (1 +- 1/sqrt(2))/2;
        # members are pure so chi equals the barycenter entropy
        lam = np.array([(1 - 1 / math.sqrt(2)) / 2, (1 + 1 / math.sqrt(2)) / 2])
        expected = float(-(lam * np.log(lam)).sum())
        assert abs(expected - 0.4164955306996875) < 1e-12
        assert abs(self.chi([0.5, 0.5], (KET0, PLUS)) - expected) < 1e-10

    def test_alt_chi_identity(self):
        # the entropy difference equals the mean relative entropy of the
        # members to their barycenter, on random families
        for seed in range(20):
            rng = np.random.default_rng(800 + seed)
            probs = rng.uniform(0.1, 1.0, size=3)
            probs /= probs.sum()
            members = tuple(rand_dm(3, 900 + 3 * seed + j) for j in range(3))
            bary = DensityMatrix(sum(p * m.mat for p, m in zip(probs, members)))
            alt = sum(p * q_rel_entropy(m, bary) for p, m in zip(probs, members))
            assert abs(self.chi(probs, members) - alt) < 1e-8
