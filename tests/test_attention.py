import math

import numpy as np
import pytest

from attnlab import linalg
from attnlab.attention import (AttentionSpec, ZeroDenominatorError, diag_forward,
                               forward, linear_scaled_forward, norm_forward,
                               rela_scores, vanilla_forward)


def seeded_qkv(seed, n, d, lo=-1.0, hi=1.0):
    Q = linalg.uniform(n, d, linalg.split_seed(seed, 1), lo, hi)
    K = linalg.uniform(n, d, linalg.split_seed(seed, 2), lo, hi)
    V = linalg.uniform(n, d, linalg.split_seed(seed, 3), lo, hi)
    return Q, K, V


def softmax_attention_oracle(Q, K, V, causal=False):
    """Direct exp/sum formula, BLAS matmuls: independent of the library path."""
    d = Q.shape[1]
    S = (Q @ K.T) / np.sqrt(d)
    if causal:
        S = np.where(np.tri(S.shape[0]) > 0, S, -np.inf)
    E = np.exp(S)
    P = E / E.sum(axis=1, keepdims=True)
    return P @ V, P


class TestSpecValidation:
    def test_unknown_mechanism(self):
        with pytest.raises(ValueError):
            AttentionSpec("fancy")

    def test_block_size_and_epsilon(self):
        with pytest.raises(ValueError):
            AttentionSpec("diag", block_size=0)
        with pytest.raises(ValueError):
            AttentionSpec("norm", epsilon=0.0)

    def test_linear_requires_nonnegative_kernel(self):
        with pytest.raises(ValueError):
            AttentionSpec("linear", kernel="identity")
        with pytest.raises(ValueError):
            AttentionSpec("linear", kernel="elu")
        AttentionSpec("linear", kernel="1+elu")
        AttentionSpec("linear", kernel="relu")

    def test_default_scaling(self):
        assert AttentionSpec("vanilla").scaled
        assert AttentionSpec("diag").scaled
        assert not AttentionSpec("linear").scaled
        assert not AttentionSpec("norm", kernel="elu").scaled


class TestVanilla:
    def test_single_token(self):
        Q, K, V = seeded_qkv(1, 1, 3)
        out = vanilla_forward(Q, K, V, reference=True)
        assert np.array_equal(out.P, [[1.0]])
        assert np.array_equal(out.O, V)

    def test_zero_scores_give_uniform_mixing(self):
        n, d = 5, 3
        V = linalg.uniform(n, d, seed=2)
        out = vanilla_forward(np.zeros((n, d)), np.zeros((n, d)), V,
                              reference=True)
        assert np.allclose(out.P, 1.0 / n, atol=1e-15)
        assert np.allclose(out.O, np.tile(V.mean(axis=0), (n, 1)), atol=1e-15)

    def test_matches_direct_formula(self):
        Q, K, V = seeded_qkv(3, 6, 4)
        got = vanilla_forward(Q, K, V).O
        want, _ = softmax_attention_oracle(Q, K, V)
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_causal_matches_direct_formula(self):
        Q, K, V = seeded_qkv(4, 6, 4)
        got = vanilla_forward(Q, K, V, AttentionSpec("vanilla", causal=True)).O
        want, _ = softmax_attention_oracle(Q, K, V, causal=True)
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            vanilla_forward(np.zeros((3, 2)), np.zeros((4, 2)), np.zeros((3, 2)))


class TestLinearScaled:
    def test_constant_features_give_uniform_mixing(self):
        # identity kernel is fine here: features are the (positive) inputs
        n, d = 6, 3
        ones = np.ones((n, d))
        V = linalg.uniform(n, d, seed=5)
        spec = AttentionSpec("linear", kernel="relu")
        out = linear_scaled_forward(ones, ones, V, spec, reference=True)
        assert np.allclose(out.P, 1.0 / n, atol=1e-15)
        assert np.allclose(out.O, np.tile(V.mean(axis=0), (n, 1)), atol=1e-14)

    def test_efficient_matches_reference(self):
        Q, K, V = seeded_qkv(6, 32, 8)
        spec = AttentionSpec("linear", kernel="1+elu")
        eff = linear_scaled_forward(Q, K, V, spec).O
        ref = linear_scaled_forward(Q, K, V, spec, reference=True).O
        assert np.max(np.abs(eff - ref)) <= 1e-10

    def test_causal_rows_equal_truncated_bidirectional(self):
        Q, K, V = seeded_qkv(7, 16, 4)
        spec = AttentionSpec("linear", kernel="1+elu", causal=True)
        causal = linear_scaled_forward(Q, K, V, spec).O
        flat = AttentionSpec("linear", kernel="1+elu")
        for i in range(16):
            prefix = linear_scaled_forward(Q[:i + 1], K[:i + 1], V[:i + 1], flat).O
            assert np.max(np.abs(causal[i] - prefix[i])) <= 1e-12

    def test_zero_denominator_raises(self):
        # relu features vanish for non-positive queries: rows 1.. have no score
        n, d = 4, 3
        Q = np.full((n, d), -1.0)
        Q[0] = 1.0
        K = np.full((n, d), 1.0)
        V = linalg.uniform(n, d, seed=8)
        for causal in (False, True):
            spec = AttentionSpec("linear", kernel="relu", causal=causal)
            for reference in (False, True):
                with pytest.raises(ZeroDenominatorError,
                                   match="^row 1: score sum 0.0 vanishes$"):
                    linear_scaled_forward(Q, K, V, spec, reference=reference)

    def test_reference_rows_are_stochastic(self):
        Q, K, V = seeded_qkv(9, 12, 4)
        out = linear_scaled_forward(Q, K, V, AttentionSpec("linear", kernel="1+elu"),
                                    reference=True)
        assert np.max(np.abs(out.P.sum(axis=1) - 1.0)) <= 1e-10


class TestNorm:
    def test_zero_rows_stay_zero(self):
        n, d = 4, 3
        Q, K, _ = seeded_qkv(10, n, d)
        out = norm_forward(Q, K, np.zeros((n, d)),
                           AttentionSpec("norm", kernel="1+elu"))
        assert np.array_equal(out.O, np.zeros((n, d)))

    def test_output_rows_scale_to_sqrt_d(self):
        Q, K, V = seeded_qkv(11, 8, 16, lo=0.5, hi=1.5)
        out = norm_forward(Q, K, V, AttentionSpec("norm", kernel="1+elu",
                                                  epsilon=1e-10))
        norms = np.sqrt((out.O * out.O).sum(axis=1))
        assert np.allclose(norms, math.sqrt(16), rtol=1e-6)

    def test_efficient_matches_reference(self):
        Q, K, V = seeded_qkv(12, 32, 8)
        spec = AttentionSpec("norm", kernel="1+elu")
        eff = norm_forward(Q, K, V, spec).O
        ref = norm_forward(Q, K, V, spec, reference=True).O
        assert np.max(np.abs(eff - ref)) <= 1e-10

    def test_equal_feature_rows_mix_uniformly(self):
        # identical queries => identical aggregated rows => identical outputs
        n, d = 7, 4
        qrow = linalg.uniform(1, d, seed=13)
        Q = np.tile(qrow, (n, 1))
        _, K, V = seeded_qkv(14, n, d)
        out = norm_forward(Q, K, V, AttentionSpec("norm", kernel="1+elu")).O
        assert np.max(np.abs(out - out[0][None, :])) == 0.0

    def test_elu_kernel_allowed(self):
        Q, K, V = seeded_qkv(15, 8, 4)
        spec = AttentionSpec("norm", kernel="elu")
        eff = norm_forward(Q, K, V, spec).O
        ref = norm_forward(Q, K, V, spec, reference=True).O
        assert np.max(np.abs(eff - ref)) <= 1e-10


class TestDiag:
    def test_full_width_block_degenerates_to_vanilla(self):
        Q, K, V = seeded_qkv(16, 12, 4)
        got = diag_forward(Q, K, V, AttentionSpec("diag", block_size=12)).O
        want = vanilla_forward(Q, K, V).O
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_unit_blocks_copy_values(self):
        Q, K, V = seeded_qkv(17, 6, 3)
        out = diag_forward(Q, K, V, AttentionSpec("diag", block_size=1),
                           reference=True)
        assert np.array_equal(out.P, np.eye(6))
        assert np.array_equal(out.O, V)

    def test_matches_masked_full_attention(self):
        Q, K, V = seeded_qkv(18, 8, 4)
        got = diag_forward(Q, K, V, AttentionSpec("diag", block_size=4)).O
        S = (Q @ K.T) / 2.0
        mask = np.full((8, 8), -np.inf)
        mask[:4, :4] = 0.0
        mask[4:, 4:] = 0.0
        E = np.exp(S + mask)
        want = (E / np.nansum(E, axis=1, keepdims=True)) @ V
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_indivisible_length_rejected(self):
        Q, K, V = seeded_qkv(19, 10, 4)
        with pytest.raises(ValueError):
            diag_forward(Q, K, V, AttentionSpec("diag", block_size=4))

    def test_block_confinement_in_reference_P(self):
        Q, K, V = seeded_qkv(20, 8, 4)
        P = diag_forward(Q, K, V, AttentionSpec("diag", block_size=4),
                         reference=True).P
        assert np.array_equal(P[:4, 4:], np.zeros((4, 4)))
        assert np.array_equal(P[4:, :4], np.zeros((4, 4)))


class TestRelaScores:
    def test_all_negative_block_attends_nowhere(self):
        S = -np.abs(linalg.uniform(5, 5, seed=21)) - 0.1
        assert np.array_equal(rela_scores(S), np.zeros((5, 5)))

    def test_single_positive_entry_per_row(self):
        P = rela_scores(1000.0 * np.eye(4))
        assert np.max(np.abs(P - np.eye(4))) <= 1e-8

    def test_matches_direct_formula(self):
        S = linalg.uniform(6, 6, seed=22)
        got = rela_scores(S)
        R = np.maximum(S, 0.0)
        want = R / (R.sum(axis=1, keepdims=True) + 1e-6)
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            rela_scores(np.zeros((2, 3)))


class TestOracleEquivalence:
    def test_200_seeded_trials(self):
        for t in range(200):
            s = linalg.split_seed(100, t)
            n = 2 + s % 63
            d = 1 + (s >> 8) % 16
            causal = t % 3 == 0
            Q, K, V = seeded_qkv(s, n, d)
            for mech in ("linear", "norm"):
                spec = AttentionSpec(mech, kernel="1+elu", causal=causal)
                eff = forward(Q, K, V, spec).O
                ref = forward(Q, K, V, spec, reference=True).O
                assert np.max(np.abs(eff - ref)) <= 1e-10, (mech, t)


class TestCausalChunks:
    """The efficient linear forms run in CAUSAL_CHUNK-row chunks, causal or
    not; 65, 130 and 200 rows cross one, two and three chunk boundaries."""

    @pytest.mark.parametrize("mech,kernel", [
        ("linear", "1+elu"), ("linear", "exp"), ("norm", "1+elu"), ("norm", "elu")])
    @pytest.mark.parametrize("n,d", [(65, 4), (130, 8), (200, 8)])
    @pytest.mark.parametrize("causal", [True, False])
    def test_efficient_matches_reference(self, mech, kernel, n, d, causal):
        Q, K, V = seeded_qkv(n * 10 + d, n, d)
        spec = AttentionSpec(mech, kernel=kernel, causal=causal)
        eff = forward(Q, K, V, spec).O
        ref = forward(Q, K, V, spec, reference=True).O
        assert np.max(np.abs(eff - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("mech", ["linear", "norm"])
    def test_appended_rows_leave_earlier_rows_bit_identical(self, mech):
        # the chunk grid starts at row 0 whatever the length
        Q, K, V = seeded_qkv(24, 200, 4)
        spec = AttentionSpec(mech, kernel="1+elu", causal=True)
        full = forward(Q, K, V, spec).O
        for m in (0, 1, 63, 64, 65, 130, 199):
            assert np.array_equal(forward(Q[:m], K[:m], V[:m], spec).O, full[:m]), m


class TestCausality:
    @pytest.mark.parametrize("spec", [
        AttentionSpec("vanilla", causal=True),
        AttentionSpec("linear", kernel="1+elu", causal=True),
        AttentionSpec("norm", kernel="1+elu", causal=True),
        AttentionSpec("diag", block_size=4, causal=True),
        AttentionSpec("diag", block_size=4, causal=True, diag_score_fn="rela"),
    ])
    def test_future_tokens_do_not_change_past_rows(self, spec):
        n, d = 8, 4
        Q, K, V = seeded_qkv(23, n, d)
        base = forward(Q, K, V, spec).O
        j = 5
        for target in ("Q", "K", "V"):
            Q2, K2, V2 = Q.copy(), K.copy(), V.copy()
            {"Q": Q2, "K": K2, "V": V2}[target][j] += 10.0
            pert = forward(Q2, K2, V2, spec).O
            assert np.all((pert[:j] - base[:j]) == 0.0), target


class TestRowStochasticity:
    def test_active_rows_sum_to_one(self):
        for t in range(50):
            s = linalg.split_seed(24, t)
            n = 4 + s % 13
            d = 1 + (s >> 8) % 8
            Q, K, V = seeded_qkv(s, n, d)
            P = vanilla_forward(Q, K, V, reference=True).P
            assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-10
            P = linear_scaled_forward(Q, K, V, AttentionSpec("linear", kernel="1+elu"),
                                      reference=True).P
            assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-10
        Q, K, V = seeded_qkv(25, 8, 4)
        P = diag_forward(Q, K, V, AttentionSpec("diag", block_size=4),
                         reference=True).P
        assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-10
