import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnlab import linalg


def matmul_triple_loop(a, b):
    """Independent oracle: classic triple loop in pure Python floats."""
    n, inner = a.shape
    p = b.shape[1]
    out = [[0.0] * p for _ in range(n)]
    for i in range(n):
        for j in range(p):
            acc = 0.0
            for k in range(inner):
                acc += float(a[i, k]) * float(b[k, j])
            out[i][j] = acc
    return np.array(out)


class TestMatmul:
    def test_identity(self):
        m = linalg.uniform(3, 3, seed=5)
        assert np.array_equal(linalg.matmul(np.eye(3), m), m)

    def test_hand_checked_2x2(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0], [6.0]])
        assert np.array_equal(linalg.matmul(a, b), [[17.0], [39.0]])

    def test_matches_triple_loop_bitwise(self):
        a = linalg.uniform(8, 4, seed=11)
        b = linalg.uniform(4, 8, seed=13)
        got = linalg.matmul(a, b)
        want = matmul_triple_loop(a, b)
        assert np.max(np.abs(got - want)) == 0.0
        # a batch of products: each entry is the 2-D product, bit for bit
        a3 = linalg.uniform(5 * 8, 4, seed=17).reshape(5, 8, 4)
        b3 = linalg.uniform(5 * 4, 8, seed=19).reshape(5, 4, 8)
        got3 = linalg.matmul(a3, b3)
        assert got3.shape == (5, 8, 8)
        for i in range(5):
            assert np.array_equal(got3[i], linalg.matmul(a3[i], b3[i]))

    @pytest.mark.parametrize("a_shape,b_shape", [
        ((20, 100, 10), (20, 10, 300)),   # several entries per block, a short last block
        ((2, 600, 4), (2, 4, 1000)),      # one entry outgrows a block
        ((3, 256, 256), (3, 256, 8)),     # long inner axis: a is transposed first
        ((0, 1, 3), (0, 3, 2)),           # an empty stack
    ])
    def test_batched_blocks_match_entries(self, a_shape, b_shape):
        a = linalg.uniform(int(np.prod(a_shape[:2])), a_shape[2], seed=23).reshape(a_shape)
        b = linalg.uniform(int(np.prod(b_shape[:2])), b_shape[2], seed=29).reshape(b_shape)
        got = linalg.matmul(a, b)
        assert got.shape == a_shape[:2] + b_shape[2:]
        for i in range(len(a)):
            assert np.array_equal(got[i], linalg.matmul(a[i], b[i]))

    @pytest.mark.parametrize("a_shape,b_shape", [
        ((2, 3), (2, 3)),
        ((4, 2, 3), (4, 2, 3)),          # inner axes differ
        ((4, 2, 3), (5, 3, 2)),          # batch axes differ
        ((2, 3), (4, 3, 2)),             # 2-D times 3-D
        ((4, 2, 3), (3, 2)),             # 3-D times 2-D
        ((3,), (3, 2)),
    ])
    def test_dimension_mismatch_rejected(self, a_shape, b_shape):
        with pytest.raises(ValueError):
            linalg.matmul(np.zeros(a_shape), np.zeros(b_shape))

    def test_identity_then_vector_is_exact(self):
        m = linalg.uniform(6, 6, seed=3)
        v = linalg.uniform(6, 1, seed=4)
        left = linalg.matmul(linalg.matmul(m, np.eye(6)), v)
        assert np.array_equal(left, linalg.matmul(m, v))


class TestRowSoftmax:
    def test_uniform_row(self):
        out = linalg.row_softmax(np.array([[0.0, 0.0, 0.0]]))
        assert np.allclose(out, 1.0 / 3.0, atol=0, rtol=1e-15)

    def test_no_overflow_on_large_scores(self):
        out = linalg.row_softmax(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert out[0, 1] < 1e-300

    def test_matches_direct_formula(self):
        row = np.array([1.0, 2.0, 3.0])
        out = linalg.row_softmax(row[None, :])[0]
        want = np.exp(row) / np.exp(row).sum()
        assert np.max(np.abs(out - want)) <= 1e-15

    def test_neg_inf_maps_to_exact_zero(self):
        out = linalg.row_softmax(np.array([[0.0, -np.inf]]))
        assert out[0, 1] == 0.0
        assert out[0, 0] == 1.0

    @given(st.lists(st.lists(st.floats(-50, 50), min_size=2, max_size=6),
                    min_size=1, max_size=6).filter(
                        lambda rows: len({len(r) for r in rows}) == 1))
    def test_rows_sum_to_one(self, rows):
        out = linalg.row_softmax(np.array(rows, dtype=np.float64))
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-12

    def test_rows_sum_to_one_seeded(self):
        for t in range(200):
            m = linalg.uniform(5, 7, seed=linalg.split_seed(1, t), low=-30, high=30)
            out = linalg.row_softmax(m)
            assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-12


class TestRowNormMax:
    def test_identity(self):
        assert linalg.row_norm_max(np.eye(4)) == 1.0

    def test_three_four_five(self):
        assert linalg.row_norm_max(np.array([[3.0, 4.0], [0.0, 1.0]])) == 5.0

    def test_submultiplicative_under_transposed_product(self):
        # 500 seeded pairs: h(X Y^T) <= sqrt(r) h(X) h(Y)
        for t in range(500):
            s = linalg.split_seed(2, t)
            n = 1 + s % 32
            r = 1 + (s >> 8) % 32
            m = 1 + (s >> 16) % 32
            X = linalg.uniform(n, m, linalg.split_seed(s, 1))
            Y = linalg.uniform(r, m, linalg.split_seed(s, 2))
            lhs = linalg.row_norm_max(linalg.matmul(X, linalg.transpose(Y)))
            rhs = math.sqrt(r) * linalg.row_norm_max(X) * linalg.row_norm_max(Y)
            assert lhs <= rhs + 1e-9


class TestSpectralNorm:
    def test_diagonal(self):
        m = np.array([[3.0, 0.0], [0.0, 1.0]])
        assert linalg.spectral_norm_estimate(m, 100) == pytest.approx(3.0, abs=1e-9)

    def test_identity(self):
        assert linalg.spectral_norm_estimate(np.eye(5), 10) == pytest.approx(1.0)

    def test_zero_matrix(self):
        assert linalg.spectral_norm_estimate(np.zeros((3, 4)), 50) == 0.0

    def test_monotone_in_iterations(self):
        m = linalg.uniform(6, 4, seed=17)
        estimates = [linalg.spectral_norm_estimate(m, k) for k in (1, 2, 5, 20, 100)]
        for a, b in zip(estimates, estimates[1:]):
            assert b >= a - 1e-12

    def test_bounded_by_sqrt_n_times_row_norm_max(self):
        for t in range(200):
            s = linalg.split_seed(3, t)
            n = 1 + s % 16
            m = 1 + (s >> 8) % 16
            X = linalg.uniform(n, m, linalg.split_seed(s, 1))
            est = linalg.spectral_norm_estimate(X, 200)
            assert est <= math.sqrt(n) * linalg.row_norm_max(X) + 1e-9


class TestRmsnormRows:
    def test_zero_row_stays_zero(self):
        out = linalg.row_rmsnorm(np.zeros((2, 4)), eps=1e-5)
        assert np.array_equal(out, np.zeros((2, 4)))

    def test_row_norm_approaches_sqrt_d(self):
        m = linalg.uniform(3, 16, seed=23, low=5.0, high=9.0)
        out = linalg.row_rmsnorm(m, eps=1e-10)
        norms = np.sqrt((out * out).sum(axis=1))
        assert np.allclose(norms, math.sqrt(16), rtol=1e-9)


class TestSeededGenerators:
    def test_uniform_deterministic_and_in_range(self):
        a = linalg.uniform(5, 5, seed=42)
        b = linalg.uniform(5, 5, seed=42)
        assert np.array_equal(a, b)
        assert np.all(a >= -1.0) and np.all(a < 1.0)
        assert not np.array_equal(a, linalg.uniform(5, 5, seed=43))

    def test_normal_moments(self):
        z = linalg.normal(200, 50, seed=9)
        assert abs(float(z.mean())) < 0.02
        assert abs(float(z.std()) - 1.0) < 0.02

    def test_split_seed_stable(self):
        assert linalg.split_seed(7, 1) == linalg.split_seed(7, 1)
        assert linalg.split_seed(7, 1) != linalg.split_seed(7, 2)

    @given(st.integers(0, 2**32), st.integers(0, 100))
    @settings(max_examples=50)
    def test_uniform_range_property(self, seed, tag):
        m = linalg.uniform(2, 3, seed=linalg.split_seed(seed, tag))
        assert np.all(m >= -1.0) and np.all(m < 1.0)


class TestPlumbing:
    def test_transpose_involution(self):
        m = linalg.uniform(4, 7, seed=21)
        assert np.array_equal(linalg.transpose(linalg.transpose(m)), m)

    def test_row_sums(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(linalg.row_sums(m), [3.0, 7.0])
