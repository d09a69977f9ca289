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


def matmul_one_step(a, b):
    """Reference form: out += (column k of a) * (row k of b) for k = 0, 1, ...
    in turn, one numpy multiply and one add per k (3-D: per entry)."""
    if a.ndim == 2:
        a_k, b_k = a.T[:, :, None], b[:, None, :]
    else:
        a_k, b_k = a.transpose(2, 0, 1)[..., None], b.transpose(1, 0, 2)[:, :, None]
    out = np.zeros(a.shape[:-1] + b.shape[-1:])
    for k in range(a.shape[-1]):
        out += a_k[k] * b_k[k]
    return out


def _operands(a_shape, b_shape, seed, specials=False):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal(a_shape), rng.standard_normal(b_shape)
    if specials:  # about one entry in eight of each operand
        for m in (a, b):
            hit = rng.random(m.shape) < 0.125
            m[hit] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], size=int(hit.sum()))
    return a, b


def _bits(m):
    """m's bytes with every NaN made one NaN: numpy's add keeps one operand's
    NaN in its vector loop and the other's in the scalar tail, so a NaN's sign
    follows the entry's position in the numpy call, not its sum order."""
    return np.where(np.isnan(m), np.nan, m).tobytes()


def assert_same_bits_as_one_step(a, b):
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = linalg.matmul(a, b), matmul_one_step(a, b)
    assert got.shape == want.shape
    assert _bits(got) == _bits(want)


# (a shape, b shape): every inner length in {1, 7, 8, 9, 33, 300}; one-entry
# outputs, whose one reduce numpy would sum pairwise; one-row and one-column
# outputs; slabs and row blocks with a short last one; one-step updates.
MATMUL_GRID = [((n, k), (k, p)) for k in (1, 7, 8, 9, 33, 300)
               for n, p in ((1, 1), (1, 5), (6, 1), (8, 8), (32, 32), (61, 61))] + [
    ((1, k), (k, 1)) for k in (9, 16, 64, 257)] + [
    ((1, 1, k), (1, k, 1)) for k in (9, 33, 300)] + [
    ((2, 1, 40), (2, 40, 1)),       # 2 entries: the smallest slab
    ((1, 1, 300), (1, 300, 7)),     # one row per entry
    ((5, 9, 33), (5, 33, 1)),       # one column per entry
    ((32, 300), (300, 32)),         # several row blocks and slabs, both short last
    ((7, 16, 64), (7, 64, 17)),     # one stack entry per row block
    ((2, 64, 16), (2, 16, 128)),    # an entry outgrows a slab: one-step updates
    ((300, 8), (8, 300)),           # one-step updates in the tall 2-D case
    ((600, 4), (4, 1000)),          # one-step updates in several row blocks
    ((482, 300), (300, 1)),         # one-column outputs in two row blocks,
    ((820, 9), (9, 1)),             # whose lead leaves a lone row over
    ((482, 1, 16), (482, 16, 1)),
] + [
    # one slab holds inner x entries <= 8192 products of 2+ entries; einsum from 4096
    ((63, 65), (65, 1)), ((8, 64), (64, 8)), ((16, 64), (64, 8)),     # 4095, 4096, 8192
    ((3, 2731), (2731, 1)), ((2731, 3), (3, 1)),                      # 8193: planned
    ((1, 4096), (4096, 2)), ((2, 4097), (4097, 1)), ((1, 1), (1, 2)),  # 2 entries
    ((63, 1, 65), (63, 65, 1)), ((64, 1, 64), (64, 64, 1)),           # (B,1,k)(B,k,1)
    ((2, 1, 4096), (2, 4096, 1)), ((3, 1, 2731), (3, 2731, 1)),
    ((32, 1), (1, 8)), ((64, 1), (1, 64)), ((64, 1), (1, 128)),       # inner 1
    ((91, 1), (1, 91)), ((4, 1, 1), (4, 1, 2)),
]


class TestMatmul:
    @pytest.mark.parametrize("specials", [False, True])
    @pytest.mark.parametrize("a_shape,b_shape", MATMUL_GRID)
    def test_same_bits_as_one_step_form(self, a_shape, b_shape, specials):
        a, b = _operands(a_shape, b_shape, seed=len(a_shape) * 1000 + a_shape[-1],
                         specials=specials)
        assert_same_bits_as_one_step(a, b)

    @given(st.integers(1, 3), st.integers(1, 12), st.integers(1, 70), st.integers(1, 12),
           st.booleans(), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_same_bits_as_one_step_property(self, batch, n, k, p, stacked, seed, specials):
        a_shape, b_shape = ((batch, n, k), (batch, k, p)) if stacked else ((n, k), (k, p))
        assert_same_bits_as_one_step(*_operands(a_shape, b_shape, seed, specials))

    @given(st.integers(1, 3000), st.integers(1, 40), st.integers(1, 2), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_same_bits_as_one_step_tall_property(self, n, k, p, seed):
        # tall outputs of one or two columns split into row blocks of any remainder
        assert_same_bits_as_one_step(*_operands((n, k), (k, p), seed))

    @pytest.mark.parametrize("a_shape,b_shape", [
        ((32, 32), (32, 8)),            # one slab of einsum products
        ((4, 16, 16), (4, 16, 16)),     # planned slabs of einsum products, stacked
        ((8, 32), (32, 8)),             # one slab of multiply products
        ((2, 8, 16), (2, 16, 8)),       # the same, stacked
        ((64, 8), (8, 128)),            # one-step einsum
        ((2, 2), (2, 2)),               # one slab of multiply products, small
        ((8, 64), (64, 8)),             # one slab of einsum products, at 4096
        ((4, 8, 16), (4, 16, 8)),       # the same, stacked
        ((32, 1), (1, 8)),              # one slab of multiply products, inner 1
        ((64, 16), (16, 16)),           # planned slabs of einsum products
        ((5, 31, 16), (5, 16, 8)),      # planned slabs of multiply products
        ((1, 2), (2, 1)),               # one-step multiply
    ])
    @pytest.mark.parametrize("fill,err", [((np.inf, 0.0), "invalid"), ((1e200, 1e200), "over")])
    def test_products_raise_floating_point_errors_as_multiply_does(self, a_shape, b_shape,
                                                                   fill, err):
        a, b = np.ones(a_shape), np.ones(b_shape)
        a[..., 0, 3 % a.shape[-1]], b[..., 3 % a.shape[-1], 0] = fill
        with np.errstate(**{err: "raise"}), pytest.raises(FloatingPointError, match="multiply"):
            linalg.matmul(a, b)
        with pytest.raises(RuntimeWarning, match="multiply"):  # the suite's warning filter
            linalg.matmul(a, b)

    @pytest.mark.parametrize("a_shape,b_shape", [((1, 33), (33, 1)), ((1, 1, 300), (1, 300, 1))])
    def test_one_entry_case_catches_a_pairwise_reduce(self, a_shape, b_shape):
        # the grid's one-entry outputs would fail a matmul that reduced them
        # like any other slab: numpy sums a lone reduced axis pairwise
        a, b = _operands(a_shape, b_shape, seed=a_shape[-1])
        want = matmul_one_step(a, b)
        products = np.concatenate([np.zeros(1), a.reshape(-1) * b.reshape(-1)])
        naive = np.add.reduce(products.reshape((-1,) + want.shape), axis=0)
        assert naive.tobytes() != want.tobytes()
        assert_same_bits_as_one_step(a, b)

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

    # every seeded input in the suites and experiments rests on these values
    @pytest.mark.parametrize("args,want", [
        ((7,), 0x12ae30237b17df14),
        ((0, 0), 0x48218226ff3cd4bf),
        ((7, 1), 0x8ce4b23d452e8551),
        ((-1, 3), 0xd4b68d871146d6bf),
        ((-2**63, 5, 6), 0x1098f8a3d244f52e),
        ((2**64 - 1, 2**64), 0xefb5ca1843eeee6f),
        ((123456789, 2**64 + 5, 2**70, -2), 0x351b4e0e43059197),
        ((42, 1, 2, 3, 4), 0xbacab59c877674e0),
        ((-7, -1), 0x069a322857d33b06),
    ])
    def test_split_seed_known_answers(self, args, want):
        assert linalg.split_seed(*args) == want

    def test_int_mix_equals_array_mix(self):
        zs = [0, 1, 2**63 - 1, 2**63, 2**64 - 1] + [
            int(z) for z in np.random.default_rng(0).integers(0, 2**64, 2000, dtype=np.uint64)]
        want = linalg._splitmix(np.array(zs, dtype=np.uint64))
        assert [linalg._splitmix_int(z) for z in zs] == [int(w) for w in want]

    def test_generators_known_first_rows(self):
        assert [float(x).hex() for x in linalg.uniform(1, 4, 7)[0]] == [
            "-0x1.c341e1ba6cdf8p-3", "-0x1.eecf0ca02f0e8p-1", "0x1.9a610202eac4ap-1",
            "0x1.53aeb70673e28p-3"]
        assert [float(x).hex() for x in linalg.normal(1, 5, 7)[0]] == [
            "-0x1.30c1f365d63e8p+0", "-0x1.5dbda157ee8d1p+1", "0x1.ac17c7ef1d694p-10",
            "-0x1.5dd9483d9aeb1p-1", "0x1.aeefb4641c28ap-1"]

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
