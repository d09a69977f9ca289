import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnlab import attention, grad, linalg
from attnlab.attention import (AttentionSpec, ZeroDenominatorError, diag_forward, forward,
                               vanilla_forward)
from attnlab.kernels import get_kernel


def seeded_qkv(seed, n, d, lo=-1.0, hi=1.0):
    Q = linalg.uniform(n, d, linalg.split_seed(seed, 1), lo, hi)
    K = linalg.uniform(n, d, linalg.split_seed(seed, 2), lo, hi)
    V = linalg.uniform(n, d, linalg.split_seed(seed, 3), lo, hi)
    return Q, K, V


class TestUnifiedJacobian:
    def test_uniform_softmax_weights(self):
        n = 5
        P = np.full((n, n), 1.0 / n)
        S = np.zeros((n, n))
        J = grad.unified_dp_ds(P, S, get_kernel("exp"))
        diag = (1.0 / n) * (1.0 - 1.0 / n)
        for i in range(n):
            assert np.allclose(np.diag(J[i]), diag, atol=1e-15)
            off = J[i][~np.eye(n, dtype=bool)]
            assert np.allclose(off, -1.0 / n ** 2, atol=1e-15)

    def test_vanilla_quarter_bound_1000_instances(self):
        worst = 0.0
        for t in range(1000):
            s = linalg.split_seed(50, t)
            n = 2 + s % 15
            d = 1 + (s >> 8) % 8
            Q, K, _ = seeded_qkv(s, n, d)
            S = linalg.matmul(Q, linalg.transpose(K)) / math.sqrt(d)
            P = linalg.row_softmax(S)
            J = grad.unified_dp_ds(P, S, get_kernel("exp"))
            worst = max(worst, float(np.max(np.abs(J))))
        assert worst <= 0.25 + 1e-12

    def test_linear_bound_formula(self):
        for t in range(100):
            s = linalg.split_seed(51, t)
            Q, K, _ = seeded_qkv(s, 8, 4)
            kern = get_kernel("1+elu")
            S = linalg.matmul(kern.apply(Q), linalg.transpose(kern.apply(K)))
            P = S / linalg.row_sums(S)[:, None]
            J = grad.unified_dp_ds(P, S, get_kernel("identity"))
            c3 = float(np.min(np.abs(S)))
            assert float(np.max(np.abs(J))) <= 1.0 / (4.0 * c3) + 1e-12

    def test_dense_cap(self):
        n = grad.DENSE_JACOBIAN_MAX_N + 1
        P = np.full((n, n), 1.0 / n)
        with pytest.raises(ValueError):
            grad.unified_dp_ds(P, np.ones((n, n)), get_kernel("identity"))

    def test_zero_score_flags_nonfinite(self):
        P = np.array([[0.5, 0.5], [0.5, 0.5]])
        S = np.array([[0.0, 1.0], [1.0, 1.0]])
        J = grad.unified_dp_ds(P, S, get_kernel("identity"))
        assert not np.all(np.isfinite(J))

    def test_zero_score_meeting_zero_factor_is_nan_without_warning(self):
        # row 0: p = (0, 1) zeroes every factor of diag(p) - pp^T, and s_00 = 0
        # makes the identity kernel's prefactor 1/0
        P = np.array([[0.0, 1.0], [0.5, 0.5]])
        S = np.array([[0.0, 1.0], [1.0, 1.0]])
        J = grad.unified_dp_ds(P, S, get_kernel("identity"))
        assert np.all(np.isnan(J[0, :, 0]))
        assert np.array_equal(J[0, :, 1], [0.0, 0.0])
        assert np.all(np.isfinite(J[1]))


class TestProductBoundsIdentities:
    def test_p_one_minus_p_quarter(self):
        p = np.linspace(0.0, 1.0, 10_000)
        assert np.max(p * (1.0 - p)) <= 0.25

    def test_pairwise_products_quarter(self):
        for t in range(50):
            row = linalg.uniform(1, 8, seed=linalg.split_seed(54, t), low=0, high=1)[0]
            row = row / row.sum()
            outer = np.outer(row, row)
            assert float(np.max(outer)) <= 0.25 + 1e-15


class TestVanillaBackward:
    def test_zero_upstream_gives_zero_grads(self):
        Q, K, V = seeded_qkv(55, 5, 3)
        dQ, dK, dV = grad.vanilla_backward(Q, K, V, np.zeros((5, 3)))
        assert np.array_equal(dQ, np.zeros((5, 3)))
        assert np.array_equal(dK, np.zeros((5, 3)))
        assert np.array_equal(dV, np.zeros((5, 3)))

    def test_single_token(self):
        Q, K, V = seeded_qkv(56, 1, 4)
        dO = linalg.uniform(1, 4, seed=57)
        dQ, dK, dV = grad.vanilla_backward(Q, K, V, dO)
        assert np.array_equal(dV, dO)
        assert np.array_equal(dQ, np.zeros((1, 4)))
        assert np.array_equal(dK, np.zeros((1, 4)))

    def test_finite_difference_agreement(self):
        Q, K, V = seeded_qkv(58, 6, 4)
        dO = linalg.uniform(6, 4, seed=59)
        spec = AttentionSpec("vanilla")
        dQ, dK, dV = grad.vanilla_backward(Q, K, V, dO, spec)
        err = grad._fd_for_mechanism(Q, K, V, dO, spec, (dQ, dK, dV))
        assert err <= 1e-6

    def test_causal_finite_difference_agreement(self):
        Q, K, V = seeded_qkv(60, 6, 4)
        dO = linalg.uniform(6, 4, seed=61)
        spec = AttentionSpec("vanilla", causal=True)
        dQ, dK, dV = grad.vanilla_backward(Q, K, V, dO, spec)
        err = grad._fd_for_mechanism(Q, K, V, dO, spec, (dQ, dK, dV))
        assert err <= 1e-6


class TestNormBackward:
    def test_zero_row_jacobian_is_scaled_identity(self):
        eps = 1e-5
        J = grad.rmsnorm_jacobian(np.zeros(4), eps)
        assert np.allclose(J, np.eye(4) / math.sqrt(eps), atol=0)

    def test_jacobian_entry_bound(self):
        for t in range(200):
            s = linalg.split_seed(62, t)
            eps = 1e-3 if t % 2 == 0 else 1e-5
            row = linalg.uniform(1, 8, seed=s, low=-3, high=3)[0]
            J = grad.rmsnorm_jacobian(row, eps)
            sig2 = float(np.mean(row * row))
            assert float(np.max(np.abs(J))) <= 1.5 / math.sqrt(sig2 + eps) + 1e-12

    def test_bound_and_fd(self):
        Q, K, V = seeded_qkv(63, 8, 8)
        dO = linalg.uniform(8, 8, seed=64)
        spec = AttentionSpec("norm", kernel="1+elu", epsilon=1e-5)
        dQ, dK, dV, rep = grad.norm_backward(Q, K, V, dO, spec, with_fd=True)
        assert rep.max_abs_dL_ds <= rep.theoretical_bound
        assert rep.theoretical_bound == pytest.approx(
            3 * rep.c1 * rep.c2 * 8 / (2 * math.sqrt(1e-5)))
        assert rep.fd_max_error <= 1e-6

    def test_causal_fd(self):
        Q, K, V = seeded_qkv(65, 6, 4)
        dO = linalg.uniform(6, 4, seed=66)
        spec = AttentionSpec("norm", kernel="1+elu", epsilon=1e-4, causal=True)
        _, _, _, rep = grad.norm_backward(Q, K, V, dO, spec, with_fd=True)
        assert rep.fd_max_error <= 1e-6

    def test_bound_500_seeded_instances(self):
        for t in range(500):
            s = linalg.split_seed(67, t)
            eps = 1e-3 if t % 2 == 0 else 1e-5
            Q, K, V = seeded_qkv(s, 8, 8)
            dO = linalg.uniform(8, 8, seed=linalg.split_seed(s, 4))
            spec = AttentionSpec("norm", kernel="1+elu", epsilon=eps)
            _, _, _, rep = grad.norm_backward(Q, K, V, dO, spec)
            assert rep.max_abs_dL_ds <= rep.theoretical_bound


class TestLinearBackward:
    def test_uniform_features_diagonal_jacobian(self):
        n, d = 6, 3
        row = linalg.uniform(1, d, seed=68, low=0.1, high=1.0)
        Q = np.tile(row, (n, 1))
        kern = get_kernel("relu")  # features equal the (positive) inputs
        S = linalg.matmul(kern.apply(Q), linalg.transpose(kern.apply(Q)))
        P = S / linalg.row_sums(S)[:, None]
        J = grad.unified_dp_ds(P, S, get_kernel("identity"))
        sbar = float(S[0, 0])
        want = (1.0 / sbar) * (1.0 / n) * (1.0 - 1.0 / n)
        assert np.allclose(np.diagonal(J, axis1=1, axis2=2), want, rtol=1e-12)

    def test_fd_agreement(self):
        Q, K, V = seeded_qkv(69, 8, 4)
        dO = linalg.uniform(8, 4, seed=70)
        spec = AttentionSpec("linear", kernel="1+elu")
        _, _, _, rep = grad.linear_scaled_backward(Q, K, V, dO, spec, with_fd=True)
        assert rep.fd_max_error <= 1e-6

    def test_causal_fd_agreement(self):
        Q, K, V = seeded_qkv(71, 6, 4)
        dO = linalg.uniform(6, 4, seed=72)
        spec = AttentionSpec("linear", kernel="1+elu", causal=True)
        _, _, _, rep = grad.linear_scaled_backward(Q, K, V, dO, spec, with_fd=True)
        assert rep.fd_max_error <= 1e-6

    def test_report_bound_holds(self):
        for t in range(100):
            s = linalg.split_seed(73, t)
            Q, K, V = seeded_qkv(s, 8, 4)
            dO = linalg.uniform(8, 4, seed=linalg.split_seed(s, 4))
            spec = AttentionSpec("linear", kernel="1+elu")
            _, _, _, rep = grad.linear_scaled_backward(Q, K, V, dO, spec)
            assert rep.max_abs_dL_ds <= rep.theoretical_bound + 1e-9


def kernel_grads_oracle(Q, K, V, dO, spec):
    """(dQ, dK, dV) of linear or norm attention by the chain rule in plain
    numpy/BLAS: linear through the weights P = S / z, norm through the
    per-row RMS-norm Jacobian.  Independent of grad._kernel_backward."""
    kern = spec.kernel_fn
    FQ, FK = kern.apply(Q), kern.apply(K)
    n, dv = V.shape
    M = np.tril(np.ones((n, n))) if spec.causal else np.ones((n, n))
    S = (FQ @ FK.T) * M
    if spec.mechanism == "linear":
        P = S / S.sum(axis=1, keepdims=True)
        dP = dO @ V.T
        dS = (dP - np.sum(dP * P, axis=1, keepdims=True)) / S.sum(axis=1, keepdims=True)
        dV = P.T @ dO
    else:
        T = S @ V
        dT = np.empty_like(T)
        for i, t in enumerate(T):
            r2 = t @ t / dv + spec.epsilon
            J = (np.eye(dv) - np.outer(t, t) / (dv * r2)) / np.sqrt(r2)
            dT[i] = J.T @ dO[i]
        dS = dT @ V.T
        dV = S.T @ dT
    dS = dS * M
    return (dS @ FK) * kern.derivative(Q), (dS.T @ FQ) * kern.derivative(K), dV


def kernel_term_magnitudes(Q, K, V, dO, spec):
    """(|dQ|, |dK|, |dV|) bounds: the chain rule of linear or norm attention
    on absolute values, each difference turned into a sum (norm's r from the
    true T).  Any evaluation order rounds a gradient to within a small
    multiple of machine epsilon times these, however much cancels: at
    d = 1 norm's output is sign(T) up to eps, and its gradients are the
    small remainder of terms many orders larger."""
    kern = spec.kernel_fn
    n, dv = V.shape
    M = np.tril(np.ones((n, n))) if spec.causal else np.ones((n, n))
    FQ, FK = np.abs(kern.apply(Q)), np.abs(kern.apply(K))
    S = (FQ @ FK.T) * M
    aV, adO = np.abs(V), np.abs(dO)
    if spec.mechanism == "linear":
        z = S.sum(axis=1, keepdims=True)  # non-negative features: the true z
        dT = adO / z
        dz = np.sum(dT * (S @ aV), axis=1, keepdims=True) / z
    else:
        T = np.abs(((kern.apply(Q) @ kern.apply(K).T) * M) @ V)
        r2 = np.mean(T * T, axis=1, keepdims=True) + spec.epsilon
        dT = (adO + T * np.sum(adO * T, axis=1, keepdims=True) / (dv * r2)) / np.sqrt(r2)
        dz = 0.0
    dS = (dT @ aV.T + dz) * M
    return ((dS @ FK) * np.abs(kern.derivative(Q)), (dS.T @ FQ) * np.abs(kern.derivative(K)),
            S.T @ dT)


KERNEL_CASES = [("linear", "1+elu"), ("linear", "exp"), ("norm", "1+elu"), ("norm", "elu")]
# 65, 130 and 200 rows cross one, two and three causal chunk boundaries
ORACLE_SIZES = [(8, 4), (24, 8), (65, 4), (130, 8), (200, 8)]


def _assert_matches_oracle(got, Q, K, V, dO, spec):
    for name, g, want in zip("QKV", got, kernel_grads_oracle(Q, K, V, dO, spec)):
        rel = np.max(np.abs(g - want)) / np.max(np.abs(want))
        assert rel <= 1e-10, f"d{name}: {rel}"


class TestKernelBackwardOracle:
    """Both entry points against the numpy chain rule: the quadratic
    reference that builds the report, and grad.backward's state form."""

    @pytest.mark.parametrize("mechanism,kernel", KERNEL_CASES)
    @pytest.mark.parametrize("causal", [False, True])
    @pytest.mark.parametrize("n,d", ORACLE_SIZES)
    def test_matches_numpy_chain_rule(self, mechanism, kernel, causal, n, d):
        Q, K, V = seeded_qkv(n * 100 + d, n, d)
        dO = linalg.uniform(n, d, seed=n * 100 + d + 1)
        spec = AttentionSpec(mechanism, kernel=kernel, causal=causal)
        backward = grad.linear_scaled_backward if mechanism == "linear" else grad.norm_backward
        _assert_matches_oracle(backward(Q, K, V, dO, spec)[:3], Q, K, V, dO, spec)

    @pytest.mark.parametrize("mechanism,kernel", KERNEL_CASES)
    @pytest.mark.parametrize("causal", [False, True])
    @pytest.mark.parametrize("n,d", ORACLE_SIZES)
    def test_state_backward_matches_numpy_chain_rule(self, mechanism, kernel, causal, n, d):
        Q, K, V = seeded_qkv(n * 100 + d, n, d)
        dO = linalg.uniform(n, d, seed=n * 100 + d + 1)
        spec = AttentionSpec(mechanism, kernel=kernel, causal=causal)
        _assert_matches_oracle(grad.backward(Q, K, V, dO, spec), Q, K, V, dO, spec)


class TestStateBackward:
    """grad.backward for linear and norm: the reference's gradients in
    O(n d^2) time and no n x n array."""

    @given(st.integers(0, 2**32), st.integers(1, 200), st.integers(1, 8),
           st.sampled_from(KERNEL_CASES), st.booleans())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_reference(self, seed, n, d, case, causal):
        mechanism, kernel = case
        Q, K, V = seeded_qkv(seed, n, d)
        dO = linalg.uniform(n, d, seed=linalg.split_seed(seed, 4))
        spec = AttentionSpec(mechanism, kernel=kernel, causal=causal)
        want = grad._kernel_backward(Q, K, V, dO, spec, with_fd=False)[:3]
        got = grad.backward(Q, K, V, dO, spec)
        # relative to the size of the summed terms, not of the sum: at n = 1
        # linear's dQ and dK vanish, and at d = 1 norm's nearly do
        for name, g, w, m in zip("QKV", got, want, kernel_term_magnitudes(Q, K, V, dO, spec)):
            assert g.shape == w.shape
            assert np.max(np.abs(g - w)) <= 1e-10 * np.max(m), name

    @pytest.mark.parametrize("mechanism", ["linear", "norm"])
    @pytest.mark.parametrize("causal", [False, True])
    def test_no_product_is_n_by_n(self, monkeypatch, mechanism, causal):
        # nor sums over n rows: every inner dimension stays within a chunk
        n, d = 256, 8
        shapes = []
        inner = linalg.matmul

        def recorded(a, b):
            out = inner(a, b)
            shapes.extend([a.shape, b.shape, out.shape])
            return out

        monkeypatch.setattr(linalg, "matmul", recorded)
        Q, K, V = seeded_qkv(84, n, d)
        dO = linalg.uniform(n, d, seed=85)
        grad.backward(Q, K, V, dO, AttentionSpec(mechanism, causal=causal))
        assert shapes
        assert not [s for s in shapes if min(s) >= n]
        assert max(a[-1] for a in shapes[::3]) <= attention.CAUSAL_CHUNK

    @pytest.mark.parametrize("first_bad", [1, 100])
    def test_zero_denominator_raises_at_the_first_row(self, first_bad):
        # relu features vanish for non-positive queries: rows first_bad.. have
        # no score; row 100 lies in the second causal chunk
        n, d = 140, 3
        Q = np.full((n, d), -1.0)
        Q[:first_bad] = 1.0
        K = np.full((n, d), 1.0)
        V = linalg.uniform(n, d, seed=86)
        for causal in (False, True):
            spec = AttentionSpec("linear", kernel="relu", causal=causal)
            with pytest.raises(ZeroDenominatorError,
                               match=f"^row {first_bad}: score sum 0.0 vanishes$"):
                grad.backward(Q, K, V, V, spec)


class TestDiagBackward:
    def test_softmax_blocks_fd(self):
        Q, K, V = seeded_qkv(74, 8, 4)
        dO = linalg.uniform(8, 4, seed=75)
        spec = AttentionSpec("diag", block_size=4)
        dQ, dK, dV = grad.diag_backward(Q, K, V, dO, spec)
        err = grad.finite_diff_check(
            lambda p: diag_forward(p["Q"], p["K"], p["V"], spec).O,
            {"Q": Q.copy(), "K": K.copy(), "V": V.copy()},
            {"Q": dQ, "K": dK, "V": dV}, dO)
        assert err <= 1e-6

    def test_rela_blocks_fd_away_from_kinks(self):
        # scores must not sit within the FD step of the ReLU kink
        spec = AttentionSpec("diag", block_size=4, diag_score_fn="rela")
        seed = next(
            s for s in range(200, 400)
            if _min_abs_block_score(*seeded_qkv(s, 8, 4), w=4) > 1e-3)
        Q, K, V = seeded_qkv(seed, 8, 4)
        dO = linalg.uniform(8, 4, seed=76)
        dQ, dK, dV = grad.diag_backward(Q, K, V, dO, spec)
        err = grad.finite_diff_check(
            lambda p: diag_forward(p["Q"], p["K"], p["V"], spec).O,
            {"Q": Q.copy(), "K": K.copy(), "V": V.copy()},
            {"Q": dQ, "K": dK, "V": dV}, dO)
        assert err <= 1e-6

    def test_causal_blocks_fd(self):
        Q, K, V = seeded_qkv(77, 8, 4)
        dO = linalg.uniform(8, 4, seed=78)
        spec = AttentionSpec("diag", block_size=4, causal=True)
        dQ, dK, dV = grad.diag_backward(Q, K, V, dO, spec)
        err = grad.finite_diff_check(
            lambda p: diag_forward(p["Q"], p["K"], p["V"], spec).O,
            {"Q": Q.copy(), "K": K.copy(), "V": V.copy()},
            {"Q": dQ, "K": dK, "V": dV}, dO)
        assert err <= 1e-6


class TestSoftmaxTile:
    """vanilla is diag's one-block case, bit for bit, and reads no score fn."""

    @pytest.mark.parametrize("d", [3, 8, 16])
    @pytest.mark.parametrize("causal", [False, True])
    def test_vanilla_is_one_diag_block(self, d, causal):
        n = 12
        Q, K, V = seeded_qkv(60 + d, n, d)
        dO = linalg.uniform(n, d, seed=61 + d)
        vspec = AttentionSpec("vanilla", causal=causal)
        dspec = AttentionSpec("diag", block_size=n, causal=causal)
        van = vanilla_forward(Q, K, V, vspec, reference=True)
        dia = diag_forward(Q, K, V, dspec, reference=True)
        assert np.array_equal(van.O, dia.O) and np.array_equal(van.P, dia.P)
        for a, b in zip(grad.vanilla_backward(Q, K, V, dO, vspec),
                        grad.diag_backward(Q, K, V, dO, dspec)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("d", [3, 8, 16])
    @pytest.mark.parametrize("causal", [False, True])
    def test_vanilla_ignores_diag_score_fn(self, d, causal):
        n = 12
        Q, K, V = seeded_qkv(70 + d, n, d)
        dO = linalg.uniform(n, d, seed=71 + d)
        plain = AttentionSpec("vanilla", causal=causal)
        rela = AttentionSpec("vanilla", causal=causal, diag_score_fn="rela")
        a = forward(Q, K, V, plain, reference=True)
        b = forward(Q, K, V, rela, reference=True)
        assert np.array_equal(a.O, b.O) and np.array_equal(a.P, b.P)
        for x, y in zip(grad.backward(Q, K, V, dO, plain), grad.backward(Q, K, V, dO, rela)):
            assert np.array_equal(x, y)


class TestDiagTiles:
    """diag runs all its blocks as one tile stack; that equals a walk over
    the blocks, one 2-D tile at a time, bit for bit."""

    @pytest.mark.parametrize("n,w", [(0, 1), (0, 4), (12, 1), (12, 4), (12, 12)])
    @pytest.mark.parametrize("score_fn", ["softmax", "rela"])
    @pytest.mark.parametrize("causal", [False, True])
    def test_equals_per_block_tiles(self, n, w, score_fn, causal):
        d = 3
        Q, K, V = seeded_qkv(90 + n + w, n, d)
        dO = linalg.uniform(n, d, seed=91 + n + w)
        spec = AttentionSpec("diag", block_size=w, causal=causal, diag_score_fn=score_fn)
        O, P = np.empty((n, d)), np.zeros((n, n))
        grads = [np.empty((n, d)) for _ in range(3)]
        for start in range(0, n, w):
            b = slice(start, start + w)
            O[b], P[b, b] = attention._tile(Q[b], K[b], V[b], spec, score_fn)
            for g, gb in zip(grads, grad._tile_backward(Q[b], K[b], V[b], dO[b], spec,
                                                        score_fn)):
                g[b] = gb
        out = diag_forward(Q, K, V, spec, reference=True)
        assert np.array_equal(out.O, O) and np.array_equal(out.P, P)
        assert diag_forward(Q, K, V, spec).P is None
        for got, want in zip(grad.diag_backward(Q, K, V, dO, spec), grads):
            assert got.shape == want.shape and np.array_equal(got, want)


def _min_abs_block_score(Q, K, V, w):
    n, d = Q.shape
    worst = math.inf
    for start in range(0, n, w):
        Sb = linalg.matmul(Q[start:start + w],
                           linalg.transpose(K[start:start + w])) / math.sqrt(d)
        worst = min(worst, float(np.min(np.abs(Sb))))
    return worst


class TestUpstreamShape:
    """A mis-shaped dO is refused up front, naming both shapes: it is never
    broadcast into (n, d) gradients, nor left to fail inside matmul."""

    @pytest.mark.parametrize("mechanism", attention.MECHANISMS)
    @pytest.mark.parametrize("causal", [False, True])
    @pytest.mark.parametrize("shape", ["1,d", "n,1", "n,d+1"])
    def test_mis_shaped_dO_raises(self, mechanism, causal, shape):
        n, d = 8, 4
        Q, K, V = seeded_qkv(95, n, d)
        dO = np.ones({"1,d": (1, d), "n,1": (n, 1), "n,d+1": (n, d + 1)}[shape])
        # one diag block of all n rows: a (1, d) dO would pad to its shape
        spec = AttentionSpec(mechanism, block_size=n, causal=causal)
        backwards = [grad.backward]
        if mechanism in ("linear", "norm"):
            backwards.append({"linear": grad.linear_scaled_backward,
                              "norm": grad.norm_backward}[mechanism])
        for fn in backwards:
            with pytest.raises(ValueError, match=re.escape(
                    f"dO has shape {dO.shape}, expected V's shape {V.shape}")):
                fn(Q, K, V, dO, spec)


class TestMapConsistency:
    """The softmax-family backward differentiates the map the forward builds:
    dV = P^T dO with P from the reference forward, bit for bit, also at
    widths whose sqrt(d) is not a power of two."""

    @pytest.mark.parametrize("mechanism", ["vanilla", "diag"])
    @pytest.mark.parametrize("d", [6, 8])
    @pytest.mark.parametrize("causal", [False, True])
    def test_dV_is_forward_map_transposed_times_dO(self, mechanism, d, causal):
        n = 32
        Q, K, V = seeded_qkv(97 + d, n, d)
        dO = linalg.uniform(n, d, seed=98 + d)
        spec = AttentionSpec(mechanism, block_size=8, causal=causal)
        P = forward(Q, K, V, spec, reference=True).P
        dV = grad.backward(Q, K, V, dO, spec)[2]
        assert np.array_equal(dV, linalg.matmul(linalg.transpose(P), dO))


class TestFiniteDiffCheck:
    def test_quadratic_toy_is_exact_to_roundoff(self):
        X = linalg.uniform(4, 3, seed=79)
        dO = np.ones((4, 3))
        err = grad.finite_diff_check(lambda p: p["X"] * p["X"],
                                     {"X": X.copy()}, {"X": 2.0 * X}, dO)
        assert err <= 1e-9

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            grad.finite_diff_check(lambda p: p["X"], {"X": np.ones((1, 1))},
                                   {"X": np.ones((1, 1))}, np.ones((1, 1)), h=0.0)


class TestAdversarial:
    def test_predicted_magnitude_example(self):
        inst = grad.build_adversarial(4, 4, 1e-6, get_kernel("1+elu"))
        assert inst.predicted_grad_magnitude == pytest.approx(187500.0)
        observed = grad.adversarial_observed(inst, get_kernel("1+elu"))
        rel = abs(observed - inst.predicted_grad_magnitude) / inst.predicted_grad_magnitude
        assert rel <= 1e-6

    def test_boundary_matches_vanilla_bound(self):
        inst = grad.build_adversarial(2, 3, 1.0, get_kernel("1+elu"))
        assert inst.predicted_grad_magnitude == pytest.approx(0.25)

    def test_sweep_monotone_hundredfold(self):
        mags = []
        for x0sq in (1e-2, 1e-4, 1e-6):
            inst = grad.build_adversarial(4, 4, x0sq, get_kernel("1+elu"))
            mags.append(grad.adversarial_observed(inst, get_kernel("1+elu")))
        assert mags[0] < mags[1] < mags[2]
        assert mags[1] / mags[0] == pytest.approx(100.0, rel=1e-9)
        assert mags[2] / mags[1] == pytest.approx(100.0, rel=1e-9)

    def test_exceeds_any_target(self):
        for target in (1e3, 1e6, 1e9):
            x0sq = (1.0 / target) * (1.0 / 4) * (3.0 / 4) / 10.0
            inst = grad.build_adversarial(4, 4, x0sq, get_kernel("1+elu"))
            assert grad.adversarial_observed(inst, get_kernel("1+elu")) > target

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            grad.build_adversarial(4, 4, 0.0, get_kernel("1+elu"))
        with pytest.raises(ValueError):
            grad.build_adversarial(4, 4, -1.0, get_kernel("1+elu"))


class TestGradReport:
    def test_json_field_names(self):
        Q, K, V = seeded_qkv(80, 6, 4)
        dO = linalg.uniform(6, 4, seed=81)
        _, _, _, rep = grad.linear_scaled_backward(
            Q, K, V, dO, AttentionSpec("linear", kernel="1+elu"))
        payload = json.loads(rep.to_json())
        assert set(payload) == {"mechanism", "theoretical_bound",
                                "c1", "c2", "c3", "max_abs_dL_ds", "fd_max_error"}
        assert payload["fd_max_error"] is None  # skipped, but never dropped

    @pytest.mark.parametrize("mechanism", ["linear", "norm"])
    @pytest.mark.parametrize("causal", [False, True])
    def test_backward_builds_no_map_jacobian(self, monkeypatch, mechanism, causal):
        def forbidden(*args, **kwargs):
            raise AssertionError("map-Jacobian extremum computed in a backward")

        monkeypatch.setattr(grad, "_max_abs_dp_ds", forbidden)
        monkeypatch.setattr(grad, "rmsnorm_jacobian", forbidden)
        monkeypatch.setattr(grad, "unified_dp_ds", forbidden)
        Q, K, V = seeded_qkv(82, 8, 4)
        dO = linalg.uniform(8, 4, seed=83)
        spec = AttentionSpec(mechanism, kernel="1+elu", causal=causal)
        backward = grad.linear_scaled_backward if mechanism == "linear" else grad.norm_backward
        dQ, dK, dV, rep = backward(Q, K, V, dO, spec)
        assert rep.mechanism == mechanism
        # grad.backward takes the state form, which adds in another order
        for got, want in zip(grad.backward(Q, K, V, dO, spec), (dQ, dK, dV)):
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


class TestStability:
    def test_zero_learning_rate_gives_zero_rsd(self):
        specs = grad.default_stability_specs()
        rep = grad.grad_stability_experiment(specs, steps=20, seed=3,
                                             learning_rate=0.0, replicas=2)
        for mech, val in rep.rsd.items():
            assert val == 0.0, mech

    def test_report_shape_and_determinism(self):
        specs = [AttentionSpec("vanilla")]
        a = grad.grad_stability_experiment(specs, steps=30, seed=5, replicas=2)
        b = grad.grad_stability_experiment(specs, steps=30, seed=5, replicas=2)
        assert a.rsd == b.rsd
        assert a.replicas == b.replicas
        assert len(a.replicas["vanilla"]) == 2
