"""Independent reference for the golden output summaries.

Plain numpy with BLAS products and explicit n x n masks: a second derivation
of every forward and gradient the benchmark times, written from the formulas
rather than from attnlab's code. The benchmark compares sums of absolute
values (|O|, |dQ|, |dK|, |dV|, |dW|) against these at a relative tolerance of
1e-9, which a fast path that only reassociates sums still meets and a wrong
number does not.
"""

from __future__ import annotations

import numpy as np

RTOL = 1e-9


def phi(x):
    """The 1+elu feature map."""
    return np.where(x >= 0, 1.0 + x, np.exp(np.minimum(x, 0.0)))


def dphi(x):
    return np.where(x >= 0, 1.0, np.exp(np.minimum(x, 0.0)))


def _allowed(n, causal, block):
    """n x n boolean mask of the (query, key) pairs a row may attend to."""
    i = np.arange(n)
    ok = np.ones((n, n), dtype=bool)
    if block:
        ok &= (i[:, None] // block) == (i[None, :] // block)
    if causal:
        ok &= i[None, :] <= i[:, None]
    return ok


def rmsnorm(x, eps):
    return x / np.sqrt(np.mean(x * x, axis=1, keepdims=True) + eps)


def rmsnorm_backward(x, g, eps):
    r2 = np.mean(x * x, axis=1, keepdims=True) + eps
    return (g - x * np.sum(g * x, axis=1, keepdims=True) / (x.shape[1] * r2)) / np.sqrt(r2)


def attention(mech, Q, K, V, dO=None, *, causal=False, block=64, eps=1e-5):
    """O for one head, and (O, (dQ, dK, dV)) when an upstream dO is given.

    vanilla and diag use scaled softmax scores (diag inside blocks of
    ``block`` rows); linear and norm use unscaled 1+elu features, linear
    rescaled by the row score sum, norm RMS-normalized afterwards.
    """
    n, d = Q.shape
    ok = _allowed(n, causal, block if mech == "diag" else 0)
    if mech in ("vanilla", "diag"):
        a = 1.0 / np.sqrt(d)
        S = np.where(ok, (Q @ K.T) * a, -np.inf)
        P = np.exp(S - S.max(axis=1, keepdims=True))
        P /= P.sum(axis=1, keepdims=True)
        O = P @ V
        if dO is None:
            return O
        dP = dO @ V.T
        dS = P * (dP - np.sum(dP * P, axis=1, keepdims=True))
        return O, ((dS @ K) * a, (dS.T @ Q) * a, P.T @ dO)
    FQ, FK = phi(Q), phi(K)
    S = (FQ @ FK.T) * ok
    if mech == "linear":
        z = S.sum(axis=1, keepdims=True)
        P = S / z
        O = P @ V
        if dO is None:
            return O
        dP = dO @ V.T
        dS = (dP - np.sum(dP * P, axis=1, keepdims=True)) / z * ok
        dV = P.T @ dO
    elif mech == "norm":
        T = S @ V
        O = rmsnorm(T, eps)
        if dO is None:
            return O
        dT = rmsnorm_backward(T, dO, eps)
        dS = (dT @ V.T) * ok
        dV = S.T @ dT
    else:
        raise ValueError(f"unknown mechanism {mech!r}")
    return O, (dphi(Q) * (dS @ FK), dphi(K) * (dS.T @ FQ), dV)


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def layer(x, p, mech, *, heads, block, eps, G=None):
    """Pre-norm block: multi-head attention then the gated FFN.

    Returns the layer output, and with an upstream G also dL/dx and the
    weight gradients of L = <G, output> (keyed like ``LayerParams.named``).
    """
    a1 = rmsnorm(x, eps)
    Q, K, V = a1 @ p.W_Q, a1 @ p.W_K, a1 @ p.W_V
    hd = Q.shape[1] // heads
    cols = [slice(h * hd, (h + 1) * hd) for h in range(heads)]
    kw = dict(block=block, eps=eps)
    concat = np.concatenate([attention(mech, Q[:, c], K[:, c], V[:, c], **kw)
                             for c in cols], axis=1)
    h = x + concat @ p.W_O
    a2 = rmsnorm(h, eps)
    A, B = a2 @ p.W_g, a2 @ p.W_u
    s = _sigmoid(A)
    sw = A * s
    out = h + (sw * B) @ p.W_down
    if G is None:
        return out
    dGB = G @ p.W_down.T
    dA = dGB * B * s * (1.0 + A * (1.0 - s))
    dB = dGB * sw
    grads = {"W_down": (sw * B).T @ G, "W_g": a2.T @ dA, "W_u": a2.T @ dB}
    d_h = G + rmsnorm_backward(h, dA @ p.W_g.T + dB @ p.W_u.T, eps)
    grads["W_O"] = concat.T @ d_h
    d_concat = d_h @ p.W_O.T
    dQ, dK, dV = np.empty_like(Q), np.empty_like(K), np.empty_like(V)
    for c in cols:
        _, (dQ[:, c], dK[:, c], dV[:, c]) = attention(
            mech, Q[:, c], K[:, c], V[:, c], d_concat[:, c], **kw)
    grads.update(W_Q=a1.T @ dQ, W_K=a1.T @ dK, W_V=a1.T @ dV)
    dx = d_h + rmsnorm_backward(x, dQ @ p.W_Q.T + dK @ p.W_K.T + dV @ p.W_V.T, eps)
    return out, dx, grads


def abs_sums(*arrays):
    return tuple(float(np.sum(np.abs(a))) for a in arrays)


def matches(got, want, rtol=RTOL):
    """Every summary finite and within rtol of the reference."""
    return len(got) == len(want) and all(
        np.isfinite(g) and abs(g - w) <= rtol * abs(w) for g, w in zip(got, want))
