"""Analytic backward passes, gradient-bound reports and stability experiments.

The attention-map Jacobian is computed from the shared normalized form
p_ij = f(s_ij) / sum_k f(s_ik):

    d p_ij / d s_ik = f'(s_ik)/f(s_ik) * (1{j=k} p_ij - p_ij p_ik)

With f = exp the prefactor is 1 and every entry lies in [-1/4, 1/4]; with
f = identity the prefactor is 1/s_ik and the entries are only bounded by
1/(4|s_ik|), which blows up as scores approach zero.  The adversarial
constructor below realizes that blow-up exactly.  Every backward pass here is
validated against central finite differences of its forward.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import attention, linalg
from .attention import AttentionSpec, ZeroDenominatorError
from .kernels import KernelFn, get_kernel
from .linalg import Matrix

# Dense rank-3 Jacobians are only reasonable at verification scale.
DENSE_JACOBIAN_MAX_N = 64

FD_STEP = 1e-5


@dataclass
class GradReport:
    """Gradient bounds for one attention instance: the constants c1, c2, c3,
    the |dL/ds| bound they imply and the observed max |dL/ds|."""

    mechanism: str
    theoretical_bound: float    # bound on |dL/ds| implied by c1, c2 (c3, eps)
    c1: float                   # max row norm of the upstream gradient
    c2: float                   # max row norm of V
    c3: float                   # min |s_ij| over active score entries
    max_abs_dL_ds: float
    fd_max_error: Optional[float] = None  # None when the check was skipped

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


@dataclass
class AdversarialInstance:
    """Queries/keys whose feature rows all equal one tiny vector x0.

    Every score then equals ||x0||^2, every attention weight equals 1/n, and
    the diagonal map-Jacobian entries equal (1/||x0||^2)(1/n)(1-1/n), which
    grows without bound as ||x0||^2 -> 0.
    """

    x0_norm_sq: float
    Q: Matrix
    K: Matrix
    predicted_grad_magnitude: float


def unified_dp_ds(P: Matrix, S: Matrix, kernel: KernelFn) -> np.ndarray:
    """Dense rank-3 Jacobian J[i, j, k] = d p_ij / d s_ik.

    Zero f(s_ik) values yield non-finite entries rather than an exception so
    callers can flag them.  Dense storage is capped at
    DENSE_JACOBIAN_MAX_N rows.
    """
    n = P.shape[0]
    if n > DENSE_JACOBIAN_MAX_N:
        raise ValueError(f"dense Jacobian capped at n={DENSE_JACOBIAN_MAX_N}")
    g = _prefactor(S, kernel)
    J = np.empty((n, n, n))
    with np.errstate(invalid="ignore"):  # 0 * inf where a zero factor meets f(s) = 0
        for i in range(n):
            p = P[i]
            J[i] = (np.diag(p) - np.outer(p, p)) * g[i][None, :]
    return J


def _prefactor(S: Matrix, kernel: KernelFn) -> Matrix:
    with np.errstate(divide="ignore", invalid="ignore"):
        return kernel.derivative(S) / kernel.apply(S)


def rmsnorm_jacobian(t_row: np.ndarray, eps: float) -> Matrix:
    """d o_j / d t_k for one normalized row; entries bounded by
    3 / (2 sqrt(sigma^2 + eps))."""
    d = t_row.shape[0]
    sig2 = float(np.mean(t_row * t_row))
    r = math.sqrt(sig2 + eps)
    return (np.eye(d) - np.outer(t_row, t_row) / (d * (sig2 + eps))) / r


def rmsnorm_backward(T: Matrix, dO: Matrix, eps: float) -> Matrix:
    """Pull the upstream gradient through the row normalizer."""
    d = T.shape[1]
    sig2 = np.mean(T * T, axis=1, keepdims=True)
    r2 = sig2 + eps
    r = np.sqrt(r2)
    inner = np.sum(dO * T, axis=1, keepdims=True)
    return (dO - T * (inner / (d * r2))) / r


def vanilla_backward(Q: Matrix, K: Matrix, V: Matrix, dO: Matrix,
                     spec: Optional[AttentionSpec] = None):
    """Gradients of L through softmax attention given dL/dO."""
    return _tile_backward(Q, K, V, dO, spec or AttentionSpec("vanilla"), "softmax")


def _tile_backward(Q: Matrix, K: Matrix, V: Matrix, dO: Matrix, spec: AttentionSpec,
                   score_fn: str):
    """(dQ, dK, dV) through one softmax-family tile, attention._tile."""
    alpha = 1.0 / math.sqrt(Q.shape[1]) if spec.scaled else 1.0
    S = linalg.matmul(Q, linalg.transpose(K)) * alpha
    if spec.causal:
        S = attention._causal_neg_inf(S) if score_fn == "softmax" else attention._causal_zero(S)
    dP = linalg.matmul(dO, linalg.transpose(V))
    if score_fn == "softmax":
        P = linalg.row_softmax(S)
        dS = P * (dP - np.sum(dP * P, axis=1, keepdims=True))
    else:
        R = np.maximum(S, 0.0)
        z = R.sum(axis=1, keepdims=True) + attention.RELA_EPS
        P = R / z
        dS = (dP - np.sum(dP * P, axis=1, keepdims=True)) / z * np.where(S >= 0, 1.0, 0.0)
        if spec.causal:
            dS = attention._causal_zero(dS)
    dQ = linalg.matmul(dS, K) * alpha
    dK = linalg.matmul(linalg.transpose(dS), Q) * alpha
    return dQ, dK, linalg.matmul(linalg.transpose(P), dO)


def _feature_grads(dS: Matrix, Q: Matrix, K: Matrix, FQ: Matrix, FK: Matrix,
                   spec: AttentionSpec):
    """(masked dS, dQ, dK) from dL/dS of S = phi(Q) phi(K)^T: the backward
    tail of attention._feature_scores."""
    if spec.causal:
        dS = attention._causal_zero(dS)
    kern = spec.kernel_fn
    dQ = linalg.matmul(dS, FK) * kern.derivative(Q)
    dK = linalg.matmul(linalg.transpose(dS), FQ) * kern.derivative(K)
    return dS, dQ, dK


def linear_scaled_backward(Q: Matrix, K: Matrix, V: Matrix, dO: Matrix,
                           spec: Optional[AttentionSpec] = None, *,
                           with_fd: bool = False):
    """Gradients through rescaled kernelized attention, plus a bound report."""
    return _kernel_backward(Q, K, V, dO, spec or AttentionSpec("linear"), with_fd)


def norm_backward(Q: Matrix, K: Matrix, V: Matrix, dO: Matrix,
                  spec: AttentionSpec, *, with_fd: bool = False):
    """Gradients through normalized (non-rescaled) kernelized attention."""
    return _kernel_backward(Q, K, V, dO, spec, with_fd)


def _kernel_backward(Q: Matrix, K: Matrix, V: Matrix, dO: Matrix, spec: AttentionSpec,
                     with_fd: bool):
    """(dQ, dK, dV, report) through attention._kernel_attention's T = S V and
    the mechanism's last step: O = T / z for linear, row_rmsnorm(T) for norm."""
    FQ, FK, S = attention._feature_scores(Q, K, spec.kernel_fn, spec.causal)
    T = linalg.matmul(S, V)
    c1 = linalg.row_norm_max(dO)
    c2 = linalg.row_norm_max(V)
    c3 = _min_abs_active(S, np.tri(S.shape[0]) if spec.causal else None)
    if spec.mechanism == "linear":
        z = linalg.row_sums(S)[:, None]
        attention._check_denominator(z[:, 0])
        dT = dO / z
        dz = -np.sum(dT * T, axis=1, keepdims=True) / z  # dL/dz, added to every s_ik
        bound = math.sqrt(S.shape[0]) * c1 * c2 / (4.0 * c3) if c3 > 0 else math.inf
    else:
        dT = rmsnorm_backward(T, dO, spec.epsilon)
        dz = 0.0  # no score sum in the normalized form
        bound = 3.0 * c1 * c2 * V.shape[1] / (2.0 * math.sqrt(spec.epsilon))
    dV = linalg.matmul(linalg.transpose(S), dT)
    dS, dQ, dK = _feature_grads(linalg.matmul(dT, linalg.transpose(V)) + dz,
                                Q, K, FQ, FK, spec)
    report = GradReport(mechanism=spec.mechanism, theoretical_bound=bound,
                        c1=c1, c2=c2, c3=c3, max_abs_dL_ds=float(np.max(np.abs(dS))))
    if with_fd:
        report.fd_max_error = _fd_for_mechanism(Q, K, V, dO, spec, (dQ, dK, dV))
    return dQ, dK, dV, report


def diag_backward(Q: Matrix, K: Matrix, V: Matrix, dO: Matrix, spec: AttentionSpec):
    """Gradients through block-diagonal attention (softmax or ReLU scores)."""
    n = Q.shape[0]
    w = spec.block_size
    if n % w != 0:
        raise ValueError(f"sequence length {n} is not a multiple of block size {w}")
    dQ = np.empty_like(Q)
    dK = np.empty_like(K)
    dV = np.empty_like(V)
    for start in range(0, n, w):
        b = slice(start, start + w)
        dQ[b], dK[b], dV[b] = _tile_backward(Q[b], K[b], V[b], dO[b], spec,
                                             spec.diag_score_fn)
    return dQ, dK, dV


def backward(Q: Matrix, K: Matrix, V: Matrix, dO: Matrix, spec: AttentionSpec):
    """(dQ, dK, dV) through the mechanism named by spec.mechanism.

    The only place that picks a backward by mechanism name.  Like
    attention.forward, it looks each backward up in this module's globals at
    call time, so a replaced module attribute sees every call.
    """
    if spec.mechanism == "vanilla":
        return vanilla_backward(Q, K, V, dO, spec)
    if spec.mechanism == "linear":
        return linear_scaled_backward(Q, K, V, dO, spec)[:3]
    if spec.mechanism == "norm":
        return norm_backward(Q, K, V, dO, spec)[:3]
    return diag_backward(Q, K, V, dO, spec)


def _max_abs_dp_ds(P: Matrix, S: Matrix, kernel: KernelFn) -> float:
    """max |d p_ij / d s_ik| over the dense unified_dp_ds."""
    return float(np.max(np.abs(unified_dp_ds(P, S, kernel))))


def _min_abs_active(S: Matrix, mask: Optional[Matrix]) -> float:
    if mask is None:
        return float(np.min(np.abs(S)))
    active = np.abs(S[mask > 0])
    return float(np.min(active)) if active.size else 0.0


def _fd_for_mechanism(Q, K, V, dO, spec: AttentionSpec, analytic) -> float:
    def fwd(params):
        return attention.forward(params["Q"], params["K"], params["V"], spec).O

    return finite_diff_check(
        fwd,
        {"Q": Q.copy(), "K": K.copy(), "V": V.copy()},
        {"Q": analytic[0], "K": analytic[1], "V": analytic[2]},
        dO,
    )


def finite_diff_check(forward_fn: Callable[[dict], Matrix], params: dict,
                      analytic: dict, dO: Matrix, h: float = FD_STEP) -> float:
    """Max |central difference - analytic| over every parameter entry.

    The probe loss is L(params) = <dO, forward_fn(params)>, whose gradient in
    the output is exactly dO, so the check isolates the backward under test.
    """
    if h <= 0:
        raise ValueError("h must be > 0")
    worst = 0.0
    for name, base in params.items():
        grad_flat = analytic[name].ravel()
        flat = base.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            lp = float(np.sum(dO * forward_fn(params)))
            flat[idx] = orig - h
            lm = float(np.sum(dO * forward_fn(params)))
            flat[idx] = orig
            fd = (lp - lm) / (2.0 * h)
            worst = max(worst, abs(fd - grad_flat[idx]))
    return worst


def build_adversarial(n: int, d: int, x0_norm_sq: float,
                      kernel: KernelFn) -> AdversarialInstance:
    """Instance realizing the map-Jacobian blow-up of rescaled attention.

    Picks x0 = c * ones(d) with c = sqrt(x0_norm_sq / d) and inverts the
    kernel componentwise so that every feature row equals x0.  All scores
    then equal x0_norm_sq and the attention weights are uniform 1/n.
    """
    if n < 2 or d < 1:
        raise ValueError(f"need n >= 2 and d >= 1, got n={n}, d={d}")
    if not 0 < x0_norm_sq < math.inf:
        raise ValueError("x0_norm_sq must be finite and > 0")
    if kernel.inverse is None:
        raise ValueError(f"kernel {kernel.name!r} has no componentwise inverse")
    c = math.sqrt(x0_norm_sq / d)
    row = kernel.inverse(np.full(d, c))
    Q = np.tile(row, (n, 1))
    predicted = (1.0 / x0_norm_sq) * (1.0 / n) * (1.0 - 1.0 / n)
    return AdversarialInstance(
        x0_norm_sq=x0_norm_sq, Q=Q, K=Q.copy(), predicted_grad_magnitude=predicted)


def adversarial_observed(inst: AdversarialInstance, kernel: KernelFn) -> float:
    """Largest diagonal |d p_ij / d s_ik| the instance actually achieves."""
    _, _, S = attention._feature_scores(inst.Q, inst.K, kernel, causal=False)
    z = linalg.row_sums(S)
    P = S / z[:, None]
    J = unified_dp_ds(P, S, get_kernel("identity"))
    n = P.shape[0]
    diag = np.abs(J[:, np.arange(n), np.arange(n)])
    return float(np.max(diag))


# ---------------------------------------------------------------------------
# Gradient-stability experiment
# ---------------------------------------------------------------------------

STAB_TAG_SCALE = 3.0
STAB_NOISE_SCALE = 0.75
STAB_VALUE_SCALE = 1.5
STAB_RESIDUAL = 0.3


@dataclass
class StabilityReport:
    """Relative standard deviation of gradient norms per mechanism."""

    rsd: dict
    replicas: dict
    steps: int
    learning_rate: float
    seed: int
    n: int
    d: int
    n_replicas: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def default_stability_specs(epsilon: float = 1e-4) -> list[AttentionSpec]:
    return [
        AttentionSpec("vanilla"),
        AttentionSpec("linear", kernel="1+elu"),
        AttentionSpec("norm", kernel="1+elu", epsilon=epsilon),
    ]


def _stability_task(seed: int, n: int, d: int):
    """Paired-token retrieval: each token's target is its partner's value.

    Solving it requires sharp, content-based attention, which drives the
    rescaled mechanism's scores toward zero; a non-realizable residual keeps
    gradients from flatlining.
    """
    if n % 2 != 0 or d % 2 != 0:
        raise ValueError("task needs even n and d")
    d_tag = d // 2
    X = np.zeros((n, d))
    vals = linalg.normal(n, 1, linalg.split_seed(seed, 11))[:, 0]
    for t in range(n // 2):
        tag = linalg.normal(d_tag, 1, linalg.split_seed(seed, 13, t))[:, 0]
        tag /= math.sqrt(float(np.sum(tag * tag)))
        noise = linalg.normal(2, d - d_tag, linalg.split_seed(seed, 17, t))
        for off, i in enumerate((2 * t, 2 * t + 1)):
            X[i, :d_tag] = STAB_TAG_SCALE * tag
            X[i, d_tag:] = STAB_NOISE_SCALE * noise[off]
            X[i, d_tag] = STAB_VALUE_SCALE * vals[i]
    y = np.empty((n, 1))
    y[0::2, 0] = vals[1::2]
    y[1::2, 0] = vals[0::2]
    y += STAB_RESIDUAL * np.sign(np.sin(np.arange(n)))[:, None]
    return X, y


def _stability_replica(spec: AttentionSpec, seed: int, steps: int, lr: float,
                       n: int, d: int) -> float:
    """One SGD run; returns rsd of the gradient-norm stream, inf on divergence."""
    X, y = _stability_task(seed, n, d)
    init_std = 1.0 / math.sqrt(d)
    Wq = linalg.normal(d, d, linalg.split_seed(seed, 23), std=init_std)
    Wk = linalg.normal(d, d, linalg.split_seed(seed, 29), std=init_std)
    Wv = linalg.normal(d, d, linalg.split_seed(seed, 31), std=init_std)
    wr = linalg.normal(d, 1, linalg.split_seed(seed, 37))
    wr /= math.sqrt(float(np.sum(wr * wr)))  # fixed readout probe

    norms = []
    for _ in range(steps):
        if not (np.all(np.isfinite(Wq)) and np.all(np.isfinite(Wk))
                and np.all(np.isfinite(Wv))):
            return math.inf
        with np.errstate(all="ignore"):
            Q = linalg.matmul(X, Wq)
            K = linalg.matmul(X, Wk)
            V = linalg.matmul(X, Wv)
            try:
                out = attention.forward(Q, K, V, spec)
                yh = linalg.matmul(out.O, wr)
                resid = yh - y
                loss = float(np.mean(resid * resid))
                dO = linalg.matmul(2.0 * resid / resid.size, linalg.transpose(wr))
                dQ, dK, dV = backward(Q, K, V, dO, spec)
            except ZeroDenominatorError:
                return math.inf
            gWq = linalg.matmul(linalg.transpose(X), dQ)
            gWk = linalg.matmul(linalg.transpose(X), dK)
            gWv = linalg.matmul(linalg.transpose(X), dV)
            g2 = float(np.sum(gWq * gWq) + np.sum(gWk * gWk) + np.sum(gWv * gWv))
        if not (math.isfinite(loss) and math.isfinite(g2)):
            return math.inf
        norms.append(math.sqrt(g2))
        Wq -= lr * gWq
        Wk -= lr * gWk
        Wv -= lr * gWv
    arr = np.array(norms)
    if float(arr.max()) == float(arr.min()):
        return 0.0  # constant stream; don't let mean-subtraction roundoff lie
    mean = float(arr.mean())
    if mean == 0.0:
        return 0.0
    return float(arr.std() / mean)


def grad_stability_experiment(specs: Sequence[AttentionSpec], steps: int = 500,
                              seed: int = 7, *, learning_rate: float = 0.2,
                              n: int = 32, d: int = 8,
                              replicas: int = 5) -> StabilityReport:
    """Train each mechanism on the same fixed retrieval task and compare the
    relative standard deviation (std/mean) of the gradient-norm stream.

    The reported rsd per mechanism is the median over seeded replicas; a
    diverged replica (non-finite loss, gradient or weights) counts as inf.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not math.isfinite(learning_rate):
        raise ValueError(f"learning_rate must be finite, got {learning_rate}")
    rsd: dict = {}
    detail: dict = {}
    for spec in specs:
        runs = []
        for r in range(replicas):
            rep_seed = linalg.split_seed(seed, 1000 + r)
            runs.append(_stability_replica(spec, rep_seed, steps, learning_rate, n, d))
        detail[spec.mechanism] = runs
        rsd[spec.mechanism] = float(np.median(runs))
    return StabilityReport(rsd=rsd, replicas=detail, steps=steps,
                           learning_rate=learning_rate, seed=seed, n=n, d=d,
                           n_replicas=replicas)
