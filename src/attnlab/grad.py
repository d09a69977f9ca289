"""Analytic backward passes, gradient-bound reports and stability experiments.

The attention-map Jacobian is computed from the shared normalized form
p_ij = f(s_ij) / sum_k f(s_ik):

    d p_ij / d s_ik = f'(s_ik)/f(s_ik) * (1{j=k} p_ij - p_ij p_ik)

With f = exp the prefactor is 1 and every entry lies in [-1/4, 1/4]; with
f = identity the prefactor is 1/s_ik and the entries are only bounded by
1/(4|s_ik|), which blows up as scores approach zero.  The adversarial
constructor below realizes that blow-up exactly.  Every backward pass here is
validated against central finite differences of its forward.

linear and norm have two backwards.  backward(), which the model, the SGD
experiment and bench call, goes through the d x d state phi(K)^T V~ in
O(n d^2) time, over the attention.CAUSAL_CHUNK-row chunks of the forward's
chunk-state body, causal or not, run as one tile stack as diag_backward runs
its blocks.  linear_scaled_backward and norm_backward are the quadratic
reference: they form the n x n scores, and return the GradReport that reads
them.  Both differentiate T~ = phi(Q) phi(K)^T V~ (V~ = [V | 1] for linear)
and share one last-step backward, _state_step_backward.
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
    # J[i] = diag(P[i]) - outer(P[i], P[i]), built in place: a broadcast product
    # buffers its operands, and each n^3 temporary slows n = 64 several times
    J = np.einsum("ij,ik->ijk", P, P)
    np.negative(J, out=J)
    J[:, np.arange(n), np.arange(n)] += P
    with np.errstate(invalid="ignore"):  # 0 * inf where a zero factor meets f(s) = 0
        J *= g[:, None, :]
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
    sig2 = np.add.reduce(T * T, axis=1, keepdims=True) / d  # as linalg.row_rmsnorm
    r2 = sig2 + eps
    r = np.sqrt(r2)
    inner = np.add.reduce(dO * T, axis=1, keepdims=True)
    return (dO - T * (inner / (d * r2))) / r


def vanilla_backward(Q: Matrix, K: Matrix, V: Matrix, dO: Matrix,
                     spec: Optional[AttentionSpec] = None):
    """Gradients of L through softmax attention given dL/dO."""
    attention._check_shapes(Q, K, V, dO)
    return _tile_backward(Q, K, V, dO, spec or AttentionSpec("vanilla"), "softmax")


def _tile_backward(Q: Matrix, K: Matrix, V: Matrix, dO: Matrix, spec: AttentionSpec,
                   score_fn: str):
    """(dQ, dK, dV) through attention._tile, one tile or a stack, from its (S, P)."""
    S, P = attention._tile_scores(Q, K, spec, score_fn)
    dP = linalg.matmul(dO, linalg.transpose(V))
    dS = dP - np.sum(dP * P, axis=-1, keepdims=True)
    if score_fn == "softmax":
        dS = P * dS
    else:
        dS = dS / attention._rela_denominator(S) * np.where(S >= 0, 1.0, 0.0)
        if spec.causal:
            dS = attention._causal_zero(dS)
    alpha = 1.0 / math.sqrt(Q.shape[-1]) if spec.scaled else 1.0
    dQ = linalg.matmul(dS, K) * alpha
    dK = linalg.matmul(linalg.transpose(dS), Q) * alpha
    return dQ, dK, linalg.matmul(linalg.transpose(P), dO)


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
    """(dQ, dK, dV, report) through the reference form of
    attention._kernel_attention, T~ = S V~, and the mechanism's last step.

    Quadratic in n: the report reads the n x n scores.  grad.backward takes
    _state_backward instead, which builds no report.
    """
    FQ, FK, Vt = attention._kernel_features(Q, K, V, spec, dO)
    Tt, S = attention._kernel_attention(FQ, FK, Vt, spec.causal, reference=True)
    c1 = linalg.row_norm_max(dO)
    c2 = linalg.row_norm_max(V)
    c3 = _min_abs_active(S, np.tri(S.shape[0]) if spec.causal else None)
    dTt = _state_step_backward(Tt, dO, spec)
    if spec.mechanism == "norm":
        bound = 3.0 * c1 * c2 * V.shape[1] / (2.0 * math.sqrt(spec.epsilon))
    else:
        bound = math.sqrt(S.shape[0]) * c1 * c2 / (4.0 * c3) if c3 > 0 else math.inf
    dV = np.ascontiguousarray(linalg.matmul(linalg.transpose(S), dTt)[:, :V.shape[1]])
    # dL/dS (linear's dL/dz via V~'s ones column), then back through S = phi(Q) phi(K)^T
    dS = linalg.matmul(dTt, linalg.transpose(Vt))
    if spec.causal:
        dS = attention._causal_zero(dS)
    kern = spec.kernel_fn
    dQ = linalg.matmul(dS, FK) * kern.derivative(Q)
    dK = linalg.matmul(linalg.transpose(dS), FQ) * kern.derivative(K)
    report = GradReport(mechanism=spec.mechanism, theoretical_bound=bound,
                        c1=c1, c2=c2, c3=c3, max_abs_dL_ds=float(np.max(np.abs(dS))))
    if with_fd:
        report.fd_max_error = _fd_for_mechanism(Q, K, V, dO, spec, (dQ, dK, dV))
    return dQ, dK, dV, report


def _state_step_backward(Tt: Matrix, dO: Matrix, spec: AttentionSpec) -> Matrix:
    """dT~ through the last step from T~ = phi(Q) phi(K)^T V~, in either form:
    norm's dL/dT through O = row_rmsnorm(T~); linear's [dL/dT | dL/dz] through
    O = T / z, T~ = [T | z], where dL/dz is a column added to every s_ik of its row."""
    if spec.mechanism != "linear":
        return rmsnorm_backward(Tt, dO, spec.epsilon)
    attention._check_denominator(Tt[:, -1])
    z = Tt[:, -1:]
    dT = dO / z
    dz = -np.add.reduce(dT * Tt[:, :-1], axis=1, keepdims=True) / z
    return np.concatenate([dT, dz], axis=1)


def _state_backward(Q: Matrix, K: Matrix, V: Matrix, dO: Matrix, spec: AttentionSpec):
    """(dQ, dK, dV) through linear or norm in O(n d^2) time and O(n d) memory.

    The gradient of T~ = phi(Q) phi(K)^T V~ goes through the d x d state
    M~ = phi(K)^T V~ (Katharopoulos et al. 2020, section 3.3), from the
    attention._kernel_features, with dT~ from _state_step_backward:

        dphi(Q) = dT~ M~^T    dM~ = phi(Q)^T dT~
        dV~ = phi(K) dM~      dphi(K) = V~ dM~^T

    S, M~ and T~ come from attention._chunk_state, and dM~ is its state sum
    taken in reverse: the total, or when causal each chunk's exclusive
    suffix.  Causal runs all of it per chunk and adds the terms through the
    masked tiles S.
    """
    FQ, FK, Vt = attention._kernel_features(Q, K, V, spec, dO)
    kern, causal = spec.kernel_fn, spec.causal
    S, M, Tt = attention._chunk_state(FQ, FK, Vt, causal)
    dTt = _state_step_backward(Tt, dO, spec)
    FQ_c, dTt_c = attention._chunks(FQ), attention._chunks(dTt)
    if causal:  # the tile terms, the largest products, first: no state term is held yet
        FQ, FK, Vt, dTt = FQ_c, attention._chunks(FK), attention._chunks(Vt), dTt_c
        dS = attention._causal_zero(linalg.matmul(dTt, linalg.transpose(Vt)))
        tiles = (linalg.matmul(dS, FK), linalg.matmul(linalg.transpose(dS), FQ),
                 linalg.matmul(linalg.transpose(S), dTt))
    dM = attention._state_sum(FQ_c, dTt_c, causal, -1)
    grads = (linalg.matmul(dTt, linalg.transpose(M)), linalg.matmul(Vt, linalg.transpose(dM)),
             linalg.matmul(FK, dM))
    if causal:
        # summed in place, and the tiles freed before the chain rule below, so
        # that neither adds to the peak that the tile products set
        grads = [attention._from_tiles(np.add(G, T, out=G), len(Q)) for G, T in zip(grads, tiles)]
        del S, dS, tiles
    dFQ, dFK, dVt = grads
    return (dFQ * kern.derivative(Q), dFK * kern.derivative(K),
            np.ascontiguousarray(dVt[:, :V.shape[1]]))


def diag_backward(Q: Matrix, K: Matrix, V: Matrix, dO: Matrix, spec: AttentionSpec):
    """Gradients through block-diagonal attention (softmax or ReLU scores)."""
    grads = _tile_backward(*attention._diag_tiles(spec, Q, K, V, dO), spec, spec.diag_score_fn)
    return tuple(attention._from_tiles(G, len(Q)) for G in grads)


def backward(Q: Matrix, K: Matrix, V: Matrix, dO: Matrix, spec: AttentionSpec):
    """(dQ, dK, dV) through the mechanism named by spec.mechanism.

    The only place that picks a backward by mechanism name.  Like
    attention.forward, it looks each backward up in this module's globals at
    call time, so a replaced module attribute sees every call.
    """
    if spec.mechanism == "vanilla":
        return vanilla_backward(Q, K, V, dO, spec)
    if spec.mechanism in ("linear", "norm"):
        return _state_backward(Q, K, V, dO, spec)
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
    S = attention._feature_scores(kernel.apply(inst.Q), kernel.apply(inst.K), causal=False)
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
    gradients from flatlining.  Returns X, y and the replica's starting
    weights [Wq | Wk | Wv] (d x 3d) and fixed readout probe wr.
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
    W = np.concatenate([linalg.normal(d, d, linalg.split_seed(seed, s), std=1.0 / math.sqrt(d))
                        for s in (23, 29, 31)], axis=1)
    wr = linalg.normal(d, 1, linalg.split_seed(seed, 37))
    wr /= math.sqrt(float(np.sum(wr * wr)))
    return X, y, W, wr


def _column_thirds(M: np.ndarray):
    """M's three equal column blocks, each contiguous (so sums keep their order)."""
    w = M.shape[1] // 3
    return [np.ascontiguousarray(M[:, i:i + w]) for i in (0, w, 2 * w)]


def _stability_replica(spec: AttentionSpec, X: np.ndarray, y: np.ndarray, W: np.ndarray,
                       wr: np.ndarray, steps: int, lr: float) -> float:
    """One SGD run from a copy of W = [Wq | Wk | Wv]; returns rsd of the
    gradient-norm stream, inf on divergence.

    Q|K|V is one product X W and the weight gradient one product X^T [dQ|dK|dV]:
    each entry is the same left-to-right sum as in the per-matrix products.
    """
    W, Xt = W.copy(), linalg.transpose(X)
    norms = []
    for _ in range(steps):
        if not np.all(np.isfinite(W)):
            return math.inf
        with np.errstate(all="ignore"):
            Q, K, V = _column_thirds(linalg.matmul(X, W))
            try:
                out = attention.forward(Q, K, V, spec)
                yh = linalg.matmul(out.O, wr)
                resid = yh - y
                loss = float(np.mean(resid * resid))
                dO = linalg.matmul(2.0 * resid / resid.size, linalg.transpose(wr))
                dQKV = np.concatenate(backward(Q, K, V, dO, spec), axis=1)
            except ZeroDenominatorError:
                return math.inf
            G = linalg.matmul(Xt, dQKV)
            gWq, gWk, gWv = _column_thirds(G)
            g2 = float(np.sum(gWq * gWq) + np.sum(gWk * gWk) + np.sum(gWv * gWv))
        if not (math.isfinite(loss) and math.isfinite(g2)):
            return math.inf
        norms.append(math.sqrt(g2))
        W -= lr * G
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
    # every mechanism starts from the same task and weights per replica seed
    starts = [_stability_task(linalg.split_seed(seed, 1000 + r), n, d) for r in range(replicas)]
    for spec in specs:
        runs = [_stability_replica(spec, *start, steps, learning_rate) for start in starts]
        detail[spec.mechanism] = runs
        rsd[spec.mechanism] = float(np.median(runs))
    return StabilityReport(rsd=rsd, replicas=detail, steps=steps,
                           learning_rate=learning_rate, seed=seed, n=n, d=d,
                           n_replicas=replicas)
