"""Forward passes for the four attention mechanisms.

Each linear-complexity mechanism comes in two algebraically equivalent forms:
the efficient form never materializes the n x n score matrix, the reference
form does (and reports it).  The efficient form of the linear mechanisms runs
in CAUSAL_CHUNK-row chunks (_chunk_state): each chunk's d x d state, summed
over all chunks, or over the chunks before it when causal, where a masked
score tile inside each chunk adds the rest.  Block attention applies full
attention independently inside non-overlapping diagonal blocks.  Blocks and
chunks are stacked on a leading batch axis (_as_tiles), and every tile step
reads the last two axes, so no loop walks them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .kernels import KernelFn, get_kernel
from .linalg import Matrix

MECHANISMS = ("vanilla", "linear", "norm", "diag")
DIAG_SCORE_FNS = ("softmax", "rela")

# Row sums of the score matrix below this are treated as vanishing: the
# rescaling step would divide by (numerically) nothing.
MIN_DENOMINATOR = 1e-300

# Guard added to block row sums in ReLU score normalization.
RELA_EPS = 1e-6

# Rows per chunk of the efficient linear forms.  The chunk grid starts at row
# 0, so rows appended after row i never change causal row i's arithmetic.
CAUSAL_CHUNK = 64


class ZeroDenominatorError(ValueError):
    """A rescaled linear attention row has a vanishing score sum."""


@dataclass(frozen=True)
class AttentionSpec:
    """Which mechanism to run and with what knobs.

    Each mechanism reads only the fields it needs and ignores the rest.
    """

    mechanism: str
    kernel: str = "1+elu"
    block_size: int = 64
    causal: bool = False
    epsilon: float = 1e-5
    diag_score_fn: str = "softmax"

    def __post_init__(self):
        if self.mechanism not in MECHANISMS:
            raise ValueError(f"unknown mechanism {self.mechanism!r}; choose from {MECHANISMS}")
        if self.diag_score_fn not in DIAG_SCORE_FNS:
            raise ValueError(f"unknown diag score fn {self.diag_score_fn!r}")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if not (self.epsilon > 0 and np.isfinite(self.epsilon)):
            raise ValueError("epsilon must be finite and > 0")
        if self.mechanism == "linear" and not self.kernel_fn.nonnegative:
            raise ValueError(
                f"linear (rescaled) attention needs a non-negative kernel, got {self.kernel!r}")

    @property
    def kernel_fn(self) -> KernelFn:
        return get_kernel(self.kernel)

    @property
    def scaled(self) -> bool:
        """Scores carry the 1/sqrt(d) factor: softmax-family mechanisms only."""
        return self.mechanism in ("vanilla", "diag")


@dataclass
class AttentionOutput:
    O: Matrix
    P: Optional[Matrix] = None  # n x n weights, present for reference-form runs


def _causal_neg_inf(S: Matrix) -> Matrix:
    return np.where(np.tri(*S.shape[-2:], dtype=bool), S, -np.inf)


def _causal_zero(S: Matrix) -> Matrix:
    return S * np.tri(*S.shape[-2:])


def _as_tiles(X: Matrix, rows: int) -> np.ndarray:
    """X's rows as a stack of `rows`-row tiles, the last one zero-padded."""
    n, cols = X.shape
    pad = -n % rows
    if pad:
        X = np.vstack([X, np.zeros((pad, cols))])
    return X.reshape(-1, rows, cols)


def _from_tiles(X: np.ndarray, n: int) -> Matrix:
    """The first n rows of a tile stack, as one matrix: _as_tiles undone."""
    return X.reshape(-1, X.shape[-1])[:n]


def _tile(Q: Matrix, K: Matrix, V: Matrix, spec: AttentionSpec,
          score_fn: str) -> tuple[Matrix, Matrix]:
    """(O, P) of softmax-family attention over square tiles, one matrix or a
    stack of them: the _tile_scores map P, then P V."""
    P = _tile_scores(Q, K, spec, score_fn)[1]
    return linalg.matmul(P, V), P


def _tile_scores(Q: Matrix, K: Matrix, spec: AttentionSpec,
                 score_fn: str) -> tuple[Matrix, Matrix]:
    """(S, P), the score step of _tile: scores divided by sqrt(d) when
    spec.scaled, masked when spec.causal, then normalized by row softmax or
    rela_scores."""
    S = linalg.matmul(Q, linalg.transpose(K))
    if spec.scaled:
        S = S / np.sqrt(Q.shape[-1])
    if spec.causal:
        S = _causal_neg_inf(S) if score_fn == "softmax" else _causal_zero(S)
    return S, linalg.row_softmax(S) if score_fn == "softmax" else rela_scores(S)


def _feature_scores(FQ: Matrix, FK: Matrix, causal: bool) -> Matrix:
    """S = phi(Q) phi(K)^T from the features, zeroed above the diagonal when
    causal: the score step of the kernel family."""
    S = linalg.matmul(FQ, linalg.transpose(FK))
    return _causal_zero(S) if causal else S


def vanilla_forward(Q: Matrix, K: Matrix, V: Matrix, spec: Optional[AttentionSpec] = None,
                    *, reference: bool = False) -> AttentionOutput:
    """Softmax attention, one tile of all n rows; spec.diag_score_fn is not
    read.  The quadratic matrix is inherent to the mechanism."""
    spec = spec or AttentionSpec("vanilla")
    _check_shapes(Q, K, V)
    O, P = _tile(Q, K, V, spec, "softmax")
    return AttentionOutput(O=O, P=P if reference else None)


def _kernel_features(Q: Matrix, K: Matrix, V: Matrix, spec: AttentionSpec,
                     dO: Optional[Matrix] = None) -> tuple[Matrix, Matrix, Matrix]:
    """(phi(Q), phi(K), V~) of linear or norm, after _check_shapes: V~ is V
    with a ones column appended for linear, so that the last column of
    T~ = phi(Q) phi(K)^T V~ is the row score sum z; V itself for norm."""
    _check_shapes(Q, K, V, dO)
    if spec.mechanism == "linear":
        V = np.concatenate([V, np.ones((len(V), 1))], axis=1)
    return spec.kernel_fn.apply(Q), spec.kernel_fn.apply(K), V


def _kernel_attention(FQ: Matrix, FK: Matrix, Vt: Matrix, causal: bool,
                      reference: bool) -> tuple[Matrix, Optional[Matrix]]:
    """(T~, S): T~ = phi(Q) phi(K)^T V~ from the _kernel_features, the body
    that linear and norm share; S, the n x n scores, only in the reference
    form, where T~ = S V~.  The efficient form goes through _chunk_state's
    d x d states phi(K)^T V~, causal or not, and forms no n x n array."""
    if reference:
        S = _feature_scores(FQ, FK, causal)
        return linalg.matmul(S, Vt), S
    return _linear_causal(FQ, FK, Vt) if causal else _chunk_state(FQ, FK, Vt, False)[-1], None


def linear_scaled_forward(Q: Matrix, K: Matrix, V: Matrix, spec: AttentionSpec,
                          *, reference: bool = False) -> AttentionOutput:
    """Kernelized attention rescaled by the per-row score sum: T / z.

    Raises ZeroDenominatorError when a row score sum vanishes: the rescaling
    has no meaning there.
    """
    Tt, S = _kernel_attention(*_kernel_features(Q, K, V, spec), spec.causal, reference)
    _check_denominator(Tt[:, -1])
    z = Tt[:, -1:]  # T~ = [T | z]
    return AttentionOutput(O=Tt[:, :-1] / z, P=None if S is None else S / z)


def norm_forward(Q: Matrix, K: Matrix, V: Matrix, spec: AttentionSpec,
                 *, reference: bool = False) -> AttentionOutput:
    """Kernelized attention without rescaling; rows of T = T~ normalized afterwards.

    The reference form reports the raw score matrix in P; its rows are not
    stochastic for this mechanism.
    """
    Tt, S = _kernel_attention(*_kernel_features(Q, K, V, spec), spec.causal, reference)
    return AttentionOutput(O=linalg.row_rmsnorm(Tt, spec.epsilon), P=S)


def _linear_causal(FQ: Matrix, FK: Matrix, Vt: Matrix) -> Matrix:
    """Chunkwise causal phi(Q) phi(K)^T Vt: row i sees rows j <= i only.
    Its own name so that perfbench's tracer can time the causal step."""
    return _chunk_state(FQ, FK, Vt, causal=True)[-1]


def _chunks(X: Matrix) -> np.ndarray:
    """X's rows as a stack of CAUSAL_CHUNK-row chunks, one chunk of all n
    rows when n is shorter."""
    return _as_tiles(X, min(len(X), CAUSAL_CHUNK) or 1)


def _chunk_state(FQ: Matrix, FK: Matrix, Vt: Matrix, causal: bool):
    """(S, M, T) of T = phi(Q) phi(K)^T Vt from the features FQ = phi(Q) and
    FK = phi(K), through the _chunks of its rows.

    M sums the chunk states phi(K_c)^T Vt_c (_state_sum).  Not causal: M is
    their d x d total, T = phi(Q) M and S is None.  Causal: M stacks each
    chunk's exclusive prefix state, S the chunks' masked score tiles, and
    chunk c's rows of T are phi(Q_c) M_c + S_c Vt_c.
    """
    FK_c, Vt_c = _chunks(FK), _chunks(Vt)
    if not causal:
        M = _state_sum(FK_c, Vt_c, False, 1)
        return None, M, linalg.matmul(FQ, M)
    FQ_c = _chunks(FQ)
    S = _feature_scores(FQ_c, FK_c, causal=True)  # the peak: form it before M exists
    M = _state_sum(FK_c, Vt_c, True, 1)
    return S, M, _from_tiles(linalg.matmul(FQ_c, M) + linalg.matmul(S, Vt_c), len(FQ))


def _state_sum(A: np.ndarray, B: np.ndarray, causal: bool, step: int) -> np.ndarray:
    """The chunk states A_c^T B_c of two chunk stacks, from one batched
    product whose inner dimension is the chunk length, summed over the chunks
    in order: their total, or causal a stack of each chunk's exclusive prefix
    (step 1) or suffix (step -1) sum.  The one state that no sum reads is not
    formed; a matmul never yields -0.0, so the sums equal those from zeros."""
    if not causal:
        return np.add.reduce(linalg.matmul(linalg.transpose(A), B), axis=0)
    read, write = (slice(None, -1), slice(1, None))[::step]
    out = np.zeros((len(A), A.shape[2], B.shape[2]))
    np.add.accumulate(linalg.matmul(linalg.transpose(A[read]), B[read])[::step], axis=0,
                      out=out[write][::step])
    return out


def rela_scores(S_block: Matrix) -> Matrix:
    """ReLU scores normalized per row by (row sum + guard).

    Rows whose entries are all non-positive come out as zero rows: the token
    attends to nothing.
    """
    if S_block.shape[-2] != S_block.shape[-1]:
        raise ValueError("rela_scores expects a square block")
    return np.maximum(S_block, 0.0) / _rela_denominator(S_block)


def _rela_denominator(S: Matrix) -> Matrix:
    """rela_scores' divisor: each row's ReLU sum plus the guard, as a column."""
    return np.maximum(S, 0.0).sum(axis=-1, keepdims=True) + RELA_EPS


def diag_forward(Q: Matrix, K: Matrix, V: Matrix, spec: AttentionSpec,
                 *, reference: bool = False) -> AttentionOutput:
    """Full attention inside non-overlapping diagonal blocks of size w.

    The sequence length must be a multiple of the block size; padding is the
    caller's job.  Tokens never attend across blocks.
    """
    n = Q.shape[0]
    O, P = _tile(*_diag_tiles(spec, Q, K, V), spec, spec.diag_score_fn)
    if not reference:
        return AttentionOutput(O=_from_tiles(O, n))
    # tile b lands on diagonal block (b, b) of the n x n map
    t, w = P.shape[:2]
    P_full = np.zeros((t, w, t, w))
    P_full[np.arange(t), :, np.arange(t)] = P
    return AttentionOutput(O=_from_tiles(O, n), P=P_full.reshape(n, n))


def forward(Q: Matrix, K: Matrix, V: Matrix, spec: AttentionSpec,
            *, reference: bool = False) -> AttentionOutput:
    """Dispatch on spec.mechanism.

    The only place that picks a forward by mechanism name.  Each forward is
    looked up in this module's globals at call time, so a replaced module
    attribute (a tracing or counting wrapper) sees every call.
    """
    if spec.mechanism == "vanilla":
        return vanilla_forward(Q, K, V, spec, reference=reference)
    if spec.mechanism == "linear":
        return linear_scaled_forward(Q, K, V, spec, reference=reference)
    if spec.mechanism == "norm":
        return norm_forward(Q, K, V, spec, reference=reference)
    return diag_forward(Q, K, V, spec, reference=reference)


def _check_shapes(Q: Matrix, K: Matrix, V: Matrix, dO: Optional[Matrix] = None) -> None:
    """Q and K share a shape, V has their rows, a given dO has V's shape."""
    if Q.shape != K.shape:
        raise ValueError(f"Q and K must share a shape, got {Q.shape} vs {K.shape}")
    if V.shape[0] != Q.shape[0]:
        raise ValueError(f"V has {V.shape[0]} rows, expected {Q.shape[0]}")
    if dO is not None and dO.shape != V.shape:
        raise ValueError(f"dO has shape {dO.shape}, expected V's shape {V.shape}")


def _diag_tiles(spec: AttentionSpec, *Xs: Matrix) -> list[np.ndarray]:
    """Xs = (Q, K, V[, dO]), checked, cut into diag's w-row blocks; w must divide n."""
    _check_shapes(*Xs)
    n, w = len(Xs[0]), spec.block_size
    if n % w != 0:
        raise ValueError(f"sequence length {n} is not a multiple of block size {w}")
    return [_as_tiles(X, w) for X in Xs]


def _check_denominator(z: np.ndarray) -> None:
    """Raise ZeroDenominatorError at the first vanishing score sum."""
    bad = np.abs(z) < MIN_DENOMINATOR
    if bad.any():
        i = int(np.argmax(bad))
        raise ZeroDenominatorError(f"row {i}: score sum {float(z[i])!r} vanishes")
