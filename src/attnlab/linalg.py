"""Dense double-precision matrix kernels with a deterministic accumulation order.

Everything downstream (attention forwards, backwards, benchmarks) routes its
matrix products through :func:`matmul`, which accumulates the inner dimension
left to right.  The result is bitwise identical to the classic triple loop and
bit-reproducible across runs on one machine; no BLAS call is made anywhere in
this module.
"""

from __future__ import annotations

import numpy as np

Matrix = np.ndarray  # 2-D float64, C-contiguous

# SplitMix64 constants (Steele, Lea & Flood's mix function).
_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_MIX2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = 1.0 / float(1 << 53)


# Accumulator slabs are kept around this size so they stay cache-resident.
_MATMUL_BLOCK_BYTES = 4 << 20


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Product with left-to-right accumulation over the inner dimension.

    Bitwise equal to ``out[i,j] = sum_k a[i,k]*b[k,j]`` evaluated k=0,1,...
    with one rounding per multiply and per add (no FMA, no reassociation);
    3-D operands (batch, rows, inner) x (batch, inner, cols) do so per entry.
    Output rows (3-D: entries) are processed in cache-sized blocks; that
    reorders only which entries are updated when, never any entry's sequence.
    """
    # column k of a and row k of b, as views that broadcast to out's shape
    if a.ndim == b.ndim == 2 and a.shape[1] == b.shape[0]:
        a_k, b_k = a.T[:, :, None], b[:, None, :]
    elif a.ndim == b.ndim == 3 and len(a) == len(b) and a.shape[2] == b.shape[1]:
        a_k, b_k = a.transpose(2, 0, 1)[..., None], b.transpose(1, 0, 2)[:, :, None]
    else:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}; matmul takes "
                         "(n, k) x (k, p) or (batch, n, k) x (batch, k, p)")
    inner = a.shape[-1]
    out = np.zeros(a.shape[:-1] + b.shape[-1:])
    if out.size == 0 or inner == 0:
        return out
    # long inner dimensions would walk a's columns with a large stride; one
    # contiguous transpose up front is cheaper than n*inner strided reads
    if inner >= 256 and a.shape[-2] >= 256:
        a_k = np.ascontiguousarray(a_k)
    lead = len(out)
    per_block = _MATMUL_BLOCK_BYTES * lead // (8 * out.size)
    if per_block >= lead:
        _accumulate(out, a_k, b_k, np.empty(out.shape))
        return out
    per_block = max(1, per_block)
    tmp = np.empty((per_block,) + out.shape[1:])
    for r0 in range(0, lead, per_block):
        ob = out[r0:r0 + per_block]
        _accumulate(ob, a_k[:, r0:r0 + per_block],
                    b_k if a.ndim == 2 else b_k[:, r0:r0 + per_block], tmp[:len(ob)])
    return out


def _accumulate(out: np.ndarray, a_k: np.ndarray, b_k: np.ndarray, tmp: np.ndarray) -> None:
    """out += a_k[k] * b_k[k] for k = 0, 1, ... in turn; tmp holds each product."""
    for k in range(len(a_k)):
        np.multiply(a_k[k], b_k[k], out=tmp)
        out += tmp


def transpose(m: Matrix) -> Matrix:
    """The last two axes swapped, contiguous."""
    return np.ascontiguousarray(m.swapaxes(-1, -2))


def row_sums(m: Matrix) -> np.ndarray:
    return m.sum(axis=-1)


def row_softmax(m: Matrix) -> Matrix:
    """Row-wise softmax with per-row max subtraction.

    Rows run along the last axis.  -inf entries are supported (they map to
    exact zeros) as long as each row keeps at least one finite entry.
    """
    mx = np.max(m, axis=-1, keepdims=True, initial=-np.inf)
    e = np.exp(m - mx)
    return e / e.sum(axis=-1, keepdims=True)


def row_rmsnorm(m: Matrix, eps: float) -> Matrix:
    """Rows scaled by 1/sqrt(mean(row**2) + eps); eps > 0 guards zero rows."""
    if eps <= 0:
        raise ValueError("eps must be > 0")
    # np.mean's own sum-then-divide, without its per-call overhead
    ms = np.add.reduce(m * m, axis=1, keepdims=True) / m.shape[1]
    return m / np.sqrt(ms + eps)


def row_norm_max(m: Matrix) -> float:
    """Largest Euclidean row norm of the matrix."""
    if m.size == 0:
        return 0.0
    return float(np.max(np.sqrt(np.sum(m * m, axis=1))))


def spectral_norm_estimate(m: Matrix, iters: int) -> float:
    """Power-iteration estimate of the largest singular value.

    The estimate is monotonically non-decreasing in ``iters`` (Rayleigh
    quotient growth on m^T m) and converges from below, so it never exceeds
    the true spectral norm. Returns 0 for a zero matrix.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    cols = m.shape[1]
    v = np.full((cols, 1), 1.0 / np.sqrt(cols))
    mt = transpose(m)
    for _ in range(iters):
        w = matmul(mt, matmul(m, v))
        norm = float(np.sqrt(np.sum(w * w)))
        if norm == 0.0:
            return 0.0
        v = w / norm
    mv = matmul(m, v)
    return float(np.sqrt(np.sum(mv * mv)))


def _splitmix(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array (counter-based, vectorized)."""
    with np.errstate(over="ignore"):
        z = x.astype(np.uint64)
        z ^= z >> np.uint64(30)
        z *= _SM_MIX1
        z ^= z >> np.uint64(27)
        z *= _SM_MIX2
        z ^= z >> np.uint64(31)
    return z


def _raw_stream(seed: int, count: int) -> np.ndarray:
    with np.errstate(over="ignore"):
        idx = (np.arange(1, count + 1, dtype=np.uint64) * _SM_GAMMA
               + np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    return _splitmix(idx)


def split_seed(seed: int, *stream: int) -> int:
    """Derive an independent child seed; deterministic in (seed, stream ids).

    Each component is mixed before combining, so (seed, ids) pairs that merely
    share a sum do not collide.
    """
    z = _splitmix(np.array([seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64))[0]
    for s in stream:
        with np.errstate(over="ignore"):
            zs = _splitmix(np.array([np.uint64(s & 0xFFFFFFFFFFFFFFFF) + _SM_GAMMA]))[0]
            z = _splitmix(np.array([z ^ zs]))[0]
    return int(z)


def uniform(rows: int, cols: int, seed: int, low: float = -1.0, high: float = 1.0) -> Matrix:
    """Seeded matrix with entries uniform in [low, high); SplitMix64 driven."""
    bits = _raw_stream(seed, rows * cols)
    u = (bits >> np.uint64(11)).astype(np.float64) * _INV_2_53
    return (low + u * (high - low)).reshape(rows, cols)


def _seeded_qkv(seed: int, n: int, d: int, lo: float = -1.0, hi: float = 1.0):
    """[Q, K, V], each n x d uniform in [lo, hi) on streams 1, 2, 3 of seed."""
    return [uniform(n, d, split_seed(seed, s), lo, hi) for s in (1, 2, 3)]


def normal(rows: int, cols: int, seed: int, std: float = 1.0) -> Matrix:
    """Seeded Gaussian matrix via Box-Muller on the SplitMix64 stream."""
    count = rows * cols
    half = (count + 1) // 2
    bits = _raw_stream(seed, 2 * half)
    # u1 in (0, 1] so log is finite; u2 in [0, 1)
    u1 = ((bits[:half] >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
    u2 = (bits[half:] >> np.uint64(11)).astype(np.float64) * _INV_2_53
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:count]
    return (std * z).reshape(rows, cols)
