"""Dense double-precision matrix kernels with a deterministic accumulation order.

Everything downstream (attention forwards, backwards, benchmarks) routes its
matrix products through :func:`matmul`, which accumulates the inner dimension
left to right.  The result is bitwise identical to the classic triple loop and
bit-reproducible across runs on one machine; no BLAS call is made anywhere in
this module.  :func:`matmul` sums a slab of inner indices per numpy call.
"""

from __future__ import annotations

import numpy as np

Matrix = np.ndarray  # 2-D float64, C-contiguous

# SplitMix64 constants (Steele, Lea & Flood's mix function).
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MIX1 = 0xBF58476D1CE4E5B9
_SM_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 1.0 / float(1 << 53)


_SLAB_ENTRIES = 8192  # 64 KiB slabs stay in cache and keep lab-sized peaks
_MATMUL_BLOCK_BYTES = 4 << 20  # row blocks of one-step updates


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Product with left-to-right accumulation over the inner dimension.

    Bitwise equal, but for a NaN's sign, to ``out[i,j] = sum_k a[i,k]*b[k,j]``
    evaluated k=0,1,... with one rounding per multiply and add (no FMA, no reassociation);
    3-D operands (batch, rows, inner) x (batch, inner, cols) do so per entry.
    Per slab of k, products land behind the running sum and one np.add.reduce
    adds them in index order; one-entry blocks, which reduce sums pairwise, go k by k.
    """
    # k-major views: A[k] is column k of a, B[k] row k of b (3-D: per entry)
    if a.ndim == b.ndim == 2 and a.shape[1] == b.shape[0]:
        A, B, spec = a.T, b, "ki,kj->kij"
    elif a.ndim == b.ndim == 3 and len(a) == len(b) and a.shape[2] == b.shape[1]:
        A, B, spec = a.transpose(2, 0, 1), b.transpose(1, 0, 2), "kbi,kbj->kbij"
    else:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}; matmul takes "
                         "(n, k) x (k, p) or (batch, n, k) x (batch, k, p)")
    inner = a.shape[-1]
    out = np.zeros(a.shape[:-1] + b.shape[-1:])
    if out.size == 0 or inner == 0:
        return out
    if out.size > 1 and inner * out.size <= _SLAB_ENTRIES:  # one slab: nothing to plan
        einsum = inner * out.size >= 4096  # faster from here: fills no broadcast buffers
        acc = np.empty((inner + 1,) + out.shape)
        acc[0] = 0.0
        if einsum:
            np.einsum(spec, A, B, out=acc[1:])
        else:
            np.multiply(A[..., None], B[..., None, :], out=acc[1:])
        np.add.reduce(acc, 0, None, out)
    else:
        # long inner dimensions would walk a's columns with a large stride; one
        # contiguous transpose up front is cheaper than n*inner strided reads
        if inner >= 256 and a.shape[-2] >= 256:
            A = np.ascontiguousarray(A)
        # slab plan: row blocks of min(inner, 16) products per entry, split evenly,
        # then as many k as a slab holds.  It needs blocks of 2+ entries (numpy sums
        # one pairwise) and at most half the one-step update's numpy calls (2 per k)
        lead, per = len(out), out.size // len(out)
        blocks = -(-lead // max(1, _SLAB_ENTRIES // ((min(inner, 16) + 1) * per)))
        step = max(1, min(inner, _SLAB_ENTRIES // (-(-lead // blocks) * per) - 1))
        one_blocks = -(-lead // max(1, _MATMUL_BLOCK_BYTES // (8 * per)))
        slab_calls = blocks * (2 * -(-inner // step) + 1)
        if lead // blocks * per < 2 or step < min(inner, 8) or slab_calls > inner * one_blocks:
            blocks, step = one_blocks, 1
        acc = np.empty((step + (step > 1), -(-lead // blocks)) + out.shape[1:])
        einsum = acc[-1].size * step >= 4096  # products per call, as above
        if einsum:
            product = lambda x, y, o: np.einsum(spec, x, y, out=o)
        else:  # operands that broadcast to the products' shape
            A, B, product = A[..., None], B[..., None, :], np.multiply
        for i in range(blocks):
            r0, r1 = lead * i // blocks, lead * (i + 1) // blocks
            ob, acc_r = out[r0:r1], acc[:, :r1 - r0]
            a_r, b_r = A[:, r0:r1], (B if a.ndim == 2 else B[:, r0:r1])
            if step > 1:
                acc_r[0] = 0.0
                for k0 in range(0, inner, step):
                    k1 = min(k0 + step, inner)
                    product(a_r[k0:k1], b_r[k0:k1], acc_r[1:k1 - k0 + 1])
                    np.add.reduce(acc_r[:k1 - k0 + 1], 0, None, ob if k1 == inner else acc_r[0])
                continue
            for k in range(inner):
                product(a_r[k:k + 1], b_r[k:k + 1], acc_r)
                ob += acc_r[0]
    if einsum and not np.isfinite(out).all():  # einsum never warns: multiply does
        for k in range(inner):
            np.multiply(A[k, ..., None], B[k, ..., None, :])
    return out


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
        z *= np.uint64(_SM_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_SM_MIX2)
        z ^= z >> np.uint64(31)
    return z


def _splitmix_int(z: int) -> int:
    """:func:`_splitmix` of one int in [0, 2**64), in Python-int arithmetic mod 2**64."""
    z ^= z >> 30
    z = (z * _SM_MIX1) & 0xFFFFFFFFFFFFFFFF
    z ^= z >> 27
    z = (z * _SM_MIX2) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def _raw_stream(seed: int, count: int) -> np.ndarray:
    with np.errstate(over="ignore"):
        idx = (np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_SM_GAMMA)
               + np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    return _splitmix(idx)


def split_seed(seed: int, *stream: int) -> int:
    """Derive an independent child seed; deterministic in (seed, stream ids).

    Each component is mixed before combining, so (seed, ids) pairs that merely
    share a sum do not collide.
    """
    z = _splitmix_int(seed & 0xFFFFFFFFFFFFFFFF)
    for s in stream:
        z = _splitmix_int(z ^ _splitmix_int((s + _SM_GAMMA) & 0xFFFFFFFFFFFFFFFF))
    return z


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
