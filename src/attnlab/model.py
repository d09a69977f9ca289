"""Toy transformer stack: block-local attention early, normalized linear
attention late, gated feed-forward, pre-norm residuals.

Two wiring variants are supported: "t1" uses ReLU block scores and the elu
feature map in the late layers, "t2" uses softmax block scores and 1+elu.
Forward and backward are fully analytic (no autodiff).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import attention, grad, linalg
from .attention import AttentionSpec
# not called here: perfbench/tracer.py wraps these names on this module
from .attention import diag_forward, norm_forward, vanilla_forward  # noqa: F401
from .linalg import Matrix

VARIANTS = {
    # variant -> (block score fn, late-layer kernel)
    "t1": ("rela", "elu"),
    "t2": ("softmax", "1+elu"),
}


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int = 12
    n_early: int = 6              # block-attention layers, the rest normalize
    d_model: int = 32
    n_heads: int = 2
    block_size: int = 64
    glu_dim: int = 0              # 0 -> 2 * d_model
    variant: str = "t2"
    epsilon: float = 1e-5
    causal: bool = False
    seed: int = 7
    # run "vanilla", "diag" or "norm" in every layer; "linear" is rejected
    attention_override: Optional[str] = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; choose from {tuple(VARIANTS)}")
        for name, low in (("n_layers", 0), ("n_early", 0), ("d_model", 1), ("n_heads", 1),
                          ("block_size", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        if self.n_early > self.n_layers:
            raise ValueError("n_early cannot exceed n_layers")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError("epsilon must be finite and > 0")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @property
    def ffn_dim(self) -> int:
        return self.glu_dim if self.glu_dim > 0 else 2 * self.d_model

    def layer_mechanism(self, layer_index: int) -> str:
        if self.attention_override is not None:
            return self.attention_override
        return "diag" if layer_index < self.n_early else "norm"

    def attention_spec(self, layer_index: int) -> AttentionSpec:
        mech = self.layer_mechanism(layer_index)
        if mech == "linear":  # the normalized layers replace its rescaling
            raise ValueError(f"unsupported layer mechanism {mech!r}")
        score_fn, kernel = VARIANTS[self.variant]
        return AttentionSpec(mech, kernel=kernel, block_size=self.block_size,
                             causal=self.causal, epsilon=self.epsilon,
                             diag_score_fn=score_fn)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


@dataclass
class LayerParams:
    W_Q: Matrix
    W_K: Matrix
    W_V: Matrix
    W_O: Matrix
    W_g: Matrix
    W_u: Matrix
    W_down: Matrix

    def named(self) -> dict:
        return {"W_Q": self.W_Q, "W_K": self.W_K, "W_V": self.W_V, "W_O": self.W_O,
                "W_g": self.W_g, "W_u": self.W_u, "W_down": self.W_down}


def init_layer(config: ModelConfig, layer_index: int) -> LayerParams:
    d, f = config.d_model, config.ffn_dim
    std = 1.0 / math.sqrt(d)
    seed = linalg.split_seed(config.seed, layer_index)
    mk = lambda rows, cols, tag: linalg.normal(rows, cols, linalg.split_seed(seed, tag), std=std)
    return LayerParams(
        W_Q=mk(d, d, 1), W_K=mk(d, d, 2), W_V=mk(d, d, 3), W_O=mk(d, d, 4),
        W_g=mk(d, f, 5), W_u=mk(d, f, 6), W_down=mk(f, d, 7),
    )


def init_params(config: ModelConfig) -> list[LayerParams]:
    return [init_layer(config, i) for i in range(config.n_layers)]


def _sigmoid(z: Matrix) -> Matrix:
    e = np.exp(-np.abs(z))  # never overflows
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _swish(z: Matrix) -> Matrix:
    return z * _sigmoid(z)


def _swish_prime(z: Matrix) -> Matrix:
    sig = _sigmoid(z)
    return sig * (1.0 + z * (1.0 - sig))


def glu_ffn(x: Matrix, params: LayerParams) -> Matrix:
    """(swish(x W_g) * (x W_u)) W_down."""
    a = linalg.matmul(x, params.W_g)
    b = linalg.matmul(x, params.W_u)
    return linalg.matmul(_swish(a) * b, params.W_down)


def glu_ffn_backward(x: Matrix, params: LayerParams, d_out: Matrix):
    """Returns (dx, grads dict for W_g, W_u, W_down)."""
    a = linalg.matmul(x, params.W_g)
    b = linalg.matmul(x, params.W_u)
    g = _swish(a)
    dGB = linalg.matmul(d_out, linalg.transpose(params.W_down))
    dW_down = linalg.matmul(linalg.transpose(g * b), d_out)
    dg = dGB * b
    db = dGB * g
    da = dg * _swish_prime(a)
    dx = linalg.matmul(da, linalg.transpose(params.W_g)) + \
        linalg.matmul(db, linalg.transpose(params.W_u))
    dW_g = linalg.matmul(linalg.transpose(x), da)
    dW_u = linalg.matmul(linalg.transpose(x), db)
    return dx, {"W_g": dW_g, "W_u": dW_u, "W_down": dW_down}


def _heads(m: Matrix, n_heads: int):
    hd = m.shape[1] // n_heads
    return [m[:, h * hd:(h + 1) * hd] for h in range(n_heads)]


def _attention_sublayer(a: Matrix, params: LayerParams, spec: AttentionSpec,
                        config: ModelConfig, collect_P: bool = False):
    """Multi-head attention on the normalized input; per-head slices share
    the mechanism, head outputs concatenate before the output projection.

    Returns (output, per-head maps, cache); the cache (Q, K, V, concatenated
    head outputs, all n x d_model) is what the backward consumes."""
    Q = linalg.matmul(a, params.W_Q)
    K = linalg.matmul(a, params.W_K)
    V = linalg.matmul(a, params.W_V)
    outs = []
    Ps = []
    for Qh, Kh, Vh in zip(_heads(Q, config.n_heads), _heads(K, config.n_heads),
                          _heads(V, config.n_heads)):
        res = attention.forward(Qh, Kh, Vh, spec, reference=collect_P)
        outs.append(res.O)
        if collect_P:
            Ps.append(res.P)
    concat = np.concatenate(outs, axis=1)
    return linalg.matmul(concat, params.W_O), Ps, (Q, K, V, concat)


def layer_forward(x: Matrix, params: LayerParams, layer_index: int,
                  config: ModelConfig, collect_P: bool = False):
    """Pre-norm residual block: attention sublayer then gated feed-forward."""
    if x.shape[1] != config.d_model:
        raise ValueError(f"expected {config.d_model} columns, got {x.shape[1]}")
    spec = config.attention_spec(layer_index)
    a1 = linalg.row_rmsnorm(x, config.epsilon)
    attn, Ps, _ = _attention_sublayer(a1, params, spec, config, collect_P)
    h = x + attn
    a2 = linalg.row_rmsnorm(h, config.epsilon)
    out = h + glu_ffn(a2, params)
    if collect_P:
        return out, Ps
    return out


def model_forward(x: Matrix, config: ModelConfig,
                  params: Optional[list[LayerParams]] = None) -> Matrix:
    """Run the full stack."""
    if params is None:
        params = init_params(config)
    for i, p in enumerate(params):
        x = layer_forward(x, p, i, config)
    return x


# ---------------------------------------------------------------------------
# Analytic layer backward
# ---------------------------------------------------------------------------


def _attention_sublayer_backward(a: Matrix, params: LayerParams,
                                 spec: AttentionSpec, config: ModelConfig,
                                 cache, d_out: Matrix):
    """Gradients of the attention sublayer from its forward cache."""
    Q, K, V, concat = cache
    heads = zip(_heads(Q, config.n_heads), _heads(K, config.n_heads),
                _heads(V, config.n_heads))
    dW_O = linalg.matmul(linalg.transpose(concat), d_out)
    d_concat = linalg.matmul(d_out, linalg.transpose(params.W_O))
    hd = config.head_dim
    dQ = np.empty_like(Q)
    dK = np.empty_like(K)
    dV = np.empty_like(V)
    for h, (Qh, Kh, Vh) in enumerate(heads):
        dOh = d_concat[:, h * hd:(h + 1) * hd]
        dq, dk, dv = grad.backward(Qh, Kh, Vh, dOh, spec)
        dQ[:, h * hd:(h + 1) * hd] = dq
        dK[:, h * hd:(h + 1) * hd] = dk
        dV[:, h * hd:(h + 1) * hd] = dv
    da = linalg.matmul(dQ, linalg.transpose(params.W_Q)) + \
        linalg.matmul(dK, linalg.transpose(params.W_K)) + \
        linalg.matmul(dV, linalg.transpose(params.W_V))
    grads = {
        "W_Q": linalg.matmul(linalg.transpose(a), dQ),
        "W_K": linalg.matmul(linalg.transpose(a), dK),
        "W_V": linalg.matmul(linalg.transpose(a), dV),
        "W_O": dW_O,
    }
    return da, grads


def layer_backward(x: Matrix, params: LayerParams, layer_index: int,
                   config: ModelConfig, d_out: Matrix):
    """Gradient of <G, layer_forward(x)> w.r.t. x and all layer weights."""
    spec = config.attention_spec(layer_index)
    a1 = linalg.row_rmsnorm(x, config.epsilon)
    attn, _, cache = _attention_sublayer(a1, params, spec, config)
    h = x + attn
    a2 = linalg.row_rmsnorm(h, config.epsilon)

    d_h = d_out.copy()
    d_a2, ffn_grads = glu_ffn_backward(a2, params, d_out)
    d_h += grad.rmsnorm_backward(h, d_a2, config.epsilon)

    d_x = d_h.copy()
    d_a1, attn_grads = _attention_sublayer_backward(a1, params, spec, config, cache, d_h)
    d_x += grad.rmsnorm_backward(x, d_a1, config.epsilon)

    grads = {**attn_grads, **ffn_grads}
    return d_x, grads
