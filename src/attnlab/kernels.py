"""Scalar activation / feature-map registry with analytic derivatives.

Each kernel is a vectorized scalar map together with its derivative and,
where it exists, a componentwise inverse (used to construct score matrices
with prescribed feature values).  Non-smooth kernels use the right
derivative at 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

Scalar = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class KernelFn:
    name: str
    apply: Scalar
    derivative: Scalar
    inverse: Optional[Scalar] = None
    nonnegative: bool = False  # image contained in [0, inf)

    def __repr__(self) -> str:  # keep dataclass noise out of reports
        return f"KernelFn({self.name!r})"


def _identity(x):
    return np.asarray(x, dtype=np.float64) + 0.0


def _one(x):
    return np.ones_like(np.asarray(x, dtype=np.float64))


def _elu(x):
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 0, x, np.expm1(np.minimum(x, 0.0)))


def _elu_prime(x):
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 0, 1.0, np.exp(np.minimum(x, 0.0)))


def _elu_inverse(y):
    y = np.asarray(y, dtype=np.float64)
    if np.any(y <= -1.0):
        raise ValueError("elu preimage requires values > -1")
    return np.where(y >= 0, y, np.log1p(np.minimum(y, 0.0)))


def _one_plus_elu(x):
    # exp form on the negative branch: 1 + expm1(x) would round to 0 long
    # before double underflow, and the image must stay strictly positive
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 0, 1.0 + x, np.exp(np.minimum(x, 0.0)))


def _one_plus_elu_inverse(y):
    y = np.asarray(y, dtype=np.float64)
    if np.any(y <= 0.0):
        raise ValueError("1+elu preimage requires values > 0")
    # 1+elu(x) = e^x for x < 0, 1+x for x >= 0
    return np.where(y >= 1.0, y - 1.0, np.log(np.minimum(y, 1.0)))


def _relu(x):
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0)


def _relu_prime(x):
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 0, 1.0, 0.0)


def _relu_inverse(y):
    # right inverse on the positive ray only
    y = np.asarray(y, dtype=np.float64)
    if np.any(y <= 0.0):
        raise ValueError("relu preimage requires values > 0")
    return y + 0.0


KERNELS: dict[str, KernelFn] = {
    "identity": KernelFn("identity", _identity, _one, inverse=_identity),
    "exp": KernelFn("exp", np.exp, np.exp, inverse=np.log, nonnegative=True),
    "elu": KernelFn("elu", _elu, _elu_prime, inverse=_elu_inverse),
    "1+elu": KernelFn("1+elu", _one_plus_elu, _elu_prime,
                      inverse=_one_plus_elu_inverse, nonnegative=True),
    "relu": KernelFn("relu", _relu, _relu_prime,
                     inverse=_relu_inverse, nonnegative=True),
}


def get_kernel(name: str) -> KernelFn:
    try:
        return KERNELS[name]
    except KeyError:
        known = ", ".join(sorted(KERNELS))
        raise ValueError(f"unknown kernel {name!r}; choose one of: {known}") from None
