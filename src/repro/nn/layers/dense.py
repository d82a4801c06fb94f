"""Fully connected layer."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import init as nn_init
from repro.nn.module import Module, Parameter, as_compute
from repro.utils.rng import SeedLike, as_rng


class Dense(Module):
    """Affine transform ``y = x @ W + b`` on inputs of shape ``(N, in_features)``.

    The forward product is taken one row at a time — ``np.matmul`` over the
    stacked ``(N, 1, in_features)`` view runs the same ``(1, in) @ (in, out)``
    product for every row — so a row's output is bitwise independent of the
    batch it arrives in.  A single ``(N, in) @ (in, out)`` GEMM is not: BLAS
    picks its kernel (and with it the summation order) from ``N``, e.g. the
    gemv path for ``N == 1``.  AE-SZ relies on this: the decompressor decodes
    the AE-selected blocks in a different batch than the compressor predicted
    them in.  The input is kept for ``backward`` only when ``training``
    resolves to true.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True, rng: SeedLike = None):
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Dense layer sizes must be positive")
        rng = as_rng(rng)
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.weight = Parameter(
            nn_init.xavier_uniform((in_features, out_features), in_features, out_features, rng),
            name="dense.weight",
        )
        self.bias = Parameter(nn_init.zeros((out_features,)), name="dense.bias") if bias else None
        self._cache_x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: Optional[bool] = None) -> np.ndarray:
        x = as_compute(x)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Dense expected input of shape (N, {self.in_features}), got {x.shape}"
            )
        self._cache_x = x if self._resolve_training(training) else None
        out = np.matmul(x[:, None, :], self.weight.value.astype(x.dtype, copy=False))[:, 0, :]
        if self.bias is not None:
            out += self.bias.value.astype(x.dtype, copy=False)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache_x is None:
            raise RuntimeError("backward called before forward")
        x = self._cache_x
        grad = np.asarray(grad, dtype=x.dtype)
        self.weight.grad += x.T @ grad
        if self.bias is not None:
            self.bias.grad += grad.sum(axis=0)
        return grad @ self.weight.value.astype(x.dtype, copy=False).T
