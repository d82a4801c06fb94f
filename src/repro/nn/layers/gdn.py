"""Generalized Divisive Normalization (GDN) and its inverse (iGDN).

GDN [Balle et al., 2016] is the channel-wise normalization used as the
activation function in AE-SZ's convolutional blocks (paper Section IV-B):

    y_i = x_i / sqrt(beta_i + sum_j gamma_ij * x_j^2)

iGDN multiplies instead of dividing and is used in the decoder's
deconvolutional blocks.  ``beta`` and ``gamma`` are trainable; after every
optimizer step they are projected back onto their feasible set
(``beta >= beta_min``, ``gamma >= 0``) via :meth:`Module.project`, matching the
projected-gradient treatment in the reference implementations.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.module import Module, Parameter, as_compute


class _GDNBase(Module):
    def __init__(self, channels: int, beta_init: float = 1.0, gamma_init: float = 0.1,
                 beta_min: float = 1e-6):
        if channels <= 0:
            raise ValueError("channels must be positive")
        self.channels = int(channels)
        self.beta_min = float(beta_min)
        self.beta = Parameter(np.full(channels, float(beta_init)), name="gdn.beta")
        gamma = np.full((channels, channels), 0.0)
        np.fill_diagonal(gamma, float(gamma_init))
        self.gamma = Parameter(gamma, name="gdn.gamma")
        self._cache = None

    def project(self) -> None:
        np.maximum(self.beta.value, self.beta_min, out=self.beta.value)
        np.maximum(self.gamma.value, 0.0, out=self.gamma.value)

    def _norm_pool(self, x: np.ndarray):
        """Compute u_i = beta_i + sum_j gamma_ij x_j^2 and z_i = sqrt(u_i).

        ``x`` has shape ``(N, C, *spatial)``; the sum runs over channels at
        every spatial location independently — one ``(C, C) @ (C, L)`` GEMM
        per block, so a block's result does not depend on its batch.
        """
        x2 = x * x
        gamma = self.gamma.value.astype(x.dtype, copy=False)
        u = np.matmul(gamma, x2.reshape(x.shape[0], self.channels, -1)).reshape(x.shape)
        u += self.beta.value.astype(x.dtype, copy=False).reshape(
            (1, self.channels) + (1,) * (x.ndim - 2))
        np.maximum(u, self.beta_min, out=u)
        z = np.sqrt(u)
        return x2, u, z

    def _pool_backward(self, du: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """Accumulate the beta/gamma gradients of ``u``; return ``sum_i du_i gamma_ik``."""
        shape = du.shape
        du = du.reshape(shape[0], self.channels, -1)
        x2 = x2.reshape(du.shape)
        self.beta.grad += du.sum(axis=(0, 2))
        self.gamma.grad += np.matmul(du, x2.transpose(0, 2, 1)).sum(axis=0)
        return np.matmul(self.gamma.value.astype(du.dtype, copy=False).T, du).reshape(shape)


class GDN(_GDNBase):
    """Divisive normalization: ``y_i = x_i / sqrt(beta_i + sum_j gamma_ij x_j^2)``."""

    def forward(self, x: np.ndarray, training: Optional[bool] = None) -> np.ndarray:
        x = as_compute(x)
        if x.ndim < 2 or x.shape[1] != self.channels:
            raise ValueError(f"GDN expected {self.channels} channels, got input shape {x.shape}")
        x2, u, z = self._norm_pool(x)
        self._cache = (x, x2, u, z) if self._resolve_training(training) else None
        return x / z

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x, x2, u, z = self._cache
        grad = np.asarray(grad, dtype=x.dtype)

        # dL/du_i = g_i * x_i * (-1/2) * u_i^{-3/2}
        du = grad * x * (-0.5) * u ** (-1.5)

        # Input gradient: g_k / z_k + 2 x_k * sum_i du_i * gamma_ik
        return grad / z + 2.0 * x * self._pool_backward(du, x2)


class IGDN(_GDNBase):
    """Inverse GDN: ``y_i = x_i * sqrt(beta_i + sum_j gamma_ij x_j^2)``."""

    def forward(self, x: np.ndarray, training: Optional[bool] = None) -> np.ndarray:
        x = as_compute(x)
        if x.ndim < 2 or x.shape[1] != self.channels:
            raise ValueError(f"IGDN expected {self.channels} channels, got input shape {x.shape}")
        x2, u, z = self._norm_pool(x)
        self._cache = (x, x2, u, z) if self._resolve_training(training) else None
        return x * z

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x, x2, u, z = self._cache
        grad = np.asarray(grad, dtype=x.dtype)

        # dL/du_i = g_i * x_i * (1/2) * u_i^{-1/2}
        du = grad * x * 0.5 / z

        return grad * z + 2.0 * x * self._pool_backward(du, x2)
