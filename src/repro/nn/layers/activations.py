"""Pointwise activation layers.

Each layer keeps what its ``backward`` needs only when ``training`` resolves
to true; an inference-mode ``forward`` leaves no activation behind.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.module import Module, as_compute


class ReLU(Module):
    """Rectified linear unit."""

    def __init__(self):
        self._mask = None

    def forward(self, x: np.ndarray, training: Optional[bool] = None) -> np.ndarray:
        x = as_compute(x)
        mask = x > 0
        self._mask = mask if self._resolve_training(training) else None
        return np.where(mask, x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return np.where(self._mask, grad, 0.0)


class LeakyReLU(Module):
    """Leaky ReLU with configurable negative slope."""

    def __init__(self, negative_slope: float = 0.2):
        self.negative_slope = float(negative_slope)
        self._mask = None

    def forward(self, x: np.ndarray, training: Optional[bool] = None) -> np.ndarray:
        x = as_compute(x)
        mask = x > 0
        self._mask = mask if self._resolve_training(training) else None
        return np.where(mask, x, self.negative_slope * x)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return np.where(self._mask, grad, self.negative_slope * grad)


class Tanh(Module):
    """Hyperbolic tangent; used as the final decoder activation in AE-SZ."""

    def __init__(self):
        self._out = None

    def forward(self, x: np.ndarray, training: Optional[bool] = None) -> np.ndarray:
        out = np.tanh(as_compute(x))
        self._out = out if self._resolve_training(training) else None
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        return np.asarray(grad, dtype=self._out.dtype) * (1.0 - self._out**2)


class Sigmoid(Module):
    """Logistic sigmoid."""

    def __init__(self):
        self._out = None

    def forward(self, x: np.ndarray, training: Optional[bool] = None) -> np.ndarray:
        x = as_compute(x)
        out = 1.0 / (1.0 + np.exp(-x))
        self._out = out if self._resolve_training(training) else None
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        return np.asarray(grad, dtype=self._out.dtype) * self._out * (1.0 - self._out)


class Identity(Module):
    """Pass-through layer (useful as a configurable activation placeholder)."""

    def forward(self, x: np.ndarray, training: Optional[bool] = None) -> np.ndarray:
        return as_compute(x)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad
