"""Shape-manipulation layers."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.nn.module import Module, as_compute


class Flatten(Module):
    """Flatten all non-batch dimensions: ``(N, ...) -> (N, prod(...))``."""

    def __init__(self):
        self._shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray, training: Optional[bool] = None) -> np.ndarray:
        x = as_compute(x)
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        return np.asarray(grad).reshape(self._shape)


class Reshape(Module):
    """Reshape non-batch dimensions to a fixed target shape."""

    def __init__(self, target_shape: Sequence[int]):
        self.target_shape = tuple(int(s) for s in target_shape)
        self._shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray, training: Optional[bool] = None) -> np.ndarray:
        x = as_compute(x)
        self._shape = x.shape
        return x.reshape((x.shape[0],) + self.target_shape)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        return np.asarray(grad).reshape(self._shape)
