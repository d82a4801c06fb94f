"""Reconstruction losses.

Each loss exposes ``__call__(prediction, target) -> (loss_value, grad_wrt_prediction)``
so models can feed the gradient straight into their ``backward`` chain.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.module import as_compute


class Loss:
    """Base class for losses (mean-reduced over all elements)."""

    def __call__(self, prediction: np.ndarray, target: np.ndarray) -> Tuple[float, np.ndarray]:
        raise NotImplementedError

    @staticmethod
    def _check(prediction: np.ndarray, target: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        prediction = as_compute(prediction)
        target = np.asarray(target, dtype=prediction.dtype)
        if prediction.shape != target.shape:
            raise ValueError(
                f"prediction shape {prediction.shape} != target shape {target.shape}"
            )
        return prediction, target


class MSELoss(Loss):
    """Mean squared error, the reconstruction term of Eq. (1) in the paper."""

    def __call__(self, prediction: np.ndarray, target: np.ndarray) -> Tuple[float, np.ndarray]:
        prediction, target = self._check(prediction, target)
        diff = prediction - target
        loss = float(np.mean(diff * diff))
        grad = (2.0 / diff.size) * diff
        return loss, grad


class L1Loss(Loss):
    """Mean absolute error; also used for AE-vs-Lorenzo predictor selection."""

    def __call__(self, prediction: np.ndarray, target: np.ndarray) -> Tuple[float, np.ndarray]:
        prediction, target = self._check(prediction, target)
        diff = prediction - target
        loss = float(np.mean(np.abs(diff)))
        grad = np.sign(diff) / diff.size
        return loss, grad


class LogCoshLoss(Loss):
    """log-cosh reconstruction loss (used by the LogCosh-VAE comparator)."""

    def __call__(self, prediction: np.ndarray, target: np.ndarray) -> Tuple[float, np.ndarray]:
        prediction, target = self._check(prediction, target)
        diff = prediction - target
        # log(cosh(d)) computed stably as |d| + log1p(exp(-2|d|)) - log(2).
        a = np.abs(diff)
        loss = float(np.mean(a + np.log1p(np.exp(-2.0 * a)) - np.log(2.0)))
        grad = np.tanh(diff) / diff.size
        return loss, grad
