"""Pointwise error metrics.

PSNR follows the paper's definition (Eq. 4): it is computed against the value
*range* of the original data, ``PSNR = 20 log10 vrange(D) - 10 log10 mse``.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import value_range


def _check_pair(original: np.ndarray, reconstructed: np.ndarray):
    original = np.asarray(original, dtype=np.float64)
    reconstructed = np.asarray(reconstructed, dtype=np.float64)
    if original.shape != reconstructed.shape:
        raise ValueError(
            f"original shape {original.shape} != reconstructed shape {reconstructed.shape}"
        )
    if original.size == 0:
        raise ValueError("cannot compute metrics on empty arrays")
    return original, reconstructed


def mse(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Mean squared error."""
    original, reconstructed = _check_pair(original, reconstructed)
    diff = original - reconstructed
    return float(np.mean(diff * diff))


def psnr(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB, relative to the original value range."""
    original, reconstructed = _check_pair(original, reconstructed)
    err = mse(original, reconstructed)
    vrange = value_range(original)
    if err == 0.0:
        return float("inf")
    if vrange == 0.0:
        return float("inf") if err == 0 else float("-inf")
    return float(20.0 * np.log10(vrange) - 10.0 * np.log10(err))


def prediction_psnr(original: np.ndarray, predicted: np.ndarray) -> float:
    """Alias of :func:`psnr` used when scoring predictors (Tables I/II)."""
    return psnr(original, predicted)


def max_abs_error(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Maximum pointwise absolute error."""
    original, reconstructed = _check_pair(original, reconstructed)
    return float(np.max(np.abs(original - reconstructed)))


def max_rel_error(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Maximum pointwise error relative to the original value range."""
    original, reconstructed = _check_pair(original, reconstructed)
    vrange = value_range(original)
    max_err = max_abs_error(original, reconstructed)
    if vrange == 0.0:
        return 0.0 if max_err == 0.0 else float("inf")
    return max_err / vrange
