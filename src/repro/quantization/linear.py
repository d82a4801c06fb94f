"""Linear-scale quantization of prediction errors (SZ / AE-SZ, Algorithm 1 line 14).

Given original values ``d``, predicted values ``p`` and an absolute error bound
``e``, each point is mapped to an integer code

    q = round((d - p) / (2e)) + R/2

where ``R`` is the maximum number of quantization bins (65,536 by default, as
in SZ2.1).  The reconstructed value ``p + 2e*(q - R/2)`` is then guaranteed to
be within ``e`` of ``d``.  Points whose code falls outside ``[1, R)`` are
*unpredictable*: they get the reserved code 0 and their value is stored
separately (quantized onto a global 2e grid so the bound still holds while
remaining compressible).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.utils.validation import ensure_positive

DEFAULT_NUM_BINS = 65536
UNPREDICTABLE_CODE = 0


@dataclass
class QuantizationResult:
    """Output of :func:`quantize_prediction_errors`.

    Attributes
    ----------
    codes:
        Integer codes, same shape as the input; 0 marks unpredictable points.
    unpredictable:
        The reconstructed values of unpredictable points, in scan order.
    reconstructed:
        Decompression-identical reconstruction of the input values.
    """

    codes: np.ndarray
    unpredictable: np.ndarray
    reconstructed: np.ndarray

    @property
    def n_unpredictable(self) -> int:
        return int(self.unpredictable.size)


def quantize_prediction_errors(
    original: np.ndarray,
    predicted: np.ndarray,
    error_bound: float,
    num_bins: int = DEFAULT_NUM_BINS,
) -> QuantizationResult:
    """Quantize ``original - predicted`` with a strict absolute error bound."""
    ensure_positive(error_bound, "error_bound")
    if num_bins < 2:
        raise ValueError("num_bins must be >= 2")
    original = np.asarray(original, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    if original.shape != predicted.shape:
        raise ValueError(
            f"original shape {original.shape} != predicted shape {predicted.shape}"
        )

    step = 2.0 * error_bound
    center = num_bins // 2
    # Clamp to the just-out-of-range codes (0 and num_bins, both escaped
    # below) before the cast: an overflowing float -> int64 cast is undefined.
    raw = np.clip(np.rint((original - predicted) / step),
                  -center, num_bins - center).astype(np.int64)
    codes = raw + center

    reconstructed = predicted + step * raw
    # Points outside the code range, or whose rounding failed the bound (can
    # happen at the extreme edges of floating-point rounding), are escaped.
    in_range = (codes >= 1) & (codes < num_bins)
    within_bound = np.abs(reconstructed - original) <= error_bound * (1 + 1e-12)
    predictable = in_range & within_bound

    codes = np.where(predictable, codes, UNPREDICTABLE_CODE)

    # Unpredictable values are themselves snapped to a global 2e grid so they
    # stay within the bound but remain integer-compressible.
    unpred_original = original[~predictable]
    unpred_recon = np.rint(unpred_original / step) * step
    # Guard against pathological rounding: fall back to exact storage.
    bad = np.abs(unpred_recon - unpred_original) > error_bound * (1 + 1e-12)
    unpred_recon = np.where(bad, unpred_original, unpred_recon)

    reconstructed = np.where(predictable, reconstructed, 0.0)
    reconstructed[~predictable] = unpred_recon
    return QuantizationResult(codes=codes, unpredictable=unpred_recon, reconstructed=reconstructed)


def dequantize_prediction_errors(
    codes: np.ndarray,
    predicted: np.ndarray,
    unpredictable: np.ndarray,
    error_bound: float,
    num_bins: int = DEFAULT_NUM_BINS,
) -> np.ndarray:
    """Invert :func:`quantize_prediction_errors` given the same predictions."""
    ensure_positive(error_bound, "error_bound")
    codes = np.asarray(codes)
    predicted = np.asarray(predicted, dtype=np.float64)
    if codes.shape != predicted.shape:
        raise ValueError(f"codes shape {codes.shape} != predicted shape {predicted.shape}")
    step = 2.0 * error_bound
    center = num_bins // 2
    reconstructed = predicted + step * (codes.astype(np.int64) - center)
    mask = codes == UNPREDICTABLE_CODE
    n_unpred = int(mask.sum())
    unpredictable = np.asarray(unpredictable, dtype=np.float64).ravel()
    if n_unpred != unpredictable.size:
        raise ValueError("corrupt payload: unpredictable-value stream size mismatch")
    if n_unpred:
        reconstructed[mask] = unpredictable
    return reconstructed


class LinearQuantizer:
    """Object-style wrapper around the functional quantization API."""

    def __init__(self, error_bound: float, num_bins: int = DEFAULT_NUM_BINS):
        self.error_bound = ensure_positive(error_bound, "error_bound")
        if num_bins < 2:
            raise ValueError("num_bins must be >= 2")
        self.num_bins = int(num_bins)

    def quantize(self, original: np.ndarray, predicted: np.ndarray) -> QuantizationResult:
        return quantize_prediction_errors(original, predicted, self.error_bound, self.num_bins)

    def dequantize(self, codes: np.ndarray, predicted: np.ndarray,
                   unpredictable: np.ndarray) -> np.ndarray:
        return dequantize_prediction_errors(
            codes, predicted, unpredictable, self.error_bound, self.num_bins
        )
