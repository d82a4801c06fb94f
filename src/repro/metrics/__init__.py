"""Compression quality metrics (PSNR, bit-rate, rate distortion, bound checks)."""

from repro.metrics.error import (
    psnr,
    mse,
    max_abs_error,
    max_rel_error,
    prediction_psnr,
)
from repro.metrics.rate import (
    bit_rate,
    compression_ratio,
    RateDistortionPoint,
    RateDistortionCurve,
    rate_distortion_sweep,
)
from repro.metrics.verification import verify_error_bound, BoundViolation

__all__ = [
    "psnr",
    "mse",
    "max_abs_error",
    "max_rel_error",
    "prediction_psnr",
    "bit_rate",
    "compression_ratio",
    "RateDistortionPoint",
    "RateDistortionCurve",
    "rate_distortion_sweep",
    "verify_error_bound",
    "BoundViolation",
]
