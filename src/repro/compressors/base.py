"""Common compressor interface and result record."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.metrics.error import max_abs_error, psnr
from repro.metrics.rate import bit_rate, compression_ratio
from repro.utils.validation import ensure_float_array, ensure_positive, value_range


def _absolute_bound(rel_error_bound: float, vrange: float) -> float:
    """``eps * (max(D) - min(D))``, the paper's Section V-A5 conversion.  A
    constant field has zero range; ``eps`` itself then keeps compression
    well defined."""
    return rel_error_bound * vrange if vrange > 0 else rel_error_bound


class Compressor:
    """Interface of every (de)compressor in the library.

    ``rel_error_bound`` is a value-range-based relative bound, matching the
    paper's experimental configuration (Section V-A5); the absolute bound is
    derived per input as ``eps * (max(D) - min(D))``.  Absolute and
    pointwise-relative bounds are layered on top by :mod:`repro.api`.
    """

    name: str = "compressor"

    # True for codecs that run their own bound-safe cast back to the input
    # dtype (AE-SZ); tells the facade not to apply its cast plan on top.
    manages_output_dtype: bool = False

    def compress(self, data: np.ndarray, rel_error_bound: float) -> bytes:
        raise NotImplementedError

    @staticmethod
    def _checked_input(data, rel_error_bound: float) -> Tuple[np.ndarray, float]:
        """Validate a ``compress`` call: the input as a finite, contiguous
        float array, and the absolute bound ``rel_error_bound`` means on it."""
        ensure_positive(rel_error_bound, "rel_error_bound")
        data = ensure_float_array(data, "data")
        return data, _absolute_bound(rel_error_bound, value_range(data))

    def decompress(self, payload: bytes) -> np.ndarray:
        raise NotImplementedError

    # ------------------------------------------------------- archive support
    def archive_state(self, embed_model: bool = True) -> Tuple[dict, Dict[str, bytes]]:
        """Codec-private archive contents: JSON-able metadata + binary sections.

        Codecs whose decompression depends on constructor settings record them
        under ``meta["options"]`` (the default restore re-applies them);
        model-backed codecs additionally record the model fingerprint and,
        when ``embed_model`` is true, the weights themselves.
        """
        options = self.archive_options()
        return ({"options": options} if options else {}), {}

    def archive_options(self) -> dict:
        """Constructor kwargs a decompressor needs to rebuild this codec."""
        return {}

    @classmethod
    def from_archive_state(cls, meta: dict, blobs: Dict[str, bytes], **opts) -> "Compressor":
        """Build a decompression-ready instance from :meth:`archive_state` output.

        Archive-recorded options are applied first; caller ``opts`` win.
        """
        return cls(**{**meta.get("options", {}), **opts})

    # Convenience -----------------------------------------------------------
    def roundtrip(self, data: np.ndarray, rel_error_bound: float) -> "CompressorResult":
        """Compress + decompress and collect the standard quality metrics."""
        data = np.asarray(data)
        payload = self.compress(data, rel_error_bound)
        reconstructed = self.decompress(payload)
        return CompressorResult(
            compressor=self.name,
            rel_error_bound=float(rel_error_bound),
            compressed_bytes=len(payload),
            original_bytes=int(data.size * data.dtype.itemsize),
            psnr=psnr(data, reconstructed),
            max_abs_error=max_abs_error(data, reconstructed),
            reconstructed=reconstructed,
            n_points=int(data.size),
            original_dtype=str(data.dtype),
        )


@dataclass
class CompressorResult:
    """Metrics of one compress/decompress round trip.

    ``original_bytes`` counts the input at its true dtype width and
    ``n_points`` / ``original_dtype`` are recorded explicitly, so
    ``compression_ratio`` and ``bit_rate`` are correct for float64/float16
    inputs too (results built by legacy callers without ``n_points`` fall back
    to the historical float32-origin convention).
    """

    compressor: str
    rel_error_bound: float
    compressed_bytes: int
    original_bytes: int
    psnr: float
    max_abs_error: float
    reconstructed: Optional[np.ndarray] = None
    n_points: Optional[int] = None
    original_dtype: str = ""

    @property
    def compression_ratio(self) -> float:
        return compression_ratio(self.original_bytes, self.compressed_bytes)

    @property
    def bit_rate(self) -> float:
        n_points = self.n_points
        if n_points is None:
            itemsize = np.dtype(self.original_dtype).itemsize if self.original_dtype else 4
            n_points = self.original_bytes // itemsize
        return bit_rate(self.compressed_bytes, n_points)
