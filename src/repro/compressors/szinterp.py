"""SZinterp-style compressor (Zhao et al., ICDE 2021).

SZinterp replaces SZ's blockwise predictors with global multi-level spline
interpolation and is the strongest traditional baseline in the paper's
evaluation.  The heavy lifting lives in
:mod:`repro.predictors.interpolation`; this class adds the entropy-coding and
stream format.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import Compressor
from repro.encoding.container import ByteContainer, checked_int, checked_positive, checked_shape
from repro.encoding.entropy import EntropyCodec
from repro.predictors.interpolation import (
    multilevel_interpolation_decode,
    multilevel_interpolation_encode,
)
from repro.registry import register_compressor


@register_compressor("szinterp", aliases=("sz3",),
                     description="SZinterp-style multi-level spline interpolation compressor")
class SZInterpCompressor(Compressor):
    """Multi-level cubic-spline interpolation compressor."""

    name = "SZinterp"

    def __init__(self, num_bins: int = 65536, lossless_backend: str = "zlib"):
        self.num_bins = int(num_bins)
        self.lossless_backend = str(lossless_backend)
        self._entropy = EntropyCodec(lossless_backend)

    def archive_options(self) -> dict:
        return {"num_bins": self.num_bins, "lossless_backend": self.lossless_backend}

    def compress(self, data: np.ndarray, rel_error_bound: float) -> bytes:
        data, abs_eb = self._checked_input(data, rel_error_bound)

        enc = multilevel_interpolation_encode(data, abs_eb, self.num_bins)
        anchor_offset, anchors = self._entropy.encode_shifted(enc.anchor_codes)

        container = ByteContainer()
        container.put_json("meta", {
            "shape": list(data.shape),
            "abs_error_bound": float(abs_eb),
            "rel_error_bound": float(rel_error_bound),
            "num_bins": int(self.num_bins),
            "anchor_offset": anchor_offset,
            "anchor_shape": list(enc.anchor_codes.shape),
        })
        container["anchors"] = anchors
        container["codes"] = self._entropy.encode(enc.codes)
        container["unpred"] = self._entropy.encode_floats(enc.unpredictable)
        return container.to_bytes()

    def decompress(self, payload: bytes) -> np.ndarray:
        container = ByteContainer.from_bytes(payload)
        meta = container.get_json("meta")
        shape = checked_shape(meta["shape"], "shape")
        abs_eb = checked_positive(meta["abs_error_bound"], "abs_error_bound")
        anchors = self._entropy.decode_shifted(container["anchors"], meta["anchor_offset"],
                                               meta["anchor_shape"])
        codes = self._entropy.decode(container["codes"])
        unpred = self._entropy.decode_floats(container["unpred"])
        return multilevel_interpolation_decode(anchors, codes, unpred, shape, abs_eb,
                                               checked_int(meta["num_bins"], "num_bins"))
