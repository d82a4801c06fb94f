"""Lossless reference compressor (the ~2:1 baseline mentioned in the paper's intro)."""

from __future__ import annotations

import numpy as np

from repro.compressors.base import Compressor
from repro.encoding.container import ByteContainer
from repro.encoding.entropy import EntropyCodec
from repro.registry import register_compressor


@register_compressor("lossless", aliases=("zlib",), exact=True,
                     description="lossless dictionary coding of the raw bytes (exact)")
class LosslessCompressor(Compressor):
    """Dictionary-code the raw float bytes; reconstruction is exact."""

    name = "lossless"

    def __init__(self, backend: str = "zlib"):
        self.backend = str(backend)
        self._entropy = EntropyCodec(backend)

    def archive_options(self) -> dict:
        return {"backend": self.backend}

    def compress(self, data: np.ndarray, rel_error_bound: float = 0.0) -> bytes:
        data = np.asarray(data)
        container = ByteContainer()
        container.put_json("meta", {"shape": list(data.shape), "dtype": data.dtype.str})
        container["raw"] = self._entropy.encode_floats(data, data.dtype)
        return container.to_bytes()

    def decompress(self, payload: bytes) -> np.ndarray:
        container = ByteContainer.from_bytes(payload)
        meta = container.get_json("meta")
        return self._entropy.decode_floats(container["raw"], meta["dtype"], meta["shape"]).copy()
