"""Lossy compression of AE latent vectors (paper Section IV-E, Takeaway 3).

The customized codec ("custo." in Table IV) quantizes every latent coefficient
uniformly with an error bound of ``0.1 * e`` and entropy-codes the integer
codes with Huffman + the dictionary backend.  Crucially the codec treats every
latent coefficient independently (no cross-block prediction), because latents
of Lorenzo-predicted blocks are simply not stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.encoding.container import ByteContainer, checked_positive
from repro.encoding.entropy import EntropyCodec
from repro.quantization.uniform import UniformQuantizer
from repro.utils.validation import ensure_positive


@dataclass
class LatentEncoding:
    """Result of compressing a latent matrix."""

    payload: bytes
    decoded: np.ndarray  # the decompressed latents (used for prediction)

    @property
    def nbytes(self) -> int:
        return len(self.payload)


class LatentCodec:
    """Uniform quantization + entropy coding of latent matrices."""

    def __init__(self, lossless_backend: str = "zlib"):
        self._entropy = EntropyCodec(lossless_backend)

    def compress(self, latents: np.ndarray, error_bound: float) -> LatentEncoding:
        """Compress a ``(n_blocks, latent_size)`` float matrix.

        Returns both the payload and the decompressed latents so the caller can
        generate predictions from exactly what the decompressor will see.
        """
        ensure_positive(error_bound, "error_bound")
        latents = np.asarray(latents, dtype=np.float64)
        if latents.ndim != 2:
            raise ValueError(f"latents must be 2-D (n_blocks, latent_size), got {latents.shape}")

        quantizer = UniformQuantizer(error_bound)
        codes, decoded = quantizer.roundtrip(latents)
        offset, stream = self._entropy.encode_shifted(codes)

        container = ByteContainer()
        container.put_json("meta", {
            "shape": list(latents.shape),
            "error_bound": float(error_bound),
            "offset": offset,
        })
        container["codes"] = stream
        return LatentEncoding(payload=container.to_bytes(), decoded=decoded)

    def decompress(self, payload: bytes) -> np.ndarray:
        """Recover the (lossy) latent matrix from :meth:`compress` output.

        Raises ``ValueError`` on malformed payloads (bad container, corrupt
        entropy stream, or a code count that does not match the stored shape).
        """
        container = ByteContainer.from_bytes(payload)
        meta = container.get_json("meta")
        codes = self._entropy.decode_shifted(container["codes"], meta["offset"], meta["shape"])
        bound = checked_positive(meta["error_bound"], "error_bound")
        return UniformQuantizer(bound).dequantize(codes)
