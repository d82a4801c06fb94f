"""The combined "Huffman + Zstd" entropy stage used by SZ-family compressors."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.encoding.huffman import HuffmanCodec
from repro.encoding.lossless import LosslessBackend, ZlibBackend, get_backend

_RAW_HEADER_BYTES = 9  # flag byte + u64 element count


class EntropyCodec:
    """Encode integer quantization codes: canonical Huffman then a dictionary pass.

    Parameters
    ----------
    backend:
        Lossless byte backend applied after Huffman coding (``"zlib"``/``"zstd"``
        by default, per "Substitutions" in docs/architecture.md).
    use_huffman:
        Disable to study the contribution of the Huffman stage in ablations.
    """

    def __init__(self, backend: Optional[LosslessBackend] = None, use_huffman: bool = True):
        self.backend = backend if backend is not None else ZlibBackend()
        self.use_huffman = bool(use_huffman)
        self._huffman = HuffmanCodec()

    def encode(self, codes: np.ndarray) -> bytes:
        """Compress an integer code array into a self-contained byte stream."""
        codes = np.ascontiguousarray(codes)
        if codes.size and not np.issubdtype(codes.dtype, np.integer):
            raise TypeError("EntropyCodec encodes integer arrays")
        if self.use_huffman:
            stage1 = self._huffman.encode(codes)
            flag = b"\x01"
        else:
            stage1 = np.asarray(codes, dtype=np.int64).tobytes()
            flag = b"\x00" + np.uint64(codes.size).tobytes()
        return flag + self.backend.compress(stage1)

    def decode(self, data: bytes) -> np.ndarray:
        """Invert :meth:`encode`; returns an ``int64`` array.

        Any malformed or truncated stream raises ``ValueError`` — backend
        errors, bad flags, and short headers are never surfaced raw.
        """
        if not data:
            raise ValueError("empty entropy stream")
        flag = data[0]
        if flag == 1:
            stage1 = self._decompress_backend(data[1:])
            return self._huffman.decode(stage1)
        if flag != 0:
            raise ValueError(f"corrupt entropy stream: unknown flag byte {flag}")
        if len(data) < _RAW_HEADER_BYTES:
            raise ValueError("corrupt entropy stream: truncated raw header")
        n = int(np.frombuffer(data[1:_RAW_HEADER_BYTES], dtype=np.uint64)[0])
        stage1 = self._decompress_backend(data[_RAW_HEADER_BYTES:])
        if len(stage1) < 8 * n:
            raise ValueError("corrupt entropy stream: raw payload shorter than count")
        return np.frombuffer(stage1, dtype=np.int64, count=n).copy()

    def _decompress_backend(self, blob: bytes) -> bytes:
        try:
            return self.backend.decompress(blob)
        except Exception as exc:  # zlib.error, lzma/bz2 EOFError, OSError, ...
            raise ValueError("corrupt entropy stream: backend decompression "
                             f"failed ({exc})") from exc
