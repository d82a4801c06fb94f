"""The payload streams of every codec: "Huffman + Zstd" integer codes, shifted
integer codes and float literals, each read back size-checked."""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

from repro.encoding.container import checked_int, checked_shape
from repro.encoding.huffman import HuffmanCodec
from repro.encoding.lossless import LosslessBackend, get_backend

_RAW_HEADER_BYTES = 9  # flag byte + u64 element count


def float_section(raw: bytes, dtype=np.float64, shape=None) -> np.ndarray:
    """``raw`` as ``dtype`` values, reshaped to ``shape`` if given, once the
    dtype is numeric and the length fits."""
    try:
        dtype = np.dtype(dtype)
    except (TypeError, ValueError):
        raise ValueError(f"corrupt payload: unknown dtype {dtype!r:.40}") from None
    if dtype.kind not in "biufc":
        raise ValueError(f"corrupt payload: dtype {dtype} is not numeric")
    if shape is not None:
        shape = checked_shape(shape, "section shape")
    if len(raw) % dtype.itemsize:
        raise ValueError(f"corrupt payload: {dtype.name} section length is not a "
                         f"multiple of {dtype.itemsize}")
    values = np.frombuffer(raw, dtype=dtype)
    if shape is not None and values.size != int(np.prod(shape)):
        raise ValueError(f"corrupt payload: {dtype.name} section holds {values.size} "
                         f"values, shape {tuple(shape)} needs {int(np.prod(shape))}")
    return values if shape is None else values.reshape(shape)


class EntropyCodec:
    """Encode integer quantization codes: canonical Huffman then a dictionary pass.

    It also writes the two other stream kinds: shifted integers (codes with no
    fixed range, stored minus their minimum) and float literals.

    Parameters
    ----------
    backend:
        Lossless byte backend, or its name, applied after Huffman coding
        (``"zlib"``/``"zstd"`` by default, per "Substitutions" in docs/architecture.md).
    use_huffman:
        Disable to study the contribution of the Huffman stage in ablations.
    """

    def __init__(self, backend: Union[LosslessBackend, str] = "zlib", use_huffman: bool = True):
        self.backend = get_backend(backend) if isinstance(backend, str) else backend
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
            raise ValueError("corrupt entropy stream: empty")
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

    def encode_shifted(self, codes: np.ndarray) -> Tuple[int, bytes]:
        """``(offset, stream)``: ``codes`` minus their minimum; store ``offset`` beside it."""
        codes = np.asarray(codes)
        offset = int(codes.min()) if codes.size else 0
        return offset, self.encode(codes - offset)

    def decode_shifted(self, stream: bytes, offset: int, shape: Sequence[int]) -> np.ndarray:
        """Invert :meth:`encode_shifted`: ``shape`` codes with ``offset`` added back."""
        codes = self.decode(stream)
        shape = checked_shape(shape, "code stream shape")
        if codes.size != int(np.prod(shape)):
            raise ValueError(f"corrupt payload: code stream size mismatch ({codes.size} "
                             f"codes for shape {tuple(shape)})")
        return codes.reshape(shape) + checked_int(offset, "shift offset")

    def encode_floats(self, values: np.ndarray, dtype=np.float64) -> bytes:
        """``values`` as ``dtype`` in C order, through the backend."""
        return self.backend.compress(np.ascontiguousarray(values, dtype=dtype).tobytes())

    def decode_floats(self, stream: bytes, dtype=np.float64, shape=None) -> np.ndarray:
        """Invert :meth:`encode_floats`; :func:`float_section` checks the length."""
        return float_section(self._decompress_backend(stream), dtype, shape)

    def _decompress_backend(self, blob: bytes) -> bytes:
        try:
            return self.backend.decompress(blob)
        except Exception as exc:  # zlib.error, lzma/bz2 EOFError, OSError, ...
            raise ValueError("corrupt entropy stream: backend decompression "
                             f"failed ({exc})") from exc
