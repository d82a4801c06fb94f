"""Lossless dictionary backends.

The paper's final stage is Zstd.  libzstd is not available offline, so the
default backend is DEFLATE (``zlib`` from the standard library), which plays
the same role (LZ77 dictionary matching + entropy coding) on the byte streams
produced by the Huffman stage; see "Substitutions" in docs/architecture.md.
"""

from __future__ import annotations

import bz2
import lzma
import zlib
from typing import Dict, Type


class LosslessBackend:
    """Interface of a lossless byte-stream compressor."""

    name = "identity"

    def compress(self, data: bytes) -> bytes:
        raise NotImplementedError

    def decompress(self, data: bytes) -> bytes:
        raise NotImplementedError


class StoreBackend(LosslessBackend):
    """No-op backend (useful for isolating the effect of the entropy stage)."""

    name = "store"

    def compress(self, data: bytes) -> bytes:
        return bytes(data)

    def decompress(self, data: bytes) -> bytes:
        return bytes(data)


class ZlibBackend(LosslessBackend):
    """DEFLATE backend standing in for Zstd (dictionary + entropy coding)."""

    name = "zlib"

    def __init__(self, level: int = 6):
        if not (0 <= level <= 9):
            raise ValueError("zlib level must be in [0, 9]")
        self.level = int(level)

    def compress(self, data: bytes) -> bytes:
        return zlib.compress(bytes(data), self.level)

    def decompress(self, data: bytes) -> bytes:
        try:
            return zlib.decompress(bytes(data))
        except zlib.error as exc:
            raise ValueError(f"corrupt stream: zlib payload undecodable ({exc})") from None


class Bz2Backend(LosslessBackend):
    """BZ2 backend (slower, sometimes tighter; available for experiments)."""

    name = "bz2"

    def __init__(self, level: int = 9):
        if not (1 <= level <= 9):
            raise ValueError("bz2 level must be in [1, 9]")
        self.level = int(level)

    def compress(self, data: bytes) -> bytes:
        return bz2.compress(bytes(data), self.level)

    def decompress(self, data: bytes) -> bytes:
        try:
            return bz2.decompress(bytes(data))
        except (OSError, ValueError) as exc:
            raise ValueError(f"corrupt stream: bz2 payload undecodable ({exc})") from None


class LzmaBackend(LosslessBackend):
    """LZMA backend (closest ratio proxy for strong dictionary coders)."""

    name = "lzma"

    def __init__(self, preset: int = 1):
        if not (0 <= preset <= 9):
            raise ValueError("lzma preset must be in [0, 9]")
        self.preset = int(preset)

    def compress(self, data: bytes) -> bytes:
        return lzma.compress(bytes(data), preset=self.preset)

    def decompress(self, data: bytes) -> bytes:
        try:
            return lzma.decompress(bytes(data))
        except lzma.LZMAError as exc:
            raise ValueError(f"corrupt stream: lzma payload undecodable ({exc})") from None


_BACKENDS: Dict[str, Type[LosslessBackend]] = {
    "store": StoreBackend,
    "zlib": ZlibBackend,
    "zstd": ZlibBackend,  # alias: the role Zstd plays in the paper
    "bz2": Bz2Backend,
    "lzma": LzmaBackend,
}


def get_backend(name: str, **kwargs) -> LosslessBackend:
    """Instantiate a lossless backend by name ('zlib', 'zstd', 'bz2', 'lzma', 'store')."""
    key = name.lower()
    if key not in _BACKENDS:
        raise KeyError(f"unknown lossless backend {name!r}; choices: {sorted(_BACKENDS)}")
    return _BACKENDS[key](**kwargs)
