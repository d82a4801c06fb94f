"""Entropy/dictionary coding substrate.

AE-SZ's final lossless stage is "Huffman + Zstd" (paper Fig. 2 / Algorithm 1).
This package provides a from-scratch canonical Huffman coder, a bit-stream
abstraction, a DEFLATE-based dictionary backend standing in for Zstd
(see "Substitutions" in docs/architecture.md), and a small container format
used to serialize compressed streams.
"""

from repro.encoding.bitstream import BitReader, BitWriter, pack_bits, unpack_bits
from repro.encoding.huffman import MAX_CODE_LENGTH, HuffmanCodec, huffman_code_lengths
from repro.encoding.lossless import LosslessBackend, ZlibBackend, StoreBackend, get_backend
from repro.encoding.entropy import EntropyCodec
from repro.encoding.container import ByteContainer

__all__ = [
    "BitReader",
    "BitWriter",
    "pack_bits",
    "unpack_bits",
    "HuffmanCodec",
    "MAX_CODE_LENGTH",
    "huffman_code_lengths",
    "LosslessBackend",
    "ZlibBackend",
    "StoreBackend",
    "get_backend",
    "EntropyCodec",
    "ByteContainer",
]
