"""ZFP-style transform-based error-bounded compressor (Lindstrom, 2014).

ZFP partitions the field into 4^d blocks, decorrelates each block with a
separable orthogonal-ish transform, and encodes the coefficients by bit planes.
This reproduction keeps the structure that matters for the paper's comparison
(blockwise transform coding in fixed-accuracy mode):

* 4^d blocks (edge-padded at boundaries);
* a separable orthonormal DCT-II decorrelating transform per block;
* uniform dead-zone quantization of the transform coefficients with a step
  chosen from the requested error tolerance and the transform's worst-case
  L-infinity amplification, so the pointwise bound is guaranteed;
* Huffman + dictionary coding of the coefficient indices.

The embedded bit-plane coder of real ZFP achieves somewhat better ratios at a
given tolerance, but the qualitative behaviour (transform coding that trails
prediction-based compressors at high compression ratios on these fields) is
preserved — see "Substitutions" in docs/architecture.md.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.compressors.base import Compressor
from repro.core.blocking import BlockGrid, reassemble_blocks, split_into_blocks
from repro.encoding.container import ByteContainer, checked_positive
from repro.encoding.entropy import EntropyCodec
from repro.registry import register_compressor

BLOCK_EDGE = 4


@lru_cache(maxsize=None)
def _dct_matrix(n: int = BLOCK_EDGE) -> np.ndarray:
    """Orthonormal DCT-II matrix of size ``n``."""
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    mat = np.cos(np.pi * (2 * i + 1) * k / (2 * n))
    mat[0, :] *= np.sqrt(1.0 / n)
    mat[1:, :] *= np.sqrt(2.0 / n)
    return mat


@lru_cache(maxsize=None)
def _linf_gain(ndim: int) -> float:
    """Worst-case L-infinity amplification of the inverse separable transform."""
    inv = _dct_matrix().T  # orthonormal: inverse = transpose
    row_gain = float(np.abs(inv).sum(axis=1).max())
    return row_gain**ndim


def _forward_transform(blocks: np.ndarray) -> np.ndarray:
    """Apply the separable transform along every spatial axis (axis 0 = block)."""
    mat = _dct_matrix()
    out = blocks
    for axis in range(1, blocks.ndim):
        out = np.moveaxis(np.tensordot(mat, np.moveaxis(out, axis, 0), axes=(1, 0)), 0, axis)
    return out


def _inverse_transform(coeffs: np.ndarray) -> np.ndarray:
    mat = _dct_matrix().T
    out = coeffs
    for axis in range(1, coeffs.ndim):
        out = np.moveaxis(np.tensordot(mat, np.moveaxis(out, axis, 0), axes=(1, 0)), 0, axis)
    return out


@register_compressor("zfp", description="ZFP-style fixed-accuracy blockwise transform coder")
class ZFPCompressor(Compressor):
    """Fixed-accuracy transform coder over 4^d blocks."""

    name = "ZFP"

    def __init__(self, lossless_backend: str = "zlib"):
        self.lossless_backend = str(lossless_backend)
        self._entropy = EntropyCodec(lossless_backend)

    def archive_options(self) -> dict:
        return {"lossless_backend": self.lossless_backend}

    def compress(self, data: np.ndarray, rel_error_bound: float) -> bytes:
        data, abs_eb = self._checked_input(data, rel_error_bound)

        blocks, grid = split_into_blocks(data, BLOCK_EDGE)
        coeffs = _forward_transform(blocks)
        # Quantization step guaranteeing |reconstruction error| <= abs_eb.
        step = 2.0 * abs_eb / _linf_gain(data.ndim)
        offset, stream = self._entropy.encode_shifted(np.rint(coeffs / step).astype(np.int64))

        container = ByteContainer()
        container.put_json("meta", {
            "grid": grid.to_dict(),
            "abs_error_bound": float(abs_eb),
            "rel_error_bound": float(rel_error_bound),
            "step": float(step),
            "offset": offset,
        })
        container["codes"] = stream
        return container.to_bytes()

    def decompress(self, payload: bytes) -> np.ndarray:
        container = ByteContainer.from_bytes(payload)
        meta = container.get_json("meta")
        grid = BlockGrid.from_dict(meta["grid"])
        codes = self._entropy.decode_shifted(container["codes"], meta["offset"],
                                             (grid.n_blocks,) + grid.block_shape)
        coeffs = codes.astype(np.float64) * checked_positive(meta["step"], "step")
        blocks = _inverse_transform(coeffs)
        return reassemble_blocks(blocks, grid)
