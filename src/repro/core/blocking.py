"""Splitting fields into fixed-size blocks and reassembling them.

AE-SZ compresses data block by block (32x32 for 2D fields, 8x8x8 for 3D fields
by default).  Fields whose extents are not multiples of the block size are
edge-padded; the :class:`BlockGrid` records the original shape so
:func:`reassemble_blocks` can crop the padding away again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from repro.encoding.container import checked_shape
from repro.utils.validation import ensure_dims

IntOrSeq = Union[int, Sequence[int]]


@dataclass(frozen=True)
class BlockGrid:
    """Geometry of a block decomposition."""

    original_shape: Tuple[int, ...]
    padded_shape: Tuple[int, ...]
    block_shape: Tuple[int, ...]
    grid_shape: Tuple[int, ...]

    @property
    def n_blocks(self) -> int:
        return int(np.prod(self.grid_shape))

    @property
    def ndim(self) -> int:
        return len(self.original_shape)

    def to_dict(self) -> dict:
        return {
            "original_shape": list(self.original_shape),
            "padded_shape": list(self.padded_shape),
            "block_shape": list(self.block_shape),
            "grid_shape": list(self.grid_shape),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BlockGrid":
        """The grid a payload records, once it is one :func:`split_into_blocks` makes."""
        grid = cls(*(checked_shape(d[key], f"grid {key}") for key in
                     ("original_shape", "padded_shape", "block_shape", "grid_shape")))
        block = grid.block_shape
        if len(block) == grid.ndim and all(b > 0 for b in block):
            padded = tuple(s + (-s) % b for s, b in zip(grid.original_shape, block))
            if (grid.padded_shape == padded
                    and grid.grid_shape == tuple(p // b for p, b in zip(padded, block))):
                return grid
        raise ValueError(f"corrupt payload: inconsistent block grid {d!r:.160}")


def _normalize_block_shape(block_size: IntOrSeq, ndim: int) -> Tuple[int, ...]:
    if np.isscalar(block_size):
        shape = (int(block_size),) * ndim
    else:
        shape = tuple(int(b) for b in block_size)
        if len(shape) != ndim:
            raise ValueError(f"block_size must have {ndim} entries, got {len(shape)}")
    if any(b <= 0 for b in shape):
        raise ValueError(f"block sizes must be positive, got {shape}")
    return shape


def split_into_blocks(data: np.ndarray, block_size: IntOrSeq) -> Tuple[np.ndarray, BlockGrid]:
    """Split ``data`` into non-overlapping blocks.

    Returns ``(blocks, grid)`` where ``blocks`` has shape
    ``(n_blocks, *block_shape)`` in row-major block order.
    """
    data = np.asarray(data, dtype=np.float64)
    ensure_dims(data.ndim, (1, 2, 3), "data")
    block_shape = _normalize_block_shape(block_size, data.ndim)

    pad = [(0, (-s) % b) for s, b in zip(data.shape, block_shape)]
    padded = np.pad(data, pad, mode="edge") if any(p[1] for p in pad) else data
    grid_shape = tuple(p // b for p, b in zip(padded.shape, block_shape))

    # Reshape into (g0, b0, g1, b1, ...) then move grid axes to the front.
    interleaved_shape = tuple(x for g, b in zip(grid_shape, block_shape) for x in (g, b))
    reshaped = padded.reshape(interleaved_shape)
    grid_axes = tuple(range(0, 2 * data.ndim, 2))
    block_axes = tuple(range(1, 2 * data.ndim, 2))
    blocks = reshaped.transpose(grid_axes + block_axes).reshape((-1,) + block_shape)

    grid = BlockGrid(
        original_shape=tuple(data.shape),
        padded_shape=tuple(padded.shape),
        block_shape=block_shape,
        grid_shape=grid_shape,
    )
    return np.ascontiguousarray(blocks), grid


def reassemble_blocks(blocks: np.ndarray, grid: BlockGrid) -> np.ndarray:
    """Invert :func:`split_into_blocks` (cropping any edge padding)."""
    blocks = np.asarray(blocks, dtype=np.float64)
    expected = (grid.n_blocks,) + grid.block_shape
    if blocks.shape != expected:
        raise ValueError(f"blocks shape {blocks.shape} does not match grid {expected}")
    ndim = grid.ndim
    arranged = blocks.reshape(grid.grid_shape + grid.block_shape)
    # Interleave grid and block axes back: (g0, g1, ..., b0, b1, ...) -> (g0, b0, g1, b1, ...)
    perm = tuple(x for i in range(ndim) for x in (i, ndim + i))
    padded = arranged.transpose(perm).reshape(grid.padded_shape)
    crop = tuple(slice(0, s) for s in grid.original_shape)
    return np.ascontiguousarray(padded[crop])
