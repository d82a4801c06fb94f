"""im2col / col2im kernels for N-dimensional convolutions.

Convolutions in :mod:`repro.nn.layers.conv` are expressed as one matrix
multiplication per block over patch matrices.  Both directions loop over the
kernel offsets (at most ``3**d`` iterations for the 3x3 / 3x3x3 kernels used
by AE-SZ) and move one strided, fully vectorized slice per offset: ``im2col``
copies it into the patch matrix, its adjoint ``col2im`` accumulates it into a
batch-innermost buffer.

The functions support arbitrary spatial dimensionality (1, 2 or 3 in this
library) with per-axis stride and padding.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence, Tuple

import numpy as np


def _normalize(value, ndim: int, name: str) -> Tuple[int, ...]:
    """Broadcast an int or sequence to a per-axis tuple of length ``ndim``."""
    if np.isscalar(value):
        out = (int(value),) * ndim
    else:
        out = tuple(int(v) for v in value)
        if len(out) != ndim:
            raise ValueError(f"{name} must have {ndim} entries, got {len(out)}")
    if any(v < 0 for v in out):
        raise ValueError(f"{name} entries must be non-negative, got {out}")
    return out


def conv_output_shape(
    spatial: Sequence[int],
    kernel: Sequence[int],
    stride: Sequence[int],
    padding: Sequence[int],
) -> Tuple[int, ...]:
    """Spatial output shape of a strided convolution."""
    out = []
    for s, k, st, p in zip(spatial, kernel, stride, padding):
        o = (s + 2 * p - k) // st + 1
        if o <= 0:
            raise ValueError(
                f"convolution output collapsed to {o} for input={s}, kernel={k}, "
                f"stride={st}, padding={p}"
            )
        out.append(o)
    return tuple(out)


def conv_transpose_output_shape(
    spatial: Sequence[int],
    kernel: Sequence[int],
    stride: Sequence[int],
    padding: Sequence[int],
    output_padding: Sequence[int],
) -> Tuple[int, ...]:
    """Spatial output shape of a strided transposed convolution."""
    out = []
    for s, k, st, p, op in zip(spatial, kernel, stride, padding, output_padding):
        o = (s - 1) * st - 2 * p + k + op
        if o <= 0:
            raise ValueError("transposed convolution output collapsed to non-positive size")
        out.append(o)
    return tuple(out)


def _windows(offset: Sequence[int], stride: Sequence[int],
             out_spatial: Sequence[int]) -> Tuple[slice, ...]:
    """Slices selecting, per axis, the input positions kernel ``offset`` touches."""
    return tuple(slice(o, o + st * n, st) for o, st, n in zip(offset, stride, out_spatial))


def im2col(
    x: np.ndarray,
    kernel: Sequence[int],
    stride: Sequence[int],
    padding: Sequence[int],
) -> np.ndarray:
    """Extract convolution patches.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, *spatial)``.
    kernel, stride, padding:
        Per-spatial-axis kernel size, stride and zero padding.

    Returns
    -------
    ndarray of shape ``(N, C * prod(kernel), prod(out_spatial))``: every
    block's ``(C * prod(kernel), L)`` patch matrix is contiguous, so a
    convolution is one same-shaped GEMM per block.
    """
    ndim = x.ndim - 2
    kernel = _normalize(kernel, ndim, "kernel")
    stride = _normalize(stride, ndim, "stride")
    padding = _normalize(padding, ndim, "padding")
    n, c = x.shape[:2]
    spatial = x.shape[2:]
    out_spatial = conv_output_shape(spatial, kernel, stride, padding)

    if any(padding):
        xp = np.zeros((n, c) + tuple(s + 2 * p for s, p in zip(spatial, padding)), dtype=x.dtype)
        xp[(slice(None), slice(None)) + tuple(slice(p, p + s) for p, s in zip(padding, spatial))] = x
    else:
        xp = x

    # One strided copy per kernel offset, straight into the patch matrix.
    cols = np.empty((n, c) + kernel + out_spatial, dtype=x.dtype)
    for offset in product(*(range(k) for k in kernel)):
        cols[(slice(None), slice(None)) + offset] = xp[
            (slice(None), slice(None)) + _windows(offset, stride, out_spatial)]
    return cols.reshape(n, c * int(np.prod(kernel)), int(np.prod(out_spatial)))


def col2im(
    cols: np.ndarray,
    input_shape: Sequence[int],
    kernel: Sequence[int],
    stride: Sequence[int],
    padding: Sequence[int],
) -> np.ndarray:
    """Scatter-add patch columns back into an input-shaped array.

    This is the exact adjoint of :func:`im2col` (overlapping contributions are
    summed), which is what the convolution backward pass and the transposed
    convolution forward pass require.

    The accumulator is laid out batch-innermost, ``(C, *padded_spatial, N)``:
    each of the ``prod(kernel)`` strided ``+=`` then runs an ``N``-long
    contiguous inner loop instead of one as short as the last spatial axis
    (2-8 elements in AE-SZ's networks).  Every element still receives its
    contributions in kernel-offset order, whatever ``N`` is.

    Parameters
    ----------
    cols:
        ``(N, C * prod(kernel), prod(out_spatial))`` patch matrix.
    input_shape:
        The *unpadded* input shape ``(N, C, *spatial)`` to scatter into.
    """
    n, c = int(input_shape[0]), int(input_shape[1])
    spatial = tuple(int(s) for s in input_shape[2:])
    ndim = len(spatial)
    kernel = _normalize(kernel, ndim, "kernel")
    stride = _normalize(stride, ndim, "stride")
    padding = _normalize(padding, ndim, "padding")

    padded_spatial = tuple(s + 2 * p for s, p in zip(spatial, padding))
    out_spatial = conv_output_shape(padded_spatial, kernel, stride, (0,) * ndim)

    # (C, *kernel, *out_spatial, N) view of the columns.
    src = np.moveaxis(cols.reshape((n, c) + kernel + out_spatial), 0, -1)
    acc = np.zeros((c,) + padded_spatial + (n,), dtype=cols.dtype)
    for offset in product(*(range(k) for k in kernel)):
        acc[(slice(None),) + _windows(offset, stride, out_spatial)] += src[(slice(None),) + offset]

    interior = tuple(slice(p, p + s) for p, s in zip(padding, spatial))
    return np.ascontiguousarray(np.moveaxis(acc[(slice(None),) + interior], -1, 0))
