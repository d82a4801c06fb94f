"""im2col / col2im kernels for N-dimensional convolutions.

Convolutions in :mod:`repro.nn.layers.conv` are expressed as matrix
multiplications over patch matrices.  Both directions loop over the kernel
offsets (at most ``3**d`` iterations for the 3x3 / 3x3x3 kernels used by
AE-SZ) and move one strided, fully vectorized slice per offset: ``im2col``
copies it into the patch matrix, its adjoint ``col2im`` accumulates it into a
batch-innermost buffer.

Patch matrices come in two layouts.  Block-major ``(N, C*K, L)`` keeps each
block's patches contiguous, so inference runs one same-shaped GEMM per block
and a block's result does not depend on its batch.  Batch-innermost
``(C*K, L*N)`` (``batch_last=True``) makes a whole batch one GEMM, which is
what training uses.

The functions support arbitrary spatial dimensionality (1, 2 or 3 in this
library) with per-axis stride and padding.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Sequence, Tuple

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


def _offsets(kernel: Sequence[int], stride: Sequence[int], out_spatial: Sequence[int]
             ) -> Iterator[Tuple[Tuple[int, ...], Tuple[slice, ...]]]:
    """Each kernel offset, with the slices selecting, per axis, the input
    positions it touches."""
    windows = ([slice(o, o + st * n, st) for o in range(k)]
               for k, st, n in zip(kernel, stride, out_spatial))
    return zip(product(*(range(k) for k in kernel)), product(*windows))


def im2col(
    x: np.ndarray,
    kernel: Sequence[int],
    stride: Sequence[int],
    padding: Sequence[int],
    batch_last: bool = False,
) -> np.ndarray:
    """Extract convolution patches.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, *spatial)``.
    kernel, stride, padding:
        Per-spatial-axis kernel size, stride and zero padding.
    batch_last:
        Lay the patches out batch-innermost (see the module docstring).

    Returns
    -------
    ndarray of shape ``(N, C * prod(kernel), prod(out_spatial))``: every
    block's ``(C * prod(kernel), L)`` patch matrix is contiguous, so a
    convolution is one same-shaped GEMM per block.  With ``batch_last`` the
    shape is ``(C * prod(kernel), prod(out_spatial) * N)`` instead.
    """
    ndim = x.ndim - 2
    kernel = _normalize(kernel, ndim, "kernel")
    stride = _normalize(stride, ndim, "stride")
    padding = _normalize(padding, ndim, "padding")
    n, c = x.shape[:2]
    spatial = x.shape[2:]
    out_spatial = conv_output_shape(spatial, kernel, stride, padding)

    # ``lead`` and ``tail`` are the axes around the spatial ones: (N, C) and ()
    # per block, (C,) and (N,) batch-innermost.  The batch-innermost view is
    # copied even unpadded, so each offset's copy reads N-long contiguous runs.
    if batch_last:
        xv, head, lead, tail = np.moveaxis(x, 0, -1), (slice(None),), (c,), (n,)
    else:
        xv, head, lead, tail = x, (slice(None),) * 2, (n, c), ()
    if any(padding) or batch_last:
        xp = np.zeros(lead + tuple(s + 2 * p for s, p in zip(spatial, padding)) + tail,
                      dtype=x.dtype)
        xp[head + tuple(slice(p, p + s) for p, s in zip(padding, spatial))] = xv
    else:
        xp = xv

    # One strided copy per kernel offset, straight into the patch matrix.
    cols = np.empty(lead + kernel + out_spatial + tail, dtype=x.dtype)
    for offset, window in _offsets(kernel, stride, out_spatial):
        cols[head + offset] = xp[head + window]
    rows = c * int(np.prod(kernel))
    if batch_last:
        return cols.reshape(rows, -1)
    return cols.reshape(n, rows, int(np.prod(out_spatial)))


def col2im(
    cols: np.ndarray,
    input_shape: Sequence[int],
    kernel: Sequence[int],
    stride: Sequence[int],
    padding: Sequence[int],
    batch_last: bool = False,
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
        ``(N, C * prod(kernel), prod(out_spatial))`` patch matrix, or
        ``(C * prod(kernel), prod(out_spatial) * N)`` with ``batch_last``.
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
    if batch_last:
        src = cols.reshape((c,) + kernel + out_spatial + (n,))
    else:
        src = np.moveaxis(cols.reshape((n, c) + kernel + out_spatial), 0, -1)
    acc = np.zeros((c,) + padded_spatial + (n,), dtype=cols.dtype)
    for offset, window in _offsets(kernel, stride, out_spatial):
        acc[(slice(None),) + window] += src[(slice(None),) + offset]

    interior = tuple(slice(p, p + s) for p, s in zip(padding, spatial))
    return np.ascontiguousarray(np.moveaxis(acc[(slice(None),) + interior], -1, 0))
