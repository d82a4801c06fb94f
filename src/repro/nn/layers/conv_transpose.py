"""Strided N-dimensional transposed convolutions (a.k.a. deconvolutions).

The forward pass of a transposed convolution is exactly the adjoint of the
corresponding convolution, so it is implemented with
:func:`repro.nn.im2col.col2im`, and its backward pass with
:func:`repro.nn.im2col.im2col`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn import init as nn_init
from repro.nn.im2col import (
    _normalize,
    col2im,
    conv_transpose_output_shape,
    im2col,
)
from repro.nn.module import Module, Parameter
from repro.utils.rng import SeedLike, as_rng

IntOrSeq = Union[int, Sequence[int]]


class ConvTransposeNd(Module):
    """N-dimensional transposed convolution over inputs ``(N, C, *spatial)``.

    The forward pass is one same-shaped GEMM per block (flattened weight
    against ``(N, C_in, L)``) followed by the ``col2im`` scatter-add, so a
    block's output does not depend on what else is in the batch.  The input is
    kept for ``backward`` only when ``training`` resolves to true.
    """

    def __init__(
        self,
        ndim: int,
        in_channels: int,
        out_channels: int,
        kernel_size: IntOrSeq,
        stride: IntOrSeq = 1,
        padding: IntOrSeq = 0,
        output_padding: IntOrSeq = 0,
        bias: bool = True,
        rng: SeedLike = None,
    ):
        if ndim not in (1, 2, 3):
            raise ValueError(f"ConvTransposeNd supports 1D/2D/3D, got ndim={ndim}")
        rng = as_rng(rng)
        self.ndim = ndim
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = _normalize(kernel_size, ndim, "kernel_size")
        self.stride = _normalize(stride, ndim, "stride")
        self.padding = _normalize(padding, ndim, "padding")
        self.output_padding = _normalize(output_padding, ndim, "output_padding")
        for op, st in zip(self.output_padding, self.stride):
            if op >= st and not (op == 0 and st == 1):
                raise ValueError("output_padding must be smaller than stride")

        k_elems = int(np.prod(self.kernel_size))
        fan_in = in_channels * k_elems
        weight_shape = (in_channels, out_channels) + self.kernel_size
        self.weight = Parameter(
            nn_init.he_normal(weight_shape, fan_in, rng), name=f"convtranspose{ndim}d.weight"
        )
        self.bias = (
            Parameter(nn_init.zeros((out_channels,)), name=f"convtranspose{ndim}d.bias")
            if bias
            else None
        )
        self._cache: Optional[Tuple[np.ndarray, Tuple[int, ...], Tuple[int, ...]]] = None

    def output_spatial(self, spatial: Sequence[int]) -> Tuple[int, ...]:
        """Spatial output shape for a given spatial input shape."""
        return conv_transpose_output_shape(
            spatial, self.kernel_size, self.stride, self.padding, self.output_padding
        )

    def forward(self, x: np.ndarray, training: Optional[bool] = None) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != self.ndim + 2:
            raise ValueError(
                f"ConvTranspose{self.ndim}d expected {self.ndim + 2}D input, got shape {x.shape}"
            )
        if x.shape[1] != self.in_channels:
            raise ValueError(
                f"ConvTranspose{self.ndim}d expected {self.in_channels} input channels, got {x.shape[1]}"
            )
        n = x.shape[0]
        in_spatial = x.shape[2:]
        out_spatial = self.output_spatial(in_spatial)

        x_flat = x.reshape(n, self.in_channels, -1)
        w_flat = self.weight.value.reshape(self.in_channels, -1)  # (C_in, C_out*prod(k))
        cols = np.matmul(w_flat.T, x_flat)
        out = col2im(
            cols,
            (n, self.out_channels) + out_spatial,
            self.kernel_size,
            self.stride,
            self.padding,
        )
        if self.bias is not None:
            out += self.bias.value.reshape((1, self.out_channels) + (1,) * self.ndim)
        self._cache = ((x_flat, (n,) + in_spatial, out_spatial)
                       if self._resolve_training(training) else None)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_flat, n_and_in_spatial, out_spatial = self._cache
        n = n_and_in_spatial[0]
        in_spatial = n_and_in_spatial[1:]
        grad = np.asarray(grad, dtype=np.float64)

        if self.bias is not None:
            self.bias.grad += grad.sum(axis=(0,) + tuple(range(2, 2 + self.ndim)))

        dcols = im2col(grad, self.kernel_size, self.stride, self.padding)
        w_flat = self.weight.value.reshape(self.in_channels, -1)
        dw = np.matmul(x_flat, dcols.transpose(0, 2, 1)).sum(axis=0)
        self.weight.grad += dw.reshape(self.weight.value.shape)

        dx_flat = np.matmul(w_flat, dcols)
        return dx_flat.reshape((n, self.in_channels) + in_spatial)


class ConvTranspose2d(ConvTransposeNd):
    """2D transposed convolution (inputs ``(N, C, H, W)``)."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: IntOrSeq,
                 stride: IntOrSeq = 1, padding: IntOrSeq = 0, output_padding: IntOrSeq = 0,
                 bias: bool = True, rng: SeedLike = None):
        super().__init__(2, in_channels, out_channels, kernel_size, stride, padding,
                         output_padding, bias, rng)


class ConvTranspose3d(ConvTransposeNd):
    """3D transposed convolution (inputs ``(N, C, D, H, W)``)."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: IntOrSeq,
                 stride: IntOrSeq = 1, padding: IntOrSeq = 0, output_padding: IntOrSeq = 0,
                 bias: bool = True, rng: SeedLike = None):
        super().__init__(3, in_channels, out_channels, kernel_size, stride, padding,
                         output_padding, bias, rng)
