"""Strided N-dimensional convolutions built on im2col."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn import init as nn_init
from repro.nn.im2col import _normalize, col2im, conv_output_shape, im2col
from repro.nn.module import Module, Parameter
from repro.utils.rng import SeedLike, as_rng

IntOrSeq = Union[int, Sequence[int]]


class ConvNd(Module):
    """N-dimensional convolution over inputs of shape ``(N, C, *spatial)``.

    The forward pass is one same-shaped GEMM per block over im2col patch
    matrices (``np.matmul`` of the flattened weight against ``(N, C*K, L)``),
    so a block's output does not depend on what else is in the batch; the
    backward pass computes weight gradients with the transposed patch matrix
    and input gradients with :func:`repro.nn.im2col.col2im`.  The patch
    matrix is kept for ``backward`` only when ``training`` resolves to true.
    """

    def __init__(
        self,
        ndim: int,
        in_channels: int,
        out_channels: int,
        kernel_size: IntOrSeq,
        stride: IntOrSeq = 1,
        padding: IntOrSeq = 0,
        bias: bool = True,
        rng: SeedLike = None,
    ):
        if ndim not in (1, 2, 3):
            raise ValueError(f"ConvNd supports 1D/2D/3D, got ndim={ndim}")
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("channel counts must be positive")
        rng = as_rng(rng)
        self.ndim = ndim
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = _normalize(kernel_size, ndim, "kernel_size")
        self.stride = _normalize(stride, ndim, "stride")
        self.padding = _normalize(padding, ndim, "padding")

        k_elems = int(np.prod(self.kernel_size))
        fan_in = in_channels * k_elems
        weight_shape = (out_channels, in_channels) + self.kernel_size
        self.weight = Parameter(
            nn_init.he_normal(weight_shape, fan_in, rng), name=f"conv{ndim}d.weight"
        )
        self.bias = (
            Parameter(nn_init.zeros((out_channels,)), name=f"conv{ndim}d.bias") if bias else None
        )
        self._cache: Optional[Tuple[np.ndarray, Tuple[int, ...], Tuple[int, ...]]] = None

    # ------------------------------------------------------------------ api
    def output_spatial(self, spatial: Sequence[int]) -> Tuple[int, ...]:
        """Spatial output shape for a given spatial input shape."""
        return conv_output_shape(spatial, self.kernel_size, self.stride, self.padding)

    def forward(self, x: np.ndarray, training: Optional[bool] = None) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != self.ndim + 2:
            raise ValueError(
                f"Conv{self.ndim}d expected {self.ndim + 2}D input (N, C, *spatial), got shape {x.shape}"
            )
        if x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv{self.ndim}d expected {self.in_channels} input channels, got {x.shape[1]}"
            )
        n = x.shape[0]
        out_spatial = self.output_spatial(x.shape[2:])
        cols = im2col(x, self.kernel_size, self.stride, self.padding)
        w_flat = self.weight.value.reshape(self.out_channels, -1)
        out = np.matmul(w_flat, cols)
        if self.bias is not None:
            out += self.bias.value[None, :, None]
        self._cache = (cols, x.shape, out_spatial) if self._resolve_training(training) else None
        return out.reshape((n, self.out_channels) + out_spatial)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        cols, x_shape, out_spatial = self._cache
        n = x_shape[0]
        grad = np.asarray(grad, dtype=np.float64).reshape(n, self.out_channels, -1)

        w_flat = self.weight.value.reshape(self.out_channels, -1)
        dw = np.matmul(grad, cols.transpose(0, 2, 1)).sum(axis=0)
        self.weight.grad += dw.reshape(self.weight.value.shape)
        if self.bias is not None:
            self.bias.grad += grad.sum(axis=(0, 2))

        dcols = np.matmul(w_flat.T, grad)
        return col2im(dcols, x_shape, self.kernel_size, self.stride, self.padding)


class Conv2d(ConvNd):
    """2D convolution (inputs ``(N, C, H, W)``)."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: IntOrSeq,
                 stride: IntOrSeq = 1, padding: IntOrSeq = 0, bias: bool = True,
                 rng: SeedLike = None):
        super().__init__(2, in_channels, out_channels, kernel_size, stride, padding, bias, rng)


class Conv3d(ConvNd):
    """3D convolution (inputs ``(N, C, D, H, W)``)."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: IntOrSeq,
                 stride: IntOrSeq = 1, padding: IntOrSeq = 0, bias: bool = True,
                 rng: SeedLike = None):
        super().__init__(3, in_channels, out_channels, kernel_size, stride, padding, bias, rng)
