"""Strided N-dimensional transposed convolutions (a.k.a. deconvolutions).

A transposed convolution is the adjoint of the corresponding convolution, so
it runs :class:`repro.nn.layers.conv.ConvNd`'s two kernels in reverse: the
GEMM scatter forward and the patch GEMM backward.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.nn.im2col import _normalize, conv_transpose_output_shape
from repro.nn.layers.conv import IntOrSeq, _ConvCore, _from_rows, _to_rows
from repro.utils.rng import SeedLike


class ConvTransposeNd(_ConvCore):
    """N-dimensional transposed convolution over inputs ``(N, C, *spatial)``."""

    _kind = "ConvTranspose"
    _transposed = True

    def __init__(self, ndim: int, in_channels: int, out_channels: int, kernel_size: IntOrSeq,
                 stride: IntOrSeq = 1, padding: IntOrSeq = 0, output_padding: IntOrSeq = 0,
                 bias: bool = True, rng: SeedLike = None):
        super().__init__(ndim, in_channels, out_channels, kernel_size, stride, padding, bias, rng)
        self.output_padding = _normalize(output_padding, ndim, "output_padding")
        for op, st in zip(self.output_padding, self.stride):
            if op >= st and not (op == 0 and st == 1):
                raise ValueError("output_padding must be smaller than stride")

    def output_spatial(self, spatial: Sequence[int]) -> Tuple[int, ...]:
        """Spatial output shape for a given spatial input shape."""
        return conv_transpose_output_shape(
            spatial, self.kernel_size, self.stride, self.padding, self.output_padding
        )

    def forward(self, x: np.ndarray, training: Optional[bool] = None) -> np.ndarray:
        x = self._check_input(x)
        training = self._resolve_training(training)
        n = x.shape[0]
        x_flat = _to_rows(x) if training else x.reshape(n, self.in_channels, -1)
        out = self._gemm_scatter(x_flat, (n, self.out_channels) + self.output_spatial(x.shape[2:]),
                                 training)
        self._add_bias(out)
        self._keep(training, x_flat, x.shape)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x_flat, x_shape = self._kept()
        grad = np.asarray(grad, dtype=x_flat.dtype)
        dcols, dx_flat = self._patch_gemm(grad, True)
        self._accumulate_grads(x_flat, dcols, grad)
        return _from_rows(dx_flat, x_shape)


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
