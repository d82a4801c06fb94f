"""Strided N-dimensional convolutions and the GEMM kernel pair they share."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn import init as nn_init
from repro.nn.im2col import _normalize, col2im, conv_output_shape, im2col
from repro.nn.module import Module, Parameter, as_compute
from repro.utils.rng import SeedLike, as_rng

IntOrSeq = Union[int, Sequence[int]]


def _to_rows(t: np.ndarray) -> np.ndarray:
    """``(N, C, *spatial)`` -> batch-innermost ``(C, prod(spatial) * N)``."""
    return np.moveaxis(t, 0, -1).reshape(t.shape[1], -1)


def _from_rows(t: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`_to_rows` into a contiguous array of ``shape``."""
    return np.ascontiguousarray(np.moveaxis(t.reshape(shape[1:] + shape[:1]), -1, 0))


class _ConvCore(Module):
    """Arguments, parameters, input checks and the two GEMM kernels of a
    convolution and its transpose, which are one adjoint pair.

    The weight is ``(rows, C_patch, *kernel)`` and ``w_flat`` is its
    ``(rows, C_patch*K)`` view.  The **patch GEMM** maps a patch-side tensor
    ``(N, C_patch, *spatial)`` to ``(N, rows, L)``: ``im2col``, then one
    same-shaped ``np.matmul(w_flat, cols)`` per block.  Its adjoint, the
    **GEMM scatter**, maps ``(N, rows, L)`` back: ``np.matmul(w_flat.T, g)``,
    then the ``col2im`` scatter-add.  :class:`ConvNd` runs the patch GEMM
    forward and the scatter backward; :class:`ConvTransposeNd` runs them the
    other way round.

    When ``training`` resolves to false, a block's result does not depend on
    what else is in the batch, which AE-SZ's decoder relies on.  When it
    resolves to true, both kernels work on batch-innermost ``(rows, L*N)``
    operands instead, one GEMM per layer for the whole batch; training has no
    batch-invariance contract, and it keeps what ``backward`` needs.  Layers
    compute in their input's dtype (:func:`repro.nn.module.as_compute`).
    """

    _kind = "Conv"
    _transposed = False

    def __init__(self, ndim: int, in_channels: int, out_channels: int, kernel_size: IntOrSeq,
                 stride: IntOrSeq = 1, padding: IntOrSeq = 0, bias: bool = True,
                 rng: SeedLike = None):
        if ndim not in (1, 2, 3):
            raise ValueError(f"{self._kind}Nd supports 1D/2D/3D, got ndim={ndim}")
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("channel counts must be positive")
        rng = as_rng(rng)
        self.ndim = ndim
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = _normalize(kernel_size, ndim, "kernel_size")
        self.stride = _normalize(stride, ndim, "stride")
        self.padding = _normalize(padding, ndim, "padding")

        fan_in = in_channels * int(np.prod(self.kernel_size))
        rows, patch = ((in_channels, out_channels) if self._transposed
                       else (out_channels, in_channels))
        name = f"{self._kind.lower()}{ndim}d"
        self.weight = Parameter(
            nn_init.he_normal((rows, patch) + self.kernel_size, fan_in, rng), name=f"{name}.weight"
        )
        self.bias = (
            Parameter(nn_init.zeros((out_channels,)), name=f"{name}.bias") if bias else None
        )
        self._cache: Optional[Tuple[np.ndarray, Tuple[int, ...]]] = None

    # -------------------------------------------------------------- plumbing
    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = as_compute(x)
        label = f"{self._kind}{self.ndim}d"
        if x.ndim != self.ndim + 2:
            raise ValueError(
                f"{label} expected {self.ndim + 2}D input (N, C, *spatial), got shape {x.shape}"
            )
        if x.shape[1] != self.in_channels:
            raise ValueError(
                f"{label} expected {self.in_channels} input channels, got {x.shape[1]}"
            )
        return x

    def _keep(self, training: Optional[bool], tensor: np.ndarray, shape: Tuple[int, ...]) -> None:
        self._cache = (tensor, shape) if self._resolve_training(training) else None

    def _kept(self) -> Tuple[np.ndarray, Tuple[int, ...]]:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        return self._cache

    def _add_bias(self, out: np.ndarray) -> None:
        if self.bias is not None:
            out += self.bias.value.astype(out.dtype, copy=False).reshape(
                (1, -1) + (1,) * (out.ndim - 2))

    # --------------------------------------------------------------- kernels
    def _w_flat(self, dtype: np.dtype) -> np.ndarray:
        return self.weight.value.astype(dtype, copy=False).reshape(self.weight.shape[0], -1)

    def _patch_gemm(self, x: np.ndarray, batch_last: bool) -> Tuple[np.ndarray, np.ndarray]:
        """``(cols, w_flat @ cols)`` for a patch-side ``x``."""
        cols = im2col(x, self.kernel_size, self.stride, self.padding, batch_last)
        return cols, np.matmul(self._w_flat(x.dtype), cols)

    def _gemm_scatter(self, g: np.ndarray, shape: Tuple[int, ...],
                      batch_last: bool) -> np.ndarray:
        """``col2im(w_flat.T @ g)`` into a patch-side tensor of ``shape``."""
        cols = np.matmul(self._w_flat(g.dtype).T, g)
        return col2im(cols, shape, self.kernel_size, self.stride, self.padding, batch_last)

    def _accumulate_grads(self, rows: np.ndarray, cols: np.ndarray, grad: np.ndarray) -> None:
        """Add the batch-innermost ``rows @ cols.T`` to the weight gradient and
        the sum of the output gradient ``grad`` over all but its channel axis
        to the bias gradient."""
        self.weight.grad += (rows @ cols.T).reshape(self.weight.value.shape)
        if self.bias is not None:
            self.bias.grad += grad.sum(axis=(0,) + tuple(range(2, grad.ndim)))


class ConvNd(_ConvCore):
    """N-dimensional convolution over inputs of shape ``(N, C, *spatial)``:
    the patch GEMM forward, the GEMM scatter backward."""

    def output_spatial(self, spatial: Sequence[int]) -> Tuple[int, ...]:
        """Spatial output shape for a given spatial input shape."""
        return conv_output_shape(spatial, self.kernel_size, self.stride, self.padding)

    def forward(self, x: np.ndarray, training: Optional[bool] = None) -> np.ndarray:
        x = self._check_input(x)
        training = self._resolve_training(training)
        shape = (x.shape[0], self.out_channels) + self.output_spatial(x.shape[2:])
        cols, out = self._patch_gemm(x, training)
        out = _from_rows(out, shape) if training else out.reshape(shape)
        self._add_bias(out)
        self._keep(training, cols, x.shape)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        cols, x_shape = self._kept()
        grad = np.asarray(grad, dtype=cols.dtype)
        g = _to_rows(grad)
        self._accumulate_grads(g, cols, grad)
        return self._gemm_scatter(g, x_shape, True)


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
