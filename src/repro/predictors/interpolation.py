"""Multi-level spline-interpolation prediction (the SZinterp / SZ3 approach).

SZinterp [Zhao et al., ICDE 2021] replaces SZ's blockwise predictors by a
global, level-by-level interpolation: a coarse anchor grid is stored first and
every refinement level predicts the mid-points along one dimension at a time by
cubic (or linear, near boundaries) interpolation of already-reconstructed
points.  Prediction therefore only ever uses reconstructed values, so the
compressor and the decompressor stay in lockstep and the error bound holds.

The implementation is vectorized per (level, dimension) pass; each pass is one
fancy-indexing gather plus one call to the linear-scale quantizer.  The
per-point formulation of the encoder is the test oracle in
``tests/reference_codecs.py``; the regression suite proves the two
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.predictors.lorenzo import lorenzo_inverse_transform, lorenzo_transform
from repro.quantization.linear import (
    DEFAULT_NUM_BINS,
    UNPREDICTABLE_CODE,
    dequantize_prediction_errors,
    quantize_prediction_errors,
)
from repro.quantization.uniform import UniformQuantizer
from repro.utils.validation import ensure_dims, ensure_positive

MAX_ANCHOR_STRIDE = 64


@dataclass
class InterpolationPlan:
    """The deterministic traversal shared by encoder and decoder."""

    shape: Tuple[int, ...]
    anchor_stride: int
    passes: List[Tuple[int, int]] = field(default_factory=list)  # (stride, dim)

    @classmethod
    def for_shape(cls, shape: Sequence[int], max_anchor_stride: int = MAX_ANCHOR_STRIDE
                  ) -> "InterpolationPlan":
        shape = tuple(int(s) for s in shape)
        ensure_dims(len(shape), (1, 2, 3), "data")
        longest = max(shape)
        stride = 1
        while stride * 2 < longest and stride * 2 <= max_anchor_stride:
            stride *= 2
        passes: List[Tuple[int, int]] = []
        s = stride
        while s >= 1:
            for dim in range(len(shape)):
                passes.append((s, dim))
            s //= 2
        return cls(shape=shape, anchor_stride=stride * 2 if stride > 1 or longest > 1 else 1,
                   passes=passes)

    def targets(self) -> Iterator[Tuple[int, int, Tuple[np.ndarray, ...]]]:
        """``(stride, dim, mesh)`` for each pass that predicts a point, in
        traversal order.  ``mesh`` is the ``ij`` meshgrid of the pass's target
        index vectors, built once: it indexes both the neighbour gather of
        the prediction and the read / write of the targets.  The passes
        predict every point off the anchor grid exactly once."""
        for stride, dim in self.passes:
            grids = _target_grids(self.shape, stride, dim)
            if all(g.size for g in grids):
                yield stride, dim, tuple(np.meshgrid(*grids, indexing="ij"))


def _anchor_slices(shape: Tuple[int, ...], stride: int) -> Tuple[slice, ...]:
    return tuple(slice(0, None, stride) for _ in shape)


def _target_grids(shape: Tuple[int, ...], stride: int, dim: int) -> List[np.ndarray]:
    """Index vectors (per dimension) of the points predicted in one pass."""
    grids = []
    for d, n in enumerate(shape):
        if d == dim:
            idx = np.arange(stride, n, 2 * stride)
        elif d < dim:
            idx = np.arange(0, n, stride)
        else:
            idx = np.arange(0, n, 2 * stride)
        grids.append(idx)
    return grids


def _interp_prediction(recon: np.ndarray, mesh: Tuple[np.ndarray, ...], dim: int,
                       stride: int) -> np.ndarray:
    """Cubic/linear interpolation along ``dim`` from ``recon`` of the target
    points whose index mesh is ``mesh``."""
    n = recon.shape[dim]

    def take(offset_steps: int) -> Tuple[np.ndarray, np.ndarray]:
        """Values at target ± offset_steps*stride along dim, plus validity mask."""
        idx = mesh[dim] + offset_steps * stride
        valid = (idx >= 0) & (idx < n)
        idx_clipped = np.clip(idx, 0, n - 1)
        gather = list(mesh)
        gather[dim] = idx_clipped
        return recon[tuple(gather)], valid

    left1, vl1 = take(-1)
    right1, vr1 = take(+1)
    left2, vl2 = take(-3)
    right2, vr2 = take(+3)

    # Default: copy the left neighbour (always valid because targets start at
    # index ``stride``).
    pred = left1.copy()
    # Linear where both first neighbours exist.
    lin_mask = vl1 & vr1
    pred[lin_mask] = 0.5 * (left1[lin_mask] + right1[lin_mask])
    # Cubic where all four neighbours exist.
    cub_mask = lin_mask & vl2 & vr2
    pred[cub_mask] = (
        -left2[cub_mask] + 9.0 * left1[cub_mask] + 9.0 * right1[cub_mask] - right2[cub_mask]
    ) / 16.0
    return pred


@dataclass
class InterpolationEncoding:
    """Everything the decoder needs (besides shape/error bound)."""

    anchor_codes: np.ndarray
    codes: np.ndarray
    unpredictable: np.ndarray
    reconstructed: np.ndarray


def multilevel_interpolation_encode(
    data: np.ndarray,
    error_bound: float,
    num_bins: int = DEFAULT_NUM_BINS,
) -> InterpolationEncoding:
    """Encode ``data`` with anchor storage + level-by-level interpolation."""
    ensure_positive(error_bound, "error_bound")
    data = np.asarray(data, dtype=np.float64)
    plan = InterpolationPlan.for_shape(data.shape)
    recon = np.zeros_like(data)

    # --- anchors: uniform-quantized, Lorenzo-differenced integer grid --------
    quantizer = UniformQuantizer(error_bound)
    anchor_view = data[_anchor_slices(data.shape, plan.anchor_stride)]
    anchor_q = quantizer.quantize(anchor_view)
    anchor_codes = lorenzo_transform(anchor_q)
    recon[_anchor_slices(data.shape, plan.anchor_stride)] = quantizer.dequantize(anchor_q)

    code_chunks: List[np.ndarray] = []
    unpred_chunks: List[np.ndarray] = []
    for stride, dim, mesh in plan.targets():
        pred = _interp_prediction(recon, mesh, dim, stride)
        qr = quantize_prediction_errors(data[mesh], pred, error_bound, num_bins)
        recon[mesh] = qr.reconstructed
        code_chunks.append(qr.codes.ravel())
        unpred_chunks.append(qr.unpredictable)

    codes = np.concatenate(code_chunks) if code_chunks else np.zeros(0, dtype=np.int64)
    unpred = np.concatenate(unpred_chunks) if unpred_chunks else np.zeros(0)
    return InterpolationEncoding(
        anchor_codes=anchor_codes, codes=codes, unpredictable=unpred, reconstructed=recon
    )


def multilevel_interpolation_decode(
    anchor_codes: np.ndarray,
    codes: np.ndarray,
    unpredictable: np.ndarray,
    shape: Sequence[int],
    error_bound: float,
    num_bins: int = DEFAULT_NUM_BINS,
) -> np.ndarray:
    """Invert :func:`multilevel_interpolation_encode`.

    Stream sizes and code values are checked against ``shape`` before any
    decoding: a damaged stream raises ``ValueError("corrupt payload: ...")``.
    """
    ensure_positive(error_bound, "error_bound")
    shape = tuple(int(s) for s in shape)
    plan = InterpolationPlan.for_shape(shape)
    recon = np.zeros(shape, dtype=np.float64)
    anchors = _anchor_slices(shape, plan.anchor_stride)
    anchor_codes = np.asarray(anchor_codes, dtype=np.int64)
    codes = np.asarray(codes, dtype=np.int64)
    unpredictable = np.asarray(unpredictable, dtype=np.float64)
    if anchor_codes.shape != recon[anchors].shape:
        raise ValueError("corrupt payload: anchor grid does not match the shape")
    if codes.size != recon.size - anchor_codes.size:
        raise ValueError("corrupt payload: code stream size does not match the shape")
    if codes.size and (int(codes.min()) < 0 or int(codes.max()) >= num_bins):
        raise ValueError("corrupt payload: quantization code out of range")
    if np.count_nonzero(codes == UNPREDICTABLE_CODE) != unpredictable.size:
        raise ValueError("corrupt payload: unpredictable-value stream size mismatch")

    quantizer = UniformQuantizer(error_bound)
    recon[anchors] = quantizer.dequantize(lorenzo_inverse_transform(anchor_codes))

    code_pos = 0
    unpred_pos = 0
    for stride, dim, mesh in plan.targets():
        pred = _interp_prediction(recon, mesh, dim, stride)
        n_points = pred.size
        chunk = codes[code_pos : code_pos + n_points].reshape(pred.shape)
        code_pos += n_points
        n_unpred = int(np.count_nonzero(chunk == UNPREDICTABLE_CODE))
        u_chunk = unpredictable[unpred_pos : unpred_pos + n_unpred]
        unpred_pos += n_unpred
        recon[mesh] = dequantize_prediction_errors(chunk, pred, u_chunk, error_bound, num_bins)
    return recon
