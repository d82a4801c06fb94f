"""Multi-level spline-interpolation prediction (the SZinterp / SZ3 approach).

SZinterp [Zhao et al., ICDE 2021] replaces SZ's blockwise predictors by a
global, level-by-level interpolation: a coarse anchor grid is stored first and
every refinement level predicts the mid-points along one dimension at a time by
cubic (or linear, near boundaries) interpolation of already-reconstructed
points.  Prediction therefore only ever uses reconstructed values, so the
compressor and the decompressor stay in lockstep and the error bound holds.

The implementation is vectorized per (level, dimension) pass; each pass is one
fancy-indexing gather plus one call to the linear-scale quantizer.  A
per-point reference encoder (:func:`multilevel_interpolation_encode_scalar`)
is retained and proven bit-identical by the regression suite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

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


def _interp_prediction(recon: np.ndarray, idx_grids: List[np.ndarray], dim: int,
                       stride: int) -> np.ndarray:
    """Cubic/linear interpolation of target points along ``dim`` from ``recon``."""
    shape = recon.shape
    n = shape[dim]
    target_idx = idx_grids[dim]

    mesh = np.meshgrid(*idx_grids, indexing="ij")

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
    for stride, dim in plan.passes:
        idx_grids = _target_grids(data.shape, stride, dim)
        if any(g.size == 0 for g in idx_grids):
            continue
        pred = _interp_prediction(recon, idx_grids, dim, stride)
        mesh = np.meshgrid(*idx_grids, indexing="ij")
        target = data[tuple(mesh)]
        qr = quantize_prediction_errors(target, pred, error_bound, num_bins)
        recon[tuple(mesh)] = qr.reconstructed
        code_chunks.append(qr.codes.ravel())
        unpred_chunks.append(qr.unpredictable)

    codes = np.concatenate(code_chunks) if code_chunks else np.zeros(0, dtype=np.int64)
    unpred = np.concatenate(unpred_chunks) if unpred_chunks else np.zeros(0)
    return InterpolationEncoding(
        anchor_codes=anchor_codes, codes=codes, unpredictable=unpred, reconstructed=recon
    )


def _quantize_point(orig: float, pred: float, error_bound: float, num_bins: int
                    ) -> Tuple[int, float, Optional[float]]:
    """Scalar mirror of :func:`quantize_prediction_errors` for one value.

    Same arithmetic in the same order (Python's ``round`` is banker's
    rounding, matching ``np.rint``), including the ``1 + 1e-12`` rounding
    tolerances.  Returns ``(code, reconstructed, unpredictable_literal)``
    where the literal is ``None`` for predictable points.
    """
    step = 2.0 * error_bound
    center = num_bins // 2
    tol = error_bound * (1 + 1e-12)
    raw = round((orig - pred) / step)
    code = raw + center
    recon = pred + step * raw
    if 1 <= code < num_bins and abs(recon - orig) <= tol:
        return code, recon, None
    # The vectorized quantizer snaps with ``np.rint``, which keeps the sign
    # of a zero quantum; Python's ``round`` returns an int, so restore it.
    snapped_q = float(round(orig / step))
    if snapped_q == 0.0:
        snapped_q = math.copysign(0.0, orig / step)
    snapped = snapped_q * step
    if abs(snapped - orig) > tol:
        snapped = orig
    return UNPREDICTABLE_CODE, snapped, snapped


def _interp_point_prediction(recon: np.ndarray, coords: Tuple[int, ...], dim: int,
                             stride: int) -> float:
    """Per-point mirror of :func:`_interp_prediction` for one target."""
    n = recon.shape[dim]

    def take(offset_steps: int) -> Tuple[float, bool]:
        idx = coords[dim] + offset_steps * stride
        clipped = min(max(idx, 0), n - 1)
        gather = coords[:dim] + (clipped,) + coords[dim + 1:]
        return float(recon[gather]), 0 <= idx < n

    left1, vl1 = take(-1)
    right1, vr1 = take(+1)
    left2, vl2 = take(-3)
    right2, vr2 = take(+3)
    pred = left1
    if vl1 and vr1:
        pred = 0.5 * (left1 + right1)
        if vl2 and vr2:
            pred = (-left2 + 9.0 * left1 + 9.0 * right1 - right2) / 16.0
    return pred


def multilevel_interpolation_encode_scalar(
    data: np.ndarray,
    error_bound: float,
    num_bins: int = DEFAULT_NUM_BINS,
) -> InterpolationEncoding:
    """Per-point reference for :func:`multilevel_interpolation_encode`.

    Everything runs one point at a time in plain Python arithmetic: anchor
    quantization, the inclusion–exclusion form of the integer Lorenzo
    difference, the cubic/linear neighbour prediction and the linear-scale
    quantizer.  Bit-identical to the vectorized encoder for finite inputs
    (the regression suite asserts archive-level byte equality); kept as
    executable documentation of the traversal order.
    """
    ensure_positive(error_bound, "error_bound")
    data = np.asarray(data, dtype=np.float64)
    plan = InterpolationPlan.for_shape(data.shape)
    recon = np.zeros_like(data)
    step = 2.0 * error_bound

    anchor_view = data[_anchor_slices(data.shape, plan.anchor_stride)]
    anchor_q = np.zeros(anchor_view.shape, dtype=np.int64)
    recon_anchor = np.zeros(anchor_view.shape, dtype=np.float64)
    for idx in np.ndindex(*anchor_view.shape):
        q = round(float(anchor_view[idx]) / step)
        anchor_q[idx] = q
        recon_anchor[idx] = float(q) * step
    # First-order Lorenzo difference, written as the per-point
    # inclusion–exclusion over the 2^ndim causal corner neighbours.
    anchor_codes = np.zeros_like(anchor_q)
    for idx in np.ndindex(*anchor_q.shape):
        total = 0
        for offs in itertools.product((0, 1), repeat=anchor_q.ndim):
            src = tuple(i - o for i, o in zip(idx, offs))
            if any(s < 0 for s in src):
                continue
            total += (-1) ** sum(offs) * int(anchor_q[src])
        anchor_codes[idx] = total
    recon[_anchor_slices(data.shape, plan.anchor_stride)] = recon_anchor

    codes_list: List[int] = []
    unpred_list: List[float] = []
    for stride, dim in plan.passes:
        idx_grids = _target_grids(data.shape, stride, dim)
        if any(g.size == 0 for g in idx_grids):
            continue
        # Neighbours sit at even multiples of ``stride`` along ``dim`` and
        # targets at odd ones, so no target in a pass reads another target's
        # freshly written value: the in-place scan equals the batched pass.
        for mi in np.ndindex(*(g.size for g in idx_grids)):
            coords = tuple(int(idx_grids[d][mi[d]]) for d in range(len(idx_grids)))
            pred = _interp_point_prediction(recon, coords, dim, stride)
            code, value, literal = _quantize_point(float(data[coords]), pred,
                                                   error_bound, num_bins)
            codes_list.append(code)
            recon[coords] = value
            if literal is not None:
                unpred_list.append(literal)

    return InterpolationEncoding(
        anchor_codes=anchor_codes,
        codes=np.asarray(codes_list, dtype=np.int64),
        unpredictable=np.asarray(unpred_list, dtype=np.float64),
        reconstructed=recon,
    )


def multilevel_interpolation_decode(
    anchor_codes: np.ndarray,
    codes: np.ndarray,
    unpredictable: np.ndarray,
    shape: Sequence[int],
    error_bound: float,
    num_bins: int = DEFAULT_NUM_BINS,
) -> np.ndarray:
    """Invert :func:`multilevel_interpolation_encode`."""
    ensure_positive(error_bound, "error_bound")
    shape = tuple(int(s) for s in shape)
    plan = InterpolationPlan.for_shape(shape)
    recon = np.zeros(shape, dtype=np.float64)

    quantizer = UniformQuantizer(error_bound)
    anchor_q = lorenzo_inverse_transform(np.asarray(anchor_codes, dtype=np.int64))
    recon[_anchor_slices(shape, plan.anchor_stride)] = quantizer.dequantize(anchor_q)

    codes = np.asarray(codes, dtype=np.int64)
    unpredictable = np.asarray(unpredictable, dtype=np.float64)
    code_pos = 0
    unpred_pos = 0
    for stride, dim in plan.passes:
        idx_grids = _target_grids(shape, stride, dim)
        if any(g.size == 0 for g in idx_grids):
            continue
        pred = _interp_prediction(recon, idx_grids, dim, stride)
        n_points = pred.size
        chunk = codes[code_pos : code_pos + n_points].reshape(pred.shape)
        code_pos += n_points
        n_unpred = int(np.count_nonzero(chunk == 0))
        u_chunk = unpredictable[unpred_pos : unpred_pos + n_unpred]
        unpred_pos += n_unpred
        values = dequantize_prediction_errors(chunk, pred, u_chunk, error_bound, num_bins)
        mesh = np.meshgrid(*idx_grids, indexing="ij")
        recon[tuple(mesh)] = values
    if code_pos != codes.size:
        raise ValueError("interpolation code stream length mismatch")
    return recon
