"""Algorithm 1's block-predictor skeleton, shared by SZ2.1 and AE-SZ.

Both codecs split the field into blocks, give every block the candidate
predictor with the lowest mean L1 loss, and quantize each predictor class's
residuals on the linear scale.  Which candidates exist, and how each class is
laid out in the stream, stays with the codec; the selection and the checks a
decoder runs before it trusts a class's codes live here, once.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.quantization.linear import dequantize_prediction_errors


def block_l1(blocks: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """Mean absolute prediction error of each block, shape ``(n_blocks,)``."""
    return np.abs(blocks - pred).reshape(blocks.shape[0], -1).mean(axis=1)


def select(blocks: np.ndarray, preds: Sequence[Optional[np.ndarray]]) -> np.ndarray:
    """Per-block index of the candidate prediction with the lowest L1 loss.

    A ``None`` candidate is switched off.  Ties go to the earlier candidate,
    so ``select(blocks, [a, b])`` picks ``b`` only where its loss is strictly
    lower.
    """
    losses = np.stack([np.full(blocks.shape[0], np.inf) if pred is None
                       else block_l1(blocks, pred) for pred in preds], axis=1)
    return np.argmin(losses, axis=1).astype(np.uint8)


def checked_flags(flags: np.ndarray, n_blocks: int, n_classes: int) -> np.ndarray:
    """The decoded flag stream as uint8, once it has one known class per block."""
    if flags.size != n_blocks:
        raise ValueError("corrupt payload: stream sizes do not match the block grid")
    if flags.size and (int(flags.min()) < 0 or int(flags.max()) >= n_classes):
        raise ValueError("corrupt payload: unknown block predictor flag")
    return flags.astype(np.uint8)


def checked_codes(codes: np.ndarray, shape: Tuple[int, ...], num_bins: int) -> np.ndarray:
    """``codes`` reshaped to ``shape``, once its size and code range fit."""
    if codes.size != int(np.prod(shape)):
        raise ValueError("corrupt payload: stream sizes do not match the block grid")
    if codes.size and (int(codes.min()) < 0 or int(codes.max()) >= num_bins):
        raise ValueError("corrupt payload: quantization code out of range")
    return codes.reshape(shape)


def decode_residuals(codes: np.ndarray, pred: np.ndarray, literals: np.ndarray,
                     abs_eb: float, num_bins: int) -> np.ndarray:
    """Checked inverse of ``quantize_prediction_errors`` for one residual
    class; ``literals`` are its unpredictable values, in C order (their count
    is checked by ``dequantize_prediction_errors``)."""
    codes = checked_codes(codes, pred.shape, num_bins)
    return dequantize_prediction_errors(codes, pred, literals, abs_eb, num_bins)
