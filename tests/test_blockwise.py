"""Unit tests for the block-predictor skeleton shared by sz21 and AE-SZ."""

import numpy as np
import pytest

from repro.predictors.blockwise import (
    block_l1,
    checked_codes,
    checked_flags,
    decode_residuals,
    select,
)
from repro.quantization.linear import quantize_prediction_errors


def test_select_ties_go_to_the_earlier_candidate():
    rng = np.random.default_rng(0)
    blocks = rng.normal(size=(6, 4, 4))
    pred = rng.normal(size=blocks.shape)
    assert select(blocks, [pred, pred.copy()]).tolist() == [0] * 6
    assert select(blocks, [None, pred, pred.copy()]).tolist() == [1] * 6


def test_select_never_picks_a_switched_off_candidate():
    rng = np.random.default_rng(1)
    blocks = rng.normal(size=(5, 3, 3, 3))
    terrible = blocks + 1e6
    assert select(blocks, [None, terrible]).tolist() == [1] * 5
    assert select(blocks, [terrible, None]).tolist() == [0] * 5
    assert select(blocks, [None, blocks, None]).tolist() == [1] * 5


def test_select_returns_uint8_flags_of_the_best_candidate():
    rng = np.random.default_rng(2)
    blocks = rng.normal(size=(40, 8))
    preds = [blocks + rng.normal(scale=s, size=blocks.shape) for s in (0.5, 1.0, 2.0)]
    flags = select(blocks, preds)
    assert flags.dtype == np.uint8
    losses = np.stack([np.abs(blocks - p).mean(axis=1) for p in preds], axis=1)
    np.testing.assert_array_equal(flags, np.argmin(losses, axis=1))


def test_select_reproduces_sz21s_strict_regression_rule():
    """sz21 switched a block to regression only where ``reg < lor``."""
    rng = np.random.default_rng(3)
    blocks = rng.normal(size=(64, 6, 6))
    lor = blocks + rng.normal(scale=0.3, size=blocks.shape)
    reg = blocks + rng.normal(scale=0.3, size=blocks.shape)
    reg[::4] = lor[::4]  # exact ties must stay Lorenzo
    reg_loss = np.abs(blocks - reg).reshape(64, -1).mean(axis=1)
    lor_loss = np.abs(blocks - lor).reshape(64, -1).mean(axis=1)
    expected = np.zeros(64, dtype=np.uint8)
    expected[reg_loss < lor_loss] = 1
    flags = select(blocks, [lor, reg])
    np.testing.assert_array_equal(flags, expected)
    assert 0 < flags.sum() < 48


def test_block_l1_equals_mean_over_block_axes_bit_for_bit():
    rng = np.random.default_rng(4)
    for trial in range(120):
        ndim = 1 + trial % 3
        shape = (int(rng.integers(1, 20)),) + tuple(
            int(s) for s in rng.integers(1, 17 if ndim < 3 else 9, size=ndim))
        blocks = rng.normal(scale=10.0 ** rng.integers(-6, 6), size=shape)
        pred = blocks + rng.normal(size=shape)
        expected = np.abs(blocks - pred).mean(axis=tuple(range(1, blocks.ndim)))
        assert np.array_equal(block_l1(blocks, pred).view(np.uint64), expected.view(np.uint64))


def test_checked_flags_raises_corrupt():
    flags = np.array([0, 1, 2, 1])
    np.testing.assert_array_equal(checked_flags(flags, 4, 3), flags)
    assert checked_flags(flags, 4, 3).dtype == np.uint8
    with pytest.raises(ValueError, match="corrupt payload: stream sizes do not match"):
        checked_flags(flags[:-1], 4, 3)
    with pytest.raises(ValueError, match="corrupt payload: unknown block predictor flag"):
        checked_flags(flags, 4, 2)
    with pytest.raises(ValueError, match="corrupt payload: unknown block predictor flag"):
        checked_flags(np.array([0, -1, 0, 0]), 4, 3)
    # A flag of 256 must not wrap around to a valid uint8 class.
    with pytest.raises(ValueError, match="corrupt payload: unknown block predictor flag"):
        checked_flags(np.array([0, 256, 0, 0]), 4, 3)


def test_checked_codes_raises_corrupt():
    codes = np.arange(12)
    assert checked_codes(codes, (3, 2, 2), 16).shape == (3, 2, 2)
    with pytest.raises(ValueError, match="corrupt payload: stream sizes do not match"):
        checked_codes(codes[:-3], (3, 2, 2), 16)
    with pytest.raises(ValueError, match="corrupt payload: quantization code out of range"):
        checked_codes(codes, (3, 2, 2), 11)
    with pytest.raises(ValueError, match="corrupt payload: quantization code out of range"):
        checked_codes(codes - 1, (3, 2, 2), 16)


def test_decode_residuals_inverts_quantization_and_checks_literals():
    rng = np.random.default_rng(5)
    blocks = rng.normal(size=(4, 5, 5)).cumsum(axis=1)
    pred = blocks + rng.normal(scale=0.05, size=blocks.shape)
    qr = quantize_prediction_errors(blocks, pred, 1e-3, 16)
    assert qr.n_unpredictable > 0
    decoded = decode_residuals(qr.codes.ravel(), pred, qr.unpredictable, 1e-3, 16)
    np.testing.assert_array_equal(decoded, qr.reconstructed)
    with pytest.raises(ValueError, match="corrupt payload: unpredictable-value stream size"):
        decode_residuals(qr.codes.ravel(), pred, qr.unpredictable[:-1], 1e-3, 16)
    with pytest.raises(ValueError, match="corrupt payload: quantization code out of range"):
        decode_residuals(qr.codes.ravel(), pred, qr.unpredictable, 1e-3, 8)

