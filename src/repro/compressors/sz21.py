"""SZ2.1-style error-bounded lossy compressor (Liang et al., 2018).

SZ2.1 is the main prediction-based baseline of the paper: data are processed
in small blocks and each block is predicted either by the first-order Lorenzo
predictor (using *reconstructed* neighbour values, which is what limits SZ2.1
at large error bounds) or by a blockwise linear-regression hyperplane; the
prediction errors go through linear-scale quantization, Huffman coding and a
dictionary pass.

The in-block Lorenzo scan is sequential *along anti-diagonals only*: each
point's prediction depends on the just-reconstructed neighbours, but every
point on the hyperplane ``i + j (+ k) = t`` depends only on earlier
hyperplanes.  Both directions therefore run as batched hyperplane sweeps
across all blocks at once (:func:`_lorenzo_encode_blocks`,
:func:`_lorenzo_decode_blocks`, over the one traversal in
:func:`repro.predictors.lorenzo._hyperplane_predictions`):
``O(sum(block_shape))`` vector steps instead of one Python iteration per
point.  The faithful per-element formulations live in
``tests/reference_codecs.py`` as test oracles, and the regression suite in
``tests/test_sz21_vectorized.py`` proves the vectorized paths bit-identical
to them (and byte-identical at the archive level).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.compressors.base import Compressor
from repro.core.blocking import BlockGrid, reassemble_blocks, split_into_blocks
from repro.encoding.container import ByteContainer, checked_int, checked_positive
from repro.encoding.entropy import EntropyCodec
from repro.predictors.blockwise import checked_codes, checked_flags, decode_residuals, select
from repro.predictors.lorenzo import _batched_lorenzo_predict, _hyperplane_predictions
from repro.predictors.regression import LinearRegressionPredictor, hyperplanes
from repro.quantization.linear import UNPREDICTABLE_CODE, quantize_prediction_errors
from repro.registry import register_compressor

FLAG_LORENZO = 0
FLAG_REGRESSION = 1


def _lorenzo_decode_blocks(codes: np.ndarray, uvals: np.ndarray, is_unp: np.ndarray,
                           error_bound: float, num_bins: int) -> np.ndarray:
    """Hyperplane-vectorized Lorenzo decode of a whole batch of blocks at once.

    ``codes`` is ``(n_blocks, *block_shape)``; ``uvals`` carries the
    unpredictable literals scattered at their positions and ``is_unp`` marks
    them.  The scan order and the predictions come from
    :func:`_hyperplane_predictions`; this is the per-plane dequantize step.
    Each step evaluates the same expressions in the same order as the
    sequential per-point scan, so the output is bit-identical to it (guarded
    by the regression suite).
    """
    step = 2.0 * error_bound
    center = num_bins // 2
    delta = step * (codes - center)
    recon = np.zeros(codes.shape, dtype=np.float64)
    for idx, pred in _hyperplane_predictions(recon):
        recon[idx] = np.where(is_unp[idx], uvals[idx], pred + delta[idx])
    return recon


def _lorenzo_encode_blocks(batch: np.ndarray, error_bound: float, num_bins: int
                           ) -> Tuple[np.ndarray, np.ndarray]:
    """Hyperplane-vectorized Lorenzo encode of a whole batch of blocks at once.

    The encode counterpart of :func:`_lorenzo_decode_blocks`: quantization
    feeds the reconstructed value back into the next hyperplane's prediction,
    so this is the per-plane quantize step.  Each step evaluates the same
    expressions in the same order as the sequential per-point scan
    (``np.rint`` matches Python's banker's-rounding ``round``), so codes and
    reconstruction are bit-identical to it (guarded by the regression
    suite).  Returns ``(codes, recon)``; the unpredictable
    literals sit in ``recon`` at the positions where ``codes == 0``.
    """
    step = 2.0 * error_bound
    center = num_bins // 2
    recon = np.zeros(batch.shape, dtype=np.float64)
    codes = np.zeros(batch.shape, dtype=np.int64)

    def quantize(orig: np.ndarray, pred: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # ``+ 0.0`` normalizes -0.0 to +0.0, matching the sequential scan's
        # ``int(round(...))`` quantum (a Python int has no signed zero).
        q = np.rint((orig - pred) / step) + 0.0
        code = q + center
        value = pred + step * q
        ok = (code >= 1.0) & (code < num_bins) & (np.abs(value - orig) <= error_bound)
        snapped = (np.rint(orig / step) + 0.0) * step
        snapped = np.where(np.abs(snapped - orig) > error_bound, orig, snapped)
        # Range-check on the float code before the int cast: a huge quantum
        # must fail the guard, not wrap around int64 into the valid range.
        out = np.where(ok, code, float(UNPREDICTABLE_CODE)).astype(np.int64)
        return out, np.where(ok, value, snapped)

    for idx, pred in _hyperplane_predictions(recon):
        codes[idx], recon[idx] = quantize(batch[idx], pred)
    return codes, recon


@register_compressor("sz21", aliases=("sz2.1", "sz"),
                     description="SZ2.1-style blockwise Lorenzo + regression predictor")
class SZ21Compressor(Compressor):
    """Blockwise Lorenzo + linear-regression compressor in the SZ2.1 style."""

    name = "SZ2.1"

    def __init__(self, block_size_2d: int = 16, block_size_3d: int = 8,
                 num_bins: int = 65536, lossless_backend: str = "zlib"):
        self.block_size_2d = int(block_size_2d)
        self.block_size_3d = int(block_size_3d)
        self.num_bins = int(num_bins)
        self.lossless_backend = str(lossless_backend)
        self._entropy = EntropyCodec(lossless_backend)
        self._regression = LinearRegressionPredictor()

    def archive_options(self) -> dict:
        return {"block_size_2d": self.block_size_2d, "block_size_3d": self.block_size_3d,
                "num_bins": self.num_bins, "lossless_backend": self.lossless_backend}

    def _block_size(self, ndim: int) -> int:
        if ndim >= 3:
            return self.block_size_3d
        return self.block_size_2d

    # ----------------------------------------------------------------- compress
    def _fit_regressions(self, blocks: np.ndarray, abs_eb: float
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-block hyperplane fits: ``(predictions, coefficient rows)``.

        The least-squares solve stays a per-block loop — batching LAPACK's
        SVD is not bit-stable — but it is cheap once the design matrix is
        memoized.  The prediction is one :func:`hyperplanes` call, the same
        expression the decoder evaluates.
        """
        coef_rows = np.empty((blocks.shape[0], blocks.ndim), dtype=np.float64)
        for b, block in enumerate(blocks):
            coef_rows[b] = self._regression.fit(block).quantized(abs_eb, max(block.shape)).values
        return hyperplanes(blocks.shape[1:], coef_rows), coef_rows

    def _encode_blocks(self, blocks: np.ndarray, abs_eb: float
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                  Optional[np.ndarray]]:
        """Vectorized encode: batched selection, quantization and Lorenzo sweep.

        Bit-identical to the per-block SZ2.1 loop — same per-point arithmetic
        in the same order, with the unpredictable-literal stream recovered
        from the batched reconstruction in C order (which equals that loop's
        block-by-block append order).
        """
        if blocks.shape[0] == 0:
            return (np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.int64),
                    np.zeros(0, dtype=np.float64), None)

        reg_preds, coef_rows = self._fit_regressions(blocks, abs_eb)
        flags = select(blocks, [_batched_lorenzo_predict(blocks), reg_preds])
        reg_idx = np.flatnonzero(flags == FLAG_REGRESSION)
        lor_idx = np.flatnonzero(flags == FLAG_LORENZO)

        codes_all = np.empty(blocks.shape, dtype=np.int64)
        recon_all = np.empty(blocks.shape, dtype=np.float64)
        if reg_idx.size:
            qr = quantize_prediction_errors(blocks[reg_idx], reg_preds[reg_idx],
                                            abs_eb, self.num_bins)
            codes_all[reg_idx] = qr.codes
            recon_all[reg_idx] = qr.reconstructed
        if lor_idx.size:
            codes_all[lor_idx], recon_all[lor_idx] = _lorenzo_encode_blocks(
                blocks[lor_idx], abs_eb, self.num_bins)

        coefs = coef_rows[reg_idx].ravel() if reg_idx.size else None
        return flags, codes_all.reshape(-1), recon_all[codes_all == UNPREDICTABLE_CODE], coefs

    def compress(self, data: np.ndarray, rel_error_bound: float) -> bytes:
        data, abs_eb = self._checked_input(data, rel_error_bound)

        blocks, grid = split_into_blocks(data, self._block_size(data.ndim))
        flags, codes, unpred_arr, coefs = self._encode_blocks(blocks, abs_eb)

        container = ByteContainer()
        container.put_json("meta", {
            "grid": grid.to_dict(),
            "abs_error_bound": float(abs_eb),
            "rel_error_bound": float(rel_error_bound),
            "num_bins": int(self.num_bins),
        })
        container["flags"] = self._entropy.encode(flags.astype(np.int64))
        container["codes"] = self._entropy.encode(codes)
        container["unpred"] = self._entropy.encode_floats(unpred_arr)
        if coefs is not None:
            container["coefs"] = self._entropy.encode_floats(coefs)
        return container.to_bytes()

    # --------------------------------------------------------------- decompress
    def decompress(self, payload: bytes) -> np.ndarray:
        container = ByteContainer.from_bytes(payload)
        meta = container.get_json("meta")
        grid = BlockGrid.from_dict(meta["grid"])
        abs_eb = checked_positive(meta["abs_error_bound"], "abs_error_bound")
        num_bins = checked_int(meta["num_bins"], "num_bins")
        block_shape = grid.block_shape
        shape = (grid.n_blocks,) + block_shape
        flags = checked_flags(self._entropy.decode(container["flags"]), grid.n_blocks, 2)
        codes = checked_codes(self._entropy.decode(container["codes"]), shape, num_bins)
        unpred = self._entropy.decode_floats(container["unpred"])
        coefs = (self._entropy.decode_floats(container["coefs"])
                 if "coefs" in container else np.zeros(0))

        reg = flags == FLAG_REGRESSION
        if coefs.size != np.count_nonzero(reg) * (len(block_shape) + 1):
            raise ValueError("corrupt payload: regression coefficient stream size mismatch")
        is_unp = codes == UNPREDICTABLE_CODE
        counts = is_unp.reshape(grid.n_blocks, -1).sum(axis=1)
        if counts.sum() != unpred.size:
            raise ValueError("corrupt payload: unpredictable-value stream size mismatch")
        # The literal stream is block-by-block in C order: split it by class.
        reg_literal = np.repeat(reg, counts)
        blocks = np.empty(shape, dtype=np.float64)
        if reg.any():
            blocks[reg] = decode_residuals(codes[reg], hyperplanes(block_shape, coefs),
                                           unpred[reg_literal], abs_eb, num_bins)
        lor = ~reg
        if lor.any():
            unp_lor = is_unp[lor]
            uvals = np.zeros(unp_lor.shape, dtype=np.float64)
            uvals[unp_lor] = unpred[~reg_literal]
            blocks[lor] = _lorenzo_decode_blocks(codes[lor], uvals, unp_lor, abs_eb, num_bins)
        return reassemble_blocks(blocks, grid)
