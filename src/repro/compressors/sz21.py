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
from repro.encoding.container import ByteContainer
from repro.encoding.entropy import EntropyCodec
from repro.encoding.lossless import get_backend
from repro.predictors.lorenzo import (
    _batched_lorenzo_predict as _lorenzo_predict_blocks,  # the byte-identity suite's name
    _hyperplane_predictions,
)
from repro.predictors.regression import LinearRegressionPredictor, RegressionCoefficients
from repro.quantization.linear import (UNPREDICTABLE_CODE, dequantize_prediction_errors,
                                       quantize_prediction_errors)
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
        self._entropy = EntropyCodec(backend=get_backend(lossless_backend))
        self._backend = get_backend(lossless_backend)
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
        memoized; everything downstream of it is batched.
        """
        n_blocks = blocks.shape[0]
        reg_preds = np.empty(blocks.shape, dtype=np.float64)
        coef_rows = np.empty((n_blocks, blocks.ndim), dtype=np.float64)
        for b in range(n_blocks):
            reg_preds[b], coef = self._regression.fit_predict(blocks[b], abs_eb)
            coef_rows[b] = np.asarray(coef.values, dtype=np.float64)
        return reg_preds, coef_rows

    def _encode_blocks(self, blocks: np.ndarray, abs_eb: float
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                  Optional[np.ndarray]]:
        """Vectorized encode: batched selection, quantization and Lorenzo sweep.

        Bit-identical to the per-block SZ2.1 loop — same per-point arithmetic
        in the same order, with the unpredictable-literal stream recovered
        from the batched reconstruction in C order (which equals that loop's
        block-by-block append order).
        """
        n_blocks = blocks.shape[0]
        flags = np.zeros(n_blocks, dtype=np.uint8)
        if n_blocks == 0:
            return flags, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64), None

        reg_preds, coef_rows = self._fit_regressions(blocks, abs_eb)
        reg_loss = np.abs(blocks - reg_preds).reshape(n_blocks, -1).mean(axis=1)
        lor_loss = np.abs(blocks - _lorenzo_predict_blocks(blocks)).reshape(
            n_blocks, -1).mean(axis=1)
        flags[reg_loss < lor_loss] = FLAG_REGRESSION
        reg_idx = np.flatnonzero(flags == FLAG_REGRESSION)
        lor_idx = np.flatnonzero(flags == FLAG_LORENZO)

        codes_all = np.empty(blocks.shape, dtype=np.int64)
        recon_all = np.empty(blocks.shape, dtype=np.float64)
        if reg_idx.size:
            qr = quantize_prediction_errors(blocks[reg_idx], reg_preds[reg_idx],
                                            abs_eb, self.num_bins)
            codes_all[reg_idx] = qr.codes
            scatter = np.zeros(qr.codes.shape, dtype=np.float64)
            scatter[qr.codes == UNPREDICTABLE_CODE] = qr.unpredictable
            recon_all[reg_idx] = scatter
        if lor_idx.size:
            codes_l, recon_l = _lorenzo_encode_blocks(blocks[lor_idx], abs_eb,
                                                      self.num_bins)
            codes_all[lor_idx] = codes_l
            recon_all[lor_idx] = recon_l

        codes = codes_all.reshape(-1)
        unpred_arr = recon_all[codes_all == UNPREDICTABLE_CODE]
        coefs = coef_rows[reg_idx].ravel() if reg_idx.size else None
        return flags, codes, unpred_arr, coefs

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
        container["unpred"] = self._backend.compress(unpred_arr.tobytes())
        if coefs is not None:
            container["coefs"] = self._backend.compress(
                coefs.astype(np.float64).tobytes())
        return container.to_bytes()

    # --------------------------------------------------------------- decompress
    def decompress(self, payload: bytes) -> np.ndarray:
        container = ByteContainer.from_bytes(payload)
        meta = container.get_json("meta")
        grid = BlockGrid.from_dict(meta["grid"])
        abs_eb = float(meta["abs_error_bound"])
        num_bins = int(meta["num_bins"])

        flags = self._entropy.decode(container["flags"]).astype(np.uint8)
        codes = self._entropy.decode(container["codes"])
        unpred = np.frombuffer(self._backend.decompress(container["unpred"]), dtype=np.float64)
        coefs = (np.frombuffer(self._backend.decompress(container["coefs"]), dtype=np.float64)
                 if "coefs" in container else np.zeros(0))

        block_shape = grid.block_shape
        block_elems = int(np.prod(block_shape))
        n_coef = len(block_shape) + 1
        if len(flags) != grid.n_blocks or len(codes) != grid.n_blocks * block_elems:
            raise ValueError("corrupt payload: stream sizes do not match the block grid")
        if codes.size and (int(codes.min()) < 0 or int(codes.max()) >= num_bins):
            raise ValueError("corrupt payload: quantization code out of range")
        if not np.all((flags == FLAG_LORENZO) | (flags == FLAG_REGRESSION)):
            raise ValueError("corrupt payload: unknown block predictor flag")
        blocks = np.zeros((grid.n_blocks,) + block_shape, dtype=np.float64)

        codes_all = codes.reshape((grid.n_blocks,) + block_shape)
        unp_mask = codes_all == UNPREDICTABLE_CODE
        counts = unp_mask.reshape(grid.n_blocks, -1).sum(axis=1)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        if offsets[-1] != unpred.size:
            raise ValueError("corrupt payload: unpredictable-value stream size mismatch")

        n_regression = int(np.count_nonzero(flags == FLAG_REGRESSION))
        if len(coefs) != n_regression * n_coef:
            raise ValueError("corrupt payload: regression coefficient stream size mismatch")

        lorenzo_idx = np.flatnonzero(flags == FLAG_LORENZO)
        if lorenzo_idx.size:
            sel_mask = unp_mask[lorenzo_idx]
            uvals = np.zeros((lorenzo_idx.size,) + block_shape, dtype=np.float64)
            if counts[lorenzo_idx].sum():
                # Boolean assignment scatters in C order, matching the
                # order the encoder emitted the per-block literals.
                uvals[sel_mask] = np.concatenate(
                    [unpred[offsets[b]:offsets[b + 1]] for b in lorenzo_idx])
            blocks[lorenzo_idx] = _lorenzo_decode_blocks(
                codes_all[lorenzo_idx], uvals, sel_mask, abs_eb, num_bins)

        coef_pos = 0
        for b in np.flatnonzero(flags == FLAG_REGRESSION):
            coef = coefs[coef_pos:coef_pos + n_coef]
            coef_pos += n_coef
            pred = self._regression.predict(block_shape, RegressionCoefficients(coef))
            blocks[b] = dequantize_prediction_errors(
                codes_all[b], pred, unpred[offsets[b]:offsets[b + 1]], abs_eb, num_bins)
        return reassemble_blocks(blocks, grid)
