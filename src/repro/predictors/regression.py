"""Blockwise linear (hyperplane) regression predictor, as used by SZ2.1.

SZ2.1 fits, per block, a first-order polynomial ``f(i,j,k) = b0 + b1 i + b2 j
+ b3 k`` by least squares and predicts every point from it; the (quantized)
coefficients are stored in the compressed stream.  The paper contrasts this
"flat hyperplane" predictor with AE-SZ's autoencoder (Section IV-A) and uses it
in the prediction-error comparison of Fig. 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.utils.validation import ensure_dims, ensure_positive


@dataclass
class RegressionCoefficients:
    """Hyperplane coefficients ``values[0] + sum_i values[i+1] * x_i``."""

    values: np.ndarray  # shape (ndim + 1,)

    def quantized(self, error_bound: float, block_size: int) -> "RegressionCoefficients":
        """Quantize coefficients the way SZ2.1 does (scaled by block extent)."""
        ensure_positive(error_bound, "error_bound")
        vals = np.array(self.values, dtype=np.float64)
        # Intercept precision: eb/4; slope precision: eb / (4 * block_size) so the
        # accumulated error across a block stays within a fraction of eb.
        steps = np.empty_like(vals)
        steps[0] = error_bound / 4.0
        steps[1:] = error_bound / (4.0 * max(1, block_size))
        q = np.rint(vals / steps) * steps
        return RegressionCoefficients(values=q)


@lru_cache(maxsize=64)
def _design_matrix_cached(shape: Tuple[int, ...]) -> np.ndarray:
    grids = np.meshgrid(*[np.arange(s, dtype=np.float64) for s in shape], indexing="ij")
    cols = [np.ones(int(np.prod(shape)))] + [g.ravel() for g in grids]
    out = np.stack(cols, axis=1)
    out.setflags(write=False)  # cached and shared: callers must not mutate
    return out


def _design_matrix(shape: Sequence[int]) -> np.ndarray:
    """Design matrix [1, i, j, k] for every point of a block (row-major order).

    A pure function of ``shape``, so it is memoized — blockwise encoders call
    it once per block with only a handful of distinct shapes.  The returned
    array is read-only.
    """
    return _design_matrix_cached(tuple(int(s) for s in shape))


def hyperplanes(shape: Sequence[int], coef_rows: np.ndarray) -> np.ndarray:
    """Each coefficient row's hyperplane on a ``shape`` block, ``(n_rows, *shape)``:
    the one prediction expression, so encoder and decoder agree bit for bit."""
    rows = np.asarray(coef_rows, dtype=np.float64).reshape(-1, len(shape) + 1, 1)
    return np.matmul(_design_matrix(shape), rows).reshape((-1,) + tuple(shape))


class LinearRegressionPredictor:
    """Least-squares hyperplane fit per block."""

    def fit(self, block: np.ndarray) -> RegressionCoefficients:
        block = np.asarray(block, dtype=np.float64)
        ensure_dims(block.ndim, (1, 2, 3), "block")
        design = _design_matrix(block.shape)
        coef, *_ = np.linalg.lstsq(design, block.ravel(), rcond=None)
        return RegressionCoefficients(values=coef)

    def predict(self, shape: Sequence[int], coefficients: RegressionCoefficients) -> np.ndarray:
        return hyperplanes(shape, coefficients.values)[0]

    def fit_predict(self, block: np.ndarray,
                    error_bound: Optional[float] = None) -> Tuple[np.ndarray, RegressionCoefficients]:
        """Fit, optionally quantize the coefficients, and predict the block."""
        coef = self.fit(block)
        if error_bound is not None:
            coef = coef.quantized(error_bound, max(block.shape))
        return self.predict(block.shape, coef), coef

    def loss(self, block: np.ndarray, error_bound: Optional[float] = None) -> float:
        pred, _ = self.fit_predict(block, error_bound)
        return float(np.abs(np.asarray(block, dtype=np.float64) - pred).mean())
