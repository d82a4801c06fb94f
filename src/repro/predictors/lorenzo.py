"""Lorenzo predictors (first- and second-order).

Two complementary views are provided:

* :func:`lorenzo_predict` — the classic neighbour-sum prediction used to score
  the Lorenzo predictor against the autoencoder during AE-SZ's per-block
  predictor selection (Algorithm 1, line 7) and to reproduce the prediction
  error distributions of Fig. 7.

* :func:`lorenzo_transform` / :func:`lorenzo_inverse_transform` — the integer
  "dual-quantization" formulation used for actual encoding: values are first
  snapped onto a uniform ``2e`` grid, the (invertible) Lorenzo finite-difference
  operator is applied to the integer grid indices, and decompression inverts it
  exactly with cumulative sums.  This is the same trick used by cuSZ / SZauto
  and guarantees the error bound while keeping every step vectorized.

Each first-order kernel is written once, batched over a leading block axis
(``_batched_lorenzo_*``); the single-field functions are its one-block case.
:func:`_hyperplane_predictions` is the third view — SZ2.1's scan from
*reconstructed* neighbours, as one hyperplane-order traversal shared by the
encoder and the decoder of :mod:`repro.compressors.sz21`.

The second-order variants implement the higher-order differences used by the
SZauto baseline.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.utils.validation import ensure_dims


def _batched_lorenzo_predict(blocks: np.ndarray) -> np.ndarray:
    """First-order Lorenzo prediction of every block of ``(n_blocks, *block_shape)``.

    The one pad-and-slice kernel: axis 0 is left untouched, so each slice
    equals the single-field result bit for bit.
    """
    blocks = np.asarray(blocks, dtype=np.float64)
    ndim = blocks.ndim - 1
    ensure_dims(ndim, (1, 2, 3), "data")
    padded = np.pad(blocks, [(0, 0)] + [(1, 0)] * ndim, mode="constant")
    if ndim == 1:
        return padded[:, :-1]
    if ndim == 2:
        return padded[:, 1:, :-1] + padded[:, :-1, 1:] - padded[:, :-1, :-1]
    return (
        padded[:, :-1, 1:, 1:]
        + padded[:, 1:, :-1, 1:]
        + padded[:, 1:, 1:, :-1]
        - padded[:, :-1, :-1, 1:]
        - padded[:, :-1, 1:, :-1]
        - padded[:, 1:, :-1, :-1]
        + padded[:, :-1, :-1, :-1]
    )


def lorenzo_predict(data: np.ndarray) -> np.ndarray:
    """First-order Lorenzo prediction from *original* causal neighbours.

    For 2D, point (i, j) is predicted by ``d[i,j-1] + d[i-1,j] - d[i-1,j-1]``;
    the 3D version uses the 7-neighbour formula from the paper.  Out-of-range
    neighbours are treated as 0, matching SZ's behaviour at block borders.
    """
    return _batched_lorenzo_predict(np.asarray(data)[None])[0]


def _batched_lorenzo_transform(grid: np.ndarray) -> np.ndarray:
    """Blockwise first-order Lorenzo differences on an integer grid (axis 0 = block)."""
    ensure_dims(grid.ndim - 1, (1, 2, 3), "grid")
    out = grid
    for axis in range(1, grid.ndim):
        out = np.diff(out, axis=axis, prepend=np.zeros_like(np.take(out, [0], axis=axis)))
    return out


def _batched_lorenzo_inverse(diffs: np.ndarray) -> np.ndarray:
    """Invert :func:`_batched_lorenzo_transform` (cumulative sums per block axis)."""
    ensure_dims(diffs.ndim - 1, (1, 2, 3), "diffs")
    out = diffs
    for axis in range(1, diffs.ndim):
        out = np.cumsum(out, axis=axis)
    return out


def lorenzo_transform(grid: np.ndarray) -> np.ndarray:
    """Apply the first-order Lorenzo difference operator to an integer grid.

    Equivalent to ``grid - lorenzo_predict(grid)`` but exact in integer
    arithmetic; inverted by :func:`lorenzo_inverse_transform`.
    """
    return _batched_lorenzo_transform(np.asarray(grid)[None])[0]


def lorenzo_inverse_transform(diffs: np.ndarray) -> np.ndarray:
    """Invert :func:`lorenzo_transform` with cumulative sums along each axis."""
    return _batched_lorenzo_inverse(np.asarray(diffs)[None])[0]


def _hyperplane_predictions(recon: np.ndarray
                            ) -> Iterator[Tuple[tuple, np.ndarray]]:
    """Walk ``recon`` (``(n_blocks, *block_shape)``) in Lorenzo scan order.

    SZ's in-block scan predicts from *reconstructed* neighbours, so it is
    sequential — but only along anti-diagonals: every point on the hyperplane
    ``i + j (+ k) = t`` depends on earlier hyperplanes alone.  For each plane
    in turn this yields ``(idx, pred)``: the index selecting the plane's
    points in every block, and their first-order prediction from the values
    already in ``recon`` (out-of-block neighbours are 0).  The caller must
    store the plane's reconstruction into ``recon[idx]`` before asking for
    the next plane — ``O(sum(block_shape))`` vector steps over all blocks at
    once instead of one Python iteration per point.  Neighbours are summed in
    the order the sequential per-point scan writes them (``a + b - c`` in 2-d),
    so predictions are bit-identical to the per-element formulation.
    """
    shape = recon.shape[1:]
    ndim = len(shape)
    ensure_dims(ndim, (1, 2, 3), "blocks")
    coords = np.indices(shape).reshape(ndim, -1)
    plane_of = coords.sum(axis=0)
    # One term per causal neighbour: which axes it steps back along, and
    # whether it adds (an odd number of them) or subtracts — ordered by that
    # number, then lexicographically: +(0,1) +(1,0) -(1,1) in 2-d.
    terms = [(np.array(o, dtype=bool), sum(o) % 2 == 1)
             for o in sorted((o for o in np.ndindex(*(2,) * ndim) if any(o)),
                             key=lambda o: (sum(o), o))]
    for t in range(sum(shape) - ndim + 1):
        sel = plane_of == t
        point = coords[:, sel]
        back = np.maximum(point - 1, 0)
        inside = point > 0
        pred: Optional[np.ndarray] = None
        for stepped, adds in terms:
            source = np.where(stepped[:, None], back, point)
            term = np.where(inside[stepped].all(axis=0),
                            recon[(slice(None), *source)], 0.0)
            if pred is None:
                pred = term
            else:
                pred = pred + term if adds else pred - term
        yield (slice(None), *point), pred


def second_order_lorenzo_transform(grid: np.ndarray) -> np.ndarray:
    """Second-order Lorenzo differences (SZauto's higher-order predictor)."""
    grid = np.asarray(grid)
    ensure_dims(grid.ndim, (1, 2, 3), "grid")
    out = grid.copy()
    for axis in range(grid.ndim):
        for _ in range(2):
            out = np.diff(out, axis=axis, prepend=np.zeros_like(np.take(out, [0], axis=axis)))
    return out


def second_order_lorenzo_inverse(diffs: np.ndarray) -> np.ndarray:
    """Invert :func:`second_order_lorenzo_transform`."""
    diffs = np.asarray(diffs)
    ensure_dims(diffs.ndim, (1, 2, 3), "diffs")
    out = diffs.copy()
    for axis in range(diffs.ndim):
        for _ in range(2):
            out = np.cumsum(out, axis=axis)
    return out


def second_order_lorenzo_predict(data: np.ndarray) -> np.ndarray:
    """Second-order Lorenzo prediction from original neighbours (for scoring)."""
    data = np.asarray(data, dtype=np.float64)
    return data - second_order_lorenzo_transform(data)


class LorenzoPredictor:
    """Object wrapper exposing the classic and mean-Lorenzo block predictions.

    AE-SZ selects, per block, between the classic Lorenzo prediction and the
    block-mean prediction (Section IV-A): if a block is better predicted by its
    mean value, the mean is used and stored losslessly.
    """

    def __init__(self, use_mean_fallback: bool = True):
        self.use_mean_fallback = bool(use_mean_fallback)

    def predict(self, block: np.ndarray) -> Tuple[np.ndarray, dict]:
        """Return the better of classic-Lorenzo / mean prediction and metadata."""
        block = np.asarray(block, dtype=np.float64)
        classic = lorenzo_predict(block)
        if not self.use_mean_fallback:
            return classic, {"mode": "classic"}
        mean = float(block.mean())
        mean_pred = np.full_like(block, mean)
        if np.abs(block - mean_pred).sum() < np.abs(block - classic).sum():
            return mean_pred, {"mode": "mean", "mean": mean}
        return classic, {"mode": "classic"}

    def loss(self, block: np.ndarray) -> float:
        """Element-wise L1 loss of the (best) Lorenzo prediction for a block."""
        pred, _ = self.predict(block)
        block = np.asarray(block, dtype=np.float64)
        return float(np.abs(block - pred).mean())
