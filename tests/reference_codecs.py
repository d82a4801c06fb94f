"""Per-element reference codecs: the oracles of the byte-identity suite.

``src/`` ships one vectorized encode path per codec: the batched hyperplane
Lorenzo sweeps of sz21, szinterp's per-(level, dimension) passes and the
``repeat``-based Huffman bit packer.  This module keeps the original
one-point-at-a-time formulations of the same kernels: SZ2.1's sequential
Lorenzo scan (Algorithm 1, lines 14-17), the per-point interpolation encoder
and the bit-serial packer.  They spell out the scan order the vectorized
paths must reproduce bit for bit.

:func:`reference_paths` swaps them in for the four production names, so
``repro.compress`` / ``repro.decompress`` themselves run the reference path
and the tests compare whole archives::

    with reference_paths(monkeypatch):
        slow = repro.compress(data, "sz21", Rel(1e-3))
    assert repro.compress(data, "sz21", Rel(1e-3)) == slow
"""

from __future__ import annotations

import contextlib
import itertools
import math
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.compressors import sz21, szinterp
from repro.compressors.sz21 import FLAG_LORENZO, FLAG_REGRESSION, SZ21Compressor
from repro.encoding import ZlibBackend, huffman
from repro.predictors.interpolation import (
    InterpolationEncoding,
    InterpolationPlan,
    _anchor_slices,
    _target_grids,
)
from repro.predictors.lorenzo import lorenzo_predict
from repro.quantization.linear import (DEFAULT_NUM_BINS, UNPREDICTABLE_CODE,
                                       quantize_prediction_errors)
from repro.utils.validation import ensure_positive


# ---------------------------------------------------------------------------
# sz21: the sequential Lorenzo scan and the per-block encoder
# ---------------------------------------------------------------------------

def _causal_lorenzo_prediction(recon: np.ndarray, idx: Tuple[int, ...]) -> float:
    """First-order Lorenzo prediction of ``idx`` from reconstructed values."""
    if recon.ndim == 1:
        (i,) = idx
        return recon[i - 1] if i > 0 else 0.0
    if recon.ndim == 2:
        i, j = idx
        a = recon[i, j - 1] if j > 0 else 0.0
        b = recon[i - 1, j] if i > 0 else 0.0
        c = recon[i - 1, j - 1] if (i > 0 and j > 0) else 0.0
        return a + b - c
    i, j, k = idx

    def f(di: int, dj: int, dk: int) -> float:
        if i - di >= 0 and j - dj >= 0 and k - dk >= 0:
            return recon[i - di, j - dj, k - dk]
        return 0.0

    return (f(0, 0, 1) + f(0, 1, 0) + f(1, 0, 0)
            - f(0, 1, 1) - f(1, 0, 1) - f(1, 1, 0) + f(1, 1, 1))


def sequential_lorenzo_encode(block: np.ndarray, error_bound: float, num_bins: int
                              ) -> Tuple[np.ndarray, List[float], np.ndarray]:
    """Classic SZ Lorenzo scan: predict from reconstructed neighbours, quantize.

    Returns ``(codes, unpredictable literals, reconstruction)``.
    """
    step = 2.0 * error_bound
    center = num_bins // 2
    recon = np.zeros_like(block)
    codes = np.zeros(block.shape, dtype=np.int64)
    unpred: List[float] = []
    for idx in np.ndindex(*block.shape):
        pred = _causal_lorenzo_prediction(recon, idx)
        orig = block[idx]
        q = int(round((orig - pred) / step))
        code = q + center
        value = pred + step * q
        if 1 <= code < num_bins and abs(value - orig) <= error_bound:
            codes[idx] = code
            recon[idx] = value
        else:
            codes[idx] = UNPREDICTABLE_CODE
            snapped = round(orig / step) * step
            if abs(snapped - orig) > error_bound:
                snapped = orig
            unpred.append(float(snapped))
            recon[idx] = snapped
    return codes, unpred, recon


def sequential_lorenzo_decode(codes: np.ndarray, unpred: np.ndarray, error_bound: float,
                              num_bins: int) -> np.ndarray:
    """Invert :func:`sequential_lorenzo_encode` for one block."""
    step = 2.0 * error_bound
    center = num_bins // 2
    recon = np.zeros(codes.shape, dtype=np.float64)
    unpred_iter = iter(np.asarray(unpred, dtype=np.float64).tolist())
    for idx in np.ndindex(*codes.shape):
        pred = _causal_lorenzo_prediction(recon, idx)
        code = int(codes[idx])
        if code == UNPREDICTABLE_CODE:
            recon[idx] = next(unpred_iter)
        else:
            recon[idx] = pred + step * (code - center)
    return recon


def lorenzo_decode_blocks(codes: np.ndarray, uvals: np.ndarray, is_unp: np.ndarray,
                          error_bound: float, num_bins: int) -> np.ndarray:
    """``sz21._lorenzo_decode_blocks``' signature over the sequential decoder,
    one block at a time (a boolean index reads the literals in C order)."""
    recon = np.zeros(codes.shape, dtype=np.float64)
    for b in range(codes.shape[0]):
        recon[b] = sequential_lorenzo_decode(codes[b], uvals[b][is_unp[b]],
                                             error_bound, num_bins)
    return recon


def sz21_encode_blocks(self: SZ21Compressor, blocks: np.ndarray, abs_eb: float
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                  Optional[np.ndarray]]:
    """Per-block reference for ``SZ21Compressor._encode_blocks`` (the
    original SZ2.1 formulation); patched onto the class as a method."""
    n_blocks = blocks.shape[0]
    flags = np.zeros(n_blocks, dtype=np.uint8)
    all_codes: List[np.ndarray] = []
    all_unpred: List[float] = []
    reg_coefs: List[np.ndarray] = []

    # Selection losses are computed on original data, as SZ2.1's sampling does.
    for b in range(n_blocks):
        block = blocks[b]
        reg_pred, coef = self._regression.fit_predict(block, abs_eb)
        reg_loss = np.abs(block - reg_pred).mean()
        lor_loss = np.abs(block - lorenzo_predict(block)).mean()
        if reg_loss < lor_loss:
            flags[b] = FLAG_REGRESSION
            qr = quantize_prediction_errors(block, reg_pred, abs_eb, self.num_bins)
            all_codes.append(qr.codes.ravel())
            all_unpred.extend(qr.unpredictable.tolist())
            reg_coefs.append(np.asarray(coef.values, dtype=np.float64))
        else:
            flags[b] = FLAG_LORENZO
            codes, unpred, _ = sequential_lorenzo_encode(block, abs_eb, self.num_bins)
            all_codes.append(codes.ravel())
            all_unpred.extend(unpred)

    codes = np.concatenate(all_codes) if all_codes else np.zeros(0, dtype=np.int64)
    unpred_arr = np.asarray(all_unpred, dtype=np.float64)
    coefs = np.concatenate(reg_coefs) if reg_coefs else None
    return flags, codes, unpred_arr, coefs


# ---------------------------------------------------------------------------
# szinterp: the per-point multilevel interpolation encoder
# ---------------------------------------------------------------------------

def quantize_point(orig: float, pred: float, error_bound: float, num_bins: int
                   ) -> Tuple[int, float, Optional[float]]:
    """Scalar mirror of ``quantize_prediction_errors`` for one value.

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


def interp_point_prediction(recon: np.ndarray, coords: Tuple[int, ...], dim: int,
                            stride: int) -> float:
    """Per-point mirror of ``_interp_prediction`` for one target."""
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


def multilevel_interpolation_encode(
    data: np.ndarray,
    error_bound: float,
    num_bins: int = DEFAULT_NUM_BINS,
) -> InterpolationEncoding:
    """Per-point reference for ``multilevel_interpolation_encode``.

    Everything runs one point at a time in plain Python arithmetic: anchor
    quantization, the inclusion–exclusion form of the integer Lorenzo
    difference, the cubic/linear neighbour prediction and the linear-scale
    quantizer.
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
            pred = interp_point_prediction(recon, coords, dim, stride)
            code, value, literal = quantize_point(float(data[coords]), pred,
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


# ---------------------------------------------------------------------------
# Huffman: the bit-serial packer
# ---------------------------------------------------------------------------

def pack_codes(sym_codes: np.ndarray, sym_lens: np.ndarray) -> Tuple[bytes, int]:
    """Bit-serial reference for ``huffman._pack_codes``: one symbol at a time
    through a bit buffer.  Returns ``(payload_bytes, total_bits)``."""
    out = bytearray()
    acc = 0
    nacc = 0
    total_bits = 0
    for code, length in zip(sym_codes.tolist(), sym_lens.tolist()):
        acc = (acc << length) | code
        nacc += length
        total_bits += length
        while nacc >= 8:
            nacc -= 8
            out.append((acc >> nacc) & 0xFF)
            acc &= (1 << nacc) - 1
    if nacc:
        out.append((acc << (8 - nacc)) & 0xFF)
    return bytes(out), total_bits


# ---------------------------------------------------------------------------
# Entropy streams: the raw form, with no Huffman stage
# ---------------------------------------------------------------------------

def raw_entropy_stream(codes, backend=None) -> bytes:
    """An entropy stream without the Huffman stage (flag 0): u64 count, then
    the int64 codes through ``backend`` (zlib by default).  ``EntropyCodec``
    reads this form but never writes it; unlike a Huffman stream it can carry
    negative codes."""
    backend = backend if backend is not None else ZlibBackend()
    codes = np.ascontiguousarray(codes, dtype=np.int64)
    return b"\x00" + np.uint64(codes.size).tobytes() + backend.compress(codes.tobytes())


# ---------------------------------------------------------------------------
# The one swap point
# ---------------------------------------------------------------------------

#: ``(owner, attribute, reference)`` for every production name the swap patches.
SWAPS = (
    (SZ21Compressor, "_encode_blocks", sz21_encode_blocks),
    (sz21, "_lorenzo_decode_blocks", lorenzo_decode_blocks),
    (szinterp, "multilevel_interpolation_encode", multilevel_interpolation_encode),
    (huffman, "_pack_codes", pack_codes),
)


@contextlib.contextmanager
def reference_paths(monkeypatch) -> Iterator[None]:
    """Run the codecs through the reference kernels inside the block; every
    patched name is restored on exit, whatever else ``monkeypatch`` holds."""
    with monkeypatch.context() as patch:
        for owner, name, reference in SWAPS:
            patch.setattr(owner, name, reference)
        yield
