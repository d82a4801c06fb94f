"""Bit-exactness regression: sz21/szinterp/Huffman vectorized hot paths.

The per-element ``np.ndindex`` loops were replaced by batched hyperplane
passes on both directions (`_lorenzo_decode_blocks` / `_lorenzo_encode_blocks`),
szinterp's per-point reference encoder mirrors its vectorized passes, and the
Huffman encoder's bit-plane loop became one ``repeat``-based extraction.  The
per-element formulations live in ``reference_codecs`` as oracles; these tests
pin every vectorized path to its reference **bit for bit** (uint64 view
comparison or byte equality, not allclose) at the kernel level, the payload
level and the archive level, across dimensionalities, ragged block edges,
constant and extreme-range fields, and all three bound modes.  Payload and
archive comparisons run the codecs twice, once inside
``reference_codecs.reference_paths``.
"""

from __future__ import annotations

import numpy as np
import pytest

import reference_codecs
import repro
from reference_codecs import reference_paths
from repro.bounds import Abs, PtwRel, Rel
from repro.compressors.sz21 import (
    SZ21Compressor,
    _lorenzo_decode_blocks,
    _lorenzo_encode_blocks,
)
from repro.compressors.szinterp import SZInterpCompressor
from repro.encoding.container import ByteContainer
from repro.encoding.entropy import EntropyCodec
from repro.encoding.huffman import HuffmanCodec, _pack_codes
from repro.predictors.interpolation import multilevel_interpolation_encode
from repro.predictors.lorenzo import _batched_lorenzo_predict, lorenzo_predict
from repro.predictors.regression import (
    LinearRegressionPredictor,
    RegressionCoefficients,
    _design_matrix,
    hyperplanes,
)
from repro.quantization.linear import UNPREDICTABLE_CODE

# The extreme-range cases once overflowed a float -> int64 cast in the
# quantizer (rescued only by the later bound check); keep it an error.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


@pytest.mark.parametrize("shape,num_bins", [
    ((16,), 65536), ((16,), 8),          # 1-d, none/many unpredictables
    ((16, 16), 65536), ((16, 16), 8),    # 2-d
    ((8, 8, 8), 65536), ((8, 8, 8), 8),  # 3-d
    ((5,), 16), ((3, 7), 16), ((2, 3, 5), 16), ((1, 1), 16), ((1, 1, 1), 65536),
])
def test_block_decode_bit_exact(shape, num_bins):
    rng = np.random.default_rng(sum(shape) * num_bins % 997)
    error_bound = 0.01
    blocks = [rng.standard_normal(shape).cumsum(axis=0) * scale
              for scale in (1.0, 3.0, 0.25, 10.0)]
    encoded = [reference_codecs.sequential_lorenzo_encode(b, error_bound, num_bins)
               for b in blocks]
    codes = np.stack([e[0] for e in encoded])
    is_unp = codes == UNPREDICTABLE_CODE
    uvals = np.zeros(codes.shape, dtype=np.float64)
    if is_unp.any():
        uvals[is_unp] = np.concatenate([np.asarray(e[1], dtype=np.float64)
                                        for e in encoded])
    vectorized = _lorenzo_decode_blocks(codes, uvals, is_unp, error_bound, num_bins)
    reference = np.stack([
        reference_codecs.sequential_lorenzo_decode(e[0], np.asarray(e[1]), error_bound,
                                                   num_bins)
        for e in encoded])
    assert _bitwise_equal(vectorized, reference)


@pytest.mark.parametrize("shape", [(200,), (96, 128), (33, 17), (24, 24, 24),
                                   (7, 11, 13)])
def test_payload_decode_bit_exact(shape, monkeypatch):
    """Full pipeline: vectorized decompress == reference decompress, bit for
    bit, on payloads mixing Lorenzo and regression blocks."""
    rng = np.random.default_rng(len(shape))
    data = rng.standard_normal(shape).cumsum(axis=0)
    comp = SZ21Compressor()
    payload = comp.compress(data, 1e-3)
    fast = comp.decompress(payload)
    with reference_paths(monkeypatch):
        slow = comp.decompress(payload)
    assert _bitwise_equal(fast, slow)
    vrange = float(data.max() - data.min())
    assert float(np.max(np.abs(data - fast))) <= 1e-3 * vrange


def test_payload_decode_bit_exact_many_unpredictables(monkeypatch):
    """Tiny bin count forces the unpredictable path everywhere."""
    rng = np.random.default_rng(99)
    data = rng.standard_normal((40, 40)).cumsum(axis=0)
    comp = SZ21Compressor(num_bins=4)
    payload = comp.compress(data, 1e-4)
    with reference_paths(monkeypatch):
        slow = comp.decompress(payload)
    assert _bitwise_equal(comp.decompress(payload), slow)


def test_stream_size_mismatch_raises():
    comp = SZ21Compressor()
    data = np.random.default_rng(0).standard_normal((32, 32)).cumsum(axis=0)
    payload = comp.compress(data, 1e-3)
    container = ByteContainer.from_bytes(payload)
    # Drop one flag symbol: flags/codes no longer match the grid.
    flags = comp._entropy.decode(container["flags"])
    container["flags"] = comp._entropy.encode(flags[:-1])
    with pytest.raises(ValueError, match="corrupt"):
        comp.decompress(container.to_bytes())


def test_unknown_predictor_flag_raises():
    """A flag outside {lorenzo, regression} must raise, not silently decode
    the block as zeros."""
    comp = SZ21Compressor()
    data = np.random.default_rng(1).standard_normal((32, 32)).cumsum(axis=0)
    payload = comp.compress(data, 1e-3)
    container = ByteContainer.from_bytes(payload)
    flags = comp._entropy.decode(container["flags"])
    flags[0] = 7
    container["flags"] = comp._entropy.encode(flags)
    with pytest.raises(ValueError, match="unknown block predictor flag"):
        comp.decompress(container.to_bytes())


def test_truncated_coefficient_stream_raises():
    comp = SZ21Compressor()
    rng = np.random.default_rng(2)
    # locally-linear field: the regression predictor wins on most blocks
    data = (np.add.outer(np.linspace(0, 10, 64), np.linspace(0, 5, 64))
            + 0.01 * rng.standard_normal((64, 64)))
    payload = comp.compress(data, 1e-3)
    container = ByteContainer.from_bytes(payload)
    assert "coefs" in container, "field must select some regression blocks"
    coefs = np.frombuffer(comp._entropy.backend.decompress(container["coefs"]), dtype=np.float64)
    container["coefs"] = comp._entropy.backend.compress(coefs[:-1].tobytes())
    with pytest.raises(ValueError, match="corrupt payload: regression coefficient"):
        comp.decompress(container.to_bytes())


@pytest.mark.parametrize("section", ["unpred", "coefs"])
def test_ragged_float64_section_raises(section):
    """A float64 section whose length is not a multiple of 8 is corrupt, not
    a numpy buffer error."""
    comp = SZ21Compressor(num_bins=16)
    data = (np.add.outer(np.linspace(0, 10, 64), np.linspace(0, 5, 64))
            + 0.01 * np.random.default_rng(2).standard_normal((64, 64)))
    container = ByteContainer.from_bytes(comp.compress(data, 1e-4))
    container[section] = comp._entropy.backend.compress(
        comp._entropy.backend.decompress(container[section]) + b"\x00" * 3)
    with pytest.raises(ValueError, match="corrupt payload: float64 section length"):
        comp.decompress(container.to_bytes())


@pytest.mark.parametrize("shape", [(16,), (16, 16), (8, 8, 8), (5,), (6, 9), (4, 3, 5)])
def test_batched_hyperplanes_equal_per_block_prediction_bit_for_bit(shape):
    """The decoder predicts all regression blocks with one batched
    ``hyperplanes`` call; each row must equal the per-block ``design @ coef``
    product the golden archives were written with, and ``predict``."""
    rng = np.random.default_rng(len(shape) * 100 + sum(shape))
    rows = rng.normal(size=(300, len(shape) + 1)) * 10.0 ** rng.integers(-6, 7, size=(300, 1))
    rows[::3] = np.rint(rows[::3] / 1e-4) * 1e-4  # quantized rows, as the encoder stores
    batched = hyperplanes(shape, rows)
    design = _design_matrix(shape)
    for row, pred in zip(rows, batched):
        assert _bitwise_equal(pred, (design @ row).reshape(shape))
        assert _bitwise_equal(pred, LinearRegressionPredictor().predict(
            shape, RegressionCoefficients(row)))
    assert _bitwise_equal(hyperplanes(shape, rows[7]), batched[7:8])


def _recoded(comp, payload: bytes, section: str, edit) -> bytes:
    """``payload`` with one section decoded, passed through ``edit`` and
    re-encoded, so only the stream contents are damaged, not the framing.
    Integer sections are re-encoded as raw entropy streams, which (unlike
    Huffman ones) can carry negative codes."""
    container = ByteContainer.from_bytes(payload)
    if section == "unpred":
        values = np.frombuffer(comp._entropy.backend.decompress(container[section]),
                               dtype=np.float64)
        container[section] = comp._entropy.backend.compress(edit(values.copy()).tobytes())
    else:
        raw = EntropyCodec(backend=comp._entropy.backend, use_huffman=False)
        container[section] = raw.encode(edit(comp._entropy.decode(container[section])))
    return container.to_bytes()


def _set_first(value: int):
    def edit(codes: np.ndarray) -> np.ndarray:
        codes[0] = value
        return codes
    return edit


@pytest.mark.parametrize("value", [10**12, 65536, -1])
def test_sz21_code_out_of_range_raises(value):
    """The encoder emits codes in ``[0, num_bins)`` only; any other code must
    raise, not dequantize into wrong values."""
    comp = SZ21Compressor()
    data = np.random.default_rng(3).standard_normal((32, 32)).cumsum(axis=0)
    payload = _recoded(comp, comp.compress(data, 1e-3), "codes", _set_first(value))
    with pytest.raises(ValueError, match="corrupt payload: quantization code out of range"):
        comp.decompress(payload)


@pytest.mark.parametrize("section,edit,message", [
    ("unpred", lambda v: np.append(v, 1.0), "unpredictable-value stream"),
    ("unpred", lambda v: v[:-1], "unpredictable-value stream"),
    ("codes", lambda c: c[:-3], "code stream size"),
    ("anchors", lambda a: a[:-1], "code stream size"),
], ids=["extra_literal", "short_literals", "short_codes", "short_anchors"])
def test_szinterp_stream_size_mismatch_raises(section, edit, message):
    """Every szinterp stream is sized by the shape: one literal too many must
    not decode silently, and short streams must not surface as numpy errors."""
    comp = SZInterpCompressor(num_bins=4)
    data = np.random.default_rng(4).standard_normal((20, 12)).cumsum(axis=0)
    payload = _recoded(comp, comp.compress(data, 1e-4), section, edit)
    with pytest.raises(ValueError, match=f"corrupt payload: {message}"):
        comp.decompress(payload)


@pytest.mark.parametrize("value", [10**12, 65536, -1])
def test_szinterp_code_out_of_range_raises(value):
    comp = SZInterpCompressor()
    data = np.random.default_rng(5).standard_normal((20, 12)).cumsum(axis=0)
    payload = _recoded(comp, comp.compress(data, 1e-3), "codes", _set_first(value))
    with pytest.raises(ValueError, match="corrupt payload: quantization code out of range"):
        comp.decompress(payload)


# ---------------------------------------------------------------------------
# Encode side: vectorized sz21 encode vs the per-block reference
# ---------------------------------------------------------------------------

def _field(shape, kind: str, rng: np.random.Generator) -> np.ndarray:
    """Test fields spanning the encoder's regimes."""
    if kind == "smooth":  # Lorenzo-friendly: cumsum of white noise
        return rng.standard_normal(shape).cumsum(axis=0)
    if kind == "linear":  # regression-friendly: a noisy hyperplane
        out = np.zeros(shape)
        for axis, n in enumerate(shape):
            ramp = np.linspace(0.0, 3.0 * (axis + 1), n)
            out = out + ramp.reshape([-1 if a == axis else 1
                                      for a in range(len(shape))])
        return out + 0.01 * rng.standard_normal(shape)
    if kind == "noise":  # unpredictable-heavy
        return rng.standard_normal(shape) * 1e6
    if kind == "constant":
        return np.full(shape, -2.625)
    if kind == "extreme":  # magnitudes at the edge of the float64 range
        return rng.standard_normal(shape) * 1e154
    raise AssertionError(kind)


@pytest.mark.parametrize("shape,num_bins", [
    ((16,), 65536), ((16,), 8),
    ((16, 16), 65536), ((16, 16), 8),
    ((8, 8, 8), 65536), ((8, 8, 8), 8),
    ((5,), 16), ((3, 7), 16), ((2, 3, 5), 16), ((1, 1), 16), ((1, 1, 1), 65536),
])
def test_block_encode_bit_exact(shape, num_bins):
    """`_lorenzo_encode_blocks` == the sequential scan: codes, reconstruction
    and the unpredictable-literal stream, bit for bit."""
    rng = np.random.default_rng(sum(shape) * num_bins % 991)
    error_bound = 0.01
    blocks = np.stack([rng.standard_normal(shape).cumsum(axis=0) * scale
                       for scale in (1.0, 3.0, 0.25, 10.0)])
    codes_vec, recon_vec = _lorenzo_encode_blocks(blocks, error_bound, num_bins)
    ref = [reference_codecs.sequential_lorenzo_encode(b, error_bound, num_bins)
           for b in blocks]
    assert np.array_equal(codes_vec, np.stack([r[0] for r in ref]))
    assert _bitwise_equal(recon_vec, np.stack([r[2] for r in ref]))
    # Literal extraction in C order equals the reference per-block append order.
    lit_vec = recon_vec[codes_vec == UNPREDICTABLE_CODE]
    lit_ref = np.asarray([v for r in ref for v in r[1]], dtype=np.float64)
    assert _bitwise_equal(lit_vec, lit_ref)


def test_batched_lorenzo_predict_bit_exact():
    rng = np.random.default_rng(17)
    for shape in [(16,), (16, 16), (8, 8, 8), (1, 1), (3, 5, 7)]:
        batch = rng.standard_normal((6,) + shape).cumsum(axis=0)
        ref = np.stack([lorenzo_predict(b) for b in batch])
        assert _bitwise_equal(_batched_lorenzo_predict(batch), ref)


@pytest.mark.parametrize("shape", [
    (200,), (96, 128), (33, 17),   # ragged 2-d edges (block size 16)
    (24, 24, 24), (7, 11, 13),     # ragged 3-d edges (block size 8)
    (1,), (1, 1), (1, 1, 1),
])
@pytest.mark.parametrize("kind", ["smooth", "linear", "noise", "constant", "extreme"])
def test_payload_encode_byte_identical(shape, kind, monkeypatch):
    """`compress()` == `compress()` under `reference_paths` byte for byte: the
    reference path is the pre-vectorization encoder verbatim, so this also
    pins the archive format against drift."""
    rng = np.random.default_rng(abs(hash((shape, kind))) % (2**32))
    data = _field(shape, kind, rng)
    comp = SZ21Compressor()
    fast = comp.compress(data, 1e-3)
    with reference_paths(monkeypatch):
        slow = comp.compress(data, 1e-3)
    assert fast == slow
    recon = comp.decompress(fast)
    vrange = float(data.max() - data.min())
    bound = 1e-3 * (vrange if vrange > 0 else 1.0)
    assert float(np.max(np.abs(data - recon))) <= bound


def test_payload_encode_byte_identical_many_unpredictables(monkeypatch):
    rng = np.random.default_rng(7)
    data = rng.standard_normal((40, 40)).cumsum(axis=0)
    comp = SZ21Compressor(num_bins=4)
    with reference_paths(monkeypatch):
        slow = comp.compress(data, 1e-4)
    assert comp.compress(data, 1e-4) == slow


@pytest.mark.parametrize("codec", ["sz21", "szinterp"])
@pytest.mark.parametrize("mode", ["rel", "abs", "ptw_rel"])
def test_archive_byte_identical_all_bound_modes(codec, mode, monkeypatch):
    """Facade-level archives: vectorized == reference bytes under every bound
    mode."""
    rng = np.random.default_rng(13)
    data = rng.standard_normal((12, 16)).cumsum(axis=0)
    if mode == "ptw_rel":
        data = np.abs(data) + 0.25
    bound = {"rel": Rel(1e-3), "abs": Abs(1e-2), "ptw_rel": PtwRel(1e-3)}[mode]
    fast = repro.compress(data, codec, bound)
    with reference_paths(monkeypatch):
        slow = repro.compress(data, codec, bound)
    assert fast == slow
    assert _bitwise_equal(repro.decompress(fast), repro.decompress(slow))


# ---------------------------------------------------------------------------
# Encode side: vectorized szinterp encode vs the per-point reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [
    (1,), (7,), (65,), (130,),            # 1-d across anchor-stride regimes
    (1, 1), (12, 16), (33, 17),           # 2-d, ragged
    (1, 1, 1), (6, 7, 8), (16, 16, 16),   # 3-d
])
@pytest.mark.parametrize("kind", ["smooth", "noise", "constant"])
def test_szinterp_encoding_bit_exact(shape, kind):
    """Vectorized multilevel encode == the per-point reference on
    every stream: anchors, codes, literals and reconstruction."""
    rng = np.random.default_rng(abs(hash((shape, kind, "szi"))) % (2**32))
    data = _field(shape, kind, rng)
    eb = 1e-3 * max(float(data.max() - data.min()), 1.0)
    fast = multilevel_interpolation_encode(data, eb)
    slow = reference_codecs.multilevel_interpolation_encode(data, eb)
    assert np.array_equal(fast.anchor_codes, slow.anchor_codes)
    assert np.array_equal(fast.codes, slow.codes)
    assert _bitwise_equal(fast.unpredictable, slow.unpredictable)
    assert _bitwise_equal(fast.reconstructed, slow.reconstructed)


@pytest.mark.parametrize("shape", [(130,), (33, 17), (9, 10, 11)])
def test_szinterp_payload_byte_identical(shape, monkeypatch):
    rng = np.random.default_rng(len(shape) + 40)
    data = rng.standard_normal(shape).cumsum(axis=0)
    comp = SZInterpCompressor()
    fast = comp.compress(data, 1e-3)
    with reference_paths(monkeypatch):
        assert fast == comp.compress(data, 1e-3)
    recon = comp.decompress(fast)
    vrange = float(data.max() - data.min())
    assert float(np.max(np.abs(data - recon))) <= 1e-3 * vrange


def test_szinterp_many_unpredictables_byte_identical(monkeypatch):
    rng = np.random.default_rng(41)
    data = rng.standard_normal((30, 30)) * 1e5
    comp = SZInterpCompressor(num_bins=4)
    fast = comp.compress(data, 1e-6)
    with reference_paths(monkeypatch):
        assert fast == comp.compress(data, 1e-6)


# ---------------------------------------------------------------------------
# Encode side: vectorized Huffman bit packing vs the bit-serial reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_huffman_encode_stream_bytes_identical(seed, monkeypatch):
    codec = HuffmanCodec()
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 50_000))
    alphabet = int(rng.integers(2, 3000))
    symbols = (rng.zipf(1.5, size=n) % alphabet).astype(np.int64)
    fast = codec.encode(symbols)
    with reference_paths(monkeypatch):
        assert fast == codec.encode(symbols)
    assert np.array_equal(codec.decode(fast), symbols)


@pytest.mark.parametrize("symbols", [
    np.zeros(0, dtype=np.int64),                      # empty stream
    np.full(1000, 7, dtype=np.int64),                 # degenerate: one symbol
    np.array([0, 1], dtype=np.int64),                 # minimal alphabet
    np.array([0, 2**40, 2**62, 0, 2**40] * 3, dtype=np.int64),  # wide symbols
])
def test_huffman_encode_edge_streams_identical(symbols, monkeypatch):
    codec = HuffmanCodec()
    fast = codec.encode(symbols)
    with reference_paths(monkeypatch):
        assert fast == codec.encode(symbols)
    assert np.array_equal(codec.decode(fast), symbols)


def test_huffman_pack_codes_matches_scalar_packer():
    """The packer kernels agree on raw (codes, lengths) streams, including
    chunk-boundary crossings at many lengths."""
    rng = np.random.default_rng(123)
    for _ in range(8):
        n = int(rng.integers(1, 5000))
        lens = rng.integers(1, 57, size=n).astype(np.int64)
        codes = np.array([int(rng.integers(0, 1 << int(l))) for l in lens],
                         dtype=np.uint64)
        assert _pack_codes(codes, lens) == reference_codecs.pack_codes(codes, lens)


# ---------------------------------------------------------------------------
# The swap itself
# ---------------------------------------------------------------------------

def test_reference_paths_swaps_and_restores(monkeypatch):
    """Inside ``reference_paths`` every production name is its reference;
    after it, the ``src/`` original again.  Without this, a codec importing
    its kernel under another name would make the byte-identity suite compare
    the vectorized path with itself."""
    originals = [(owner, name, getattr(owner, name))
                 for owner, name, _ in reference_codecs.SWAPS]
    with reference_paths(monkeypatch):
        for owner, name, reference in reference_codecs.SWAPS:
            assert getattr(owner, name) is reference, name
    for owner, name, original in originals:
        assert getattr(owner, name) is original, name
    assert {(owner.__name__, name) for owner, name, _ in reference_codecs.SWAPS} == {
        ("SZ21Compressor", "_encode_blocks"),
        ("repro.compressors.sz21", "_lorenzo_decode_blocks"),
        ("repro.compressors.szinterp", "multilevel_interpolation_encode"),
        ("repro.encoding.huffman", "_pack_codes"),
    }
