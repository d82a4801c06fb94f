"""Property-based roundtrip fuzzing of the facade across the whole codec matrix.

A seeded generator sweeps dtype x shape (0-d/1-d/2-d/3-d, odd sizes,
non-contiguous views) x bound mode x every registered codec, asserting on
every draw that

* ``repro.decompress(repro.compress(x))`` satisfies the requested bound
  (``Rel``/``Abs``/``PtwRel`` each checked against their own inequality, the
  documented constant-field fallback included),
* the archive header is consistent (codec id, shape, dtype, bound record),
* exact codecs reconstruct bit-for-bit, and
* chunked archives obey the same bound as single-shot ones.

The sweep is deterministic: the seed defaults to a fixed value and can be
overridden with ``REPRO_PROPERTY_SEED`` for exploratory fuzzing; a failing
draw is fully reproducible from the parametrized case id.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro
from reference_codecs import reference_paths
from repro import Abs, PtwRel, Rel
from repro.api import compress_chunked
from repro.registry import available_compressors, compressor_spec

PROPERTY_SEED = int(os.environ.get("REPRO_PROPERTY_SEED", "20260730"))
N_DRAWS = 8  # per constructible codec
N_MODEL_DRAWS = 2  # per model-backed codec (training fixture is expensive)

CONSTRUCTIBLE = ("sz21", "zfp", "szauto", "szinterp", "lossless")

MAX_SIDE = {1: (65,), 2: (25, 25), 3: (11, 11, 11)}


def _draw_array(rng: np.random.Generator, ndim_choices=(0, 1, 2, 3)):
    """One random field: dtype, shape (odd sizes common) and memory layout."""
    ndim = int(rng.choice(ndim_choices))
    if ndim == 0:
        shape = ()
    else:
        caps = MAX_SIDE[ndim]
        shape = tuple(int(2 * rng.integers(0, cap // 2) + 1) for cap in caps)
    dtype = np.dtype(str(rng.choice(["float64", "float64", "float32", "float16"])))
    kind = rng.choice(["smooth", "uniform", "constant"], p=[0.6, 0.3, 0.1])
    if kind == "smooth":
        base = rng.standard_normal(shape)
        data = base.cumsum(axis=0) if ndim else base
    elif kind == "uniform":
        data = rng.uniform(-10, 10, size=shape)
    else:
        data = np.full(shape, float(rng.uniform(-5, 5)))
    data = data.astype(dtype)
    layout = rng.choice(["contig", "sliced", "transposed"])
    if layout == "sliced" and ndim >= 1 and shape[0] >= 3:
        big = np.repeat(data, 2, axis=0)
        data = big[::2]  # same values, non-contiguous
    elif layout == "transposed" and ndim >= 2:
        data = data.swapaxes(0, -1).swapaxes(0, -1)  # no-op pair keeps values
        data = np.asfortranarray(data)
    return data


def _draw_bound(rng: np.random.Generator, data: np.ndarray):
    mode = rng.choice(["rel", "rel", "abs", "ptw_rel"])
    eps = float(rng.choice([1e-2, 1e-3, 1e-4]))
    if mode == "rel":
        return Rel(eps)
    if mode == "abs":
        data64 = np.asarray(data, dtype=np.float64)
        vrange = float(data64.max() - data64.min()) if data.size else 1.0
        return Abs(eps * vrange if vrange > 0 else eps)
    return PtwRel(max(eps, 1e-3))  # very tight ptw bounds explode lossless size


def _assert_bound(data: np.ndarray, recon: np.ndarray, bound, codec: str) -> None:
    """The inequality each bound mode promises (with the documented
    constant-field fallback for ``Rel`` and a 1e-12 relative slack for the
    final float comparison)."""
    data64 = np.asarray(data, dtype=np.float64)
    recon64 = np.asarray(recon, dtype=np.float64)
    slack = 1 + 1e-12
    if bound.mode == "rel":
        vrange = float(data64.max() - data64.min())
        limit = bound.value * vrange if vrange > 0 else bound.value
        err = float(np.max(np.abs(data64 - recon64))) if data.size else 0.0
        assert err <= limit * slack, (codec, bound, err, limit)
    elif bound.mode == "abs":
        err = float(np.max(np.abs(data64 - recon64))) if data.size else 0.0
        assert err <= bound.value * slack, (codec, bound, err)
    else:  # ptw_rel
        limit = bound.value * np.abs(data64) * slack
        assert np.all(np.abs(data64 - recon64) <= limit), (codec, bound)
        zeros = data64 == 0
        assert np.all(recon64[zeros] == 0.0), (codec, "zeros must be exact")


def _assert_header(blob: bytes, data: np.ndarray, bound, codec_name: str) -> None:
    header = repro.read_header(blob)
    assert header.codec == codec_name
    assert header.shape == tuple(data.shape)
    assert header.dtype == str(data.dtype)
    assert header.bound_mode == bound.mode
    assert header.bound_value == bound.value


@pytest.mark.parametrize("codec", CONSTRUCTIBLE)
@pytest.mark.parametrize("draw", range(N_DRAWS))
def test_roundtrip_property(codec, draw):
    codec_key = sum(codec.encode())  # stable across processes, unlike hash()
    rng = np.random.default_rng([PROPERTY_SEED, codec_key, draw])
    data = _draw_array(rng)
    bound = _draw_bound(rng, data)
    spec = compressor_spec(codec)
    blob = repro.compress(data, codec=codec, bound=bound)
    recon = repro.decompress(blob)
    assert recon.shape == data.shape
    _assert_header(blob, data, bound, codec)
    _assert_bound(data, recon, bound, codec)
    if spec.exact and bound.mode != "ptw_rel":
        assert np.array_equal(np.asarray(data), recon), codec


@pytest.mark.parametrize("codec", ["sz21", "szinterp"])
@pytest.mark.parametrize("draw", range(N_DRAWS))
def test_vectorized_encode_archive_equality_property(codec, draw, monkeypatch):
    """Invariant crossing the vectorized encode paths: for any drawn field,
    shape and bound, the vectorized encoder's archive is byte-identical to
    the per-element reference encoder's, and decoding it through the
    reference paths gives the same field (``reference_paths``)."""
    codec_key = sum(codec.encode())  # stable across processes, unlike hash()
    rng = np.random.default_rng([PROPERTY_SEED, 0xE, codec_key, draw])
    data = _draw_array(rng, ndim_choices=(1, 2, 3))
    bound = _draw_bound(rng, data)
    fast = repro.compress(data, codec=codec, bound=bound)
    with reference_paths(monkeypatch):
        slow = repro.compress(data, codec=codec, bound=bound)
        recon_slow = repro.decompress(slow)
    assert fast == slow, (codec, data.shape, bound)
    recon_fast = repro.decompress(fast)
    assert np.array_equal(recon_fast, recon_slow, equal_nan=True), codec
    _assert_bound(data, recon_fast, bound, codec)


@pytest.mark.parametrize("draw", range(N_DRAWS))
def test_chunked_roundtrip_property(draw):
    """Chunked archives obey the same bound and header contract (serial: the
    worker-pool path is covered once in test_chunked.py — spawning pools per
    draw would dominate the suite's runtime)."""
    rng = np.random.default_rng([PROPERTY_SEED, 0xC, draw])
    data = _draw_array(rng, ndim_choices=(1, 2, 3))
    bound = _draw_bound(rng, data)
    codec = str(rng.choice(["sz21", "szinterp", "zfp"]))
    chunk_size = int(rng.integers(1, max(2, data.size)))
    blob = compress_chunked(data, codec=codec, bound=bound, chunk_size=chunk_size)
    recon = repro.decompress(blob)
    assert recon.shape == data.shape
    header = repro.read_header(blob)
    assert header.codec == codec
    assert header.shape == tuple(data.shape)
    assert header.dtype == str(data.dtype)
    assert (header.bound_mode, header.bound_value) == (bound.mode, bound.value)
    assert header.starts[0] == 0 and header.starts[-1] == data.shape[0]
    _assert_bound(data, recon, bound, codec)


@pytest.mark.parametrize("draw", range(N_MODEL_DRAWS))
def test_model_backed_codecs_property(draw, trained_aesz_2d):
    """Model-backed codecs join the sweep on 2-d fields (their native shape)."""
    from repro.compressors import AEACompressor, AEBCompressor

    rng = np.random.default_rng([PROPERTY_SEED, 0xA, draw])
    shape = tuple(int(2 * rng.integers(8, 20) + 1) for _ in range(2))
    data = rng.standard_normal(shape).cumsum(axis=0)
    eps = 0.05

    for name, inst in [("aesz", trained_aesz_2d),
                       ("ae_a", AEACompressor(segment_length=512, seed=draw)),
                       ("ae_b", AEBCompressor(block_size=8, ndim=2, seed=draw))]:
        blob = repro.compress(data, codec=inst, bound=Rel(eps))
        recon = repro.decompress(blob)
        assert recon.shape == data.shape, name
        header = repro.read_header(blob)
        assert header.codec == name
        assert header.shape == shape
        if compressor_spec(name).error_bounded:
            _assert_bound(data, recon, Rel(eps), name)
        else:
            assert np.all(np.isfinite(recon)), name


def test_every_registered_codec_is_covered():
    """The sweep must grow when a new codec is registered."""
    covered = set(CONSTRUCTIBLE) | {"aesz", "ae_a", "ae_b"}
    assert covered == set(available_compressors())
