"""One tile protocol, one gather loop: every envelope version through every
read path.

The place/crop/widen policy lives once (``repro.api._place`` / ``_gather``);
this suite drives it through each entry point on a **mixed-width** archive —
a float32 field whose early tiles restore as float32 while a later one must
stay float64 (its values sit near float32 precision at the bound, see
``repro.api._cast_plan``) — so the dtype half of the bit-identity guarantee
is exercised for v1, v2 and v3 alike.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import Abs, api
from repro.encoding.container import Archive
from repro.store import ArchiveStore

EB = 1e-4  # float32 spacing is ~1e-7 near 1 (cast is safe), ~1e-3 near 1e4 (not)


@pytest.fixture(scope="module")
def field():
    x, y = np.meshgrid(np.linspace(0, 3, 32), np.linspace(0, 2, 16), indexing="ij")
    data = np.sin(2 * x) * np.cos(3 * y)
    data[16:] += 1e4
    return data.astype(np.float32)


def _blob(field, version):
    if version == 1:
        return repro.compress(field, codec="sz21", bound=Abs(EB))
    tiling = {2: {"chunk_size": 16 * 16}, 3: {"chunk_shape": (16, 8)}}[version]
    return repro.compress_chunked(field, codec="sz21", bound=Abs(EB), **tiling)


@pytest.fixture(scope="module", params=[1, 2, 3], ids=["v1", "v2", "v3"])
def blob(request, field):
    return _blob(field, request.param)


def _decompress(blob, out):
    return repro.decompress(blob, out=out)


def _read_region(blob, out):
    return repro.read_region(blob, (), out=out)


def _gathered_iter(blob, out):
    result = out if out is not None else np.empty(
        repro.read_header(blob).shape, dtype=np.float64)
    for local, piece in repro.iter_region_tiles(blob, ()):
        result[local] = piece
    return result


def _store_read_region(blob, out):
    with ArchiveStore() as store:
        store.add("k", blob)
        return store.read_region("k", (), out=out)


def _store_read_regions(blob, out):
    with ArchiveStore() as store:
        store.add("k", blob)
        (result,) = store.read_regions("k", [()])
    if out is not None:
        out[...] = result
        return out
    return result


def _store_read_resident(blob, out):
    with ArchiveStore() as store:
        store.add("k", blob)
        store.read_region("k", ())
        result, _ = store.read_resident("k", (), 1 << 30)
    if out is not None:
        out[...] = result
        return out
    return result


ENTRY_POINTS = [_decompress, _read_region, _gathered_iter, _store_read_region,
                _store_read_regions, _store_read_resident]


def test_fixture_archives_are_mixed_width(field):
    """The tiled archives really hold a float32 tile before a float64 one."""
    for version in (2, 3):
        blob = _blob(field, version)
        index = repro.read_header(blob)
        dtypes = [repro.decompress(index.tile_bytes(blob, i)).dtype
                  for i in range(index.n_tiles)]
        assert dtypes[0] == np.float32 and dtypes[-1] == np.float64


@pytest.mark.parametrize("with_out", [False, True], ids=["fresh", "out"])
@pytest.mark.parametrize("read", ENTRY_POINTS, ids=lambda f: f.__name__.strip("_"))
def test_every_path_agrees_on_dtype_and_bits(field, blob, read, with_out):
    reference = repro.decompress(blob)
    out = np.full(field.shape, np.nan) if with_out else None
    result = read(blob, out)
    if with_out:
        assert result is out
    assert result.dtype == reference.dtype == np.float64  # widened, never narrowed
    assert np.array_equal(result.view(np.uint64), reference.view(np.uint64))
    assert float(np.max(np.abs(result - field.astype(np.float64)))) <= EB


@pytest.mark.parametrize("read", [_decompress, _read_region, _store_read_region],
                         ids=lambda f: f.__name__.strip("_"))
def test_float32_out_is_refused(field, blob, read):
    with pytest.raises(ValueError, match="cannot losslessly hold"):
        read(blob, np.empty(field.shape, dtype=np.float32))


def test_single_shot_decompress_adopts_the_decoded_array(field, monkeypatch):
    """A v1 full decode returns the codec's array itself — no whole-field copy."""
    decoded = []
    real = api._decompress_parsed

    def capturing(archive, **kwargs):
        decoded.append(real(archive, **kwargs))
        return decoded[-1]

    monkeypatch.setattr(api, "_decompress_parsed", capturing)
    assert repro.decompress(_blob(field, 1)) is decoded[0]


def test_store_never_hands_out_a_cached_tile(field):
    with ArchiveStore() as store:
        store.add("k", _blob(field, 1))
        first, second = store.read_region("k", ()), store.read_region("k", ())
        assert store.stats()["tile_decodes"] == 1  # second read was cache-warm
        assert first.flags.writeable and not np.shares_memory(first, second)


@pytest.mark.parametrize("data", [np.float64(2.5), np.arange(12.0).reshape(3, 4)],
                         ids=["0d", "2d"])
def test_single_shot_archive_is_one_tile(data):
    blob = repro.compress(np.asarray(data), codec="lossless")
    index = repro.read_header(blob)
    shape = np.shape(data)
    assert isinstance(index, Archive) and index.n_tiles == 1
    assert index.tile_slices(0) == tuple(slice(0, d) for d in shape)
    assert index.tile_shape(0) == shape
    assert index.region_tiles(tuple((0, d) for d in shape)) == [0]
    if shape:
        assert index.region_tiles(((1, 1),) + tuple((0, d) for d in shape[1:])) == []
    assert index.tile_key(0) == (0,) and index.tile_bytes(blob, 0) == blob
    assert index.tile_archive(0, None) is index
    with pytest.raises(IndexError):
        index.tile_key(1)
    assert np.array_equal(repro.read_region(blob, ()), np.asarray(data))
