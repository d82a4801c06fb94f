"""Random-access region decode: the N-d chunk grid (format v3) + read_region.

Acceptance (ISSUE 4): ``read_region`` on a 3-d chunked archive decodes only
the intersecting tiles (asserted via a decode counter), empty/degenerate and
cross-boundary regions behave exactly like numpy slicing, negative/strided
slices fail with a clear ``ValueError``, and v2 single-axis archives are
served through the same path.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import Abs, PtwRel, Rel
from repro import api
from repro.api import (
    compress_chunked,
    iter_region_tiles,
    normalize_region,
    parse_region,
    read_region,
)
from repro.cli import main as cli_main
from repro.sources import FileByteSource
from repro.data.loader import create_f32, load_f32, save_f32
from repro.encoding.container import (
    Archive,
    ChunkedIndex,
    GridIndex,
    archive_version,
    build_grid_archive,
    is_grid_archive,
)

EB = 1e-3


@pytest.fixture(scope="module")
def field():
    rng = np.random.default_rng(2027)
    return rng.standard_normal((40, 33, 17)).cumsum(axis=0)


@pytest.fixture(scope="module")
def grid_blob(field):
    # 16/16/8 tiles over (40, 33, 17): a 3x3x3 grid with ragged edge tiles
    # on every axis, so boundary crossings are exercised everywhere.
    return compress_chunked(field, codec="sz21", bound=Rel(EB),
                            chunk_shape=(16, 16, 8))


@pytest.fixture(scope="module")
def full_recon(grid_blob):
    return repro.decompress(grid_blob)


@pytest.fixture()
def decode_counter(monkeypatch):
    """Count v1 tile decodes inside the facade (serial paths)."""
    calls = []
    real = api._decompress_parsed

    def counting(archive, **kwargs):
        calls.append(len(archive.payload))
        return real(archive, **kwargs)

    monkeypatch.setattr(api, "_decompress_parsed", counting)
    return calls


class TestGridContainer:
    def test_version_and_index(self, field, grid_blob):
        assert archive_version(grid_blob) == 3
        assert is_grid_archive(grid_blob)
        index = GridIndex.from_bytes(grid_blob)
        assert index.codec == "sz21"
        assert index.shape == field.shape
        assert index.chunk_shape == (16, 16, 8)
        assert index.grid_shape == (3, 3, 3)
        assert index.n_tiles == 27
        # ragged edge tiles: last tile is the corner remainder
        assert index.tile_shape(0) == (16, 16, 8)
        assert index.tile_shape(26) == (8, 1, 1)
        with pytest.raises(ValueError, match="grid"):
            Archive.from_bytes(grid_blob)
        with pytest.raises(ValueError, match="not a chunked archive"):
            ChunkedIndex.from_bytes(grid_blob)

    def test_read_header_returns_grid_index(self, grid_blob, tmp_path):
        assert isinstance(repro.read_header(grid_blob), GridIndex)
        path = tmp_path / "grid.rpra"
        path.write_bytes(grid_blob)
        header = repro.read_header(str(path))
        assert isinstance(header, GridIndex) and header.n_tiles == 27

    def test_tile_corruption_detected_only_when_read(self, field, grid_blob):
        index = GridIndex.from_bytes(grid_blob)
        flipped = bytearray(grid_blob)
        victim = 26  # the far-corner tile
        flipped[index.data_start + index.offsets[victim] + 7] ^= 0x20
        flipped = bytes(flipped)
        # A region avoiding the victim decodes fine...
        good = read_region(flipped, (slice(0, 16), slice(0, 16), slice(0, 8)))
        assert good.shape == (16, 16, 8)
        # ...but touching it fails loudly.
        with pytest.raises(ValueError, match="corrupt archive"):
            read_region(flipped, (slice(38, 40), slice(32, 33), slice(16, 17)))
        with pytest.raises(ValueError, match="corrupt archive"):
            repro.decompress(flipped)

    def test_builder_validates(self):
        with pytest.raises(ValueError, match="axes"):
            build_grid_archive(codec="sz21", shape=(4, 6), dtype="float64",
                              bound_mode="rel", bound_value=EB,
                              chunk_shape=(2,), tile_blobs=[b"x"])
        with pytest.raises(ValueError, match="needs 6 tiles"):
            build_grid_archive(codec="sz21", shape=(4, 6), dtype="float64",
                              bound_mode="rel", bound_value=EB,
                              chunk_shape=(2, 2), tile_blobs=[b"x"])

    def test_iter_decompressed_chunks_refuses_grid(self, grid_blob):
        with pytest.raises(ValueError, match="iter_region_tiles"):
            list(repro.iter_decompressed_chunks(grid_blob))


class TestCompressGrid:
    def test_full_roundtrip_within_bound(self, field, grid_blob, full_recon):
        vrange = float(field.max() - field.min())
        assert full_recon.shape == field.shape
        assert float(np.max(np.abs(field - full_recon))) <= EB * vrange

    def test_workers_bit_identical(self, field, grid_blob):
        parallel = compress_chunked(field, codec="sz21", bound=Rel(EB),
                                    chunk_shape=(16, 16, 8), workers=2)
        assert parallel == grid_blob

    def test_scalar_and_full_axis_chunk_shape(self, field):
        # bare int applies to every axis; -1/None mean "the full axis"
        a = compress_chunked(field, codec="sz21", bound=Rel(EB), chunk_shape=16)
        b = compress_chunked(field, codec="sz21", bound=Rel(EB),
                             chunk_shape=(16, -1, None))
        assert GridIndex.from_bytes(a).chunk_shape == (16, 16, 16)
        assert GridIndex.from_bytes(b).chunk_shape == (16, 33, 17)

    def test_chunk_shape_overrides_chunk_size(self, field):
        """chunk_shape wins over chunk_size, including the off value 0."""
        a = compress_chunked(field, codec="sz21", bound=Rel(EB),
                             chunk_shape=(16, 16, 8), chunk_size=0)
        b = compress_chunked(field, codec="sz21", bound=Rel(EB),
                             chunk_shape=(16, 16, 8), chunk_size=7)
        assert a == b  # the range pass granularity never changes the bytes

    def test_chunk_shape_validation(self, field):
        with pytest.raises(ValueError, match="axes"):
            compress_chunked(field, codec="sz21", chunk_shape=(16, 16))
        with pytest.raises(ValueError, match="positive tile size"):
            compress_chunked(field, codec="sz21", chunk_shape=(16, 0, 8))
        with pytest.raises(ValueError, match="iterator"):
            compress_chunked(iter([field]), codec="sz21", bound=Abs(0.1),
                             chunk_shape=(16, 16, 8))

    def test_ptwrel_through_grid(self, field):
        positive = np.abs(field) + 0.5
        blob = compress_chunked(positive, codec="sz21", bound=PtwRel(1e-2),
                                chunk_shape=(16, 16, 8))
        piece = read_region(blob, (slice(3, 30), slice(10, 20), slice(2, 16)))
        ref = positive[3:30, 10:20, 2:16]
        assert np.all(np.abs(ref - piece) <= 1e-2 * ref * (1 + 1e-12))

    def test_narrow_dtype_restores_through_tiles(self, field):
        f32 = field.astype(np.float32)
        blob = compress_chunked(f32, codec="sz21", bound=Rel(EB),
                                chunk_shape=(16, 16, 8))
        piece = read_region(blob, (slice(0, 20),))
        assert piece.dtype == np.float32


class TestReadRegion:
    def test_crossing_tile_boundaries_on_every_axis(self, grid_blob, full_recon):
        region = (slice(10, 30), slice(5, 20), slice(3, 12))
        piece = read_region(grid_blob, region)
        assert piece.shape == (20, 15, 9)
        assert np.array_equal(piece, full_recon[region])

    @pytest.mark.parametrize("region", [
        (slice(0, 40), slice(0, 33), slice(0, 17)),  # everything
        (slice(16, 32),),                            # trailing axes default
        (slice(39, 40), slice(32, 33), slice(16, 17)),  # far ragged corner
        (slice(0, 1), slice(0, 1), slice(0, 1)),        # single element
        (5, 7, slice(None)),                            # ints keep their axis
    ])
    def test_matches_numpy_slicing(self, grid_blob, full_recon, region):
        expected = full_recon[tuple(
            slice(e, e + 1) if isinstance(e, int) else e for e in region)]
        piece = read_region(grid_blob, region)
        assert piece.shape == expected.shape
        assert np.array_equal(piece, expected)

    def test_region_string(self, grid_blob, full_recon):
        piece = read_region(grid_blob, "10:30,5:20,3:12")
        assert np.array_equal(piece, full_recon[10:30, 5:20, 3:12])

    def test_empty_and_degenerate_slices(self, grid_blob, decode_counter):
        for region in [(slice(5, 5),), (slice(30, 10),),
                       (slice(0, 40), slice(33, 33)),
                       (slice(100, 200),)]:
            piece = read_region(grid_blob, region)
            assert piece.size == 0
            assert piece.shape == np.empty((40, 33, 17))[region].shape
        assert decode_counter == []  # empty regions decode nothing at all

    def test_out_of_range_clamps_like_numpy(self, grid_blob, full_recon):
        piece = read_region(grid_blob, (slice(35, 99), slice(0, 50)))
        assert np.array_equal(piece, full_recon[35:99, 0:50])

    def test_negative_and_step_slices_rejected(self, grid_blob):
        with pytest.raises(ValueError, match="negative indices"):
            read_region(grid_blob, (slice(-5, None),))
        with pytest.raises(ValueError, match="negative indices"):
            read_region(grid_blob, (slice(0, -2),))
        with pytest.raises(ValueError, match="strided slices"):
            read_region(grid_blob, (slice(0, 10, 2),))
        with pytest.raises(ValueError, match="step must be an integer"):
            read_region(grid_blob, (slice(0, 10, 1.5),))
        with pytest.raises(ValueError, match="axes"):
            read_region(grid_blob, (slice(None),) * 4)
        with pytest.raises(ValueError, match="expected a slice"):
            read_region(grid_blob, ("nope",))

    def test_only_intersecting_tiles_decoded(self, grid_blob, decode_counter):
        """The acceptance assertion: out-of-region tiles are never decoded."""
        index = GridIndex.from_bytes(grid_blob)
        cases = [
            ((slice(0, 16), slice(0, 16), slice(0, 8)), 1),    # one tile
            ((slice(0, 17), slice(0, 16), slice(0, 8)), 2),    # one-row spill
            ((slice(10, 30), slice(5, 20), slice(3, 12)), 8),  # 2x2x2 corner
            ((slice(39, 40), slice(32, 33), slice(16, 17)), 1),
        ]
        for region, expected_tiles in cases:
            decode_counter.clear()
            bounds = normalize_region(region, index.shape)
            assert len(index.region_tiles(bounds)) == expected_tiles
            read_region(grid_blob, region)
            assert len(decode_counter) == expected_tiles, region
        decode_counter.clear()
        repro.decompress(grid_blob)
        assert len(decode_counter) == index.n_tiles  # full decode = all tiles

    def test_path_source_reads_o_region_bytes(self, grid_blob, tmp_path,
                                              full_recon):
        path = tmp_path / "grid.rpra"
        path.write_bytes(grid_blob)
        index = GridIndex.from_bytes(grid_blob)
        reader = FileByteSource(str(path))
        with reader:
            loaded = api.load_index(reader)
            header_bytes = reader.bytes_read
            assert isinstance(loaded, GridIndex)
        region = (slice(0, 16), slice(0, 16), slice(0, 8))
        counted = FileByteSource(str(path))
        piece = read_region(counted, region)
        assert np.array_equal(piece, full_recon[region])
        # The one intersecting tile + the front header are the whole I/O.
        expected_io = header_bytes + index.lengths[0]
        assert counted.bytes_read == expected_io
        assert expected_io < len(grid_blob) // 3  # genuinely sub-linear

    def test_workers_match_serial(self, grid_blob, full_recon):
        region = (slice(10, 30), slice(5, 20), slice(3, 12))
        serial = read_region(grid_blob, region)
        parallel = read_region(grid_blob, region, workers=2)
        assert np.array_equal(serial, parallel)
        assert np.array_equal(serial, full_recon[region])

    def test_out_memmap_gather(self, grid_blob, full_recon, tmp_path):
        region = (slice(10, 30), slice(5, 20), slice(3, 12))
        out = np.memmap(tmp_path / "region.dat", dtype=np.float64, mode="w+",
                        shape=(20, 15, 9))
        result = read_region(grid_blob, region, out=out)
        assert result is out
        assert np.array_equal(np.asarray(out), full_recon[region])
        with pytest.raises(ValueError, match="shape"):
            read_region(grid_blob, region, out=np.empty((3, 3, 3)))

    def test_v2_served_through_read_region(self, field, decode_counter):
        """v2 single-axis archives go through the same read_region path."""
        blob = compress_chunked(field, codec="sz21", bound=Rel(EB),
                                chunk_size=2000)  # axis-0 slabs
        index = ChunkedIndex.from_bytes(blob)
        assert index.n_tiles > 3
        full = repro.decompress(blob)
        decode_counter.clear()
        piece = read_region(blob, (slice(0, 3), slice(5, 20), slice(3, 12)))
        assert np.array_equal(piece, full[0:3, 5:20, 3:12])
        assert len(decode_counter) == 1  # only the first slab decodes

    def test_v1_served_through_read_region(self, field):
        blob = repro.compress(field, codec="sz21", bound=Rel(EB))
        full = repro.decompress(blob)
        piece = read_region(blob, (slice(10, 30), slice(5, 20)))
        assert np.array_equal(piece, full[10:30, 5:20])
        assert read_region(blob, (slice(4, 4),)).size == 0

    def test_0d_archives(self):
        blob = compress_chunked(np.array(3.25), codec="lossless",
                                bound=Abs(1.0), chunk_shape=())
        assert float(repro.decompress(blob)) == 3.25
        assert float(read_region(blob, ())) == 3.25

    def test_iter_region_tiles_streams_cropped_pieces(self, grid_blob,
                                                      full_recon):
        region = (slice(10, 30), slice(5, 20), slice(3, 12))
        gathered = np.full((20, 15, 9), np.nan)
        pieces = 0
        for local, piece in iter_region_tiles(grid_blob, region):
            gathered[local] = piece
            pieces += 1
        assert pieces == 8
        assert np.array_equal(gathered, full_recon[region])


class TestParseRegion:
    def test_forms(self):
        assert parse_region("10:20,:,5") == (slice(10, 20), slice(None),
                                             slice(5, 6))
        assert parse_region(" 1:2 , 3: , :4 ") == (slice(1, 2), slice(3, None),
                                                   slice(None, 4))
        assert parse_region("::") == (slice(None, None, None),)

    def test_errors(self):
        with pytest.raises(ValueError, match="bad region field"):
            parse_region("1:2:3:4")
        with pytest.raises(ValueError, match="integers"):
            parse_region("a:b")
        with pytest.raises(ValueError, match="empty axis"):
            parse_region("1:2,,3:4")


class TestRegionCLI:
    def test_compress_extract_info(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        field = rng.standard_normal((24, 20, 16)).cumsum(axis=0).astype(np.float32)
        src, archive = tmp_path / "in.f32", tmp_path / "out.rpra"
        save_f32(src, field)
        rc = cli_main(["compress", str(src), str(archive),
                       "--dims", "24", "20", "16", "--error-bound", "1e-3",
                       "--compressor", "szinterp", "--chunk-shape", "8", "8", "8"])
        assert rc == 0
        assert "tiles" in capsys.readouterr().out

        rc = cli_main(["info", str(archive)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "RPRA v3" in out and "rel = 0.001" in out
        assert "chunk shape (8, 8, 8)" in out and "18 tiles" in out

        region_file = tmp_path / "region.f32"
        rc = cli_main(["extract", str(archive), str(region_file),
                       "--region", "3:19,2:10,5:13"])
        assert rc == 0
        assert "decoded 12 of 18 tiles" in capsys.readouterr().out
        full = repro.decompress(archive.read_bytes()).astype(np.float32)
        assert np.array_equal(load_f32(region_file, (16, 8, 8)),
                              full[3:19, 2:10, 5:13])

    def test_extract_empty_region_and_errors(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        field = rng.standard_normal((16, 8)).cumsum(axis=0).astype(np.float32)
        src, archive = tmp_path / "in.f32", tmp_path / "out.rpra"
        save_f32(src, field)
        assert cli_main(["compress", str(src), str(archive), "--dims", "16", "8",
                         "--error-bound", "1e-3", "--compressor", "szinterp",
                         "--chunk-shape", "8", "8"]) == 0
        capsys.readouterr()
        empty = tmp_path / "empty.f32"
        assert cli_main(["extract", str(archive), str(empty),
                         "--region", "5:5,:"]) == 0
        assert "empty" in capsys.readouterr().out
        assert empty.stat().st_size == 0
        with pytest.raises(SystemExit, match="strided"):
            cli_main(["extract", str(archive), str(tmp_path / "x.f32"),
                      "--region", "0:8:2,:"])

    def test_info_single_shot_and_v2(self, tmp_path, capsys):
        rng = np.random.default_rng(13)
        field = rng.standard_normal((16, 8)).cumsum(axis=0).astype(np.float32)
        src = tmp_path / "in.f32"
        save_f32(src, field)
        single, chunked = tmp_path / "s.rpra", tmp_path / "c.rpra"
        assert cli_main(["compress", str(src), str(single), "--dims", "16", "8",
                         "--error-bound", "0.02", "--bound-mode", "abs",
                         "--compressor", "sz21"]) == 0
        assert cli_main(["compress", str(src), str(chunked), "--dims", "16", "8",
                         "--error-bound", "1e-3", "--compressor", "sz21",
                         "--chunk-size", "32"]) == 0
        capsys.readouterr()
        assert cli_main(["info", str(single)]) == 0
        out = capsys.readouterr().out
        assert "RPRA v1" in out and "abs = 0.02" in out and "single-shot" in out
        assert cli_main(["info", str(chunked)]) == 0
        out = capsys.readouterr().out
        assert "RPRA v2" in out and "axis 0" in out and "chunks" in out

    def test_info_compare_mode_needs_dims(self, tmp_path):
        a = tmp_path / "a.f32"
        save_f32(a, np.zeros((4, 4), dtype=np.float32))
        with pytest.raises(SystemExit, match="--dims"):
            cli_main(["info", str(a), str(a)])
        with pytest.raises(SystemExit, match="one archive"):
            cli_main(["info", str(a), str(a), str(a)])

    def test_create_f32_memmap(self, tmp_path):
        out = create_f32(tmp_path / "m.f32", (4, 6))
        out[:] = 1.5
        out.flush()
        assert np.array_equal(load_f32(tmp_path / "m.f32", (4, 6)),
                              np.full((4, 6), 1.5, dtype=np.float32))
        with pytest.raises(ValueError, match="empty"):
            create_f32(tmp_path / "e.f32", (0, 6))
