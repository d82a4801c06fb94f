"""Tests for the chunked out-of-core pipeline: container, facade, CLI.

Acceptance (ISSUE 3): a field streamed through ``compress_chunked`` with
``workers=2`` decompresses within the requested error bound and is
bit-identical to the serial chunked output.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import Abs, PtwRel, Rel
from repro.api import compress_chunked, iter_decompressed_chunks
from repro.cli import main as cli_main
from repro.data.loader import map_f32, save_f32
from repro.encoding.container import (
    Archive,
    ChunkedIndex,
    archive_version,
    build_chunked_archive,
    is_archive,
)
from repro.utils.parallel import parallel_imap

EB = 1e-3


@pytest.fixture(scope="module")
def field():
    rng = np.random.default_rng(2026)
    return rng.standard_normal((96, 40)).cumsum(axis=0)


@pytest.fixture(scope="module")
def serial_blob(field):
    return compress_chunked(field, codec="sz21", bound=Rel(EB), chunk_size=800)


class TestParallelImap:
    def test_serial_is_lazy_and_ordered(self):
        seen = []

        def items():
            for i in range(5):
                seen.append(i)
                yield i

        gen = parallel_imap(lambda x: x * x, items())
        assert next(gen) == 0
        assert seen == [0]  # input consumed lazily, one item per result
        assert list(gen) == [1, 4, 9, 16]

    def test_parallel_preserves_order(self):
        result = list(parallel_imap(_square, range(20), workers=2, max_pending=3))
        assert result == [x * x for x in range(20)]

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="boom 3"):
            list(parallel_imap(_explode_on_3, range(8), workers=2))


class TestChunkedContainer:
    def test_version_dispatch(self, field, serial_blob):
        single = repro.compress(field, codec="sz21", bound=Rel(EB))
        assert archive_version(single) == 1
        assert archive_version(serial_blob) == 2
        assert is_archive(serial_blob) and is_archive(single)
        with pytest.raises(ValueError, match="chunked"):
            Archive.from_bytes(serial_blob)
        with pytest.raises(ValueError, match="not a chunked archive"):
            ChunkedIndex.from_bytes(single)

    def test_index_table(self, field, serial_blob):
        index = ChunkedIndex.from_bytes(serial_blob)
        assert index.codec == "sz21"
        assert index.shape == field.shape
        assert index.n_tiles == 5  # 96 rows, 20 rows (800 elems) per chunk
        assert index.starts[0] == 0 and index.starts[-1] == field.shape[0]
        assert index.tile_shape(0) == (20, 40)
        assert index.tile_shape(4) == (16, 40)
        # bound record is the *user's* request; chunks carry the derived Abs
        assert index.bound_mode == "rel" and index.bound_value == EB
        assert "chunked" in index.meta

    def test_chunks_decode_independently_and_out_of_order(self, field, serial_blob):
        index = ChunkedIndex.from_bytes(serial_blob)
        vrange = float(field.max() - field.min())
        for i in reversed(range(index.n_tiles)):
            chunk_blob = index.tile_bytes(serial_blob, i)
            archive = Archive.from_bytes(chunk_blob)
            assert archive.bound_mode == "abs"  # global range pass, per-chunk Abs
            recon = repro.decompress(chunk_blob)
            slab = field[index.tile_slices(i)]
            assert recon.shape == slab.shape
            assert float(np.max(np.abs(slab - recon))) <= EB * vrange

    def test_chunk_corruption_detected(self, serial_blob):
        index = ChunkedIndex.from_bytes(serial_blob)
        flipped = bytearray(serial_blob)
        flipped[index.data_start + index.offsets[2] + index.lengths[2] // 2] ^= 0x40
        with pytest.raises(ValueError, match="corrupt archive"):
            repro.decompress(bytes(flipped))

    def test_truncation_detected(self, serial_blob):
        with pytest.raises(ValueError, match="corrupt archive"):
            ChunkedIndex.from_bytes(serial_blob[:-3])
        with pytest.raises(ValueError, match="corrupt archive"):
            ChunkedIndex.from_bytes(serial_blob + b"\x00")

    def test_nonzero_axis_rejected(self):
        blob = build_chunked_archive(codec="sz21", shape=(4, 6), dtype="float64",
                                     bound_mode="rel", bound_value=EB, axis=1,
                                     starts=[0, 3, 6], chunk_blobs=[b"x", b"y"])
        with pytest.raises(ValueError, match="unsupported chunk axis"):
            ChunkedIndex.from_bytes(blob)

    def test_builder_validates(self):
        with pytest.raises(ValueError, match="at least one chunk"):
            build_chunked_archive(codec="sz21", shape=(4,), dtype="float64",
                                  bound_mode="rel", bound_value=EB, axis=0,
                                  starts=[0], chunk_blobs=[])


class TestChunkedFacade:
    def test_bound_matches_single_shot_rel(self, field, serial_blob):
        """The chunked guarantee is the single-shot one: one global range
        pass fixes the absolute bound for every chunk."""
        vrange = float(field.max() - field.min())
        recon = repro.decompress(serial_blob)
        assert float(np.max(np.abs(field - recon))) <= EB * vrange

    def test_workers2_bit_identical_and_bounded(self, field, serial_blob):
        parallel_blob = compress_chunked(field, codec="sz21", bound=Rel(EB),
                                         chunk_size=800, workers=2)
        assert parallel_blob == serial_blob  # bit-identical to serial output
        recon = repro.decompress(parallel_blob, workers=2)
        vrange = float(field.max() - field.min())
        assert float(np.max(np.abs(field - recon))) <= EB * vrange
        assert np.array_equal(recon, repro.decompress(serial_blob))

    def test_abs_and_ptwrel_pass_through(self, field):
        blob = compress_chunked(field, codec="szinterp", bound=Abs(0.02),
                                chunk_size=640)
        assert float(np.max(np.abs(field - repro.decompress(blob)))) <= 0.02
        positive = np.abs(field) + 0.5
        blob = compress_chunked(positive, codec="sz21", bound=PtwRel(1e-2),
                                chunk_size=640)
        recon = repro.decompress(blob)
        assert np.all(np.abs(positive - recon) <= 1e-2 * positive * (1 + 1e-12))

    def test_iterator_source_needs_data_range_for_rel(self, field):
        with pytest.raises(ValueError, match="data_range"):
            compress_chunked(iter([field]), codec="sz21", bound=Rel(EB))

    def test_iterator_source(self, field, serial_blob):
        def blocks():
            for start in range(0, field.shape[0], 7):
                yield field[start:start + 7]

        blob = compress_chunked(blocks(), codec="sz21", bound=Rel(EB), chunk_size=800,
                                data_range=(float(field.min()), float(field.max())))
        recon = repro.decompress(blob)
        vrange = float(field.max() - field.min())
        assert recon.shape == field.shape
        assert float(np.max(np.abs(field - recon))) <= EB * vrange
        # 7-row blocks regroup toward 20-row chunks (800 elems / 40 cols), so
        # boundaries differ from the array path but coverage must not — and no
        # chunk may overshoot the requested size.
        index = ChunkedIndex.from_bytes(blob)
        assert index.starts[-1] == field.shape[0]
        assert int(np.diff(index.starts).max()) <= 20

    def test_oversized_block_mid_stream_stays_chunk_bounded(self):
        """An oversized block arriving while rows are buffered must be
        slab-split, not concatenated into one giant chunk."""
        rng = np.random.default_rng(3)
        small = rng.standard_normal((2, 10))
        huge = rng.standard_normal((50, 10))
        blob = compress_chunked(iter([small, huge]), codec="szinterp",
                                bound=Abs(0.05), chunk_size=100)  # 10 rows/chunk
        index = ChunkedIndex.from_bytes(blob)
        row_counts = np.diff(index.starts)
        assert int(row_counts.max()) <= 10
        recon = repro.decompress(blob)
        full = np.concatenate([small, huge], axis=0)
        assert float(np.max(np.abs(full - recon))) <= 0.05

    def test_reversed_data_range_message(self, field):
        with pytest.raises(ValueError, match="reversed"):
            compress_chunked(iter([field]), codec="sz21", bound=Rel(EB),
                             data_range=(5.0, 1.0))

    def test_slow_head_keeps_order(self):
        result = list(parallel_imap(_slow_head, range(10), workers=2, max_pending=3))
        assert result == list(range(10))

    def test_iterator_blocks_must_agree(self):
        with pytest.raises(ValueError, match="trailing dimensions"):
            compress_chunked(iter([np.zeros((2, 3)), np.zeros((2, 4))]),
                             codec="sz21", bound=Abs(1.0), chunk_size=4)
        with pytest.raises(ValueError, match="one dtype"):
            compress_chunked(
                iter([np.zeros((2, 3)), np.zeros((2, 3), dtype=np.float32)]),
                codec="sz21", bound=Abs(1.0), chunk_size=4)

    def test_memmap_npy_source(self, field, tmp_path):
        path = tmp_path / "field.npy"
        np.save(path, field)
        blob = compress_chunked(str(path), codec="szinterp", bound=Rel(EB),
                                chunk_size=1024)
        vrange = float(field.max() - field.min())
        assert float(np.max(np.abs(field - repro.decompress(blob)))) <= EB * vrange
        with pytest.raises(ValueError, match="array layout"):
            compress_chunked(str(tmp_path / "raw.bin"), codec="sz21")

    def test_decompress_into_out_memmap(self, field, serial_blob, tmp_path):
        out = np.memmap(tmp_path / "out.dat", dtype=np.float64, mode="w+",
                        shape=field.shape)
        result = repro.decompress(serial_blob, out=out)
        assert result is out
        assert np.array_equal(np.asarray(out), repro.decompress(serial_blob))

    def test_out_refuses_lossy_narrowing(self, field, serial_blob):
        out32 = np.empty(field.shape, dtype=np.float32)
        with pytest.raises(ValueError, match="losslessly"):
            repro.decompress(serial_blob, out=out32)
        with pytest.raises(ValueError, match="shape"):
            repro.decompress(serial_blob, out=np.empty((3, 3)))

    def test_iter_decompressed_chunks_streams_in_order(self, field, serial_blob):
        pieces = list(iter_decompressed_chunks(serial_blob))
        assert [p[0] for p in pieces] == [slice(0, 20), slice(20, 40), slice(40, 60),
                                          slice(60, 80), slice(80, 96)]
        assembled = np.concatenate([chunk for _, chunk in pieces], axis=0)
        assert np.array_equal(assembled, repro.decompress(serial_blob))

    def test_narrow_dtype_restores_through_chunks(self, field):
        f32 = field.astype(np.float32)
        blob = compress_chunked(f32, codec="sz21", bound=Rel(1e-3), chunk_size=800)
        recon = repro.decompress(blob)
        assert recon.dtype == np.float32
        index = ChunkedIndex.from_bytes(blob)
        assert index.dtype == "float32"

    def test_dtype_cast_param(self, field):
        """dtype= casts slab-wise and is recorded in the header (the CLI uses
        this to feed codecs the same float64 input as the single-shot path)."""
        f32 = field.astype(np.float32)
        blob = compress_chunked(f32, codec="szinterp", bound=Rel(EB),
                                chunk_size=800, dtype=np.float64)
        index = ChunkedIndex.from_bytes(blob)
        assert index.dtype == "float64"
        recon = repro.decompress(blob)
        assert recon.dtype == np.float64
        vrange = float(f32.max() - f32.min())
        assert float(np.max(np.abs(f32.astype(np.float64) - recon))) <= EB * vrange

    def test_abs_rel_roundtrip_never_loosens_bound(self):
        """Regression: Abs -> rel -> abs conversions used by the chunked path
        must never rebuild a bound above the requested absolute value."""
        from repro.bounds import Abs as AbsBound

        rng = np.random.default_rng(17)
        for _ in range(200):
            data = rng.uniform(-1e3, 1e3, size=4)
            vrange = float(data.max() - data.min())
            abs_value = float(rng.uniform(1e-12, 1.0))
            rel = AbsBound(abs_value).rel_equivalent(data)
            assert rel * vrange <= abs_value

    def test_chunk_size_validation(self, field):
        with pytest.raises(ValueError, match="chunk_size"):
            compress_chunked(field, codec="sz21", chunk_size=0)

    def test_single_shot_roundtrip_unaffected(self, field):
        blob = repro.compress(field, codec="sz21", bound=Rel(EB))
        recon = repro.decompress(blob)
        vrange = float(field.max() - field.min())
        assert float(np.max(np.abs(field - recon))) <= EB * vrange


class TestChunkedCLI:
    def test_cli_chunked_roundtrip(self, field, tmp_path, capsys):
        f32 = field.astype(np.float32)
        src = tmp_path / "in.f32"
        save_f32(src, f32)
        archive = tmp_path / "out.rpra"
        back = tmp_path / "back.f32"
        rc = cli_main(["compress", "--dims", "96", "40", "--error-bound", "1e-3",
                       "--compressor", "szinterp", "--chunk-size", "800",
                       str(src), str(archive)])
        assert rc == 0
        assert "chunks" in capsys.readouterr().out
        rc = cli_main(["decompress", str(archive), str(back)])
        assert rc == 0
        recon = np.fromfile(back, dtype="<f4").reshape(96, 40)
        vrange = float(f32.max() - f32.min())
        assert float(np.max(np.abs(f32 - recon))) <= 1e-3 * vrange * (1 + 1e-6)
        rc = cli_main(["info", "--dims", "96", "40", "--compressed", str(archive),
                       str(src), str(back)])
        assert rc == 0
        assert "chunks" in capsys.readouterr().out

    def test_map_f32_size_check(self, tmp_path):
        path = tmp_path / "short.f32"
        np.zeros(7, dtype="<f4").tofile(path)
        with pytest.raises(ValueError, match="expected"):
            map_f32(path, (4, 2))
        np.zeros(8, dtype="<f4").tofile(path)
        assert map_f32(path, (4, 2)).shape == (4, 2)


# Module-level helpers so spawn-based pools can pickle them.
def _square(x):
    return x * x


def _explode_on_3(x):
    if x == 3:
        raise ValueError(f"boom {x}")
    return x


def _slow_head(x):
    if x == 0:
        import time

        time.sleep(0.4)  # later items finish first; order must still hold
    return x
