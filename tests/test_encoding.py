"""Tests for the entropy-coding substrate (bitstream, Huffman, backends, container)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.encoding import (
    BitReader,
    BitWriter,
    ByteContainer,
    EntropyCodec,
    HuffmanCodec,
    StoreBackend,
    ZlibBackend,
    get_backend,
    huffman_code_lengths,
    pack_bits,
    unpack_bits,
)
from repro.encoding.lossless import Bz2Backend, LzmaBackend


class TestBitstream:
    def test_pack_unpack_roundtrip(self):
        bits = np.array([1, 0, 1, 1, 0, 0, 0, 1, 1, 0], dtype=np.uint8)
        packed = pack_bits(bits)
        np.testing.assert_array_equal(unpack_bits(packed, 10), bits)

    def test_unpack_too_short_raises(self):
        with pytest.raises(ValueError):
            unpack_bits(b"\x00", 9)

    def test_writer_reader_uint_roundtrip(self):
        writer = BitWriter()
        writer.write_uint(5, 3)
        writer.write_uint(1023, 10)
        writer.write_uint(0, 1)
        reader = BitReader(writer.getvalue(), writer.n_bits)
        assert reader.read_uint(3) == 5
        assert reader.read_uint(10) == 1023
        assert reader.read_uint(1) == 0

    def test_writer_rejects_overflow(self):
        with pytest.raises(ValueError):
            BitWriter().write_uint(8, 3)

    def test_writer_rejects_bad_width(self):
        with pytest.raises(ValueError):
            BitWriter().write_uint(1, 0)

    def test_reader_eof(self):
        writer = BitWriter()
        writer.write_uint(1, 1)
        reader = BitReader(writer.getvalue(), 1)
        reader.read_bit()
        with pytest.raises(EOFError):
            reader.read_bit()

    def test_read_bits_array(self):
        writer = BitWriter()
        writer.write_bits_array(np.array([1, 0, 1], dtype=np.uint8))
        reader = BitReader(writer.getvalue(), 3)
        np.testing.assert_array_equal(reader.read_bits_array(3), [1, 0, 1])

    def test_empty_writer(self):
        assert BitWriter().getvalue() == b""


class TestHuffmanCodeLengths:
    def test_balanced_counts_give_equal_lengths(self):
        lengths = huffman_code_lengths(np.array([10, 10, 10, 10]))
        assert set(lengths.tolist()) == {2}

    def test_skewed_counts_give_shorter_code_to_frequent_symbol(self):
        lengths = huffman_code_lengths(np.array([100, 1, 1]))
        assert lengths[0] < lengths[1]

    def test_single_symbol(self):
        assert huffman_code_lengths(np.array([5])).tolist() == [1]

    def test_kraft_inequality(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(1, 1000, size=50)
        lengths = huffman_code_lengths(counts)
        assert float(np.sum(2.0 ** (-lengths))) <= 1.0 + 1e-12

    def test_rejects_zero_counts(self):
        with pytest.raises(ValueError):
            huffman_code_lengths(np.array([3, 0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            huffman_code_lengths(np.array([], dtype=np.int64))


class TestHuffmanCodec:
    def test_roundtrip_geometric(self):
        rng = np.random.default_rng(0)
        syms = rng.geometric(0.4, size=5000) + 100
        codec = HuffmanCodec()
        np.testing.assert_array_equal(codec.decode(codec.encode(syms)), syms)

    def test_roundtrip_uniform(self):
        rng = np.random.default_rng(1)
        syms = rng.integers(0, 300, size=2000)
        codec = HuffmanCodec()
        np.testing.assert_array_equal(codec.decode(codec.encode(syms)), syms)

    def test_single_symbol_stream(self):
        syms = np.full(123, 7, dtype=np.int64)
        codec = HuffmanCodec()
        np.testing.assert_array_equal(codec.decode(codec.encode(syms)), syms)

    def test_empty_stream(self):
        codec = HuffmanCodec()
        assert codec.decode(codec.encode(np.array([], dtype=np.int64))).size == 0

    def test_compresses_skewed_data(self):
        syms = np.zeros(10000, dtype=np.int64)
        syms[::100] = 1
        codec = HuffmanCodec()
        assert len(codec.encode(syms)) < syms.size  # far fewer than 1 byte/symbol

    def test_rejects_float_input(self):
        with pytest.raises(TypeError):
            HuffmanCodec().encode(np.array([1.5, 2.5]))

    def test_rejects_negative_symbols(self):
        with pytest.raises(ValueError):
            HuffmanCodec().encode(np.array([-1, 2]))

    def test_truncated_stream_raises(self):
        with pytest.raises(ValueError):
            HuffmanCodec().decode(b"\x01\x02")

    @settings(max_examples=25, deadline=None)
    @given(hnp.arrays(np.int64, st.integers(1, 300), elements=st.integers(0, 50)))
    def test_roundtrip_property(self, syms):
        codec = HuffmanCodec()
        np.testing.assert_array_equal(codec.decode(codec.encode(syms)), syms)


class TestBackends:
    @pytest.mark.parametrize("name", ["zlib", "zstd", "bz2", "lzma", "store"])
    def test_roundtrip(self, name):
        backend = get_backend(name)
        data = bytes(range(256)) * 20
        assert backend.decompress(backend.compress(data)) == data

    def test_zlib_compresses_redundant_data(self):
        data = b"abcd" * 1000
        assert len(ZlibBackend().compress(data)) < len(data) // 10

    def test_store_backend_is_identity(self):
        assert StoreBackend().compress(b"xyz") == b"xyz"

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError):
            get_backend("nope")

    def test_invalid_levels_raise(self):
        with pytest.raises(ValueError):
            ZlibBackend(level=11)
        with pytest.raises(ValueError):
            Bz2Backend(level=0)
        with pytest.raises(ValueError):
            LzmaBackend(preset=12)


class TestEntropyCodec:
    def test_roundtrip_with_huffman(self):
        rng = np.random.default_rng(0)
        codes = rng.integers(32000, 33000, size=4000)
        codec = EntropyCodec()
        np.testing.assert_array_equal(codec.decode(codec.encode(codes)), codes)

    def test_roundtrip_without_huffman(self):
        codes = np.arange(100)
        codec = EntropyCodec(use_huffman=False)
        np.testing.assert_array_equal(codec.decode(codec.encode(codes)), codes)

    def test_empty_payload_raises(self):
        with pytest.raises(ValueError):
            EntropyCodec().decode(b"")

    def test_rejects_float_arrays(self):
        with pytest.raises(TypeError):
            EntropyCodec().encode(np.array([1.0, 2.0]))

    def test_skewed_codes_compress_below_raw_size(self):
        codes = np.full(20000, 32768, dtype=np.int64)
        codes[::50] += 1
        payload = EntropyCodec().encode(codes)
        assert len(payload) < codes.size * 2 / 8  # well under 2 bits/code here


class TestByteContainer:
    def test_roundtrip_sections(self):
        c = ByteContainer({"a": b"123", "b": b""})
        c["c"] = b"\x00\xff" * 10
        c2 = ByteContainer.from_bytes(c.to_bytes())
        assert c2["a"] == b"123"
        assert c2["b"] == b""
        assert c2["c"] == b"\x00\xff" * 10

    def test_json_roundtrip(self):
        c = ByteContainer()
        c.put_json("meta", {"x": 1, "y": [1, 2, 3]})
        c2 = ByteContainer.from_bytes(c.to_bytes())
        assert c2.get_json("meta") == {"x": 1, "y": [1, 2, 3]}

    def test_bad_magic_raises(self):
        with pytest.raises(ValueError):
            ByteContainer.from_bytes(b"XXXX\x00\x00\x00\x00")

    def test_rejects_non_bytes_values(self):
        with pytest.raises(TypeError):
            ByteContainer()["x"] = 123

    def test_rejects_bad_keys(self):
        with pytest.raises(TypeError):
            ByteContainer()[""] = b"x"

    def test_contains_get_keys(self):
        c = ByteContainer({"a": b"1"})
        assert "a" in c and "b" not in c
        assert c.get("b", b"default") == b"default"
        assert list(c.keys()) == ["a"]
        assert len(c) == 1

    def test_nbytes_counts_serialized_size(self):
        c = ByteContainer({"a": b"12345"})
        assert c.nbytes == len(c.to_bytes())
