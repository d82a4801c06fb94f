"""Tests for the top-level facade, the archive format, the registry and bounds."""

import numpy as np
import pytest

import repro
from repro import Abs, ErrorBound, PtwRel, Rel
from repro.api import read_header
from repro.bounds import as_bound
from repro.compressors import AEACompressor, AEBCompressor
from repro.encoding.container import ARCHIVE_MAGIC, Archive, is_archive
from repro.metrics import verify_error_bound
from repro.registry import (
    available_compressors,
    compressor_spec,
    get_compressor,
    name_for_compressor,
    register_compressor,
)

EXPECTED_CODECS = {"aesz", "ae_a", "ae_b", "lossless", "sz21", "szauto", "szinterp", "zfp"}


@pytest.fixture(scope="module")
def data_2d(field_2d):
    return field_2d[:48, :64].copy()


def _codec_instances(trained_aesz_2d):
    """One ready instance per registered codec, suitable for 2D float64 data."""
    return {
        "sz21": get_compressor("sz21"),
        "zfp": get_compressor("zfp"),
        "szauto": get_compressor("szauto"),
        "szinterp": get_compressor("szinterp"),
        "lossless": get_compressor("lossless"),
        "ae_a": AEACompressor(segment_length=512, seed=0),
        "ae_b": AEBCompressor(block_size=8, ndim=2, seed=0),
        "aesz": trained_aesz_2d,
    }


class TestRegistry:
    def test_all_builtins_registered(self):
        assert set(available_compressors()) == EXPECTED_CODECS

    def test_aliases_resolve(self):
        assert compressor_spec("SZ2.1").name == "sz21"
        assert compressor_spec("ae-sz").name == "aesz"
        assert compressor_spec("AE-B").name == "ae_b"

    def test_unknown_name_lists_choices(self):
        with pytest.raises(KeyError, match="unknown compressor"):
            compressor_spec("nope")

    def test_get_compressor_builds_instances(self):
        comp = get_compressor("sz21")
        assert comp.name == "SZ2.1"
        assert type(comp) is not type(get_compressor("zfp"))

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_compressor("sz21", lambda: None)

    def test_aesz_without_model_is_a_clear_error(self):
        with pytest.raises(ValueError, match="needs a trained model"):
            get_compressor("aesz")

    def test_name_for_compressor_instance(self, trained_aesz_2d):
        assert name_for_compressor(get_compressor("szinterp")) == "szinterp"
        assert name_for_compressor(trained_aesz_2d) == "aesz"

    def test_flags(self):
        assert compressor_spec("ae_b").error_bounded is False
        assert compressor_spec("aesz").requires_model is True
        assert compressor_spec("sz21").requires_model is False


class TestBounds:
    def test_modes_and_values(self):
        assert Rel(1e-3).mode == "rel"
        assert Abs(0.5).mode == "abs"
        assert PtwRel(1e-2).mode == "ptw_rel"
        with pytest.raises(ValueError):
            Rel(0.0)
        with pytest.raises(ValueError):
            ErrorBound("nope", 1e-3)

    def test_as_bound_coerces_numbers(self):
        assert as_bound(1e-2) == Rel(1e-2)
        assert as_bound(Rel(1e-2)) == Rel(1e-2)
        with pytest.raises(TypeError):
            as_bound("1e-2")

    def test_abs_rel_equivalence(self, data_2d):
        vrange = float(data_2d.max() - data_2d.min())
        assert Abs(0.25 * vrange).rel_equivalent(data_2d) == pytest.approx(0.25)
        assert Rel(1e-3).rel_equivalent(data_2d) == 1e-3
        with pytest.raises(ValueError, match="logarithmic transform"):
            PtwRel(1e-3).rel_equivalent(data_2d)


class TestFacadeRoundtrip:
    """Acceptance: blob = repro.compress(x, codec=c); repro.decompress(blob)
    roundtrips within bound for every registered codec, no side channel."""

    EB = 1e-2

    def test_every_registered_codec_roundtrips_self_described(self, trained_aesz_2d, data_2d):
        instances = _codec_instances(trained_aesz_2d)
        assert set(instances) == set(available_compressors())
        for name in available_compressors():
            blob = repro.compress(data_2d, codec=instances[name], bound=Rel(self.EB))
            recon = repro.decompress(blob)  # <- no dims/dtype/codec/model
            assert recon.shape == data_2d.shape, name
            header = read_header(blob)
            assert header.codec == name
            assert header.shape == data_2d.shape
            assert header.dtype == "float64"
            assert header.bound_mode == "rel" and header.bound_value == self.EB
            if compressor_spec(name).error_bounded:
                assert verify_error_bound(data_2d, recon, self.EB) is None, name

    def test_codec_by_name_with_options(self, data_2d):
        blob = repro.compress(data_2d, codec="ae_b", bound=Rel(self.EB),
                              codec_options={"ndim": 2, "block_size": 8})
        assert repro.decompress(blob).shape == data_2d.shape

    def test_non_default_codec_options_travel_in_archive(self, data_2d):
        """Constructor settings that decode depends on are self-described too."""
        blob = repro.compress(data_2d, codec="sz21", bound=Rel(1e-3),
                              codec_options={"lossless_backend": "bz2",
                                             "block_size_2d": 8})
        header = read_header(blob)
        assert header.meta["options"]["lossless_backend"] == "bz2"
        assert header.meta["options"]["block_size_2d"] == 8
        recon = repro.decompress(blob)  # restored with the recorded backend
        assert verify_error_bound(data_2d, recon, 1e-3) is None

        exact = data_2d.astype(np.float32)
        blob = repro.compress(exact, codec="lossless", codec_options={"backend": "lzma"})
        np.testing.assert_array_equal(repro.decompress(blob), exact)

    def test_lossless_is_exact(self, data_2d):
        blob = repro.compress(data_2d.astype(np.float32), codec="lossless")
        np.testing.assert_array_equal(repro.decompress(blob), data_2d.astype(np.float32))

    def test_roundtrip_metrics(self, data_2d):
        result = repro.roundtrip(data_2d, codec="sz21", bound=Rel(1e-3))
        assert result.compressor == "sz21"
        assert result.n_points == data_2d.size
        assert result.original_bytes == data_2d.size * 8
        assert result.compression_ratio > 1.0


class TestBoundModes:
    """All three error-bound modes, verified for sz21 and aesz."""

    @pytest.fixture(scope="class")
    def codecs(self, trained_aesz_2d):
        return {"sz21": get_compressor("sz21"), "aesz": trained_aesz_2d}

    @pytest.mark.parametrize("name", ["sz21", "aesz"])
    def test_rel_bound(self, codecs, data_2d, name):
        blob = repro.compress(data_2d, codec=codecs[name], bound=Rel(5e-3))
        recon = repro.decompress(blob)
        assert verify_error_bound(data_2d, recon, 5e-3) is None

    @pytest.mark.parametrize("name", ["sz21", "aesz"])
    def test_abs_bound(self, codecs, data_2d, name):
        vrange = float(data_2d.max() - data_2d.min())
        abs_eb = 5e-3 * vrange
        blob = repro.compress(data_2d, codec=codecs[name], bound=Abs(abs_eb))
        recon = repro.decompress(blob)
        assert float(np.abs(recon - data_2d).max()) <= abs_eb * (1 + 1e-9)

    @pytest.mark.parametrize("name", ["sz21", "aesz"])
    def test_ptw_rel_bound(self, codecs, data_2d, name):
        # Mixed magnitudes, negatives and exact zeros.
        data = data_2d - float(np.median(data_2d))
        data[::7, ::5] = 0.0
        eps = 2e-2
        blob = repro.compress(data, codec=codecs[name], bound=PtwRel(eps))
        recon = repro.decompress(blob)
        nz = data != 0
        ratio = np.abs(recon[nz] - data[nz]) / np.abs(data[nz])
        assert float(ratio.max()) <= eps * (1 + 1e-9)
        np.testing.assert_array_equal(recon[~nz], 0.0)
        assert np.sign(recon[nz]).tolist() == np.sign(data[nz]).tolist()

    def test_ptw_rel_rejected_for_unbounded_codec(self, data_2d):
        with pytest.raises(ValueError, match="not error bounded"):
            repro.compress(data_2d, codec="ae_b", bound=PtwRel(1e-2),
                           codec_options={"ndim": 2, "block_size": 8})


class TestOutputDtypeRestoration:
    """float32 in -> float32 out, with the bound still held against the input."""

    @pytest.mark.parametrize("name", ["sz21", "zfp", "szauto", "szinterp"])
    def test_float32_restored_when_bound_safe(self, data_2d, name):
        data = data_2d.astype(np.float32)
        blob = repro.compress(data, codec=name, bound=Rel(1e-3))
        recon = repro.decompress(blob)
        assert recon.dtype == np.float32
        assert verify_error_bound(data, recon, 1e-3) is None

    def test_float32_falls_back_to_float64_at_tiny_bounds(self, data_2d):
        # Bound at the float32 precision floor: the cast cannot be proven safe.
        blob = repro.compress(data_2d.astype(np.float32), codec="sz21", bound=Rel(3e-8))
        assert repro.decompress(blob).dtype == np.float64

    def test_float32_ptw_rel_restored(self, data_2d):
        data = (np.abs(data_2d) + 0.5).astype(np.float32)
        eps = 1e-2
        blob = repro.compress(data, codec="sz21", bound=PtwRel(eps))
        recon = repro.decompress(blob)
        assert recon.dtype == np.float32
        ratio = np.abs(recon.astype(np.float64) - data.astype(np.float64)) \
            / np.abs(data.astype(np.float64))
        assert float(ratio.max()) <= eps * (1 + 1e-9)

    def test_unbounded_codec_stays_float64(self, data_2d):
        blob = repro.compress(data_2d.astype(np.float32), codec="ae_b", bound=Rel(1e-2),
                              codec_options={"ndim": 2, "block_size": 8})
        assert repro.decompress(blob).dtype == np.float64

    def test_float64_input_unchanged(self, data_2d):
        blob = repro.compress(data_2d, codec="sz21", bound=Rel(1e-3))
        assert repro.decompress(blob).dtype == np.float64


class TestArchiveFormat:
    @pytest.fixture(scope="class")
    def blob(self, field_2d):
        return repro.compress(field_2d[:48, :64], codec="sz21", bound=Rel(1e-3))

    def test_is_archive(self, blob):
        assert is_archive(blob)
        assert not is_archive(b"RPRC....")
        assert blob[:4] == ARCHIVE_MAGIC

    def test_header_parse_without_decode(self, blob):
        header = read_header(blob)
        assert header.codec == "sz21"
        assert header.version == 1
        assert header.n_points == 48 * 64

    def test_bad_magic(self, blob):
        with pytest.raises(ValueError, match="corrupt archive"):
            Archive.from_bytes(b"XXXX" + blob[4:])

    def test_unsupported_version(self, blob):
        bad = bytearray(blob)
        bad[4] = 99
        with pytest.raises(ValueError, match="unsupported archive version"):
            Archive.from_bytes(bytes(bad))

    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9, 0.999])
    def test_truncation_raises_corrupt(self, blob, fraction):
        cut = blob[:max(4, int(len(blob) * fraction))]
        with pytest.raises(ValueError, match="corrupt archive|unsupported"):
            Archive.from_bytes(cut)

    def test_empty_and_tiny_inputs(self):
        for junk in (b"", b"R", b"RPRA", b"RPRA\x01\x00"):
            with pytest.raises(ValueError, match="corrupt archive"):
                Archive.from_bytes(junk)

    def test_any_body_byte_flip_detected(self, blob):
        """CRC-32 in the header catches every payload/section byte flip."""
        import struct

        (hlen,) = struct.unpack_from("<I", blob, 6)
        body_start = 10 + hlen
        for off in range(body_start, len(blob)):
            bad = bytearray(blob)
            bad[off] ^= 0xFF
            with pytest.raises(ValueError):
                Archive.from_bytes(bytes(bad))

    def test_malformed_crc_field_raises_corrupt(self, blob):
        import json
        import struct

        (hlen,) = struct.unpack_from("<I", blob, 6)
        header = json.loads(blob[10:10 + hlen])
        for bad_crc in (123, {"payload": 0, "extra": 5}):
            header["crc"] = bad_crc
            hb = json.dumps(header, separators=(",", ":"), sort_keys=True).encode()
            bad = blob[:6] + struct.pack("<I", len(hb)) + hb + blob[10 + hlen:]
            with pytest.raises(ValueError, match="corrupt archive"):
                Archive.from_bytes(bad)

    def test_missing_or_null_crc_raises_corrupt(self, blob):
        """Every v1 archive ``to_bytes`` writes carries ``crc``: a header
        without one (key deleted, or ``null``) is refused, never decoded
        unchecked — even when the payload underneath is untouched."""
        import json
        import struct

        (hlen,) = struct.unpack_from("<I", blob, 6)
        header = json.loads(blob[10:10 + hlen])
        for drop in (True, False):
            if drop:
                header.pop("crc", None)
            else:
                header["crc"] = None
            hb = json.dumps(header, separators=(",", ":"), sort_keys=True).encode()
            bad = blob[:6] + struct.pack("<I", len(hb)) + hb + blob[10 + hlen:]
            with pytest.raises(ValueError, match="corrupt archive: missing"):
                Archive.from_bytes(bad)
            with pytest.raises(ValueError, match="corrupt archive"):
                repro.decompress(bad)

    def test_trailing_garbage_raises_corrupt(self, blob):
        with pytest.raises(ValueError, match="corrupt archive.*trailing"):
            Archive.from_bytes(blob + b"\x00garbage")

    def test_garbled_header_json_raises_corrupt(self, blob):
        bad = bytearray(blob)
        # Header JSON starts right after magic+version+length (4+2+4 bytes).
        bad[10:14] = b"\xff\xfe\xfd\xfc"
        with pytest.raises(ValueError, match="corrupt archive"):
            Archive.from_bytes(bytes(bad))

    def test_raw_payload_through_facade_is_a_clear_error(self, field_2d):
        comp = get_compressor("sz21")
        raw = comp.compress(field_2d[:48, :64], 1e-3)
        with pytest.raises(ValueError, match="raw codec payload"):
            repro.decompress(raw)
        # Back-compat: the per-class decompress still decodes raw payloads.
        assert comp.decompress(raw).shape == (48, 64)

    def test_unknown_codec_in_header(self, blob):
        archive = Archive.from_bytes(blob)
        archive.codec = "nope"
        with pytest.raises(KeyError, match="unknown compressor"):
            repro.decompress(archive.to_bytes())


class TestModelArchives:
    def test_aesz_archive_embeds_model_by_default(self, trained_aesz_2d, data_2d):
        blob = repro.compress(data_2d, codec=trained_aesz_2d, bound=Rel(1e-2))
        header = read_header(blob)
        assert "model" in header.extra
        assert header.meta["model_sha256"] == trained_aesz_2d.model_fingerprint()
        recon = repro.decompress(blob)
        assert verify_error_bound(data_2d, recon, 1e-2) is None

    def test_aesz_no_embed_requires_model(self, trained_aesz_2d, data_2d):
        blob = repro.compress(data_2d, codec=trained_aesz_2d, bound=Rel(1e-2),
                              embed_model=False)
        assert "model" not in read_header(blob).extra
        with pytest.raises(ValueError, match="no embedded model"):
            repro.decompress(blob)
        recon = repro.decompress(blob, autoencoder=trained_aesz_2d.autoencoder)
        assert verify_error_bound(data_2d, recon, 1e-2) is None

    def test_aesz_mismatched_model_refused(self, trained_aesz_2d, tiny_ae_config_2d,
                                           data_2d):
        from repro.autoencoders import SlicedWassersteinAutoencoder

        blob = repro.compress(data_2d, codec=trained_aesz_2d, bound=Rel(1e-2),
                              embed_model=False)
        other = SlicedWassersteinAutoencoder(tiny_ae_config_2d)  # untrained weights
        with pytest.raises(ValueError, match="model mismatch"):
            repro.decompress(blob, autoencoder=other)

    def test_aesz_model_from_path(self, trained_aesz_2d, data_2d, tmp_path):
        path = tmp_path / "model.npz"
        trained_aesz_2d.autoencoder.save(path)
        blob = repro.compress(data_2d, codec=trained_aesz_2d, bound=Rel(1e-2),
                              embed_model=False)
        recon = repro.decompress(blob, model=path)
        assert verify_error_bound(data_2d, recon, 1e-2) is None

    def test_model_for_stateless_codec_rejected(self, data_2d, tmp_path):
        blob = repro.compress(data_2d, codec="sz21", bound=Rel(1e-2))
        with pytest.raises(ValueError, match="does not take a model"):
            repro.decompress(blob, model=tmp_path / "whatever.npz")

    def test_unregistered_autoencoder_class_cannot_silently_skip_embed(self, data_2d,
                                                                       trained_aesz_2d):
        from repro.core import AESZCompressor, AESZConfig

        class CustomAE(type(trained_aesz_2d.autoencoder)):  # not in AE_REGISTRY
            pass

        ae = trained_aesz_2d.autoencoder
        custom = CustomAE(ae.config)
        custom.encoder, custom.decoder = ae.encoder, ae.decoder
        custom.set_normalization(ae.norm_min, ae.norm_max)
        comp = AESZCompressor(custom, AESZConfig(block_size=ae.config.block_size))
        with pytest.raises(ValueError, match="cannot embed the model"):
            repro.compress(data_2d, codec=comp, bound=Rel(1e-2))
        # embed_model=False works; restore needs the instance back.
        blob = repro.compress(data_2d, codec=comp, bound=Rel(1e-2), embed_model=False)
        with pytest.raises(ValueError, match="rebuildable model architecture"):
            repro.decompress(blob, model="whatever.npz")
        recon = repro.decompress(blob, autoencoder=custom)
        assert verify_error_bound(data_2d, recon, 1e-2) is None

    def test_ae_a_embedded_model_roundtrips_bounded(self, data_2d):
        comp = AEACompressor(segment_length=512, seed=3)
        blob = repro.compress(data_2d, codec=comp, bound=Rel(1e-2))
        recon = repro.decompress(blob)
        assert verify_error_bound(data_2d, recon, 1e-2) is None

    def test_corrupted_embedded_model_raises_corrupt(self, trained_aesz_2d, data_2d):
        blob = repro.compress(data_2d, codec=trained_aesz_2d, bound=Rel(1e-2))
        archive = Archive.from_bytes(blob)
        tampered = bytearray(archive.extra["model"])
        tampered[len(tampered) // 2] ^= 0xFF
        archive.extra["model"] = bytes(tampered)
        with pytest.raises(ValueError, match="corrupt"):
            repro.decompress(archive.to_bytes())

    @pytest.mark.parametrize("backend", ["zlib", "bz2", "lzma"])
    def test_backend_garbage_raises_corrupt(self, backend):
        from repro.encoding.lossless import get_backend

        with pytest.raises(ValueError, match="corrupt stream"):
            get_backend(backend).decompress(b"\xff\xfe definitely not a stream")

    def test_ae_b_tampered_weights_detected(self, data_2d):
        comp = AEBCompressor(block_size=8, ndim=2, seed=0)
        blob = repro.compress(data_2d, codec=comp, bound=Rel(1e-2))
        other = AEBCompressor(block_size=8, ndim=2, seed=1)  # different weights
        with pytest.raises(ValueError, match="model mismatch"):
            repro.decompress(blob, autoencoder=other.autoencoder)

    @pytest.mark.parametrize("embed", [False, True])
    def test_ae_b_model_from_path(self, data_2d, tmp_path, embed):
        """model=<path> works for every AE-backed codec, embedded or not."""
        comp = AEBCompressor(block_size=8, ndim=2, seed=0)
        blob = repro.compress(data_2d, codec=comp, bound=Rel(1e-2), embed_model=embed)
        path = tmp_path / "aeb.npz"
        comp.autoencoder.save(path)
        recon = repro.decompress(blob, model=path)
        assert recon.shape == data_2d.shape

    def test_ae_a_model_from_path(self, data_2d, tmp_path):
        comp = AEACompressor(segment_length=512, seed=0)
        blob = repro.compress(data_2d, codec=comp, bound=Rel(1e-2), embed_model=False)
        path = tmp_path / "aea.npz"
        comp.autoencoder.save(path)
        recon = repro.decompress(blob, model=path)
        assert verify_error_bound(data_2d, recon, 1e-2) is None
