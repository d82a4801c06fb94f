"""Tests for the baseline compressors (SZ2.1, ZFP, SZauto, SZinterp, AE-A, AE-B, lossless)."""

import numpy as np
import pytest

from reference_codecs import sequential_lorenzo_decode, sequential_lorenzo_encode
from repro.compressors import (
    AEACompressor,
    AEBCompressor,
    LosslessCompressor,
    SZ21Compressor,
    SZAutoCompressor,
    SZInterpCompressor,
    ZFPCompressor,
)
from repro.compressors.zfp import _forward_transform, _inverse_transform, _linf_gain
from repro.data import load_field_snapshot
from repro.metrics import psnr, verify_error_bound
from repro.nn import TrainingConfig

TRADITIONAL = [SZ21Compressor, ZFPCompressor, SZAutoCompressor, SZInterpCompressor]


@pytest.fixture(scope="module")
def small_2d(field_2d):
    return field_2d[:48, :64]


@pytest.fixture(scope="module")
def small_3d(field_3d):
    return field_3d[:16, :16, :16]


class TestTraditionalCompressorsCommon:
    @pytest.mark.parametrize("compressor_cls", TRADITIONAL)
    @pytest.mark.parametrize("eb", [1e-2, 1e-3])
    def test_bound_held_2d(self, compressor_cls, eb, small_2d):
        comp = compressor_cls()
        recon = comp.decompress(comp.compress(small_2d, eb))
        assert recon.shape == small_2d.shape
        assert verify_error_bound(small_2d, recon, eb) is None

    @pytest.mark.parametrize("compressor_cls", TRADITIONAL)
    def test_bound_held_3d(self, compressor_cls, small_3d):
        comp = compressor_cls()
        recon = comp.decompress(comp.compress(small_3d, 1e-3))
        assert verify_error_bound(small_3d, recon, 1e-3) is None

    @pytest.mark.parametrize("compressor_cls", TRADITIONAL)
    def test_compresses_below_original_size(self, compressor_cls, small_2d):
        payload = compressor_cls().compress(small_2d, 1e-3)
        assert len(payload) < small_2d.size * 4

    @pytest.mark.parametrize("compressor_cls", TRADITIONAL)
    def test_quality_improves_with_tighter_bound(self, compressor_cls, small_2d):
        comp = compressor_cls()
        loose = comp.roundtrip(small_2d, 1e-2)
        tight = comp.roundtrip(small_2d, 1e-4)
        assert tight.psnr > loose.psnr
        assert tight.compression_ratio < loose.compression_ratio

    @pytest.mark.parametrize("compressor_cls", TRADITIONAL)
    def test_deterministic(self, compressor_cls, small_2d):
        comp = compressor_cls()
        assert comp.compress(small_2d, 1e-3) == comp.compress(small_2d, 1e-3)

    @pytest.mark.parametrize("compressor_cls", TRADITIONAL)
    def test_invalid_bound_raises(self, compressor_cls, small_2d):
        with pytest.raises(ValueError):
            compressor_cls().compress(small_2d, 0.0)

    @pytest.mark.parametrize("compressor_cls", TRADITIONAL)
    def test_1d_data_supported(self, compressor_cls):
        rng = np.random.default_rng(0)
        data = np.cumsum(rng.normal(size=500)) * 0.1
        comp = compressor_cls()
        recon = comp.decompress(comp.compress(data, 1e-3))
        assert verify_error_bound(data, recon, 1e-3) is None

    @pytest.mark.parametrize("compressor_cls", TRADITIONAL)
    def test_roundtrip_result_metrics(self, compressor_cls, small_2d):
        # small_2d is float64, so the original counts 64 bits per value.
        result = compressor_cls().roundtrip(small_2d, 1e-3)
        assert result.compression_ratio > 1.0
        assert result.n_points == small_2d.size
        assert result.original_dtype == "float64"
        assert result.original_bytes == small_2d.size * 8
        assert result.bit_rate == pytest.approx(64.0 / result.compression_ratio)
        assert np.isfinite(result.psnr)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_roundtrip_bit_rate_independent_of_dtype_width(self, small_2d, dtype):
        """bit_rate counts compressed bits per point, not per original byte."""
        result = SZ21Compressor().roundtrip(small_2d.astype(dtype), 1e-3)
        assert result.original_bytes == small_2d.size * np.dtype(dtype).itemsize
        assert result.bit_rate == pytest.approx(
            result.compressed_bytes * 8.0 / small_2d.size)


class TestSZ21Internals:
    def test_sequential_lorenzo_roundtrip_2d(self):
        rng = np.random.default_rng(0)
        block = np.cumsum(np.cumsum(rng.normal(size=(12, 12)), axis=0), axis=1) * 0.01
        codes, unpred, recon = sequential_lorenzo_encode(block, 1e-3, 65536)
        decoded = sequential_lorenzo_decode(codes, np.array(unpred), 1e-3, 65536)
        np.testing.assert_array_equal(decoded, recon)
        assert np.max(np.abs(recon - block)) <= 1e-3 * (1 + 1e-9)

    def test_sequential_lorenzo_roundtrip_3d(self):
        rng = np.random.default_rng(1)
        block = rng.normal(size=(6, 6, 6))
        codes, unpred, recon = sequential_lorenzo_encode(block, 0.05, 256)
        decoded = sequential_lorenzo_decode(codes, np.array(unpred), 0.05, 256)
        np.testing.assert_array_equal(decoded, recon)

    def test_error_feedback_degrades_prediction_at_large_bounds(self):
        """The classic SZ behaviour the paper exploits: prediction quality is
        tied to the reconstructed (not original) neighbours."""
        x = np.linspace(0, 1, 32)
        block = np.sin(2 * np.pi * np.add.outer(x, x))
        _, _, recon_small = sequential_lorenzo_encode(block, 1e-4, 65536)
        _, _, recon_large = sequential_lorenzo_encode(block, 5e-2, 65536)
        err_small = np.abs(recon_small - block).mean() / 1e-4
        err_large = np.abs(recon_large - block).mean() / 5e-2
        # Relative to the bound, the large-eb reconstruction is not better.
        assert err_large >= 0.3 * err_small

    def test_regression_selected_for_planar_blocks(self, small_2d):
        comp = SZ21Compressor(block_size_2d=8)
        i, j = np.meshgrid(np.arange(64, dtype=float), np.arange(64, dtype=float),
                           indexing="ij")
        plane = 0.5 * i - 0.25 * j
        payload = comp.compress(plane, 1e-3)
        recon = comp.decompress(payload)
        assert verify_error_bound(plane, recon, 1e-3) is None
        # A plane compresses extremely well (few distinct codes).
        assert len(payload) < plane.size


class TestZFPInternals:
    def test_transform_inverse_roundtrip(self):
        rng = np.random.default_rng(0)
        blocks = rng.normal(size=(5, 4, 4))
        np.testing.assert_allclose(_inverse_transform(_forward_transform(blocks)), blocks,
                                   atol=1e-12)

    def test_transform_energy_preservation(self):
        rng = np.random.default_rng(1)
        blocks = rng.normal(size=(3, 4, 4, 4))
        coeffs = _forward_transform(blocks)
        np.testing.assert_allclose(np.sum(blocks**2), np.sum(coeffs**2), rtol=1e-10)

    def test_linf_gain_reasonable(self):
        assert 1.0 <= _linf_gain(1) <= 4.0
        assert _linf_gain(3) == pytest.approx(_linf_gain(1) ** 3)

    def test_smooth_block_concentrates_energy_in_low_frequencies(self):
        x = np.linspace(0, 1, 4)
        block = np.add.outer(x, x)[None]
        coeffs = _forward_transform(block)[0]
        assert abs(coeffs[0, 0]) > np.abs(coeffs[2:, 2:]).max()


class TestAEAComparator:
    @pytest.fixture(scope="class")
    def trained_aea(self, field_2d):
        comp = AEACompressor(segment_length=512, seed=0)
        comp.train([field_2d], TrainingConfig(epochs=2, batch_size=16, seed=0),
                   max_segments=96)
        return comp

    def test_error_bound_held(self, trained_aea, field_2d):
        recon = trained_aea.decompress(trained_aea.compress(field_2d, 1e-2))
        assert verify_error_bound(field_2d, recon, 1e-2) is None

    def test_roundtrip_shape(self, trained_aea, field_2d):
        recon = trained_aea.decompress(trained_aea.compress(field_2d, 1e-2))
        assert recon.shape == field_2d.shape

    def test_3d_input_flattened(self, trained_aea, field_3d):
        recon = trained_aea.decompress(trained_aea.compress(field_3d, 1e-2))
        assert recon.shape == field_3d.shape
        assert verify_error_bound(field_3d, recon, 1e-2) is None

    def test_bound_held_when_float32_latents_move_the_prediction(self):
        """The residual must correct the prediction the decoder will make from
        the float32 latents it reads, not one made from float64 latents: at a
        tight bound the difference alone used to break the bound (1.0000029x)."""
        data = load_field_snapshot("Hurricane-U", shape=(20, 64, 64)).astype(np.float64)
        comp = AEACompressor(segment_length=512, seed=0)
        comp.autoencoder.fit_normalization(data)
        recon = comp.decompress(comp.compress(data, 1e-5))
        assert np.max(np.abs(data - recon)) <= 1e-5 * (data.max() - data.min())


class TestAEBComparator:
    @pytest.fixture(scope="class")
    def trained_aeb(self, field_3d):
        from repro.autoencoders import ResidualConvAutoencoder

        ae = ResidualConvAutoencoder(block_size=8, ndim=3, channels=4, n_residual=2,
                                     n_compression=2, seed=0)
        comp = AEBCompressor(autoencoder=ae, seed=0)
        comp.train([field_3d], TrainingConfig(epochs=2, batch_size=16, seed=0), max_blocks=64)
        return comp

    def test_fixed_compression_ratio(self, trained_aeb, field_3d):
        # float32 input: the nominal ratio assumes equal-precision input/latents.
        result = trained_aeb.roundtrip(field_3d.astype(np.float32), 1e-3)
        # The ratio is fixed by the architecture (not by the error bound).
        assert result.compression_ratio == pytest.approx(trained_aeb.fixed_compression_ratio,
                                                         rel=0.35)

    def test_not_error_bounded(self, trained_aeb, field_3d):
        """AE-B ignores the requested bound — exactly the paper's criticism."""
        result_a = trained_aeb.compress(field_3d, 1e-2)
        result_b = trained_aeb.compress(field_3d, 1e-6)
        assert len(result_a) == len(result_b)

    def test_roundtrip_shape(self, trained_aeb, field_3d):
        recon = trained_aeb.decompress(trained_aeb.compress(field_3d))
        assert recon.shape == field_3d.shape


class TestLossless:
    def test_exact_roundtrip(self, small_2d):
        comp = LosslessCompressor()
        recon = comp.decompress(comp.compress(small_2d.astype(np.float32)))
        np.testing.assert_array_equal(recon, small_2d.astype(np.float32))

    def test_low_ratio_on_floating_point_data(self, small_2d):
        result = LosslessCompressor().roundtrip(small_2d.astype(np.float32), 0.0)
        assert result.compression_ratio < 4.0  # the ~2:1 regime the paper cites
