"""Tests for the AE-SZ compressor core (config, latent codec, pipeline)."""

import hashlib

import numpy as np
import pytest

from repro.autoencoders import AutoencoderConfig, SlicedWassersteinAutoencoder
from repro.core import (
    AESZCompressor,
    AESZConfig,
    CompressionStats,
    LatentCodec,
    default_autoencoder_config,
)
from repro.core.aesz import FLAG_AE, FLAG_LORENZO, FLAG_MEAN
from repro.core.config import PAPER_TABLE_VI
from repro.encoding.container import ByteContainer
from repro.metrics import psnr, verify_error_bound
from repro.predictors import (
    lorenzo_inverse_transform,
    lorenzo_predict,
    lorenzo_transform,
)
from repro.predictors.lorenzo import (
    _batched_lorenzo_inverse,
    _batched_lorenzo_predict,
    _batched_lorenzo_transform,
)


class TestAESZConfig:
    def test_defaults(self):
        cfg = AESZConfig()
        assert cfg.block_size == 32
        assert cfg.num_bins == 65536
        assert cfg.latent_error_bound_ratio == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            AESZConfig(block_size=0)
        with pytest.raises(ValueError):
            AESZConfig(num_bins=1)
        with pytest.raises(ValueError):
            AESZConfig(latent_error_bound_ratio=0.0)
        with pytest.raises(ValueError):
            AESZConfig(predictor_mode="nope")

    def test_default_autoencoder_config_scaled(self):
        cfg = default_autoencoder_config("CESM-CLDHGH")
        assert cfg.ndim == 2 and cfg.block_size == 32
        assert max(cfg.channels) < max(PAPER_TABLE_VI["CESM-CLDHGH"]["channels"])

    def test_default_autoencoder_config_paper_scale(self):
        cfg = default_autoencoder_config("Hurricane-U", scaled=False)
        assert cfg.channels == (32, 64, 128)
        assert cfg.latent_size == 8

    def test_unknown_field_raises(self):
        with pytest.raises(KeyError):
            default_autoencoder_config("NOPE-field")

    def test_table_vi_covers_all_evaluated_fields(self):
        for field in ["CESM-CLDHGH", "CESM-FREQSH", "EXAFEL-raw", "RTM-snapshot",
                      "NYX-baryon_density", "Hurricane-U", "Hurricane-QVAPOR"]:
            assert field in PAPER_TABLE_VI


class TestLatentCodec:
    def test_roundtrip_bound(self):
        rng = np.random.default_rng(0)
        latents = rng.normal(size=(40, 16)) * 3.0
        codec = LatentCodec()
        enc = codec.compress(latents, error_bound=0.05)
        decoded = codec.decompress(enc.payload)
        assert decoded.shape == latents.shape
        assert np.max(np.abs(decoded - latents)) <= 0.05 * (1 + 1e-12)
        np.testing.assert_array_equal(decoded, enc.decoded)

    def test_compression_shrinks_payload(self):
        rng = np.random.default_rng(1)
        latents = rng.normal(size=(200, 16))
        codec = LatentCodec()
        enc = codec.compress(latents, error_bound=0.1)
        assert enc.nbytes < latents.size * 4  # smaller than float32 storage

    def test_tighter_bound_costs_more_bytes(self):
        rng = np.random.default_rng(2)
        latents = rng.normal(size=(100, 8))
        codec = LatentCodec()
        loose = codec.compress(latents, error_bound=0.1).nbytes
        tight = codec.compress(latents, error_bound=0.001).nbytes
        assert tight > loose

    def test_row_subset_is_consistent(self):
        """Dropping rows must not change the decoded values of kept rows."""
        rng = np.random.default_rng(3)
        latents = rng.normal(size=(50, 8))
        codec = LatentCodec()
        full = codec.compress(latents, 0.05).decoded
        subset = codec.compress(latents[::2], 0.05).decoded
        np.testing.assert_array_equal(full[::2], subset)

    def test_invalid_inputs_raise(self):
        codec = LatentCodec()
        with pytest.raises(ValueError):
            codec.compress(np.zeros((3, 3)), 0.0)
        with pytest.raises(ValueError):
            codec.compress(np.zeros(5), 0.1)


class TestBatchedLorenzoHelpers:
    def test_transform_inverse_roundtrip(self):
        rng = np.random.default_rng(0)
        blocks = rng.integers(-100, 100, size=(5, 8, 8))
        np.testing.assert_array_equal(
            _batched_lorenzo_inverse(_batched_lorenzo_transform(blocks)), blocks)

    def test_batched_predict_matches_single_block(self):
        rng = np.random.default_rng(1)
        blocks = rng.normal(size=(4, 6, 6))
        batched = _batched_lorenzo_predict(blocks)
        for b in range(4):
            np.testing.assert_allclose(batched[b], lorenzo_predict(blocks[b]))

    def test_batched_predict_3d(self):
        rng = np.random.default_rng(2)
        blocks = rng.normal(size=(3, 4, 4, 4))
        batched = _batched_lorenzo_predict(blocks)
        for b in range(3):
            np.testing.assert_allclose(batched[b], lorenzo_predict(blocks[b]))


    @pytest.mark.parametrize("shape", [(9,), (6, 7), (4, 5, 3)])
    def test_single_field_functions_are_the_one_block_batch(self, shape):
        rng = np.random.default_rng(3)
        field = rng.normal(size=shape)
        grid = rng.integers(-100, 100, size=shape)
        np.testing.assert_array_equal(
            lorenzo_predict(field), _batched_lorenzo_predict(field[None])[0])
        diffs = lorenzo_transform(grid)
        np.testing.assert_array_equal(
            diffs, _batched_lorenzo_transform(grid[None])[0])
        np.testing.assert_array_equal(
            lorenzo_inverse_transform(diffs), _batched_lorenzo_inverse(diffs[None])[0])
        np.testing.assert_array_equal(lorenzo_inverse_transform(diffs), grid)


class TestCompressionStats:
    def test_fraction_and_ratio(self):
        stats = CompressionStats(n_blocks=10, n_ae_blocks=4, n_lorenzo_blocks=5,
                                 n_mean_blocks=1, compressed_bytes=100, original_bytes=1000)
        assert stats.ae_block_fraction == pytest.approx(0.4)
        assert stats.compression_ratio == pytest.approx(10.0)

    def test_empty_stats(self):
        stats = CompressionStats()
        assert stats.ae_block_fraction == 0.0
        assert stats.compression_ratio == float("inf")


class TestAESZPipeline2D:
    @pytest.mark.parametrize("eb", [1e-2, 1e-3, 1e-4])
    def test_error_bound_strictly_held(self, trained_aesz_2d, field_2d, eb):
        payload = trained_aesz_2d.compress(field_2d, eb)
        recon = trained_aesz_2d.decompress(payload)
        assert recon.shape == field_2d.shape
        assert verify_error_bound(field_2d, recon, eb) is None

    def test_smaller_bound_gives_higher_psnr_and_larger_stream(self, trained_aesz_2d, field_2d):
        loose = trained_aesz_2d.compress(field_2d, 1e-2)
        loose_psnr = psnr(field_2d, trained_aesz_2d.decompress(loose))
        tight = trained_aesz_2d.compress(field_2d, 1e-4)
        tight_psnr = psnr(field_2d, trained_aesz_2d.decompress(tight))
        assert tight_psnr > loose_psnr
        assert len(tight) > len(loose)

    def test_compression_actually_compresses(self, trained_aesz_2d, field_2d):
        payload = trained_aesz_2d.compress(field_2d, 1e-2)
        assert len(payload) < field_2d.size * 4

    def test_stats_populated(self, trained_aesz_2d, field_2d):
        trained_aesz_2d.compress(field_2d, 1e-2)
        stats = trained_aesz_2d.last_stats
        assert stats is not None
        assert stats.n_blocks == stats.n_ae_blocks + stats.n_lorenzo_blocks + stats.n_mean_blocks
        assert stats.compressed_bytes > 0

    def test_deterministic_compression(self, trained_aesz_2d, field_2d):
        a = trained_aesz_2d.compress(field_2d, 1e-3)
        b = trained_aesz_2d.compress(field_2d, 1e-3)
        assert a == b

    def test_decompression_is_deterministic(self, trained_aesz_2d, field_2d):
        payload = trained_aesz_2d.compress(field_2d, 1e-3)
        np.testing.assert_array_equal(trained_aesz_2d.decompress(payload),
                                      trained_aesz_2d.decompress(payload))

    def test_invalid_error_bound_raises(self, trained_aesz_2d, field_2d):
        with pytest.raises(ValueError):
            trained_aesz_2d.compress(field_2d, 0.0)

    def test_nan_input_raises(self, trained_aesz_2d):
        bad = np.full((16, 16), np.nan)
        with pytest.raises(ValueError):
            trained_aesz_2d.compress(bad, 1e-2)

    def test_non_multiple_shape_handled(self, trained_aesz_2d):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(19, 29))
        payload = trained_aesz_2d.compress(data, 1e-2)
        recon = trained_aesz_2d.decompress(payload)
        assert recon.shape == data.shape
        assert verify_error_bound(data, recon, 1e-2) is None


class TestAESZPipeline3D:
    @pytest.mark.parametrize("eb", [1e-2, 1e-3])
    def test_error_bound_strictly_held(self, trained_aesz_3d, field_3d, eb):
        payload = trained_aesz_3d.compress(field_3d, eb)
        recon = trained_aesz_3d.decompress(payload)
        assert verify_error_bound(field_3d, recon, eb) is None

    def test_stats_flags_partition(self, trained_aesz_3d, field_3d):
        trained_aesz_3d.compress(field_3d, 5e-3)
        stats = trained_aesz_3d.last_stats
        assert stats.n_blocks > 0
        assert 0.0 <= stats.ae_block_fraction <= 1.0


class TestPredictorModes:
    def _compressor(self, trained, mode):
        return AESZCompressor(trained.autoencoder,
                              AESZConfig(block_size=trained.config.block_size,
                                         predictor_mode=mode))

    @pytest.mark.parametrize("mode", ["ae", "lorenzo", "hybrid"])
    def test_all_modes_respect_bound(self, trained_aesz_2d, field_2d, mode):
        comp = self._compressor(trained_aesz_2d, mode)
        recon = comp.decompress(comp.compress(field_2d, 1e-2))
        assert verify_error_bound(field_2d, recon, 1e-2) is None

    def test_ae_mode_uses_only_ae_blocks(self, trained_aesz_2d, field_2d):
        comp = self._compressor(trained_aesz_2d, "ae")
        comp.compress(field_2d, 1e-2)
        assert comp.last_stats.n_ae_blocks == comp.last_stats.n_blocks

    def test_lorenzo_mode_uses_no_ae_blocks(self, trained_aesz_2d, field_2d):
        comp = self._compressor(trained_aesz_2d, "lorenzo")
        comp.compress(field_2d, 1e-2)
        assert comp.last_stats.n_ae_blocks == 0

    def test_hybrid_not_larger_than_both_ablations(self, trained_aesz_2d, field_2d):
        """Fig. 11: the combined predictor should be at least as good as either alone."""
        sizes = {}
        for mode in ["ae", "lorenzo", "hybrid"]:
            comp = self._compressor(trained_aesz_2d, mode)
            sizes[mode] = len(comp.compress(field_2d, 1e-2))
        assert sizes["hybrid"] <= 1.10 * min(sizes["ae"], sizes["lorenzo"])

    def test_block_size_mismatch_raises(self, trained_aesz_2d):
        with pytest.raises(ValueError):
            AESZCompressor(trained_aesz_2d.autoencoder, AESZConfig(block_size=16))


class TestConstantField:
    def test_constant_field_compresses_tiny_and_exact(self, trained_aesz_2d):
        data = np.full((32, 32), 7.5)
        payload = trained_aesz_2d.compress(data, 1e-3)
        recon = trained_aesz_2d.decompress(payload)
        assert np.max(np.abs(recon - data)) <= 1e-3
        assert len(payload) < data.size  # far below 1 byte per point


class TestDtypeHandling:
    """Regressions: stats assumed float32 input, decompress forced float64."""

    def test_float64_stats_use_real_itemsize(self, trained_aesz_2d, field_2d):
        trained_aesz_2d.compress(field_2d, 1e-3)
        stats = trained_aesz_2d.last_stats
        assert stats.original_bytes == field_2d.size * 8
        assert stats.original_dtype == "float64"

    def test_float32_input_roundtrips_to_float32(self, trained_aesz_2d, field_2d):
        data = field_2d.astype(np.float32)
        payload = trained_aesz_2d.compress(data, 1e-3)
        assert trained_aesz_2d.last_stats.original_bytes == data.size * 4
        assert trained_aesz_2d.last_stats.original_dtype == "float32"
        recon = trained_aesz_2d.decompress(payload)
        assert recon.dtype == np.float32
        vrange = float(data.max() - data.min())
        # The bound holds strictly: compress tightens the internal bound by
        # the worst-case float32 cast rounding, so no fudge factor is needed.
        assert np.max(np.abs(recon.astype(np.float64) - data)) <= 1e-3 * vrange

    def test_float32_restore_skipped_when_bound_unsafe(self, trained_aesz_2d):
        """At bounds near float32 precision the cast itself would violate the
        bound, so the reconstruction must stay float64 (and hold the bound)."""
        rng = np.random.default_rng(5)
        data = rng.uniform(0.0, 1.0, size=(16, 16)).astype(np.float32)
        payload = trained_aesz_2d.compress(data, 3e-8)
        recon = trained_aesz_2d.decompress(payload)
        assert recon.dtype == np.float64
        assert verify_error_bound(data.astype(np.float64), recon, 3e-8) is None

    def test_float32_near_max_does_not_overflow_to_inf(self, trained_aesz_2d):
        """Regression: reconstructions exceeding float32 max must stay float64
        finite instead of casting to inf."""
        rng = np.random.default_rng(6)
        data = (rng.uniform(0.5, 1.0, size=(16, 16)) * 3.4e38).astype(np.float32)
        recon = trained_aesz_2d.decompress(trained_aesz_2d.compress(data, 0.1))
        assert np.all(np.isfinite(recon))

    def test_legacy_payload_without_output_dtype_returns_float64(self, trained_aesz_2d,
                                                                 field_2d):
        """Seed-era payloads recorded meta["dtype"] without the bound-safety
        analysis; decompress must ignore it and return float64 as before."""
        from repro.encoding.container import ByteContainer
        payload = trained_aesz_2d.compress(field_2d.astype(np.float32), 1e-3)
        container = ByteContainer.from_bytes(payload)
        meta = container.get_json("meta")
        del meta["output_dtype"]  # emulate a seed-era stream
        container.put_json("meta", meta)
        recon = trained_aesz_2d.decompress(container.to_bytes())
        assert recon.dtype == np.float64

    def test_integer_input_decompresses_to_float64(self, trained_aesz_2d):
        data = np.arange(32 * 32, dtype=np.int32).reshape(32, 32)
        payload = trained_aesz_2d.compress(data, 1e-3)
        assert trained_aesz_2d.last_stats.original_bytes == data.size * 4
        assert trained_aesz_2d.decompress(payload).dtype == np.float64

    def test_float32_and_float64_inputs_agree(self, trained_aesz_2d, field_2d):
        """The pipeline quantizes in float64 regardless of the input dtype."""
        p32 = trained_aesz_2d.compress(field_2d.astype(np.float32), 1e-3)
        r32 = trained_aesz_2d.decompress(p32).astype(np.float64)
        vrange = float(field_2d.max() - field_2d.min())
        assert verify_error_bound(field_2d.astype(np.float32).astype(np.float64),
                                  r32, 1e-3 * (1 + 1e-6)) is None
        assert np.max(np.abs(r32 - field_2d)) <= 2e-3 * vrange


class TestHugeQuantizationCodes:
    def test_tiny_error_bound_wide_range_data(self, trained_aesz_2d):
        """Regression: Lorenzo integer codes >= 2**32 crashed the Huffman
        encoder with a bare struct.error at very small error bounds."""
        comp = AESZCompressor(trained_aesz_2d.autoencoder,
                              AESZConfig(block_size=trained_aesz_2d.config.block_size,
                                         predictor_mode="lorenzo"))
        rng = np.random.default_rng(0)
        data = rng.uniform(0.0, 1.0, size=(16, 16))
        payload = comp.compress(data, 1e-12)
        recon = comp.decompress(payload)
        assert verify_error_bound(data, recon, 1e-12) is None


class _MeanPoolAutoencoder:
    """Deterministic stand-in autoencoder for pinning AE-SZ's bytes.

    The latent is the means of the 2x2(x2) sub-blocks and decode upsamples
    them back.  Both directions are elementwise NumPy, so no BLAS call sits
    between the input field and the payload bytes.
    """

    def __init__(self, ndim: int, block_size: int):
        self.ndim = ndim
        self.config = AutoencoderConfig(ndim=ndim, block_size=block_size,
                                        latent_size=(block_size // 2) ** ndim,
                                        channels=(1,))

    def encode(self, blocks):
        pairs = blocks.reshape((blocks.shape[0],) + (self.config.block_size // 2, 2) * self.ndim)
        return pairs.mean(axis=tuple(range(2, 2 + 2 * self.ndim, 2))).reshape(
            blocks.shape[0], -1)

    def decode(self, latents):
        out = latents.reshape((latents.shape[0],) + (self.config.block_size // 2,) * self.ndim)
        for axis in range(1, self.ndim + 1):
            out = np.repeat(out, 2, axis=axis)
        return out


def _three_class_field(ndim: int, block_size: int, n_per_axis: int) -> np.ndarray:
    """Blocks cycling through 2x2-piecewise-constant (the stand-in AE's home),
    linear ramps (Lorenzo's) and constants (the block mean's), with one
    outlier per non-ramp block that is unpredictable at the tight bound
    with 64 bins."""
    rng = np.random.default_rng(ndim)
    out = np.empty((block_size * n_per_axis,) * ndim)
    ramp_grids = np.meshgrid(*[np.arange(block_size)] * ndim, indexing="ij")
    for idx in np.ndindex(*(n_per_axis,) * ndim):
        kind = sum(idx) % 3
        if kind == 0:
            block = rng.normal(size=(block_size // 2,) * ndim)
            for axis in range(ndim):
                block = np.repeat(block, 2, axis=axis)
            block = block + 1e-3 * rng.normal(size=block.shape)
        elif kind == 1:
            block = sum(g * rng.uniform(0.05, 0.2) for g in ramp_grids) + rng.normal()
        else:
            block = np.full((block_size,) * ndim, rng.normal())
        if kind != 1:
            block.flat[rng.integers(block.size)] += 0.5
        out[tuple(slice(i * block_size, (i + 1) * block_size) for i in idx)] = block
    return out


# sha256 of AE-SZ payloads: (ndim, predictor_mode, use_mean_lorenzo, bound).
_PINNED_AESZ_DIGESTS = {
    (2, "hybrid", True, 0.01):
        "721529b91d96154192450228ed55e6b82221c2b30b679fb886b8514120fe5769",
    (2, "hybrid", True, 0.0001):
        "f32bfb4df6c04705e765a7cfb7dfcb22a9980ae394529db9de64684dcc5e4bdf",
    (2, "hybrid", False, 0.01):
        "a662cbede19cacbb777a52b013f7fc59366ae11ee813b520d97771958463f09c",
    (2, "hybrid", False, 0.0001):
        "f32bfb4df6c04705e765a7cfb7dfcb22a9980ae394529db9de64684dcc5e4bdf",
    (2, "ae", True, 0.01):
        "cff4a929db4185467d5fe5a0f7a2877da42a1b3e3dc1a73c8028af7c0ce7d045",
    (2, "ae", True, 0.0001):
        "2695bf98ad92ee57e915204eb4c81abca7b9326a560dcc8f46f6016c99600a0d",
    (2, "ae", False, 0.01):
        "cff4a929db4185467d5fe5a0f7a2877da42a1b3e3dc1a73c8028af7c0ce7d045",
    (2, "ae", False, 0.0001):
        "2695bf98ad92ee57e915204eb4c81abca7b9326a560dcc8f46f6016c99600a0d",
    (2, "lorenzo", True, 0.01):
        "dee3257e91c7bbc0d0707194cc4853b9317e10035708c0a5b1ab254873160d1b",
    (2, "lorenzo", True, 0.0001):
        "377cc24939eaa5454e371c10e86d61b528f98c223e23c0571a80f544d039a0b8",
    (2, "lorenzo", False, 0.01):
        "790b89e08d0c41f335d99b724c543d81cfe140eaf5a6a545a84c4a478c991e25",
    (2, "lorenzo", False, 0.0001):
        "6e2ed47e1fedacdb8714ebd0459bbb5087376d5c41c96ae5203c1d29afb750ed",
    (3, "hybrid", True, 0.01):
        "56b61ee84bca554a53e928455f6cf4c22b0168dcdc70959f6604c2741f51afc9",
    (3, "hybrid", True, 0.0001):
        "d4d06e6413e27f33b6f55bef03e2bec68704580ca294f08297a26c79c46a622f",
    (3, "hybrid", False, 0.01):
        "abb09f2c264a129308570d23e3aef04f0176acfb363959856fe8113ee2c6c14a",
    (3, "hybrid", False, 0.0001):
        "d4d06e6413e27f33b6f55bef03e2bec68704580ca294f08297a26c79c46a622f",
    (3, "ae", True, 0.01):
        "13f25a8c66be3f566742821ce8856eb4249717a8f40ccde558576f29bb7d5219",
    (3, "ae", True, 0.0001):
        "0096fba98d6eefbbb1d0c86d4e106de585b847d192511992f39b88838181e06c",
    (3, "ae", False, 0.01):
        "13f25a8c66be3f566742821ce8856eb4249717a8f40ccde558576f29bb7d5219",
    (3, "ae", False, 0.0001):
        "0096fba98d6eefbbb1d0c86d4e106de585b847d192511992f39b88838181e06c",
    (3, "lorenzo", True, 0.01):
        "e182f7762cef077c969e603d3475795375fe6ff98980597ba0d33c6485b92f9f",
    (3, "lorenzo", True, 0.0001):
        "66ed3281208c4e1de9069e673375800ea40d4cbc931ea101062ede6d86d5f756",
    (3, "lorenzo", False, 0.01):
        "b3f391f436817230f9e12bfd695ecc073eed3de2ec5995a1e7671af91c7d3c29",
    (3, "lorenzo", False, 0.0001):
        "6261b3f4e882004ab68423d77f3b1d84f6519ed3e3381360f41fb632db461039",
}


class TestPinnedEncodeBytes:
    """AE-SZ's encode bytes, pinned over predictor mode x mean-Lorenzo x bound
    for a 2-D and a 3-D field (the goldens only decode one AE-SZ archive)."""

    CASES = [(2, 8, 4), (3, 4, 3)]  # (ndim, block size, blocks per axis)

    def test_payload_digests(self):
        seen = {"ae": 0, "lorenzo": 0, "mean": 0}
        digests = {}
        for ndim, block_size, n_per_axis in self.CASES:
            data = _three_class_field(ndim, block_size, n_per_axis)
            for mode in ("hybrid", "ae", "lorenzo"):
                for use_mean in (True, False):
                    for bound in (1e-2, 1e-4):
                        comp = AESZCompressor(
                            _MeanPoolAutoencoder(ndim, block_size),
                            AESZConfig(block_size=block_size, predictor_mode=mode,
                                       use_mean_lorenzo=use_mean, num_bins=64))
                        payload = comp.compress(data, bound)
                        assert verify_error_bound(data, comp.decompress(payload), bound) is None
                        digests[(ndim, mode, use_mean, bound)] = hashlib.sha256(
                            payload).hexdigest()
                        stats = comp.last_stats
                        seen["ae"] += stats.n_ae_blocks
                        seen["lorenzo"] += stats.n_lorenzo_blocks
                        seen["mean"] += stats.n_mean_blocks
        assert min(seen.values()) > 0, seen
        assert digests == _PINNED_AESZ_DIGESTS


def _set_first(value):
    def edit(symbols):
        symbols = symbols.copy()
        symbols[0] = value
        return symbols
    return edit


def _ragged(values: np.ndarray) -> np.ndarray:
    """A float64 section's bytes plus one: no longer a whole number of floats."""
    return np.append(values.view(np.uint8), np.uint8(7))


class TestCorruptPayload:
    """Damaged AE-SZ sections raise ``corrupt payload`` instead of decoding to
    wrong values or failing inside numpy.  Each case re-encodes one section
    through the codec's own coders, so only the content is damaged."""

    @pytest.fixture(scope="class")
    def compressed(self):
        comp = AESZCompressor(_MeanPoolAutoencoder(2, 8),
                              AESZConfig(block_size=8, num_bins=64))
        payload = comp.compress(_three_class_field(2, 8, 4), 1e-2)
        stats = comp.last_stats
        assert min(stats.n_ae_blocks, stats.n_lorenzo_blocks, stats.n_mean_blocks) > 0
        return comp, payload

    @staticmethod
    def _tampered(comp, payload, section, edit):
        container = ByteContainer.from_bytes(payload)
        if section == "latents":
            rows = comp.latent_codec.decompress(container[section])
            bound = container.get_json("meta")["latent_error_bound"]
            container[section] = comp.latent_codec.compress(edit(rows), bound).payload
        elif section in ("means", "ae_unpred", "mean_unpred"):
            values = np.frombuffer(comp._entropy.backend.decompress(container[section]),
                                   dtype=np.float64)
            container[section] = comp._entropy.backend.compress(edit(values).tobytes())
        else:
            container[section] = comp._entropy.encode(
                edit(comp._entropy.decode(container[section])))
        return container.to_bytes()

    @pytest.mark.parametrize("section,edit,message", [
        pytest.param("flags", lambda f: f[:-1],
                     "stream sizes do not match the block grid", id="flags-short"),
        pytest.param("flags", _set_first(3),
                     "unknown block predictor flag", id="flags-unknown"),
        pytest.param("ae_codes", _set_first(10 ** 12),
                     "quantization code out of range", id="ae_codes-range"),
        pytest.param("ae_codes", lambda c: c[:-3],
                     "stream sizes do not match the block grid", id="ae_codes-short"),
        pytest.param("ae_unpred", lambda u: np.append(u, 0.0),
                     "unpredictable-value stream size mismatch", id="ae_unpred-extra"),
        pytest.param("mean_codes", _set_first(10 ** 12),
                     "quantization code out of range", id="mean_codes-range"),
        pytest.param("mean_codes", lambda c: c[:-3],
                     "stream sizes do not match the block grid", id="mean_codes-short"),
        pytest.param("lorenzo_codes", lambda c: c[:-3],
                     "code stream size mismatch", id="lorenzo_codes-short"),
        pytest.param("latents", lambda rows: rows[:-2],
                     "latent rows do not match the AE blocks", id="latents-short"),
        pytest.param("means", lambda m: np.append(m, 1.0),
                     "float64 section holds", id="means-extra"),
        pytest.param("means", _ragged, "float64 section length", id="means-ragged"),
        pytest.param("ae_unpred", _ragged, "float64 section length", id="ae_unpred-ragged"),
        pytest.param("mean_unpred", _ragged, "float64 section length", id="mean_unpred-ragged"),
    ])
    def test_damaged_section_raises_corrupt(self, compressed, section, edit, message):
        comp, payload = compressed
        np.testing.assert_array_equal(comp.decompress(payload),
                                      comp.decompress(self._tampered(comp, payload, section,
                                                                     lambda x: x)))
        with pytest.raises(ValueError, match="corrupt payload: " + message):
            comp.decompress(self._tampered(comp, payload, section, edit))
