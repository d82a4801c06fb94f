"""The conv kernels against an independent reference, and the contracts AE-SZ
puts on inference: a block is computed the same way in any batch, nothing is
kept after an inference-mode forward, and one model serves many threads."""

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro
from repro import Rel
from repro.autoencoders import AutoencoderConfig, SlicedWassersteinAutoencoder
from repro.core import AESZCompressor, AESZConfig
from repro.metrics import verify_error_bound
from repro.nn import Dense
from repro.nn.layers.conv import ConvNd
from repro.nn.layers.conv_transpose import ConvTransposeNd
from repro.nn.module import Module


# ------------------------------------------------------------ naive references
def naive_conv(x, w, b, stride, padding):
    """``ConvNd.forward`` as nested loops: every output position x kernel offset."""
    nd = x.ndim - 2
    xp = np.pad(x, [(0, 0), (0, 0)] + [(padding, padding)] * nd)
    kernel = w.shape[2:]
    out_spatial = tuple((xp.shape[2 + a] - kernel[a]) // stride + 1 for a in range(nd))
    out = np.zeros((x.shape[0], w.shape[0]) + out_spatial)
    for pos in np.ndindex(*out_spatial):
        for off in np.ndindex(*kernel):
            src = tuple(p * stride + o for p, o in zip(pos, off))
            for f in range(w.shape[0]):
                for c in range(w.shape[1]):
                    out[(slice(None), f) + pos] += (xp[(slice(None), c) + src]
                                                    * w[(f, c) + off])
    if b is not None:
        out += b.reshape((1, -1) + (1,) * nd)
    return out


def naive_conv_transpose(x, w, b, stride, padding, output_padding):
    """``ConvTransposeNd.forward`` as nested loops: every input position scatters."""
    nd = x.ndim - 2
    kernel = w.shape[2:]
    out_spatial = tuple((x.shape[2 + a] - 1) * stride - 2 * padding + kernel[a] + output_padding
                        for a in range(nd))
    out = np.zeros((x.shape[0], w.shape[1]) + out_spatial)
    for pos in np.ndindex(*x.shape[2:]):
        for off in np.ndindex(*kernel):
            dst = tuple(p * stride + o - padding for p, o in zip(pos, off))
            if any(d < 0 or d >= size for d, size in zip(dst, out_spatial)):
                continue
            for ci in range(w.shape[0]):
                for co in range(w.shape[1]):
                    out[(slice(None), co) + dst] += (x[(slice(None), ci) + pos]
                                                     * w[(ci, co) + off])
    if b is not None:
        out += b.reshape((1, -1) + (1,) * nd)
    return out


class TestKernelsAgainstNaiveReference:
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_conv_forward(self, ndim, stride, padding, bias):
        rng = np.random.default_rng(ndim * 100 + stride * 10 + padding)
        layer = ConvNd(ndim, 2, 3, 3, stride=stride, padding=padding, bias=bias, rng=rng)
        if bias:
            layer.bias.value[...] = rng.normal(size=3)
        x = rng.normal(size=(2, 2) + (6, 5, 7)[:ndim])
        expected = naive_conv(x, layer.weight.value, layer.bias.value if bias else None,
                              stride, padding)
        np.testing.assert_allclose(layer.forward(x), expected, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("stride,output_padding", [(1, 0), (2, 0), (2, 1)])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_conv_transpose_forward(self, ndim, padding, stride, output_padding, bias):
        rng = np.random.default_rng(ndim * 100 + stride * 10 + padding)
        layer = ConvTransposeNd(ndim, 3, 2, 3, stride=stride, padding=padding,
                                output_padding=output_padding, bias=bias, rng=rng)
        if bias:
            layer.bias.value[...] = rng.normal(size=2)
        x = rng.normal(size=(2, 3) + (4, 3, 5)[:ndim])
        expected = naive_conv_transpose(x, layer.weight.value,
                                        layer.bias.value if bias else None,
                                        stride, padding, output_padding)
        np.testing.assert_allclose(layer.forward(x), expected, rtol=1e-12, atol=1e-14)


# ------------------------------------------------------------ batch invariance
SUBSET_SIZES = (1, 2, 3, 7, 31, 32, 33, 70)


class TestBatchInvariance:
    """AE-SZ decodes the AE-selected blocks at decompression in another batch
    than compression predicted them in, so equality must be bitwise."""

    def test_dense_row_is_independent_of_its_batch(self):
        rng = np.random.default_rng(0)
        layer = Dense(64, 8, rng=rng)
        x = rng.normal(size=(70, 64))
        full = layer.forward(x, training=False)
        for i in (0, 33, 69):
            assert np.array_equal(layer.forward(x[i:i + 1], training=False)[0], full[i])

    @pytest.mark.parametrize("ndim,block_size", [(3, 8), (2, 32)])
    def test_encode_decode_of_a_subset_equal_the_subset_of_the_batch(self, ndim, block_size):
        ae = SlicedWassersteinAutoencoder(AutoencoderConfig(
            ndim=ndim, block_size=block_size, latent_size=8, channels=(4, 8)))
        rng = np.random.default_rng(1)
        blocks = 0.3 * rng.normal(size=(70,) + (block_size,) * ndim)
        latents = ae.encode(blocks)
        decoded = ae.decode(latents)
        for size in SUBSET_SIZES:
            idx = np.sort(rng.choice(70, size=size, replace=False))
            assert np.array_equal(ae.encode(blocks[idx]), latents[idx]), size
            assert np.array_equal(ae.decode(latents[idx]), decoded[idx]), size

    @pytest.mark.parametrize("shape", [(8, 8), (24, 88)], ids=["1-block", "33-blocks"])
    def test_ae_only_roundtrip_is_the_same_one_block_at_a_time(self, trained_aesz_2d, shape,
                                                               monkeypatch):
        ae = trained_aesz_2d.autoencoder
        comp = AESZCompressor(ae, AESZConfig(block_size=8, predictor_mode="ae"))
        rng = np.random.default_rng(2)
        data = np.cumsum(rng.normal(size=shape), axis=-1)
        payload = comp.compress(data, 1e-3)
        assert comp.last_stats.n_ae_blocks == comp.last_stats.n_blocks == np.prod(shape) // 64
        together = comp.decompress(payload)
        assert verify_error_bound(data, together, 1e-3) is None

        decode = ae.decode
        monkeypatch.setattr(ae, "decode", lambda latents: np.concatenate(
            [decode(latents[i:i + 1]) for i in range(latents.shape[0])], axis=0))
        assert np.array_equal(comp.decompress(payload), together)


# -------------------------------------------------- inference keeps no activation
def _held_arrays(module: Module):
    """Arrays a module tree references besides its parameters."""
    held = []
    for value in module.__dict__.values():
        if isinstance(value, Module):
            held += _held_arrays(value)
        elif isinstance(value, (list, tuple)):
            for item in value:
                if isinstance(item, Module):
                    held += _held_arrays(item)
                elif isinstance(item, np.ndarray):
                    held.append(item)
        elif isinstance(value, np.ndarray):
            held.append(value)
    return held


class TestInferenceKeepsNothing:
    @pytest.fixture
    def autoencoder(self):
        return SlicedWassersteinAutoencoder(AutoencoderConfig(
            ndim=3, block_size=8, latent_size=8, channels=(4, 8)))

    def test_no_layer_references_an_array_after_encode_and_decode(self, autoencoder):
        blocks = np.random.default_rng(0).normal(size=(5, 8, 8, 8))
        autoencoder.train_step(blocks)  # every layer now holds its activations
        assert _held_arrays(autoencoder.encoder) and _held_arrays(autoencoder.decoder)
        autoencoder.decode(autoencoder.encode(blocks))
        assert _held_arrays(autoencoder.encoder) == []
        assert _held_arrays(autoencoder.decoder) == []

    def test_backward_after_an_inference_forward_raises(self, autoencoder):
        latents = autoencoder.encode(np.zeros((2, 8, 8, 8)))
        with pytest.raises(RuntimeError, match="backward called before forward"):
            autoencoder.encoder.backward(np.zeros_like(latents))

    def test_compress_peak_memory_is_bounded(self, autoencoder):
        data = np.random.default_rng(0).normal(size=(48, 48, 48))
        autoencoder.fit_normalization(data)
        comp = AESZCompressor(autoencoder, AESZConfig(block_size=8))
        comp.compress(data, 1e-2)  # imports and one-time tables are not the claim
        tracemalloc.start()
        try:
            comp.compress(data, 1e-2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 271 MB before inference stopped pinning 216-block patch matrices.
        assert peak < 64e6, f"compress peaked at {peak / 1e6:.0f} MB for a 0.88 MB field"


# ------------------------------------------------------------------ re-entrancy
def test_four_threads_sharing_one_autoencoder_decode_the_serial_bits(trained_aesz_2d, field_2d):
    """The store's worker pool and ``decode_workers=`` share one model
    instance, which is why no layer may own a scratch buffer."""
    ae = trained_aesz_2d.autoencoder
    blob = repro.compress(field_2d, codec=trained_aesz_2d, bound=Rel(1e-3), embed_model=False)
    serial = repro.decompress(blob, autoencoder=ae)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(repro.decompress, blob, autoencoder=ae) for _ in range(8)]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for recon in results:
        assert np.array_equal(recon, serial)
