"""AE-B: the residual convolutional turbulence autoencoder of Glaws et al. (2020).

The original network compresses 3D turbulence blocks at a fixed 64:1 ratio
using 12 residual blocks and 3 strided "compression" layers per side; it is not
error bounded.  This reproduction keeps the structure (residual blocks +
stride-2 compression stages, mirrored decoder) with configurable depth/width so
it trains on CPU, and reproduces the two properties the paper relies on:
a fixed compression ratio and unbounded pointwise error.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.autoencoders.base import BlockAutoencoder
from repro.autoencoders.config import AutoencoderConfig
from repro.autoencoders.conv_ae import _conv_cls
from repro.nn.layers.activations import ReLU, Tanh
from repro.nn.module import Module
from repro.nn.network import Sequential
from repro.utils.rng import spawn_rngs


class ResidualBlock(Module):
    """Conv -> ReLU -> Conv with an identity skip connection."""

    def __init__(self, channels: int, ndim: int, rng=None):
        conv_cls, _ = _conv_cls(ndim)
        self.conv1 = conv_cls(channels, channels, 3, stride=1, padding=1, rng=rng)
        self.relu = ReLU()
        self.conv2 = conv_cls(channels, channels, 3, stride=1, padding=1, rng=rng)

    def forward(self, x: np.ndarray, training: Optional[bool] = None) -> np.ndarray:
        out = self.conv1.forward(x, training=training)
        out = self.relu.forward(out, training=training)
        out = self.conv2.forward(out, training=training)
        return x + out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        g = self.conv2.backward(grad)
        g = self.relu.backward(g)
        g = self.conv1.backward(g)
        return grad + g


class ResidualConvAutoencoder(BlockAutoencoder):
    """Residual convolutional AE with a fixed compression ratio (AE-B comparator).

    The latent is a downsampled feature map (not a flat vector); the fixed
    compression ratio equals ``block_elements / latent_elements`` where the
    latent keeps ``latent_channels`` channels at ``1/2**n_compression`` of the
    spatial resolution.
    """

    def __init__(self, block_size: int = 16, ndim: int = 3, channels: int = 8,
                 latent_channels: int = 1, n_residual: int = 4, n_compression: int = 2,
                 seed: int = 0):
        if block_size % (2**n_compression) != 0:
            raise ValueError(
                f"block_size {block_size} must be divisible by 2^{n_compression}"
            )
        config = AutoencoderConfig(ndim=ndim, block_size=block_size,
                                   latent_size=latent_channels *
                                   (block_size // (2**n_compression)) ** ndim,
                                   channels=(channels,) * n_compression, seed=seed)
        conv_cls, deconv_cls = _conv_cls(ndim)
        rngs = spawn_rngs(seed, 4 * n_compression + 2 * n_residual + 4)
        r = iter(rngs)

        enc_layers: list = [conv_cls(1, channels, 3, stride=1, padding=1, rng=next(r))]
        for _ in range(max(1, n_residual // 2)):
            enc_layers.append(ResidualBlock(channels, ndim, rng=next(r)))
        for i in range(n_compression):
            out_ch = latent_channels if i == n_compression - 1 else channels
            enc_layers.append(conv_cls(channels, out_ch, 3, stride=2, padding=1, rng=next(r)))
            if i < n_compression - 1:
                enc_layers.append(ReLU())
        encoder = Sequential(*enc_layers)

        dec_layers: list = []
        for i in range(n_compression):
            in_ch = latent_channels if i == 0 else channels
            dec_layers.append(deconv_cls(in_ch, channels, 3, stride=2, padding=1,
                                         output_padding=1, rng=next(r)))
            dec_layers.append(ReLU())
        for _ in range(max(1, n_residual // 2)):
            dec_layers.append(ResidualBlock(channels, ndim, rng=next(r)))
        dec_layers.append(conv_cls(channels, 1, 3, stride=1, padding=1, rng=next(r)))
        dec_layers.append(Tanh())
        decoder = Sequential(*dec_layers)

        super().__init__(encoder, decoder, config)
        self.latent_channels = int(latent_channels)
        self.n_compression = int(n_compression)
        self.n_residual = int(n_residual)
        self.conv_channels = int(channels)

    # The latent is a feature map; flatten it for storage.
    def _encode_chunk(self, blocks: np.ndarray) -> np.ndarray:
        feat = super()._encode_chunk(blocks)
        return feat.reshape(feat.shape[0], -1)

    def _decode_chunk(self, latents: np.ndarray) -> np.ndarray:
        spatial = self.config.block_size // (2**self.n_compression)
        shape = (latents.shape[0], self.latent_channels) + (spatial,) * self.config.ndim
        return super()._decode_chunk(latents.reshape(shape))

    @property
    def fixed_compression_ratio(self) -> float:
        """Input elements per latent element (64 in the original AE-B)."""
        return self.config.block_elements / float(self.config.latent_size)
