"""AE-A: the fully-connected scientific-data autoencoder of Liu et al. (2021).

The original model flattens the data into 1-D segments and uses three
fully-connected layers in the encoder (and mirrored decoder), each shrinking
the layer size by 8x, for an overall 512x reduction before any entropy coding.
This reproduction keeps the layer structure and the per-layer reduction factor
configurable (so the scaled-down CPU defaults remain faithful in shape), and is
wrapped by :class:`repro.compressors.ae_a.AEACompressor` for the error-bounded
comparison in the paper's evaluation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autoencoders.base import BlockAutoencoder
from repro.autoencoders.config import AutoencoderConfig
from repro.nn.layers.activations import LeakyReLU, Tanh
from repro.nn.layers.dense import Dense
from repro.nn.module import Module, as_compute
from repro.nn.network import Sequential
from repro.utils.rng import spawn_rngs


class _FlattenChannel(Module):
    """(N, 1, L) -> (N, L) adapter so the dense stack matches the block interface."""

    def forward(self, x: np.ndarray, training: Optional[bool] = None) -> np.ndarray:
        x = as_compute(x)
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return np.asarray(grad).reshape(self._shape)


class _UnflattenChannel(Module):
    """(N, L) -> (N, 1, L) adapter at the decoder output."""

    def __init__(self, length: int):
        self.length = int(length)

    def forward(self, x: np.ndarray, training: Optional[bool] = None) -> np.ndarray:
        x = as_compute(x)
        return x.reshape(x.shape[0], 1, self.length)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        grad = np.asarray(grad)
        return grad.reshape(grad.shape[0], self.length)


class FullyConnectedAutoencoder(BlockAutoencoder):
    """Three fully-connected layers per side, each reducing/expanding by ``reduction``."""

    def __init__(self, segment_length: int = 512, reduction: int = 8, n_layers: int = 3,
                 seed: int = 0):
        if segment_length <= 0:
            raise ValueError("segment_length must be positive")
        if reduction <= 1:
            raise ValueError("reduction must be > 1")
        if n_layers <= 0:
            raise ValueError("n_layers must be positive")
        if segment_length % (reduction**n_layers) != 0:
            raise ValueError(
                f"segment_length {segment_length} must be divisible by "
                f"reduction^{n_layers} = {reduction**n_layers}"
            )
        latent = segment_length // (reduction**n_layers)
        config = AutoencoderConfig(ndim=1, block_size=segment_length, latent_size=latent,
                                   channels=(1,) * n_layers, seed=seed)
        rngs = spawn_rngs(seed, 2 * n_layers)
        sizes = [segment_length // (reduction**i) for i in range(n_layers + 1)]

        enc_layers: list = [_FlattenChannel()]
        for i in range(n_layers):
            enc_layers.append(Dense(sizes[i], sizes[i + 1], rng=rngs[i]))
            if i + 1 < n_layers:
                enc_layers.append(LeakyReLU(0.2))
        encoder = Sequential(*enc_layers)

        dec_layers: list = []
        for i in range(n_layers, 0, -1):
            dec_layers.append(Dense(sizes[i], sizes[i - 1], rng=rngs[n_layers + i - 1]))
            if i > 1:
                dec_layers.append(LeakyReLU(0.2))
        dec_layers.append(Tanh())
        dec_layers.append(_UnflattenChannel(segment_length))
        decoder = Sequential(*dec_layers)

        super().__init__(encoder, decoder, config)
        self.segment_length = int(segment_length)
        self.reduction = int(reduction)
        self.n_layers = int(n_layers)

    @property
    def nominal_compression_ratio(self) -> float:
        """The fixed reduction ratio of the latent representation (512x in the paper)."""
        return float(self.reduction**self.n_layers)
