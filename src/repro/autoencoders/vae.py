"""Variational autoencoders (VAE, beta-VAE, LogCosh-VAE comparators of Table I).

The encoder trunk is the same convolutional stack as AE-SZ's network; two
fully-connected heads produce the posterior mean and log-variance.  During
training the latent is sampled with the reparameterization trick; for
compression/prediction the deterministic mean is used (the paper points out
that the sampling makes VAEs unstable as compressors — reproducible here by
comparing ``encode`` against ``sample_latent``).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.autoencoders.base import BlockAutoencoder
from repro.autoencoders.config import AutoencoderConfig
from repro.autoencoders.conv_ae import build_decoder, build_encoder
from repro.autoencoders.divergences import kl_standard_normal
from repro.nn.layers.dense import Dense
from repro.nn.losses import LogCoshLoss, Loss, MSELoss
from repro.nn.module import Module
from repro.nn.network import Sequential
from repro.utils.rng import as_rng


class GaussianEncoder(Module):
    """Convolutional trunk with mean / log-variance heads.

    ``forward`` returns the posterior mean (the deterministic encoding used for
    prediction); :meth:`forward_distribution` returns both heads for training.
    """

    def __init__(self, config: AutoencoderConfig):
        full = build_encoder(config)
        # Split off the final Dense layer: everything before it is the trunk.
        self.trunk = Sequential(*full.layers[:-1])
        bottleneck = config.bottleneck_features
        self.mu_head = Dense(bottleneck, config.latent_size, rng=config.seed + 101)
        self.logvar_head = Dense(bottleneck, config.latent_size, rng=config.seed + 202)

    def forward(self, x: np.ndarray, training: Optional[bool] = None) -> np.ndarray:
        h = self.trunk.forward(x, training=training)
        return self.mu_head.forward(h, training=training)

    def forward_distribution(self, x: np.ndarray, training: Optional[bool] = None
                             ) -> Tuple[np.ndarray, np.ndarray]:
        h = self.trunk.forward(x, training=training)
        mu = self.mu_head.forward(h, training=training)
        logvar = self.logvar_head.forward(h, training=training)
        return mu, logvar

    def backward(self, grad: np.ndarray) -> np.ndarray:
        # Deterministic path (mean head only); used if a caller backprops
        # through ``forward``.
        grad_h = self.mu_head.backward(grad)
        return self.trunk.backward(grad_h)

    def backward_distribution(self, grad_mu: np.ndarray, grad_logvar: np.ndarray) -> np.ndarray:
        grad_h = self.mu_head.backward(grad_mu) + self.logvar_head.backward(grad_logvar)
        return self.trunk.backward(grad_h)


class VariationalAutoencoder(BlockAutoencoder):
    """Standard VAE with a configurable KL weight (``beta = 1``)."""

    def __init__(self, config: AutoencoderConfig, beta: float = 1.0,
                 reconstruction_loss: Optional[Loss] = None):
        encoder = GaussianEncoder(config)
        decoder = build_decoder(config)
        super().__init__(encoder, decoder, config, reconstruction_loss or MSELoss())
        if beta < 0:
            raise ValueError("beta must be non-negative")
        self.beta = float(beta)
        # KL weight is scaled down relative to the per-element reconstruction
        # loss so neither term vanishes for large blocks.
        self.kl_scale = 1.0 / config.block_elements

    # The sampled path (used only during training / stability experiments).
    def sample_latent(self, blocks: np.ndarray, rng=None) -> np.ndarray:
        """Sample z ~ q(z|x); differs between calls, unlike :meth:`encode`."""
        rng = as_rng(rng if rng is not None else self._rng)
        x = self.normalize(self._with_channel(np.asarray(blocks, dtype=np.float64)))
        mu, logvar = self.encoder.forward_distribution(x, training=False)
        eps = rng.normal(size=mu.shape)
        return mu + np.exp(0.5 * logvar) * eps

    def extra_latent_penalty(self, mu: np.ndarray, logvar: np.ndarray, z: np.ndarray
                             ) -> Tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        """Hook for subclasses (DIP-VAE, Info-VAE): extra loss + grads on (mu, logvar, z)."""
        return 0.0, np.zeros_like(mu), np.zeros_like(logvar), np.zeros_like(z)

    def train_step(self, batch: np.ndarray) -> float:
        x = self.normalize(self._with_channel(batch))
        mu, logvar = self.encoder.forward_distribution(x, training=True)
        logvar = np.clip(logvar, -10.0, 10.0)
        eps = self._rng.normal(size=mu.shape).astype(mu.dtype, copy=False)
        std = np.exp(0.5 * logvar)
        z = mu + std * eps

        recon = self.decoder.forward(z, training=True)
        rec_loss, grad_recon = self.reconstruction_loss(recon, x)
        kl, grad_mu_kl, grad_logvar_kl, = kl_standard_normal(mu, logvar)
        extra_loss, grad_mu_x, grad_logvar_x, grad_z_x = self.extra_latent_penalty(mu, logvar, z)

        grad_z = self.decoder.backward(grad_recon) + grad_z_x
        w = self.beta * self.kl_scale
        grad_mu = grad_z + w * grad_mu_kl + grad_mu_x
        grad_logvar = grad_z * eps * 0.5 * std + w * grad_logvar_kl + grad_logvar_x
        self.encoder.backward_distribution(grad_mu, grad_logvar)
        return float(rec_loss + w * kl + extra_loss)


class BetaVAE(VariationalAutoencoder):
    """beta-VAE (Higgins et al., 2016): a VAE with an up-weighted KL term."""

    def __init__(self, config: AutoencoderConfig, beta: float = 4.0):
        super().__init__(config, beta=beta)


class LogCoshVAE(VariationalAutoencoder):
    """LogCosh-VAE (Chen et al., 2018): VAE with a log-cosh reconstruction loss."""

    def __init__(self, config: AutoencoderConfig, beta: float = 1.0):
        super().__init__(config, beta=beta, reconstruction_loss=LogCoshLoss())
