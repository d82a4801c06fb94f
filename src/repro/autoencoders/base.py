"""Base class shared by every autoencoder in the zoo."""

from __future__ import annotations

import json
import os
from typing import Callable, Optional, Tuple, Union

import numpy as np

from repro.autoencoders.config import AutoencoderConfig
from repro.nn.losses import Loss, MSELoss
from repro.nn.module import Module, as_compute
from repro.nn.serialization import load_state_dict, state_dict
from repro.utils.rng import as_rng

PathLike = Union[str, os.PathLike]

# Blocks per network pass in ``encode`` / ``decode``.  Chosen for cache
# residency, not memory alone: on AE-SZ's default 3-D net (8^3 blocks, 216 of
# them) encode/decode take 64/89 ms at 4, 25/46 at 16, 22/44 at 32, 20/49 at
# 64 and 22/66 ms unchunked; the widest patch matrix is 0.44 MB per block.
_CHUNK = 32


def _in_chunks(fn: Callable[[np.ndarray], np.ndarray], batch: np.ndarray) -> np.ndarray:
    """``fn`` over ``batch`` in ``_CHUNK``-row pieces, results joined along axis 0."""
    if batch.shape[0] <= _CHUNK:
        return fn(batch)
    return np.concatenate(
        [fn(batch[start:start + _CHUNK]) for start in range(0, batch.shape[0], _CHUNK)], axis=0)


class BlockAutoencoder(Module):
    """Encoder/decoder pair operating on fixed-size data blocks.

    Input blocks are linearly normalized to ``[-1, 1]`` using the global
    min/max of the training data (paper Section IV-B) before entering the
    network; predictions are denormalized on the way out.

    :meth:`encode` and :meth:`decode` accept any number of blocks: they run
    the network ``_CHUNK`` blocks at a time, so memory is bounded whatever the
    caller passes, and every layer computes each block with its own
    same-shaped GEMMs, so a block's result is bitwise the same in any batch.

    Sub-classes customize training by overriding :meth:`latent_regularizer`
    (returning a loss and its gradient with respect to the latent batch)
    and/or :attr:`reconstruction_loss`; a sub-class whose latent is not a flat
    vector overrides :meth:`_encode_chunk` / :meth:`_decode_chunk`.
    """

    def __init__(self, encoder: Module, decoder: Module, config: AutoencoderConfig,
                 reconstruction_loss: Optional[Loss] = None):
        self.encoder = encoder
        self.decoder = decoder
        self.config = config
        self.reconstruction_loss: Loss = reconstruction_loss or MSELoss()
        self.norm_min: float = -1.0
        self.norm_max: float = 1.0
        self._rng = as_rng(config.seed)

    # ---------------------------------------------------------- normalization
    def fit_normalization(self, data: np.ndarray) -> None:
        """Record the global min/max used for [-1, 1] normalization."""
        data = np.asarray(data, dtype=np.float64)
        self.norm_min = float(data.min())
        self.norm_max = float(data.max())
        if self.norm_max == self.norm_min:
            self.norm_max = self.norm_min + 1.0

    def set_normalization(self, vmin: float, vmax: float) -> None:
        if vmax <= vmin:
            raise ValueError("vmax must be > vmin")
        self.norm_min, self.norm_max = float(vmin), float(vmax)

    def normalize(self, values: np.ndarray) -> np.ndarray:
        scale = self.norm_max - self.norm_min
        return 2.0 * (as_compute(values) - self.norm_min) / scale - 1.0

    def denormalize(self, values: np.ndarray) -> np.ndarray:
        scale = self.norm_max - self.norm_min
        return (np.asarray(values, dtype=np.float64) + 1.0) * 0.5 * scale + self.norm_min

    # ------------------------------------------------------------ shape utils
    def _with_channel(self, blocks: np.ndarray) -> np.ndarray:
        """Accept (N, *block) or (N, 1, *block) and return (N, 1, *block)."""
        blocks = as_compute(blocks)
        expected_nd = self.config.ndim + 1
        if blocks.ndim == expected_nd:
            blocks = blocks[:, None, ...]
        elif not (blocks.ndim == expected_nd + 1 and blocks.shape[1] == 1):
            raise ValueError(
                f"expected blocks of shape (N, {self.config.block_shape}) or (N, 1, ...), "
                f"got {blocks.shape}"
            )
        if tuple(blocks.shape[2:]) != self.config.block_shape:
            raise ValueError(
                f"block spatial shape {tuple(blocks.shape[2:])} does not match the "
                f"configured block shape {self.config.block_shape}"
            )
        return blocks

    # ----------------------------------------------------------------- encode
    def encode(self, blocks: np.ndarray) -> np.ndarray:
        """Encode raw blocks into latent vectors of shape ``(N, latent_size)``."""
        return _in_chunks(self._encode_chunk,
                          self._with_channel(np.asarray(blocks, dtype=np.float64)))

    def decode(self, latents: np.ndarray) -> np.ndarray:
        """Decode latent vectors back into raw-valued blocks ``(N, *block_shape)``."""
        return _in_chunks(self._decode_chunk, np.asarray(latents, dtype=np.float64))

    def _encode_chunk(self, blocks: np.ndarray) -> np.ndarray:
        return self.encoder.forward(self.normalize(blocks), training=False)

    def _decode_chunk(self, latents: np.ndarray) -> np.ndarray:
        return self.denormalize(self.decoder.forward(latents, training=False)[:, 0, ...])

    def reconstruct(self, blocks: np.ndarray) -> np.ndarray:
        """``decode(encode(blocks))`` — the AE prediction used by AE-SZ."""
        return self.decode(self.encode(blocks))

    # --------------------------------------------------------------- training
    def latent_regularizer(self, latent: np.ndarray) -> Tuple[float, np.ndarray]:
        """Latent-space regularization term; default: none."""
        return 0.0, np.zeros_like(latent)

    def train_step(self, batch: np.ndarray) -> float:
        """One forward/backward pass on a raw block batch; gradients accumulate."""
        x = self.normalize(self._with_channel(batch))
        latent = self.encoder.forward(x, training=True)
        recon = self.decoder.forward(latent, training=True)
        rec_loss, grad_recon = self.reconstruction_loss(recon, x)
        reg_loss, grad_latent_reg = self.latent_regularizer(latent)
        grad_latent = self.decoder.backward(grad_recon)
        self.encoder.backward(grad_latent + grad_latent_reg)
        return float(rec_loss + reg_loss)

    # ------------------------------------------------------------ persistence
    def save(self, path: PathLike) -> None:
        """Serialize weights + normalization to an ``.npz`` file."""
        payload = {f"param::{k}": v for k, v in state_dict(self).items()}
        payload["norm"] = np.array([self.norm_min, self.norm_max])
        np.savez_compressed(path, **payload)

    def load(self, path: PathLike) -> None:
        """Load weights + normalization previously written by :meth:`save`."""
        with np.load(path) as archive:
            state = {
                key[len("param::"):]: archive[key]
                for key in archive.files
                if key.startswith("param::")
            }
            norm = archive["norm"]
        load_state_dict(self, state)
        self.norm_min, self.norm_max = float(norm[0]), float(norm[1])
