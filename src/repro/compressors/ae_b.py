"""AE-B comparator compressor (Glaws et al., 2020).

A pure convolutional autoencoder with a *fixed* compression ratio and *no*
error bound: the compressed stream is simply the latent feature maps stored in
single precision.  The ``rel_error_bound`` argument is accepted for interface
compatibility but ignored (exactly the limitation the paper points out).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.autoencoders.ae_b import ResidualConvAutoencoder
from repro.compressors.base import Compressor
from repro.core.blocking import BlockGrid, reassemble_blocks, split_into_blocks
from repro.encoding.container import ByteContainer, checked_int
from repro.encoding.entropy import float_section
from repro.nn.serialization import (
    dump_model_blob,
    fingerprint_with_norm,
    restore_archived_model,
)
from repro.nn.training import TrainingConfig, fit_autoencoder
from repro.registry import register_compressor
from repro.utils.validation import ensure_float_array


@register_compressor("ae_b", aliases=("ae-b", "aeb"), error_bounded=False, accepts_model=True,
                     description="AE-B comparator: fixed-ratio conv AE (NOT error bounded)")
class AEBCompressor(Compressor):
    """Fixed-ratio, non-error-bounded convolutional AE compressor."""

    name = "AE-B"

    def __init__(self, autoencoder: Optional[ResidualConvAutoencoder] = None,
                 block_size: int = 16, ndim: int = 3, seed: int = 0):
        self.autoencoder = autoencoder or ResidualConvAutoencoder(
            block_size=block_size, ndim=ndim, seed=seed)
        self.block_size = self.autoencoder.config.block_size

    def train(self, snapshots: Sequence[np.ndarray],
              training: Optional[TrainingConfig] = None, max_blocks: int = 2048,
              seed: int = 0):
        """Fine-tune / train the residual AE on snapshot blocks."""
        blocks = [split_into_blocks(np.asarray(snapshot, dtype=np.float64),
                                    self.block_size)[0] for snapshot in snapshots]
        return fit_autoencoder(self.autoencoder, blocks, training, max_blocks, seed)

    @property
    def fixed_compression_ratio(self) -> float:
        return self.autoencoder.fixed_compression_ratio

    # ------------------------------------------------------- archive support
    def archive_state(self, embed_model: bool = True) -> Tuple[dict, Dict[str, bytes]]:
        ae = self.autoencoder
        meta = {
            "model_sha256": fingerprint_with_norm(ae),
            "ae_init": {"block_size": ae.config.block_size, "ndim": ae.config.ndim,
                        "channels": ae.conv_channels, "latent_channels": ae.latent_channels,
                        "n_residual": ae.n_residual, "n_compression": ae.n_compression,
                        "seed": ae.config.seed},
        }
        blobs = {"model": dump_model_blob(ae)} if embed_model else {}
        return meta, blobs

    @classmethod
    def from_archive_state(cls, meta: dict, blobs: Dict[str, bytes],
                           autoencoder: Optional[ResidualConvAutoencoder] = None,
                           model=None, **opts) -> "AEBCompressor":
        autoencoder = restore_archived_model(
            lambda: ResidualConvAutoencoder(**meta["ae_init"]), meta, blobs,
            autoencoder=autoencoder, model=model, codec_label="AE-B")
        return cls(autoencoder=autoencoder, **opts)

    def compress(self, data: np.ndarray, rel_error_bound: float = 0.0) -> bytes:
        data = ensure_float_array(data, "data")
        blocks, grid = split_into_blocks(data, self.block_size)
        latents = self.autoencoder.encode(blocks)

        container = ByteContainer()
        container.put_json("meta", {
            "grid": grid.to_dict(),
            "latent_size": int(latents.shape[1]),
        })
        container["latents"] = latents.astype(np.float32).tobytes()
        return container.to_bytes()

    def decompress(self, payload: bytes) -> np.ndarray:
        container = ByteContainer.from_bytes(payload)
        meta = container.get_json("meta")
        grid = BlockGrid.from_dict(meta["grid"])
        latents = float_section(container["latents"], np.float32,
                                (grid.n_blocks, checked_int(meta["latent_size"], "latent_size")))
        return reassemble_blocks(self.autoencoder.decode(latents.astype(np.float64)), grid)
