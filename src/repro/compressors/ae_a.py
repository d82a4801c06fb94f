"""AE-A comparator compressor (Liu et al., "High-ratio lossy compression", 2021).

The original approach reduces flattened 1-D segments by 512x with a
fully-connected autoencoder and then compresses the residual (".dvalue") file
with SZ2.1 under the user's error bound, which is also how the paper evaluates
it.  This wrapper reproduces that pipeline on top of
:class:`repro.autoencoders.ae_a.FullyConnectedAutoencoder` and our SZ2.1
reimplementation, making AE-A error bounded end to end.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.autoencoders.ae_a import FullyConnectedAutoencoder
from repro.compressors.base import Compressor
from repro.compressors.sz21 import SZ21Compressor
from repro.encoding.container import ByteContainer, checked_int, checked_shape
from repro.encoding.entropy import float_section
from repro.nn.serialization import (
    dump_model_blob,
    fingerprint_with_norm,
    restore_archived_model,
)
from repro.nn.training import TrainingConfig, fit_autoencoder
from repro.registry import register_compressor
from repro.utils.validation import value_range


@register_compressor("ae_a", aliases=("ae-a", "aea"), accepts_model=True,
                     description="AE-A comparator: fully-connected AE + SZ2.1 residuals")
class AEACompressor(Compressor):
    """Fully-connected AE + SZ2.1-compressed residuals."""

    name = "AE-A"

    def __init__(self, autoencoder: Optional[FullyConnectedAutoencoder] = None,
                 segment_length: int = 512, seed: int = 0):
        self.autoencoder = autoencoder or FullyConnectedAutoencoder(
            segment_length=segment_length, seed=seed)
        self.segment_length = self.autoencoder.segment_length
        self._residual_compressor = SZ21Compressor()

    # ------------------------------------------------------------------ train
    def train(self, snapshots: Sequence[np.ndarray],
              training: Optional[TrainingConfig] = None, max_segments: int = 4096,
              seed: int = 0):
        """Train the fully-connected AE on flattened 1-D segments."""
        segments = [self._segment(np.asarray(snapshot, dtype=np.float64))
                    for snapshot in snapshots]
        return fit_autoencoder(self.autoencoder, segments, training, max_segments, seed)

    # ------------------------------------------------------- archive support
    def archive_state(self, embed_model: bool = True) -> Tuple[dict, Dict[str, bytes]]:
        ae = self.autoencoder
        meta = {
            "model_sha256": fingerprint_with_norm(ae),
            "ae_init": {"segment_length": ae.segment_length, "reduction": ae.reduction,
                        "n_layers": ae.n_layers, "seed": ae.config.seed},
        }
        blobs = {"model": dump_model_blob(ae)} if embed_model else {}
        return meta, blobs

    @classmethod
    def from_archive_state(cls, meta: dict, blobs: Dict[str, bytes],
                           autoencoder: Optional[FullyConnectedAutoencoder] = None,
                           model=None, **opts) -> "AEACompressor":
        autoencoder = restore_archived_model(
            lambda: FullyConnectedAutoencoder(**meta["ae_init"]), meta, blobs,
            autoencoder=autoencoder, model=model, codec_label="AE-A")
        return cls(autoencoder=autoencoder, **opts)

    # ------------------------------------------------------------------ pieces
    def _segment(self, data: np.ndarray) -> np.ndarray:
        flat = data.ravel()
        pad = (-flat.size) % self.segment_length
        if pad:
            flat = np.concatenate([flat, np.full(pad, flat[-1])])
        return flat.reshape(-1, self.segment_length)

    # ---------------------------------------------------------------- compress
    def compress(self, data: np.ndarray, rel_error_bound: float) -> bytes:
        data, abs_eb = self._checked_input(data, rel_error_bound)
        segments = self._segment(data)
        # Predict from the float32 latents the decoder will read, or the stored
        # residual corrects a reconstruction the decoder never sees.
        latents = self.autoencoder.encode(segments).astype(np.float32)
        ae_recon = self.autoencoder.decode(latents.astype(np.float64))
        flat_recon = ae_recon.ravel()[: data.size].reshape(data.shape)

        residual = data - flat_recon
        # The user's bound is relative to the *original* field's value range;
        # rescale it so the residual compressor enforces the same absolute bound.
        residual_range = value_range(residual)
        residual_rel = abs_eb / residual_range if residual_range > 0 else rel_error_bound
        residual_payload = self._residual_compressor.compress(residual, residual_rel)

        container = ByteContainer()
        container.put_json("meta", {
            "shape": list(data.shape),
            "n_segments": int(segments.shape[0]),
            "rel_error_bound": float(rel_error_bound),
        })
        container["latents"] = latents.tobytes()
        container["residual"] = residual_payload
        return container.to_bytes()

    def decompress(self, payload: bytes) -> np.ndarray:
        container = ByteContainer.from_bytes(payload)
        meta = container.get_json("meta")
        shape = checked_shape(meta["shape"], "shape")
        n_segments = checked_int(meta["n_segments"], "n_segments")
        latents = float_section(container["latents"], np.float32,
                                (n_segments, self.autoencoder.config.latent_size))
        ae_recon = self.autoencoder.decode(latents.astype(np.float64))
        n_points = int(np.prod(shape))
        flat_recon = ae_recon.ravel()[:n_points].reshape(shape)
        residual = self._residual_compressor.decompress(container["residual"])
        return flat_recon + residual
