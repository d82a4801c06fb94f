"""Print each autoencoder's model fingerprint after two fixed-seed epochs.

Two uses, one output of seven lines:

* Determinism: two runs on one tree print the same lines (CI runs it twice
  and diffs the outputs).
* Numerics: a refactor of the NN layers that claims to be numerics-neutral
  must leave every line unchanged: run it on both trees and diff.  The lines
  changed once by design, when training moved to float32 on a
  batch-innermost conv layout; inference numerics did not move with them.

    PYTHONPATH=src python benchmarks/train_fingerprints.py

Covers the SWAE, VAE and WAE conv autoencoders in 2-d and 3-d (strided
``ConvNd`` / ``ConvTransposeNd`` with ``output_padding``, GDN, dense) and the
AE-B residual network; each trains on a small smooth synthetic field in a
few seconds.
"""

from __future__ import annotations

import numpy as np

from repro.autoencoders import AutoencoderConfig, ResidualConvAutoencoder, create_autoencoder
from repro.nn.serialization import fingerprint_with_norm
from repro.nn.training import TrainingConfig, fit_autoencoder


def _blocks(ndim: int, block: int, count: int) -> np.ndarray:
    """``count`` blocks of a smooth field with a little seeded noise."""
    rng = np.random.default_rng(7)
    axes = np.meshgrid(*[np.linspace(0.0, 3.0, block)] * ndim, indexing="ij")
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(count, ndim))
    out = np.empty((count,) + (block,) * ndim)
    for i in range(count):
        out[i] = np.prod([np.sin(a + p) for a, p in zip(axes, phase[i])], axis=0)
    return out + 0.01 * rng.standard_normal(out.shape)


def main() -> None:
    training = TrainingConfig(epochs=2, batch_size=8, seed=0)
    for kind in ("swae", "vae", "wae"):
        for ndim in (2, 3):
            config = AutoencoderConfig(ndim=ndim, block_size=8, latent_size=4,
                                       channels=(2, 4), seed=0)
            model = create_autoencoder(kind, config)
            fit_autoencoder(model, [_blocks(ndim, 8, 32)], training, max_samples=32, seed=0)
            print(f"{kind:5s} {ndim}d {fingerprint_with_norm(model)}")
    ae_b = ResidualConvAutoencoder(block_size=8, ndim=3, channels=2, latent_channels=1,
                                   n_residual=2, n_compression=2, seed=0)
    fit_autoencoder(ae_b, [_blocks(3, 8, 32)], training, max_samples=32, seed=0)
    print(f"ae-b  3d {fingerprint_with_norm(ae_b)}")


if __name__ == "__main__":
    main()
