"""Shared experiment orchestration for benchmarks and examples.

The paper's evaluation needs one trained SWAE per field (and trained AE-A /
AE-B comparators).  Training the pure-NumPy networks takes seconds-to-minutes
per field on CPU, so :class:`ModelCache` trains each model once and stores the
weights under ``.model_cache/`` in the repository; benchmarks and examples both
go through it, which keeps repeat runs fast and deterministic.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.autoencoders import AutoencoderConfig, create_autoencoder
from repro.compressors import AEACompressor, AEBCompressor
from repro.core import AESZCompressor, AESZConfig, default_autoencoder_config
from repro.registry import get_compressor
from repro.data import train_test_snapshots
from repro.data.catalog import FIELDS
from repro.metrics import RateDistortionCurve, rate_distortion_sweep
from repro.nn import TrainingConfig
from repro.utils.rng import derive_seed

DEFAULT_CACHE_DIR = Path(__file__).resolve().parents[3] / ".model_cache"

# Error bounds used for the rate-distortion sweeps (Fig. 8); the paper's plots
# span roughly bit-rate 0..6, i.e. relative bounds from ~1e-1 down to ~1e-4.
DEFAULT_ERROR_BOUNDS: Tuple[float, ...] = (5e-2, 2e-2, 1e-2, 5e-3, 2e-3, 1e-3)


def default_error_bounds(high_ratio_only: bool = False) -> Tuple[float, ...]:
    """Relative error bounds for RD sweeps; ``high_ratio_only`` keeps the low-bit-rate part."""
    if high_ratio_only:
        return (5e-2, 2e-2, 1e-2, 5e-3)
    return DEFAULT_ERROR_BOUNDS


@dataclass
class TrainingBudget:
    """How much CPU training each cached model gets (scaled-down defaults)."""

    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 2e-3
    max_blocks: int = 768
    train_snapshot_limit: int = 3

    def to_training_config(self, seed: int = 0) -> TrainingConfig:
        return TrainingConfig(epochs=self.epochs, batch_size=self.batch_size,
                              learning_rate=self.learning_rate, seed=seed)


class ModelCache:
    """Train-once/load-afterwards cache for autoencoder models."""

    def __init__(self, cache_dir: Optional[os.PathLike] = None,
                 budget: Optional[TrainingBudget] = None, seed: int = 0):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else DEFAULT_CACHE_DIR
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.budget = budget or TrainingBudget()
        self.seed = int(seed)

    def _trained(self, kind: str, field_name: str, config: Mapping, compressor,
                 max_samples: int, shape: Optional[Sequence[int]]):
        """Load ``compressor``'s autoencoder from the cache, or train it on the
        field's training snapshots under the budget and save it."""
        config = {**config, **asdict(self.budget),
                  "shape": list(shape) if shape is not None else None}
        blob = json.dumps({"kind": kind, "field": field_name, "config": config}, sort_keys=True)
        stem = f"{kind}-{field_name}-{derive_seed(self.seed, blob):08x}"
        path = self.cache_dir / f"{stem}.npz"
        if path.exists():
            compressor.autoencoder.load(path)
            return compressor
        train, _ = train_test_snapshots(field_name, shape=shape, seed=self.seed,
                                        train_limit=self.budget.train_snapshot_limit)
        compressor.train(train, self.budget.to_training_config(self.seed), max_samples,
                         seed=self.seed)
        compressor.autoencoder.save(path)
        (self.cache_dir / f"{stem}.json").write_text(json.dumps(config, indent=2))
        return compressor

    def swae_for_field(self, field_name: str, ae_kind: str = "swae",
                       config: Optional[AutoencoderConfig] = None,
                       shape: Optional[Sequence[int]] = None):
        """Return a trained blockwise autoencoder for ``field_name`` (cached)."""
        if config is None:
            config = default_autoencoder_config(field_name, scaled=True, seed=self.seed)
        cfg = {"ndim": config.ndim, "block_size": config.block_size,
               "latent_size": config.latent_size, "channels": list(config.channels)}
        compressor = AESZCompressor(create_autoencoder(ae_kind, config),
                                    AESZConfig(block_size=config.block_size))
        return self._trained(ae_kind, field_name, cfg, compressor, self.budget.max_blocks,
                             shape).autoencoder

    def ae_a_for_field(self, field_name: str, segment_length: int = 512,
                       shape: Optional[Sequence[int]] = None) -> AEACompressor:
        """Trained AE-A comparator compressor for ``field_name`` (cached)."""
        compressor = AEACompressor(segment_length=segment_length, seed=self.seed)
        return self._trained("aea", field_name, {"segment_length": segment_length}, compressor,
                             self.budget.max_blocks, shape)

    def ae_b_for_field(self, field_name: str, block_size: int = 16,
                       shape: Optional[Sequence[int]] = None) -> AEBCompressor:
        """Trained AE-B comparator compressor (3D fields only, as in the paper)."""
        ndim = FIELDS[field_name].dimensionality
        compressor = AEBCompressor(block_size=block_size, ndim=ndim, seed=self.seed)
        return self._trained("aeb", field_name, {"block_size": block_size, "ndim": ndim},
                             compressor, min(512, self.budget.max_blocks), shape)


def build_aesz_for_field(field_name: str, cache: Optional[ModelCache] = None,
                         shape: Optional[Sequence[int]] = None,
                         predictor_mode: str = "hybrid") -> AESZCompressor:
    """Convenience: a trained AE-SZ compressor ready to use on ``field_name``."""
    cache = cache or ModelCache()
    model = cache.swae_for_field(field_name, shape=shape)
    config = AESZConfig(block_size=model.config.block_size, predictor_mode=predictor_mode)
    return AESZCompressor(model, config)


def baseline_compressors(include_interp: bool = True, include_auto: bool = True) -> Dict[str, object]:
    """The traditional error-bounded baselines used across the evaluation.

    Built from :mod:`repro.registry`, keyed by each compressor's display name
    (``SZ2.1``, ``ZFP``, ...) as the paper's tables label them.
    """
    names = ["sz21", "zfp"]
    if include_auto:
        names.append("szauto")
    if include_interp:
        names.append("szinterp")
    return {comp.name: comp for comp in map(get_compressor, names)}


def run_rate_distortion(compressors: Mapping[str, object], data: np.ndarray,
                        error_bounds: Sequence[float] = DEFAULT_ERROR_BOUNDS
                        ) -> Dict[str, RateDistortionCurve]:
    """Sweep every compressor over ``error_bounds`` and return named RD curves."""
    curves: Dict[str, RateDistortionCurve] = {}
    for label, compressor in compressors.items():
        curves[label] = rate_distortion_sweep(compressor, data, error_bounds, label=label)
    return curves
