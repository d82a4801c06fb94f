"""Minimal training loop shared by all autoencoder models."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.optim import Adam, Optimizer
from repro.utils.rng import SeedLike, as_rng


def iterate_minibatches(
    data: np.ndarray,
    batch_size: int,
    shuffle: bool = True,
    rng: SeedLike = None,
    drop_last: bool = False,
) -> Iterator[np.ndarray]:
    """Yield mini-batches of rows of ``data`` (first axis is the sample axis)."""
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    n = data.shape[0]
    indices = np.arange(n)
    if shuffle:
        as_rng(rng).shuffle(indices)
    for start in range(0, n, batch_size):
        batch_idx = indices[start : start + batch_size]
        if drop_last and len(batch_idx) < batch_size:
            break
        yield data[batch_idx]


@dataclass
class TrainingConfig:
    """Hyper-parameters for :class:`Trainer`.

    The paper trains every AE-SZ autoencoder for 100 epochs on a V100 GPU; the
    pure-NumPy defaults here are much smaller so that benchmarks run on CPU,
    but all paper values remain expressible.
    """

    epochs: int = 5
    batch_size: int = 32
    learning_rate: float = 1e-3
    shuffle: bool = True
    seed: Optional[int] = 0
    verbose: bool = False
    log_every: int = 1

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class TrainingHistory:
    """Per-epoch training metrics returned by :meth:`Trainer.fit`."""

    epoch_losses: List[float] = field(default_factory=list)
    epoch_times: List[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")

    @property
    def total_time(self) -> float:
        return float(sum(self.epoch_times))


class Trainer:
    """Drive training of a model exposing ``train_step(batch) -> float``.

    All autoencoder classes in :mod:`repro.autoencoders` implement
    ``train_step``; the trainer only handles batching, the optimizer step and
    bookkeeping so that custom losses (sliced-Wasserstein, KL, MMD, ...) stay
    inside the model classes.
    """

    def __init__(self, model, optimizer: Optional[Optimizer] = None,
                 config: Optional[TrainingConfig] = None):
        self.model = model
        self.config = config or TrainingConfig()
        if optimizer is None:
            optimizer = Adam.for_module(model, lr=self.config.learning_rate)
        self.optimizer = optimizer

    def fit(self, data: np.ndarray, callback: Optional[Callable[[int, float], None]] = None
            ) -> TrainingHistory:
        """Train on ``data`` (sample axis first) and return the loss history.

        Batches are fed as float32 (raw values are rounded to float32 before
        the model normalizes them), so every layer trains in float32, about
        twice as fast as float64.  Parameters, gradients and optimizer state
        stay float64, and inference is float64 whatever trained the weights.
        """
        data = np.asarray(data, dtype=np.float32)
        if data.shape[0] == 0:
            raise ValueError("training data is empty")
        history = TrainingHistory()
        rng = as_rng(self.config.seed)
        self.model.train(True)
        for epoch in range(self.config.epochs):
            start = time.perf_counter()
            losses: List[float] = []
            for batch in iterate_minibatches(
                data, self.config.batch_size, shuffle=self.config.shuffle, rng=rng
            ):
                self.optimizer.zero_grad()
                loss = float(self.model.train_step(batch))
                self.optimizer.step()
                losses.append(loss)
            epoch_loss = float(np.mean(losses)) if losses else float("nan")
            elapsed = time.perf_counter() - start
            history.epoch_losses.append(epoch_loss)
            history.epoch_times.append(elapsed)
            if callback is not None:
                callback(epoch, epoch_loss)
            if self.config.verbose and (epoch % self.config.log_every == 0):
                print(f"[trainer] epoch {epoch + 1}/{self.config.epochs} "
                      f"loss={epoch_loss:.6f} ({elapsed:.2f}s)")
        self.model.train(False)
        return history


def pool_samples(pieces: Sequence[np.ndarray], max_samples: int, seed: int) -> np.ndarray:
    """Pool per-snapshot training ``pieces`` (blocks or segments, sample axis
    first), keep a seeded subsample of at most ``max_samples`` and add the
    channel axis the autoencoders train on."""
    samples = np.concatenate(pieces, axis=0)
    if samples.shape[0] > max_samples:
        idx = np.random.default_rng(seed).choice(samples.shape[0], size=max_samples,
                                                 replace=False)
        samples = samples[idx]
    return samples[:, None, ...]


def fit_autoencoder(autoencoder, pieces: Sequence[np.ndarray],
                    training: Optional[TrainingConfig], max_samples: int,
                    seed: int) -> TrainingHistory:
    """The offline recipe every AE compressor trains by: pool and subsample the
    pieces, fit the [-1, 1] normalisation on them, run the :class:`Trainer`."""
    samples = pool_samples(pieces, max_samples, seed)
    autoencoder.fit_normalization(samples)
    return Trainer(autoencoder, config=training).fit(samples)
