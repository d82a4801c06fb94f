"""Dataset catalog: field specs, default shapes, snapshot splits (paper Table VII).

The default shapes are scaled down from the SDRBench originals (e.g. CESM
1800x3600 -> 256x512, NYX 512^3 -> 64^3) so that the pure-NumPy pipeline runs
in CPU-friendly time; the catalog keeps the original shapes for reference and
any benchmark can request larger shapes explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.generators import GENERATORS
from repro.utils.rng import derive_seed


@dataclass(frozen=True)
class FieldSpec:
    """Description of one scientific data field."""

    app: str
    field: str
    dimensionality: int
    default_shape: Tuple[int, ...]
    paper_shape: Tuple[int, ...]
    domain: str
    generator_key: str

    @property
    def name(self) -> str:
        return f"{self.app}-{self.field}"


@dataclass(frozen=True)
class SnapshotSplit:
    """Train/test snapshot (time step) ranges, mirroring paper Table VII."""

    train_timesteps: Tuple[int, ...]
    test_timesteps: Tuple[int, ...]
    test_seed_offset: int = 0  # non-zero = "another simulation" (NYX)


FIELDS: Dict[str, FieldSpec] = {
    spec.name: spec
    for spec in [
        FieldSpec("CESM", "CLDHGH", 2, (256, 512), (1800, 3600), "Weather", "CESM-CLDHGH"),
        FieldSpec("CESM", "FREQSH", 2, (256, 512), (1800, 3600), "Weather", "CESM-FREQSH"),
        FieldSpec("EXAFEL", "raw", 2, (370, 194), (5920, 388), "Crystallography", "EXAFEL-raw"),
        FieldSpec("NYX", "baryon_density", 3, (64, 64, 64), (512, 512, 512), "Cosmology",
                  "NYX-baryon_density"),
        FieldSpec("NYX", "temperature", 3, (64, 64, 64), (512, 512, 512), "Cosmology",
                  "NYX-temperature"),
        FieldSpec("NYX", "dark_matter_density", 3, (64, 64, 64), (512, 512, 512), "Cosmology",
                  "NYX-dark_matter_density"),
        FieldSpec("Hurricane", "U", 3, (32, 96, 96), (100, 500, 500), "Weather", "Hurricane-U"),
        FieldSpec("Hurricane", "QVAPOR", 3, (32, 96, 96), (100, 500, 500), "Weather",
                  "Hurricane-QVAPOR"),
        FieldSpec("RTM", "snapshot", 3, (72, 72, 40), (449, 449, 235), "Seismic Wave",
                  "RTM-snapshot"),
    ]
}

# Scaled-down equivalents of Table VII (train range / test range per application).
SPLITS: Dict[str, SnapshotSplit] = {
    "CESM": SnapshotSplit(tuple(range(0, 10)), tuple(range(10, 13))),
    "EXAFEL": SnapshotSplit(tuple(range(0, 10)), tuple(range(10, 13))),
    "RTM": SnapshotSplit(tuple(range(20, 30)), tuple(range(31, 37, 2))),
    "NYX": SnapshotSplit(tuple(range(0, 4)), (4,), test_seed_offset=1),
    "Hurricane": SnapshotSplit(tuple(range(1, 9)), tuple(range(9, 12))),
}


class SyntheticDataset:
    """Snapshot-level access to one application's synthetic fields."""

    def __init__(self, app: str, seed: int = 0):
        if app not in SPLITS:
            raise KeyError(f"unknown application {app!r}; choices: {sorted(SPLITS)}")
        self.app = app
        self.seed = int(seed)
        self.split = SPLITS[app]

    @property
    def fields(self) -> List[str]:
        return [spec.field for spec in FIELDS.values() if spec.app == self.app]

    def field_spec(self, field_name: str) -> FieldSpec:
        key = f"{self.app}-{field_name}"
        if key not in FIELDS:
            raise KeyError(f"unknown field {field_name!r} for {self.app}")
        return FIELDS[key]

    def snapshot(self, field_name: str, timestep: int,
                 shape: Optional[Sequence[int]] = None,
                 seed_offset: int = 0) -> np.ndarray:
        spec = self.field_spec(field_name)
        shape = tuple(shape) if shape is not None else spec.default_shape
        gen = GENERATORS[spec.generator_key]
        return gen(shape, int(timestep), seed=self.seed + seed_offset)

    def train_snapshots(self, field_name: str, shape: Optional[Sequence[int]] = None,
                        limit: Optional[int] = None) -> List[np.ndarray]:
        steps = self.split.train_timesteps[:limit]
        return [self.snapshot(field_name, t, shape) for t in steps]

    def test_snapshots(self, field_name: str, shape: Optional[Sequence[int]] = None,
                       limit: Optional[int] = None) -> List[np.ndarray]:
        steps = self.split.test_timesteps[:limit]
        return [
            self.snapshot(field_name, t, shape, seed_offset=self.split.test_seed_offset)
            for t in steps
        ]


DATASETS = tuple(sorted(SPLITS))


def get_dataset(app: str, seed: int = 0) -> SyntheticDataset:
    """Instantiate the synthetic dataset for one application."""
    return SyntheticDataset(app, seed=seed)


def load_field_snapshot(field_name: str, timestep: int = 0, split: str = "test",
                        shape: Optional[Sequence[int]] = None, seed: int = 0) -> np.ndarray:
    """Convenience accessor: ``load_field_snapshot("CESM-CLDHGH")``."""
    if field_name not in FIELDS:
        raise KeyError(f"unknown field {field_name!r}; choices: {sorted(FIELDS)}")
    spec = FIELDS[field_name]
    dataset = SyntheticDataset(spec.app, seed=seed)
    if split == "train":
        steps = dataset.split.train_timesteps
        offset = 0
    elif split == "test":
        steps = dataset.split.test_timesteps
        offset = dataset.split.test_seed_offset
    else:
        raise ValueError("split must be 'train' or 'test'")
    step = steps[min(timestep, len(steps) - 1)]
    return dataset.snapshot(spec.field, step, shape, seed_offset=offset)


def train_test_snapshots(field_name: str, shape: Optional[Sequence[int]] = None,
                         seed: int = 0, train_limit: Optional[int] = None,
                         test_limit: Optional[int] = None):
    """Return (train_snapshots, test_snapshots) lists for a field."""
    spec = FIELDS[field_name]
    dataset = SyntheticDataset(spec.app, seed=seed)
    return (
        dataset.train_snapshots(spec.field, shape, limit=train_limit),
        dataset.test_snapshots(spec.field, shape, limit=test_limit),
    )


def load_training_blocks(field_name: str, block_size: int, max_blocks: int = 4096,
                         shape: Optional[Sequence[int]] = None, seed: int = 0,
                         train_limit: Optional[int] = 3) -> np.ndarray:
    """Cut training snapshots of a field into AE training blocks.

    Returns an array of shape ``(n_blocks, 1, *block_shape)`` (channel-first,
    as expected by the autoencoders), normalized later by the AE itself.
    """
    from repro.core.blocking import split_into_blocks
    from repro.nn.training import pool_samples

    train, _ = train_test_snapshots(field_name, shape=shape, seed=seed, train_limit=train_limit)
    return pool_samples([split_into_blocks(snapshot.astype(np.float64), block_size)[0]
                         for snapshot in train],
                        max_blocks, derive_seed(seed, field_name, "blocks"))
