"""Synthetic SDRBench-like scientific datasets.

The paper evaluates on five SDRBench applications (CESM-ATM, RTM, NYX,
Hurricane ISABEL, EXAFEL).  Those datasets cannot be downloaded in this offline
environment, so this package generates synthetic fields that mimic each
application's spatial statistics — multi-scale smoothness, sharp localized
features, value ranges and temporal evolution across snapshots — which are the
properties error-bounded compressors are sensitive to (see "Substitutions" in
docs/architecture.md).

Every generator is deterministic in ``(field, timestep, seed)`` so the
train/test snapshot splits of paper Table VII can be reproduced exactly.
"""

from repro.data.fields import gaussian_random_field, radial_coordinates
from repro.data.catalog import (
    DATASETS,
    FieldSpec,
    SyntheticDataset,
    get_dataset,
    load_field_snapshot,
    load_training_blocks,
    train_test_snapshots,
)
from repro.data.loader import create_f32, load_f32, map_f32, save_f32

__all__ = [
    "gaussian_random_field",
    "radial_coordinates",
    "DATASETS",
    "FieldSpec",
    "SyntheticDataset",
    "get_dataset",
    "load_field_snapshot",
    "load_training_blocks",
    "train_test_snapshots",
    "create_f32",
    "load_f32",
    "map_f32",
    "save_f32",
]
