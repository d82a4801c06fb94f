"""Shared fixtures for the test suite.

Heavyweight fixtures (trained autoencoders, AE-SZ compressors) are
session-scoped and use deliberately tiny configurations: the tests verify
behaviour and invariants, not model quality.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.autoencoders import AutoencoderConfig, SlicedWassersteinAutoencoder
from repro.core import AESZCompressor, AESZConfig
from repro.data import load_field_snapshot, train_test_snapshots
from repro.nn import TrainingConfig


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def field_2d():
    """A small 2D test field (CESM-like, 96x128)."""
    return load_field_snapshot("CESM-CLDHGH", shape=(96, 128)).astype(np.float64)


@pytest.fixture(scope="session")
def field_3d():
    """A small 3D test field (NYX-like, 24^3)."""
    return load_field_snapshot("NYX-baryon_density", shape=(24, 24, 24)).astype(np.float64)


@pytest.fixture(scope="session")
def tiny_ae_config_2d():
    return AutoencoderConfig(ndim=2, block_size=8, latent_size=4, channels=(2, 4), seed=7)


@pytest.fixture(scope="session")
def tiny_ae_config_3d():
    return AutoencoderConfig(ndim=3, block_size=8, latent_size=4, channels=(2, 4), seed=7)


@pytest.fixture(scope="session")
def trained_aesz_2d(tiny_ae_config_2d):
    """A (briefly) trained AE-SZ compressor on the 2D CESM-like field."""
    train, _ = train_test_snapshots("CESM-CLDHGH", shape=(64, 96), train_limit=2)
    ae = SlicedWassersteinAutoencoder(tiny_ae_config_2d)
    comp = AESZCompressor(ae, AESZConfig(block_size=8))
    comp.train(train, TrainingConfig(epochs=3, batch_size=32, learning_rate=2e-3, seed=0),
               max_blocks=192)
    return comp


@pytest.fixture(scope="session")
def trained_aesz_3d(tiny_ae_config_3d):
    """A (briefly) trained AE-SZ compressor on the 3D NYX-like field."""
    train, _ = train_test_snapshots("NYX-baryon_density", shape=(24, 24, 24), train_limit=2)
    ae = SlicedWassersteinAutoencoder(tiny_ae_config_3d)
    comp = AESZCompressor(ae, AESZConfig(block_size=8))
    comp.train(train, TrainingConfig(epochs=2, batch_size=16, learning_rate=2e-3, seed=0),
               max_blocks=96)
    return comp


@pytest.fixture()
def submit_parked():
    """``submit_parked(pool, fn, *args)``: submit ``fn(*args)`` and return its
    future once that call is parked on another caller's load inside
    ``SingleFlight.run``.  A test can then release the owner knowing the
    second caller coalesces instead of owning a load of its own."""
    def submit(pool, fn, *args):
        ident = []

        def call():
            ident.append(threading.get_ident())
            return fn(*args)

        future = pool.submit(call)
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            frame = sys._current_frames().get(ident[0]) if ident else None
            while frame is not None:
                caller = frame.f_back
                if (frame.f_code.co_name == "wait" and caller is not None
                        and caller.f_code.co_name == "run"
                        and caller.f_code.co_filename.endswith(
                            "concurrency.py")):
                    return future
                frame = caller
            time.sleep(0.001)
        raise AssertionError("second caller never parked on the flight")
    return submit
