"""Regenerate the golden-archive fixtures in this directory.

The committed ``*.rpra`` blobs were produced by the archive writer at the time
this script was last run; ``test_golden_archives.py`` asserts that **today's
reader still decodes those exact bytes** — so a container change that silently
breaks previously-written archives fails loudly instead.

Do NOT rerun this script casually: regenerating the fixtures after a format
change is exactly the failure mode the test exists to catch.  Rerun it only
when a format change is deliberate and versioned (bump ``ARCHIVE_VERSION`` /
``CHUNKED_ARCHIVE_VERSION``, keep a reader for the old version, and say so in
``docs/api.md``), then commit the new fixtures together with that change.

Model-backed and matmul-decoding codecs (ae_a, ae_b, aesz) are stored with
``bitwise: false``: their decode runs through BLAS matmuls whose summation
order may differ across builds, so the test checks allclose + the error bound
instead of bit equality.  Elementwise/cumsum codecs are pinned bit-for-bit.

Usage: ``PYTHONPATH=src python tests/golden/make_golden.py``
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import repro  # noqa: E402
from repro import Abs, PtwRel, Rel  # noqa: E402
from repro.api import compress_chunked  # noqa: E402


def _inputs() -> dict:
    rng2 = np.random.default_rng(7)
    rng3 = np.random.default_rng(8)
    input_2d = rng2.standard_normal((12, 16)).cumsum(axis=0)
    input_3d = rng3.standard_normal((6, 7, 8)).cumsum(axis=0)
    input_ptw = np.abs(input_2d) + 0.25
    input_ptw[0, 0] = 0.0  # exercise the exact-zero mask
    input_ae = np.random.default_rng(9).standard_normal((32, 32)).cumsum(axis=0)
    return {"input_2d": input_2d, "input_3d": input_3d,
            "input_ptw": input_ptw, "input_ae": input_ae}


def _trained_aesz():
    from repro.autoencoders import AutoencoderConfig, SlicedWassersteinAutoencoder
    from repro.core import AESZCompressor, AESZConfig
    from repro.data import train_test_snapshots
    from repro.nn import TrainingConfig

    train, _ = train_test_snapshots("CESM-CLDHGH", shape=(64, 96), train_limit=2)
    ae = SlicedWassersteinAutoencoder(
        AutoencoderConfig(ndim=2, block_size=8, latent_size=4, channels=(2, 4), seed=7))
    comp = AESZCompressor(ae, AESZConfig(block_size=8))
    comp.train(train, TrainingConfig(epochs=2, batch_size=32, learning_rate=2e-3, seed=0),
               max_blocks=128)
    return comp


def main() -> int:
    inputs = _inputs()
    for name, arr in inputs.items():
        np.save(HERE / f"{name}.npy", arr)

    from repro.compressors import AEACompressor, AEBCompressor

    cases = [
        # name, input, codec (name or instance), bound, bitwise, embed_model
        ("sz21_rel", "input_2d", "sz21", Rel(1e-2), True, True),
        ("sz21_abs", "input_2d", "sz21", Abs(0.05), True, True),
        ("sz21_ptw", "input_ptw", "sz21", PtwRel(1e-2), True, True),
        ("sz21_3d_rel", "input_3d", "sz21", Rel(1e-2), True, True),
        ("zfp_rel", "input_2d", "zfp", Rel(1e-2), True, True),
        ("zfp_ptw", "input_ptw", "zfp", PtwRel(1e-2), True, True),
        ("szauto_rel", "input_2d", "szauto", Rel(1e-2), True, True),
        ("szauto_abs", "input_2d", "szauto", Abs(0.05), True, True),
        ("szinterp_rel", "input_2d", "szinterp", Rel(1e-2), True, True),
        ("szinterp_3d_rel", "input_3d", "szinterp", Rel(1e-2), True, True),
        ("lossless", "input_2d", "lossless", Rel(1e-2), True, True),
        # ae_a's embedded weights are ~0.5 MB, so its golden is written
        # fingerprint-only; the test rebuilds the seeded untrained model and
        # exercises the model-verification path on the stable format.
        ("ae_a_rel", "input_ae", AEACompressor(segment_length=512, seed=0), Rel(0.05),
         False, False),
        ("ae_b_rel", "input_ae", AEBCompressor(block_size=8, ndim=2, seed=0), Rel(0.05),
         False, True),
        ("aesz_rel", "input_ae", _trained_aesz(), Rel(0.05), False, True),
    ]

    manifest = []
    for name, input_name, codec, bound, bitwise, embed in cases:
        data = inputs[input_name]
        blob = repro.compress(data, codec=codec, bound=bound, embed_model=embed)
        recon = repro.decompress(
            blob, autoencoder=None if embed else codec.autoencoder)
        (HERE / f"{name}.rpra").write_bytes(blob)
        np.save(HERE / f"{name}.expected.npy", recon)
        codec_name = repro.read_header(blob).codec
        manifest.append({
            "file": f"{name}.rpra", "input": input_name, "codec": codec_name,
            "bound_mode": bound.mode, "bound_value": bound.value,
            "bitwise": bitwise, "chunked": False, "embed_model": embed,
        })
        print(f"{name}: {len(blob)} bytes ({codec_name}, {bound})")

    # A chunked (version-2) golden: three sz21 chunks over the 2-d input.
    data = inputs["input_2d"]
    blob = compress_chunked(data, codec="sz21", bound=Rel(1e-2), chunk_size=64)
    recon = repro.decompress(blob)
    (HERE / "chunked_sz21_rel.rpra").write_bytes(blob)
    np.save(HERE / "chunked_sz21_rel.expected.npy", recon)
    manifest.append({
        "file": "chunked_sz21_rel.rpra", "input": "input_2d", "codec": "sz21",
        "bound_mode": "rel", "bound_value": 1e-2, "bitwise": True, "chunked": True,
        "embed_model": True,
    })
    print(f"chunked_sz21_rel: {len(blob)} bytes "
          f"({repro.read_header(blob).n_tiles} chunks)")

    # Grid (version-3) goldens: a 2x2x2 tile grid over the 3-d input, so the
    # random-access region-decode path has a pinned byte layout too — one per
    # tile codec whose payload format the store depends on.
    data = inputs["input_3d"]
    for grid_codec in ("sz21", "szinterp"):
        blob = compress_chunked(data, codec=grid_codec, bound=Rel(1e-2),
                                chunk_shape=(4, 4, 4))
        recon = repro.decompress(blob)
        (HERE / f"grid_{grid_codec}_rel.rpra").write_bytes(blob)
        np.save(HERE / f"grid_{grid_codec}_rel.expected.npy", recon)
        manifest.append({
            "file": f"grid_{grid_codec}_rel.rpra", "input": "input_3d",
            "codec": grid_codec, "bound_mode": "rel", "bound_value": 1e-2,
            "bitwise": True, "chunked": True, "version": 3, "embed_model": True,
        })
        print(f"grid_{grid_codec}_rel: {len(blob)} bytes "
              f"({repro.read_header(blob).n_tiles} tiles)")

    (HERE / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {len(manifest)} fixtures + manifest to {HERE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
