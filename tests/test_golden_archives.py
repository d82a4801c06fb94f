"""Format-stability: today's reader must decode the committed golden archives.

The fixtures under ``tests/golden/`` were written by the archive writer at a
known-good point (see ``make_golden.py`` there).  If a change to the container
or a codec's payload format breaks decoding of previously-written archives,
these tests fail loudly — that is their entire purpose.  Do not "fix" a
failure here by regenerating the fixtures unless the format change is
deliberate and versioned.

Elementwise-decoding codecs are held to **bit-exact** reconstruction; the
model-backed codecs (whose decode runs BLAS matmuls with build-dependent
summation order) are held to allclose + their recorded error bound.
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path

import numpy as np
import pytest

import repro
from reference_codecs import reference_paths
from repro.encoding.container import Archive, ChunkedIndex, GridIndex, archive_version

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())


def _rebuild_model(codec: str):
    """The deterministic seeded model for fingerprint-only fixtures."""
    if codec == "ae_a":
        from repro.compressors import AEACompressor

        return AEACompressor(segment_length=512, seed=0).autoencoder
    raise NotImplementedError(f"no rebuild recipe for {codec}")


@pytest.mark.parametrize("entry", MANIFEST, ids=[e["file"] for e in MANIFEST])
def test_golden_archive_decodes(entry):
    blob = (GOLDEN / entry["file"]).read_bytes()
    original = np.load(GOLDEN / f"{entry['input']}.npy")
    expected = np.load(GOLDEN / (entry["file"].removesuffix(".rpra") + ".expected.npy"))

    header = repro.read_header(blob)
    assert header.codec == entry["codec"]
    assert header.shape == original.shape
    assert header.bound_mode == entry["bound_mode"]
    assert header.bound_value == entry["bound_value"]
    expected_version = entry.get("version", 2 if entry["chunked"] else 1)
    assert archive_version(blob) == expected_version
    assert isinstance(header, {1: Archive, 2: ChunkedIndex,
                               3: GridIndex}[expected_version])

    autoencoder = None if entry["embed_model"] else _rebuild_model(entry["codec"])
    recon = repro.decompress(blob, autoencoder=autoencoder)
    assert recon.shape == original.shape

    if expected_version == 3:
        # The random-access path must read the pinned layout too: a corner
        # region equals the same slice of the full reconstruction.
        corner = tuple(slice(d // 3, d) for d in original.shape)
        piece = repro.read_region(blob, corner)
        assert np.array_equal(piece, recon[corner])

    if entry["bitwise"]:
        assert np.array_equal(recon.view(np.uint64), expected.view(np.uint64)), (
            f"{entry['file']}: reconstruction changed bit-for-bit — a format or "
            f"decode change broke a previously-written archive")
    else:
        assert np.allclose(recon, expected, rtol=1e-9, atol=1e-9), entry["file"]

    # Bound sanity against the original input (ae_b is fixed-ratio/unbounded).
    err = float(np.max(np.abs(original - recon)))
    vrange = float(original.max() - original.min())
    if entry["bound_mode"] == "rel" and entry["codec"] != "ae_b":
        assert err <= entry["bound_value"] * (vrange if vrange > 0 else 1.0) * (1 + 1e-9)
    elif entry["bound_mode"] == "abs":
        assert err <= entry["bound_value"] * (1 + 1e-9)
    elif entry["bound_mode"] == "ptw_rel":
        assert np.all(np.abs(original - recon)
                      <= entry["bound_value"] * np.abs(original) * (1 + 1e-9))


VECTORIZED = [e for e in MANIFEST if e["codec"] in ("sz21", "szinterp")]


@pytest.mark.parametrize("entry", VECTORIZED, ids=[e["file"] for e in VECTORIZED])
@pytest.mark.parametrize("scalar", [False, True], ids=["vectorized", "scalar"])
def test_golden_reencodes_byte_identical(entry, scalar, monkeypatch):
    """Today's encoders must *reproduce* the committed archives, not merely
    decode them: the vectorized sz21/szinterp encode paths (and, under
    ``scalar``, the per-element references swapped in by ``reference_paths``)
    are pinned to the exact bytes written at fixture time, so an encode-path
    change that drifts the format fails here before it ships."""
    from repro import Abs, PtwRel, Rel
    from repro.api import compress_chunked

    blob = (GOLDEN / entry["file"]).read_bytes()
    data = np.load(GOLDEN / f"{entry['input']}.npy")
    bound = {"rel": Rel, "abs": Abs,
             "ptw_rel": PtwRel}[entry["bound_mode"]](entry["bound_value"])
    header = repro.read_header(blob)
    with reference_paths(monkeypatch) if scalar else contextlib.nullcontext():
        if not entry["chunked"]:
            again = repro.compress(data, entry["codec"], bound)
        elif entry.get("version") == 3:
            again = compress_chunked(data, codec=entry["codec"], bound=bound,
                                     chunk_shape=header.chunk_shape)
        else:  # version-2: chunk_size in elements, starts[] in leading-axis rows
            rows = header.starts[1] - header.starts[0]
            again = compress_chunked(data, codec=entry["codec"], bound=bound,
                                     chunk_size=rows * int(np.prod(data.shape[1:])))
    assert again == blob, (
        f"{entry['file']}: re-encoding the golden input no longer reproduces "
        f"the committed archive bytes ({'reference' if scalar else 'vectorized'} "
        f"encode path)")


def test_manifest_covers_every_codec():
    """Every registered codec has at least one golden archive."""
    from repro.registry import available_compressors

    covered = {e["codec"] for e in MANIFEST}
    assert covered == set(available_compressors())


def test_manifest_covers_every_bound_mode_and_both_formats():
    modes = {e["bound_mode"] for e in MANIFEST}
    assert modes == {"rel", "abs", "ptw_rel"}
    assert any(e["chunked"] for e in MANIFEST)
    assert any(not e["chunked"] for e in MANIFEST)


def test_golden_corruption_still_detected():
    """A flipped payload byte in a golden archive must not decode silently."""
    blob = bytearray((GOLDEN / "sz21_rel.rpra").read_bytes())
    blob[len(blob) // 2] ^= 0x01
    with pytest.raises(ValueError, match="corrupt archive"):
        repro.decompress(bytes(blob))
