"""Hostile payloads: every registered codec rejects damaged bytes with
``ValueError("corrupt ...")`` and with no other exception.

Each case damages one thing in a valid payload and re-frames it, so the
container still parses and only the codec's reading of its sections is on
trial:

* a meta field the decoder needs is dropped (fields it never reads, or reads
  with a default, are listed per payload and must still decode unchanged);
* the meta section is not JSON, or not a JSON object;
* a section is dropped;
* a float section gets 3 stray bytes (no longer a whole number of values);
* a code stream loses or gains one symbol, or is empty.

Nested payloads (AE-SZ's ``latents``, AE-A's ``residual``) take the same
mutations one level down.  The AE codecs run tiny untrained models: the
checks are on the stream layout, not on what the network predicts.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Tuple

import numpy as np
import pytest

from repro.autoencoders import AutoencoderConfig, create_autoencoder
from repro.compressors import AEACompressor, AEBCompressor
from repro.core.aesz import AESZCompressor
from repro.core.config import AESZConfig
from repro.core.latent_codec import LatentCodec
from repro.encoding.container import ByteContainer
from repro.encoding.entropy import EntropyCodec, float_section
from repro.registry import available_compressors, get_compressor

# How a section is stored.
META = "meta"      # JSON object
CODES = "codes"    # EntropyCodec integer stream
FLOATS = "floats"  # float64 values through the lossless backend
RAW32 = "raw32"    # uncompressed float32 values

_ENTROPY = EntropyCodec()  # every payload here uses the default zlib backend


class Layout(NamedTuple):
    """The sections of one payload and the meta fields its decoder must have.

    ``sections`` maps a section name to its kind, or to a nested ``Layout``
    for a section holding a whole payload.  ``required`` names meta fields
    (``"grid.block_shape"`` for a nested one); ``unread`` names the fields
    the decoder can do without.
    """

    sections: Dict[str, object]
    required: Tuple[str, ...]
    unread: Tuple[str, ...] = ()


_GRID = ("grid.original_shape", "grid.padded_shape", "grid.block_shape", "grid.grid_shape")

SZ21 = Layout({"meta": META, "flags": CODES, "codes": CODES, "unpred": FLOATS, "coefs": FLOATS},
              ("grid", "abs_error_bound", "num_bins") + _GRID, ("rel_error_bound",))
LATENTS = Layout({"meta": META, "codes": CODES}, ("shape", "error_bound", "offset"))
_AESZ_UNREAD = ("rel_error_bound", "latent_error_bound", "predictor_mode", "dtype",
                "output_dtype")
_AESZ_REQUIRED = ("grid", "abs_error_bound", "num_bins") + _GRID

LAYOUTS: Dict[str, Layout] = {
    "sz21": SZ21,
    "szinterp": Layout(
        {"meta": META, "anchors": CODES, "codes": CODES, "unpred": FLOATS},
        ("shape", "abs_error_bound", "anchor_shape", "anchor_offset", "num_bins"),
        ("rel_error_bound",)),
    "zfp": Layout({"meta": META, "codes": CODES}, ("grid", "step", "offset") + _GRID,
                  ("abs_error_bound", "rel_error_bound")),
    "szauto": Layout({"meta": META, "codes": CODES},
                     ("shape", "abs_error_bound", "order", "offset"), ("rel_error_bound",)),
    "lossless": Layout({"meta": META, "raw": FLOATS}, ("shape", "dtype")),
    "ae_a": Layout({"meta": META, "latents": RAW32, "residual": SZ21},
                   ("shape", "n_segments"), ("rel_error_bound",)),
    "ae_b": Layout({"meta": META, "latents": RAW32}, ("grid", "latent_size") + _GRID),
    "aesz-ae": Layout(
        {"latents": LATENTS, "ae_codes": CODES, "ae_unpred": FLOATS, "flags": CODES,
         "meta": META},
        _AESZ_REQUIRED, _AESZ_UNREAD + ("lorenzo_offset",)),
    "aesz-lorenzo": Layout(
        {"lorenzo_codes": CODES, "mean_codes": CODES, "mean_unpred": FLOATS,
         "means": FLOATS, "flags": CODES, "meta": META},
        _AESZ_REQUIRED + ("lorenzo_offset",), _AESZ_UNREAD),
}


def _field() -> np.ndarray:
    """A 48x32 field with a smooth part (Lorenzo), a plane (sz21's
    regression) and a noisy constant patch (AE-SZ's block mean)."""
    rng = np.random.default_rng(0)
    x, y = np.meshgrid(np.arange(48.0), np.arange(32.0), indexing="ij")
    field = np.sin(x / 5) * np.cos(y / 4)
    field[16:, 16:] = 0.05 * x[16:, 16:] + 0.03 * y[16:, 16:]
    field += 1e-3 * rng.standard_normal(field.shape)
    field[:16, :16] = 1.0 + 0.05 * rng.standard_normal((16, 16))
    return field


def _aesz(mode: str) -> AESZCompressor:
    ae = create_autoencoder("swae", AutoencoderConfig(ndim=2, block_size=8, latent_size=4,
                                                      channels=(2, 4), seed=7))
    return AESZCompressor(ae, AESZConfig(block_size=8, num_bins=64, predictor_mode=mode))


BUILDERS: Dict[str, Callable[[], object]] = {
    "sz21": lambda: get_compressor("sz21"),
    "szinterp": lambda: get_compressor("szinterp"),
    "zfp": lambda: get_compressor("zfp"),
    "szauto": lambda: get_compressor("szauto"),
    "lossless": lambda: get_compressor("lossless"),
    "ae_a": lambda: AEACompressor(segment_length=512, seed=0),
    "ae_b": lambda: AEBCompressor(block_size=8, ndim=2, seed=0),
    "aesz-ae": lambda: _aesz("ae"),
    "aesz-lorenzo": lambda: _aesz("lorenzo"),
}


@pytest.fixture(scope="module")
def payloads() -> Dict[str, Tuple[object, bytes, np.ndarray]]:
    """``name -> (codec, payload, its decoded field)``, built once."""
    field = _field()
    out = {}
    for name, build in BUILDERS.items():
        comp = build()
        payload = comp.compress(field, 1e-3)
        out[name] = (comp, payload, comp.decompress(payload))
    return out


# --------------------------------------------------------------- mutations
def _recoded(payload: bytes, path: Tuple[str, ...], edit: Callable[[bytes], bytes]) -> bytes:
    """``payload`` with the section at ``path`` (outer to inner; empty for the
    payload itself) replaced by ``edit(section)``, every container re-framed."""
    if not path:
        return edit(payload)
    container = ByteContainer.from_bytes(payload)
    container[path[0]] = _recoded(container[path[0]], path[1:], edit)
    return container.to_bytes()


def _meta_edit(edit: Callable[[dict], None]) -> Callable[[bytes], bytes]:
    def apply(raw: bytes) -> bytes:
        container = ByteContainer({"meta": raw})
        meta = container.get_json("meta")
        edit(meta)
        container.put_json("meta", meta)
        return container["meta"]
    return apply


def _without(field: str) -> Callable[[bytes], bytes]:
    """Drop meta ``field``; ``"grid.block_shape"`` names a nested one."""
    *outer, last = field.split(".")

    def drop(meta: dict) -> None:
        for key in outer:
            meta = meta[key]
        del meta[last]
    return _meta_edit(drop)


def _without_section(section: str) -> Callable[[bytes], bytes]:
    def drop(raw: bytes) -> bytes:
        container = ByteContainer.from_bytes(raw)
        return ByteContainer({k: v for k, v in container.items() if k != section}).to_bytes()
    return drop


def _ragged_floats(raw: bytes) -> bytes:
    return _ENTROPY.backend.compress(_ENTROPY.backend.decompress(raw) + b"\x00" * 3)


def _symbols(edit: Callable[[np.ndarray], np.ndarray]) -> Callable[[bytes], bytes]:
    return lambda raw: _ENTROPY.encode(edit(_ENTROPY.decode(raw)))


def _cases(layout: Layout, path: Tuple[str, ...] = ()) -> List[Tuple[str, tuple, Callable]]:
    """``(case id, section path, edit)`` for every mutation of ``layout``."""
    cases = []
    for section, kind in layout.sections.items():
        where = path + (section,)
        label = "/".join(where)
        cases.append((f"drop-section:{label}", path, _without_section(section)))
        if kind == META:
            cases += [(f"drop-field:{label}.{field}", where, _without(field))
                      for field in layout.required]
            cases.append((f"not-json:{label}", where, lambda raw: b"{not json"))
            cases.append((f"not-object:{label}", where, lambda raw: b"[1]"))
        elif kind == FLOATS:
            cases.append((f"ragged:{label}", where, _ragged_floats))
        elif kind == RAW32:
            cases.append((f"ragged:{label}", where, lambda raw: raw + b"\x00" * 3))
        elif kind == CODES:
            cases.append((f"short:{label}", where, _symbols(lambda c: c[:-1])))
            cases.append((f"long:{label}", where, _symbols(lambda c: np.append(c, c[-1]))))
            cases.append((f"empty:{label}", where, lambda raw: b""))
        else:
            cases.extend(_cases(kind, where))
    return cases


def _narrower_latents(raw: bytes) -> bytes:
    codec = LatentCodec()
    bound = ByteContainer.from_bytes(raw).get_json("meta")["error_bound"]
    return codec.compress(codec.decompress(raw)[:, :-1], bound).payload


# Sections that stay well-formed on their own but disagree with the rest.
MISMATCHES = [
    ("ae_b", ("meta",), _meta_edit(lambda m: m.update(latent_size=m["latent_size"] + 1)),
     "latent_size+1"),
    ("ae_a", ("meta",), _meta_edit(lambda m: m.update(n_segments=m["n_segments"] + 1)),
     "n_segments+1"),
    ("lossless", ("raw",),
     lambda raw: _ENTROPY.backend.compress(_ENTROPY.backend.decompress(raw)[:-8]),
     "raw-one-value-short"),
    ("aesz-ae", ("latents",), _narrower_latents, "latents-one-column-narrower"),
    ("zfp", ("meta",), _meta_edit(lambda m: m["grid"].update(original_shape=[3, 3])),
     "grid-cropped-to-3x3"),
]

# Meta fields present but of the wrong type or out of their range: each
# must read as corrupt, not leak a TypeError or decode a wrong field.
MISTYPED = [
    ("lossless", "dtype", "O"),
    ("lossless", "dtype", "garbage"),
    ("zfp", "offset", "abc"),
    ("zfp", "offset", 1.5),
    ("szauto", "shape", "x"),
    ("szauto", "order", 7),
    ("szauto", "order", 0),
    ("sz21", "num_bins", None),
    ("sz21", "abs_error_bound", "x"),
    ("szinterp", "abs_error_bound", "x"),
    ("szinterp", "anchor_shape", [None]),
    ("szinterp", "shape", [-1, 32]),
    ("ae_b", "latent_size", "4"),
    ("sz21", "abs_error_bound", -1e-3),
    ("zfp", "step", -1.0),
]
MISMATCHES += [(name, ("meta",), _meta_edit(lambda m, f=field, v=value: m.update({f: v})),
                f"{field}={value!r}") for name, field, value in MISTYPED]

CASES = [pytest.param(name, path, edit, id=f"{name}:{case}")
         for name, layout in LAYOUTS.items()
         for case, path, edit in _cases(layout)]
CASES += [pytest.param(name, path, edit, id=f"{name}:{case}")
          for name, path, edit, case in MISMATCHES]


# ------------------------------------------------------------------- tests
def test_every_registered_codec_is_covered():
    assert {name.split("-")[0] for name in LAYOUTS} == set(available_compressors())
    assert set(BUILDERS) == set(LAYOUTS)


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_layout_matches_the_payload(payloads, name):
    """The table above is the codec's real layout, and every field it calls
    unread really is: dropping one still decodes to the same field."""
    comp, payload, decoded = payloads[name]

    def check(layout: Layout, raw: bytes, path: Tuple[str, ...]) -> None:
        container = ByteContainer.from_bytes(raw)
        assert list(container.keys()) == list(layout.sections)
        meta = container.get_json("meta")
        top = {field.split(".")[0] for field in layout.required}
        assert set(meta) == top | set(layout.unread)
        for field in layout.unread:
            damaged = _recoded(payload, path + ("meta",), _without(field))
            np.testing.assert_array_equal(comp.decompress(damaged), decoded)
        for section, kind in layout.sections.items():
            if isinstance(kind, Layout):
                check(kind, container[section], path + (section,))

    check(LAYOUTS[name], payload, ())
    # an identity edit keeps the payload valid, so damage is all a case adds
    assert _recoded(payload, ("meta",), lambda raw: raw) == payload


@pytest.mark.parametrize("name,path,edit", CASES)
def test_damaged_payload_raises_corrupt(payloads, name, path, edit):
    comp, payload, _ = payloads[name]
    damaged = _recoded(payload, path, edit)
    assert damaged != payload
    with pytest.raises(ValueError, match="corrupt"):
        comp.decompress(damaged)


def test_float_section_checks_length_and_shape():
    raw = np.arange(6, dtype=np.float64).tobytes()
    np.testing.assert_array_equal(float_section(raw), np.arange(6.0))
    assert float_section(b"").size == 0
    assert float_section(raw, shape=(2, 3)).shape == (2, 3)
    for cut in (1, 7):
        with pytest.raises(ValueError, match="corrupt payload: float64 section length"):
            float_section(raw[:-cut])
    with pytest.raises(ValueError, match="corrupt payload: float32 section length"):
        float_section(raw[:-2], np.float32)
    with pytest.raises(ValueError, match="corrupt payload: float64 section holds 6"):
        float_section(raw, shape=(2, 4))


def test_shifted_stream_roundtrip_and_checks():
    codes = np.array([[-5, 3], [7, -5]], dtype=np.int64)
    offset, stream = _ENTROPY.encode_shifted(codes)
    assert offset == -5
    np.testing.assert_array_equal(_ENTROPY.decode(stream), (codes + 5).ravel())
    np.testing.assert_array_equal(_ENTROPY.decode_shifted(stream, offset, (2, 2)), codes)
    assert _ENTROPY.encode_shifted(np.zeros(0, dtype=np.int64))[0] == 0
    with pytest.raises(ValueError, match="corrupt payload: code stream size mismatch"):
        _ENTROPY.decode_shifted(stream, offset, (3, 2))
