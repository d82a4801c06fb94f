"""Byte containers: the per-codec section container and the archive envelope.

Compressed outputs consist of named sections (header metadata, latent stream,
quantization codes, unpredictable values, ...).  ``ByteContainer`` serializes a
mapping of section name -> bytes with explicit lengths so decompression never
guesses offsets.

``Archive`` is the self-describing envelope written by :func:`repro.compress`
around every codec's raw payload: a versioned framed header carrying the codec
id, the original shape/dtype, the error-bound mode + value and codec-private
metadata, so ``repro.decompress(blob)`` can reconstruct the array with no
side-channel arguments.  Malformed archives raise ``ValueError("corrupt ...")``
consistently with the entropy-stream convention.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
import sys
import zlib
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import (Callable, ClassVar, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Tuple, Type, TypeVar, Union)

import numpy as np

_MAGIC = b"RPRC"
_LEN = struct.Struct("<I")
_QLEN = struct.Struct("<Q")


class _Meta(dict):
    """A parsed JSON object: a field the payload lacks is damage, not a bug."""

    def __missing__(self, key):
        raise ValueError(f"corrupt payload: missing meta field {key!r}")


# Checked readers for meta values: the writers emit JSON ints, positive finite
# bounds and steps, and lists of non-negative ints, so anything else (a
# string, a bool, null, a float where an int belongs, a bound <= 0) is damage
# and reads as ValueError, not as the TypeError or silently wrong value of a
# bare int() / float() / tuple().
def checked_int(value: object, what: str) -> int:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"corrupt payload: {what} {value!r:.40} is not an integer")
    return int(value)


def checked_positive(value: object, what: str) -> float:
    if (not isinstance(value, (int, float)) or isinstance(value, bool)
            or not 0 < value < sys.float_info.max):
        raise ValueError(f"corrupt payload: {what} {value!r:.40} is not a finite number > 0")
    return float(value)


def checked_shape(value: object, what: str) -> Tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"corrupt payload: {what} {value!r:.40} is not a list of integers")
    shape = tuple(checked_int(n, what) for n in value)
    if any(n < 0 for n in shape):
        raise ValueError(f"corrupt payload: {what} {shape} has a negative extent")
    return shape


class ByteContainer:
    """Ordered mapping of named byte sections with a compact binary encoding.

    A missing section or meta field reads as ``ValueError("corrupt payload")``.
    """

    def __init__(self, sections: Mapping[str, bytes] | None = None):
        self._sections: Dict[str, bytes] = {}
        if sections:
            for key, value in sections.items():
                self[key] = value

    # ------------------------------------------------------------- mapping
    def __setitem__(self, key: str, value: bytes) -> None:
        if not isinstance(key, str) or not key:
            raise TypeError("section names must be non-empty strings")
        if not isinstance(value, (bytes, bytearray, memoryview)):
            raise TypeError(f"section {key!r} must be bytes, got {type(value)!r}")
        self._sections[key] = bytes(value)

    def __getitem__(self, key: str) -> bytes:
        if key not in self._sections:
            raise ValueError(f"corrupt payload: missing section {key!r}")
        return self._sections[key]

    def __contains__(self, key: str) -> bool:
        return key in self._sections

    def get(self, key: str, default: bytes = b"") -> bytes:
        return self._sections.get(key, default)

    def keys(self) -> Iterable[str]:
        return self._sections.keys()

    def items(self):
        return self._sections.items()

    def __len__(self) -> int:
        return len(self._sections)

    # --------------------------------------------------------- json helpers
    def put_json(self, key: str, obj) -> None:
        """Store a JSON-serializable object (used for small metadata headers)."""
        self[key] = json.dumps(obj, separators=(",", ":"), sort_keys=True).encode()

    def get_json(self, key: str) -> dict:
        try:
            obj = json.loads(self[key].decode(), object_hook=_Meta)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"corrupt payload: section {key!r} is not JSON ({exc})") from None
        if not isinstance(obj, dict):
            raise ValueError(f"corrupt payload: section {key!r} is not a JSON object")
        return obj

    # ------------------------------------------------------------ serialize
    def to_bytes(self) -> bytes:
        out = bytearray()
        out += _MAGIC
        out += _LEN.pack(len(self._sections))
        for key, value in self._sections.items():
            kb = key.encode()
            out += _LEN.pack(len(kb))
            out += kb
            out += _QLEN.pack(len(value))
            out += value
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ByteContainer":
        if data[:4] != _MAGIC:
            raise ValueError("not a repro byte container (bad magic)")
        pos = 4
        total = len(data)

        def take_uint(fmt: struct.Struct, what: str) -> int:
            nonlocal pos
            if pos + fmt.size > total:
                raise ValueError(f"corrupt byte container: truncated {what}")
            (value,) = fmt.unpack_from(data, pos)
            pos += fmt.size
            return value

        n = take_uint(_LEN, "section count")
        container = cls()
        for _ in range(n):
            klen = take_uint(_LEN, "section name length")
            if klen == 0 or pos + klen > total:
                raise ValueError("corrupt byte container: bad section name")
            try:
                key = data[pos : pos + klen].decode()
            except UnicodeDecodeError:
                raise ValueError(
                    "corrupt byte container: section name is not UTF-8") from None
            pos += klen
            vlen = take_uint(_QLEN, f"length of section {key!r}")
            if pos + vlen > total:
                raise ValueError(
                    f"corrupt byte container: truncated section {key!r}")
            container[key] = data[pos : pos + vlen]
            pos += vlen
        return container

    @property
    def nbytes(self) -> int:
        """Total serialized size in bytes."""
        return len(self.to_bytes())


# ---------------------------------------------------------------------------
# Self-describing archive envelope
# ---------------------------------------------------------------------------

ARCHIVE_MAGIC = b"RPRA"
ARCHIVE_VERSION = 1

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")

# Layout (little endian):
#   magic "RPRA" | u16 version | u32 header_len | header JSON | u64 payload_len
#   | payload | u8 n_extra | n_extra * (u16 key_len | key | u64 len | bytes)
# The header JSON carries {codec, shape, dtype, bound: {mode, value}, meta, crc};
# ``extra`` holds binary side-sections (embedded model weights, pointwise-
# relative sign/zero masks) that would bloat the JSON header.  ``crc`` records
# a CRC-32 of the payload and of every section, so any byte flip in the body is
# caught deterministically (zlib streams can otherwise absorb flips silently).


def is_archive(data: bytes) -> bool:
    """True when ``data`` starts with the archive magic (vs a raw codec payload)."""
    return bytes(data[:4]) == ARCHIVE_MAGIC


@dataclass
class _Envelope:
    """What every envelope version shares: the header fields + the tile protocol.

    Whatever version wrote it, an archive is ``n_tiles`` independent *tiles*,
    each a complete single-shot archive of one axis-aligned box of the field.
    Readers use only this protocol — ``n_tiles`` / ``tile_slices(i)`` /
    ``tile_shape(i)`` / ``region_tiles(bounds)`` / ``tile_key(i)`` /
    ``check_tile(i, raw)`` / ``tile_bytes(blob, i)`` / ``tile_archive(i,
    read_at)`` — so the envelope-version decision never leaves this module.
    A version states its geometry as ``edges`` alone, plus where a tile's
    bytes live; the tiles are the cells of that rectilinear grid, numbered
    row-major.
    """

    codec: str
    shape: Tuple[int, ...]
    dtype: str
    bound_mode: str
    bound_value: float

    _NOUN: ClassVar[str] = "tile"  # what error messages call one tile

    @property
    def n_points(self) -> int:
        return math.prod(self.shape)

    @cached_property
    def edges(self) -> Tuple[Tuple[int, ...], ...]:
        """Per-axis tile boundaries: along axis ``ax``, tile row ``c`` spans
        ``edges[ax][c]:edges[ax][c + 1]``."""
        raise NotImplementedError

    @cached_property
    def _tiles_per_axis(self) -> Tuple[int, ...]:
        return tuple(len(e) - 1 for e in self.edges)

    @cached_property
    def _axis_slices(self) -> Tuple[Tuple[slice, ...], ...]:
        return tuple(tuple(map(slice, e, e[1:])) for e in self.edges)

    @cached_property
    def n_tiles(self) -> int:
        return math.prod(self._tiles_per_axis)

    def _check_tile_id(self, i: int) -> None:
        if not 0 <= i < self.n_tiles:
            raise IndexError(f"{self._NOUN} index {i} out of range "
                             f"({self.n_tiles} {self._NOUN}s)")

    def tile_coords(self, i: int) -> Tuple[int, ...]:
        """Tile ``i``'s per-axis grid coordinates (row-major flat order)."""
        self._check_tile_id(i)
        coords = []
        for n in reversed(self._tiles_per_axis):
            i, c = divmod(i, n)
            coords.append(c)
        coords.reverse()
        return tuple(coords)

    def tile_slices(self, i: int) -> Tuple[slice, ...]:
        """Tile ``i``'s extent in full-field coordinates, one slice per axis."""
        self._check_tile_id(i)
        out = []
        for axis in reversed(self._axis_slices):  # the last axis varies fastest
            i, c = divmod(i, len(axis))
            out.append(axis[c])
        out.reverse()
        return tuple(out)

    def tile_shape(self, i: int) -> Tuple[int, ...]:
        return tuple(s.stop - s.start for s in self.tile_slices(i))

    def layout(self) -> dict:
        """The version-specific tiling fields of a JSON header document."""
        return {}

    def region_tiles(self, bounds: Sequence[Tuple[int, int]]) -> List[int]:
        """Indices of the tiles intersecting ``bounds``, ascending (storage
        order).

        ``bounds`` must be normalized (one ``(start, stop)`` pair per axis,
        ``0 <= start <= stop <= dim``); an empty axis selects no tiles.
        """
        if len(bounds) != len(self.shape):
            raise ValueError(
                f"region has {len(bounds)} axes, archive field has {len(self.shape)}")
        ids = [0]
        for edges, n, (b0, b1) in zip(self.edges, self._tiles_per_axis, bounds):
            if b0 >= b1:
                return []
            if n > 1:  # a one-tile axis keeps the ids as they are
                axis = range(bisect_right(edges, b0) - 1, bisect_left(edges, b1))
                ids = [i * n + c for i in ids for c in axis]
        return ids


@dataclass
class Archive(_Envelope):
    """The parsed form of a self-describing compressed archive.

    Under the tile protocol a single-shot archive is one tile covering the
    whole field, and that tile's parsed archive is the object itself.
    """

    payload: bytes
    meta: dict = field(default_factory=dict)
    extra: Dict[str, bytes] = field(default_factory=dict)
    version: int = ARCHIVE_VERSION

    kind: ClassVar[str] = "single-shot"

    # -------------------------------------------------------- tile protocol
    @cached_property
    def edges(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple((0, dim) for dim in self.shape)

    def tile_key(self, i: int) -> Tuple[int, ...]:
        """Cache key of the one tile; the parse already CRC-checked its bytes."""
        self._check_tile_id(i)
        return (0,)

    def check_tile(self, i: int, raw: bytes) -> bytes:
        """Validate the tile's bytes — the whole archive — by parsing them
        (a single-shot archive's CRC-32s live in its own header)."""
        self._check_tile_id(i)
        raw = bytes(raw)
        Archive.from_bytes(raw)
        return raw

    def tile_bytes(self, blob: bytes, i: int) -> bytes:
        return self.check_tile(i, blob)

    def tile_archive(self, i: int,
                     read_at: Callable[[int, int], bytes]) -> "Archive":
        """Tile ``i`` as a parsed single-shot archive: this object, no I/O."""
        self._check_tile_id(i)
        return self

    def content_identity(self) -> tuple:
        """The content token an entity tag hashes: the payload's size + CRC."""
        return (len(self.payload), zlib.crc32(self.payload))

    def layout_summary(self) -> str:
        """One line describing how the archive is chunked (``repro info``)."""
        return "single-shot (1 payload)"

    # ------------------------------------------------------------ serialize
    def to_bytes(self) -> bytes:
        header = {
            "codec": self.codec,
            "shape": [int(s) for s in self.shape],
            "dtype": str(self.dtype),
            "bound": {"mode": self.bound_mode, "value": float(self.bound_value)},
            "meta": self.meta,
            "crc": {"payload": zlib.crc32(self.payload),
                    "extra": {k: zlib.crc32(v) for k, v in self.extra.items()}},
        }
        header_bytes = json.dumps(header, separators=(",", ":"), sort_keys=True).encode()
        if len(self.extra) > 255:
            raise ValueError("archives support at most 255 extra sections")
        out = bytearray()
        out += ARCHIVE_MAGIC
        out += _U16.pack(ARCHIVE_VERSION)
        out += _LEN.pack(len(header_bytes))
        out += header_bytes
        out += _QLEN.pack(len(self.payload))
        out += self.payload
        out += _U8.pack(len(self.extra))
        for key, value in self.extra.items():
            kb = key.encode()
            out += _U16.pack(len(kb))
            out += kb
            out += _QLEN.pack(len(value))
            out += value
        return bytes(out)

    # -------------------------------------------------------------- parse
    @classmethod
    def from_bytes(cls, data: bytes) -> "Archive":
        data = bytes(data)

        def take(pos: int, n: int, what: str) -> Tuple[bytes, int]:
            if pos + n > len(data):
                raise ValueError(f"corrupt archive: truncated {what}")
            return data[pos:pos + n], pos + n

        version, header, pos = _parse_front(data)
        if version == CHUNKED_ARCHIVE_VERSION:
            raise ValueError(
                "this is a chunked (multi-chunk) archive; parse it with "
                "ChunkedIndex.from_bytes or decode it via repro.decompress"
            )
        if version == GRID_ARCHIVE_VERSION:
            raise ValueError(
                "this is a grid (N-d tiled) archive; parse it with "
                "GridIndex.from_bytes or decode it via repro.decompress / "
                "repro.read_region"
            )
        if version != ARCHIVE_VERSION:
            raise _unsupported_version(version)
        fields = _common_header_fields(header)

        raw, pos = take(pos, _QLEN.size, "payload length")
        (plen,) = _QLEN.unpack(raw)
        payload, pos = take(pos, plen, "payload")
        raw, pos = take(pos, _U8.size, "section count")
        (n_extra,) = _U8.unpack(raw)
        extra: Dict[str, bytes] = {}
        for _ in range(n_extra):
            raw, pos = take(pos, _U16.size, "section key length")
            (klen,) = _U16.unpack(raw)
            raw, pos = take(pos, klen, "section key")
            try:
                key = raw.decode()
            except UnicodeDecodeError:
                raise ValueError("corrupt archive: undecodable section key") from None
            raw, pos = take(pos, _QLEN.size, "section length")
            (vlen,) = _QLEN.unpack(raw)
            extra[key], pos = take(pos, vlen, f"section {key!r}")
        if pos != len(data):
            raise ValueError(f"corrupt archive: {len(data) - pos} trailing bytes")

        # ``to_bytes`` has always written ``crc``: an archive without one is
        # tampered with, not old, and must not decode unchecked.
        crc = header.get("crc")
        extra_crc = crc.get("extra", {}) if isinstance(crc, dict) else None
        if not isinstance(crc, dict) or not isinstance(extra_crc, dict):
            raise ValueError("corrupt archive: missing or malformed crc field")
        if zlib.crc32(payload) != crc.get("payload"):
            raise ValueError("corrupt archive: payload checksum mismatch")
        for key, value in extra.items():
            if zlib.crc32(value) != extra_crc.get(key):
                raise ValueError(
                    f"corrupt archive: section {key!r} checksum mismatch")
        return cls(**fields, payload=payload, extra=extra, version=version)


# ---------------------------------------------------------------------------
# Chunked (multi-chunk) archive envelope — format version 2
# ---------------------------------------------------------------------------

CHUNKED_ARCHIVE_VERSION = 2
GRID_ARCHIVE_VERSION = 3

#: Bytes of fixed-size front matter before the JSON header: magic (4) +
#: version (u16) + header length (u32).  Reading this prefix is enough to know
#: how many more bytes the full front (and thus the chunk/tile index) needs.
FRONT_PREFIX = 4 + _U16.size + _LEN.size


def front_size(prefix: bytes) -> int:
    """Total front-matter size (magic through header JSON) of an archive.

    Needs only the first :data:`FRONT_PREFIX` bytes.  Region readers use this
    to fetch a multi-gigabyte archive's index with two small reads: one for
    the fixed prefix, one for the JSON header it sizes.
    """
    prefix = bytes(prefix[:FRONT_PREFIX])
    _front_version(prefix)
    (hlen,) = _LEN.unpack_from(prefix, 4 + _U16.size)
    return FRONT_PREFIX + hlen


def _front_version(data: bytes) -> int:
    """The version of an archive whose first bytes are ``data``, after
    checking its magic and that ``data`` holds the fixed front matter."""
    if data[:4] != ARCHIVE_MAGIC:
        raise ValueError("corrupt archive: bad magic (not a repro archive)")
    if len(data) < FRONT_PREFIX:
        # Valid magic but the source ended inside the fixed front matter:
        # report truncation, not a misleading magic failure.
        raise ValueError(
            f"corrupt archive: truncated front matter ({len(data)} bytes, "
            f"need at least {FRONT_PREFIX})")
    (version,) = _U16.unpack_from(data, 4)
    return version


def parse_front(data: bytes) -> Tuple[int, dict, int]:
    """Parse the envelope front: ``(version, header_dict, data_start)``.

    ``data`` may be a prefix of the archive — it must cover the front matter
    (magic | u16 version | u32 header len | header JSON) but none of the body
    bytes that follow, which is what lets index parsing stay O(header) for
    arbitrarily large chunked/grid archives.
    """
    return _parse_front(bytes(data))


def _parse_front(data: bytes) -> Tuple[int, dict, int]:
    """:func:`parse_front` of ``bytes`` — also the front of every v1 tile
    :meth:`Archive.from_bytes` parses, which is not an index parse."""
    version = _front_version(data)
    (hlen,) = _LEN.unpack_from(data, 4 + _U16.size)
    if FRONT_PREFIX + hlen > len(data):
        raise ValueError("corrupt archive: truncated header")
    try:
        header = json.loads(data[FRONT_PREFIX:FRONT_PREFIX + hlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"corrupt archive: unreadable header ({exc})") from None
    if not isinstance(header, dict):
        raise ValueError("corrupt archive: header is not a JSON object")
    return version, header, FRONT_PREFIX + hlen


@contextmanager
def _malformed_header() -> Iterator[None]:
    """Report a header value of the wrong kind or a missing key as corrupt."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"corrupt archive: malformed header ({exc})") from None


def _common_header_fields(header: dict) -> dict:
    """The constructor fields every envelope version shares, from a header dict."""
    with _malformed_header():
        bound = header["bound"]
        fields = dict(codec=str(header["codec"]),
                      shape=tuple(int(s) for s in header["shape"]),
                      dtype=str(header["dtype"]), bound_mode=str(bound["mode"]),
                      bound_value=float(bound["value"]),
                      meta=header.get("meta", {}))
    if not isinstance(fields["meta"], dict):
        raise ValueError("corrupt archive: header meta is not a JSON object")
    return fields


def _check_contiguous(offsets: Sequence[int], lengths: Sequence[int],
                      data_start: int, total_size: int, what: str) -> None:
    """Validate that byte ranges tile [data_start, total_size) back to back."""
    end = 0
    for off, length in zip(offsets, lengths):
        if off != end or length < 0:
            raise ValueError(f"corrupt archive: non-contiguous {what} offsets")
        end += length
    if data_start + end != total_size:
        missing = data_start + end - total_size
        if missing > 0:
            raise ValueError(f"corrupt archive: truncated {what} data")
        raise ValueError(f"corrupt archive: {-missing} trailing bytes")


def _unsupported_version(version: int) -> ValueError:
    return ValueError(
        f"unsupported archive version {version} (this build reads versions "
        f"{ARCHIVE_VERSION}, {CHUNKED_ARCHIVE_VERSION} and "
        f"{GRID_ARCHIVE_VERSION})")


_Index = TypeVar("_Index", bound="_TileTable")


@dataclass
class _TileTable(_Envelope):
    """The tile index table v2 and v3 share: where each tile's bytes live.

    ``offsets[i]`` / ``lengths[i]`` locate tile ``i`` relative to
    ``data_start`` and ``crcs[i]`` is the CRC-32 of the whole tile blob.
    """

    offsets: Tuple[int, ...]
    lengths: Tuple[int, ...]
    crcs: Tuple[int, ...]
    data_start: int              # absolute byte offset of the first tile blob

    _VERSION: ClassVar[int]      # the envelope version this class parses
    _SECTION: ClassVar[str]      # the header key holding geometry + tile table
    _NOT_THIS: ClassVar[str]     # from_bytes's message for another version
    _COUNT_ERROR: ClassVar[str]  # when the table and the geometry disagree

    def check_tile(self, i: int, raw: bytes) -> bytes:
        """Validate tile ``i``'s bytes (length + CRC-32) as read from storage."""
        raw = bytes(raw)
        if len(raw) != self.lengths[i] or zlib.crc32(raw) != self.crcs[i]:
            raise ValueError(
                f"corrupt archive: {self._NOUN} {i} checksum mismatch")
        return raw

    def tile_key(self, i: int) -> Tuple[int, ...]:
        """Cheap per-tile cache key from the index table alone.

        ``(tile index, byte offset, length, CRC-32)`` — no tile bytes read or
        hashed — so a decoded-tile cache can key on ``(archive identity,
        tile_key)`` and an in-place rewrite of the tile (new CRC, almost
        surely new offset/length) can never alias a stale entry.
        """
        self._check_tile_id(i)
        return (int(i), int(self.offsets[i]), int(self.lengths[i]),
                int(self.crcs[i]))

    def tile_bytes(self, blob: bytes, i: int) -> bytes:
        """Slice tile ``i``'s archive out of the full blob, CRC-checked."""
        self._check_tile_id(i)
        start = self.data_start + self.offsets[i]
        end = start + self.lengths[i]
        if end > len(blob):
            raise ValueError(f"corrupt archive: truncated {self._NOUN} {i}")
        return self.check_tile(i, blob[start:end])

    def tile_archive(self, i: int,
                     read_at: Callable[[int, int], bytes]) -> Archive:
        """Tile ``i`` as a parsed single-shot archive, its bytes fetched with
        one positional ``read_at(offset, length)`` and CRC-checked."""
        return Archive.from_bytes(self.check_tile(
            i, read_at(self.data_start + self.offsets[i], self.lengths[i])))

    def content_identity(self) -> tuple:
        """The content token an entity tag hashes: every tile's identity."""
        return (tuple(self.offsets), tuple(self.lengths), tuple(self.crcs))

    # -------------------------------------------------------------- parse
    @classmethod
    def _geometry(cls, section: Mapping, shape: Tuple[int, ...]) -> dict:
        """This version's geometry fields, read and checked from its header
        ``section``."""
        raise NotImplementedError

    @classmethod
    def from_header(cls: Type[_Index], header: dict, data_start: int,
                    total_size: int) -> _Index:
        """Build (and fully validate) an index from a parsed front header.

        ``total_size`` is the archive's complete byte length — for an
        in-memory blob ``len(blob)``, for an on-disk archive the file size —
        so index validation never needs the tile bytes themselves.
        """
        fields = _common_header_fields(header)
        with _malformed_header():
            section = header[cls._SECTION]
            offsets, lengths, crcs = (tuple(int(v) for v in section[key])
                                      for key in ("offsets", "lengths", "crcs"))
        index = cls(**fields, **cls._geometry(section, fields["shape"]),
                    offsets=offsets, lengths=lengths, crcs=crcs, data_start=data_start)
        if not 0 < len(offsets) == len(lengths) == len(crcs) == index.n_tiles:
            raise ValueError("corrupt archive: " + cls._COUNT_ERROR.format(
                index=index, found=len(offsets)))
        _check_contiguous(offsets, lengths, data_start, total_size, cls._NOUN)
        return index

    @classmethod
    def from_bytes(cls: Type[_Index], data: bytes) -> _Index:
        data = bytes(data)
        version, header, data_start = parse_front(data)
        if version != cls._VERSION:
            raise ValueError(cls._NOT_THIS.format(version=version))
        return cls.from_header(header, data_start, len(data))


def _build_tiled_archive(version: int, section: str, geometry: dict,
                         blobs: Sequence[bytes], *, codec: str,
                         shape: Sequence[int], dtype: str, bound_mode: str,
                         bound_value: float, meta: Optional[dict]) -> bytes:
    """Serialize a v2/v3 envelope: magic | version | header len | canonical
    JSON | tile blobs.  The header's ``section`` holds the version's
    ``geometry`` plus the contiguous ``offsets`` / ``lengths`` / ``crcs``
    tile table of ``blobs``."""
    lengths = [len(blob) for blob in blobs]
    header = {
        "codec": str(codec),
        "shape": [int(s) for s in shape],
        "dtype": str(dtype),
        "bound": {"mode": str(bound_mode), "value": float(bound_value)},
        "meta": meta or {},
        section: {**geometry, "lengths": lengths,
                  "offsets": list(itertools.accumulate(lengths, initial=0))[:-1],
                  "crcs": [zlib.crc32(blob) for blob in blobs]},
    }
    header_bytes = json.dumps(header, separators=(",", ":"), sort_keys=True).encode()
    return b"".join([ARCHIVE_MAGIC, _U16.pack(version),
                     _LEN.pack(len(header_bytes)), header_bytes, *blobs])


def grid_shape_of(shape: Sequence[int], chunk_shape: Sequence[int]) -> Tuple[int, ...]:
    """Tiles per axis for a chunk grid: ``ceil(shape[ax] / chunk_shape[ax])``."""
    return tuple(-(-int(d) // int(c)) for d, c in zip(shape, chunk_shape))


def grid_edges(shape: Sequence[int], chunk_shape: Sequence[int]
               ) -> Tuple[Tuple[int, ...], ...]:
    """Per-axis tile boundaries of a chunk grid: every ``chunk_shape[ax]``
    from 0, then the field's edge (so edge tiles are smaller)."""
    return tuple(tuple(range(0, int(d), int(c))) + (int(d),)
                 for d, c in zip(shape, chunk_shape))


def grid_tile_slices(shape: Sequence[int], chunk_shape: Sequence[int]
                     ) -> Iterator[Tuple[slice, ...]]:
    """Each tile of a chunk grid as full-field slices, in row-major (index
    table) order; a 0-d field is one tile, ``()``."""
    return itertools.product(*(map(slice, e, e[1:])
                               for e in grid_edges(shape, chunk_shape)))

# Layout (little endian):
#   magic "RPRA" | u16 version=2 | u32 header_len | header JSON | chunk blobs
# The header JSON carries {codec, shape, dtype, bound: {mode, value}, meta,
# chunks: {axis, starts, offsets, lengths, crcs}}.  Each chunk blob is a
# complete version-1 archive (its own header, CRC and error-bound record), and
# the index table sits entirely in the front header: ``offsets[i]`` /
# ``lengths[i]`` locate chunk ``i`` relative to the end of the header and
# ``crcs[i]`` is the CRC-32 of the whole chunk blob, so any chunk can be
# located, integrity-checked and decoded independently and in any order
# without touching the others.  ``starts`` are the chunk boundaries along
# ``axis`` (``starts[i]:starts[i+1]`` is chunk ``i``'s slab of the full
# field); a 0-d field is a single chunk with ``starts == [0, 1]``.


def archive_version(data: bytes) -> int:
    """Format version of an archive blob (1 = single-shot, 2 = chunked,
    3 = N-d grid)."""
    return _front_version(bytes(data[:FRONT_PREFIX]))


def is_grid_archive(data: bytes) -> bool:
    """True when ``data`` is a version-3 (N-d chunk grid) archive."""
    try:
        return archive_version(data) == GRID_ARCHIVE_VERSION
    except ValueError:
        return False


@dataclass
class ChunkedIndex(_TileTable):
    """The parsed front matter of a chunked archive: everything but the chunks.

    Mirrors :class:`Archive`'s header attributes (``codec`` / ``shape`` /
    ``dtype`` / ``bound_mode`` / ``bound_value`` / ``meta``) so inspection code
    can treat both formats uniformly, and adds the chunk index table.  Under
    the tile protocol it is a grid split along axis 0 only, whose tiles are
    the slabs ``starts[i]:starts[i+1]`` — ragged when an iterator source
    flushed a short chunk, so not a uniform :class:`GridIndex`.
    """

    axis: int
    starts: Tuple[int, ...]      # chunk boundaries along ``axis``, len n_tiles+1
    meta: dict = field(default_factory=dict)
    version: int = CHUNKED_ARCHIVE_VERSION

    kind: ClassVar[str] = "chunked, axis-0 slabs"
    _NOUN: ClassVar[str] = "chunk"
    _VERSION: ClassVar[int] = CHUNKED_ARCHIVE_VERSION
    _SECTION: ClassVar[str] = "chunks"
    _NOT_THIS: ClassVar[str] = ("not a chunked archive (version {version}); "
                                "use Archive.from_bytes")
    _COUNT_ERROR: ClassVar[str] = "inconsistent chunk index table"

    @cached_property
    def edges(self) -> Tuple[Tuple[int, ...], ...]:
        # A 0-d field has no axes: its one chunk holds the scalar itself.
        return tuple(self.starts if ax == 0 else (0, dim)
                     for ax, dim in enumerate(self.shape))

    def layout(self) -> dict:
        return {"axis": self.axis}

    def layout_summary(self) -> str:
        """One line describing how the archive is chunked (``repro info``)."""
        rows = max(b - a for a, b in zip(self.starts, self.starts[1:]))
        return (f"axis {self.axis}, {rows} rows per chunk, "
                f"{self.n_tiles} chunks")

    @classmethod
    def _geometry(cls, section: Mapping, shape: Tuple[int, ...]) -> dict:
        with _malformed_header():
            axis = int(section["axis"])
            starts = tuple(int(s) for s in section["starts"])
        if len(starts) < 2 or (not shape and len(starts) != 2):  # 0-d: one chunk
            raise ValueError(f"corrupt archive: {cls._COUNT_ERROR}")
        if axis != 0:
            # The writer only emits axis-0 slabs; anything else would be
            # silently misplaced by the axis-0 reassembly paths.
            raise ValueError(
                f"unsupported chunk axis {axis} (this build reads axis-0 "
                f"chunked archives)"
            )
        if any(a > b for a, b in zip(starts, starts[1:])) or starts[0] != 0:
            raise ValueError("corrupt archive: non-monotonic chunk starts")
        if starts[-1] != (shape[axis] if shape else 1):
            raise ValueError("corrupt archive: chunk starts do not cover the field")
        return {"axis": axis, "starts": starts}


def build_chunked_archive(*, codec: str, shape: Tuple[int, ...], dtype: str,
                          bound_mode: str, bound_value: float, axis: int,
                          starts: Iterable[int], chunk_blobs: Iterable[bytes],
                          meta: Optional[dict] = None) -> bytes:
    """Assemble a version-2 chunked archive from per-chunk version-1 blobs."""
    chunk_blobs = [bytes(b) for b in chunk_blobs]
    starts = [int(s) for s in starts]
    if not chunk_blobs:
        raise ValueError("a chunked archive needs at least one chunk")
    if len(starts) != len(chunk_blobs) + 1:
        raise ValueError("starts must have exactly one more entry than chunk_blobs")
    return _build_tiled_archive(
        CHUNKED_ARCHIVE_VERSION, "chunks", {"axis": int(axis), "starts": starts},
        chunk_blobs, codec=codec, shape=shape, dtype=dtype,
        bound_mode=bound_mode, bound_value=bound_value, meta=meta)


# ---------------------------------------------------------------------------
# N-d chunk-grid archive envelope — format version 3
# ---------------------------------------------------------------------------

# Layout (little endian):
#   magic "RPRA" | u16 version=3 | u32 header_len | header JSON | tile blobs
# The header JSON carries {codec, shape, dtype, bound: {mode, value}, meta,
# grid: {chunk_shape, offsets, lengths, crcs}}.  ``chunk_shape`` is the
# per-axis tile size; the grid has ``ceil(shape[ax] / chunk_shape[ax])`` tiles
# along each axis (edge tiles are smaller) and the index arrays enumerate the
# tiles in **row-major order over the grid**.  Each tile blob is a complete
# version-1 archive of its sub-array; ``offsets[i]`` / ``lengths[i]`` locate
# tile ``i`` relative to the end of the header and ``crcs[i]`` is the CRC-32
# of the whole tile blob.  A reader wanting the sub-cube ``region`` therefore
# touches only the front header plus the tiles whose per-axis index lies in
# ``[start // chunk_shape[ax], ceil(stop / chunk_shape[ax]))`` — O(region)
# bytes, not O(archive).


@dataclass
class GridIndex(_TileTable):
    """The parsed front matter of a version-3 (N-d chunk grid) archive.

    Mirrors :class:`Archive`'s header attributes (``codec`` / ``shape`` /
    ``dtype`` / ``bound_mode`` / ``bound_value`` / ``meta``) and exposes the
    same tile protocol as :class:`ChunkedIndex` (``n_tiles`` /
    ``tile_slices`` / ``tile_shape`` / ``check_tile`` / ``tile_bytes`` /
    ``region_tiles``), so region readers treat both formats uniformly.
    """

    chunk_shape: Tuple[int, ...]  # per-axis tile size, len == len(shape)
    grid_shape: Tuple[int, ...]   # tiles per axis: ceil(shape / chunk_shape)
    meta: dict = field(default_factory=dict)
    version: int = GRID_ARCHIVE_VERSION

    kind: ClassVar[str] = "N-d chunk grid"
    _VERSION: ClassVar[int] = GRID_ARCHIVE_VERSION
    _SECTION: ClassVar[str] = "grid"
    _NOT_THIS: ClassVar[str] = ("not a grid archive (version {version}); use "
                                "Archive.from_bytes or ChunkedIndex.from_bytes")
    _COUNT_ERROR: ClassVar[str] = ("grid index has {found} tiles, grid shape "
                                   "{index.grid_shape} needs {index.n_tiles}")

    @cached_property
    def edges(self) -> Tuple[Tuple[int, ...], ...]:
        return grid_edges(self.shape, self.chunk_shape)

    @cached_property
    def _tiles_per_axis(self) -> Tuple[int, ...]:
        # The same counts ``edges`` gives, without building them: a header
        # naming a huge grid then fails its tile-count check allocation-free.
        return self.grid_shape

    def layout(self) -> dict:
        return {"chunk_shape": list(self.chunk_shape),
                "grid_shape": list(self.grid_shape)}

    def layout_summary(self) -> str:
        """One line describing how the archive is chunked (``repro info``)."""
        return (f"chunk shape {tuple(self.chunk_shape)}, grid "
                f"{'x'.join(str(g) for g in self.grid_shape)}, "
                f"{self.n_tiles} tiles")

    @classmethod
    def _geometry(cls, section: Mapping, shape: Tuple[int, ...]) -> dict:
        with _malformed_header():
            chunk_shape = tuple(int(c) for c in section["chunk_shape"])
        if len(chunk_shape) != len(shape):
            raise ValueError(
                f"corrupt archive: chunk_shape has {len(chunk_shape)} axes, "
                f"shape has {len(shape)}")
        if any(c < 1 for c in chunk_shape) or any(d < 1 for d in shape):
            raise ValueError("corrupt archive: non-positive grid dimensions")
        return {"chunk_shape": chunk_shape,
                "grid_shape": grid_shape_of(shape, chunk_shape)}


def load_index(reader) -> Union[Archive, ChunkedIndex, GridIndex]:
    """Parse an archive's index from a reader, touching O(header) bytes.

    Version-1 archives have no tile table, so they are read whole; chunked
    (v2) and grid (v3) archives read only the front matter and validate the
    index against the total size.
    """
    prefix = reader.read_at(0, FRONT_PREFIX)
    if archive_version(prefix) == ARCHIVE_VERSION:
        return Archive.from_bytes(reader.read_all())
    front = reader.read_at(0, front_size(prefix))
    version, header, data_start = parse_front(front)
    if version == CHUNKED_ARCHIVE_VERSION:
        return ChunkedIndex.from_header(header, data_start, reader.size)
    if version == GRID_ARCHIVE_VERSION:
        return GridIndex.from_header(header, data_start, reader.size)
    raise _unsupported_version(version)


def build_grid_archive(*, codec: str, shape: Tuple[int, ...], dtype: str,
                       bound_mode: str, bound_value: float,
                       chunk_shape: Tuple[int, ...], tile_blobs: Iterable[bytes],
                       meta: Optional[dict] = None) -> bytes:
    """Assemble a version-3 grid archive from per-tile version-1 blobs.

    ``tile_blobs`` must enumerate the grid in row-major order (the order
    :func:`grid_tile_slices` yields).
    """
    shape = tuple(int(s) for s in shape)
    chunk_shape = tuple(int(c) for c in chunk_shape)
    tile_blobs = [bytes(b) for b in tile_blobs]
    if len(chunk_shape) != len(shape):
        raise ValueError(
            f"chunk_shape has {len(chunk_shape)} axes, shape has {len(shape)}")
    if any(c < 1 for c in chunk_shape) or any(d < 1 for d in shape):
        raise ValueError("grid archives need positive shape and chunk_shape entries")
    grid_shape = grid_shape_of(shape, chunk_shape)
    n = math.prod(grid_shape)
    if len(tile_blobs) != n:
        raise ValueError(
            f"grid shape {grid_shape} needs {n} tiles, got {len(tile_blobs)}")
    return _build_tiled_archive(
        GRID_ARCHIVE_VERSION, "grid", {"chunk_shape": list(chunk_shape)},
        tile_blobs, codec=codec, shape=shape, dtype=dtype,
        bound_mode=bound_mode, bound_value=bound_value, meta=meta)
