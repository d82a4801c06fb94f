"""Durable store manifest: the on-disk registry behind ``repro serve --root``.

A writable store node owns a *root* directory::

    root/
      manifest.json        <- this module: key -> archive metadata + auth
      manifest.json.tmp    <- transient (atomic-rewrite staging; swept on boot)
      archives/            <- the archive files the manifest points at
        field-1a2b3c4d.g000001.rpra
        field-1a2b3c4d.g000002.rpra   (a replacement generation)

``manifest.json`` is one JSON document mapping each served key to its archive
path (relative to the root), codec, shape/dtype, bound, a content token
(SHA-256 of the archive bytes), created/replaced timestamps and a
monotonically increasing generation counter, plus a ``"auth"`` map of bearer
tokens for the mutating HTTP routes.  Every mutation rewrites the whole
document **atomically**: serialize to ``manifest.json.tmp``, ``fsync`` the
temp file, ``os.replace`` it over the live one, ``fsync`` the directory — a
crash at any point leaves either the old or the new manifest, never a torn
one.  On startup :class:`StoreManifest` replays the document so a restarted
``repro serve --root`` comes back with its registry intact.

Malformed manifest bytes raise ``ValueError("corrupt manifest ...")`` — the
same convention as the archive parsers (checked by ``repro.lint`` RPR002).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.utils.concurrency import install_guards, make_lock

MANIFEST_NAME = "manifest.json"
ARCHIVE_DIR = "archives"
MANIFEST_FORMAT = "repro-store-manifest"
MANIFEST_VERSION = 1

#: Per-entry fields every manifest record must carry (the writer always
#: emits all of them; the loader refuses records missing any).
ENTRY_FIELDS = ("path", "codec", "shape", "dtype", "bound", "token",
                "nbytes", "created", "replaced", "generation")


class ManifestEntry:
    """One key's durable record: where its archive lives and what is in it."""

    __slots__ = ENTRY_FIELDS + ("key",)

    def __init__(self, key: str, *, path: str, codec: str, shape, dtype: str,
                 bound: dict, token: str, nbytes: int, created: float,
                 replaced: Optional[float], generation: int):
        self.key = key
        self.path = path
        self.codec = codec
        self.shape = [int(s) for s in shape]
        self.dtype = dtype
        self.bound = dict(bound)
        self.token = token
        self.nbytes = int(nbytes)
        self.created = float(created)
        self.replaced = None if replaced is None else float(replaced)
        self.generation = int(generation)

    def to_dict(self) -> dict:
        return {f: getattr(self, f) for f in ENTRY_FIELDS}

    def replacement(self, *, path: str, token: str, nbytes: int, codec: str,
                    shape, dtype: str, bound: dict) -> "ManifestEntry":
        """The next generation of this key (created stamp preserved)."""
        return ManifestEntry(self.key, path=path, codec=codec, shape=shape,
                             dtype=dtype, bound=bound, token=token,
                             nbytes=nbytes, created=self.created,
                             replaced=time.time(),
                             generation=self.generation + 1)


def _load_entry(key: str, record: dict) -> ManifestEntry:
    """Parse one manifest record, refusing structurally malformed ones."""
    if not isinstance(record, dict):
        raise ValueError(
            f"corrupt manifest: entry for key {key!r} is not an object")
    missing = [f for f in ENTRY_FIELDS if f not in record]
    if missing:
        raise ValueError(
            f"corrupt manifest: entry for key {key!r} is missing "
            f"{', '.join(missing)}")
    try:
        entry = ManifestEntry(key, **{f: record[f] for f in ENTRY_FIELDS})
    except (TypeError, KeyError, OverflowError) as exc:
        raise ValueError(
            f"corrupt manifest: entry for key {key!r}: {exc}") from None
    rel = Path(entry.path)
    if rel.is_absolute() or ".." in rel.parts:
        raise ValueError(
            f"corrupt manifest: entry for key {key!r} has path {entry.path!r} "
            f"escaping the store root")
    return entry


def _load_document(text) -> dict:
    """Parse manifest bytes/JSON into ``{"entries": {...}, "auth": {...}}``.

    Structural problems — broken encoding, invalid JSON, wrong format
    marker, malformed entries or auth records — all raise
    ``ValueError("corrupt manifest ...")`` so a damaged root fails loudly at
    startup instead of half-serving.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"corrupt manifest: invalid JSON ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != MANIFEST_FORMAT:
        raise ValueError(
            f"corrupt manifest: missing format marker {MANIFEST_FORMAT!r}")
    version = doc.get("version")
    if version != MANIFEST_VERSION:
        raise ValueError(
            f"corrupt manifest: unsupported version {version!r} (this build "
            f"reads version {MANIFEST_VERSION})")
    raw_entries = doc.get("entries", {})
    if not isinstance(raw_entries, dict):
        raise ValueError("corrupt manifest: 'entries' is not an object")
    entries = {str(key): _load_entry(str(key), record)
               for key, record in raw_entries.items()}
    auth = doc.get("auth", {})
    if not isinstance(auth, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in auth.items()):
        raise ValueError(
            "corrupt manifest: 'auth' must map key patterns to token strings")
    return {"entries": entries, "auth": dict(auth)}


def fsync_directory(path: Path) -> None:
    """Flush a directory's metadata (new/renamed names) to stable storage.

    Some platforms/filesystems refuse to open or fsync directories; those
    give weaker (rename-ordering) durability, which is the best available.
    """
    try:
        fd = os.open(os.fspath(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def write_file_durably(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically: temp + fsync + ``os.replace``."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    fsync_directory(path.parent)


class StoreManifest:
    """The durable key registry of one store root, with atomic rewrites.

    All mutation methods (``put`` / ``delete`` / ``set_auth``) persist the
    whole document before returning; readers (``get`` / ``entries`` /
    ``auth_token``) see the in-memory copy, which always matches the last
    durable write.  Every method is thread-safe.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.archive_dir.mkdir(exist_ok=True)
        self._lock = make_lock("StoreManifest._lock")
        self._entries: Dict[str, ManifestEntry] = {}  # guarded by: self._lock
        self._auth: Dict[str, str] = {}  # guarded by: self._lock
        path = self.path
        if path.exists():
            # Bytes, not text: _load_document owns the decode so that a
            # byte-flipped file fails as "corrupt manifest", not UnicodeError.
            loaded = _load_document(path.read_bytes())
            with self._lock:
                self._entries = loaded["entries"]
                self._auth = loaded["auth"]

    # ------------------------------------------------------------- locations
    @property
    def path(self) -> Path:
        return self.root / MANIFEST_NAME

    @property
    def archive_dir(self) -> Path:
        return self.root / ARCHIVE_DIR

    def archive_path(self, entry: ManifestEntry) -> Path:
        """The absolute path of an entry's archive file."""
        return self.root / entry.path

    # --------------------------------------------------------------- readers
    def get(self, key: str) -> Optional[ManifestEntry]:
        with self._lock:
            return self._entries.get(key)

    def entries(self) -> Dict[str, ManifestEntry]:
        """A point-in-time snapshot of every record, keyed by archive key."""
        with self._lock:
            return dict(self._entries)

    def keys(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def referenced_paths(self) -> List[Path]:
        """Absolute paths of every archive the manifest points at."""
        with self._lock:
            entries = list(self._entries.values())
        return [self.root / e.path for e in entries]

    def auth_token(self, key: str) -> Optional[str]:
        """The bearer token guarding mutations of ``key`` (``None`` = open).

        A per-key token takes precedence; ``"*"`` is the store-wide default.
        """
        with self._lock:
            return self._auth.get(key, self._auth.get("*"))

    # -------------------------------------------------------------- mutators
    def put(self, entry: ManifestEntry) -> None:
        """Insert or replace ``entry.key``'s record and persist atomically."""
        with self._lock:
            self._entries[entry.key] = entry
            self._write_locked()

    def delete(self, key: str) -> ManifestEntry:
        """Drop ``key``'s record (persisting) and return it; KeyError if absent."""
        with self._lock:
            if key not in self._entries:
                raise KeyError(f"no manifest entry for key {key!r}")
            entry = self._entries.pop(key)
            self._write_locked()
        return entry

    def set_auth(self, key: str, token: Optional[str]) -> None:
        """Set (or with ``None`` clear) the bearer token for ``key``/``"*"``."""
        with self._lock:
            if token is None:
                self._auth.pop(key, None)
            else:
                self._auth[key] = token
            self._write_locked()

    # ------------------------------------------------------------- internals
    def _write_locked(self) -> None:
        """Serialize + atomically publish.  Must hold ``self._lock``."""
        doc = {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "auth": dict(self._auth),
            "entries": {k: e.to_dict() for k, e in sorted(self._entries.items())},
        }
        write_file_durably(self.path,
                           json.dumps(doc, indent=2, sort_keys=True).encode())


install_guards(StoreManifest, "_lock", ("_entries", "_auth"))
