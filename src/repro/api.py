"""Top-level facade: ``repro.compress`` / ``repro.decompress`` / ``repro.roundtrip``.

This is the tool-grade entry point the SZ/ZFP command-line tools provide and
the per-class API did not: :func:`compress` wraps every codec's raw payload in
a self-describing :class:`repro.encoding.container.Archive` (codec id, shape,
dtype, error-bound mode + value, codec-private metadata), so
:func:`decompress` reconstructs the array from the blob alone — no dims, dtype,
codec class or (for AE-based codecs with an embedded model) model argument.

Error bounds are :class:`repro.bounds.ErrorBound` objects::

    import repro
    from repro import Rel, Abs, PtwRel

    blob = repro.compress(data, codec="sz21", bound=Rel(1e-3))
    recon = repro.decompress(blob)

``Rel`` is the paper's value-range-relative mode; ``Abs`` is rescaled exactly
to the input's value range; ``PtwRel`` is realized with the standard sign+log
transform (compress ``log |d|`` under an absolute bound of ``log(1+eps)``),
with lossless sign/zero masks stored as archive sections so zeros and signs
reconstruct exactly.

Raw payloads produced by the per-class ``compress`` methods keep decoding
through the per-class ``decompress`` — the archive layer is additive.
"""

from __future__ import annotations

import os
from operator import index as _as_index
from pathlib import Path
from typing import (Any, Callable, Iterable, Iterator, Optional, Sequence,
                    Tuple, Union)

import numpy as np
from numpy.typing import ArrayLike, DTypeLike

from repro.bounds import MODE_PTW_REL, MODE_REL, Abs, ErrorBound, as_bound
from repro.compressors.base import CompressorResult, _absolute_bound
from repro.core.aesz import output_dtype_and_bound
from repro.encoding.container import (
    Archive,
    ChunkedIndex,
    GridIndex,
    build_chunked_archive,
    build_grid_archive,
    grid_shape_of,
    is_archive,
    is_grid_archive,
    load_index,
)
from repro.encoding.lossless import get_backend
from repro.metrics.error import max_abs_error, psnr
from repro.registry import compressor_spec, get_compressor, name_for_compressor
from repro.sources.base import BytesByteSource, open_source
from repro.utils.parallel import parallel_imap
from repro.utils.validation import value_range

_MASK_BACKEND = "zlib"

#: Default chunk size (in elements) for :func:`compress_chunked` — ~32 MB of
#: float64 per chunk, large enough to amortize per-chunk headers and process
#: dispatch, small enough that a handful of in-flight chunks fits in RAM.
DEFAULT_CHUNK_ELEMS = 4 * 1024 * 1024

#: Aliases shared by the public signatures below.
CodecArg = Union[str, Any]  # registry name/alias, or a live compressor
BoundArg = Union[float, int, ErrorBound]
SourceArg = Union[bytes, bytearray, memoryview, str, os.PathLike]
RegionArg = Union[str, Sequence]  # "10:20,0:64" or a tuple of slices/ints
ModelArg = Union[str, os.PathLike, None]  # .npz model path


# ---------------------------------------------------------------------------
# Output-dtype restoration (bound-safe, same analysis AESZCompressor uses)
# ---------------------------------------------------------------------------

def _cast_plan(data: np.ndarray, eff_rel: float, spec) -> tuple:
    """Decide whether decompress may cast back to the input dtype.

    Returns ``(rel_bound_for_codec, out_dtype_str_or_None)``.  When the input
    is a float narrower than float64 and the cast's worst-case rounding is
    small against the absolute bound, the bound handed to the codec is
    tightened by that rounding (so the user's bound still holds after the
    cast) and the dtype is recorded for decompress; otherwise reconstructions
    stay float64, which always honours the bound.
    """
    in_dtype = data.dtype
    if (not spec.error_bounded or not np.issubdtype(in_dtype, np.floating)
            or in_dtype.itemsize >= 8):
        return eff_rel, None
    data64 = np.asarray(data, dtype=np.float64)
    vr = value_range(data64)
    abs_eb = _absolute_bound(eff_rel, vr)
    out_dtype, abs_tight = output_dtype_and_bound(data64, abs_eb, in_dtype)
    if out_dtype.itemsize >= 8:
        return eff_rel, None
    return (abs_tight / vr if vr > 0 else abs_tight), str(out_dtype)


def _ptw_cast_plan(data: np.ndarray, eps: float, spec) -> tuple:
    """Pointwise-relative version of :func:`_cast_plan`.

    Casting to a narrower float adds up to half an ulp of *relative* error for
    values in the dtype's normal range, so ``eps`` is tightened to
    ``(eps - u) / (1 + u)`` and the cast is allowed only when every possible
    reconstruction magnitude stays normal (no overflow, no subnormals — where
    the relative cast error is unbounded).
    """
    in_dtype = data.dtype
    if (not spec.error_bounded or not np.issubdtype(in_dtype, np.floating)
            or in_dtype.itemsize >= 8):
        return eps, None
    info = np.finfo(in_dtype)
    half_ulp = float(info.eps) / 2.0
    if eps <= 8.0 * half_ulp:
        return eps, None
    magnitude = np.abs(np.asarray(data, dtype=np.float64))
    nonzero = magnitude[magnitude > 0]
    if nonzero.size == 0:  # all zeros reconstruct exactly via the mask
        return eps, str(in_dtype)
    if (float(nonzero.max()) * (1 + eps) > float(info.max)
            or float(nonzero.min()) / (1 + eps) < float(info.tiny)):
        return eps, None
    return (eps - half_ulp) / (1 + half_ulp), str(in_dtype)


# ---------------------------------------------------------------------------
# Pointwise-relative transform
# ---------------------------------------------------------------------------

def _ptw_forward(data: np.ndarray, eps: float):
    """Sign + log transform turning a pointwise-relative bound into an absolute one.

    For nonzero ``d``: compressing ``t = log |d|`` under ``|t - t'| <= log(1+eps)``
    gives ``|d'/d - 1| <= eps`` on both sides (the lower side is even tighter:
    ``1 - 1/(1+eps)``).  Zeros demand exact reconstruction (``eps * 0 = 0``), so
    they travel in a lossless bitmask; signs likewise.
    """
    flat = np.ascontiguousarray(data, dtype=np.float64).ravel()
    zeros = flat == 0.0
    signs = flat < 0.0
    magnitude = np.abs(flat)
    if zeros.all():
        magnitude = np.ones_like(magnitude)
    elif zeros.any():
        magnitude[zeros] = magnitude[~zeros].min()
    log_data = np.log(magnitude).reshape(data.shape)
    log_bound = float(np.log1p(eps))

    backend = get_backend(_MASK_BACKEND)
    extra = {}
    if zeros.any():
        extra["ptw_zeros"] = backend.compress(np.packbits(zeros).tobytes())
    if signs.any():
        extra["ptw_signs"] = backend.compress(np.packbits(signs).tobytes())
    return log_data, log_bound, extra


def _ptw_inverse(log_recon: np.ndarray, archive: Archive) -> np.ndarray:
    flat = np.exp(np.asarray(log_recon, dtype=np.float64)).ravel()
    backend = get_backend(_MASK_BACKEND)
    n = flat.size
    if "ptw_signs" in archive.extra:
        signs = np.unpackbits(
            np.frombuffer(backend.decompress(archive.extra["ptw_signs"]), dtype=np.uint8),
            count=n).astype(bool)
        flat[signs] *= -1.0
    if "ptw_zeros" in archive.extra:
        zeros = np.unpackbits(
            np.frombuffer(backend.decompress(archive.extra["ptw_zeros"]), dtype=np.uint8),
            count=n).astype(bool)
        flat[zeros] = 0.0
    return flat.reshape(log_recon.shape)


# ---------------------------------------------------------------------------
# Facade
# ---------------------------------------------------------------------------

def _resolve_codec(codec, codec_options: Optional[dict]):
    """Accept a registry name or a ready compressor instance."""
    if isinstance(codec, str):
        comp = get_compressor(codec, **(codec_options or {}))
        return compressor_spec(codec).name, comp
    if codec_options:
        raise ValueError("codec_options only apply when codec is given by name")
    if not (hasattr(codec, "compress") and hasattr(codec, "decompress")):
        raise TypeError(f"codec must be a registry name or a compressor, got {type(codec)!r}")
    return name_for_compressor(codec), codec


def compress(data: ArrayLike, codec: CodecArg = "sz21",
             bound: BoundArg = 1e-3, *,
             codec_options: Optional[dict] = None,
             embed_model: bool = True) -> bytes:
    """Compress ``data`` into a self-describing archive.

    Parameters
    ----------
    data:
        The array to compress.
    codec:
        A registry name (see :func:`repro.available_compressors`) or a ready
        compressor instance (required for model-backed codecs like ``aesz``
        unless ``codec_options`` carries the model).
    bound:
        An :class:`ErrorBound` (``Rel`` / ``Abs`` / ``PtwRel``) or a bare
        number, interpreted as the paper's value-range-relative mode.
    codec_options:
        Keyword arguments forwarded to the registry factory when ``codec`` is
        a name.
    embed_model:
        For model-backed codecs: store the model weights in the archive so
        ``repro.decompress(blob)`` needs no side channel at all.  Turn off to
        keep archives small when the model is archived separately (the header
        still records the model fingerprint, and decompression verifies it).
    """
    data = np.asarray(data)
    name, comp = _resolve_codec(codec, codec_options)
    spec = compressor_spec(name)
    bound = as_bound(bound)
    if (spec.error_bounded and not spec.exact
            and np.issubdtype(data.dtype, np.floating)
            and not np.all(np.isfinite(data))):
        raise ValueError(
            f"data contains non-finite values (NaN/Inf); codec {name!r} cannot "
            f"honour an error bound on them — store such fields exactly with "
            f"codec='lossless'"
        )
    # Codecs flatten 0-d inputs to shape (1,); the header keeps the true shape
    # and decompress restores it.
    codec_data = data.reshape((1,)) if data.ndim == 0 else data

    extra = {}
    if bound.mode == MODE_PTW_REL:
        if not spec.error_bounded:
            raise ValueError(
                f"codec {name!r} is not error bounded and cannot honour a "
                f"pointwise-relative bound"
            )
        eps, out_dtype = _ptw_cast_plan(codec_data, bound.value, spec)
        log_data, log_bound, extra = _ptw_forward(codec_data, eps)
        payload = comp.compress(log_data, Abs(log_bound).rel_equivalent(log_data))
    elif getattr(comp, "manages_output_dtype", False):
        # The codec runs the tighten-then-cast analysis itself (AE-SZ);
        # planning here too would subtract the cast margin twice.
        out_dtype = None
        payload = comp.compress(codec_data, bound.rel_equivalent(codec_data))
    else:
        eff_rel, out_dtype = _cast_plan(codec_data, bound.rel_equivalent(codec_data), spec)
        payload = comp.compress(codec_data, eff_rel)

    meta, blobs = comp.archive_state(embed_model=embed_model)
    if "facade" in meta:
        raise ValueError("codec archive metadata collides with the reserved 'facade' key")
    if out_dtype is not None:
        meta = {**meta, "facade": {"output_dtype": out_dtype}}
    overlap = set(blobs) & set(extra)
    if overlap:
        raise ValueError(f"codec archive sections collide with reserved names: {overlap}")
    extra.update(blobs)
    archive = Archive(
        codec=name,
        shape=tuple(int(s) for s in data.shape),
        dtype=str(data.dtype),
        bound_mode=bound.mode,
        bound_value=bound.value,
        payload=payload,
        meta=meta,
        extra=extra,
    )
    return archive.to_bytes()


# ---------------------------------------------------------------------------
# Chunked (out-of-core) pipeline
# ---------------------------------------------------------------------------

def _resolve_field_source(source):
    """Resolve a chunked-compression source to an array or a block iterator."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        if path.suffix == ".npy":
            return np.load(path, mmap_mode="r")
        raise ValueError(
            f"cannot infer the array layout of {str(path)!r}; map raw files with "
            "numpy.memmap(path, dtype=..., shape=...) and pass the array"
        )
    return source


def _slab_chunks(arr: np.ndarray, chunk_elems: int):
    """Yield ``(start_row, stop_row, slab)`` slabs of <= ``chunk_elems`` elements.

    Slabs are whole rows along axis 0, so each chunk of an arbitrary-rank field
    is itself a contiguous field of the same rank.  One row is the floor: when
    a single row already exceeds ``chunk_elems``, chunks are single rows (the
    memory bound then scales with the row size, not ``chunk_elems``).  A 0-d
    array is one chunk.
    """
    if arr.ndim == 0:
        yield 0, 1, arr
        return
    row_elems = int(np.prod(arr.shape[1:], dtype=np.int64)) if arr.ndim > 1 else 1
    rows = max(1, chunk_elems // max(1, row_elems))
    for start in range(0, arr.shape[0], rows):
        stop = min(arr.shape[0], start + rows)
        yield start, stop, arr[start:stop]


def _rechunk_blocks(blocks, chunk_elems: int, info: dict):
    """Regroup an iterator of row-blocks into ~``chunk_elems``-element chunks.

    Consumes lazily: at most one chunk's worth of rows is buffered, so the
    stream never materializes.  Records the trailing shape / dtype discovered
    from the first block in ``info`` (blocks must agree on both).
    """
    buffered: list = []
    buffered_elems = 0

    def _flush():
        chunk = buffered[0] if len(buffered) == 1 else np.concatenate(buffered, axis=0)
        buffered.clear()
        return chunk

    for block in blocks:
        block = np.asarray(block)
        if block.ndim == 0:
            block = block.reshape(1)
        if "trailing" not in info:
            info["trailing"] = tuple(int(s) for s in block.shape[1:])
            info["dtype"] = str(block.dtype)
        if tuple(block.shape[1:]) != info["trailing"]:
            raise ValueError(
                f"iterator blocks must share trailing dimensions: got "
                f"{tuple(block.shape[1:])} after {info['trailing']}"
            )
        if str(block.dtype) != info["dtype"]:
            raise ValueError(
                f"iterator blocks must share one dtype: got {block.dtype} "
                f"after {info['dtype']}"
            )
        if block.shape[0] == 0:
            continue
        if block.size >= chunk_elems:
            # Oversized block: flush the buffer, then slab-split the block
            # directly — nothing larger than one chunk is ever materialized.
            if buffered:
                buffered_elems = 0
                yield _flush()
            for _, _, slab in _slab_chunks(block, chunk_elems):
                yield slab
            continue
        if buffered and buffered_elems + block.size > chunk_elems:
            # Appending would overshoot: flush first so no emitted chunk ever
            # exceeds ``chunk_elems`` (chunks may come out smaller instead).
            buffered_elems = 0
            yield _flush()
        buffered.append(block)
        buffered_elems += block.size
        if buffered_elems >= chunk_elems:
            buffered_elems = 0
            yield _flush()
    if buffered:
        yield _flush()


def _range_pass(arr: np.ndarray, chunk_elems: int) -> Tuple[float, float]:
    """Streaming global min/max over slabs (no whole-array float64 copy).

    A slab holding NaN/Inf ends the pass with that slab's non-finite bounds:
    ``min(inf, nan)`` keeps its first argument, so a NaN would otherwise
    vanish into the running bounds and surface only after chunks had been
    compressed (or, for a push, streamed).  An empty source gives
    ``(inf, -inf)``.
    """
    lo, hi = np.inf, -np.inf
    for _, _, slab in _slab_chunks(arr, chunk_elems):
        slab_lo, slab_hi = float(np.min(slab)), float(np.max(slab))
        if not (np.isfinite(slab_lo) and np.isfinite(slab_hi)):
            return slab_lo, slab_hi
        lo = min(lo, slab_lo)
        hi = max(hi, slab_hi)
    return lo, hi


def _compress_chunk_job(job) -> bytes:
    """Module-level worker so spawn-based process pools can pickle it."""
    chunk, codec, codec_options, bound, embed_model = job
    return compress(chunk, codec=codec, bound=bound, codec_options=codec_options,
                    embed_model=embed_model)


def _decode_tile_job(job) -> np.ndarray:
    return _decode_parsed_tile(*job)


def _normalize_chunk_shape(chunk_shape, shape: Tuple[int, ...]) -> Tuple[int, ...]:
    """Validate a per-axis tile shape against the field shape.

    A bare int applies to every axis; ``None`` / ``-1`` entries mean "the full
    axis".  Entries larger than the axis are fine (that axis gets one tile).
    """
    if isinstance(chunk_shape, (int, np.integer)):
        chunk_shape = (int(chunk_shape),) * len(shape)
    chunk_shape = tuple(chunk_shape)
    if len(chunk_shape) != len(shape):
        raise ValueError(
            f"chunk_shape has {len(chunk_shape)} axes, the source field has "
            f"{len(shape)} ({shape})")
    out = []
    for ax, (c, dim) in enumerate(zip(chunk_shape, shape)):
        if c is None or c == -1:
            c = dim
        c = int(c)
        if c < 1:
            raise ValueError(
                f"chunk_shape axis {ax} must be a positive tile size, -1 or "
                f"None (full axis); got {chunk_shape[ax]!r}")
        out.append(min(c, max(1, dim)))
    return tuple(out)


def compress_chunked(source: Union[ArrayLike, str, os.PathLike,
                                   Iterable[np.ndarray]],
                     codec: CodecArg = "sz21", bound: BoundArg = 1e-3, *,
                     chunk_size: int = DEFAULT_CHUNK_ELEMS,
                     chunk_shape: Optional[Sequence[int]] = None,
                     workers: Optional[int] = None,
                     codec_options: Optional[dict] = None,
                     embed_model: bool = True,
                     data_range: Optional[Tuple[float, float]] = None,
                     dtype: Optional[DTypeLike] = None) -> bytes:
    """Compress a large field chunk by chunk into a multi-chunk archive.

    ``source`` may be an in-memory array, a memory-mapped array (e.g.
    ``numpy.memmap`` or ``numpy.load(path, mmap_mode="r")``), a path to a
    ``.npy`` file (opened memory-mapped), or an iterator of row-blocks sharing
    trailing dimensions — in the mapped/iterator cases the field never fully
    resides in RAM.  The field is split into row slabs of roughly
    ``chunk_size`` elements along axis 0 and each slab becomes an independent
    single-shot archive inside a version-2 envelope whose front index table
    lets every chunk be located, verified and decoded in any order.

    ``chunk_shape`` switches to the N-dimensional chunk grid (format version
    3): a per-axis tile size — e.g. ``(32, 32, 32)`` for a 3-d field, or a
    bare int applied to every axis, with ``-1``/``None`` meaning "the full
    axis" — tiles the field into a row-major grid of independent sub-archives,
    which is what makes :func:`read_region` decode a sub-cube in O(region)
    bytes instead of O(archive).  It needs an array/memmap/.npy source (a
    row-block iterator can only be chunked along axis 0) and overrides
    ``chunk_size``.  Tiny tiles hurt ratio (per-tile headers) and, for
    context-exploiting codecs, accuracy of the rate — 16–64 elements per axis
    is the useful range.

    The error-bound guarantee matches single-shot :func:`compress` exactly:
    a ``Rel`` bound is converted **once**, from a global range pass, into the
    per-chunk absolute bound ``value * (max(D) - min(D))``, so the chunked
    reconstruction obeys the same inequality as the single-shot one.  ``Abs``
    and ``PtwRel`` bounds are pointwise to begin with and pass straight
    through.  Iterator sources cannot be replayed for the range pass, so a
    ``Rel`` bound there needs ``data_range=(min, max)`` (or use ``Abs`` /
    ``PtwRel``).

    ``dtype`` casts each chunk (slab-wise, never the whole field) before
    compression and records that dtype in the header — e.g. ``np.float64`` to
    give codecs the same input the single-shot CLI path feeds them while the
    source stays a memory-mapped float32 file.

    ``workers`` compresses chunks through a ``spawn``-based process pool
    (``None``/``1`` = serial).  The output is **bit-identical for any worker
    count**: chunk boundaries and per-chunk bounds are fixed before dispatch
    and results are reassembled in input order.  For model-backed codecs note
    that ``embed_model=True`` stores the weights in *every* chunk; pass
    ``embed_model=False`` and keep the model as a side file when that matters.
    """
    return _compress_chunked(
        source, codec, bound, chunk_size=chunk_size, chunk_shape=chunk_shape,
        codec_options=codec_options, embed_model=embed_model,
        data_range=data_range, dtype=dtype,
        job_map=lambda func, jobs: parallel_imap(func, jobs, workers=workers))


#: How :func:`_compress_chunked` runs its per-chunk jobs: ``job_map(func,
#: jobs)`` yields ``func(job)`` per job, in order.
_JobMap = Callable[[Callable[[Any], bytes], Iterable[Any]], Iterable[bytes]]


def _compress_chunked(source, codec: CodecArg, bound: BoundArg, *,
                      chunk_size: int, chunk_shape: Optional[Sequence[int]],
                      codec_options: Optional[dict], embed_model: bool,
                      data_range: Optional[Tuple[float, float]],
                      dtype: Optional[DTypeLike], job_map: _JobMap) -> bytes:
    """:func:`compress_chunked` with the per-chunk job map as a seam.

    Everything but ``_compress_chunk_job`` runs in the caller — chunking,
    the Rel -> Abs conversion, the envelope — so any ``job_map`` that runs
    that job faithfully (in-process, a process pool, the ingest worker
    process) yields the same bytes.
    """
    src = _resolve_field_source(source)
    bound = as_bound(bound)
    if isinstance(codec, str):
        spec = compressor_spec(codec)
        job_codec = spec.name
    else:
        if codec_options:
            raise ValueError("codec_options only apply when codec is given by name")
        spec = compressor_spec(name_for_compressor(codec))
        job_codec = codec
    is_array = isinstance(src, np.ndarray)
    if chunk_shape is not None:
        if not is_array:
            raise ValueError(
                "chunk_shape tiling needs an array, memmap or .npy source; a "
                "row-block iterator can only be chunked along axis 0 (use "
                "chunk_size instead)"
            )
        tile_dims = _normalize_chunk_shape(chunk_shape, src.shape)
        # chunk_shape overrides chunk_size (0 = "not slab-chunking" is fine
        # here); chunk_elems is then only the range-pass slab granularity.
        chunk_elems = int(chunk_size) if int(chunk_size) > 0 else DEFAULT_CHUNK_ELEMS
    elif int(chunk_size) <= 0:
        raise ValueError(f"chunk_size must be a positive element count, got {chunk_size}")
    else:
        chunk_elems = int(chunk_size)

    meta: dict = {}
    if spec.error_bounded and not spec.exact and bound.mode == MODE_REL:
        if data_range is not None:
            lo, hi = float(data_range[0]), float(data_range[1])
        elif is_array:
            lo, hi = _range_pass(src, chunk_elems)
        else:
            raise ValueError(
                "a value-range-relative bound over an iterator source needs "
                "data_range=(min, max): the stream cannot be replayed for the "
                "global range pass (or use an Abs/PtwRel bound)"
            )
        if hi < lo:
            raise ValueError(
                f"data range [{lo}, {hi}] is reversed or empty; pass "
                f"data_range=(min, max) with min <= max"
            )
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError(
                f"data range [{lo}, {hi}] is not finite; error-bounded "
                f"compression is undefined on NaN/Inf fields"
            )
        abs_eb = _absolute_bound(bound.value, hi - lo)
        chunk_bound: ErrorBound = Abs(abs_eb)
        meta["chunked"] = {"data_range": [lo, hi], "abs_bound": abs_eb}
    else:
        # Abs / PtwRel are pointwise; non-error-bounded codecs take the bound
        # as-is (they ignore it or treat it as a target).
        chunk_bound = bound

    starts = [0]
    info: dict = {}
    cast_dtype = np.dtype(dtype) if dtype is not None else None

    def _cast(chunk: np.ndarray) -> np.ndarray:
        return np.asarray(chunk, dtype=cast_dtype) if cast_dtype is not None \
            else np.asarray(chunk)

    if chunk_shape is not None:
        grid_shape = grid_shape_of(src.shape, tile_dims)

        def _tile_jobs():
            # np.ndindex enumerates the grid in row-major order, which is the
            # order the v3 index table requires (and yields one empty tuple
            # for a 0-d field — a single tile holding the scalar).
            for coords in np.ndindex(*grid_shape):
                sl = tuple(slice(c * cs, min((c + 1) * cs, d))
                           for c, cs, d in zip(coords, tile_dims, src.shape))
                yield (_cast(src[sl]), job_codec, codec_options, chunk_bound,
                       embed_model)

        blobs = list(job_map(_compress_chunk_job, _tile_jobs()))
        return build_grid_archive(
            codec=spec.name, shape=tuple(int(s) for s in src.shape),
            dtype=str(cast_dtype) if cast_dtype is not None else str(src.dtype),
            bound_mode=bound.mode, bound_value=bound.value,
            chunk_shape=tile_dims, tile_blobs=blobs, meta=meta)

    def _jobs():
        if is_array:
            for _, stop, slab in _slab_chunks(src, chunk_elems):
                starts.append(int(stop))
                yield (_cast(slab), job_codec, codec_options, chunk_bound,
                       embed_model)
        else:
            for chunk in _rechunk_blocks(src, chunk_elems, info):
                starts.append(starts[-1] + int(chunk.shape[0]))
                yield (_cast(chunk), job_codec, codec_options, chunk_bound,
                       embed_model)

    blobs = list(job_map(_compress_chunk_job, _jobs()))
    if not blobs:
        raise ValueError("source produced no data to compress")
    if is_array:
        shape = tuple(int(s) for s in src.shape)
        source_dtype = str(src.dtype)
    else:
        shape = (starts[-1],) + info["trailing"]
        source_dtype = info["dtype"]
    return build_chunked_archive(
        codec=spec.name, shape=shape,
        dtype=str(cast_dtype) if cast_dtype is not None else source_dtype,
        bound_mode=bound.mode, bound_value=bound.value, axis=0, starts=starts,
        chunk_blobs=blobs, meta=meta)


def iter_decompressed_chunks(blob: bytes, *, model: ModelArg = None,
                             autoencoder: Any = None,
                             codec_options: Optional[dict] = None,
                             workers: Optional[int] = None
                             ) -> Iterator[Tuple[slice, np.ndarray]]:
    """Stream a chunked archive as ``(row_slice, chunk_array)`` pairs, in order.

    The out-of-core consumer loop: only a bounded number of chunks is ever in
    flight, so a larger-than-RAM field can be decompressed straight into its
    destination (a memmap, a socket, ...).  ``row_slice`` addresses the chunk's
    slab along axis 0 of the full field.  Grid (version-3) archives tile along
    every axis, so their pieces are not row slabs — stream them with
    :func:`iter_region_tiles` instead.
    """
    if is_grid_archive(blob):
        raise ValueError(
            "this is a grid (N-d tiled) archive; its tiles are not row slabs — "
            "stream it with repro.iter_region_tiles(blob, region) instead"
        )
    index = ChunkedIndex.from_bytes(blob)
    with BytesByteSource(blob) as reader:
        for i, chunk in _decoded_tiles(reader, index, range(index.n_tiles),
                                       workers, model, autoencoder,
                                       codec_options):
            yield slice(index.starts[i], index.starts[i + 1]), chunk


# ---------------------------------------------------------------------------
# Random-access region decode
# ---------------------------------------------------------------------------

def open_reader(source: SourceArg):
    """Open a random-access byte source over an archive.

    Accepts in-memory bytes, a filesystem path, an ``http(s)://`` URL
    (range-GET reads via :class:`repro.sources.HttpByteSource`) or an
    already-open :class:`~repro.sources.ByteSource` (returned as-is).  The
    returned object exposes ``size`` / ``read_at(offset, length)`` /
    ``read_all()`` / ``close()`` and works as a context manager.  This is
    the I/O seam the region decoder and :class:`repro.store.ArchiveStore`
    share; every built-in variant is safe to share across threads (files
    use positional ``pread``, never a seek pointer).
    """
    return open_source(source)


def _decode_parsed_tile(i: int, archive: Archive, shape: Tuple[int, ...],
                        model=None, autoencoder=None,
                        codec_options: Optional[dict] = None) -> np.ndarray:
    """Decode tile ``i``'s parsed archive and validate its shape against the
    index's ``shape`` — the one per-tile decode step every read path runs."""
    tile = _decompress_parsed(archive, model=model, autoencoder=autoencoder,
                              codec_options=codec_options)
    if tuple(tile.shape) != shape:
        raise ValueError(
            f"corrupt archive: tile {i} decoded to shape "
            f"{tuple(tile.shape)}, index says {shape}")
    return tile


def decode_tile(index: Union[Archive, ChunkedIndex, GridIndex], i: int,
                raw: bytes, *, model: ModelArg = None, autoencoder: Any = None,
                codec_options: Optional[dict] = None) -> np.ndarray:
    """Decode one CRC-checked tile blob and validate its shape against ``index``.

    ``raw`` must already have passed ``index.check_tile(i, ...)`` (the check
    belongs next to the read so corrupt bytes fail before any decode work).
    The public form of :func:`_decode_parsed_tile`, the one per-tile decode
    step every read path runs (the :class:`repro.store.ArchiveStore` tile
    cache runs it on ``index.tile_archive``'s already-parsed tile).
    """
    return _decode_parsed_tile(i, Archive.from_bytes(raw), index.tile_shape(i),
                               model, autoencoder, codec_options)


def tile_crop(bounds, tile_slices) -> Tuple[Tuple[slice, ...], Tuple[slice, ...]]:
    """Intersect a tile with a region: ``(local_slices, inner_slices)``.

    ``bounds`` is a normalized region (per-axis ``(start, stop)``);
    ``tile_slices`` the tile's extent in full-field coordinates.  The caller
    places ``tile[inner_slices]`` at ``result[local_slices]`` of the
    region-shaped output.
    """
    local, inner = [], []
    for (b0, b1), s in zip(bounds, tile_slices):
        lo, hi = max(b0, s.start), min(b1, s.stop)
        local.append(slice(lo - b0, hi - b0))
        inner.append(slice(lo - s.start, hi - s.start))
    return tuple(local), tuple(inner)


def normalize_region(region, shape: Tuple[int, ...]) -> Tuple[Tuple[int, int], ...]:
    """Validate ``region`` against ``shape``; returns per-axis ``(start, stop)``.

    ``region`` is a tuple of slices (a single slice/int is promoted to a
    1-tuple); missing trailing axes default to the full axis.  Integers are
    kept as length-1 slices (``i`` means ``i:i+1`` — the axis is *not*
    dropped).  Bounds clamp to the field like numpy slicing, so
    ``start >= stop`` yields an empty region.  Negative indices and strides
    other than 1 raise ``ValueError``: tiles are stored contiguously, so a
    strided read could not skip any I/O — decode the enclosing contiguous
    region and stride in memory instead.
    """
    if isinstance(region, (slice, int, np.integer)):
        region = (region,)
    region = tuple(region)
    if len(region) > len(shape):
        raise ValueError(
            f"region has {len(region)} axes, the archive field is "
            f"{len(shape)}-d {shape}")
    region = region + (slice(None),) * (len(shape) - len(region))
    bounds = []
    for ax, (entry, dim) in enumerate(zip(region, shape)):
        if isinstance(entry, (int, np.integer)):
            entry = slice(int(entry), int(entry) + 1)
        if not isinstance(entry, slice):
            raise ValueError(
                f"region axis {ax}: expected a slice or int, got {entry!r}")
        if entry.step is not None:
            try:
                step = _as_index(entry.step)
            except TypeError:
                raise ValueError(
                    f"region axis {ax}: slice step must be an integer, got "
                    f"{entry.step!r}") from None
            if step != 1:
                raise ValueError(
                    f"region axis {ax}: strided slices are not supported "
                    f"(step={step}); read the enclosing contiguous region and "
                    f"stride in memory")
        lo_hi = []
        for name, value, default in (("start", entry.start, 0),
                                     ("stop", entry.stop, dim)):
            if value is None:
                lo_hi.append(default)
                continue
            try:
                value = _as_index(value)
            except TypeError:
                raise ValueError(
                    f"region axis {ax}: slice {name} must be an integer, got "
                    f"{value!r}") from None
            if value < 0:
                raise ValueError(
                    f"region axis {ax}: negative indices are not supported "
                    f"(got {name}={value}); use absolute coordinates in "
                    f"[0, {dim}]")
            lo_hi.append(min(value, dim))
        start, stop = lo_hi
        bounds.append((start, max(stop, start)))
    return tuple(bounds)


def parse_region(spec: str) -> Tuple[slice, ...]:
    """Parse a region string like ``"10:20,0:64,5:9"`` into a tuple of slices.

    One comma-separated field per axis: ``start:stop`` (either side may be
    omitted for "from 0" / "to the end"), ``:`` for a full axis, or a bare
    integer ``i`` (kept as the length-1 slice ``i:i+1``).  This is the CLI
    syntax of ``repro extract --region``; validation against a concrete field
    shape happens in :func:`normalize_region` / :func:`read_region`.
    """
    fields = [f.strip() for f in str(spec).split(",")]
    out = []
    for f in fields:
        parts = f.split(":")
        if len(parts) > 3:
            raise ValueError(
                f"bad region field {f!r} in {spec!r}: expected start:stop, "
                f"':' or a bare integer")
        try:
            nums = [int(p) if p.strip() else None for p in parts]
        except ValueError:
            raise ValueError(
                f"bad region field {f!r} in {spec!r}: bounds must be "
                f"integers") from None
        if len(parts) == 1:
            if nums[0] is None:
                raise ValueError(
                    f"bad region field {f!r} in {spec!r}: empty axis (use "
                    f"':' for a full axis)")
            out.append(slice(nums[0], nums[0] + 1))
        else:
            out.append(slice(*nums))
    return tuple(out)


def iter_region_tiles(source: SourceArg, region: RegionArg, *,
                      model: ModelArg = None, autoencoder: Any = None,
                      codec_options: Optional[dict] = None,
                      workers: Optional[int] = None
                      ) -> Iterator[Tuple[Tuple[slice, ...], np.ndarray]]:
    """Stream the decoded pieces of ``region`` as ``(local_slices, piece)`` pairs.

    ``source`` is archive bytes or a path (paths are read with seeks: only the
    front header and the intersecting tiles are touched).  ``region`` is a
    tuple of slices in full-field coordinates (see :func:`normalize_region`).
    Each yielded ``piece`` is one tile cropped to its intersection with the
    region, and ``local_slices`` place it inside the region-shaped result
    (``out[local_slices] = piece``) — so a large region can be gathered
    straight into a memmap without ever materializing whole.  Tiles outside
    the region are neither read nor decoded.

    Works on every envelope version: v3 grid archives intersect in N
    dimensions, v2 chunked archives are served as a 1-d grid of axis-0 slabs,
    and v1 single-shot archives (which have no index) decode whole and yield
    the region as one piece.
    """
    if isinstance(region, str):
        region = parse_region(region)
    with open_reader(source) as reader:
        index = load_index(reader)
        bounds = normalize_region(region, index.shape)
        for i, tile in _decoded_tiles(reader, index, index.region_tiles(bounds),
                                      workers, model, autoencoder,
                                      codec_options):
            local, inner = tile_crop(bounds, index.tile_slices(i))
            yield local, tile[inner]


def _decoded_tiles(reader, index, tiles: Sequence[int],
                   workers: Optional[int], *decode_opts
                   ) -> Iterator[Tuple[int, np.ndarray]]:
    """``(tile id, decoded tile)`` for ``tiles``, in order — where the facade's
    decoded tiles come from: fetched and CRC-checked here, decoded through
    :func:`parallel_imap` (a lone tile never pays for a process pool, which
    is also why ``workers`` is moot for a single-shot archive)."""
    compressor_spec(index.codec)  # unknown codec fails before any decode
    jobs = ((i, index.tile_archive(i, reader.read_at), index.tile_shape(i),
             *decode_opts) for i in tiles)
    return zip(tiles, parallel_imap(_decode_tile_job, jobs,
                                    workers=workers if len(tiles) > 1 else None))


def _place(result: Optional[np.ndarray], bounds, index, i: int,
           tile: np.ndarray, *, fixed: bool = False,
           adopt: bool = False) -> np.ndarray:
    """Crop decoded tile ``i`` to ``bounds`` and write it into ``result`` —
    the one placement policy of every read path.

    ``result=None`` allocates the region lazily in the first piece's dtype —
    or, when ``adopt`` says the caller owns ``tile`` (freshly decoded, not a
    shared cache entry) and the tile *is* the region, returns the tile itself
    (a single-tile full decode makes no copy).  A later piece that could not
    be restored narrow widens what is already written, an exact float upcast
    — unless ``fixed`` marks ``result`` as the caller's ``out=`` array, which
    is never replaced and refuses lossy dtype narrowing instead.
    """
    local, inner = tile_crop(bounds, index.tile_slices(i))
    piece = tile[inner]
    if result is None:
        region_shape = tuple(b1 - b0 for b0, b1 in bounds)
        if adopt and piece.shape == tile.shape == region_shape:
            return tile
        result = np.empty(region_shape, dtype=piece.dtype)
    elif fixed:
        if result.dtype != piece.dtype and not (
                np.issubdtype(result.dtype, np.floating)
                and np.issubdtype(piece.dtype, np.floating)
                and result.dtype.itemsize > piece.dtype.itemsize):
            raise ValueError(
                f"out has dtype {result.dtype}, which cannot losslessly hold a "
                f"chunk reconstructed as {piece.dtype}; pass a float64 out "
                f"array (always safe) or omit out")
    elif piece.dtype.itemsize > result.dtype.itemsize:
        # Parts not yet written are uninitialized memory: a signaling-NaN
        # bit pattern there would raise "invalid value" on the cast.
        with np.errstate(invalid="ignore"):
            result = result.astype(piece.dtype)
    result[local] = piece
    return result


def _gather(index, bounds, tiles: Iterable[Tuple[int, np.ndarray]],
            out: Optional[np.ndarray] = None, *,
            adopt: bool = False) -> np.ndarray:
    """Assemble ``(tile id, decoded tile)`` pairs into the region-shaped
    result (or into ``out``) — the one gather loop of every read path."""
    region_shape = tuple(b1 - b0 for b0, b1 in bounds)
    if out is not None and tuple(out.shape) != region_shape:
        raise ValueError(
            f"out has shape {tuple(out.shape)}, region shape is {region_shape}")
    result = out
    for i, tile in tiles:
        result = _place(result, bounds, index, i, tile,
                        fixed=out is not None, adopt=adopt)
    if result is None:
        # Empty region (nothing decoded): exact shape, header dtype.
        result = np.empty(region_shape, dtype=np.dtype(index.dtype))
    return result


def read_region(source: SourceArg, region: RegionArg, *,
                model: ModelArg = None, autoencoder: Any = None,
                codec_options: Optional[dict] = None,
                workers: Optional[int] = None,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """Decode only the part of an archive that intersects ``region``.

    The random-access entry point: ``source`` is archive bytes or a path, and
    ``region`` is a tuple of slices (or a string via :func:`parse_region`) in
    full-field coordinates.  Only the tiles intersecting the region are read
    and decoded — for a path source the rest of the file is never touched —
    and each decoded value carries the same per-element error bound as a full
    :func:`decompress`.  Returns an array of exactly the region's shape;
    ``out`` accepts a preallocated region-shaped array (e.g. a
    ``numpy.memmap``) to gather into.  ``workers`` decodes the intersecting
    tiles through a process pool.

    Slices clamp like numpy (so ``start >= stop`` gives an empty axis);
    negative indices and strides raise ``ValueError``.  Integer entries keep
    their axis as length 1.  v2 chunked archives are served through the same
    path (tiles are the axis-0 slabs); v1 single-shot archives decode whole
    and slice (no random-access saving — recompress with ``chunk_shape`` to
    get one).
    """
    if isinstance(region, str):
        region = parse_region(region)
    with open_reader(source) as reader:
        index = load_index(reader)
        bounds = normalize_region(region, index.shape)
        tiles = _decoded_tiles(reader, index, index.region_tiles(bounds),
                               workers, model, autoencoder, codec_options)
        return _gather(index, bounds, tiles, out, adopt=True)


def read_header(source: SourceArg) -> Union[Archive, ChunkedIndex, GridIndex]:
    """Parse an archive's framed header without decompressing the payload.

    ``source`` is archive bytes or a path to an archive file.  Single-shot
    (version-1) blobs return an :class:`Archive` that still carries the raw
    payload bytes; chunked (version-2) blobs return a :class:`ChunkedIndex`
    with the chunk table; grid (version-3) blobs return a :class:`GridIndex`
    with the tile grid.  All three expose ``codec`` / ``shape`` / ``dtype`` /
    ``bound_mode`` / ``bound_value``; this is the inspection entry point
    (``python -m repro info`` uses it).  For a path to a v2/v3 archive only
    the front header is read, however large the file.
    """
    with open_reader(source) as reader:
        return load_index(reader)


def decompress(blob: bytes, *, model: ModelArg = None, autoencoder: Any = None,
               codec_options: Optional[dict] = None, workers: Optional[int] = None,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """Reconstruct the array from an archive produced by :func:`compress`
    or :func:`compress_chunked`.

    No dims/dtype/codec arguments are needed — the archive header carries them.
    ``model`` (an ``.npz`` path) or ``autoencoder`` (a live instance) are only
    needed for AE-based archives written with ``embed_model=False``; when the
    archive embeds or fingerprints a model, a mismatched ``model``/
    ``autoencoder`` is refused with a clear error.

    ``workers`` decodes the chunks of a chunked archive through a process pool
    (ignored for single-shot archives, which decode in-process).  ``out``
    accepts a preallocated array (e.g. a ``numpy.memmap``) to stream the
    reconstruction into; its dtype must hold every chunk's dtype exactly
    (float64 always qualifies).

    Narrow float inputs (float32/float16) come back in their own dtype
    whenever :func:`compress` could prove the cast preserves the requested
    bound (it tightens the codec's bound by the worst-case cast rounding);
    otherwise the reconstruction is float64, which always honours the bound.
    """
    if isinstance(blob, (bytearray, memoryview)):
        blob = bytes(blob)
    if not isinstance(blob, bytes):
        raise TypeError(f"blob must be bytes, got {type(blob)!r}")
    if not is_archive(blob):
        if blob[:4] == b"RPRC":
            raise ValueError(
                "this is a raw codec payload (no archive header); decode it with the "
                "producing compressor's .decompress(), or re-compress via repro.compress()"
            )
        raise ValueError("corrupt archive: bad magic (not a repro archive)")
    # The empty region tuple selects every axis in full (``normalize_region``
    # pads missing trailing axes), whatever the envelope version.
    return read_region(blob, (), model=model, autoencoder=autoencoder,
                       codec_options=codec_options, workers=workers, out=out)


def _decompress_parsed(archive: Archive, *, model=None, autoencoder=None,
                       codec_options: Optional[dict] = None) -> np.ndarray:
    """Decode an already-parsed single-shot :class:`Archive`."""
    spec = compressor_spec(archive.codec)

    opts = dict(codec_options or {})
    if model is not None or autoencoder is not None:
        if not spec.accepts_model:
            raise ValueError(f"codec {spec.name!r} does not take a model")
        if model is not None:
            opts["model"] = model
        if autoencoder is not None:
            opts["autoencoder"] = autoencoder
    comp = spec.restore(archive.meta, archive.extra, **opts)

    recon = comp.decompress(archive.payload)
    if archive.bound_mode == MODE_PTW_REL:
        recon = _ptw_inverse(recon, archive)
    if archive.shape == () and tuple(recon.shape) == (1,):
        recon = recon.reshape(())  # compress feeds codecs 0-d inputs as shape (1,)
    if tuple(recon.shape) != archive.shape:
        raise ValueError(
            f"corrupt archive: payload decoded to shape {tuple(recon.shape)}, "
            f"header says {archive.shape}"
        )
    facade = archive.meta.get("facade", {})
    out_dtype = facade.get("output_dtype") if isinstance(facade, dict) else None
    if out_dtype is not None:
        # Recorded only when compress tightened the codec's bound by the
        # worst-case cast rounding, so this cast cannot break the bound.
        recon = recon.astype(np.dtype(out_dtype), copy=False)
    return recon


def roundtrip(data: ArrayLike, codec: CodecArg = "sz21",
              bound: BoundArg = 1e-3, *,
              codec_options: Optional[dict] = None,
              embed_model: bool = True) -> CompressorResult:
    """Compress + decompress through the archive layer and collect metrics."""
    data = np.asarray(data)
    bound = as_bound(bound)
    blob = compress(data, codec=codec, bound=bound, codec_options=codec_options,
                    embed_model=embed_model)
    recon = decompress(blob)
    name = codec if isinstance(codec, str) else name_for_compressor(codec)
    return CompressorResult(
        compressor=compressor_spec(name).name,  # canonical registry id
        rel_error_bound=bound.value,
        compressed_bytes=len(blob),
        original_bytes=int(data.size * data.dtype.itemsize),
        psnr=psnr(data, recon),
        max_abs_error=max_abs_error(data, recon),
        reconstructed=recon,
        n_points=int(data.size),
        original_dtype=str(data.dtype),
    )


__all__ = ["compress", "compress_chunked", "decode_tile", "decompress",
           "iter_decompressed_chunks", "iter_region_tiles", "load_index",
           "normalize_region", "open_reader", "parse_region", "read_header",
           "read_region", "roundtrip", "tile_crop", "DEFAULT_CHUNK_ELEMS"]
