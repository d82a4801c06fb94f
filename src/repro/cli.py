"""Command-line interface: train, compress, decompress, serve, inspect, list codecs.

Gives the library the same day-to-day ergonomics as the SZ/ZFP command-line
tools.  ``compress`` writes self-describing archives (codec id, shape, dtype,
error-bound mode + value and codec metadata travel in a framed header), so
``decompress`` needs no ``--dims``/``--compressor`` arguments; codecs are
discovered through :mod:`repro.registry`, so new compressors show up in
``--compressor`` and ``repro list`` without editing this module::

    # list every registered codec
    python -m repro list

    # train a model on one or more snapshots of a field
    python -m repro train --model swae.npz --dims 256 512 --block-size 32 \
        --latent-size 16 snapshot0.f32 snapshot1.f32

    # compress with a value-range-relative bound (the paper's mode) ...
    python -m repro compress --model swae.npz --dims 256 512 --error-bound 1e-2 \
        snapshot9.f32 snapshot9.rpra
    # ... or an absolute / pointwise-relative bound, with any codec
    python -m repro compress --dims 256 512 --error-bound 0.03 --bound-mode abs \
        --compressor szinterp snapshot9.f32 snapshot9.rpra

    # chunked + parallel: stream a memory-mapped field through a worker pool
    # in independent ~4M-element chunks (fields larger than RAM work)
    python -m repro compress --dims 4096 4096 --error-bound 1e-3 \
        --compressor szinterp --chunk-size 4194304 --workers 4 big.f32 big.rpra

    # N-d chunk grid: tile a 3-d field into independent 32^3 sub-archives so
    # sub-cubes can later be decoded without touching the rest (format v3).
    # (After a multi-value flag like --chunk-shape, separate the positional
    # files with -- or put them first.)
    python -m repro compress big.f32 big.rpra --dims 256 256 256 \
        --error-bound 1e-3 --compressor szinterp --chunk-shape 32 32 32

    # random-access region decode: reads only the intersecting tiles
    python -m repro extract big.rpra corner.f32 --region "10:20,0:64,5:9"

    # serve region reads over HTTP: archives stay open, headers parse once,
    # decoded tiles are shared through a size-bounded LRU cache
    python -m repro serve field=big.rpra --port 8000 --cache-mb 256
    # GET /v1/field/region?r=10:20,0:64,5:9 -> raw bytes (+ shape/dtype headers)

    # decompress: the archive knows its codec, dims, dtype and model hash
    python -m repro decompress snapshot9.rpra snapshot9.out.f32 --model swae.npz
    # (add --workers N to decode a chunked archive's chunks in parallel)

    # inspect an archive: codec, dims, bound mode/value, chunk grid
    python -m repro info snapshot9.rpra

    # compare against the original and print ratio / PSNR / max error
    # (files first: the multi-value --dims flag would swallow them otherwise)
    python -m repro info snapshot9.f32 snapshot9.out.f32 --dims 256 512

AE-SZ archives record the model fingerprint; pass ``--embed-model`` during
compression to store the weights in the archive so decompression needs no
``--model`` at all.  A mismatched ``--model`` is refused with a clear error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path, PurePosixPath
from typing import Optional, Sequence
from urllib.parse import urlsplit

import numpy as np

from repro import api
from repro.sources.base import is_url
from repro.autoencoders import AutoencoderConfig, SlicedWassersteinAutoencoder
from repro.bounds import ErrorBound, MODES
from repro.core import AESZCompressor, AESZConfig
from repro.data.loader import create_f32, load_f32, map_f32, save_f32
from repro.encoding.container import is_archive
from repro.metrics import compression_ratio, max_rel_error, psnr
from repro.nn import TrainingConfig
from repro.registry import available_compressors, compressor_spec, get_compressor


def _add_dims(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument("--dims", type=int, nargs="+", required=required,
                        help="field dimensions, e.g. --dims 256 512 or --dims 64 64 64"
                             + ("" if required else " (archives carry their own dims;"
                                " when given, used as a cross-check)"))


def _add_ae_flags(parser: argparse.ArgumentParser) -> None:
    """The autoencoder architecture flags ``_ae_config_from_args`` reads."""
    parser.add_argument("--block-size", type=int, default=32)
    parser.add_argument("--latent-size", type=int, default=16)
    parser.add_argument("--channels", type=int, nargs="+", default=[4, 8])
    parser.add_argument("--seed", type=int, default=0)


def _ae_config_from_args(args: argparse.Namespace) -> AutoencoderConfig:
    return AutoencoderConfig(ndim=len(args.dims), block_size=args.block_size,
                             latent_size=args.latent_size,
                             channels=tuple(args.channels), seed=args.seed)


def _load_aesz(args: argparse.Namespace) -> AESZCompressor:
    config = _ae_config_from_args(args)
    model = SlicedWassersteinAutoencoder(config)
    model.load(args.model)
    return AESZCompressor(model, AESZConfig(block_size=config.block_size),
                          model_ref=str(args.model))


def _make_compressor(args: argparse.Namespace):
    if compressor_spec(args.compressor).requires_model:
        if not args.model:
            raise SystemExit(f"--model is required for the {args.compressor} compressor")
        return _load_aesz(args)
    return get_compressor(args.compressor)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro",
                                     description="AE-SZ error-bounded lossy compression")
    sub = parser.add_subparsers(dest="command", required=True)
    # The AE-A/AE-B comparators need a training pass the CLI does not expose,
    # so --compressor offers only the codecs it can construct (aesz builds its
    # model from --model + the architecture flags).  `repro list` shows all.
    codec_names = [n for n in available_compressors()
                   if n == "aesz" or not compressor_spec(n).accepts_model]

    # ------------------------------------------------------------------- list
    sub.add_parser("list", help="list every registered compressor")

    # ------------------------------------------------------------------ train
    train = sub.add_parser("train", help="train an AE-SZ autoencoder on snapshots")
    _add_dims(train)
    train.add_argument("snapshots", nargs="+", help="raw float32 snapshot files")
    train.add_argument("--model", required=True, help="output .npz model path")
    _add_ae_flags(train)
    train.add_argument("--epochs", type=int, default=10)
    train.add_argument("--batch-size", type=int, default=32)
    train.add_argument("--learning-rate", type=float, default=2e-3)
    train.add_argument("--max-blocks", type=int, default=1024)

    # --------------------------------------------------------------- compress
    comp = sub.add_parser("compress", help="compress a raw float32 field into an archive")
    _add_dims(comp)
    comp.add_argument("input", help="raw float32 input file")
    comp.add_argument("output", help="compressed archive output file")
    comp.add_argument("--error-bound", type=float, required=True,
                      help="error-bound value (interpreted per --bound-mode)")
    comp.add_argument("--bound-mode", choices=list(MODES), default="rel",
                      help="rel = value-range-relative (paper's mode), abs = absolute, "
                           "ptw_rel = pointwise-relative")
    comp.add_argument("--compressor", choices=codec_names, default="aesz")
    comp.add_argument("--model", help=".npz model (required for aesz)")
    comp.add_argument("--embed-model", action="store_true",
                      help="store model weights inside the archive so decompression "
                           "needs no --model")
    _add_ae_flags(comp)
    comp.add_argument("--chunk-size", type=int, default=0, metavar="ELEMS",
                      help="compress in independent row-slab chunks of ~ELEMS elements "
                           "(streamed from a memory-mapped input, so fields larger than "
                           "RAM work); 0 = single-shot (default)")
    comp.add_argument("--chunk-shape", type=int, nargs="+", metavar="N",
                      help="per-axis tile size for the N-d chunk grid (format v3), "
                           "e.g. --chunk-shape 32 32 32; -1 = full axis. Enables "
                           "random-access 'extract' on the archive; overrides "
                           "--chunk-size")
    comp.add_argument("--workers", type=int, default=1,
                      help="process-pool workers for chunked compression (needs "
                           "--chunk-size or --chunk-shape; output is bit-identical "
                           "for any worker count)")

    # ------------------------------------------------------------- decompress
    dec = sub.add_parser("decompress", help="decompress an archive produced by 'compress'")
    _add_dims(dec, required=False)
    dec.add_argument("input", help="compressed input file")
    dec.add_argument("output", help="raw float32 output file")
    dec.add_argument("--compressor", choices=codec_names,
                     help="only needed for legacy raw payloads (pre-archive format, "
                          "default aesz); for archives, a cross-check against the header")
    dec.add_argument("--model", help=".npz model (aesz archives without an embedded model)")
    _add_ae_flags(dec)
    dec.add_argument("--workers", type=int, default=1,
                     help="process-pool workers for decoding chunked archives "
                          "(single-shot archives decode in-process)")

    # ---------------------------------------------------------------- extract
    ext = sub.add_parser("extract",
                         help="decode a sub-region of an archive without touching "
                              "the rest (random access; needs a chunked/grid archive "
                              "for the I/O saving)")
    ext.add_argument("input", help="compressed archive file")
    ext.add_argument("output", help="raw float32 output file (the region only)")
    ext.add_argument("--region", required=True,
                     help="per-axis slices in full-field coordinates, e.g. "
                          "\"10:20,0:64,5:9\"; ':' = full axis, a bare integer "
                          "keeps its axis with length 1")
    ext.add_argument("--workers", type=int, default=1,
                     help="process-pool workers for decoding the intersecting tiles")
    ext.add_argument("--model", help=".npz model (aesz archives without an "
                                     "embedded model)")

    # ------------------------------------------------------------------ serve
    srv = sub.add_parser("serve",
                         help="serve region reads from archives over HTTP "
                              "(thread-safe store + decoded-tile LRU cache); "
                              "with --root also a durable, writable store")
    srv.add_argument("archives", nargs="*", metavar="KEY=PATH",
                     help="archives to serve, each KEY=PATH or KEY=URL (KEY "
                          "becomes the /v1/KEY/... URL segment) or a bare "
                          "PATH/URL (key = file stem); http(s):// sources "
                          "are read remotely via range requests (another "
                          "node's key is http://NODE/v1/KEY/archive); "
                          "optional when --root is given")
    srv.add_argument("--root", metavar="DIR",
                     help="store root directory: keys are replayed from its "
                          "durable manifest at startup and (with --writable) "
                          "ingested archives are published under it")
    srv.add_argument("--writable", action="store_true",
                     help="enable POST/DELETE /v1/<key> ingest routes "
                          "(requires --root)")
    srv.add_argument("--auth-token", metavar="TOKEN",
                     help="set the store-wide '*' bearer token in the "
                          "manifest before serving (mutating routes then "
                          "require Authorization: Bearer TOKEN; requires "
                          "--root)")
    srv.add_argument("--quota-mb", type=float, default=1024.0,
                     help="per-key upload quota in MB of raw field bytes "
                          "(default 1024; 0 = unlimited)")
    srv.add_argument("--host", default="127.0.0.1",
                     help="bind address (default 127.0.0.1)")
    srv.add_argument("--port", type=int, default=8000,
                     help="TCP port (0 = pick a free port and print it)")
    srv.add_argument("--cache-mb", type=float, default=256.0,
                     help="decoded-tile LRU cache budget in MB (default 256)")
    srv.add_argument("--model", help=".npz model for AE archives written "
                                     "with embed_model=False (applies to "
                                     "every served archive)")
    srv.add_argument("--server", choices=("selectors", "threaded"),
                     default="selectors",
                     help="front end: 'selectors' (default) multiplexes "
                          "keep-alive connections on one event loop with a "
                          "bounded decode pool; 'threaded' is the "
                          "one-thread-per-connection fallback")
    srv.add_argument("--timeout", type=float, default=30.0, metavar="SECONDS",
                     help="per-connection read timeout: idle or stalled "
                          "clients are dropped after this many seconds "
                          "(default 30; 0 = never)")
    srv.add_argument("--max-connections", type=int, default=512,
                     metavar="N",
                     help="selectors front end only: accepts beyond N open "
                          "connections are answered 503 (default 512)")
    srv.add_argument("--workers", type=int, default=0, metavar="N",
                     help="selectors front end only: decode worker threads "
                          "(default 0 = pick from the CPU count)")
    srv.add_argument("--spill-dir", metavar="DIR",
                     help="spill byte ranges fetched from http(s) archive "
                          "sources to this directory (read-through disk "
                          "cache, persists across restarts)")
    srv.add_argument("--spill-mb", type=float, default=1024.0, metavar="MB",
                     help="byte budget for --spill-dir in MB (default 1024; "
                          "LRU-evicted beyond it)")
    srv.add_argument("--verbose", action="store_true",
                     help="log one line per request to stderr "
                          "(method target status bytes ms)")

    # ------------------------------------------------------------------- push
    push = sub.add_parser("push",
                          help="stream a field to a writable store node "
                               "(POST /v1/KEY with chunked transfer)")
    push.add_argument("url", metavar="URL",
                      help="server base URL, e.g. http://127.0.0.1:8000")
    push.add_argument("key", metavar="KEY",
                      help="the key to publish (one URL path segment)")
    push.add_argument("input", metavar="FIELD", nargs="?",
                      help="field file: .npy (self-describing, opened "
                           "memory-mapped) or raw float32 with --dims "
                           "(omit with --delete)")
    _add_dims(push, required=False)
    push.add_argument("--error-bound", "--bound", dest="error_bound",
                      type=float, default=1e-3,
                      help="error-bound value (default 1e-3, interpreted per "
                           "--mode)")
    push.add_argument("--mode", choices=list(MODES), default="rel",
                      help="bound mode: rel (default), abs, ptw_rel")
    push.add_argument("--compressor", "--codec", dest="compressor",
                      default="sz21",
                      help="codec name on the server (model-free codecs "
                           "only; default sz21)")
    push.add_argument("--token", help="bearer token for the server's "
                                      "mutating routes")
    push.add_argument("--delete", action="store_true",
                      help="delete KEY on the server instead of pushing "
                           "(FIELD is ignored)")

    # ------------------------------------------------------------------- lint
    lint = sub.add_parser("lint",
                          help="run the project's static-analysis rules "
                               "(RPR001..RPR008) over source paths")
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files or directories to lint (default: the "
                           "installed repro package)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalogue and exit")

    # ------------------------------------------------------------------- info
    info = sub.add_parser("info",
                          help="inspect an archive (codec, dims, bound, chunk grid), "
                               "or compare an original and a reconstructed field")
    _add_dims(info, required=False)
    info.add_argument("files", nargs="+", metavar="FILE",
                      help="one archive file to inspect, or: ORIGINAL RECONSTRUCTED "
                           "raw float32 fields to compare (needs --dims)")
    info.add_argument("--compressed", help="optional compressed file (for the ratio)")
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    rows = []
    for name in available_compressors():
        spec = compressor_spec(name)
        rows.append((name,
                     "yes" if spec.error_bounded else "NO",
                     "yes" if spec.requires_model else "no",
                     spec.description))
    widths = [max(len(r[i]) for r in rows + [("name", "bounded", "model", "description")])
              for i in range(4)]
    header = ("name", "bounded", "model", "description")
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    snapshots = [load_f32(path, args.dims).astype(np.float64) for path in args.snapshots]
    config = _ae_config_from_args(args)
    model = SlicedWassersteinAutoencoder(config)
    compressor = AESZCompressor(model, AESZConfig(block_size=config.block_size))
    history = compressor.train(
        snapshots,
        TrainingConfig(epochs=args.epochs, batch_size=args.batch_size,
                       learning_rate=args.learning_rate, seed=args.seed),
        max_blocks=args.max_blocks, seed=args.seed)
    model.save(args.model)
    print(f"trained on {len(snapshots)} snapshot(s); final loss {history.final_loss:.6f}; "
          f"model written to {args.model}")
    return 0


def _cmd_compress(args: argparse.Namespace) -> int:
    compressor = _make_compressor(args)
    try:
        bound = ErrorBound(args.bound_mode, args.error_bound)
        if args.workers > 1 and args.chunk_size <= 0 and not args.chunk_shape:
            raise SystemExit("--workers needs --chunk-size or --chunk-shape "
                             "(single-shot compression runs in-process)")
        if args.chunk_shape:
            # N-d chunk grid (format v3): memory-map the input and compress a
            # row-major grid of independent tiles, so `repro extract` can later
            # seek to any sub-region without decoding the rest.
            data = map_f32(args.input, args.dims)
            blob = api.compress_chunked(data, codec=compressor, bound=bound,
                                        chunk_shape=tuple(args.chunk_shape),
                                        workers=args.workers,
                                        embed_model=args.embed_model,
                                        dtype=np.float64)
            header = api.read_header(blob)
            detail = (f", grid {'x'.join(str(g) for g in header.grid_shape)}"
                      f" = {header.n_tiles} tiles, workers {args.workers}")
        elif args.chunk_size > 0:
            # Memory-map the input and stream row slabs through the chunked
            # pipeline — the field never fully resides in RAM; the per-slab
            # float64 cast gives codecs the same input as the single-shot path.
            data = map_f32(args.input, args.dims)
            blob = api.compress_chunked(data, codec=compressor, bound=bound,
                                        chunk_size=args.chunk_size,
                                        workers=args.workers,
                                        embed_model=args.embed_model,
                                        dtype=np.float64)
            detail = (f", {api.read_header(blob).n_tiles} chunks"
                      f", workers {args.workers}")
        else:
            data = load_f32(args.input, args.dims).astype(np.float64)
            blob = api.compress(data, codec=compressor, bound=bound,
                                embed_model=args.embed_model)
            detail = ""
    except ValueError as exc:
        raise SystemExit(str(exc))
    Path(args.output).write_bytes(blob)
    print(f"{args.input}: {data.size * 4} -> {len(blob)} bytes "
          f"(ratio {compression_ratio(data.size * 4, len(blob)):.2f}x, "
          f"bound {bound.mode}={bound.value:g}, codec {args.compressor}{detail})")
    return 0


def _cmd_decompress(args: argparse.Namespace) -> int:
    blob = Path(args.input).read_bytes()
    if is_archive(blob):
        header = api.read_header(blob)
        if args.compressor and compressor_spec(args.compressor).name != header.codec:
            raise SystemExit(
                f"archive was written by codec {header.codec!r}, not {args.compressor!r}")
        if args.dims and tuple(args.dims) != header.shape:
            raise SystemExit(f"archive shape {header.shape} != --dims {tuple(args.dims)}")
        try:
            reconstruction = api.decompress(blob, model=args.model,
                                            workers=args.workers)
        except ValueError as exc:
            raise SystemExit(str(exc))
    else:
        # Legacy raw payload (pre-archive format): decoded exactly as before —
        # --compressor defaults to aesz (which needs the model + architecture
        # flags) and --dims is required because the payload carries no shape.
        if not args.compressor:
            args.compressor = "aesz"
        if not args.dims:
            raise SystemExit("raw (pre-archive) payloads need --dims")
        compressor = _make_compressor(args)
        reconstruction = compressor.decompress(blob)
        if tuple(reconstruction.shape) != tuple(args.dims):
            raise SystemExit(
                f"decompressed shape {reconstruction.shape} != --dims {tuple(args.dims)}")
    save_f32(args.output, reconstruction)
    print(f"{args.input}: reconstructed field written to {args.output}")
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    try:
        region = api.parse_region(args.region)
        header = api.read_header(args.input)  # header-only read, however large
        bounds = api.normalize_region(region, header.shape)
        shape = tuple(stop - start for start, stop in bounds)
        if int(np.prod(shape)) == 0:
            Path(args.output).write_bytes(b"")
            print(f"{args.input}: region {args.region} is empty for shape "
                  f"{header.shape}; wrote 0 bytes to {args.output}")
            return 0
        # Gather decoded tiles straight into an on-disk float32 memmap: the
        # region is streamed tile by tile and never materializes in RAM.
        out = create_f32(args.output, shape)
        decoded = 0
        for local, piece in api.iter_region_tiles(args.input, region,
                                                  model=args.model,
                                                  workers=args.workers):
            out[local] = piece  # float32 storage, same convention as decompress
            decoded += 1
        out.flush()
    except (OSError, ValueError) as exc:
        # OSError: an http(s):// input whose endpoint cannot serve ranges
        # (or a plain unreadable file) — same clean exit either way.
        raise SystemExit(str(exc))
    print(f"{args.input}: region {args.region} -> {args.output} "
          f"(shape {shape}, decoded {decoded} of {header.n_tiles} tiles)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.store import ArchiveStore, IngestManager, make_server

    if args.writable and not args.root:
        raise SystemExit("--writable needs --root DIR (the ingest path is "
                         "durable: archives and the manifest live under it)")
    if args.auth_token and not args.root:
        raise SystemExit("--auth-token needs --root DIR (tokens persist in "
                         "the root's manifest)")
    if not args.archives and not args.root:
        raise SystemExit("nothing to serve: pass KEY=PATH archives and/or "
                         "--root DIR")
    store = ArchiveStore(cache_bytes=int(args.cache_mb * 1024 * 1024),
                         spill_dir=args.spill_dir,
                         spill_bytes=int(args.spill_mb * 1024 * 1024))
    manager = None
    try:
        if args.root:
            quota = (int(args.quota_mb * 1024 * 1024)
                     if args.quota_mb > 0 else None)
            manager = IngestManager(args.root, store, quota_bytes=quota,
                                    model=args.model)
            for stale in manager.sweep():
                print(f"  swept stale file: {stale}", file=sys.stderr)
            for key, reason in manager.replay():
                print(f"  cannot serve manifest key {key!r}: {reason}",
                      file=sys.stderr)
            if args.auth_token:
                manager.manifest.set_auth("*", args.auth_token)
        for spec in args.archives:
            key, sep, path = spec.partition("=")
            if is_url(spec):
                # A bare URL ('=' may appear in its query string): key from
                # the last URL path segment's stem, like a bare file path.
                name = PurePosixPath(urlsplit(spec).path).stem
                if not name:
                    raise SystemExit(
                        f"cannot derive a key from {spec!r}; pass KEY={spec}")
                key, path = name, spec
            elif (not sep or "/" in key or "\\" in key
                    or Path(spec).is_file()):
                # KEY=PATH only when the left side could be a key and the
                # whole spec is not itself a file — a '=' inside a bare path
                # (/data/run=3/f.rpra, run=3.rpra) must not split it.
                key, path = Path(spec).stem, spec
            store.add(key, path, model=args.model)
    except (OSError, ValueError) as exc:
        store.close()
        raise SystemExit(str(exc))
    try:
        server = make_server(store, args.host, args.port,
                             quiet=not args.verbose,
                             ingest=manager if args.writable else None,
                             server=args.server,
                             read_timeout=args.timeout if args.timeout > 0
                             else None,
                             max_connections=args.max_connections,
                             workers=args.workers if args.workers > 0
                             else None)
    except OSError as exc:  # e.g. the port is already in use
        store.close()
        raise SystemExit(f"cannot bind {args.host}:{args.port}: {exc}")
    for key in store.keys():
        index = store.info(key)
        print(f"  {server.url}/v1/{key}/region?r=...  "
              f"[{index.codec}, shape {index.shape}, dtype {index.dtype}]")
    mode = " [writable]" if args.writable else ""
    # The port line last, flushed: launchers (tests, scripts) wait for it.
    print(f"serving {len(store.keys())} archive(s) on {server.url}{mode} "
          f"(Ctrl-C to stop)", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        store.close()
    return 0


def _cmd_push(args: argparse.Namespace) -> int:
    from repro.store import PushError, delete_key, push_field

    try:
        if args.delete:
            payload = delete_key(args.url, args.key, token=args.token)
            print(f"{args.key}: deleted from {args.url} "
                  f"(was generation {payload.get('generation', '?')})")
            return 0
        if not args.input:
            raise SystemExit("push needs a FIELD file (or --delete)")
        bound = ErrorBound(args.mode, args.error_bound)
        payload = push_field(args.url, args.key, args.input, bound=bound,
                             dims=args.dims, codec=args.compressor,
                             token=args.token)
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc))
    except PushError as exc:
        raise SystemExit(f"push refused by {args.url}: {exc}")
    verb = "created" if payload.get("created") else "replaced"
    field_bytes = int(np.prod(payload["shape"], dtype=np.int64)
                      * np.dtype(payload["dtype"]).itemsize)
    print(f"{args.input} -> {args.url}/v1/{args.key}: {verb} generation "
          f"{payload['generation']} ({payload['archive_bytes']} bytes, "
          f"ratio {compression_ratio(field_bytes, payload['archive_bytes']):.2f}x, "
          f"codec {payload['codec']}, bound {payload['bound']['mode']}="
          f"{payload['bound']['value']:g}, token {payload['token'][:12]}...)")
    return 0


def _info_archive(path: str) -> int:
    # One reader serves both the size and the header parse, so an
    # http(s):// archive is inspected with two small range requests —
    # never a full download.
    try:
        with api.open_reader(path) as reader:
            blob_size = reader.size
            header = api.load_index(reader)
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc))
    bound = ErrorBound(header.bound_mode, header.bound_value)
    print(f"archive : {path} ({blob_size} bytes)")
    print(f"format  : RPRA v{header.version} ({header.kind})")
    print(f"codec   : {header.codec}")
    print(f"shape   : {header.shape}, dtype {header.dtype}")
    print(f"bound   : {header.bound_mode} = {header.bound_value:g}  "
          f"({bound.description})")
    print(f"tiles   : {header.layout_summary()}")
    ratio = compression_ratio(header.n_points * np.dtype(header.dtype).itemsize,
                              blob_size)
    print(f"ratio   : {ratio:.2f}x vs uncompressed {header.dtype}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Lazy: the lint engine is pure stdlib but only dev workflows need it.
    from repro.lint import main as lint_main

    argv = list(args.paths)
    if args.list_rules:
        argv.append("--list-rules")
    return lint_main(argv)


def _cmd_info(args: argparse.Namespace) -> int:
    if len(args.files) == 1:
        return _info_archive(args.files[0])
    if len(args.files) != 2:
        raise SystemExit("info takes one archive file, or two raw fields "
                         "(original reconstructed) to compare")
    if not args.dims:
        raise SystemExit("comparing raw float32 fields needs --dims")
    original = load_f32(args.files[0], args.dims).astype(np.float64)
    reconstructed = load_f32(args.files[1], args.dims).astype(np.float64)
    print(f"PSNR            : {psnr(original, reconstructed):.2f} dB")
    print(f"max error/range : {max_rel_error(original, reconstructed):.3e}")
    if args.compressed:
        blob = Path(args.compressed).read_bytes()
        if is_archive(blob):
            header = api.read_header(blob)
            print(f"archive         : codec {header.codec}, shape {header.shape}, "
                  f"dtype {header.dtype}, bound {header.bound_mode}={header.bound_value:g}"
                  f", {header.layout_summary()}")
        print(f"compression     : {compression_ratio(original.size * 4, len(blob)):.2f}x "
              f"({len(blob)} bytes)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"list": _cmd_list, "train": _cmd_train, "compress": _cmd_compress,
                "decompress": _cmd_decompress, "extract": _cmd_extract,
                "serve": _cmd_serve, "push": _cmd_push, "info": _cmd_info,
                "lint": _cmd_lint}
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
