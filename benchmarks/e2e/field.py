"""``field-baselines`` and ``field-aesz``: whole-field compress -> decompress.

Both run rounds over a fixed list of *cells* (a codec at a bound) on one
seeded field, single-threaded.  The traced run replays the sz21 / szinterp
codecs stage by stage on the workload's own field and code streams, and
checks that each replay reproduces the real payload byte for byte.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Tuple

import numpy as np

import repro
from repro import AESZCompressor, AESZConfig, Rel
from repro.autoencoders import AutoencoderConfig, SlicedWassersteinAutoencoder
from repro.compressors.sz21 import (FLAG_LORENZO, FLAG_REGRESSION,
                                    _lorenzo_decode_blocks)
from repro.core.blocking import BlockGrid, reassemble_blocks, split_into_blocks
from repro.core.latent_codec import LatentCodec
from repro.data import generators
from repro.encoding import ByteContainer, HuffmanCodec, get_backend
from repro.encoding.container import Archive
from repro.nn.training import TrainingConfig
from repro.predictors.interpolation import (multilevel_interpolation_decode,
                                            multilevel_interpolation_encode)
from repro.predictors.lorenzo import lorenzo_predict
from repro.predictors.regression import (LinearRegressionPredictor,
                                         RegressionCoefficients)
from repro.quantization.linear import (UNPREDICTABLE_CODE,
                                       dequantize_prediction_errors,
                                       quantize_prediction_errors)
from repro.quantization.uniform import UniformQuantizer
from repro.utils.validation import value_range

from benchmarks.e2e import harness
from benchmarks.e2e.base import Workload
from benchmarks.e2e.harness import Tracer, median, median_of, percentile

#: Rounds before the first timed op; they count as set-up and build the
#: per-cell reference every timed op is compared with.
WARMUP_ROUNDS = 2
MIN_ROUNDS = 3


@dataclass
class Cell:
    """One (field, codec, bound) point of a field workload."""

    label: str
    data: np.ndarray
    codec: object  # registry name or a ready compressor
    rel: float
    compress_kwargs: dict = dc_field(default_factory=dict)
    decompress_kwargs: dict = dc_field(default_factory=dict)


class _FieldWorkload(Workload):
    """Shared round loop; subclasses make the cells (and their fields)."""

    def make_cells(self) -> List[Cell]:
        raise NotImplementedError

    # ------------------------------------------------------------------ set-up
    def setup(self) -> None:
        self.cells = self.make_cells()
        for _ in range(WARMUP_ROUNDS):
            self.reference = [self._roundtrip(cell)[:2] for cell in self.cells]

    def _roundtrip(self, cell: Cell) -> Tuple[bytes, np.ndarray, float, float]:
        t0 = time.perf_counter()
        blob = repro.compress(cell.data, cell.codec, Rel(cell.rel), **cell.compress_kwargs)
        t1 = time.perf_counter()
        recon = repro.decompress(blob, **cell.decompress_kwargs)
        t2 = time.perf_counter()
        return blob, recon, t1 - t0, t2 - t1

    def _verify_reference(self) -> None:
        """Every later op is compared with the reference, so bound-check it once."""
        for cell, (_, recon) in zip(self.cells, self.reference):
            self.attempted += 1
            worst = repro.verify_error_bound(cell.data, recon, cell.rel)
            self.check(worst is None and recon.shape == cell.data.shape,
                       f"{cell.label}: reconstruction breaks the bound: {worst}")

    def _matches_reference(self, i: int, blob: bytes, recon: np.ndarray) -> bool:
        ref_blob, ref_recon = self.reference[i]
        return self.check(blob == ref_blob and np.array_equal(recon, ref_recon),
                          f"{self.cells[i].label}: output differs from the reference")

    # ------------------------------------------------------------ end to end
    def measure(self, seconds: float) -> Dict[str, float]:
        self._verify_reference()
        n = len(self.cells)
        enc: List[List[float]] = [[] for _ in range(n)]
        dec: List[List[float]] = [[] for _ in range(n)]
        deadline = time.perf_counter() + seconds
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            for i, cell in enumerate(self.cells):
                out = self.attempt(cell.label, self._roundtrip, cell)  # the pair is one op
                if out is not None and self._matches_reference(i, out[0], out[1]):
                    enc[i].append(out[2])
                    dec[i].append(out[3])
            rounds += 1
        done = min(len(x) for x in enc)
        if done == 0:
            raise RuntimeError(f"every op of a cell failed: {self.problems[:3]}")
        self.note_samples("decompress calls pooled for read_ms_p90", done * n)
        per_slice = [self._timing([[x[r] for r in rounds] for x in enc],
                                  [[x[r] for r in rounds] for x in dec])
                     for rounds in harness.slices_of(range(done))]
        return {**harness.median_by_key(per_slice), **self._fidelity()}

    def _timing(self, enc: List[List[float]], dec: List[List[float]]) -> Dict[str, float]:
        """The timing metrics of some rounds; ``enc[i]`` / ``dec[i]`` are cell ``i``'s times."""
        n, rounds = len(enc), len(enc[0])
        raw_mb = sum(cell.data.nbytes for cell in self.cells) / 1e6
        # One "read" is one decode pass over the cells, so cells of different
        # speed never mix inside a percentile.  A run completes only ~25-35
        # passes, too few for a tail: p90 pools the single calls instead, each
        # scaled to the pass it would make if every call were slowed like it.
        passes = [sum(dec[i][r] for i in range(n)) for r in range(rounds)]
        typical = [median(x) for x in dec]
        scaled = [t * sum(typical) / typical[i] for i in range(n) for t in dec[i]]
        trips = [sum(enc[i][r] + dec[i][r] for i in range(n)) / n for r in range(rounds)]
        return {
            "compress_mb_s": raw_mb / sum(median(x) for x in enc),
            "decompress_mb_s": raw_mb / sum(typical),
            "reads_per_s": rounds / sum(passes),
            "read_ms_p50": 1e3 * median(passes),
            "read_ms_p90": 1e3 * percentile(scaled, 0.90),
            "push_to_first_read_s": median(trips),
        }

    def _fidelity(self) -> Dict[str, float]:
        blobs = sum(len(blob) for blob, _ in self.reference)
        return {
            "compression_ratio": sum(cell.data.nbytes for cell in self.cells) / blobs,
            "psnr_db": float(np.mean([repro.psnr(cell.data, recon) for cell, (_, recon)
                                      in zip(self.cells, self.reference)])),
        }

    # ------------------------------------------------------ shared trace parts
    def _trace_facade(self, tr: Tracer, seconds: float, comps: List[object],
                      per_round=None) -> Dict[str, float]:
        """Facade vs class-level calls per cell, alternated with untraced ops.

        ``per_round(op_id)`` runs the workload's extra replays inside the
        same time box.  Returns the ``api.facade_*`` shares and the trace
        overhead; per-cell spans stay in ``tr`` for the caller.
        """
        bare: List[float] = []
        deadline = time.perf_counter() + seconds
        op = 0
        while op < 2 or time.perf_counter() < deadline:
            for i, (cell, comp) in enumerate(zip(self.cells, comps)):
                self.attempted += 1
                with tr.span(f"api.compress.{cell.label}", op):
                    blob = repro.compress(cell.data, cell.codec, Rel(cell.rel),
                                          **cell.compress_kwargs)
                with tr.span(f"api.decompress.{cell.label}", op):
                    recon = repro.decompress(blob, **cell.decompress_kwargs)
                self._matches_reference(i, blob, recon)
                with tr.span(f"compressors.{cell.label}.compress", op):
                    payload = comp.compress(cell.data, cell.rel)
                with tr.span(f"compressors.{cell.label}.decompress", op):
                    comp.decompress(payload)
                self.check(payload == Archive.from_bytes(blob).payload,
                           f"{cell.label}: class-level payload differs from the facade's")
                out = self._roundtrip(cell)  # the same ops with no span around them
                bare.append(out[2] + out[3])
            if per_round is not None:
                per_round(op)
            op += 1
        facade_c = sum(median(tr.durations(f"api.compress.{c.label}")) for c in self.cells)
        facade_d = sum(median(tr.durations(f"api.decompress.{c.label}")) for c in self.cells)
        class_c = sum(median(tr.durations(f"compressors.{c.label}.compress")) for c in self.cells)
        class_d = sum(median(tr.durations(f"compressors.{c.label}.decompress")) for c in self.cells)
        traced = [a + b for c in self.cells for a, b in
                  zip(tr.durations(f"api.compress.{c.label}"),
                      tr.durations(f"api.decompress.{c.label}"))]
        return {
            "api.facade_compress_share": 1.0 - class_c / facade_c,
            "api.facade_decompress_share": 1.0 - class_d / facade_d,
            "bench.trace_overhead_share": median(traced) / median(bare) - 1.0,
        }


# ------------------------------------------------------------- stage replays
class StageReplay:
    """Re-runs the SZ-family entropy stages under spans and counts their work."""

    def __init__(self, tracer: Tracer) -> None:
        self.tr = tracer
        self.huffman = HuffmanCodec()
        self.backend = get_backend("zlib")
        self.symbols = {"enc": 0, "dec": 0}
        self.lossless_bytes = {"enc": 0, "dec": 0}

    def entropy_encode(self, symbols: np.ndarray) -> bytes:
        """``EntropyCodec.encode`` split into its two stages."""
        symbols = np.ascontiguousarray(symbols)
        with self.tr.span("encoding.entropy_encode"):
            with self.tr.span("encoding.huffman_encode"):
                stage1 = self.huffman.encode(symbols)
            out = b"\x01" + self.lossless_compress(stage1)
        self.symbols["enc"] += symbols.size
        return out

    def entropy_decode(self, data: bytes) -> np.ndarray:
        if data[:1] != b"\x01":
            raise ValueError("replay expects Huffman-coded entropy streams")
        with self.tr.span("encoding.entropy_decode"):
            stage1 = self.lossless_decompress(data[1:])
            with self.tr.span("encoding.huffman_decode"):
                symbols = self.huffman.decode(stage1)
        self.symbols["dec"] += symbols.size
        return symbols

    def lossless_compress(self, raw: bytes) -> bytes:
        with self.tr.span("encoding.lossless_compress"):
            out = self.backend.compress(raw)
        self.lossless_bytes["enc"] += len(raw)
        return out

    def lossless_decompress(self, blob: bytes) -> bytes:
        with self.tr.span("encoding.lossless_decompress"):
            out = self.backend.decompress(blob)
        self.lossless_bytes["dec"] += len(out)
        return out

    def container_write(self, container: ByteContainer) -> bytes:
        with self.tr.span("encoding.container_write"):
            return container.to_bytes()

    def container_parse(self, payload: bytes) -> ByteContainer:
        with self.tr.span("encoding.container_parse"):
            return ByteContainer.from_bytes(payload)

    def metrics(self) -> Dict[str, float]:
        tr = self.tr

        def rate(work: float, span: str) -> float:
            spent = tr.total(span)
            return work / 1e6 / spent if spent else 0.0

        return {
            "encoding.huffman_encode_msym_s": rate(self.symbols["enc"], "encoding.huffman_encode"),
            "encoding.huffman_decode_msym_s": rate(self.symbols["dec"], "encoding.huffman_decode"),
            "encoding.lossless_compress_mb_s": rate(self.lossless_bytes["enc"],
                                                    "encoding.lossless_compress"),
            "encoding.lossless_decompress_mb_s": rate(self.lossless_bytes["dec"],
                                                      "encoding.lossless_decompress"),
            "encoding.container_write_ms": median_of(tr.durations("encoding.container_write"), 1e3),
            "encoding.container_parse_ms": median_of(tr.durations("encoding.container_parse"), 1e3),
        }


def replay_szinterp_encode(rp: StageReplay, comp, data: np.ndarray, rel: float,
                           meta_section: bytes) -> bytes:
    data = np.asarray(data, dtype=np.float64)
    abs_eb = rel * value_range(data)
    with rp.tr.span("predictors.interp_encode"):
        enc = multilevel_interpolation_encode(data, abs_eb, comp.num_bins)
    offset = int(enc.anchor_codes.min()) if enc.anchor_codes.size else 0
    container = ByteContainer({"meta": meta_section})
    container["anchors"] = rp.entropy_encode(enc.anchor_codes - offset)
    container["codes"] = rp.entropy_encode(enc.codes)
    container["unpred"] = rp.lossless_compress(enc.unpredictable.astype(np.float64).tobytes())
    return rp.container_write(container)


def replay_szinterp_decode(rp: StageReplay, payload: bytes) -> np.ndarray:
    container = rp.container_parse(payload)
    meta = container.get_json("meta")
    anchors = rp.entropy_decode(container["anchors"]).reshape(meta["anchor_shape"]) \
        + int(meta["anchor_offset"])
    codes = rp.entropy_decode(container["codes"])
    unpred = np.frombuffer(rp.lossless_decompress(container["unpred"]), dtype=np.float64)
    with rp.tr.span("predictors.interp_decode"):
        return multilevel_interpolation_decode(anchors, codes, unpred, tuple(meta["shape"]),
                                               float(meta["abs_error_bound"]),
                                               int(meta["num_bins"]))


def replay_sz21_encode(rp: StageReplay, comp, data: np.ndarray, rel: float,
                       meta_section: bytes) -> bytes:
    data = np.asarray(data, dtype=np.float64)
    abs_eb = rel * value_range(data)
    size = comp.block_size_3d if data.ndim >= 3 else comp.block_size_2d
    with rp.tr.span("core.blocking_split"):
        blocks, _ = split_into_blocks(data, size)
    # Block selection + Lorenzo sweep + quantization have no public entry
    # point; the method call below is the only seam until repro/obs spans.
    with rp.tr.span("predictors.sz21_encode_blocks"):
        flags, codes, unpred, coefs = comp._encode_blocks(blocks, abs_eb)
    container = ByteContainer({"meta": meta_section})
    container["flags"] = rp.entropy_encode(flags.astype(np.int64))
    container["codes"] = rp.entropy_encode(codes)
    container["unpred"] = rp.lossless_compress(unpred.tobytes())
    if coefs is not None:
        container["coefs"] = rp.lossless_compress(coefs.astype(np.float64).tobytes())
    return rp.container_write(container)


def replay_sz21_decode(rp: StageReplay, payload: bytes) -> np.ndarray:
    container = rp.container_parse(payload)
    meta = container.get_json("meta")
    grid = BlockGrid.from_dict(meta["grid"])
    abs_eb, num_bins = float(meta["abs_error_bound"]), int(meta["num_bins"])
    flags = rp.entropy_decode(container["flags"])
    codes = rp.entropy_decode(container["codes"]).reshape((grid.n_blocks,) + grid.block_shape)
    unpred = np.frombuffer(rp.lossless_decompress(container["unpred"]), dtype=np.float64)
    coefs = (np.frombuffer(rp.lossless_decompress(container["coefs"]), dtype=np.float64)
             if "coefs" in container else np.zeros(0))
    mask = codes == UNPREDICTABLE_CODE
    offsets = np.concatenate(([0], np.cumsum(mask.reshape(grid.n_blocks, -1).sum(axis=1))))
    blocks = np.zeros(codes.shape, dtype=np.float64)
    lorenzo = np.flatnonzero(flags == FLAG_LORENZO)
    if lorenzo.size:
        literals = np.zeros((lorenzo.size,) + grid.block_shape, dtype=np.float64)
        if mask[lorenzo].any():
            literals[mask[lorenzo]] = np.concatenate(
                [unpred[offsets[b]:offsets[b + 1]] for b in lorenzo])
        with rp.tr.span("predictors.lorenzo_decode_blocks"):
            blocks[lorenzo] = _lorenzo_decode_blocks(codes[lorenzo], literals, mask[lorenzo],
                                                     abs_eb, num_bins)
    regression = LinearRegressionPredictor()
    n_coef = len(grid.block_shape) + 1
    with rp.tr.span("predictors.regression_decode_blocks"):
        for k, b in enumerate(np.flatnonzero(flags == FLAG_REGRESSION)):
            pred = regression.predict(
                grid.block_shape, RegressionCoefficients(coefs[k * n_coef:(k + 1) * n_coef]))
            blocks[b] = dequantize_prediction_errors(
                codes[b], pred, unpred[offsets[b]:offsets[b + 1]], abs_eb, num_bins)
    with rp.tr.span("core.blocking_reassemble"):
        return reassemble_blocks(blocks, grid)


REPLAYS = {"sz21": (replay_sz21_encode, replay_sz21_decode),
           "szinterp": (replay_szinterp_encode, replay_szinterp_decode)}


def median_s(tr: Tracer, span: str) -> float:
    return median_of(tr.durations(span))


# ---------------------------------------------------------------- the workloads
class FieldBaselines(_FieldWorkload):
    """Paper Table VIII axis: the four model-free codecs at ``Rel(1e-3)``."""

    name = "field-baselines"
    CODECS = ("sz21", "szinterp", "zfp", "szauto")
    REL = 1e-3

    def make_cells(self) -> List[Cell]:
        shape = (16, 32, 32) if self.smoke else (32, 64, 128)
        self.field = generators.hurricane_u(shape, 0, self.seed).astype(np.float64)
        return [Cell(codec, self.field, codec, self.REL) for codec in self.CODECS]

    def trace(self, seconds: float, tr: Tracer) -> Dict[str, float]:
        self._verify_reference()
        comps = [repro.get_compressor(codec) for codec in self.CODECS]
        rp = StageReplay(tr)
        abs_eb = self.REL * value_range(self.field)
        payloads = [Archive.from_bytes(blob).payload for blob, _ in self.reference]

        def replays(op: int) -> None:
            for codec, comp, payload in zip(self.CODECS, comps, payloads):
                if codec not in REPLAYS:
                    continue
                encode, decode = REPLAYS[codec]
                meta = ByteContainer.from_bytes(payload)["meta"]
                self.attempted += 1
                with tr.span(f"replay.{codec}.encode", op):
                    again = encode(rp, comp, self.field, self.REL, meta)
                with tr.span(f"replay.{codec}.decode", op):
                    recon = decode(rp, payload)
                self.check(again == payload and np.array_equal(recon, comp.decompress(payload)),
                           f"{codec}: stage replay does not reproduce the codec's output")
            with tr.span("predictors.lorenzo_predict", op):
                pred = lorenzo_predict(self.field)
            with tr.span("quantization.quantize", op):
                qr = quantize_prediction_errors(self.field, pred, abs_eb)
            with tr.span("quantization.dequantize", op):
                dequantize_prediction_errors(qr.codes, pred, qr.unpredictable, abs_eb)

        out = self._trace_facade(tr, seconds, comps, replays)
        raw = self.field.nbytes
        for i, codec in enumerate(self.CODECS):
            out[f"compressors.{codec}.compress_mb_s"] = \
                raw / 1e6 / median_s(tr, f"compressors.{codec}.compress")
            out[f"compressors.{codec}.decompress_mb_s"] = \
                raw / 1e6 / median_s(tr, f"compressors.{codec}.decompress")
            out[f"compressors.{codec}.ratio"] = raw / len(self.reference[i][0])
        for codec in REPLAYS:
            for side, real in (("encode", "compress"), ("decode", "decompress")):
                staged = tr.child_time(f"replay.{codec}.{side}")
                out[f"compressors.{codec}.{side}_stage_coverage"] = \
                    staged / tr.total(f"compressors.{codec}.{real}")
        out.update(rp.metrics())
        out.update({
            "predictors.interp_encode_s": median_s(tr, "predictors.interp_encode"),
            "predictors.interp_decode_s": median_s(tr, "predictors.interp_decode"),
            "predictors.lorenzo_predict_s": median_s(tr, "predictors.lorenzo_predict"),
            "quantization.quantize_s": median_s(tr, "quantization.quantize"),
            "quantization.dequantize_s": median_s(tr, "quantization.dequantize"),
            "core.blocking_split_s": median_s(tr, "core.blocking_split"),
            "core.blocking_reassemble_s": median_s(tr, "core.blocking_reassemble"),
        })
        for codec in REPLAYS:
            for side in ("encode", "decode"):
                value = out[f"compressors.{codec}.{side}_stage_coverage"]
                self.predict(f"compressors.{codec}.{side}_stage_coverage in [0.85, 1.15]",
                             0.85 <= value <= 1.15, f"{value:.3f}")
        return out


class FieldAesz(_FieldWorkload):
    """The paper's contribution: SWAE-predicted blocks, model amortised."""

    name = "field-aesz"
    # Both cells run the paper's default "hybrid" predictor (per block the AE
    # competes with Lorenzo and the mean).  The "ae"-only ablation was tried
    # as a second cell and dropped: decoding every block through the network
    # is 62 ms on most calls but 110-270 ms on one call in five here
    # (allocation-dependent), which no percentile resolves in ~30 rounds.
    BOUNDS = (1e-2, 1e-3)
    BLOCK = 8
    # Sized so training takes ~2 s yet the AE still wins a third of the blocks.
    TRAINING = TrainingConfig(epochs=3, learning_rate=4e-3)
    MAX_BLOCKS = 1024

    # The model is amortised: it is trained on one fixed simulation whatever
    # the seed.  (Training on seeded data moved the AE's share of blocks
    # between 0.13 and 0.49 from seed to seed, and decode time with it.)
    TRAIN_SEED = 0

    def make_cells(self) -> List[Cell]:
        shape = (16 if self.smoke else 48,) * 3

        def snapshot(timestep: int, seed: int) -> np.ndarray:
            return generators.nyx_baryon_density(shape, timestep, seed).astype(np.float64)

        self.train_snapshots = [snapshot(t, self.TRAIN_SEED) for t in (0, 1)]
        self.autoencoder = SlicedWassersteinAutoencoder(AutoencoderConfig(
            ndim=3, block_size=self.BLOCK, latent_size=8, channels=(4, 8)))
        self.compressor = AESZCompressor(self.autoencoder, AESZConfig(block_size=self.BLOCK))
        start = time.perf_counter()
        self.compressor.train(self.train_snapshots, self.TRAINING,
                              max_blocks=self.MAX_BLOCKS, seed=self.TRAIN_SEED)
        self.train_s = time.perf_counter() - start
        blocks = len(self.train_snapshots) * int(np.prod([-(-s // self.BLOCK) for s in shape]))
        self.trained_blocks = min(blocks, self.MAX_BLOCKS) * self.TRAINING.epochs
        # Two held-out fields, one per bound: a later snapshot of the training
        # simulation (the paper's protocol) and one of the seed's simulation (a
        # run the model never saw).  The AE wins 0.22-0.32 of a field's 216
        # blocks depending on the field, and hybrid decode time follows it;
        # with only one of the two fields seeded that is +-6 % between seeds.
        fields = (snapshot(2, self.TRAIN_SEED), snapshot(2, self.seed))
        return [Cell(f"aesz@{rel:g}", data, self.compressor, rel,
                     {"embed_model": False}, {"autoencoder": self.autoencoder})
                for data, rel in zip(fields, self.BOUNDS)]

    def trace(self, seconds: float, tr: Tracer) -> Dict[str, float]:
        self._verify_reference()
        comp, ae = self.compressor, self.autoencoder
        config = comp.config
        rp = StageReplay(tr)
        latent_codec = LatentCodec()
        fractions: List[float] = []
        latent_share: List[float] = []
        for cell in self.cells:  # exact counts: one compress per cell is enough
            comp.compress(cell.data, cell.rel)
            stats = comp.last_stats
            fractions.append(stats.ae_block_fraction)
            latent_share.append(stats.section_bytes.get("latents", 0) / stats.compressed_bytes)

        def stages(op: int) -> None:
            for cell in self.cells:
                abs_eb = cell.rel * value_range(cell.data)
                latent_eb = config.latent_error_bound_ratio * abs_eb
                with tr.span("core.blocking_split", op):
                    blocks, grid = split_into_blocks(cell.data, self.BLOCK)
                with tr.span("autoencoders.encode_blocks", op):
                    latents = ae.encode(blocks)
                decoded = UniformQuantizer(latent_eb).roundtrip(latents)[1]
                with tr.span("autoencoders.decode_latents", op):
                    pred = ae.decode(decoded)
                with tr.span("core.latent_codec_compress", op):
                    packed = latent_codec.compress(latents, latent_eb)
                with tr.span("core.latent_codec_decompress", op):
                    latent_codec.decompress(packed.payload)
                with tr.span("quantization.quantize", op):
                    qr = quantize_prediction_errors(blocks, pred, abs_eb, config.num_bins)
                with tr.span("quantization.dequantize", op):
                    dequantize_prediction_errors(qr.codes, pred, qr.unpredictable, abs_eb,
                                                 config.num_bins)
                rp.entropy_decode(rp.entropy_encode(qr.codes.ravel()))
                with tr.span("core.blocking_reassemble", op):
                    reassemble_blocks(blocks, grid)

        out = self._trace_facade(tr, seconds, [comp] * len(self.cells), stages)
        out.update({k: v for k, v in rp.metrics().items() if "container" not in k})
        out.update({
            "core.blocking_split_s": median_s(tr, "core.blocking_split"),
            "core.blocking_reassemble_s": median_s(tr, "core.blocking_reassemble"),
            "core.latent_codec_compress_s": median_s(tr, "core.latent_codec_compress"),
            "core.latent_codec_decompress_s": median_s(tr, "core.latent_codec_decompress"),
            "core.aesz.ae_block_fraction": float(np.mean(fractions)),
            "core.aesz.latent_bytes_share": float(np.mean(latent_share)),
            "autoencoders.encode_blocks_s": median_s(tr, "autoencoders.encode_blocks"),
            "autoencoders.decode_latents_s": median_s(tr, "autoencoders.decode_latents"),
            "quantization.quantize_s": median_s(tr, "quantization.quantize"),
            "quantization.dequantize_s": median_s(tr, "quantization.dequantize"),
            "nn.train_s": self.train_s,
            "nn.train_blocks_per_s": self.trained_blocks / self.train_s,
        })
        return out
