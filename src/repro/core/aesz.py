"""The AE-SZ error-bounded lossy compressor (paper Section IV, Algorithm 1).

Pipeline per input field:

1. split into fixed-size blocks (32x32 / 8x8x8 by default);
2. predict every block with (a) the pre-trained convolutional autoencoder,
   decoding *lossily compressed* latent vectors, and (b) the (mean-)Lorenzo
   predictor; select the predictor with the lower L1 loss per block;
3. quantize prediction errors with error-controlled linear-scale quantization;
4. entropy-code quantization codes (Huffman + dictionary backend) and store
   the compressed latents of AE-predicted blocks.

Decompression runs the same predictors from the stored information, so the
reconstruction is bit-identical to what the compressor computed and the
user-specified error bound holds for every point.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.autoencoders.base import BlockAutoencoder
from repro.autoencoders.config import AutoencoderConfig
from repro.autoencoders.factory import AE_REGISTRY, create_autoencoder
from repro.compressors.base import Compressor, _absolute_bound
from repro.core.blocking import BlockGrid, reassemble_blocks, split_into_blocks
from repro.core.config import AESZConfig
from repro.core.latent_codec import LatentCodec
from repro.encoding.container import ByteContainer, checked_int, checked_positive
from repro.encoding.entropy import EntropyCodec
from repro.nn.serialization import (
    dump_model_blob,
    fingerprint_with_norm,
    restore_archived_model,
)
from repro.nn.training import TrainingConfig, fit_autoencoder
from repro.predictors.blockwise import checked_flags, decode_residuals, select
from repro.predictors.lorenzo import (
    _batched_lorenzo_inverse,
    _batched_lorenzo_predict,
    _batched_lorenzo_transform,
)
from repro.quantization.linear import quantize_prediction_errors
from repro.quantization.uniform import UniformQuantizer
from repro.registry import register_compressor
from repro.utils.validation import ensure_float_array, ensure_positive, value_range

# Per-block predictor flags stored in the stream.
FLAG_AE = 0
FLAG_LORENZO = 1
FLAG_MEAN = 2


@dataclass
class CompressionStats:
    """Bookkeeping produced by :meth:`AESZCompressor.compress` (used for Fig. 10).

    ``original_bytes`` reflects the true input dtype (``original_dtype``), so
    ``compression_ratio`` is the real achieved ratio.  This differs from
    :class:`repro.compressors.base.CompressorResult`, which deliberately keeps
    the paper's float32-origin convention (32 bits/value) so cross-compressor
    tables stay comparable with the published numbers.
    """

    n_blocks: int = 0
    n_ae_blocks: int = 0
    n_lorenzo_blocks: int = 0
    n_mean_blocks: int = 0
    compressed_bytes: int = 0
    original_bytes: int = 0
    original_dtype: str = ""
    section_bytes: dict = field(default_factory=dict)

    @property
    def ae_block_fraction(self) -> float:
        """Fraction of blocks predicted by the autoencoder (y-axis of Fig. 10)."""
        return self.n_ae_blocks / self.n_blocks if self.n_blocks else 0.0

    @property
    def compression_ratio(self) -> float:
        if self.compressed_bytes == 0:
            return float("inf")
        return self.original_bytes / self.compressed_bytes


def output_dtype_and_bound(data: np.ndarray, abs_eb: float,
                            dtype: np.dtype) -> Tuple[np.dtype, float]:
    """Decide the reconstruction dtype and the internal quantization bound.

    Casting the float64 reconstruction to a narrower float adds up to half an
    ulp of rounding.  When the input dtype is narrower than float64, the
    internal bound is *tightened* by that worst-case rounding so the
    user-requested bound still holds after the cast — by construction, not by
    luck.  If the rounding is not small against ``abs_eb`` (bounds near the
    dtype's precision) or values would overflow the dtype, the reconstruction
    stays float64, which always honours the bound.
    """
    dtype = np.dtype(dtype)
    if not np.issubdtype(dtype, np.floating) or dtype.itemsize >= 8:
        return np.dtype(np.float64), abs_eb
    max_abs = float(np.max(np.abs(data))) if data.size else 0.0
    info = np.finfo(dtype)
    if max_abs + abs_eb > float(info.max):
        return np.dtype(np.float64), abs_eb
    # Reconstruction values satisfy |v| <= max_abs + abs_eb, so this is the
    # worst-case round-to-nearest error of the final cast.
    cast_err = 0.5 * float(np.spacing(np.asarray(max_abs + abs_eb, dtype=dtype)))
    if not np.isfinite(cast_err) or cast_err >= 0.25 * abs_eb:
        return np.dtype(np.float64), abs_eb
    return dtype, abs_eb - cast_err


class AESZCompressor(Compressor):
    """Autoencoder-based error-bounded lossy compressor.

    Parameters
    ----------
    autoencoder:
        A trained :class:`repro.autoencoders.base.BlockAutoencoder` whose block
        shape matches ``config.block_size``.  The model is *not* part of the
        raw compressed stream (it is reused across snapshots, as in the paper);
        the archive layer records its fingerprint — and, optionally, the
        weights themselves — via :meth:`archive_state`.
    config:
        Pipeline configuration; defaults follow the paper.
    model_ref:
        Optional human-readable reference (e.g. the ``.npz`` path the model was
        loaded from), recorded in archive headers for diagnostics.
    """

    name = "AE-SZ"

    def __init__(self, autoencoder: BlockAutoencoder, config: Optional[AESZConfig] = None,
                 model_ref: Optional[str] = None):
        self.autoencoder = autoencoder
        self.config = config or AESZConfig(block_size=autoencoder.config.block_size)
        if self.config.block_size != autoencoder.config.block_size:
            raise ValueError(
                f"config.block_size {self.config.block_size} does not match the "
                f"autoencoder block size {autoencoder.config.block_size}"
            )
        self.latent_codec = LatentCodec(self.config.lossless_backend)
        self._entropy = EntropyCodec(self.config.lossless_backend)
        self.last_stats: Optional[CompressionStats] = None
        self.model_ref = model_ref

    # ------------------------------------------------------- archive support
    # The compressor casts its reconstruction back to the (bound-safe) input
    # dtype itself, so the facade must not run its own cast plan on top.
    manages_output_dtype = True

    def model_fingerprint(self) -> str:
        """sha256 identity of the attached model (weights + normalization)."""
        return fingerprint_with_norm(self.autoencoder)

    def archive_state(self, embed_model: bool = True) -> Tuple[dict, Dict[str, bytes]]:
        ae = self.autoencoder
        ae_kind = next((kind for kind, klass in AE_REGISTRY.items()
                        if type(ae) is klass), None)
        meta = {
            "model_sha256": self.model_fingerprint(),
            "model_ref": self.model_ref,
            "ae_kind": ae_kind,
            "ae_config": {
                "ndim": ae.config.ndim, "block_size": ae.config.block_size,
                "latent_size": ae.config.latent_size,
                "channels": list(ae.config.channels),
                "kernel_size": ae.config.kernel_size, "seed": ae.config.seed,
            },
            "aesz_config": asdict(self.config),
        }
        blobs: Dict[str, bytes] = {}
        if embed_model:
            if ae_kind is None:
                raise ValueError(
                    f"cannot embed the model: {type(ae).__name__} is not in the "
                    f"autoencoder registry (AE_REGISTRY), so the archive could not "
                    f"rebuild it; compress with embed_model=False and pass "
                    f"autoencoder=... at decompression"
                )
            blobs["model"] = dump_model_blob(ae)
        return meta, blobs

    @classmethod
    def from_archive_state(cls, meta: dict, blobs: Dict[str, bytes],
                           autoencoder: Optional[BlockAutoencoder] = None,
                           model=None, **opts) -> "AESZCompressor":
        model_ref = meta.get("model_ref")

        def build() -> BlockAutoencoder:
            if meta.get("ae_kind") is None:
                raise ValueError(
                    "this AE-SZ archive does not record a rebuildable model "
                    "architecture (the autoencoder class was not registered); "
                    "pass autoencoder=... instead"
                )
            return create_autoencoder(meta["ae_kind"], AutoencoderConfig(**meta["ae_config"]))

        ref = f"AE-SZ (written from {model_ref!r})" if model_ref else "AE-SZ"
        restored = restore_archived_model(build, meta, blobs, autoencoder=autoencoder,
                                          model=model, codec_label=ref)
        if autoencoder is None and model is not None:
            model_ref = str(model)
        return cls(restored, AESZConfig(**meta["aesz_config"]), model_ref=model_ref)

    # ------------------------------------------------------------------ train
    def train(self, snapshots: Sequence[np.ndarray],
              training: Optional[TrainingConfig] = None,
              max_blocks: int = 4096, seed: int = 0):
        """Train the autoencoder on snapshot blocks (offline stage of Fig. 2)."""
        blocks = [split_into_blocks(np.asarray(snapshot, dtype=np.float64),
                                    self.config.block_size)[0] for snapshot in snapshots]
        return fit_autoencoder(self.autoencoder, blocks, training, max_blocks, seed)

    # ------------------------------------------------------------- prediction
    def _ae_predictions(self, blocks: np.ndarray, latent_error_bound: float
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Encode blocks, lossily compress latents, decode predictions.

        Returns ``(latents, predictions)`` where ``predictions`` come from the
        *decompressed* latents (exactly what the decompressor will see; the
        autoencoder computes a block the same way in any batch).
        """
        latents = self.autoencoder.encode(blocks)
        decoded_latents = UniformQuantizer(latent_error_bound).roundtrip(latents)[1]
        return latents, self.autoencoder.decode(decoded_latents)

    # ------------------------------------------------------ residual classes
    def _put_residuals(self, container: ByteContainer, name: str, blocks: np.ndarray,
                       pred: np.ndarray, abs_eb: float) -> None:
        """Quantize one predictor class into ``<name>_codes`` / ``<name>_unpred``."""
        qr = quantize_prediction_errors(blocks, pred, abs_eb, self.config.num_bins)
        container[f"{name}_codes"] = self._entropy.encode(qr.codes.ravel())
        container[f"{name}_unpred"] = self._entropy.encode_floats(qr.unpredictable)

    def _get_residuals(self, container: ByteContainer, name: str, pred: np.ndarray,
                       abs_eb: float, num_bins: int) -> np.ndarray:
        """Checked inverse of :meth:`_put_residuals` against the same ``pred``."""
        literals = self._entropy.decode_floats(container[f"{name}_unpred"])
        return decode_residuals(self._entropy.decode(container[f"{name}_codes"]), pred,
                                literals, abs_eb, num_bins)

    # --------------------------------------------------------------- compress
    def compress(self, data: np.ndarray, rel_error_bound: float) -> bytes:
        """Compress ``data`` under a value-range-based relative error bound."""
        ensure_positive(rel_error_bound, "rel_error_bound")
        src_dtype = np.asarray(data).dtype
        data = ensure_float_array(data, "data")
        # The reconstruction dtype reported to the decompressor: floating
        # inputs round-trip to their own dtype (when bound-safe), integer
        # inputs to float64 (the lossy pipeline cannot restore exact integers).
        in_dtype = data.dtype
        # Run the pipeline itself in float64 so predictor selection and
        # quantization behave identically for float32 and float64 inputs.
        data = data.astype(np.float64, copy=False)
        abs_eb = _absolute_bound(rel_error_bound, value_range(data))
        out_dtype, abs_eb = output_dtype_and_bound(data, abs_eb, in_dtype)

        blocks, grid = split_into_blocks(data, self.config.block_size)
        mode = self.config.predictor_mode
        latent_eb = self.config.latent_error_bound_ratio * abs_eb
        step = 2.0 * abs_eb

        # --- candidate predictions, in flag order ---------------------------
        latents = ae_pred = lorenzo_pred = mean_pred = None
        if mode in ("hybrid", "ae"):
            latents, ae_pred = self._ae_predictions(blocks, latent_eb)
        if mode in ("hybrid", "lorenzo"):
            # Score Lorenzo from the 2e-grid (pre-quantized) values: that is what
            # the integer Lorenzo encoder actually predicts from, and it gives the
            # selection the same error-bound dependence as SZ's reconstructed-
            # neighbour prediction (the mechanism behind paper Fig. 10).
            lorenzo_pred = _batched_lorenzo_predict(np.rint(blocks / step) * step)
            if self.config.use_mean_lorenzo:
                means = blocks.mean(axis=tuple(range(1, blocks.ndim)))
                mean_pred = np.broadcast_to(
                    means.reshape((-1,) + (1,) * (blocks.ndim - 1)), blocks.shape)
        flags = select(blocks, [ae_pred, lorenzo_pred, mean_pred])
        ae_idx, lor_idx, mean_idx = (np.flatnonzero(flags == flag)
                                     for flag in (FLAG_AE, FLAG_LORENZO, FLAG_MEAN))

        container = ByteContainer()
        if ae_idx.size:
            container["latents"] = self.latent_codec.compress(latents[ae_idx], latent_eb).payload
            self._put_residuals(container, "ae", blocks[ae_idx], ae_pred[ae_idx], abs_eb)

        # Lorenzo blocks use integer dual-quantization: no residual class.
        lorenzo_offset = 0
        if lor_idx.size:
            diffs = _batched_lorenzo_transform(np.rint(blocks[lor_idx] / step).astype(np.int64))
            lorenzo_offset, container["lorenzo_codes"] = self._entropy.encode_shifted(diffs)

        if mean_idx.size:
            self._put_residuals(container, "mean", blocks[mean_idx], mean_pred[mean_idx], abs_eb)
            container["means"] = self._entropy.encode_floats(means[mean_idx])

        # --- header ------------------------------------------------------------
        container["flags"] = self._entropy.encode(flags.astype(np.int64))
        container.put_json("meta", {
            "grid": grid.to_dict(),
            "abs_error_bound": float(abs_eb),
            "rel_error_bound": float(rel_error_bound),
            "num_bins": int(self.config.num_bins),
            "lorenzo_offset": lorenzo_offset,
            "latent_error_bound": float(latent_eb),
            "predictor_mode": mode,
            "dtype": str(in_dtype),
            # Written only by compressors that ran the bound-safety analysis
            # in output_dtype_and_bound; decompress casts on this key alone,
            # so legacy payloads (which recorded "dtype" without tightening
            # the bound) keep returning float64 as the seed decompressor did.
            "output_dtype": str(out_dtype),
        })
        payload = container.to_bytes()

        self.last_stats = CompressionStats(
            n_blocks=int(flags.size),
            n_ae_blocks=int(ae_idx.size),
            n_lorenzo_blocks=int(lor_idx.size),
            n_mean_blocks=int(mean_idx.size),
            compressed_bytes=len(payload),
            original_bytes=int(data.size * src_dtype.itemsize),
            original_dtype=str(src_dtype),
            section_bytes={name: len(container[name]) for name in
                           ("latents", "ae_codes", "lorenzo_codes", "mean_codes")
                           if name in container},
        )
        return payload

    # ------------------------------------------------------------- decompress
    def decompress(self, payload: bytes) -> np.ndarray:
        """Reconstruct the field compressed by :meth:`compress`."""
        container = ByteContainer.from_bytes(payload)
        meta = container.get_json("meta")
        grid = BlockGrid.from_dict(meta["grid"])
        abs_eb = checked_positive(meta["abs_error_bound"], "abs_error_bound")
        num_bins = checked_int(meta["num_bins"], "num_bins")
        flags = checked_flags(self._entropy.decode(container["flags"]), grid.n_blocks, 3)
        block_shape = grid.block_shape
        blocks = np.zeros((grid.n_blocks,) + block_shape, dtype=np.float64)
        ae_idx, lor_idx, mean_idx = (np.flatnonzero(flags == flag)
                                     for flag in (FLAG_AE, FLAG_LORENZO, FLAG_MEAN))

        if ae_idx.size:
            decoded_latents = self.latent_codec.decompress(container["latents"])
            if decoded_latents.shape[:1] != (ae_idx.size,):
                raise ValueError("corrupt payload: latent rows do not match the AE blocks")
            if decoded_latents.shape[1:] != (self.autoencoder.config.latent_size,):
                raise ValueError("corrupt payload: latent width does not match the autoencoder")
            blocks[ae_idx] = self._get_residuals(
                container, "ae", self.autoencoder.decode(decoded_latents), abs_eb, num_bins)

        if lor_idx.size:
            q_int = _batched_lorenzo_inverse(self._entropy.decode_shifted(
                container["lorenzo_codes"], meta["lorenzo_offset"],
                (lor_idx.size,) + block_shape))
            blocks[lor_idx] = q_int.astype(np.float64) * (2.0 * abs_eb)

        if mean_idx.size:
            sel_means = self._entropy.decode_floats(
                container["means"], shape=(mean_idx.size,) + (1,) * len(block_shape))
            pred = np.broadcast_to(sel_means, (mean_idx.size,) + block_shape)
            blocks[mean_idx] = self._get_residuals(container, "mean", pred, abs_eb, num_bins)

        out = reassemble_blocks(blocks, grid)
        return out.astype(np.dtype(meta.get("output_dtype", "float64")), copy=False)


def build_aesz(autoencoder: Optional[BlockAutoencoder] = None, model=None,
               ae_kind: str = "swae", ae_config=None,
               config: Optional[AESZConfig] = None, **config_opts) -> AESZCompressor:
    """Registry factory for the ``aesz`` codec.

    Accepts either a ready ``autoencoder`` instance or a saved ``model`` (.npz
    path) plus the ``ae_config`` (dict or :class:`AutoencoderConfig`) that
    describes its architecture — the weight file alone does not carry it.
    """
    model_ref = None
    if autoencoder is None:
        if model is None:
            raise ValueError(
                "the 'aesz' codec needs a trained model: pass autoencoder=<BlockAutoencoder> "
                "or model=<path.npz> together with ae_config=..."
            )
        if ae_config is None:
            raise ValueError(
                "rebuilding 'aesz' from model=<path.npz> needs ae_config= "
                "(an AutoencoderConfig or a dict of its fields)"
            )
        if isinstance(ae_config, Mapping):
            ae_config = AutoencoderConfig(**ae_config)
        autoencoder = create_autoencoder(ae_kind, ae_config)
        autoencoder.load(model)
        model_ref = str(model)
    if config is None:
        config = AESZConfig(block_size=autoencoder.config.block_size, **config_opts)
    return AESZCompressor(autoencoder, config, model_ref=model_ref)


register_compressor(
    "aesz", build_aesz, aliases=("ae_sz", "ae-sz"), requires_model=True,
    restorer=AESZCompressor.from_archive_state, cls=AESZCompressor,
    description="AE-SZ: autoencoder + Lorenzo hybrid, error bounded (needs a trained model)",
)
