"""The paper's experiments as one ordered table (see ``EXPERIMENTS`` at the end).

Each entry regenerates one table or figure of the paper on synthetic
SDRBench-like data with scaled-down networks and field shapes (the
"Substitutions" section of docs/architecture.md), so absolute numbers differ
from the paper's; ``checks`` states, per experiment, which shape of the
paper's result must still hold and whether the measured rows show it.
Compression ratios follow the paper's float32-origin convention
(``size * 4 / compressed bytes``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple

import numpy as np

from repro.analysis import (ModelCache, ascii_histogram, build_aesz_for_field,
                            run_rate_distortion)
from repro.analysis.experiments import TrainingBudget, baseline_compressors
from repro.autoencoders import AE_REGISTRY, AutoencoderConfig
from repro.compressors import SZ21Compressor
from repro.core import AESZCompressor, AESZConfig, LatentCodec
from repro.core.blocking import split_into_blocks
from repro.data import load_field_snapshot
from repro.data.catalog import FIELDS
from repro.encoding import EntropyCodec, StoreBackend, ZlibBackend
from repro.metrics import bit_rate, max_rel_error, prediction_psnr, psnr
from repro.predictors import LinearRegressionPredictor
from repro.predictors.lorenzo import _batched_lorenzo_predict
from repro.quantization.uniform import UniformQuantizer
from repro.utils.validation import value_range

Rows = List[Dict[str, object]]


class Check(NamedTuple):
    """One shape check: what must hold, the paper's value, ours, the verdict."""
    what: str
    paper: str
    measured: str
    holds: bool


class Experiment(NamedTuple):
    id: str      # a key of repro.analysis.report.SECTION_TITLES
    claim: str   # the paper's claim, one line
    run: Callable[[], Rows]
    checks: Callable[[Rows], List[Check]]


# Large enough to show the compressors' behaviour, small enough for the
# pure-NumPy pipeline to sweep repeatedly.
SHAPES = {
    "CESM-CLDHGH": (192, 384),
    "CESM-FREQSH": (192, 384),
    "EXAFEL-raw": (185, 194),
    "NYX-baryon_density": (48, 48, 48),
    "NYX-temperature": (48, 48, 48),
    "NYX-dark_matter_density": (48, 48, 48),
    "Hurricane-U": (20, 64, 64),
    "Hurricane-QVAPOR": (20, 64, 64),
    "RTM-snapshot": (48, 48, 32),
}


def model_cache(**budget) -> ModelCache:
    """The run's model cache; ``budget`` overrides :class:`TrainingBudget`
    fields for an experiment that trains its own sweep of models."""
    return ModelCache(budget=TrainingBudget(**budget))


def held_out(field: str) -> np.ndarray:
    """The snapshot an experiment compresses (never seen in training)."""
    return load_field_snapshot(field, shape=SHAPES[field]).astype(np.float64)


def swae(field: str):
    return model_cache().swae_for_field(field, shape=SHAPES[field])


def aesz(field: str, predictor_mode: str = "hybrid") -> AESZCompressor:
    return build_aesz_for_field(field, cache=model_cache(), shape=SHAPES[field],
                                predictor_mode=predictor_mode)


def ratio(data: np.ndarray, payload: bytes) -> float:
    return data.size * 4 / len(payload)


# ------------------------------------------------------------------ Table I
T1_FIELD = "CESM-CLDHGH"
T1_CONFIG = AutoencoderConfig(ndim=2, block_size=32, latent_size=16, channels=(4, 8), seed=0)
T1_DISPLAY = {"ae": "AE", "vae": "VAE", "beta-vae": "beta-VAE", "dip-vae": "DIP-VAE",
              "info-vae": "Info-VAE", "logcosh-vae": "LogCosh-VAE", "wae": "WAE",
              "swae": "SWAE"}


def run_table1() -> Rows:
    cache = model_cache(epochs=6, max_blocks=384, train_snapshot_limit=2)
    blocks, _ = split_into_blocks(held_out(T1_FIELD), T1_CONFIG.block_size)
    rows = []
    for kind in AE_REGISTRY:
        model = cache.swae_for_field(T1_FIELD, ae_kind=kind, config=T1_CONFIG,
                                     shape=SHAPES[T1_FIELD])
        rows.append({"ae_type": T1_DISPLAY[kind],
                     "prediction_psnr_db": prediction_psnr(blocks, model.reconstruct(blocks))})
    rows.sort(key=lambda r: -r["prediction_psnr_db"])
    return rows


def check_table1(rows: Rows) -> List[Check]:
    by = {r["ae_type"]: r["prediction_psnr_db"] for r in rows}
    rank = list(by).index("SWAE") + 1
    return [
        Check("SWAE ranks in the top three of the eight AE types", "SWAE best, 43.9 dB",
              f"rank {rank}: SWAE {by['SWAE']:.1f} dB, best {rows[0]['ae_type']} "
              f"{rows[0]['prediction_psnr_db']:.1f} dB", rank <= 3),
        Check("SWAE is within 0.5 dB of the stochastic VAE or better",
              "SWAE above every VAE variant",
              f"SWAE {by['SWAE']:.1f} dB, VAE {by['VAE']:.1f} dB", by["SWAE"] >= by["VAE"] - 0.5),
        Check("every AE type trains to a finite PSNR", "all eight reported",
              f"{sum(map(np.isfinite, by.values()))} of {len(by)} finite",
              all(map(np.isfinite, by.values()))),
    ]


# ----------------------------------------------------------------- Table II
# The paper sweeps {16, 32, 64}^2 and {8, 16, 32}^3; the largest 3D block is
# reduced here so the pure-NumPy 3D convolutions stay tractable.
T2_SWEEP = {
    "CESM-CLDHGH": {"ndim": 2, "latent_ratio": 64, "block_sizes": [16, 32, 64], "paper": 32},
    "NYX-baryon_density": {"ndim": 3, "latent_ratio": 32, "block_sizes": [4, 8, 16], "paper": 8},
}


def _trained_aesz(cache: ModelCache, field: str, config: AutoencoderConfig) -> AESZCompressor:
    model = cache.swae_for_field(field, config=config, shape=SHAPES[field])
    return AESZCompressor(model, AESZConfig(block_size=config.block_size))


def run_table2() -> Rows:
    cache = model_cache(epochs=8, max_blocks=384, train_snapshot_limit=2)
    rows = []
    for field, spec in T2_SWEEP.items():
        data = held_out(field)
        for block_size in spec["block_sizes"]:
            latent = max(1, block_size ** spec["ndim"] // spec["latent_ratio"])
            comp = _trained_aesz(cache, field, AutoencoderConfig(
                ndim=spec["ndim"], block_size=block_size, latent_size=latent,
                channels=(4, 8), seed=0))
            blocks, _ = split_into_blocks(data, block_size)
            rows.append({
                "field": field,
                "block_size": f"{block_size}^{spec['ndim']}",
                "latent_size": latent,
                "prediction_psnr_db": prediction_psnr(blocks, comp.autoencoder.reconstruct(blocks)),
                "aesz_cr_at_1e-2": ratio(data, comp.compress(data, 1e-2)),
            })
    return rows


def check_table2(rows: Rows) -> List[Check]:
    checks = []
    for field, spec in T2_SWEEP.items():
        crs = {r["block_size"]: r["aesz_cr_at_1e-2"] for r in rows if r["field"] == field}
        chosen = f"{spec['paper']}^{spec['ndim']}"
        checks.append(Check(
            f"{field}: the paper's block size is not the worst of the sweep",
            f"{chosen} chosen", ", ".join(f"{k}: {v:.2f}" for k, v in crs.items()),
            crs[chosen] > min(crs.values()) and all(map(np.isfinite, crs.values()))))
    return checks


# ---------------------------------------------------------------- Table III
T3_FIELD = "Hurricane-U"


def run_table3() -> Rows:
    cache = model_cache(epochs=10, max_blocks=384, train_snapshot_limit=2)
    data = held_out(T3_FIELD)
    rows = []
    for latent in [2, 4, 8, 16]:  # the paper sweeps {4, 6, 8, 12, 16}
        comp = _trained_aesz(cache, T3_FIELD, AutoencoderConfig(
            ndim=3, block_size=8, latent_size=latent, channels=(4, 8), seed=0))
        payload = comp.compress(data, 1e-2)
        rows.append({"latent_size": latent, "latent_ratio": 8 ** 3 / latent,
                     "cr_at_1e-2": ratio(data, payload),
                     "ae_block_fraction": comp.last_stats.ae_block_fraction})
    return rows


def check_table3(rows: Rows) -> List[Check]:
    crs = [r["cr_at_1e-2"] for r in rows]
    best = rows[int(np.argmax(crs))]["latent_size"]
    spread = (max(crs) - min(crs)) / max(crs)
    return [
        Check("every latent size compresses", "every latent size reported",
              f"min ratio {min(crs):.2f}", all(np.isfinite(c) and c > 1 for c in crs)),
        Check("the best latent size is not the smallest, or the choice moves the ratio > 10%",
              "interior optimum at latent 8", f"best at latent {best}, spread {spread:.1%}",
              best != rows[0]["latent_size"] or spread > 0.10),
    ]


# ----------------------------------------------------------------- Table IV
def run_table4() -> Rows:
    codec, sz = LatentCodec(), SZ21Compressor()
    rows = []
    for field in ["RTM-snapshot", "NYX-dark_matter_density", "EXAFEL-raw"]:
        model, data = swae(field), held_out(field)
        latents = model.encode(split_into_blocks(data, model.config.block_size)[0])
        float32_bytes = latents.size * 4  # how the latents would otherwise be stored
        for eb in [1e-2, 1e-3, 1e-4]:
            latent_eb = 0.1 * eb * value_range(data)
            latent_range = value_range(latents)
            sz_rel = latent_eb / latent_range if latent_range > 0 else 0.5
            rows.append({
                "field": field, "error_bound": eb,
                "custo_cr": float32_bytes / codec.compress(latents, latent_eb).nbytes,
                "sz21_cr": float32_bytes / len(sz.compress(latents, sz_rel)),
            })
    return rows


def check_table4(rows: Rows) -> List[Check]:
    wins = sum(r["custo_cr"] >= 0.98 * r["sz21_cr"] for r in rows)
    custo, sz = (np.mean([r[k] for r in rows]) for k in ("custo_cr", "sz21_cr"))
    return [
        Check("mean customized-codec ratio >= 0.95 x SZ2.1's on the latents",
              "customized wins every cell", f"mean {custo:.2f} vs {sz:.2f}", custo >= 0.95 * sz),
        Check("the customized codec wins (within 2%) at least half the cells",
              "every cell", f"{wins} of {len(rows)}", wins >= len(rows) // 2),
    ]


# ------------------------------------------------------------------- Fig. 1
def run_fig1() -> Rows:
    field = "RTM-snapshot"
    compressor = model_cache().ae_b_for_field(field, shape=SHAPES[field])
    data = held_out(field)
    recon = compressor.decompress(compressor.compress(data))
    return [{"fixed_reduction_ratio": compressor.fixed_compression_ratio,
             "psnr_db": psnr(data, recon),
             "max_error_over_vrange": max_rel_error(data, recon)}]


def check_fig1(rows: Rows) -> List[Check]:
    row = rows[0]
    return [
        Check("the AE reduces by a fixed 64:1", "64:1", f"{row['fixed_reduction_ratio']:.1f}:1",
              abs(row["fixed_reduction_ratio"] - 64.0) <= 0.64),
        Check("its max pointwise error exceeds 2% of the value range",
              "~20% of range, against ~1% required",
              f"{row['max_error_over_vrange']:.1%} of range", row["max_error_over_vrange"] > 0.02),
    ]


# ------------------------------------------------------------------- Fig. 6
F6_FIELDS = ["CESM-FREQSH", "NYX-baryon_density"]


def run_fig6() -> Rows:
    codec = LatentCodec()
    rows = []
    for field in F6_FIELDS:
        model, data = swae(field), held_out(field)
        vrange = value_range(data)
        blocks, _ = split_into_blocks(data, model.config.block_size)
        latents = model.encode(blocks)
        rows.append({"field": field,
                     "latent_bit_rate": 32.0 / (blocks[0].size / latents.shape[1]),
                     "latent_cr": 1.0,
                     "prediction_psnr_db": prediction_psnr(blocks, model.decode(latents)),
                     "latent_eb_fraction": 0.0})
        for frac in [1e-4, 5e-4, 1e-3, 5e-3, 1e-2]:  # of the field's value range
            enc = codec.compress(latents, frac * vrange)
            rows.append({"field": field,
                         "latent_bit_rate": bit_rate(enc.nbytes, data.size),
                         "latent_cr": latents.size * 4 / enc.nbytes,
                         "prediction_psnr_db": prediction_psnr(blocks, model.decode(enc.decoded)),
                         "latent_eb_fraction": frac})
    return rows


def check_fig6(rows: Rows) -> List[Check]:
    checks = []
    for field in F6_FIELDS:
        baseline, *compressed = [r for r in rows if r["field"] == field]
        moderate = max(r["prediction_psnr_db"] for r in compressed
                       if r["latent_eb_fraction"] <= 1e-3)
        lowest = min(r["latent_cr"] for r in compressed)
        checks += [
            Check(f"{field}: latent bounds <= 1e-3 of the range cost < 1.5 dB of prediction PSNR",
                  "moderate latent compression is free (Takeaway 3)",
                  f"{moderate:.2f} dB vs {baseline['prediction_psnr_db']:.2f} dB uncompressed",
                  moderate >= baseline["prediction_psnr_db"] - 1.5),
            Check(f"{field}: the latent codec compresses > 1.5x at every bound",
                  "latents compress several-fold", f"lowest {lowest:.2f}x", lowest > 1.5),
        ]
    return checks


# ------------------------------------------------------------------- Fig. 7
F7_FIELD = "CESM-FREQSH"


def run_fig7() -> Rows:
    model, data = swae(F7_FIELD), held_out(F7_FIELD)
    vrange = value_range(data)
    blocks, _ = split_into_blocks(data, model.config.block_size)
    latents = model.encode(blocks)
    reg = LinearRegressionPredictor()
    rows = []
    for eb in [1e-2, 1e-4]:
        abs_eb = eb * vrange
        # Lorenzo predicts from values quantized at the bound, regression from
        # quantized per-block coefficients, the AE from latents quantized at
        # 0.1 * e as in AE-SZ.
        quantized = UniformQuantizer(abs_eb).roundtrip(blocks)[1]
        decoded = UniformQuantizer(0.1 * abs_eb).roundtrip(latents)[1]
        errors = {
            "lorenzo": blocks - _batched_lorenzo_predict(quantized),
            "linear_reg": np.stack([b - reg.fit_predict(b, abs_eb)[0] for b in blocks]),
            "conv_ae": blocks - model.decode(decoded),
        }
        for name, err in errors.items():
            print(ascii_histogram(err.ravel() / vrange, bins=15,
                                  title=f"{name} prediction error / value range at e = {eb:g}"))
            rows.append({
                "error_bound": eb, "predictor": name,
                "mean_abs_error": float(np.mean(np.abs(err))),
                "frac_within_eb": float(np.mean(np.abs(err) <= abs_eb)),
                # the paper plots the PDF on a fixed error window
                "frac_within_window": float(np.mean(np.abs(err) <= 0.05 * vrange)),
            })
    return rows


def check_fig7(rows: Rows) -> List[Check]:
    by = {(r["error_bound"], r["predictor"]): r for r in rows}
    ae_large, ae_small = (by[eb, "conv_ae"]["mean_abs_error"] for eb in (1e-2, 1e-4))
    lor_large, lor_small = by[1e-2, "lorenzo"], by[1e-4, "lorenzo"]
    return [
        Check("the AE's mean error moves < 25% between e = 1e-2 and 1e-4",
              "AE accuracy independent of the bound (Takeaway 4)",
              f"{ae_large:.4g} vs {ae_small:.4g}", abs(ae_large - ae_small) <= 0.25 * ae_small),
        Check("Lorenzo's mean error does not grow as the bound shrinks", "Lorenzo sharpens",
              f"{lor_small['mean_abs_error']:.4g} at 1e-4 vs {lor_large['mean_abs_error']:.4g} "
              f"at 1e-2", lor_small["mean_abs_error"] <= lor_large["mean_abs_error"] * 1.02),
        Check("Lorenzo's share of errors inside the plotted window does not drop by > 0.05",
              "Lorenzo sharpens",
              f"{lor_small['frac_within_window']:.3f} at 1e-4 vs "
              f"{lor_large['frac_within_window']:.3f} at 1e-2",
              lor_small["frac_within_window"] >= lor_large["frac_within_window"] - 0.05),
        Check("all three predictors give finite errors", "three populated PDFs",
              f"{sum(np.isfinite(r['mean_abs_error']) for r in rows)} of {len(rows)} finite",
              all(np.isfinite(r["mean_abs_error"]) for r in rows)),
    ]


# ------------------------------------------------------------------- Fig. 8
# The eight fields of Fig. 8 (a)-(h), in paper order.
F8_FIELDS = ["CESM-CLDHGH", "CESM-FREQSH", "EXAFEL-raw", "NYX-baryon_density",
             "NYX-temperature", "Hurricane-QVAPOR", "Hurricane-U", "RTM-snapshot"]
F8_BOUNDS = [2e-2, 1e-2, 5e-3, 2e-3, 1e-3]


def run_fig8() -> Rows:
    cache = model_cache()
    rows = []
    for field in F8_FIELDS:
        data = held_out(field)
        vrange = value_range(data)
        is_3d = FIELDS[field].dimensionality == 3  # SZauto, SZinterp and AE-B are 3D-only
        comps = baseline_compressors(include_interp=is_3d, include_auto=is_3d)
        comps["AE-SZ"] = aesz(field)
        comps["AE-A"] = cache.ae_a_for_field(field, shape=SHAPES[field])
        for name, curve in run_rate_distortion(comps, data, F8_BOUNDS).items():
            for point in curve.points:
                rows.append({
                    "field": field, "compressor": name, "error_bound": point.error_bound,
                    "bit_rate": point.bit_rate, "psnr_db": point.psnr,
                    "max_err_over_vrange": point.max_abs_error / vrange,
                    "bound_ok": point.max_abs_error <= point.error_bound * vrange * (1 + 1e-9),
                })
        if is_3d:
            # Fixed-ratio, not error-bounded: a single rate-distortion point.
            result = cache.ae_b_for_field(field, shape=SHAPES[field]).roundtrip(data, 0.0)
            rows.append({"field": field, "compressor": "AE-B", "error_bound": float("nan"),
                         "bit_rate": result.bit_rate, "psnr_db": result.psnr,
                         "max_err_over_vrange": result.max_abs_error / vrange,
                         "bound_ok": False})
    return rows


def check_fig8(rows: Rows) -> List[Check]:
    at = {(r["field"], r["compressor"], r["error_bound"]): r for r in rows
          if r["compressor"] != "AE-B"}
    violations = [key for key, r in at.items() if not r["bound_ok"]]
    pairs = [(at[f, "AE-SZ", eb], at[f, "AE-A", eb]) for f in F8_FIELDS for eb in F8_BOUNDS]
    beats_aea = sum(a["bit_rate"] <= b["bit_rate"] * 1.02 and a["psnr_db"] >= b["psnr_db"] - 0.5
                    for a, b in pairs)
    aeb_points = [r for r in rows if r["compressor"] == "AE-B"]
    beats_aeb = [p["field"] for p in aeb_points
                 if any(at[p["field"], "AE-SZ", eb]["bit_rate"] <= p["bit_rate"] * 1.5
                        and at[p["field"], "AE-SZ", eb]["psnr_db"] >= p["psnr_db"]
                        for eb in F8_BOUNDS)]
    low = max(F8_BOUNDS)
    rate_vs_sz = {f: at[f, "AE-SZ", low]["bit_rate"] / at[f, "SZ2.1", low]["bit_rate"]
                  for f in F8_FIELDS}
    competitive = sum(r <= 1.3 for r in rate_vs_sz.values())
    return [
        Check("every error-bounded compressor honours its bound at every point",
              "strictly error bounded", f"{len(violations)} violations of {len(at)} points"
              + "".join(f"; {f} {c} at {eb:g}" for f, c, eb in violations[:3]), not violations),
        Check("AE-SZ matches or beats AE-A (bit rate within 2%, PSNR within 0.5 dB) "
              "in >= 70% of (field, bound) cells", "AE-SZ is the best AE-based compressor",
              f"{beats_aea} of {len(pairs)}", beats_aea >= 0.7 * len(pairs)),
        Check("on every 3D field some AE-SZ point has AE-B's PSNR at <= 1.5x its bit rate",
              "AE-SZ dominates AE-B", f"{len(beats_aeb)} of {len(aeb_points)} fields",
              len(beats_aeb) == len(aeb_points)),
        Check(f"at e = {low:g} AE-SZ's bit rate is <= 1.3x SZ2.1's on at least half the fields",
              "100-800% higher ratio than SZ2.1 at low bit rate",
              f"{competitive} of {len(F8_FIELDS)}; AE-SZ / SZ2.1 bit rate "
              f"{min(rate_vs_sz.values()):.2f}-{max(rate_vs_sz.values()):.2f}",
              competitive >= len(F8_FIELDS) // 2),
    ]


# ------------------------------------------------------------------- Fig. 9
# The paper matches CR ~ 180; the synthetic NYX field is rougher per voxel
# than the real 512^3 snapshot, so the matched ratio here is lower.
F9_TARGET_CR, F9_TOLERANCE, F9_MAX_BOUND = 40.0, 0.20, 0.3


def _bound_for_ratio(compressor, data: np.ndarray):
    """Bisect the relative bound until the ratio hits ``F9_TARGET_CR``; a
    compressor that cannot reach it even at ``F9_MAX_BOUND`` is reported
    there.  Returns ``(error_bound, ratio, payload, reached)``."""
    lo, hi = 1e-5, F9_MAX_BOUND
    payload = compressor.compress(data, hi)
    if ratio(data, payload) < F9_TARGET_CR * (1 - F9_TOLERANCE):
        return hi, ratio(data, payload), payload, False
    for _ in range(18):
        mid = float(np.sqrt(lo * hi))
        payload = compressor.compress(data, mid)
        cr = ratio(data, payload)
        if abs(cr - F9_TARGET_CR) / F9_TARGET_CR < 0.02:
            break
        lo, hi = (mid, hi) if cr < F9_TARGET_CR else (lo, mid)
    return mid, cr, payload, True


def run_fig9() -> Rows:
    field = "NYX-baryon_density"
    data = held_out(field)
    rows = []
    for name, comp in {**baseline_compressors(), "AE-SZ": aesz(field)}.items():
        eb, cr, payload, reached = _bound_for_ratio(comp, data)
        rows.append({"compressor": name, "error_bound": eb, "compression_ratio": cr,
                     "reached_target": reached, "psnr_db": psnr(data, comp.decompress(payload))})
    rows.sort(key=lambda r: -r["psnr_db"])
    return rows


def check_fig9(rows: Rows) -> List[Check]:
    by = {r["compressor"]: r for r in rows}
    ours, sz = by["AE-SZ"], by["SZ2.1"]
    best = max((r for r in rows if r["reached_target"]), key=lambda r: r["psnr_db"], default=ours)
    return [
        Check(f"AE-SZ reaches the matched ratio {F9_TARGET_CR:g} within 20%",
              "AE-SZ operates at CR ~ 180", f"ratio {ours['compression_ratio']:.1f}",
              ours["reached_target"]
              and abs(ours["compression_ratio"] - F9_TARGET_CR) / F9_TARGET_CR < F9_TOLERANCE),
        Check("AE-SZ's PSNR is within 1 dB of the best compressor that reaches the ratio",
              "AE-SZ > SZinterp > SZ2.1 > SZauto > ZFP",
              f"AE-SZ {ours['psnr_db']:.2f} dB, best {best['compressor']} "
              f"{best['psnr_db']:.2f} dB", ours["psnr_db"] >= best["psnr_db"] - 1.0),
        Check("AE-SZ's PSNR is within 1 dB of SZ2.1's or better, if SZ2.1 reaches the ratio",
              "AE-SZ above SZ2.1", f"AE-SZ {ours['psnr_db']:.2f} dB, SZ2.1 {sz['psnr_db']:.2f} dB"
              + ("" if sz["reached_target"] else " (ratio not reached)"),
              not sz["reached_target"] or ours["psnr_db"] >= sz["psnr_db"] - 1.0),
    ]


# ------------------------------------------------------------------ Fig. 10
F10_FIELDS = ["CESM-CLDHGH", "Hurricane-U", "NYX-temperature"]
F10_BOUNDS = [5e-2, 2e-2, 1e-2, 5e-3, 1e-3, 3e-4]


def run_fig10() -> Rows:
    rows = []
    for field in F10_FIELDS:
        comp, data = aesz(field), held_out(field)
        for eb in F10_BOUNDS:
            comp.compress(data, eb)
            rows.append({"field": field, "error_bound": eb, "log10_eb": float(np.log10(eb)),
                         "ae_block_fraction": comp.last_stats.ae_block_fraction})
    return rows


def check_fig10(rows: Rows) -> List[Check]:
    checks = []
    for field in F10_FIELDS:
        fracs = {r["error_bound"]: r["ae_block_fraction"] for r in rows if r["field"] == field}
        medium = max(fracs[eb] for eb in [2e-2, 1e-2, 5e-3])
        smallest = fracs[min(F10_BOUNDS)]
        checks.append(Check(
            f"{field}: the AE's block share at the smallest bound is not above its share at "
            "medium bounds, and is not zero everywhere",
            "AE wins most blocks at medium bounds, Lorenzo takes over at small ones",
            f"{smallest:.2f} at {min(F10_BOUNDS):g}, {medium:.2f} at medium bounds, "
            f"peak {max(fracs.values()):.2f}",
            smallest <= medium + 1e-9 and max(fracs.values()) > 0.0))
    return checks


# ------------------------------------------------------------------ Fig. 11
F11_FIELDS = ["CESM-CLDHGH", "Hurricane-U"]
F11_BOUNDS = [2e-2, 1e-2, 5e-3, 1e-3]


def run_fig11() -> Rows:
    rows = []
    for field in F11_FIELDS:
        data = held_out(field)
        comps = {mode: aesz(field, mode) for mode in ["hybrid", "ae", "lorenzo"]}
        for eb in F11_BOUNDS:
            for mode, comp in comps.items():
                payload = comp.compress(data, eb)
                rows.append({"field": field, "mode": mode, "error_bound": eb,
                             "bit_rate": bit_rate(len(payload), data.size),
                             "psnr_db": psnr(data, comp.decompress(payload))})
    return rows


def check_fig11(rows: Rows) -> List[Check]:
    at = {(r["field"], r["mode"], r["error_bound"]): r for r in rows}
    rate_excess, psnr_loss = {}, {}
    for field in F11_FIELDS:
        for eb in F11_BOUNDS:
            hybrid, ae, lorenzo = (at[field, mode, eb] for mode in ("hybrid", "ae", "lorenzo"))
            cell = f"{field} at {eb:g}"
            rate_excess[cell] = hybrid["bit_rate"] / min(ae["bit_rate"], lorenzo["bit_rate"])
            psnr_loss[cell] = min(ae["psnr_db"], lorenzo["psnr_db"]) - hybrid["psnr_db"]
    rate_cell = max(rate_excess, key=rate_excess.get)
    psnr_cell = max(psnr_loss, key=psnr_loss.get)
    return [
        Check("the hybrid stream is <= 1.05x the smaller single-predictor stream in every cell",
              "AE + Lorenzo at least as good as either alone",
              f"worst {rate_excess[rate_cell]:.3f}x ({rate_cell})",
              rate_excess[rate_cell] <= 1.05),
        Check("the hybrid PSNR is within 0.5 dB of the lower single-predictor PSNR in every cell",
              "AE + Lorenzo at least as good as either alone",
              f"worst {-psnr_loss[psnr_cell]:+.2f} dB ({psnr_cell})", psnr_loss[psnr_cell] <= 0.5),
    ]


# ------------------------------------------------- Extra: pipeline ablations
AB_FIELDS = ["CESM-CLDHGH", "NYX-baryon_density"]


def run_ablation() -> Rows:
    rows = []

    def add(ablation, field, variant, payload, data):
        rows.append({"ablation": ablation, "field": field, "variant": variant,
                     "bytes": len(payload), "bits_per_value": bit_rate(len(payload), data.size)})

    for field in AB_FIELDS:
        data = held_out(field)
        codes = UniformQuantizer(1e-2 * value_range(data)).quantize(data)
        codes -= codes.min()
        for variant, codec in {
                "huffman+zlib": EntropyCodec(backend=ZlibBackend(), use_huffman=True),
                "zlib-only": EntropyCodec(backend=ZlibBackend(), use_huffman=False),
                "huffman-only": EntropyCodec(backend=StoreBackend(), use_huffman=True)}.items():
            add("entropy_stage", field, variant, codec.encode(codes), data)
    for field in AB_FIELDS:
        data, base = held_out(field), aesz(field)
        for variant, use_mean in {"with_mean_lorenzo": True, "without_mean_lorenzo": False}.items():
            comp = AESZCompressor(base.autoencoder, AESZConfig(
                block_size=base.config.block_size, use_mean_lorenzo=use_mean))
            add("mean_fallback", field, variant, comp.compress(data, 1e-2), data)
    return rows


def check_ablation(rows: Rows) -> List[Check]:
    size = {(r["ablation"], r["field"], r["variant"]): r["bytes"] for r in rows}
    checks, gains = [], []
    for field in AB_FIELDS:
        both, zlib_only, huffman_only = (size["entropy_stage", field, v] for v in
                                         ("huffman+zlib", "zlib-only", "huffman-only"))
        checks.append(Check(
            f"{field}: Huffman + dictionary coder is <= 1.02x the smaller single stage",
            "Huffman followed by Zstd", f"{both} B vs {zlib_only} B / {huffman_only} B",
            both <= 1.02 * min(zlib_only, huffman_only)))
    for field in AB_FIELDS:
        with_mean, without = (size["mean_fallback", field, v] for v in
                              ("with_mean_lorenzo", "without_mean_lorenzo"))
        gains.append(without - with_mean)
        checks.append(Check(
            f"{field}: the mean-Lorenzo fallback costs <= 2% of the stream",
            "mean fallback on by default", f"{with_mean} B with, {without} B without",
            with_mean <= 1.02 * without))
    checks.append(Check("the mean-Lorenzo fallback helps or ties on at least one field",
                        "mean fallback on by default", f"saves at most {max(gains)} B",
                        max(gains) >= 0))
    return checks


EXPERIMENTS = [
    Experiment("table1_ae_types",
               "SWAE predicts CESM-CLDHGH best of eight autoencoder types",
               run_table1, check_table1),
    Experiment("table2_block_sizes",
               "32^2 and 8^3 input blocks give the best AE-SZ ratio", run_table2, check_table2),
    Experiment("table3_latent_sizes",
               "the ratio peaks at an intermediate latent size (Hurricane-U, e = 1e-2)",
               run_table3, check_table3),
    Experiment("table4_latent_codec",
               "the customized latent codec beats SZ2.1 on the latent vectors", run_table4,
               check_table4),
    Experiment("fig1_ae_reconstruction",
               "a plain 64:1 autoencoder leaves errors far above what scientists accept",
               run_fig1, check_fig1),
    Experiment("fig6_latent_rd",
               "moderate lossy compression of the latents costs no prediction accuracy",
               run_fig6, check_fig6),
    Experiment("fig7_error_distribution",
               "the AE's prediction error ignores the bound; Lorenzo's follows it",
               run_fig7, check_fig7),
    Experiment("fig8_rate_distortion",
               "AE-SZ is the best AE-based compressor and beats SZ2.1 at low bit rate",
               run_fig8, check_fig8),
    Experiment("fig9_visual_quality",
               "at a matched high ratio AE-SZ reconstructs NYX-baryon_density best",
               run_fig9, check_fig9),
    Experiment("fig10_ae_block_ratio",
               "the AE predicts most blocks at medium bounds, Lorenzo at small ones",
               run_fig10, check_fig10),
    Experiment("fig11_predictor_ablation",
               "AE + Lorenzo is at least as good as either predictor alone", run_fig11,
               check_fig11),
    Experiment("ablation_pipeline",
               "Huffman + dictionary coding and the mean-Lorenzo fallback each pay their way",
               run_ablation, check_ablation),
]
