"""Tests for PSNR / rate metrics / bound verification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.metrics import (
    RateDistortionCurve,
    RateDistortionPoint,
    bit_rate,
    compression_ratio,
    max_abs_error,
    max_rel_error,
    mse,
    psnr,
    rate_distortion_sweep,
    verify_error_bound,
)
from repro.compressors import SZAutoCompressor


class TestErrorMetrics:
    def test_mse_known_value(self):
        assert mse(np.array([1.0, 2.0]), np.array([0.0, 0.0])) == pytest.approx(2.5)

    def test_psnr_matches_paper_definition(self):
        orig = np.array([0.0, 1.0, 2.0, 4.0])  # vrange = 4
        rec = orig + 0.1
        expected = 20 * np.log10(4.0) - 10 * np.log10(0.01)
        assert psnr(orig, rec) == pytest.approx(expected)

    def test_psnr_perfect_reconstruction_is_inf(self):
        data = np.arange(10.0)
        assert psnr(data, data) == float("inf")

    def test_psnr_increases_with_decreasing_error(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=1000)
        small = psnr(data, data + 1e-4 * rng.normal(size=1000))
        large = psnr(data, data + 1e-2 * rng.normal(size=1000))
        assert small > large

    def test_max_abs_error(self):
        assert max_abs_error(np.array([1.0, 2.0]), np.array([1.5, 1.0])) == pytest.approx(1.0)

    def test_max_rel_error(self):
        orig = np.array([0.0, 2.0])
        rec = np.array([0.5, 2.0])
        assert max_rel_error(orig, rec) == pytest.approx(0.25)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            psnr(np.zeros(3), np.zeros(4))

    @settings(max_examples=25, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(2, 100),
                      elements=st.floats(-1e3, 1e3, allow_nan=False)),
           st.floats(1e-6, 1e-1))
    def test_psnr_lower_bounded_by_error_bound(self, data, eb):
        """If |err| <= eb*vrange everywhere then PSNR >= -20 log10(eb)."""
        vrange = data.max() - data.min()
        if vrange == 0:
            return
        rng = np.random.default_rng(0)
        rec = data + rng.uniform(-eb * vrange, eb * vrange, size=data.shape)
        assert psnr(data, rec) >= -20 * np.log10(eb) - 1e-6


class TestRateMetrics:
    def test_compression_ratio(self):
        assert compression_ratio(1000, 100) == pytest.approx(10.0)

    def test_compression_ratio_validation(self):
        with pytest.raises(ValueError):
            compression_ratio(0, 10)
        with pytest.raises(ValueError):
            compression_ratio(10, 0)

    def test_bit_rate(self):
        # 100 points compressed to 50 bytes -> 4 bits/point.
        assert bit_rate(50, 100) == pytest.approx(4.0)

    def test_bit_rate_validation(self):
        with pytest.raises(ValueError):
            bit_rate(10, 0)
        with pytest.raises(ValueError):
            bit_rate(-1, 10)

    def test_bit_rate_equals_32_over_cr_for_f32(self):
        original_nbytes, compressed = 4000, 250
        cr = compression_ratio(original_nbytes, compressed)
        br = bit_rate(compressed, original_nbytes // 4)
        assert br == pytest.approx(32.0 / cr)


class TestRateDistortionCurve:
    def _curve(self):
        curve = RateDistortionCurve("test")
        for br, ps in [(0.5, 40.0), (1.0, 50.0), (2.0, 60.0)]:
            curve.add(RateDistortionPoint(error_bound=0.0, bit_rate=br,
                                          compression_ratio=32 / br, psnr=ps,
                                          max_abs_error=0.0))
        return curve

    def test_interpolation_at_bit_rate(self):
        assert self._curve().psnr_at_bit_rate(1.5) == pytest.approx(55.0)

    def test_interpolation_at_psnr(self):
        assert self._curve().bit_rate_at_psnr(45.0) == pytest.approx(0.75)

    def test_compression_ratio_at_psnr(self):
        assert self._curve().compression_ratio_at_psnr(50.0) == pytest.approx(32.0)

    def test_arrays(self):
        curve = self._curve()
        assert curve.bit_rates().tolist() == [0.5, 1.0, 2.0]
        assert curve.psnrs().tolist() == [40.0, 50.0, 60.0]
        assert len(curve.compression_ratios()) == 3

    def test_empty_curve_raises(self):
        with pytest.raises(ValueError):
            RateDistortionCurve("x").psnr_at_bit_rate(1.0)

    def test_point_as_row(self):
        point = RateDistortionPoint(1e-3, 2.0, 16.0, 55.0, 1e-3)
        row = point.as_row()
        assert row["psnr"] == 55.0 and row["bit_rate"] == 2.0

    def test_sweep_produces_monotone_quality(self, field_2d):
        curve = rate_distortion_sweep(SZAutoCompressor(), field_2d, [1e-2, 1e-3])
        assert len(curve.points) == 2
        # Smaller bound -> higher PSNR and higher bit rate.
        assert curve.points[1].psnr > curve.points[0].psnr
        assert curve.points[1].bit_rate > curve.points[0].bit_rate


class TestVerification:
    def test_bound_satisfied_returns_none(self):
        data = np.linspace(0, 1, 100)
        rec = data + 1e-4
        assert verify_error_bound(data, rec, 1e-3) is None

    def test_bound_violation_reported(self):
        data = np.linspace(0, 1, 100)
        rec = data.copy()
        rec[42] += 0.5
        violation = verify_error_bound(data, rec, 1e-3)
        assert violation is not None
        assert violation.index == (42,)
        assert violation.error == pytest.approx(0.5)
        assert "42" in str(violation)

    def test_multidimensional_index(self):
        data = np.zeros((4, 4))
        data[0, 0] = 1.0  # vrange = 1
        rec = data.copy()
        rec[2, 3] += 0.9
        violation = verify_error_bound(data, rec, 0.5)
        assert violation.index == (2, 3)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            verify_error_bound(np.zeros(3), np.zeros(4), 0.1)
