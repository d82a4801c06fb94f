"""Tests for the prediction substrate (Lorenzo, mean, regression, interpolation)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.predictors import (
    LinearRegressionPredictor,
    LorenzoPredictor,
    MeanPredictor,
    lorenzo_inverse_transform,
    lorenzo_predict,
    lorenzo_transform,
    second_order_lorenzo_inverse,
    second_order_lorenzo_transform,
)
from repro.predictors.interpolation import (
    InterpolationPlan,
    multilevel_interpolation_decode,
    multilevel_interpolation_encode,
)
from repro.predictors.lorenzo import second_order_lorenzo_predict
from repro.predictors.regression import RegressionCoefficients


class TestLorenzoPredict:
    def test_2d_formula(self):
        d = np.array([[1.0, 2.0], [3.0, 5.0]])
        pred = lorenzo_predict(d)
        # point (1,1) predicted by d[1,0] + d[0,1] - d[0,0] = 3 + 2 - 1
        assert pred[1, 1] == pytest.approx(4.0)

    def test_1d_is_previous_value(self):
        d = np.array([1.0, 4.0, 9.0])
        np.testing.assert_allclose(lorenzo_predict(d), [0.0, 1.0, 4.0])

    def test_3d_exact_on_trilinear_data(self):
        # A multilinear function a*i + b*j + c*k + d is predicted exactly
        # (away from the zero-padded borders).
        i, j, k = np.meshgrid(np.arange(5), np.arange(5), np.arange(5), indexing="ij")
        d = 2.0 * i + 3.0 * j - k + 7.0
        pred = lorenzo_predict(d)
        np.testing.assert_allclose(pred[1:, 1:, 1:], d[1:, 1:, 1:], atol=1e-12)

    def test_2d_exact_on_bilinear_data(self):
        i, j = np.meshgrid(np.arange(6), np.arange(7), indexing="ij")
        d = 1.5 * i - 2.0 * j + 3.0
        np.testing.assert_allclose(lorenzo_predict(d)[1:, 1:], d[1:, 1:], atol=1e-12)

    def test_rejects_4d(self):
        with pytest.raises(ValueError):
            lorenzo_predict(np.zeros((2, 2, 2, 2)))

    def test_prediction_equals_value_minus_transform(self):
        rng = np.random.default_rng(0)
        d = rng.normal(size=(9, 11))
        np.testing.assert_allclose(d - lorenzo_transform(d), lorenzo_predict(d))


class TestLorenzoTransforms:
    @pytest.mark.parametrize("shape", [(17,), (6, 9), (4, 5, 6)])
    def test_first_order_invertible(self, shape):
        rng = np.random.default_rng(0)
        grid = rng.integers(-10000, 10000, size=shape)
        np.testing.assert_array_equal(lorenzo_inverse_transform(lorenzo_transform(grid)), grid)

    @pytest.mark.parametrize("shape", [(17,), (6, 9), (4, 5, 6)])
    def test_second_order_invertible(self, shape):
        rng = np.random.default_rng(1)
        grid = rng.integers(-10000, 10000, size=shape)
        np.testing.assert_array_equal(
            second_order_lorenzo_inverse(second_order_lorenzo_transform(grid)), grid)

    def test_second_order_prediction_error_constant_on_quadratic_1d(self):
        # pred[i] = 2 d[i-1] - d[i-2], so the residual on a quadratic 3x^2+2x+1
        # is its constant second difference (= 6) away from the border.
        x = np.arange(20)
        d = (3 * x**2 + 2 * x + 1).astype(np.float64)
        residual = d - second_order_lorenzo_predict(d)
        np.testing.assert_allclose(residual[2:], 6.0, atol=1e-9)

    def test_second_order_exact_on_linear_1d(self):
        x = np.arange(20, dtype=np.float64)
        d = 4.0 * x + 2.0
        pred = second_order_lorenzo_predict(d)
        np.testing.assert_allclose(pred[2:], d[2:], atol=1e-9)

    def test_transform_of_constant_grid_is_sparse(self):
        grid = np.full((8, 8), 5, dtype=np.int64)
        diffs = lorenzo_transform(grid)
        assert diffs[0, 0] == 5
        assert np.count_nonzero(diffs) == 1

    @settings(max_examples=30, deadline=None)
    @given(hnp.arrays(np.int64, st.tuples(st.integers(1, 12), st.integers(1, 12)),
                      elements=st.integers(-1000, 1000)))
    def test_invertibility_property_2d(self, grid):
        np.testing.assert_array_equal(lorenzo_inverse_transform(lorenzo_transform(grid)), grid)


class TestLorenzoPredictorObject:
    def test_mean_fallback_on_constant_block(self):
        block = np.full((8, 8), 3.25)
        pred, meta = LorenzoPredictor().predict(block)
        assert meta["mode"] == "mean"
        np.testing.assert_allclose(pred, block)

    def test_classic_chosen_on_gradient_block(self):
        i, j = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
        block = 1.0 * i + 2.0 * j
        _, meta = LorenzoPredictor().predict(block)
        assert meta["mode"] == "classic"

    def test_mean_fallback_can_be_disabled(self):
        block = np.full((4, 4), 1.0)
        _, meta = LorenzoPredictor(use_mean_fallback=False).predict(block)
        assert meta["mode"] == "classic"

    def test_loss_is_nonnegative(self):
        rng = np.random.default_rng(0)
        assert LorenzoPredictor().loss(rng.normal(size=(8, 8))) >= 0.0


class TestMeanPredictor:
    def test_prediction_is_block_mean(self):
        block = np.array([[1.0, 3.0], [5.0, 7.0]])
        pred, mean = MeanPredictor().predict(block)
        assert mean == pytest.approx(4.0)
        np.testing.assert_allclose(pred, 4.0)

    def test_predict_from_value(self):
        out = MeanPredictor().predict_from_value((3, 3), 2.5)
        np.testing.assert_allclose(out, 2.5)

    def test_loss_zero_for_constant_block(self):
        assert MeanPredictor().loss(np.full((5, 5), 9.0)) == pytest.approx(0.0)


class TestLinearRegression:
    def test_exact_on_hyperplane_2d(self):
        i, j = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
        block = 0.5 * i - 1.5 * j + 4.0
        pred, coef = LinearRegressionPredictor().fit_predict(block)
        np.testing.assert_allclose(pred, block, atol=1e-9)
        np.testing.assert_allclose(coef.values, [4.0, 0.5, -1.5], atol=1e-9)

    def test_exact_on_hyperplane_3d(self):
        i, j, k = np.meshgrid(np.arange(4), np.arange(5), np.arange(6), indexing="ij")
        block = 1.0 * i + 2.0 * j + 3.0 * k - 1.0
        pred, _ = LinearRegressionPredictor().fit_predict(block)
        np.testing.assert_allclose(pred, block, atol=1e-9)

    def test_quantized_coefficients_bounded_deviation(self):
        rng = np.random.default_rng(0)
        block = rng.normal(size=(16, 16))
        lr = LinearRegressionPredictor()
        coef = lr.fit(block)
        qcoef = coef.quantized(error_bound=0.01, block_size=16)
        # Quantization steps: eb/4 for intercept, eb/(4*16) for slopes.
        assert abs(coef.values[0] - qcoef.values[0]) <= 0.01 / 4 + 1e-12
        assert np.all(np.abs(coef.values[1:] - qcoef.values[1:]) <= 0.01 / (4 * 16) + 1e-12)

    def test_predict_from_given_coefficients(self):
        coef = RegressionCoefficients(np.array([1.0, 2.0, 0.0]))
        pred = LinearRegressionPredictor().predict((2, 3), coef)
        np.testing.assert_allclose(pred, [[1.0, 1.0, 1.0], [3.0, 3.0, 3.0]])

    def test_loss_positive_on_nonplanar_data(self):
        rng = np.random.default_rng(1)
        assert LinearRegressionPredictor().loss(rng.normal(size=(8, 8))) > 0.0

    def test_rejects_4d_blocks(self):
        with pytest.raises(ValueError):
            LinearRegressionPredictor().fit(np.zeros((2, 2, 2, 2)))


class TestInterpolation:
    @pytest.mark.parametrize("shape", [(64,), (33, 45), (12, 17, 21)])
    def test_encode_decode_consistency(self, shape):
        rng = np.random.default_rng(0)
        coords = np.meshgrid(*[np.linspace(0, 2, s) for s in shape], indexing="ij")
        data = sum(np.sin(3 * c + i) for i, c in enumerate(coords)) + 0.01 * rng.normal(size=shape)
        eb = 1e-3 * (data.max() - data.min())
        enc = multilevel_interpolation_encode(data, eb)
        dec = multilevel_interpolation_decode(enc.anchor_codes, enc.codes, enc.unpredictable,
                                              shape, eb)
        np.testing.assert_array_equal(dec, enc.reconstructed)

    @pytest.mark.parametrize("shape", [(50,), (20, 31)])
    def test_error_bound_holds(self, shape):
        rng = np.random.default_rng(1)
        data = rng.normal(size=shape)
        eb = 0.05
        enc = multilevel_interpolation_encode(data, eb)
        assert np.max(np.abs(enc.reconstructed - data)) <= eb * (1 + 1e-9)

    def test_smooth_data_mostly_predictable(self):
        x = np.linspace(0, 4 * np.pi, 200)
        data = np.sin(x)
        enc = multilevel_interpolation_encode(data, 1e-3)
        # Nearly all codes should land in the central bin (perfect-ish prediction).
        center = 65536 // 2
        frac_center = np.mean(np.abs(enc.codes - center) <= 1)
        assert frac_center > 0.8

    def test_plan_passes_cover_all_points(self):
        shape = (17, 9)
        plan = InterpolationPlan.for_shape(shape)
        covered = np.zeros(shape, dtype=bool)
        covered[tuple(slice(0, None, plan.anchor_stride) for _ in shape)] = True
        from repro.predictors.interpolation import _target_grids
        for stride, dim in plan.passes:
            grids = _target_grids(shape, stride, dim)
            if any(g.size == 0 for g in grids):
                continue
            mesh = np.meshgrid(*grids, indexing="ij")
            covered[tuple(mesh)] = True
        assert covered.all()

    def test_invalid_error_bound_raises(self):
        with pytest.raises(ValueError):
            multilevel_interpolation_encode(np.zeros((4, 4)), 0.0)

    @settings(max_examples=15, deadline=None)
    @given(h=st.integers(3, 40), w=st.integers(3, 40), eb=st.floats(1e-4, 1e-1))
    def test_roundtrip_property(self, h, w, eb):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(h, w))
        enc = multilevel_interpolation_encode(data, eb)
        dec = multilevel_interpolation_decode(enc.anchor_codes, enc.codes, enc.unpredictable,
                                              (h, w), eb)
        np.testing.assert_array_equal(dec, enc.reconstructed)
        assert np.max(np.abs(enc.reconstructed - data)) <= eb * (1 + 1e-9)
