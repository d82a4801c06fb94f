"""Gradient and shape tests for every layer of the NumPy NN substrate."""

import numpy as np
import pytest

from repro.nn import (
    GDN,
    IGDN,
    Conv2d,
    Conv3d,
    ConvTranspose2d,
    ConvTranspose3d,
    Dense,
    Flatten,
    Identity,
    LeakyReLU,
    ReLU,
    Reshape,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.nn.gradcheck import check_layer_gradients
from repro.nn.layers.conv import ConvNd


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestDense:
    def test_forward_shape(self, rng):
        layer = Dense(6, 3, rng=1)
        assert layer.forward(rng.normal(size=(4, 6))).shape == (4, 3)

    def test_gradients(self, rng):
        check_layer_gradients(Dense(5, 4, rng=1), rng.normal(size=(3, 5)))

    def test_no_bias(self, rng):
        layer = Dense(5, 4, bias=False, rng=1)
        assert layer.bias is None
        check_layer_gradients(layer, rng.normal(size=(2, 5)))

    def test_wrong_input_shape_raises(self, rng):
        with pytest.raises(ValueError):
            Dense(5, 4, rng=1).forward(rng.normal(size=(3, 6)))

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            Dense(3, 2, rng=1).backward(np.zeros((1, 2)))

    def test_invalid_sizes_raise(self):
        with pytest.raises(ValueError):
            Dense(0, 3)

    def test_num_parameters(self):
        assert Dense(5, 4, rng=1).num_parameters() == 5 * 4 + 4


class TestConv:
    def test_conv2d_output_shape_stride2(self, rng):
        layer = Conv2d(3, 5, 3, stride=2, padding=1, rng=1)
        out = layer.forward(rng.normal(size=(2, 3, 16, 16)))
        assert out.shape == (2, 5, 8, 8)

    def test_conv2d_gradients(self, rng):
        check_layer_gradients(Conv2d(2, 3, 3, stride=2, padding=1, rng=1),
                              rng.normal(size=(2, 2, 6, 6)))

    def test_conv2d_stride1_gradients(self, rng):
        check_layer_gradients(Conv2d(2, 2, 3, stride=1, padding=1, rng=1),
                              rng.normal(size=(1, 2, 5, 5)))

    def test_conv3d_output_shape(self, rng):
        layer = Conv3d(1, 4, 3, stride=2, padding=1, rng=1)
        out = layer.forward(rng.normal(size=(1, 1, 8, 8, 8)))
        assert out.shape == (1, 4, 4, 4, 4)

    def test_conv3d_gradients(self, rng):
        check_layer_gradients(Conv3d(1, 2, 3, stride=2, padding=1, rng=1),
                              rng.normal(size=(1, 1, 4, 4, 4)))

    def test_conv1d_via_generic(self, rng):
        layer = ConvNd(1, 1, 3, 3, stride=2, padding=1, rng=1)
        out = layer.forward(rng.normal(size=(2, 1, 12)))
        assert out.shape == (2, 3, 6)

    def test_wrong_channel_count_raises(self, rng):
        with pytest.raises(ValueError):
            Conv2d(3, 4, 3, rng=1).forward(rng.normal(size=(1, 2, 8, 8)))

    def test_wrong_dimensionality_raises(self, rng):
        with pytest.raises(ValueError):
            Conv2d(1, 1, 3, rng=1).forward(rng.normal(size=(1, 1, 8)))

    def test_no_bias(self, rng):
        layer = Conv2d(1, 2, 3, padding=1, bias=False, rng=1)
        assert layer.bias is None
        check_layer_gradients(layer, rng.normal(size=(1, 1, 4, 4)))

    def test_invalid_ndim_raises(self):
        with pytest.raises(ValueError):
            ConvNd(4, 1, 1, 3)


class TestConvTranspose:
    def test_convtranspose2d_upsamples_by_two(self, rng):
        layer = ConvTranspose2d(3, 2, 3, stride=2, padding=1, output_padding=1, rng=1)
        out = layer.forward(rng.normal(size=(2, 3, 8, 8)))
        assert out.shape == (2, 2, 16, 16)

    def test_convtranspose2d_gradients(self, rng):
        check_layer_gradients(
            ConvTranspose2d(2, 2, 3, stride=2, padding=1, output_padding=1, rng=1),
            rng.normal(size=(1, 2, 4, 4)))

    def test_convtranspose3d_gradients(self, rng):
        check_layer_gradients(
            ConvTranspose3d(1, 2, 3, stride=2, padding=1, output_padding=1, rng=1),
            rng.normal(size=(1, 1, 3, 3, 3)))

    def test_convtranspose3d_shape(self, rng):
        layer = ConvTranspose3d(2, 1, 3, stride=2, padding=1, output_padding=1, rng=1)
        assert layer.forward(rng.normal(size=(1, 2, 4, 4, 4))).shape == (1, 1, 8, 8, 8)

    def test_output_padding_must_be_smaller_than_stride(self):
        with pytest.raises(ValueError):
            ConvTranspose2d(1, 1, 3, stride=2, output_padding=2)

    def test_wrong_channels_raise(self, rng):
        with pytest.raises(ValueError):
            ConvTranspose2d(2, 1, 3, rng=1).forward(rng.normal(size=(1, 3, 4, 4)))


class TestGDN:
    def test_gdn_forward_shrinks_values(self, rng):
        layer = GDN(3)
        x = rng.normal(size=(2, 3, 4, 4))
        y = layer.forward(x)
        assert y.shape == x.shape
        assert np.all(np.abs(y) <= np.abs(x) + 1e-12)

    def test_gdn_gradients(self, rng):
        check_layer_gradients(GDN(2), 0.5 * rng.normal(size=(2, 2, 3, 3)))

    def test_igdn_gradients(self, rng):
        check_layer_gradients(IGDN(2), 0.5 * rng.normal(size=(2, 2, 3, 3)))

    def test_gdn_igdn_approximately_inverse_at_init(self, rng):
        # With the same (diagonal) parameters, IGDN(GDN(x)) ~= x up to the
        # normalization coupling; for a single channel it is exact at beta=1.
        x = 0.3 * rng.normal(size=(2, 1, 4, 4))
        gdn, igdn = GDN(1, gamma_init=0.0), IGDN(1, gamma_init=0.0)
        np.testing.assert_allclose(igdn.forward(gdn.forward(x)), x, atol=1e-10)

    def test_gdn_3d_input(self, rng):
        layer = GDN(2)
        assert layer.forward(rng.normal(size=(1, 2, 3, 3, 3))).shape == (1, 2, 3, 3, 3)

    def test_project_clamps_parameters(self):
        layer = GDN(2)
        layer.beta.value[:] = -1.0
        layer.gamma.value[:] = -0.5
        layer.project()
        assert np.all(layer.beta.value >= layer.beta_min)
        assert np.all(layer.gamma.value >= 0.0)

    def test_wrong_channels_raise(self, rng):
        with pytest.raises(ValueError):
            GDN(3).forward(rng.normal(size=(1, 2, 4, 4)))

    def test_invalid_channels_raise(self):
        with pytest.raises(ValueError):
            GDN(0)


class TestActivations:
    @pytest.mark.parametrize("layer_cls", [ReLU, Tanh, Sigmoid, Identity])
    def test_gradients(self, layer_cls, rng):
        check_layer_gradients(layer_cls(), rng.normal(size=(3, 4)) + 0.1)

    def test_leaky_relu_gradients(self, rng):
        check_layer_gradients(LeakyReLU(0.3), rng.normal(size=(3, 4)) + 0.1)

    def test_relu_zeroes_negatives(self):
        out = ReLU().forward(np.array([[-1.0, 2.0]]))
        np.testing.assert_allclose(out, [[0.0, 2.0]])

    def test_leaky_relu_slope(self):
        out = LeakyReLU(0.1).forward(np.array([[-10.0, 5.0]]))
        np.testing.assert_allclose(out, [[-1.0, 5.0]])

    def test_tanh_range(self, rng):
        out = Tanh().forward(10 * rng.normal(size=(5, 5)))
        assert np.all(np.abs(out) <= 1.0)

    def test_sigmoid_range(self, rng):
        out = Sigmoid().forward(10 * rng.normal(size=(5, 5)))
        assert np.all((out > 0) & (out < 1))

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            ReLU().backward(np.zeros((1, 1)))


class TestReshapeFlatten:
    def test_flatten_roundtrip(self, rng):
        x = rng.normal(size=(2, 3, 4, 5))
        layer = Flatten()
        out = layer.forward(x)
        assert out.shape == (2, 60)
        np.testing.assert_allclose(layer.backward(out), x)

    def test_reshape_roundtrip(self, rng):
        x = rng.normal(size=(2, 12))
        layer = Reshape((3, 4))
        out = layer.forward(x)
        assert out.shape == (2, 3, 4)
        np.testing.assert_allclose(layer.backward(out), x)

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            Flatten().backward(np.zeros((1, 2)))


class TestSequential:
    def test_forward_backward_chain(self, rng):
        model = Sequential(Dense(6, 4, rng=1), ReLU(), Dense(4, 2, rng=2))
        x = rng.normal(size=(5, 6))
        out = model.forward(x)
        assert out.shape == (5, 2)
        grad_in = model.backward(np.ones_like(out))
        assert grad_in.shape == x.shape

    def test_len_getitem_iter(self):
        model = Sequential(ReLU(), Tanh())
        assert len(model) == 2
        assert isinstance(model[0], ReLU)
        assert [type(l).__name__ for l in model] == ["ReLU", "Tanh"]

    def test_append(self):
        model = Sequential(ReLU())
        model.append(Tanh())
        assert len(model) == 2

    def test_rejects_non_module(self):
        with pytest.raises(TypeError):
            Sequential("not a layer")

    def test_parameters_collected_from_children(self):
        model = Sequential(Dense(3, 2, rng=1), Dense(2, 1, rng=2))
        assert model.num_parameters() == (3 * 2 + 2) + (2 * 1 + 1)

    def test_train_eval_propagates(self):
        model = Sequential(Dense(2, 2, rng=1), ReLU())
        model.eval()
        assert model[0].training is False
        model.train()
        assert model[0].training is True
