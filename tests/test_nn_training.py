"""Tests for losses, optimizers, the trainer loop and serialization."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Dense,
    L1Loss,
    LogCoshLoss,
    MSELoss,
    ReLU,
    SGD,
    Sequential,
    Tanh,
    Trainer,
    TrainingConfig,
    iterate_minibatches,
    load_module_state,
    load_state_dict,
    save_module,
    state_dict,
)
from repro.autoencoders import (
    AutoencoderConfig,
    ResidualConvAutoencoder,
    create_autoencoder,
)
from repro.nn.im2col import im2col
from repro.nn.layers.conv import ConvNd
from repro.nn.layers.conv_transpose import ConvTransposeNd
from repro.nn.module import Module, Parameter
from repro.nn.serialization import fingerprint_with_norm
from repro.nn.training import TrainingHistory, fit_autoencoder


class TestLosses:
    def test_mse_value_and_grad(self):
        loss, grad = MSELoss()(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
        assert loss == pytest.approx(2.5)
        np.testing.assert_allclose(grad, [1.0, 2.0])

    def test_l1_value_and_grad(self):
        loss, grad = L1Loss()(np.array([1.0, -2.0]), np.array([0.0, 0.0]))
        assert loss == pytest.approx(1.5)
        np.testing.assert_allclose(grad, [0.5, -0.5])

    def test_logcosh_close_to_mse_for_small_errors(self):
        diff = np.array([1e-3, -2e-3])
        lc, _ = LogCoshLoss()(diff, np.zeros(2))
        assert lc == pytest.approx(float(np.mean(diff**2)) / 2, rel=1e-3)

    def test_logcosh_grad_is_tanh(self):
        pred = np.array([3.0, -3.0])
        _, grad = LogCoshLoss()(pred, np.zeros(2))
        np.testing.assert_allclose(grad, np.tanh(pred) / 2)

    @pytest.mark.parametrize("loss_cls", [MSELoss, L1Loss, LogCoshLoss])
    def test_shape_mismatch_raises(self, loss_cls):
        with pytest.raises(ValueError):
            loss_cls()(np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("loss_cls", [MSELoss, LogCoshLoss])
    def test_numerical_gradient(self, loss_cls):
        rng = np.random.default_rng(0)
        pred = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 3))
        loss_fn = loss_cls()
        _, grad = loss_fn(pred, target)
        eps = 1e-6
        numeric = np.zeros_like(pred)
        for idx in np.ndindex(*pred.shape):
            p = pred.copy()
            p[idx] += eps
            lp, _ = loss_fn(p, target)
            p[idx] -= 2 * eps
            lm, _ = loss_fn(p, target)
            numeric[idx] = (lp - lm) / (2 * eps)
        np.testing.assert_allclose(grad, numeric, rtol=1e-4, atol=1e-8)


class _Quadratic(Module):
    """Toy model: minimize ||w - target||^2 via train_step."""

    def __init__(self, target):
        self.w = Parameter(np.zeros_like(np.asarray(target, dtype=float)))
        self.target = np.asarray(target, dtype=float)

    def train_step(self, batch):
        diff = self.w.value - self.target
        self.w.grad += 2 * diff
        return float(np.sum(diff**2))


class TestOptimizers:
    def test_sgd_converges_on_quadratic(self):
        model = _Quadratic([1.0, -2.0])
        opt = SGD(model.parameters(), lr=0.1)
        for _ in range(100):
            opt.zero_grad()
            model.train_step(None)
            opt.step()
        np.testing.assert_allclose(model.w.value, [1.0, -2.0], atol=1e-3)

    def test_sgd_momentum_converges(self):
        model = _Quadratic([0.5, 0.5])
        opt = SGD(model.parameters(), lr=0.05, momentum=0.9)
        for _ in range(200):
            opt.zero_grad()
            model.train_step(None)
            opt.step()
        np.testing.assert_allclose(model.w.value, [0.5, 0.5], atol=1e-3)

    def test_adam_converges_on_quadratic(self):
        model = _Quadratic([3.0, -1.0, 0.25])
        opt = Adam(model.parameters(), lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            model.train_step(None)
            opt.step()
        np.testing.assert_allclose(model.w.value, [3.0, -1.0, 0.25], atol=1e-2)

    def test_adam_weight_decay_shrinks_solution(self):
        model = _Quadratic([1.0])
        opt = Adam(model.parameters(), lr=0.05, weight_decay=1.0)
        for _ in range(300):
            opt.zero_grad()
            model.train_step(None)
            opt.step()
        assert abs(model.w.value[0]) < 1.0

    def test_invalid_lr_raises(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=0.0)

    def test_invalid_momentum_raises(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=0.1, momentum=1.0)

    def test_invalid_betas_raise(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.1, betas=(1.0, 0.9))

    def test_empty_parameters_raise(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_for_module_projects_constraints(self):
        from repro.nn import GDN
        layer = GDN(2)
        opt = Adam.for_module(layer, lr=0.5)
        layer.beta.grad += 100.0  # a huge step that would push beta negative
        opt.step()
        assert np.all(layer.beta.value >= layer.beta_min)


class TestMinibatches:
    def test_covers_all_samples(self):
        data = np.arange(10)[:, None]
        batches = list(iterate_minibatches(data, 3, shuffle=False))
        assert sum(b.shape[0] for b in batches) == 10

    def test_drop_last(self):
        data = np.arange(10)[:, None]
        batches = list(iterate_minibatches(data, 3, shuffle=False, drop_last=True))
        assert all(b.shape[0] == 3 for b in batches)

    def test_shuffle_is_deterministic_with_seed(self):
        data = np.arange(8)[:, None]
        a = np.concatenate(list(iterate_minibatches(data, 4, rng=0)))
        b = np.concatenate(list(iterate_minibatches(data, 4, rng=0)))
        np.testing.assert_array_equal(a, b)

    def test_invalid_batch_size_raises(self):
        with pytest.raises(ValueError):
            list(iterate_minibatches(np.zeros((4, 1)), 0))


class TestTrainer:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainingConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=0)

    def test_trainer_reduces_loss_on_toy_autoencoder(self):
        from repro.autoencoders import AutoencoderConfig, VanillaAutoencoder

        rng = np.random.default_rng(0)
        cfg = AutoencoderConfig(ndim=2, block_size=8, latent_size=4, channels=(2,), seed=0)
        model = VanillaAutoencoder(cfg)
        data = rng.normal(size=(64, 1, 8, 8))
        model.fit_normalization(data)
        trainer = Trainer(model, config=TrainingConfig(epochs=4, batch_size=16, seed=0))
        history = trainer.fit(data)
        assert len(history.epoch_losses) == 4
        assert history.epoch_losses[-1] < history.epoch_losses[0]

    def test_trainer_callback_invoked(self):
        model = _Quadratic([1.0])
        calls = []
        trainer = Trainer(model, optimizer=SGD(model.parameters(), lr=0.1),
                          config=TrainingConfig(epochs=3, batch_size=2))
        trainer.fit(np.zeros((4, 1)), callback=lambda e, l: calls.append(e))
        assert calls == [0, 1, 2]

    def test_empty_data_raises(self):
        model = _Quadratic([1.0])
        trainer = Trainer(model, optimizer=SGD(model.parameters(), lr=0.1))
        with pytest.raises(ValueError):
            trainer.fit(np.zeros((0, 1)))

    def test_history_properties(self):
        hist = TrainingHistory(epoch_losses=[2.0, 1.0], epoch_times=[0.1, 0.2])
        assert hist.final_loss == 1.0
        assert hist.total_time == pytest.approx(0.3)


class TestSerialization:
    def test_state_dict_roundtrip(self):
        model = Sequential(Dense(4, 3, rng=1), ReLU(), Dense(3, 2, rng=2))
        clone = Sequential(Dense(4, 3, rng=9), ReLU(), Dense(3, 2, rng=8))
        load_state_dict(clone, state_dict(model))
        x = np.random.default_rng(0).normal(size=(2, 4))
        np.testing.assert_allclose(model.forward(x), clone.forward(x))

    def test_save_load_module(self, tmp_path):
        model = Sequential(Dense(4, 4, rng=1), Tanh(), Dense(4, 1, rng=2))
        path = tmp_path / "weights.npz"
        save_module(model, path)
        clone = Sequential(Dense(4, 4, rng=5), Tanh(), Dense(4, 1, rng=6))
        load_module_state(clone, path)
        x = np.random.default_rng(1).normal(size=(3, 4))
        np.testing.assert_allclose(model.forward(x), clone.forward(x))

    def test_strict_mismatch_raises(self):
        model = Sequential(Dense(4, 3, rng=1))
        other = Sequential(Dense(4, 3, rng=1), Dense(3, 2, rng=2))
        with pytest.raises(KeyError):
            load_state_dict(other, state_dict(model))

    def test_shape_mismatch_raises(self):
        model = Sequential(Dense(4, 3, rng=1))
        state = state_dict(model)
        state["layers.0.weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            load_state_dict(model, state)

    def test_non_strict_ignores_extras(self):
        model = Sequential(Dense(4, 3, rng=1))
        state = state_dict(model)
        state["bogus"] = np.zeros(3)
        load_state_dict(model, state, strict=False)


# ------------------------------------------------------------ float32 training
def _conv_ae(kind, ndim):
    return create_autoencoder(kind, AutoencoderConfig(
        ndim=ndim, block_size=8, latent_size=4, channels=(2, 4), seed=0))


#: Builders of the models whose float32 step is held to the float64 one.
_MODELS = {
    "swae-2d": lambda: _conv_ae("swae", 2),
    "swae-3d": lambda: _conv_ae("swae", 3),
    "vae-2d": lambda: _conv_ae("vae", 2),
    "ae-b-3d": lambda: ResidualConvAutoencoder(block_size=8, ndim=3, channels=2,
                                               latent_channels=1, n_residual=2,
                                               n_compression=2, seed=0),
}


def _small_fit():
    model = _conv_ae("swae", 2)
    blocks = np.cumsum(np.random.default_rng(4).normal(size=(24, 8, 8)), axis=-1)
    fit_autoencoder(model, [blocks], TrainingConfig(epochs=2, batch_size=8, seed=0),
                    max_samples=24, seed=0)
    return model


class TestFloat32Training:
    """The training loop computes in float32; everything it leaves behind,
    and every inference forward, is float64."""

    # float32 carries ~6e-8 relative; a gradient is a sum over every position
    # of every block in the batch, through ~10 layers.  The whole gradient
    # stays within 2e-6; a bias gradient (a sum with cancellation) within 1e-5.
    WHOLE_RTOL = 2e-6
    PARAM_RTOL = 1e-5

    @pytest.mark.parametrize("name", list(_MODELS))
    def test_float32_step_matches_the_float64_step(self, name):
        model32, model64 = _MODELS[name](), _MODELS[name]()
        ndim = model64.config.ndim
        rng = np.random.default_rng(3)
        batch = np.cumsum(rng.normal(size=(8,) + (8,) * ndim), axis=-1)
        batch = batch.astype(np.float32).astype(np.float64)
        for model in (model32, model64):
            model.fit_normalization(batch)
            model.zero_grad()
        loss64 = model64.train_step(batch)
        loss32 = model32.train_step(batch.astype(np.float32))
        assert loss32 == pytest.approx(loss64, rel=1e-5)
        g32 = [p.grad for p in model32.parameters()]
        g64 = [p.grad for p in model64.parameters()]
        for a, b in zip(g32, g64):
            assert a.dtype == np.float64
            assert np.linalg.norm(a - b) <= self.PARAM_RTOL * np.linalg.norm(b)
        whole32 = np.concatenate([g.ravel() for g in g32])
        whole64 = np.concatenate([g.ravel() for g in g64])
        assert np.linalg.norm(whole32 - whole64) <= self.WHOLE_RTOL * np.linalg.norm(whole64)
        # ... and the float32 step did compute in float32.
        x32 = model32.normalize(model32._with_channel(batch.astype(np.float32)))
        latent = model32.encoder.forward(x32, training=True)
        assert latent.dtype == model32.decoder.forward(latent, training=True).dtype == np.float32

    def test_fit_leaves_float64_parameters_grads_moments_and_npz(self, tmp_path):
        model = _conv_ae("swae", 2)
        data = np.random.default_rng(5).normal(size=(16, 1, 8, 8))
        model.fit_normalization(data)
        fed = []
        step = model.train_step
        model.train_step = lambda batch: fed.append(batch.dtype) or step(batch)
        trainer = Trainer(model, config=TrainingConfig(epochs=1, batch_size=8, seed=0))
        trainer.fit(data)
        assert fed == [np.float32, np.float32]
        for p in model.parameters():
            assert p.value.dtype == p.grad.dtype == np.float64, p.name
        for moment in trainer.optimizer._m + trainer.optimizer._v:
            assert moment.dtype == np.float64
        model.save(tmp_path / "m.npz")
        with np.load(tmp_path / "m.npz") as saved:
            assert {saved[k].dtype for k in saved.files} == {np.dtype(np.float64)}
        assert model.encode(data[:2]).dtype == np.float64

    def test_two_fits_with_one_seed_give_one_fingerprint(self):
        assert fingerprint_with_norm(_small_fit()) == fingerprint_with_norm(_small_fit())


class TestTrainingLayoutMatchesInference:
    """In float64, the batch-innermost training kernels compute what the
    per-block inference kernels compute, up to summation order."""

    RTOL = 1e-12

    def _close(self, got, want):
        assert np.max(np.abs(got - want)) <= self.RTOL * np.max(np.abs(want))

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("ndim", [2, 3])
    def test_conv_forward_and_backward(self, ndim, stride):
        rng = np.random.default_rng(ndim + 10 * stride)
        conv = ConvNd(ndim, 2, 3, 3, stride=stride, padding=1, rng=rng)
        conv.bias.value[...] = rng.normal(size=3)
        x = rng.normal(size=(5, 2) + (6,) * ndim)
        inference = conv.forward(x, training=False)
        out = conv.forward(x, training=True)
        self._close(out, inference)

        g = rng.normal(size=out.shape)
        conv.zero_grad()
        dx = conv.backward(g)
        # The input gradient is the transposed convolution's inference forward.
        adjoint = ConvTransposeNd(ndim, 3, 2, 3, stride=stride, padding=1,
                                  output_padding=stride - 1, bias=False)
        adjoint.weight.value[...] = conv.weight.value
        self._close(dx, adjoint.forward(g, training=False))
        cols = im2col(x, 3, stride, 1)
        dw = np.matmul(g.reshape(5, 3, -1), cols.transpose(0, 2, 1)).sum(axis=0)
        self._close(conv.weight.grad, dw.reshape(conv.weight.shape))
        self._close(conv.bias.grad, g.sum(axis=(0,) + tuple(range(2, g.ndim))))

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("ndim", [2, 3])
    def test_conv_transpose_forward_and_backward(self, ndim, stride):
        rng = np.random.default_rng(ndim + 10 * stride + 1)
        deconv = ConvTransposeNd(ndim, 3, 2, 3, stride=stride, padding=1,
                                 output_padding=stride - 1, rng=rng)
        deconv.bias.value[...] = rng.normal(size=2)
        x = rng.normal(size=(5, 3) + (4,) * ndim)
        inference = deconv.forward(x, training=False)
        out = deconv.forward(x, training=True)
        self._close(out, inference)

        g = rng.normal(size=out.shape)
        deconv.zero_grad()
        dx = deconv.backward(g)
        # The input gradient is the convolution's inference forward.
        adjoint = ConvNd(ndim, 2, 3, 3, stride=stride, padding=1, bias=False)
        adjoint.weight.value[...] = deconv.weight.value
        self._close(dx, adjoint.forward(g, training=False))
        dcols = im2col(g, 3, stride, 1)
        dw = np.matmul(x.reshape(5, 3, -1), dcols.transpose(0, 2, 1)).sum(axis=0)
        self._close(deconv.weight.grad, dw.reshape(deconv.weight.shape))
