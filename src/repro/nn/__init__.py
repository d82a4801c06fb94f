"""A small, self-contained NumPy deep-learning substrate.

The environment used for this reproduction has no GPU deep-learning framework,
so AE-SZ's convolutional autoencoders are built on this package: explicit
forward/backward layers, im2col-based (de)convolutions for 2D and 3D data,
Generalized Divisive Normalization (GDN/iGDN), standard losses, Adam/SGD
optimizers and a minimal training loop.

The public surface mirrors the subset of a typical DL framework that the paper
needs; every layer implements

``forward(x, training=True) -> y`` and ``backward(grad_y) -> grad_x``

with parameter gradients accumulated on :class:`repro.nn.module.Parameter`.
"""

from repro.nn.module import Module, Parameter
from repro.nn.network import Sequential
from repro.nn.layers import (
    Dense,
    Conv2d,
    Conv3d,
    ConvTranspose2d,
    ConvTranspose3d,
    GDN,
    IGDN,
    ReLU,
    LeakyReLU,
    Tanh,
    Sigmoid,
    Identity,
    Flatten,
    Reshape,
)
from repro.nn.losses import MSELoss, L1Loss, LogCoshLoss
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.training import Trainer, TrainingConfig, iterate_minibatches
from repro.nn.serialization import save_module, load_module_state, state_dict, load_state_dict
from repro.nn.gradcheck import numerical_gradient, check_layer_gradients

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "Dense",
    "Conv2d",
    "Conv3d",
    "ConvTranspose2d",
    "ConvTranspose3d",
    "GDN",
    "IGDN",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "Identity",
    "Flatten",
    "Reshape",
    "MSELoss",
    "L1Loss",
    "LogCoshLoss",
    "SGD",
    "Adam",
    "Optimizer",
    "Trainer",
    "TrainingConfig",
    "iterate_minibatches",
    "save_module",
    "load_module_state",
    "state_dict",
    "load_state_dict",
    "numerical_gradient",
    "check_layer_gradients",
]
