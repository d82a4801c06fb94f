"""Neural-network layers."""

from repro.nn.layers.dense import Dense
from repro.nn.layers.conv import Conv2d, Conv3d, ConvNd
from repro.nn.layers.conv_transpose import ConvTranspose2d, ConvTranspose3d, ConvTransposeNd
from repro.nn.layers.gdn import GDN, IGDN
from repro.nn.layers.activations import ReLU, LeakyReLU, Tanh, Sigmoid, Identity
from repro.nn.layers.reshape import Flatten, Reshape

__all__ = [
    "Dense",
    "Conv2d",
    "Conv3d",
    "ConvNd",
    "ConvTranspose2d",
    "ConvTranspose3d",
    "ConvTransposeNd",
    "GDN",
    "IGDN",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "Identity",
    "Flatten",
    "Reshape",
]
