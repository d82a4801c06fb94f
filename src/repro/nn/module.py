"""Base classes for the NumPy neural-network substrate."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np


def as_compute(x) -> np.ndarray:
    """``x`` as an array of the dtype a layer computes in: float32 stays
    float32 (the training loop's choice), anything else becomes float64."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else x.astype(np.float64, copy=False)


class Parameter:
    """A trainable tensor with an accumulated gradient."""

    __slots__ = ("value", "grad", "name")

    def __init__(self, value: np.ndarray, name: str = "param"):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.name = name

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.value.shape

    @property
    def size(self) -> int:
        return int(self.value.size)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Parameter(name={self.name!r}, shape={self.value.shape})"


class Module:
    """Base class of all layers and models.

    Sub-classes register :class:`Parameter` objects as attributes and/or child
    modules; :meth:`parameters` and :meth:`named_parameters` traverse the tree.
    """

    training: bool = True

    # ------------------------------------------------------------------ tree
    def children(self) -> Iterator["Module"]:
        for value in self.__dict__.values():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield item

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for attr, value in self.__dict__.items():
            name = f"{prefix}{attr}"
            if isinstance(value, Parameter):
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{name}.{i}.")
                    elif isinstance(item, Parameter):
                        yield f"{name}.{i}", item

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total number of trainable scalars in this module tree."""
        return sum(p.size for p in self.parameters())

    # -------------------------------------------------------------- training
    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for child in self.children():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def project(self) -> None:
        """Project parameters back onto their feasible set (e.g. GDN beta > 0).

        Called by optimizers after each step; the default is a no-op.
        """
        for child in self.children():
            child.project()

    # --------------------------------------------------------------- compute
    def forward(self, x: np.ndarray, training: Optional[bool] = None) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray, training: Optional[bool] = None) -> np.ndarray:
        return self.forward(x, training=training)

    def _resolve_training(self, training: Optional[bool]) -> bool:
        return self.training if training is None else bool(training)
