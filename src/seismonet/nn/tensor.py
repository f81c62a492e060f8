"""Value/gradient buffers and the backward tape.

The engine is deliberately small: activations are rank-3 ``SignalTensor``
objects shaped (batch, channels, length), trainable values are ``Parameter``
objects of arbitrary rank, and a ``Tape`` records one backward closure per
executed op. Calling ``Tape.backward()`` runs the closures in reverse order;
each closure reads the gradient buffer of the op's output and accumulates
into the gradient buffers of its inputs, so tensors consumed by several ops
(skip connections, residual adds) receive summed gradients for free.
Activation gradient buffers are allocated (zeroed) on first access, so a
forward pass without a tape allocates none.
"""
from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from ..errors import ValidationError

DEFAULT_DTYPE = np.float32


class SignalTensor:
    """A (batch, channels, length) buffer with a same-shape gradient buffer.

    ``channels`` may be zero (an empty concatenation operand); batch and
    length must be at least 1. The gradient buffer is allocated, zeroed, on
    first access; ``x.grad += g`` and ``x.grad[...] = g`` both work on a
    tensor whose gradient was never read. ``requires_grad=False`` marks a
    leaf whose gradient nothing reads, such as a raw input batch; the
    convolutions then skip computing it.
    """

    __slots__ = ("values", "_grad", "requires_grad")

    def __init__(self, values: np.ndarray, requires_grad: bool = True):
        values = np.asarray(values)
        if values.ndim != 3:
            raise ValidationError(f"SignalTensor requires rank 3, got shape {values.shape}")
        if values.shape[0] < 1 or values.shape[2] < 1:
            raise ValidationError(f"batch and length must be >= 1, got shape {values.shape}")
        self.values = values
        self._grad = None
        self.requires_grad = requires_grad

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.values)
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray) -> None:
        # ``x.grad += g`` reads the buffer, adds in place, then assigns it back.
        self._grad = value

    @classmethod
    def zeros(cls, batch: int, channels: int, length: int, dtype=DEFAULT_DTYPE) -> "SignalTensor":
        return cls(np.zeros((batch, channels, length), dtype=dtype))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.values.shape

    @property
    def batch(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]

    @property
    def length(self) -> int:
        return self.values.shape[2]

    @property
    def dtype(self):
        return self.values.dtype

    def zero_grad(self) -> None:
        self._grad = None

    def __repr__(self) -> str:
        return f"SignalTensor(shape={self.values.shape}, dtype={self.values.dtype})"


class Parameter:
    """A trainable array with an accumulated gradient."""

    __slots__ = ("values", "grad")

    def __init__(self, values: np.ndarray):
        self.values = np.asarray(values)
        self.grad = np.zeros_like(self.values)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def dtype(self):
        return self.values.dtype

    def zero_grad(self) -> None:
        self.grad[...] = 0

    def __repr__(self) -> str:
        return f"Parameter(shape={self.values.shape}, dtype={self.values.dtype})"


class ParamStore:
    """Ordered, uniquely named collection of parameters.

    Iteration order is insertion order, which makes optimizer sweeps and
    checkpoint layout deterministic.
    """

    def __init__(self):
        self._params: dict[str, Parameter] = {}

    def register(self, name: str, values: np.ndarray) -> Parameter:
        if name in self._params:
            raise ValidationError(f"duplicate parameter name: {name!r}")
        param = Parameter(values)
        self._params[name] = param
        return param

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterator[tuple[str, Parameter]]:
        return iter(self._params.items())

    def zero_grad(self) -> None:
        for param in self._params.values():
            param.zero_grad()

    def count_values(self) -> int:
        return sum(p.values.size for p in self._params.values())


class Tape:
    """Backward-pass recorder for one forward execution."""

    def __init__(self):
        self._backward_fns: list[Callable[[], None]] = []

    def record(self, fn: Callable[[], None]) -> None:
        self._backward_fns.append(fn)

    def backward(self) -> None:
        """Run recorded closures in reverse order, then clear the tape."""
        for fn in reversed(self._backward_fns):
            fn()
        self._backward_fns.clear()

    def __len__(self) -> int:
        return len(self._backward_fns)
