"""Value/gradient buffers and the backward tape.

The engine is deliberately small: activations are rank-3 ``SignalTensor``
objects shaped (batch, channels, length), trainable values are ``Parameter``
objects of arbitrary rank, and a ``Tape`` records one backward closure per
executed op. Calling ``Tape.backward()`` runs the closures in reverse order;
each closure reads the gradient of the op's output and accumulates into the
gradients of its inputs, so tensors consumed by several ops (skip
connections, residual adds) receive summed gradients for free.

A tensor's gradient lives in a ``GradSlot``: the buffer, allocated (zeroed)
on first read, plus the shape, dtype and ``requires_grad`` it needs. A
tensor makes its slot on first use, so a forward pass without a tape makes
no slot and allocates no gradient; a ``Parameter``'s gradient follows the
same rule. A taped op's closure captures the slots of its input and output
and only the arrays its backward reads (a conv's input values, batch norm's
``xhat``, leaky ReLU's mask), never the tensors themselves. So an
activation that no backward reads is freed as soon as the forward drops the
tensor, and ``Tape.backward()`` drops each closure right after running it:
the op's saved arrays and its output gradient are freed once no closure
still to run can read them.
"""
from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from ..errors import ValidationError

DEFAULT_DTYPE = np.float32


class GradSlot:
    """The gradient of one tensor: a buffer allocated, zeroed, on first read.

    ``requires_grad=False`` marks a leaf whose gradient nothing reads, such
    as a raw input batch; the convolutions then skip computing it.
    """

    __slots__ = ("buffer", "shape", "dtype", "requires_grad")

    def __init__(self, shape: tuple[int, ...], dtype, requires_grad: bool = True):
        self.buffer = None
        self.shape = shape
        self.dtype = dtype
        self.requires_grad = requires_grad

    @property
    def grad(self) -> np.ndarray:
        if self.buffer is None:
            self.buffer = np.zeros(self.shape, dtype=self.dtype)
        return self.buffer

    @grad.setter
    def grad(self, value: np.ndarray) -> None:
        # ``slot.grad += g`` reads the buffer, adds in place, then assigns it back.
        self.buffer = value


class SignalTensor:
    """A (batch, channels, length) buffer whose gradient lives in a ``GradSlot``.

    ``channels`` may be zero (an empty concatenation operand); batch and
    length must be at least 1. The slot is made on first use and its buffer
    on first read; ``x.grad += g`` and ``x.grad[...] = g`` both work on a
    tensor whose gradient was never read.
    """

    __slots__ = ("values", "_slot")

    def __init__(self, values: np.ndarray, requires_grad: bool = True):
        values = np.asarray(values)
        if values.ndim != 3:
            raise ValidationError(f"SignalTensor requires rank 3, got shape {values.shape}")
        if values.shape[0] < 1 or values.shape[2] < 1:
            raise ValidationError(f"batch and length must be >= 1, got shape {values.shape}")
        self.values = values
        self._slot = None if requires_grad else GradSlot(values.shape, values.dtype, False)

    @property
    def slot(self) -> GradSlot:
        if self._slot is None:
            self._slot = GradSlot(self.values.shape, self.values.dtype)
        return self._slot

    @property
    def grad(self) -> np.ndarray:
        return self.slot.grad

    @grad.setter
    def grad(self, value: np.ndarray) -> None:
        self.slot.grad = value

    @property
    def _grad(self) -> np.ndarray | None:
        """The gradient buffer if one was allocated, else None."""
        return None if self._slot is None else self._slot.buffer

    @property
    def requires_grad(self) -> bool:
        return self._slot is None or self._slot.requires_grad

    @requires_grad.setter
    def requires_grad(self, value: bool) -> None:
        self.slot.requires_grad = value

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
        if self._slot is not None:
            self._slot.buffer = None

    def __repr__(self) -> str:
        return f"SignalTensor(shape={self.values.shape}, dtype={self.values.dtype})"


class Parameter:
    """A trainable array with an accumulated gradient.

    The gradient follows the ``GradSlot`` rule: its buffer is allocated,
    zeroed, on first read, so a model that only runs inference holds none.
    """

    __slots__ = ("values", "_grad")

    def __init__(self, values: np.ndarray):
        self.values = np.asarray(values)
        self._grad = None

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.values)
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray) -> None:
        # ``p.grad += g`` reads the buffer, adds in place, then assigns it back.
        self._grad = value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def dtype(self):
        return self.values.dtype

    def zero_grad(self) -> None:
        if self._grad is not None:
            self._grad[...] = 0

    def __repr__(self) -> str:
        return f"Parameter(shape={self.values.shape}, dtype={self.values.dtype})"


# Fills a declared parameter: an array (or a scalar) from the generator.
Initializer = Callable[[np.random.Generator], "np.ndarray | float"]


class ParamStore:
    """Ordered, uniquely named collection of parameters.

    Iteration order is insertion order, which makes optimizer sweeps and
    checkpoint layout deterministic. A parameter is either registered with
    its values or declared with its shape and initializer: declaring
    allocates the array and draws nothing, and ``initialize`` runs the
    initializers in declaration order, so whoever fills the arrays another
    way (a checkpoint load) pays for no draw.
    """

    def __init__(self):
        self._params: dict[str, Parameter] = {}
        self._inits: list[tuple[Parameter, Initializer]] = []

    def register(self, name: str, values: np.ndarray) -> Parameter:
        if name in self._params:
            raise ValidationError(f"duplicate parameter name: {name!r}")
        param = Parameter(values)
        self._params[name] = param
        return param

    def declare(self, name: str, shape: tuple[int, ...], dtype,
                init: Initializer) -> Parameter:
        """Register an uninitialized ``shape`` array that ``initialize`` fills."""
        param = self.register(name, np.empty(shape, dtype=dtype))
        self._inits.append((param, init))
        return param

    def initialize(self, rng: np.random.Generator) -> None:
        """Fill every declared parameter from its initializer, in declaration order."""
        for param, init in self._inits:
            param.values[...] = init(rng)

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
        """Run recorded closures in reverse order, dropping each once it has run."""
        fns = self._backward_fns
        while fns:
            fns.pop()()

    def __len__(self) -> int:
        return len(self._backward_fns)
