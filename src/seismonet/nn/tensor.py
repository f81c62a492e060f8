"""Value/gradient buffers and the backward tape.

The engine is deliberately small: activations are rank-3 ``SignalTensor``
objects shaped (batch, channels, length), trainable values are ``Parameter``
objects of arbitrary rank, and a ``Tape`` records one backward closure per
executed op. Calling ``Tape.backward()`` runs the closures in reverse order;
each closure reads the gradient of the op's output and accumulates into the
gradients of its inputs, so tensors consumed by several ops (skip
connections, residual adds) receive summed gradients for free.

A tensor's gradient lives in a ``GradSlot``: the buffer, allocated (zeroed)
on first read, plus the shape, dtype and ``requires_grad`` it needs.
Activations and parameters share one base that holds the values and makes
the slot on first use, so a forward pass without a tape makes no slot and
allocates no gradient. Its ``zero_grad``, which the SGD step calls, drops
the buffer, so a parameter's gradient, like an activation's, lives from its
first write in a backward to the SGD step. A taped op's closure captures
the slots of its input and output and only the arrays its backward reads
(a conv's input values, batch norm's ``xhat``, leaky ReLU's mask), never
the tensors themselves. So an activation that no backward reads is freed
as soon as the forward drops the tensor, and ``Tape.backward()`` drops
each closure right after running it: the op's saved arrays and its output
gradient are freed once no closure still to run, and no deferred job
(``Tape.defer``), can read them.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from ..errors import ValidationError

if TYPE_CHECKING:
    from concurrent.futures import Future

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

    def add_owned(self, g: np.ndarray, *, signed_zeros: bool = True) -> None:
        """``grad += g`` for a fresh array ``g`` that nothing else holds.

        The first gradient adopts ``g`` as the buffer rather than adding it
        to zeros. The in-place ``g += 0.0`` keeps that bitwise equal to
        ``zeros + g``: it turns -0.0 into +0.0 and leaves every other value
        alone. A ``g`` built by ``+=`` into ``np.zeros`` holds no -0.0
        (+0.0 + -0.0 is +0.0), so its maker passes ``signed_zeros=False``
        and the pass is skipped; the default keeps the pass, which is right
        for any ``g``. A ``g`` that is not C-contiguous (a slice
        of a larger result) is copied once: closures write into the buffer
        through reshapes, and a reshape of a strided array may be a copy.
        """
        if self.buffer is not None or g.shape != self.shape or g.dtype != self.dtype:
            self.grad += g
        elif not g.flags.c_contiguous:
            self.buffer = g + 0.0
        else:
            if signed_zeros:
                g += 0.0
            self.buffer = g


class _Tracked:
    """An array of values whose gradient lives in a ``GradSlot``.

    The slot is made on first use and its buffer on first read;
    ``t.grad += g`` and ``t.grad[...] = g`` both work on a gradient that was
    never read, or was dropped by ``zero_grad``.
    """

    __slots__ = ("values", "_slot")

    def __init__(self, values: np.ndarray, requires_grad: bool = True):
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

    def zero_grad(self) -> None:
        """Drop the gradient buffer; the next read allocates a zeroed one."""
        if self._slot is not None:
            self._slot.buffer = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def dtype(self):
        return self.values.dtype

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shape={self.values.shape}, dtype={self.values.dtype})"


class SignalTensor(_Tracked):
    """A (batch, channels, length) activation.

    ``channels`` may be zero (an empty concatenation operand); batch and
    length must be at least 1.
    """

    __slots__ = ()

    def __init__(self, values: np.ndarray, requires_grad: bool = True):
        values = np.asarray(values)
        if values.ndim != 3:
            raise ValidationError(f"SignalTensor requires rank 3, got shape {values.shape}")
        if values.shape[0] < 1 or values.shape[2] < 1:
            raise ValidationError(f"batch and length must be >= 1, got shape {values.shape}")
        super().__init__(values, requires_grad)

    @property
    def batch(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]

    @property
    def length(self) -> int:
        return self.values.shape[2]


class Parameter(_Tracked):
    """A trainable array of any rank with an accumulated gradient."""

    __slots__ = ()

    def __init__(self, values: np.ndarray):
        super().__init__(np.asarray(values))


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
    """Backward-pass recorder for one forward execution.

    A closure may hand work that nothing later in the backward reads to
    another thread (a convolution's parameter gradients, to the pool's
    worker) and pass its future to ``defer``. ``backward`` waits for every
    deferred future before it returns or re-raises, so whoever reads a
    gradient after it (the SGD step) reads a finished one.
    """

    def __init__(self):
        self._backward_fns: list[Callable[[], None]] = []
        self._deferred: list[Future] = []

    def record(self, fn: Callable[[], None]) -> None:
        self._backward_fns.append(fn)

    def defer(self, future: Future) -> None:
        """Have ``backward`` wait for ``future`` before it returns."""
        self._deferred.append(future)

    def backward(self) -> None:
        """Run recorded closures in reverse order, dropping each once it has run.

        An error in a closure or in a deferred job propagates only once every
        deferred job has finished; a closure's error wins.
        """
        fns = self._backward_fns
        try:
            while fns:
                fns.pop()()
        finally:
            deferred, self._deferred = self._deferred, []
            for future in deferred:
                future.exception()  # waits, whatever the outcome
        for future in deferred:
            future.result()
