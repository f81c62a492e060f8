"""Plain stochastic gradient descent and the step-decay schedule."""
from __future__ import annotations

import numpy as np

from ..errors import NumericError, ValidationError
from .tensor import ParamStore


def sgd_step(params: ParamStore, lr: float) -> None:
    """Apply p <- p - lr*grad to every parameter, then drop its gradient buffer."""
    for name, param in params.items():
        if not np.isfinite(param.grad).all():
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        param.values -= lr * param.grad
        param.zero_grad()


def lr_schedule(epoch: int, lr0: float, step: int, factor: float) -> float:
    """Piecewise-constant decay: lr0 / factor**(epoch // step)."""
    if step < 1:
        raise ValidationError(f"step must be >= 1, got {step}")
    if factor <= 1:
        raise ValidationError(f"factor must be > 1, got {factor}")
    return lr0 / factor ** (epoch // step)
