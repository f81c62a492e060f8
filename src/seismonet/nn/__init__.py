"""Minimal reverse-mode engine for 1-D convolutional networks."""
from .gradcheck import grad_check
from .init import xavier_uniform_init
from .ops import (
    BatchNormState,
    ConvSpec,
    add,
    batchnorm1d,
    concat_channels,
    conv1d,
    conv_transpose1d,
    crop_or_pad,
    leaky_relu,
    resize_linear,
    smooth_l1_loss,
)
from .optim import lr_schedule, sgd_step
from .tensor import DEFAULT_DTYPE, GradSlot, Parameter, ParamStore, SignalTensor, Tape

__all__ = [
    "BatchNormState",
    "ConvSpec",
    "DEFAULT_DTYPE",
    "GradSlot",
    "Parameter",
    "ParamStore",
    "SignalTensor",
    "Tape",
    "add",
    "batchnorm1d",
    "concat_channels",
    "conv1d",
    "conv_transpose1d",
    "crop_or_pad",
    "grad_check",
    "leaky_relu",
    "lr_schedule",
    "resize_linear",
    "sgd_step",
    "smooth_l1_loss",
    "xavier_uniform_init",
]
