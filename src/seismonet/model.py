"""SeismoNet: a 1-D convolutional encoder-decoder for SCG-to-waveform
regression.

The network is 2N+2 blocks: an entry block that widens the single input
channel, N contracting blocks that each double the channel count and
stride-downsample, N expanding blocks that merge skip features and halve
the channel count twice per stage (a projection convolution first matches
each skip to the decoder width, so every merge is an exact 2x concat), and
an output block that restores the input length and collapses to one
channel. Channel arithmetic: entry width is base_channels/2, the bottleneck
carries base_channels * 2**(levels-1) channels, and the decoder narrows
back down to base_channels/4 before the output block.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import ConfigError, ValidationError
from .fieldcodec import NOT_SETTABLE, bounded, check_bounds
from .nn import (
    BatchNormState,
    ConvSpec,
    DEFAULT_DTYPE,
    ParamStore,
    SignalTensor,
    Tape,
    add,
    batchnorm1d,
    concat_channels,
    conv1d,
    conv_transpose1d,
    crop_or_pad,
    leaky_relu,
    resize_linear,
    xavier_uniform_init,
)
from .nn.pool import run_halves, second_core


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    ``entry_channels`` defaults to base_channels/2 so that the first
    contracting block's channel doubling lands exactly on base_channels.
    """

    input_len: int = field(metadata={**NOT_SETTABLE, **bounded(1)})
    levels: int = field(default=5, metadata=bounded(1))
    base_channels: int = 32
    conv_kernel: int = 3
    down_kernel: int = 5
    up_kernel: int = 5
    down_stride: int = field(default=2, metadata=bounded(1))
    entry_channels: int | None = field(default=None, metadata=NOT_SETTABLE)
    entry_kernel: int = 7
    inception_kernels: tuple[int, ...] = (1, 3, 5)
    leaky_slope: float = field(default=0.01, metadata=bounded(0))
    bn_momentum: float = field(default=0.1, metadata=NOT_SETTABLE)
    bn_eps: float = field(default=1e-5, metadata=NOT_SETTABLE)

    def __post_init__(self):
        object.__setattr__(self, "inception_kernels", tuple(self.inception_kernels))
        check_bounds(self, ConfigError)
        if self.base_channels % 4 != 0 or self.base_channels < 4:
            # /4 keeps every decoder stage an integer channel count.
            raise ConfigError(
                f"base_channels must be a positive multiple of 4, got {self.base_channels}")
        if not self.inception_kernels:
            raise ConfigError("inception_kernels must be non-empty")
        if self.base_channels < len(self.inception_kernels):
            raise ConfigError(
                f"base_channels {self.base_channels} < inception branch count "
                f"{len(self.inception_kernels)}")
        for k in (self.conv_kernel, self.down_kernel, self.up_kernel,
                  self.entry_kernel, *self.inception_kernels):
            if k < 1 or k % 2 == 0:
                raise ConfigError(f"kernel sizes must be odd and positive, got {k}")
        if self.entry_channels is not None and self.entry_channels * 2 != self.base_channels:
            raise ConfigError(
                f"entry_channels {self.entry_channels} must be base_channels/2 "
                f"= {self.base_channels // 2}")
        if self.encoder_lengths()[-1] < 4:
            raise ConfigError(
                f"bottleneck length {self.encoder_lengths()[-1]} < 4; "
                f"increase input_len or reduce levels/stride")
        if self.entry_channels is None:
            object.__setattr__(self, "entry_channels", self.base_channels // 2)

    @property
    def bottleneck_channels(self) -> int:
        return self.base_channels * 2 ** (self.levels - 1)

    @property
    def block_count(self) -> int:
        return 2 * self.levels + 2

    def encoder_lengths(self) -> list[int]:
        """Feature lengths before each contracting stage plus the bottleneck.

        Index 0 is the input length; index n is the length after the n-th
        contracting block.
        """
        lengths = [self.input_len]
        for _ in range(self.levels):
            lengths.append(math.ceil(lengths[-1] / self.down_stride))
        return lengths

    def encoder_channels(self) -> list[int]:
        """Channel count after each contracting block (index 0 unused entry)."""
        return [self.base_channels * 2 ** n for n in range(self.levels)]


# The smallest half batch that inference splits onto a second core, in
# parameter values x input samples x windows (a proxy for the GEMM work).
# Paper-default windows (4.17 M parameters x 2500 samples = 1.04e10) split
# from batch 2 on. Measured with one BLAS thread on a 2-vCPU VM, smaller
# halves gained nothing or lost: batch-4 predict of the desk net (N=3, 8
# channels, 200 samples) took 1.5 ms on one thread and 7.4 ms split, and
# the paper net on 1000-sample windows (half 8.3e9) broke even.
SPLIT_MIN_WORK = 1e10


def _same_pad(kernel: int) -> int:
    return (kernel - 1) // 2


def _constant(value: float):
    return lambda rng: value


class _Conv:
    """One convolution layer: declared weight/bias plus its spec."""

    def __init__(self, store: ParamStore, name: str, in_ch: int, out_ch: int,
                 kernel: int, dtype, stride: int = 1, padding: int = 0,
                 transposed: bool = False):
        self.spec = ConvSpec(in_ch, out_ch, kernel, stride, padding, transposed)
        shape = self.spec.weight_shape
        init = partial(xavier_uniform_init, shape, in_ch * kernel, out_ch * kernel)
        self.weight = store.declare(f"{name}.weight", shape, dtype, init)
        self.bias = store.declare(f"{name}.bias", (out_ch,), dtype, _constant(0.0))

    def __call__(self, x: SignalTensor, tape: Tape | None) -> SignalTensor:
        if self.spec.transposed:
            return conv_transpose1d(x, self.weight, self.bias, self.spec, tape)
        return conv1d(x, self.weight, self.bias, self.spec, tape)


def _norm(store: ParamStore, name: str, channels: int, cfg: ModelConfig,
          dtype) -> BatchNormState:
    """Declare one batch norm's gamma and beta; return its state."""
    gamma = store.declare(f"{name}.gamma", (channels,), dtype, _constant(1.0))
    beta = store.declare(f"{name}.beta", (channels,), dtype, _constant(0.0))
    return BatchNormState(gamma, beta, cfg.bn_momentum, cfg.bn_eps)


class InceptionResidualBlock:
    """Parallel odd-kernel convolutions, channel concat, residual, leaky ReLU.

    Channels are split as evenly as possible across branches, earlier
    branches taking the remainder; with fewer channels than configured
    kernels, only the first ``channels`` kernels are used.
    """

    def __init__(self, store: ParamStore, name: str, channels: int,
                 cfg: ModelConfig, dtype):
        kernels = cfg.inception_kernels[:min(len(cfg.inception_kernels), channels)]
        n_branches = len(kernels)
        base, rem = divmod(channels, n_branches)
        widths = [base + 1 if i < rem else base for i in range(n_branches)]
        self.slope = cfg.leaky_slope
        self.branches = [
            _Conv(store, f"{name}.branch{i}", channels, width, k, dtype,
                  padding=_same_pad(k))
            for i, (k, width) in enumerate(zip(kernels, widths))
        ]

    def forward(self, x: SignalTensor, tape: Tape | None, training: bool) -> SignalTensor:
        out = concat_channels(*(branch(x, tape) for branch in self.branches), tape=tape)
        return leaky_relu(add(out, x, tape), self.slope, tape)


class EnsembleAveragingBlock:
    """Entry stage: widen 1 channel to the entry width, then mix across
    channels with a kernel-1 convolution. Length-preserving."""

    def __init__(self, store: ParamStore, cfg: ModelConfig, dtype):
        c = cfg.entry_channels
        self.entry = _Conv(store, "ensemble.entry", 1, c, cfg.entry_kernel, dtype,
                           padding=_same_pad(cfg.entry_kernel))
        self.mix = _Conv(store, "ensemble.mix", c, c, 1, dtype)

    def forward(self, x: SignalTensor, tape: Tape | None, training: bool) -> SignalTensor:
        return self.mix(self.entry(x, tape), tape)


class ContractingBlock:
    """Double the channels, normalize, activate, stride-downsample, refine."""

    def __init__(self, store: ParamStore, name: str, in_ch: int,
                 cfg: ModelConfig, dtype):
        out_ch = 2 * in_ch
        self.slope = cfg.leaky_slope
        self.widen = _Conv(store, f"{name}.widen", in_ch, out_ch, cfg.conv_kernel,
                           dtype, padding=_same_pad(cfg.conv_kernel))
        self.norm = _norm(store, f"{name}.norm", out_ch, cfg, dtype)
        self.down = _Conv(store, f"{name}.down", out_ch, out_ch, cfg.down_kernel,
                          dtype, stride=cfg.down_stride,
                          padding=_same_pad(cfg.down_kernel))
        self.refine = InceptionResidualBlock(store, f"{name}.incept", out_ch, cfg,
                                             dtype)

    def forward(self, x: SignalTensor, tape: Tape | None, training: bool) -> SignalTensor:
        h = self.widen(x, tape)
        h = batchnorm1d(h, self.norm, training, tape)
        h = leaky_relu(h, self.slope, tape)
        h = self.down(h, tape)
        return self.refine.forward(h, tape, training)


class ExpandingBlock:
    """Merge the skip feature, halve the channels twice, upsample, refine.

    The skip is projected with a kernel-1 convolution to the decoder width
    before concatenation, making the merged input exactly twice the decoder
    width; the output therefore carries a quarter of the merged channels.
    The upsampled feature is right-zero-padded to the stored encoder-plan
    length: a same-padded transposed convolution of stride s and odd kernel
    gives (L-1)*s+1 samples, and L = ceil(T/s) puts the target T at most
    s-1 samples above that.
    """

    def __init__(self, store: ParamStore, name: str, in_ch: int,
                 skip_ch: int | None, cfg: ModelConfig, dtype):
        self.slope = cfg.leaky_slope
        self.proj = None
        merged = in_ch
        if skip_ch is not None:
            self.proj = _Conv(store, f"{name}.skip_proj", skip_ch, in_ch, 1, dtype)
            merged = 2 * in_ch
        mid = merged // 2
        out_ch = merged // 4
        self.narrow = _Conv(store, f"{name}.narrow", merged, mid, cfg.conv_kernel,
                            dtype, padding=_same_pad(cfg.conv_kernel))
        self.norm = _norm(store, f"{name}.norm", mid, cfg, dtype)
        self.up = _Conv(store, f"{name}.up", mid, out_ch, cfg.up_kernel, dtype,
                        stride=cfg.down_stride, padding=_same_pad(cfg.up_kernel),
                        transposed=True)
        self.refine = InceptionResidualBlock(store, f"{name}.incept", out_ch, cfg,
                                             dtype)
        self.out_channels = out_ch

    def forward(self, x: SignalTensor, skip: SignalTensor | None, target_len: int,
                tape: Tape | None, training: bool) -> SignalTensor:
        if (skip is None) != (self.proj is None):
            raise ValidationError("skip presence does not match block construction")
        h = x
        if skip is not None:
            if skip.length != x.length:
                raise ValidationError(
                    f"skip length {skip.length} != decoder feature length {x.length}")
            h = concat_channels(x, self.proj(skip, tape), tape=tape)
        h = self.narrow(h, tape)
        h = batchnorm1d(h, self.norm, training, tape)
        h = leaky_relu(h, self.slope, tape)
        h = self.up(h, tape)
        h = crop_or_pad(h, target_len, tape)
        return self.refine.forward(h, tape, training)


class DenoisingBlock:
    """Restore the input length and collapse to one output channel."""

    def __init__(self, store: ParamStore, in_ch: int, cfg: ModelConfig, dtype):
        self.slope = cfg.leaky_slope
        self.output_len = cfg.input_len
        self.conv1 = _Conv(store, "denoise.conv1", in_ch, in_ch, 3, dtype, padding=1)
        self.conv2 = _Conv(store, "denoise.conv2", in_ch, 1, 3, dtype, padding=1)

    def forward(self, x: SignalTensor, tape: Tape | None, training: bool) -> SignalTensor:
        if x.length > 2 * self.output_len:
            raise ValidationError(
                f"denoising block input length {x.length} exceeds 2x output "
                f"length {self.output_len}")
        h = resize_linear(x, self.output_len, tape)
        h = self.conv1(h, tape)
        h = leaky_relu(h, self.slope, tape)
        return self.conv2(h, tape)


class SeismoNet:
    """The assembled network.

    Construction declares the parameters (allocated, not initialized), so
    build instances with :func:`build_model`, which draws them, or with
    ``checkpoint.load_checkpoint``, which reads them from a file.
    """

    def __init__(self, config: ModelConfig, dtype=DEFAULT_DTYPE):
        self.config = config
        self.dtype = np.dtype(dtype)
        self.params = ParamStore()
        self.trained_epochs = 0

        enc_channels = config.encoder_channels()
        self._enc_lengths = config.encoder_lengths()

        self.ensemble = EnsembleAveragingBlock(self.params, config, dtype)
        self.contracting: list[ContractingBlock] = []
        in_ch = config.entry_channels
        for n in range(config.levels):
            block = ContractingBlock(self.params, f"ccb{n + 1}", in_ch, config, dtype)
            self.contracting.append(block)
            in_ch = enc_channels[n]

        self.expanding: list[ExpandingBlock] = []
        dec_ch = config.bottleneck_channels
        for n in range(config.levels):
            skip_ch = None if n == 0 else enc_channels[config.levels - 1 - n]
            block = ExpandingBlock(self.params, f"ecb{n + 1}", dec_ch, skip_ch,
                                   config, dtype)
            self.expanding.append(block)
            dec_ch = block.out_channels

        self.denoise = DenoisingBlock(self.params, dec_ch, config, dtype)
        self._window_work = self.params.count_values() * config.input_len

    @property
    def block_count(self) -> int:
        return self.config.block_count

    @property
    def bottleneck_channels(self) -> int:
        return self.config.bottleneck_channels

    def named_buffers(self) -> list[tuple[str, np.ndarray]]:
        """Batch-norm running statistics, in deterministic order."""
        out = []
        for prefix, blocks in (("ccb", self.contracting), ("ecb", self.expanding)):
            for n, block in enumerate(blocks, start=1):
                out.append((f"{prefix}{n}.norm.running_mean", block.norm.running_mean))
                out.append((f"{prefix}{n}.norm.running_var", block.norm.running_var))
        return out

    def forward(self, x: SignalTensor, tape: Tape | None = None,
                training: bool = False) -> SignalTensor:
        if x.channels != 1:
            raise ValidationError(f"expected a single input channel, got {x.channels}")
        if x.length != self.config.input_len:
            raise ValidationError(
                f"input length {x.length} != configured {self.config.input_len}")

        h = self.ensemble.forward(x, tape, training)
        skips: list[SignalTensor] = []
        for block in self.contracting:
            h = block.forward(h, tape, training)
            skips.append(h)

        levels = self.config.levels
        for n, block in enumerate(self.expanding):
            skip = None if n == 0 else skips[levels - 1 - n]
            target_len = self._enc_lengths[levels - 1 - n]
            h = block.forward(h, skip, target_len, tape, training)

        return self.denoise.forward(h, tape, training)

    def predict(self, scg: np.ndarray) -> np.ndarray:
        """Inference on raw arrays: (w,), (b, w), or (b, 1, w) in; same rank out."""
        arr = np.asarray(scg, dtype=self.dtype)
        squeeze = arr.ndim
        if arr.ndim == 1:
            arr = arr[None, None, :]
        elif arr.ndim == 2:
            arr = arr[:, None, :]
        out = self._infer(arr)
        if squeeze == 1:
            return out[0, 0]
        if squeeze == 2:
            return out[:, 0, :]
        return out

    def _infer(self, x: np.ndarray) -> np.ndarray:
        """Untaped inference-mode forward of a (b, 1, w) array.

        Windows are independent in inference, so on a second core
        (``nn.pool.second_core``) a batch of two or more runs as two halves
        at once (``nn.pool.run_halves``), the pool's worker taking the
        second. Each GEMM then sees a shorter N dimension only, which
        leaves every output element's summation order, and so its bits,
        unchanged. A half below ``SPLIT_MIN_WORK`` stays on this thread:
        its ops are too small to pay for the two threads' hand-offs of the
        GIL. The forward is untaped, so its kernels do not split again.
        """
        def fill(lo, hi):
            out[lo:hi] = self.forward(SignalTensor(x[lo:hi]), tape=None,
                                      training=False).values

        half = len(x) // 2
        pool = second_core() if half * self._window_work >= SPLIT_MIN_WORK else None
        out = np.empty((len(x), 1, self.config.input_len), dtype=self.dtype)
        run_halves(pool, fill, len(x))
        return out


def build_model(config: ModelConfig, seed: int = 0, dtype=DEFAULT_DTYPE) -> SeismoNet:
    """Instantiate the network with Xavier-initialized weights.

    One generator seeded with ``seed`` fills the parameters in declaration
    order; biases and batch-norm shifts start at 0, batch-norm scales at 1.
    """
    model = SeismoNet(config, dtype=dtype)
    model.params.initialize(np.random.default_rng(seed))
    return model
