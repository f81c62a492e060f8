"""Differentiable 1-D kernels: convolutions, batch norm, activations, loss.

Every op takes value tensors, computes the forward result, and (when given a
``Tape``) records a closure computing exact input/parameter gradients. The
convolution family shares three core kernels, because a transposed
convolution is algebraically the input-gradient of a forward convolution
with the same stride and padding:

    forward correlation   y[b,o,l] = sum_{i,j} xpad[b,i,s*l+j] w[o,i,j]
    input gradient        dxpad[b,i,s*l+j] += sum_o w[o,i,j] dy[b,o,l]
    weight gradient       dw[o,i,j] = sum_{b,l} dy[b,o,l] xpad[b,i,s*l+j]

Each kernel has two implementations. The per-tap family loops over the taps
j and does one batched GEMM per tap, with W_j = w[:, :, j] made contiguous
once per call (an accumulating GEMM per tap, Anderson et al. 2017):

    forward               y += W_j @ xpad[:, :, j::s]
    input gradient        dxpad[:, :, j::s] += W_j^T @ dy
    weight gradient       dw[:, :, j] = sum_b dy_b @ xpad_b[:, j::s]^T

It builds no im2col copy. For stride s > 1 the input is first split into s
contiguous phases x[:, :, r::s], so every tap reads a unit-stride view of
one phase (a BLAS operand without a copy); the input gradient accumulates
into strided views of dx itself, which a caller then adopts whole. The
zero padding is never materialized: each tap covers only the output
positions whose reads land inside the input.

The column family (im2col, Chellapilla et al. 2006) builds one buffer
cols[(i, j), (b, l)] = xpad[b, i, s*l + j] of shape (in*k, batch*n_out),
zero where a tap reads padding, with the batch folded into the GEMM's
N dimension, and does one 2-D GEMM per kernel:

    forward               y = W(o, i*k) @ cols, transposed back to (b, o, n)
    input gradient        dcols = W(o, i*k)^T @ dy(o, b*n), then k strided adds
    weight gradient       dw = dy(o, b*n) @ cols^T, reshaped to (o, i, k)

The backward rebuilds cols rather than keeping it on the tape: holding
every wide layer's buffer until the backward pass would add about 100 MB to
a paper-default training step at batch 16.

The family follows from the correlation weight shape (out, in, k) alone, so
a layer's forward and backward always use the same one: columns when
out >= 128 or in < 4, per-tap otherwise. Wide layers have short outputs
(79-313 columns per window at the paper's shapes), and folding the batch
gives their GEMMs a long N; a single input channel makes each per-tap GEMM
rank 1, where one rank-k GEMM is several times faster. On the narrow
layers the column copy costs more than the GEMMs it feeds (the o=10, i=32,
k=5 weight gradient at length 1250, batch 16, takes about 3.5x as long).

A taped convolution (a training step's) uses the one-worker pool in
``nn.pool`` when it is available and half the batch x weight values x the
longer length reaches ``SPLIT_MIN_MACS``. Its forward and input-gradient
kernels split the batch, both halves writing into one output: the worker
is handed one half, and the calling thread runs the other and then takes
back the worker's if it has not started (``run_halves``), so a split never
waits behind queued jobs.
Its backward computes the input gradient first, then hands the weight and
bias gradients to the worker as one job (``Tape.defer``): nothing later in
the backward reads them, so the calling thread goes on at once with the
rest of the chain. A job calls only the kernels and ``GradSlot.add_owned``,
never an op or the tape. The gradient kernels build their column operands
one tap at a time, so the worker's and the calling thread's temporaries
stay small together: the weight gradient builds the (in, batch*n) columns
of tap j and does dw[:, :, j] = dy(o, b*n) @ cols_j^T, the input gradient
(also a transposed convolution's forward) does dcols_j = W_j^T @ dy(o, b*n),
and the per-tap weight gradient fills one tap's per-window partials
(b, out, in) at a time. The column forward keeps its one GEMM: its taps
cut the GEMM's K dimension, which would change the summation order.

None of this changes a bit. Per-tap GEMMs are per window, so a batch split
runs the same GEMM calls. A column GEMM cut along N or M, by batch half or
by tap, sums every output element in the same order (Goto & van de Geijn,
ACM TOMS 2008) unless a part falls to a small-matrix or GEMV path
(``SMALL_GEMM_MACS``); such a GEMM stays whole. An untaped forward never
splits here: ``SeismoNet.predict`` splits whole batches instead.

Weight layouts: (out_ch, in_ch, kernel) for ``conv1d`` and
(in_ch, out_ch, kernel) for ``conv_transpose1d``, so a shared buffer makes
the two operators exact adjoints of each other.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from ..errors import ValidationError
from .pool import run_halves, second_core
from .tensor import Parameter, SignalTensor, Tape

# The smallest taped convolution that uses the second core, in multiply-adds:
# half the batch x weight values x the longer of the input and output
# lengths.
SPLIT_MIN_MACS = 3e7
# OpenBLAS computes a GEMM of at most 100**3 multiply-adds in a small-matrix
# kernel (single precision, AVX-512 builds), and numpy computes a product
# with a one-row or one-column operand as a GEMV. Both sum in another order
# than the blocked GEMM, so a column-family GEMM is cut, in batch halves or
# by tap, only when each part stays above the one and clear of the other.
SMALL_GEMM_MACS = 100 ** 3


@dataclass(frozen=True)
class ConvSpec:
    """Shape contract for one convolution layer."""

    in_channels: int
    out_channels: int
    kernel: int
    stride: int = 1
    padding: int = 0
    transposed: bool = False

    def __post_init__(self):
        if min(self.in_channels, self.out_channels, self.kernel, self.stride) < 1:
            raise ValidationError(f"conv spec requires positive dims: {self}")
        if self.padding < 0:
            raise ValidationError(f"padding must be >= 0: {self}")

    @property
    def weight_shape(self) -> tuple[int, int, int]:
        """(out, in, kernel), or (in, out, kernel) for a transposed conv."""
        if self.transposed:
            return (self.in_channels, self.out_channels, self.kernel)
        return (self.out_channels, self.in_channels, self.kernel)

    def out_length(self, in_length: int) -> int:
        if self.transposed:
            return (in_length - 1) * self.stride + self.kernel - 2 * self.padding
        return (in_length + 2 * self.padding - self.kernel) // self.stride + 1


# ---------------------------------------------------------------------------
# Core correlation kernels (no autograd; shared by conv and transposed conv).
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def _taps(kernel: int, stride: int, padding: int, in_len: int,
          n_out: int) -> tuple[tuple[int, int, int, int, int], ...]:
    """(j, r, q, lo, hi) for each tap j that reads inside the input.

    Output l of tap j reads input s*l + j - padding, which is element l + q
    of phase r = (j - padding) mod s, with q = floor((j - padding) / s).
    Outputs [lo, hi) are those whose read lies inside the unpadded input;
    the others read zero padding and are skipped. A layer's three kernels,
    in every step, read the same geometry, so it is computed once.
    """
    taps = []
    for j in range(kernel):
        r, q = (j - padding) % stride, (j - padding) // stride
        phase_len = (in_len - r + stride - 1) // stride
        lo, hi = max(0, -q), min(n_out, phase_len - q)
        if lo < hi:
            taps.append((j, r, q, lo, hi))
    return tuple(taps)


def _phases(x: np.ndarray, stride: int) -> list[np.ndarray]:
    """The input split into ``stride`` contiguous phases x[:, :, r::stride]."""
    if stride == 1:
        return [x]
    return [np.ascontiguousarray(x[:, :, r::stride]) for r in range(stride)]


def _use_columns(out_ch: int, in_ch: int) -> bool:
    """True when correlation weights (out_ch, in_ch, k) use the column family.

    Wide layers gain a long GEMM N by folding the batch; few input channels
    give k GEMMs of inner dimension in_ch, which one GEMM of inner dimension
    in_ch*k replaces.
    """
    return out_ch >= 128 or in_ch < 4


def _may_hold_negative_zero(w: np.ndarray) -> bool:
    """True when ``_corr_forward(x, w)`` may return -0.0.

    Its column family copies GEMM results into ``np.empty``. Its per-tap
    family, and both families of ``_corr_input_grad``, add into
    ``np.zeros``, and +0.0 + (-0.0) is +0.0.
    """
    return _use_columns(*w.shape[:2])


def _tap_span(stride: int, r: int, q: int, lo: int, hi: int) -> slice:
    """The input samples that outputs [lo, hi) of tap (r, q) read (and add to)."""
    start = stride * (lo + q) + r
    return slice(start, start + stride * (hi - lo - 1) + 1, stride)


def _columns(x: np.ndarray, kernel: int, stride: int, padding: int,
             n_out: int) -> np.ndarray:
    """cols[(i, j), (b, l)] = xpad[b, i, s*l + j], shape (in*kernel, batch*n_out)."""
    b, in_ch, in_len = x.shape
    cols = np.zeros((in_ch, kernel, b, n_out), dtype=x.dtype)
    for j, r, q, lo, hi in _taps(kernel, stride, padding, in_len, n_out):
        cols[:, j, :, lo:hi] = x[:, :, _tap_span(stride, r, q, lo, hi)].transpose(1, 0, 2)
    return cols.reshape(in_ch * kernel, b * n_out)


def _blocked_gemm(m: int, k: int, n: int) -> bool:
    """True when an (m, k) @ (k, n) product runs as a blocked GEMM.

    A GEMM cut along M or N into such products gives every output element
    the bits of the whole one.
    """
    return m * k * n > SMALL_GEMM_MACS and min(m, k, n) >= 2


def _gemm_pool(pool, m: int, k: int, b: int, n: int):
    """``pool`` if an (m, k) @ (k, b*n) GEMM keeps its bits cut into batch halves.

    The smaller half, (m, k) @ (k, (b//2)*n), must stay a blocked GEMM.
    """
    return pool if _blocked_gemm(m, k, b // 2 * n) else None


def _fold(dy: np.ndarray) -> np.ndarray:
    """(batch, ch, n) -> (ch, batch*n), the GEMM operand of the column family."""
    b, ch, n = dy.shape
    return np.ascontiguousarray(dy.transpose(1, 0, 2)).reshape(ch, b * n)


def _corr_forward(x: np.ndarray, w: np.ndarray, stride: int, padding: int,
                  pool=None) -> np.ndarray:
    b, in_ch, in_len = x.shape
    out_ch, _, kernel = w.shape
    n_out = (in_len + 2 * padding - kernel) // stride + 1
    dtype = np.result_type(x, w)
    if _use_columns(out_ch, in_ch):
        w_cols = w.reshape(out_ch, in_ch * kernel)
        y = np.empty((b, out_ch, n_out), dtype=dtype)  # see _may_hold_negative_zero
        pool = _gemm_pool(pool, out_ch, in_ch * kernel, b, n_out)

        def fill(b0, b1):
            cols = _columns(x[b0:b1], kernel, stride, padding, n_out)
            y[b0:b1] = (w_cols @ cols).reshape(out_ch, b1 - b0, n_out).transpose(1, 0, 2)
    else:
        w_taps = np.ascontiguousarray(w.transpose(2, 0, 1))  # (kernel, out, in)
        y = np.zeros((b, out_ch, n_out), dtype=dtype)

        def fill(b0, b1):
            phases, part = _phases(x[b0:b1], stride), y[b0:b1]
            for j, r, q, lo, hi in _taps(kernel, stride, padding, in_len, n_out):
                part[:, :, lo:hi] += w_taps[j] @ phases[r][:, :, lo + q:hi + q]
    run_halves(pool, fill, b)
    return y


def _corr_input_grad(dy: np.ndarray, w: np.ndarray, stride: int, padding: int,
                     input_len: int, pool=None) -> np.ndarray:
    """The correlation's input gradient; also a transposed convolution's forward.

    The column family runs its GEMM one tap's rows at a time, an M-split
    with the same bits that holds an (in, batch*n) block of ``dcols``
    rather than all in*k rows, unless a tap's GEMM would not stay blocked.
    """
    b, _, n_out = dy.shape
    out_ch, in_ch, kernel = w.shape
    dx = np.zeros((b, in_ch, input_len), dtype=np.result_type(dy, w))
    taps = [(j, lo, hi, _tap_span(stride, r, q, lo, hi))
            for j, r, q, lo, hi in _taps(kernel, stride, padding, input_len, n_out)]
    columns = _use_columns(out_ch, in_ch)
    if columns and _blocked_gemm(in_ch, out_ch, b * n_out):
        pool = _gemm_pool(pool, in_ch, out_ch, b, n_out)

        def fill(b0, b1):
            dy_cols, part = _fold(dy[b0:b1]), dx[b0:b1]
            for j, lo, hi, span in taps:
                w_j = np.ascontiguousarray(w[:, :, j])  # W_j^T: a transposed view, as in one GEMM
                dcols = (w_j.T @ dy_cols).reshape(in_ch, b1 - b0, n_out)
                part[:, :, span] += dcols.transpose(1, 0, 2)[:, :, lo:hi]
    elif columns:
        w_cols_t = w.reshape(out_ch, in_ch * kernel).T
        pool = _gemm_pool(pool, in_ch * kernel, out_ch, b, n_out)

        def fill(b0, b1):
            dcols = w_cols_t @ _fold(dy[b0:b1])
            dcols = dcols.reshape(in_ch, kernel, b1 - b0, n_out).transpose(2, 0, 1, 3)
            part = dx[b0:b1]
            for j, lo, hi, span in taps:
                part[:, :, span] += dcols[:, :, j, lo:hi]
    else:
        w_taps = np.ascontiguousarray(w.transpose(2, 1, 0))  # (kernel, in, out)

        def fill(b0, b1):
            part = dx[b0:b1]
            for j, lo, hi, span in taps:
                part[:, :, span] += w_taps[j] @ dy[b0:b1, :, lo:hi]
    run_halves(pool, fill, b)
    return dx


def _corr_weight_grad(dy: np.ndarray, x: np.ndarray, stride: int, padding: int,
                      kernel: int) -> np.ndarray:
    b, in_ch, in_len = x.shape
    _, out_ch, n_out = dy.shape
    dtype = np.result_type(dy, x)
    taps = _taps(kernel, stride, padding, in_len, n_out)
    if _use_columns(out_ch, in_ch):
        if not _blocked_gemm(out_ch, b * n_out, in_ch):
            cols = _columns(x, kernel, stride, padding, n_out)
            return (_fold(dy) @ cols.T).reshape(out_ch, in_ch, kernel)
        # dy_cols @ cols^T by tap (an N-split of that GEMM) into dw, made first as it outlives all
        dw = np.empty((out_ch, in_ch, kernel), dtype=dtype)
        dy_cols = _fold(dy)
        geometry = {j: (r, q, lo, hi) for j, r, q, lo, hi in taps}
        cols_j = np.empty((in_ch, b, n_out), dtype=x.dtype)
        dw_j = np.empty((out_ch, in_ch), dtype=dtype)
        for j in range(kernel):
            r, q, lo, hi = geometry.get(j, (0, 0, 0, 0))  # a tap of padding only: zeros
            cols_j[:, :, :lo] = 0
            cols_j[:, :, hi:] = 0
            if lo < hi:
                cols_j[:, :, lo:hi] = x[:, :, _tap_span(stride, r, q, lo, hi)].transpose(1, 0, 2)
            np.matmul(dy_cols, cols_j.reshape(in_ch, b * n_out).T, out=dw_j)
            dw[:, :, j] = dw_j
        return dw
    # per-window partials of one tap at a time, then their sum over the batch
    phases = _phases(x, stride)
    partials = np.empty((b, out_ch, in_ch), dtype=dtype)
    dw = np.zeros((out_ch, in_ch, kernel), dtype=dtype)
    for j, r, q, lo, hi in taps:
        np.matmul(dy[:, :, lo:hi], phases[r][:, :, lo + q:hi + q].transpose(0, 2, 1),
                  out=partials)
        dw[:, :, j] = partials.sum(axis=0)
    return dw


# ---------------------------------------------------------------------------
# Differentiable ops.
# ---------------------------------------------------------------------------

def conv1d(x: SignalTensor, weight: Parameter, bias: Parameter, spec: ConvSpec,
           tape: Tape | None = None) -> SignalTensor:
    """Cross-correlation with zero padding; weight shape (out, in, kernel)."""
    if spec.transposed:
        raise ValidationError("conv1d requires a non-transposed spec")
    return _conv(x, weight, bias, spec, tape)


def conv_transpose1d(x: SignalTensor, weight: Parameter, bias: Parameter, spec: ConvSpec,
                     tape: Tape | None = None) -> SignalTensor:
    """Strided transposed convolution; weight shape (in, out, kernel)."""
    if not spec.transposed:
        raise ValidationError("conv_transpose1d requires a transposed spec")
    return _conv(x, weight, bias, spec, tape)


def _conv(x: SignalTensor, weight: Parameter, bias: Parameter, spec: ConvSpec,
          tape: Tape | None) -> SignalTensor:
    """The body of both convolutions.

    A transposed convolution runs the correlation kernels' adjoints: its
    forward is the correlation's input gradient, its input gradient is the
    correlation forward, and its weight gradient is the correlation's with
    the roles of input and output gradient swapped.
    """
    if x.channels != spec.in_channels:
        raise ValidationError(
            f"channel mismatch: input has {x.channels}, spec expects {spec.in_channels}")
    if weight.shape != spec.weight_shape:
        raise ValidationError(f"weight shape {weight.shape} does not match {spec}")
    in_len = x.length
    out_len = spec.out_length(in_len)
    if out_len < 1:
        raise ValidationError(
            f"output length < 1 for input length {in_len} with {spec}")

    transposed, stride, padding = spec.transposed, spec.stride, spec.padding
    half_macs = x.batch // 2 * weight.values.size * max(in_len, out_len)
    pool = second_core() if tape is not None and half_macs >= SPLIT_MIN_MACS else None
    if transposed:
        y_values = _corr_input_grad(x.values, weight.values, stride, padding, out_len, pool)
    else:
        y_values = _corr_forward(x.values, weight.values, stride, padding, pool)
    y_values += bias.values[None, :, None]
    y = SignalTensor(y_values)

    if tape is not None:
        xs, ys, x_values = x.slot, y.slot, x.values

        def backward():
            dy = ys.grad
            if xs.requires_grad:
                xs.add_owned(
                    _corr_forward(dy, weight.values, stride, padding, pool) if transposed
                    else _corr_input_grad(dy, weight.values, stride, padding, in_len, pool),
                    signed_zeros=transposed and _may_hold_negative_zero(weight.values))
            # the correlation's output gradient and input: (dy, x), swapped when transposed
            pair = (x_values, dy) if transposed else (dy, x_values)

            def parameter_grads():  # no op and no tape: it may run on the worker
                weight.slot.add_owned(_corr_weight_grad(*pair, stride, padding, spec.kernel))
                bias.slot.add_owned(dy.sum(axis=(0, 2)))
            if pool is None:
                parameter_grads()
            else:
                tape.defer(pool.submit(parameter_grads))
        tape.record(backward)
    return y


class BatchNormState:
    """Per-channel affine parameters plus running statistics."""

    def __init__(self, gamma: Parameter, beta: Parameter, momentum: float = 0.1,
                 eps: float = 1e-5):
        if not 0 < momentum <= 1:
            raise ValidationError(f"momentum must be in (0, 1], got {momentum}")
        if eps <= 0:
            raise ValidationError(f"eps must be > 0, got {eps}")
        self.gamma = gamma
        self.beta = beta
        self.momentum = momentum
        self.eps = eps
        self.running_mean = np.zeros_like(gamma.values)
        self.running_var = np.ones_like(gamma.values)

    @property
    def channels(self) -> int:
        return self.gamma.values.shape[0]


def batchnorm1d(x: SignalTensor, state: BatchNormState, training: bool,
                tape: Tape | None = None) -> SignalTensor:
    """Normalize per channel over (batch, length), then scale and shift.

    Training mode uses batch statistics and updates the running estimate;
    inference mode uses the running statistics.
    """
    if x.channels != state.channels:
        raise ValidationError(
            f"channel mismatch: input has {x.channels}, state has {state.channels}")
    gamma = state.gamma
    beta = state.beta
    m = x.batch * x.length

    if training:
        if m < 2:
            raise ValidationError("training-mode batch norm needs batch*length >= 2")
        mean = x.values.mean(axis=(0, 2))
        xhat = x.values - mean[None, :, None]
        var = np.einsum("bcl,bcl->c", xhat, xhat) / m
        mom = state.momentum
        state.running_mean = (1 - mom) * state.running_mean + mom * mean
        state.running_var = (1 - mom) * state.running_var + mom * var * (m / (m - 1))
    else:
        mean, var = state.running_mean, state.running_var
        xhat = x.values - mean[None, :, None]
    inv_std = 1.0 / np.sqrt(var + state.eps)
    xhat *= inv_std[None, :, None]

    # Without a tape nothing reads xhat again, so y takes over its buffer.
    y_values = np.multiply(xhat, gamma.values[None, :, None],
                           out=xhat if tape is None else None)
    y_values += beta.values[None, :, None]
    y = SignalTensor(y_values)

    if tape is not None:
        xs, ys = x.slot, y.slot

        def backward():
            dy = ys.grad
            sum_dy = dy.sum(axis=(0, 2))
            sum_dy_xhat = np.einsum("bcl,bcl->c", dy, xhat)
            gamma.grad += sum_dy_xhat
            beta.grad += sum_dy
            scale = gamma.values * inv_std
            ys.buffer = None  # nothing reads dy or xhat again: dx is made in their buffers
            if training:
                # dx = scale/m * (m*dy - sum(dy) - xhat*sum(dy*xhat))
                dx = np.multiply(dy, scale[None, :, None], out=dy)
                dx -= (scale / m * sum_dy)[None, :, None]
                dx -= np.multiply(xhat, (scale / m * sum_dy_xhat)[None, :, None], out=xhat)
                xs.add_owned(dx)
            else:
                xs.add_owned(np.multiply(dy, scale[None, :, None], out=dy))
        tape.record(backward)
    return y


def leaky_relu(x: SignalTensor, slope: float, tape: Tape | None = None) -> SignalTensor:
    """y = x for x > 0, slope*x otherwise; the subgradient at 0 is slope."""
    if slope < 0:
        raise ValidationError(f"slope must be >= 0, got {slope}")
    s = x.dtype.type(slope)
    # x*1 or x*s exactly: for s <= 1 the larger of x and s*x, else the smaller.
    y_values = x.values * s
    (np.maximum if slope <= 1 else np.minimum)(x.values, y_values, out=y_values)
    y = SignalTensor(y_values)

    if tape is not None:
        xs, ys, positive = x.slot, y.slot, x.values > 0

        def backward():
            dx, ys.buffer = ys.grad, None  # nothing reads dy again: dx is made in it
            factor = np.empty(dx.shape[1:], dx.dtype)  # one window's, reused
            for part, mask in zip(dx, positive):
                np.multiply(~mask, s, out=factor)  # 1 on the mask and s elsewhere, each exact
                part *= np.add(factor, mask, out=factor)
            xs.add_owned(dx)
        tape.record(backward)
    return y


def concat_channels(*parts: SignalTensor, tape: Tape | None = None) -> SignalTensor:
    """Stack tensors along the channel axis: one copy, one backward closure."""
    first = parts[0]
    for part in parts[1:]:
        if part.batch != first.batch or part.length != first.length:
            raise ValidationError(
                f"concat requires equal batch and length: {first.shape} vs {part.shape}")
    y = SignalTensor(np.concatenate([part.values for part in parts], axis=1))

    if tape is not None:
        bounds = list(accumulate((part.channels for part in parts), initial=0))
        slots, ys = [part.slot for part in parts], y.slot

        def backward():
            for slot, lo, hi in zip(slots, bounds, bounds[1:]):
                slot.grad += ys.grad[:, lo:hi, :]
        tape.record(backward)
    return y


def add(a: SignalTensor, b: SignalTensor, tape: Tape | None = None) -> SignalTensor:
    """Elementwise sum of two same-shape tensors (residual connections)."""
    if a.shape != b.shape:
        raise ValidationError(f"add requires equal shapes: {a.shape} vs {b.shape}")
    y = SignalTensor(a.values + b.values)

    if tape is not None:
        a_slot, b_slot, ys = a.slot, b.slot, y.slot

        def backward():
            a_slot.grad += ys.grad
            b_slot.grad += ys.grad
        tape.record(backward)
    return y


def crop_or_pad(x: SignalTensor, target_len: int, tape: Tape | None = None) -> SignalTensor:
    """Right-zero-pad along the length axis to target_len (>= the input length)."""
    length = x.length
    if length == target_len:
        return x
    if length > target_len:
        raise ValidationError(f"cannot pad length {length} to a shorter {target_len}")
    y = SignalTensor(np.pad(x.values, ((0, 0), (0, 0), (0, target_len - length))))
    if tape is not None:
        xs, ys = x.slot, y.slot

        def backward():
            xs.grad += ys.grad[:, :, :length]
        tape.record(backward)
    return y


def resize_linear(x: SignalTensor, target_len: int, tape: Tape | None = None) -> SignalTensor:
    """Endpoint-aligned linear-interpolation resize along the length axis."""
    length = x.length
    if length == target_len:
        return x
    if target_len < 1:
        raise ValidationError(f"target length must be >= 1, got {target_len}")
    if target_len == 1:
        pos = np.zeros(1)
    else:
        pos = np.arange(target_len) * ((length - 1) / (target_len - 1))
    lo = np.floor(pos).astype(np.intp)
    lo = np.minimum(lo, length - 2) if length > 1 else np.zeros(target_len, dtype=np.intp)
    hi = np.minimum(lo + 1, length - 1)
    frac = (pos - lo).astype(x.dtype)
    y = SignalTensor(x.values[:, :, lo] * (1 - frac) + x.values[:, :, hi] * frac)

    if tape is not None:
        xs, ys = x.slot, y.slot

        def backward():
            b, c, _ = xs.shape
            dxf = xs.grad.reshape(b * c, length)
            dyf = ys.grad.reshape(b * c, target_len)
            rows = np.arange(b * c)[:, None]
            np.add.at(dxf, (rows, lo[None, :]), dyf * (1 - frac))
            np.add.at(dxf, (rows, hi[None, :]), dyf * frac)
        tape.record(backward)
    return y


def smooth_l1_loss(pred: SignalTensor, target, tape: Tape | None = None) -> float:
    """Huber-style loss, the mean over elements: quadratic below unit error,
    linear above.

    Per element of d = pred - target: 0.5*d^2 where |d| < 1, |d| - 0.5
    otherwise. The gradient w.r.t. pred is d/n where |d| < 1 and sign(d)/n
    otherwise, for n elements.
    """
    target_values = target.values if isinstance(target, SignalTensor) else np.asarray(target)
    if pred.shape != target_values.shape:
        raise ValidationError(
            f"shape mismatch: pred {pred.shape} vs target {target_values.shape}")

    d = pred.values - target_values
    abs_d = np.abs(d)
    quad = abs_d < 1.0
    elementwise = np.where(quad, 0.5 * d * d, abs_d - 0.5)
    n = d.size
    value = float(elementwise.sum()) / n

    if tape is not None:
        ps = pred.slot

        def backward():
            g = np.where(quad, d, np.sign(d)) / n
            ps.grad += g.astype(ps.dtype, copy=False)
        tape.record(backward)
    return value
