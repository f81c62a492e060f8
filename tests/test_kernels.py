"""Both convolution kernel families against a padded im2col reference.

The reference kernels below build the full im2col copy (forward), scatter
the per-column gradient back tap by tap (input gradient) and contract the
sliding windows with ``tensordot`` (weight gradient). The production kernels
(per-tap or column GEMMs, chosen from the weight shape) sum the same products
in a different order, so the comparison uses a tolerance fixed by the dtype,
relative to the reference's largest magnitude.
"""
from collections import Counter

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from seismonet.nn import ConvSpec, Parameter, SignalTensor, Tape, conv1d, conv_transpose1d
from seismonet.nn.ops import (_blocked_gemm, _corr_forward, _corr_input_grad, _corr_weight_grad,
                              _use_columns)

TOL = {np.float32: 1e-5, np.float64: 1e-12}
CASES = 60
# (in_ch, out_ch) ranges, half-open, and case counts: the first reaches both
# kernel families, the second only the per-tap family, the last two (wide
# outputs, few inputs) only the column family.
CHANNELS = [((1, 5), (1, 5), CASES), ((4, 9), (1, 9), 20),
            ((1, 6), (128, 131), 20), ((1, 4), (4, 9), 20)]


# ----------------------------------------------------------------------
# reference (im2col) kernels
# ----------------------------------------------------------------------

def _windows(x, kernel, stride, padding):
    """Strided sliding windows of the padded input: (b, c, n_out, kernel)."""
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    return sliding_window_view(x, kernel, axis=2)[:, :, ::stride, :]


def ref_forward(x, w, stride, padding):
    b = x.shape[0]
    out_ch, in_ch, kernel = w.shape
    win = _windows(x, kernel, stride, padding)
    n_out = win.shape[2]
    cols = win.transpose(0, 2, 1, 3).reshape(b, n_out, in_ch * kernel)
    y = cols @ w.reshape(out_ch, in_ch * kernel).T
    return y.transpose(0, 2, 1)


def ref_input_grad(dy, w, stride, padding, input_len):
    b, _, n_out = dy.shape
    out_ch, in_ch, kernel = w.shape
    dcols = dy.transpose(0, 2, 1) @ w.reshape(out_ch, in_ch * kernel)
    dcols = dcols.reshape(b, n_out, in_ch, kernel).transpose(0, 2, 1, 3)
    dxp = np.zeros((b, in_ch, input_len + 2 * padding), dtype=dy.dtype)
    for j in range(kernel):
        dxp[:, :, j:j + stride * n_out:stride] += dcols[:, :, :, j]
    if padding:
        return dxp[:, :, padding:padding + input_len]
    return dxp


def ref_weight_grad(dy, x, stride, padding, kernel):
    win = _windows(x, kernel, stride, padding)
    # dw[o,i,j] = sum_{b,l} dy[b,o,l] * win[b,i,l,j]
    return np.tensordot(dy, win, axes=([0, 2], [0, 2]))


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def random_case(rng, dtype, in_range, out_range):
    """One random conv geometry with arrays for it; output length >= 1."""
    kernel = int(rng.choice([1, 3, 5, 7]))
    stride = int(rng.integers(1, 4))
    padding = int(rng.integers(0, kernel // 2 + 1))
    batch = int(rng.integers(1, 5))
    in_ch, out_ch = int(rng.integers(*in_range)), int(rng.integers(*out_range))
    length = int(rng.integers(max(1, kernel - 2 * padding), 40))
    n_out = (length + 2 * padding - kernel) // stride + 1
    x = rng.normal(size=(batch, in_ch, length)).astype(dtype)
    w = rng.normal(size=(out_ch, in_ch, kernel)).astype(dtype)
    dy = rng.normal(size=(batch, out_ch, n_out)).astype(dtype)
    return x, w, dy, stride, padding


def cases(rng, dtype):
    """Random cases over every ``CHANNELS`` range, in order."""
    for in_range, out_range, count in CHANNELS:
        for _ in range(count):
            yield random_case(rng, dtype, in_range, out_range)


def family(w):
    """The kernel family the rule picks for correlation weights w."""
    return "column" if _use_columns(*w.shape[:2]) else "per-tap"


def assert_both_families(checked: Counter):
    assert checked["column"] > 0 and checked["per-tap"] > 0, checked


def assert_close(actual, reference, dtype):
    assert actual.shape == reference.shape
    assert actual.dtype == reference.dtype
    scale = max(float(np.abs(reference).max()), np.finfo(dtype).tiny)
    err = float(np.abs(actual - reference).max()) / scale
    assert err <= TOL[dtype], f"relative error {err:.3e} > {TOL[dtype]:.0e}"


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_kernels_match_reference(dtype):
    checked = Counter()
    for x, w, dy, stride, padding in cases(np.random.default_rng(20261018), dtype):
        checked[family(w)] += 1
        length, kernel = x.shape[2], w.shape[2]
        assert_close(_corr_forward(x, w, stride, padding),
                     ref_forward(x, w, stride, padding), dtype)
        assert_close(_corr_input_grad(dy, w, stride, padding, length),
                     ref_input_grad(dy, w, stride, padding, length), dtype)
        assert_close(_corr_weight_grad(dy, x, stride, padding, kernel),
                     ref_weight_grad(dy, x, stride, padding, kernel), dtype)
    assert_both_families(checked)


@pytest.mark.parametrize("kernel, stride, padding, length", [(5, 2, 1, 4), (3, 1, 1, 60)])
def test_tap_by_tap_backward_kernels_match_reference(kernel, stride, padding, length):
    # Wide enough that the column family's gradient kernels go one tap at a
    # time; in the first geometry tap 0 reads only padding.
    rng = np.random.default_rng(7)
    n_out = (length + 2 * padding - kernel) // stride + 1
    x = rng.normal(size=(64, 128, length)).astype(np.float32)
    w = rng.normal(size=(128, 128, kernel)).astype(np.float32)
    dy = rng.normal(size=(64, 128, n_out)).astype(np.float32)
    assert _use_columns(128, 128) and _blocked_gemm(128, 64 * n_out, 128)
    assert_close(_corr_weight_grad(dy, x, stride, padding, kernel),
                 ref_weight_grad(dy, x, stride, padding, kernel), np.float32)
    assert_close(_corr_input_grad(dy, w, stride, padding, length),
                 ref_input_grad(dy, w, stride, padding, length), np.float32)


def test_input_grad_leaves_unreached_tail_zero():
    # length 8, k=3, s=3, p=0: outputs read 0..7 but input 8 is never read
    dy = np.ones((1, 1, 3))
    w = np.ones((1, 1, 3))
    dx = _corr_input_grad(dy, w, 3, 0, 10)
    np.testing.assert_array_equal(dx, [[[1, 1, 1, 1, 1, 1, 1, 1, 1, 0]]])
    np.testing.assert_array_equal(dx, ref_input_grad(dy, w, 3, 0, 10))


# ----------------------------------------------------------------------
# ops end to end
# ----------------------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv1d_matches_reference(dtype):
    rng = np.random.default_rng(7)
    checked = Counter()
    for x, w, dy, stride, padding in cases(rng, dtype):
        checked[family(w)] += 1
        out_ch, in_ch, kernel = w.shape
        bias = rng.normal(size=out_ch).astype(dtype)
        xt, wt, bt = SignalTensor(x), Parameter(w), Parameter(bias)
        tape = Tape()
        y = conv1d(xt, wt, bt, ConvSpec(in_ch, out_ch, kernel, stride, padding), tape)
        assert_close(y.values, ref_forward(x, w, stride, padding) + bias[None, :, None],
                     dtype)
        y.grad[...] = dy
        tape.backward()
        assert_close(xt.grad, ref_input_grad(dy, w, stride, padding, x.shape[2]), dtype)
        assert_close(wt.grad, ref_weight_grad(dy, x, stride, padding, kernel), dtype)
        assert_close(bt.grad, dy.sum(axis=(0, 2)), dtype)
    assert_both_families(checked)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_transpose1d_matches_reference(dtype):
    rng = np.random.default_rng(8)
    checked = Counter()
    # the conv case's output is the transposed conv's input and vice versa
    for out_grad, w, x, stride, padding in cases(rng, dtype):
        in_ch, out_ch, kernel = w.shape
        out_len = out_grad.shape[2]
        spec = ConvSpec(in_ch, out_ch, kernel, stride, padding, transposed=True)
        if spec.out_length(x.shape[2]) != out_len:
            continue  # the conv's length rounded down; not a transposed-conv shape
        checked[family(w)] += 1
        bias = rng.normal(size=out_ch).astype(dtype)
        xt, wt, bt = SignalTensor(x), Parameter(w), Parameter(bias)
        tape = Tape()
        y = conv_transpose1d(xt, wt, bt, spec, tape)
        assert_close(y.values,
                     ref_input_grad(x, w, stride, padding, out_len) + bias[None, :, None],
                     dtype)
        y.grad[...] = out_grad
        tape.backward()
        assert_close(xt.grad, ref_forward(out_grad, w, stride, padding), dtype)
        assert_close(wt.grad, ref_weight_grad(x, out_grad, stride, padding, kernel), dtype)
        assert_close(bt.grad, out_grad.sum(axis=(0, 2)), dtype)
    assert_both_families(checked)
