"""Differentiable kernel ops: worked examples, properties, gradients."""
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import projection_check
from seismonet.errors import NumericError, ValidationError
from seismonet.model import ModelConfig, build_model
from seismonet.nn import (
    BatchNormState,
    ConvSpec,
    GradSlot,
    Parameter,
    ParamStore,
    SignalTensor,
    Tape,
    add,
    batchnorm1d,
    concat_channels,
    conv1d,
    conv_transpose1d,
    crop_or_pad,
    grad_check,
    leaky_relu,
    lr_schedule,
    resize_linear,
    sgd_step,
    smooth_l1_loss,
    xavier_uniform_init,
)
from seismonet.nn import ops


def tensor(values):
    return SignalTensor(np.asarray(values, dtype=np.float64))


# ----------------------------------------------------------------------
# conv1d
# ----------------------------------------------------------------------

def test_conv1d_hand_example():
    x = tensor([[[1.0, 2.0, 3.0]]])
    w = Parameter(np.array([[[1.0, 0.0, -1.0]]]))
    b = Parameter(np.zeros(1))
    y = conv1d(x, w, b, ConvSpec(1, 1, 3))
    np.testing.assert_allclose(y.values, [[[-2.0]]])


def test_conv1d_identity_kernel(rng):
    x = tensor(rng.normal(size=(2, 3, 9)))
    w = Parameter(np.eye(3)[:, :, None])
    b = Parameter(np.zeros(3))
    y = conv1d(x, w, b, ConvSpec(3, 3, 1))
    np.testing.assert_allclose(y.values, x.values)


def test_conv1d_strided_length():
    x = tensor(np.zeros((1, 1, 10)))
    w = Parameter(np.zeros((1, 1, 5)))
    b = Parameter(np.zeros(1))
    y = conv1d(x, w, b, ConvSpec(1, 1, 5, stride=2, padding=2))
    assert y.length == 5


def test_conv1d_channel_mismatch():
    x = tensor(np.zeros((1, 2, 8)))
    with pytest.raises(ValidationError, match="channel mismatch"):
        conv1d(x, Parameter(np.zeros((1, 1, 3))), Parameter(np.zeros(1)),
               ConvSpec(1, 1, 3))


def test_conv1d_output_too_short():
    x = tensor(np.zeros((1, 1, 2)))
    with pytest.raises(ValidationError, match="output length"):
        conv1d(x, Parameter(np.zeros((1, 1, 5))), Parameter(np.zeros(1)),
               ConvSpec(1, 1, 5))


def test_conv1d_length_formula_random(rng):
    for _ in range(50):
        k = int(rng.choice([1, 3, 5, 7]))
        s = int(rng.integers(1, 4))
        p = int(rng.integers(0, 4))
        length = int(rng.integers(max(1, k - 2 * p), 40) + k)
        spec = ConvSpec(1, 1, k, s, p)
        x = tensor(np.zeros((1, 1, length)))
        y = conv1d(x, Parameter(np.zeros((1, 1, k))), Parameter(np.zeros(1)), spec)
        assert y.length == (length + 2 * p - k) // s + 1


# ----------------------------------------------------------------------
# conv_transpose1d
# ----------------------------------------------------------------------

def test_conv_transpose_stamps_kernel():
    x = tensor([[[1.0]]])
    w = Parameter(np.array([[[1.0, 2.0, 3.0]]]))
    b = Parameter(np.zeros(1))
    y = conv_transpose1d(x, w, b, ConvSpec(1, 1, 3, transposed=True))
    np.testing.assert_allclose(y.values, [[[1.0, 2.0, 3.0]]])


def test_conv_transpose_stride_two_length():
    x = tensor([[[1.0, 1.0]]])
    w = Parameter(np.array([[[1.0]]]))
    b = Parameter(np.zeros(1))
    y = conv_transpose1d(x, w, b, ConvSpec(1, 1, 1, stride=2, transposed=True))
    assert y.length == 3
    np.testing.assert_allclose(y.values, [[[1.0, 0.0, 1.0]]])


def test_conv_transpose_zero_weights_zero_output(rng):
    x = tensor(rng.normal(size=(2, 3, 6)))
    w = Parameter(np.zeros((3, 2, 5)))
    b = Parameter(np.zeros(2))
    y = conv_transpose1d(x, w, b, ConvSpec(3, 2, 5, stride=2, padding=2,
                                           transposed=True))
    np.testing.assert_array_equal(y.values, np.zeros_like(y.values))


def test_conv_transpose_length_formula_random(rng):
    for _ in range(50):
        k = int(rng.choice([1, 3, 5]))
        s = int(rng.integers(1, 4))
        p = int(rng.integers(0, (k + 1) // 2))
        length = int(rng.integers(2, 20))
        spec = ConvSpec(1, 1, k, s, p, transposed=True)
        if spec.out_length(length) < 1:
            continue
        x = tensor(np.zeros((1, 1, length)))
        y = conv_transpose1d(x, Parameter(np.zeros((1, 1, k))),
                             Parameter(np.zeros(1)), spec)
        assert y.length == (length - 1) * s + k - 2 * p


def test_transposed_conv_is_adjoint_of_conv(rng):
    for _ in range(20):
        cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        k = int(rng.choice([1, 3, 5]))
        s = int(rng.integers(1, 3))
        p = int(rng.integers(0, (k + 1) // 2))
        n_out = int(rng.integers(2, 8))
        length = (n_out - 1) * s + k - 2 * p  # conv output length == n_out exactly
        if length < 1 or length + 2 * p < k:
            continue
        w = Parameter(rng.normal(size=(cout, cin, k)))
        zero_out = Parameter(np.zeros(cout))
        zero_in = Parameter(np.zeros(cin))
        x = tensor(rng.normal(size=(2, cin, length)))
        y = tensor(rng.normal(size=(2, cout, n_out)))
        conv_x = conv1d(x, w, zero_out, ConvSpec(cin, cout, k, s, p))
        assert conv_x.length == n_out
        # shared weight buffer, transposed layout (in=cout, out=cin)
        wt = Parameter(w.values)
        back_y = conv_transpose1d(y, wt, zero_in,
                                  ConvSpec(cout, cin, k, s, p, transposed=True))
        assert back_y.length == length
        lhs = float((conv_x.values * y.values).sum())
        rhs = float((x.values * back_y.values).sum())
        assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(lhs))


# ----------------------------------------------------------------------
# batchnorm1d
# ----------------------------------------------------------------------

def _bn_state(channels, gamma=None, beta=None):
    g = Parameter(np.ones(channels) if gamma is None else np.asarray(gamma, float))
    b = Parameter(np.zeros(channels) if beta is None else np.asarray(beta, float))
    return BatchNormState(g, b)


def test_batchnorm_constant_input_zero_output():
    x = tensor(np.full((2, 3, 5), 7.0))
    y = batchnorm1d(x, _bn_state(3), training=True)
    np.testing.assert_allclose(y.values, 0.0, atol=1e-6)


def test_batchnorm_zero_gamma_outputs_beta():
    x = tensor(np.random.default_rng(0).normal(size=(2, 2, 6)))
    y = batchnorm1d(x, _bn_state(2, gamma=[0.0, 0.0], beta=[4.0, -1.0]), training=True)
    np.testing.assert_allclose(y.values[:, 0], 4.0)
    np.testing.assert_allclose(y.values[:, 1], -1.0)


def test_batchnorm_normalization_identity(rng):
    x = tensor(rng.normal(loc=3.0, scale=2.0, size=(4, 3, 50)))
    state = _bn_state(3)
    y = batchnorm1d(x, state, training=True)
    var = x.values.var(axis=(0, 2))
    for c in range(3):
        assert abs(y.values[:, c].mean()) < 1e-6
        expected_gap = state.eps / (var[c] + state.eps)
        assert abs(y.values[:, c].var() - 1.0) <= expected_gap + 1e-9


def test_batchnorm_running_stats_updated(rng):
    x = tensor(rng.normal(loc=1.0, size=(2, 2, 40)))
    state = _bn_state(2)
    batchnorm1d(x, state, training=True)
    assert np.all(state.running_mean != 0)
    assert np.all(state.running_var > 0)


def test_batchnorm_inference_uses_running_stats(rng):
    state = _bn_state(1)
    state.running_mean = np.array([2.0])
    state.running_var = np.array([4.0])
    x = tensor(np.full((1, 1, 4), 6.0))
    y = batchnorm1d(x, state, training=False)
    np.testing.assert_allclose(y.values, (6.0 - 2.0) / np.sqrt(4.0 + state.eps),
                               rtol=1e-6)


def test_batchnorm_single_element_training_rejected():
    x = tensor(np.zeros((1, 2, 1)))
    with pytest.raises(ValidationError):
        batchnorm1d(x, _bn_state(2), training=True)


# ----------------------------------------------------------------------
# leaky_relu / concat / add / resize
# ----------------------------------------------------------------------

def test_leaky_relu_values():
    x = tensor([[[2.0, -1.0, 0.0]]])
    y = leaky_relu(x, 0.01)
    np.testing.assert_allclose(y.values, [[[2.0, -0.01, 0.0]]])


def test_leaky_relu_slope_one_is_identity(rng):
    x = tensor(rng.normal(size=(2, 2, 7)))
    np.testing.assert_array_equal(leaky_relu(x, 1.0).values, x.values)


def test_concat_shapes():
    a = tensor(np.zeros((1, 2, 5)))
    b = tensor(np.ones((1, 3, 5)))
    y = concat_channels(a, b)
    assert y.shape == (1, 5, 5)


def test_concat_with_empty_operand(rng):
    a = tensor(rng.normal(size=(1, 2, 5)))
    empty = SignalTensor(np.zeros((1, 0, 5)))
    np.testing.assert_array_equal(concat_channels(a, empty).values, a.values)


def test_concat_gradient_routes_to_sources(rng):
    a = tensor(rng.normal(size=(2, 2, 4)))
    b = tensor(rng.normal(size=(2, 1, 4)))
    tape = Tape()
    y = concat_channels(a, b, tape=tape)
    y.grad[...] = 1.0  # gradient of sum-of-output
    tape.backward()
    np.testing.assert_array_equal(a.grad, np.ones_like(a.values))
    np.testing.assert_array_equal(b.grad, np.ones_like(b.values))


def test_concat_of_three_is_bitwise_the_nested_pair(rng):
    # values, and input gradients from an output gradient holding -0.0
    shapes = [(2, 3, 6), (2, 1, 6), (2, 2, 6)]
    values = [rng.normal(size=s).astype(np.float32) for s in shapes]
    dy = rng.normal(size=(2, 6, 6)).astype(np.float32)
    dy[0, 0, 0] = dy[1, 4, 2] = dy[0, 5, 5] = -0.0

    def run(join):
        parts = [SignalTensor(v.copy()) for v in values]
        tape = Tape()
        y = join(parts, tape)
        y.grad[...] = dy
        tape.backward()
        return y.values.tobytes(), [p.grad.tobytes() for p in parts]

    flat = run(lambda p, tape: concat_channels(*p, tape=tape))
    nested = run(lambda p, tape: concat_channels(
        concat_channels(p[0], p[1], tape=tape), p[2], tape=tape))
    assert flat == nested


def test_concat_length_mismatch_rejected():
    with pytest.raises(ValidationError):
        concat_channels(tensor(np.zeros((1, 1, 4))), tensor(np.zeros((1, 1, 5))))


def test_resize_identity_returns_same_tensor(rng):
    x = tensor(rng.normal(size=(1, 1, 8)))
    assert resize_linear(x, 8) is x


def test_resize_endpoint_alignment():
    x = tensor(np.arange(5.0)[None, None, :])
    y = resize_linear(x, 9)
    assert y.values[0, 0, 0] == 0.0
    assert y.values[0, 0, -1] == 4.0
    np.testing.assert_allclose(y.values[0, 0], np.arange(9) * 0.5)


def test_crop_or_pad_round_trip(rng):
    x = tensor(rng.normal(size=(1, 2, 10)))
    with pytest.raises(ValidationError, match="shorter"):
        crop_or_pad(x, 6)
    padded = crop_or_pad(x, 13)
    assert padded.length == 13
    np.testing.assert_array_equal(padded.values[:, :, 10:], 0.0)


# ----------------------------------------------------------------------
# smooth_l1_loss
# ----------------------------------------------------------------------

def test_loss_zero_at_equality(rng):
    x = tensor(rng.normal(size=(2, 1, 6)))
    loss = smooth_l1_loss(x, x.values.copy())
    assert type(loss) is float and loss == 0.0


def test_loss_quadratic_branch():
    pred = tensor([[[0.5]]])
    assert smooth_l1_loss(pred, np.zeros((1, 1, 1))) == pytest.approx(0.125)


def test_loss_linear_branch():
    pred = tensor([[[2.0]]])
    assert smooth_l1_loss(pred, np.zeros((1, 1, 1))) == pytest.approx(1.5)


def test_loss_continuous_symmetric_nonnegative():
    def loss_of(d):
        return smooth_l1_loss(tensor([[[d]]]), np.zeros((1, 1, 1)))

    assert loss_of(1.0) == pytest.approx(0.5)
    assert loss_of(1.0 - 1e-9) == pytest.approx(0.5, abs=1e-8)
    for d in np.linspace(-3, 3, 25):
        assert loss_of(float(d)) == pytest.approx(loss_of(float(-d)))
        assert loss_of(float(d)) >= 0
        if d != 0:
            assert loss_of(float(d)) > 0


def test_loss_shape_mismatch_rejected():
    with pytest.raises(ValidationError):
        smooth_l1_loss(tensor(np.zeros((1, 1, 3))), np.zeros((1, 1, 4)))


# ----------------------------------------------------------------------
# xavier init
# ----------------------------------------------------------------------

def test_xavier_bound_fan_three():
    values = xavier_uniform_init((1000,), 3, 3, seed=0)
    assert np.all(np.abs(values) <= 1.0)


def test_xavier_deterministic():
    a = xavier_uniform_init((4, 3, 5), 15, 20, seed=7)
    b = xavier_uniform_init((4, 3, 5), 15, 20, seed=7)
    np.testing.assert_array_equal(a, b)


def test_xavier_uniform_law():
    fan_in, fan_out = 6, 10
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    values = xavier_uniform_init((100000,), fan_in, fan_out, seed=11)
    assert np.max(np.abs(values)) <= bound
    assert abs(values.mean()) < 0.01 * bound


# ----------------------------------------------------------------------
# sgd / schedule
# ----------------------------------------------------------------------

def test_sgd_update_rule():
    store = ParamStore()
    p = store.register("p", np.array([1.0]))
    p.grad[:] = 2.0
    sgd_step(store, lr=0.1)
    assert p.values[0] == pytest.approx(0.8)
    assert p.grad[0] == 0.0


def test_sgd_zero_lr_no_change():
    store = ParamStore()
    p = store.register("p", np.array([3.0, -1.0]))
    p.grad[:] = [5.0, 5.0]
    sgd_step(store, lr=0.0)
    np.testing.assert_array_equal(p.values, [3.0, -1.0])


def test_sgd_quadratic_convergence():
    store = ParamStore()
    p = store.register("p", np.array([0.0]))
    for _ in range(50):
        p.grad[:] = 2.0 * (p.values - 3.0)
        sgd_step(store, lr=0.4)
    assert abs(p.values[0] - 3.0) < 1e-6


def test_sgd_nonfinite_gradient_rejected():
    store = ParamStore()
    p = store.register("p", np.array([1.0]))
    p.grad[:] = np.nan
    with pytest.raises(NumericError, match="p"):
        sgd_step(store, lr=0.1)


def test_parameter_gradient_allocated_on_first_read():
    p = Parameter(np.ones((2, 3), np.float32))
    p.zero_grad()
    assert p._grad is None  # zeroing a gradient never read allocates nothing
    g = p.grad
    assert g.shape == (2, 3) and g.dtype == np.float32 and not g.any()
    p.grad += 2.0
    p.zero_grad()
    assert p._grad is None  # the buffer is dropped, not filled
    assert p.grad is not g and not p.grad.any() and g.all()


def test_sgd_step_and_zero_grad_leave_no_gradient_buffer():
    store = ParamStore()
    a = store.register("a", np.ones((2, 3), np.float32))
    b = store.register("b", np.ones(4, np.float32))
    for reset in (lambda: sgd_step(store, lr=0.5), store.zero_grad):
        a.grad += 1.0
        b.slot.add_owned(np.full(4, 2.0, np.float32))  # adopted, as a kernel's result is
        reset()
        assert [name for name, p in store.items() if p._grad is not None] == []
        assert not a.grad.any() and not b.grad.any()
        store.zero_grad()
    np.testing.assert_array_equal(a.values, np.full((2, 3), 0.5, np.float32))
    np.testing.assert_array_equal(b.values, np.zeros(4, np.float32))


def test_declared_parameters_are_drawn_in_declaration_order():
    store = ParamStore()
    a = store.declare("a", (2, 3), np.float32, lambda rng: rng.uniform(size=(2, 3)))
    b = store.declare("b", (4,), np.float32, lambda rng: 1.0)
    c = store.declare("c", (5,), np.float32, lambda rng: rng.uniform(size=5))
    assert store.names() == ["a", "b", "c"]
    store.initialize(np.random.default_rng(3))
    rng = np.random.default_rng(3)
    np.testing.assert_array_equal(a.values, rng.uniform(size=(2, 3)).astype(np.float32))
    np.testing.assert_array_equal(b.values, np.ones(4, np.float32))
    np.testing.assert_array_equal(c.values, rng.uniform(size=5).astype(np.float32))
    assert c.values.dtype == np.float32


def test_lr_schedule_default_decade_steps():
    assert lr_schedule(0, 0.001, 100, 10) == pytest.approx(0.001)
    assert lr_schedule(100, 0.001, 100, 10) == pytest.approx(0.0001)
    assert lr_schedule(250, 0.001, 100, 10) == pytest.approx(0.00001)


def test_lr_schedule_piecewise_non_increasing():
    values = [lr_schedule(e, 0.01, 7, 3) for e in range(60)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert len(set(values)) == len(set(e // 7 for e in range(60)))


# ----------------------------------------------------------------------
# grad_check harness
# ----------------------------------------------------------------------

def test_grad_check_identity():
    def identity(x):
        return float(x.sum()), [np.ones_like(x)]

    assert grad_check(identity, [np.array([1.0, -2.0, 0.5])]) < 1e-10


def test_grad_check_conv_random_input(rng):
    spec = ConvSpec(3, 2, 3, stride=1, padding=1)
    x = rng.normal(size=(2, 3, 16))
    w = rng.normal(size=(2, 3, 3))
    b = rng.normal(size=2)

    def build(tape, xv, wv, bv):
        xt, wt, bt = SignalTensor(xv), Parameter(wv), Parameter(bv)
        return (xt, wt, bt), conv1d(xt, wt, bt, spec, tape)

    assert projection_check(build, [x, w, b]) < 1e-4


def test_grad_check_loss_away_from_kink(rng):
    pred = rng.normal(size=(1, 1, 12)) * 0.4  # |d| bounded away from 1
    target = np.zeros((1, 1, 12))

    def fn(pv):
        tape = Tape()
        pt = SignalTensor(pv)
        lv = smooth_l1_loss(pt, target, tape=tape)
        tape.backward()
        return lv, [pt.grad]

    assert grad_check(fn, [pred]) < 1e-4


def test_multi_consumer_gradient_accumulation(rng):
    # x feeds both operands of add: gradient doubles
    x = tensor(rng.normal(size=(1, 1, 5)))
    tape = Tape()
    y = add(x, x, tape)
    y.grad[...] = 1.0
    tape.backward()
    np.testing.assert_allclose(x.grad, 2.0)


# ----------------------------------------------------------------------
# lazily allocated gradient buffers
# ----------------------------------------------------------------------

def test_untaped_ops_allocate_no_gradients(rng):
    x = tensor(rng.normal(size=(2, 3, 12)))
    other = tensor(rng.normal(size=(2, 3, 12)))
    w = Parameter(rng.normal(size=(4, 3, 3)))
    wt = Parameter(rng.normal(size=(3, 4, 3)))
    calls = [
        ((x,), conv1d(x, w, Parameter(np.zeros(4)), ConvSpec(3, 4, 3, 2, 1))),
        ((x,), conv_transpose1d(x, wt, Parameter(np.zeros(4)),
                                ConvSpec(3, 4, 3, 2, 1, transposed=True))),
        ((x,), batchnorm1d(x, _bn_state(3), training=True)),
        ((x,), leaky_relu(x, 0.01)),
        ((x, other), concat_channels(x, other, x)),
        ((x, other), add(x, other)),
        ((x,), crop_or_pad(x, 15)),
        ((x,), resize_linear(x, 7)),
    ]
    for inputs, out in calls:
        for t in (*inputs, out):
            assert t._grad is None


@pytest.mark.parametrize("transposed", [False, True])
def test_conv_skips_input_gradient_nothing_reads(rng, transposed):
    values = rng.normal(size=(2, 3, 12))
    shape = (3, 4, 3) if transposed else (4, 3, 3)
    w_values = rng.normal(size=shape)
    op = conv_transpose1d if transposed else conv1d
    spec = ConvSpec(3, 4, 3, 2, 1, transposed=transposed)
    grads = {}
    for requires_grad in (True, False):
        x = SignalTensor(values, requires_grad=requires_grad)
        w, b = Parameter(w_values.copy()), Parameter(np.zeros(4))
        tape = Tape()
        y = op(x, w, b, spec, tape)
        y.grad[...] = 1.0
        tape.backward()
        assert (x._grad is None) == (not requires_grad)
        grads[requires_grad] = (w.grad.tobytes(), b.grad.tobytes())
    assert grads[True] == grads[False]


def test_unread_gradient_accumulates_from_zero(rng):
    x = tensor(rng.normal(size=(1, 2, 5)))
    g = rng.normal(size=(1, 2, 5))
    x.grad += g
    np.testing.assert_array_equal(x.grad, g)
    x.zero_grad()
    assert x._grad is None
    np.testing.assert_array_equal(x.grad, np.zeros_like(g))


@pytest.mark.parametrize("contiguous", [True, False])
def test_adopted_gradient_is_bitwise_zeros_plus_it(contiguous):
    # -0.0 must come out as +0.0, as 0 + (-0) does
    g = np.array([[[-0.0, 0.0, 1.5, -2.0, np.nan, -0.0, 3.0]]], dtype=np.float32)
    if not contiguous:
        g = g[:, :, :5]
    expected = np.zeros(g.shape, np.float32) + g
    slot = GradSlot(g.shape, np.float32)
    slot.add_owned(g)
    assert slot.buffer.flags.c_contiguous
    assert slot.buffer.tobytes() == expected.tobytes()
    slot.add_owned(np.ones(g.shape, np.float32))  # later gradients add in place
    assert slot.buffer.tobytes() == (expected + 1).tobytes()


@pytest.mark.parametrize("transposed", [False, True])
def test_conv_input_gradient_adopts_its_kernel_result(rng, transposed):
    # Stride 2 on an odd length: the correlation input gradient is a slice of
    # a buffer one sample longer, so the conv keeps a contiguous copy of it.
    x = SignalTensor(rng.normal(size=(2, 3, 11)).astype(np.float32))
    spec = ConvSpec(3, 4, 3, 2, 1, transposed=transposed)
    w = Parameter(rng.normal(size=spec.weight_shape).astype(np.float32))
    tape = Tape()
    y = (conv_transpose1d if transposed else conv1d)(x, w, Parameter(np.zeros(4, np.float32)),
                                                     spec, tape)
    dy = rng.normal(size=y.shape).astype(np.float32)
    y.grad[...] = dy
    tape.backward()
    kernel = (ops._corr_forward(dy, w.values, 2, 1) if transposed
              else ops._corr_input_grad(dy, w.values, 2, 1, 11))
    assert x.grad.flags.c_contiguous
    assert x.grad.tobytes() == (np.zeros(x.shape, np.float32) + kernel).tobytes()


def test_adopting_without_the_sign_pass_keeps_the_array_as_is():
    g = np.array([[[-0.0, 0.0, 1.5]]], dtype=np.float32)
    slot = GradSlot(g.shape, np.float32)
    slot.add_owned(g, signed_zeros=False)
    assert slot.buffer is g
    assert np.signbit(slot.buffer[0, 0, 0])


@pytest.mark.parametrize("kernel", ["input_grad_taps", "input_grad_columns", "forward_taps"])
def test_zero_started_kernels_hold_no_negative_zero(rng, kernel):
    # Every product is -0.0; a kernel that adds into np.zeros still gives +0.0.
    out_ch = 128 if kernel == "input_grad_columns" else 4
    w = np.full((out_ch, 5, 3), -0.0, np.float32)
    if kernel == "forward_taps":
        result = ops._corr_forward(np.abs(rng.normal(size=(2, 5, 11))).astype(np.float32),
                                   w, 2, 1)
    else:
        dy = np.abs(rng.normal(size=(2, out_ch, 6))).astype(np.float32)
        result = ops._corr_input_grad(dy, w, 2, 1, 11)
    assert ops._use_columns(out_ch, 5) == (kernel == "input_grad_columns")
    if kernel == "forward_taps":
        assert not ops._may_hold_negative_zero(w)
    assert not np.signbit(result).any()


@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("channels", [(3, 4), (5, 4), (4, 3), (4, 5)])
def test_conv_input_gradient_is_zeros_plus_kernel_with_negative_zero_weights(
        rng, transposed, channels):
    # Both kernel families, forward and transposed: with -0.0 weights every
    # product is -0.0, and the adopted gradient is still zeros + kernel.
    in_ch, out_ch = channels
    spec = ConvSpec(in_ch, out_ch, 3, 1, 1, transposed=transposed)
    x = SignalTensor(rng.normal(size=(2, in_ch, 9)).astype(np.float32))
    w = Parameter(np.full(spec.weight_shape, -0.0, np.float32))
    tape = Tape()
    y = (conv_transpose1d if transposed else conv1d)(
        x, w, Parameter(np.zeros(out_ch, np.float32)), spec, tape)
    dy = np.abs(rng.normal(size=y.shape)).astype(np.float32)
    y.grad[...] = dy
    tape.backward()
    kernel = (ops._corr_forward(dy, w.values, 1, 1) if transposed
              else ops._corr_input_grad(dy, w.values, 1, 1, 9))
    assert x.grad.tobytes() == (np.zeros(x.shape, np.float32) + kernel).tobytes()


def test_adopted_conv_gradient_takes_a_later_write_through_a_reshape(rng):
    # The conv's closure runs first and adopts its result as x's gradient;
    # resize_linear's closure then adds into that buffer through a reshape.
    values = rng.normal(size=(2, 3, 11))
    w = rng.normal(size=(4, 3, 3))
    dy_resize, dy_conv = rng.normal(size=(2, 3, 7)), rng.normal(size=(2, 4, 6))

    def resize(x, tape):
        return resize_linear(x, 7, tape)

    def conv(x, tape):
        return conv1d(x, Parameter(w), Parameter(np.zeros(4)), ConvSpec(3, 4, 3, 2, 1), tape)

    def input_grad(*ops_and_grads):
        x, tape = tensor(values), Tape()
        for op, dy in ops_and_grads:
            op(x, tape).grad[...] = dy
        tape.backward()
        return x.grad

    both = input_grad((resize, dy_resize), (conv, dy_conv))
    np.testing.assert_allclose(
        both, input_grad((resize, dy_resize)) + input_grad((conv, dy_conv)), rtol=1e-12)


def test_output_gradient_set_by_index_reaches_input(rng):
    # the projection_check idiom: out.grad[...] = proj on a never-read buffer
    x = tensor(rng.normal(size=(2, 2, 6)))
    tape = Tape()
    y = leaky_relu(x, 0.5, tape)
    proj = rng.normal(size=y.shape)
    y.grad[...] = proj
    tape.backward()
    np.testing.assert_array_equal(x.grad, proj * np.where(x.values > 0, 1.0, 0.5))


def test_leaky_relu_bitwise_equals_factor_formula(rng):
    for dtype in (np.float32, np.float64):
        for slope in (0.0, 0.01, 1.0, 2.5):
            values = rng.normal(size=(2, 3, 40)).astype(dtype)
            values[0, 0, :3] = (0.0, -0.0, np.nan)
            factor = np.where(values > 0, dtype(1), dtype(slope))
            x = SignalTensor(values)
            tape = Tape()
            y = leaky_relu(x, slope, tape)
            bits = np.dtype(f"u{values.itemsize}")
            np.testing.assert_array_equal(y.values.view(bits), (values * factor).view(bits))
            dy = rng.normal(size=values.shape).astype(dtype)
            y.grad[...] = dy
            tape.backward()
            accumulated = np.zeros_like(dy) + dy * factor  # 0 + (-0) is +0
            np.testing.assert_array_equal(x.grad.view(bits), accumulated.view(bits))


# ----------------------------------------------------------------------
# lean tape: closures keep only what the backward reads
# ----------------------------------------------------------------------

def test_tape_holds_only_arrays_the_backward_reads(rng):
    x = tensor(rng.normal(size=(2, 3, 12)))
    w, b = Parameter(rng.normal(size=(4, 3, 3))), Parameter(np.zeros(4))
    tape = Tape()
    h = conv1d(x, w, b, ConvSpec(3, 4, 3, 1, 1), tape)
    conv_in, conv_out = weakref.ref(x.values), weakref.ref(h.values)
    h = batchnorm1d(h, _bn_state(4), training=True, tape=tape)
    y = leaky_relu(h, 0.01, tape)
    del x, h
    # batch norm reads xhat, not its input; the conv reads its input
    assert conv_out() is None
    assert conv_in() is not None
    y.grad[...] = 1.0
    tape.backward()
    assert conv_in() is None


def _taped_step_memory(cfg, batch):
    """tracemalloc bytes of one taped training step of a fresh model:
    (held at the end of the forward, peak during the backward), both
    above the level before the forward."""
    model = build_model(cfg, seed=1)
    rng = np.random.default_rng(0)
    inputs = rng.normal(size=(batch, 1, cfg.input_len)).astype(np.float32)
    targets = rng.normal(size=(batch, 1, cfg.input_len)).astype(np.float32)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tape = Tape()
        pred = model.forward(SignalTensor(inputs, requires_grad=False), tape=tape,
                             training=True)
        smooth_l1_loss(pred, targets, tape=tape)
        del pred
        saved = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        tape.backward()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return saved, peak


def _largest_activation(cfg, batch, monkeypatch):
    sizes = []
    init = SignalTensor.__init__

    def recording_init(self, values, requires_grad=True):
        init(self, values, requires_grad)
        sizes.append(self.values.nbytes)

    with monkeypatch.context() as patch:
        patch.setattr(SignalTensor, "__init__", recording_init)
        build_model(cfg, seed=1).forward(
            SignalTensor(np.zeros((batch, 1, cfg.input_len), np.float32)), training=True)
    return max(sizes)


def test_backward_peak_stays_near_forward_level(monkeypatch):
    # The desk model, batch 16. Each closure's saved arrays and output
    # gradient are freed once it has run, so the backward peak stays a few
    # activations above what the forward left. It sits in the first closure
    # to run, the last conv's, which frees nothing before it allocates its
    # input gradient and its kernel's scratch: 2.0 largest activations
    # measured. Keeping every closure alive until the end took 29.
    cfg, batch = ModelConfig(input_len=200, levels=3, base_channels=8), 16
    saved, peak = _taped_step_memory(cfg, batch)
    assert peak - saved <= 3 * _largest_activation(cfg, batch, monkeypatch)


@pytest.mark.slow
def test_paper_default_step_memory():
    # Paper-default net (levels 5, base 32, 2500 samples), batch 16.
    # Measured: 122 MiB held at the end of the forward and a backward peak
    # of 124 MiB on one CPU, 125 MiB on two (the parameter gradients run on
    # the pool's worker); keeping every closure and tensor alive took 264
    # and 490 MiB. Every step peaks like this first one, since the SGD step
    # drops the parameter gradients.
    saved, peak = _taped_step_memory(ModelConfig(input_len=2500), 16)
    mib = 2 ** 20
    assert saved <= 128 * mib
    assert peak <= 132 * mib
