"""Training on two cores: the taped convolutions split their forward kernels
over the one-worker pool, and the worker computes their parameter gradients
while the calling thread runs the backward chain, with the same bytes as on
one core and about the same memory."""
import ast
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import SRC, run_python, two_cpus
from seismonet.nn import ConvSpec, Parameter, SignalTensor, Tape, conv1d, ops
from seismonet.nn.pool import run_halves

# Every correlation geometry of the desk and paper-default nets (transposed
# layers in the correlation's own terms, so stride-2 up-sampling layers are
# there too), at several batch sizes. The forward and the input gradient
# run on one thread and given a one-worker pool: no size floor applies to a
# kernel that is given a pool; only a column-family GEMM too small to keep
# its bits stays whole. The gradient kernels, which build their column
# operands one tap at a time, run against the whole-column GEMM of one
# im2col buffer (and the per-tap weight gradient against all taps'
# partials at once), written out here as the reference. Prints the number
# of geometries, of kernel calls that split and of column-family
# geometries whose gradients went tap by tap, then each mismatch.
KERNEL_SHAPES = """
from concurrent.futures import ThreadPoolExecutor
import numpy as np
from seismonet import ModelConfig, build_model
from seismonet.nn import SignalTensor, Tape, ops

geometries = set()
conv = ops._conv

def recording_conv(x, weight, bias, spec, tape):
    in_len, out_len = x.length, spec.out_length(x.length)
    corr_in, corr_out = (out_len, in_len) if spec.transposed else (in_len, out_len)
    geometries.add((weight.shape, corr_in, corr_out, spec.stride, spec.padding))
    return conv(x, weight, bias, spec, tape)

ops._conv = recording_conv
for config in (ModelConfig(input_len=200, levels=3, base_channels=8),
               ModelConfig(input_len=2500)):
    build_model(config, seed=0).forward(SignalTensor(np.zeros((1, 1, config.input_len),
                                                              np.float32)), Tape(), True)
ops._conv = conv

def columns(x, kernel, stride, padding, n_out):
    # cols[(i, j), (b, l)] = xpad[b, i, s*l + j]
    b, in_ch, in_len = x.shape
    xpad = np.zeros((b, in_ch, in_len + 2 * padding + stride * n_out), x.dtype)
    xpad[:, :, padding:padding + in_len] = x
    cols = np.empty((in_ch, kernel, b, n_out), x.dtype)
    for j in range(kernel):
        cols[:, j] = xpad[:, :, j:j + stride * n_out:stride].transpose(1, 0, 2)
    return cols.reshape(in_ch * kernel, b * n_out)

def fold(a):
    return np.ascontiguousarray(a.transpose(1, 0, 2)).reshape(a.shape[1], -1)

def reference_weight_grad(dy, x, stride, padding, kernel):
    (b, out_ch, n_out), in_ch = dy.shape, x.shape[1]
    if ops._use_columns(out_ch, in_ch):
        cols = columns(x, kernel, stride, padding, n_out)
        return (fold(dy) @ cols.T).reshape(out_ch, in_ch, kernel)
    taps = ops._taps(kernel, stride, padding, x.shape[2], n_out)
    partials = np.empty((len(taps), b, out_ch, in_ch), dy.dtype)
    phases = ops._phases(x, stride)
    for t, (_, r, q, lo, hi) in enumerate(taps):
        np.matmul(dy[:, :, lo:hi], phases[r][:, :, lo + q:hi + q].transpose(0, 2, 1),
                  out=partials[t])
    dw = np.zeros((out_ch, in_ch, kernel), dy.dtype)
    for t, (j, *_) in enumerate(taps):
        dw[:, :, j] = partials[t].sum(axis=0)
    return dw

def reference_input_grad(dy, w, stride, padding, n_in):
    (out_ch, in_ch, kernel), (b, _, n_out) = w.shape, dy.shape
    if not ops._use_columns(out_ch, in_ch):
        return ops._corr_input_grad(dy, w, stride, padding, n_in)
    dcols = w.reshape(out_ch, in_ch * kernel).T @ fold(dy)
    dcols = dcols.reshape(in_ch, kernel, b, n_out).transpose(2, 0, 1, 3)
    dxpad = np.zeros((b, in_ch, n_in + 2 * padding + stride * n_out), dy.dtype)
    for j in range(kernel):
        dxpad[:, :, j:j + stride * n_out:stride] += dcols[:, :, j]
    return dxpad[:, :, padding:padding + n_in]

class CountingPool(ThreadPoolExecutor):
    submits = 0

    def submit(self, *args):
        CountingPool.submits += 1
        return super().submit(*args)

pool = CountingPool(max_workers=1)
mismatches, tap_by_tap = [], set()
rng = np.random.default_rng(0)
for w_shape, n_in, n_out, stride, padding in sorted(geometries):
    (out_ch, in_ch, kernel), w = w_shape, rng.normal(size=w_shape).astype(np.float32)
    for batch in (1, 3, 5, 16):
        x = rng.normal(size=(batch, in_ch, n_in)).astype(np.float32)
        dy = rng.normal(size=(batch, out_ch, n_out)).astype(np.float32)
        for name, run in (
                ("forward", lambda p: ops._corr_forward(x, w, stride, padding, p)),
                ("input_grad", lambda p: ops._corr_input_grad(dy, w, stride, padding, n_in, p))):
            if run(None).tobytes() != run(pool).tobytes():
                mismatches.append((name, w_shape, n_in, stride, padding, batch))
        dx = reference_input_grad(dy, w, stride, padding, n_in)
        for name, got, want in (
                ("input_grad_reference", ops._corr_input_grad(dy, w, stride, padding, n_in), dx),
                ("weight_grad", ops._corr_weight_grad(dy, x, stride, padding, kernel),
                 reference_weight_grad(dy, x, stride, padding, kernel))):
            if got.tobytes() != np.ascontiguousarray(want).tobytes():
                mismatches.append((name, w_shape, n_in, stride, padding, batch))
        if ops._use_columns(out_ch, in_ch) and ops._blocked_gemm(out_ch, batch * n_out, in_ch):
            tap_by_tap.add((w_shape, n_in, stride, padding))
print(len(geometries), CountingPool.submits, len(tap_by_tap))
for mismatch in mismatches:
    print(*mismatch)
"""

# SHA-256 of the parameter gradients of two paper-default taped steps at
# batch 16, with an SGD step after each, then of the parameters, then the
# live thread count (2 once a kernel has split). The first SGD step drops
# every gradient buffer, so the second step's kernels' results are adopted
# again, on the worker when it runs them.
PAPER_STEP = """
import hashlib
import threading
import numpy as np
from seismonet import ModelConfig, build_model
from seismonet.nn import SignalTensor, Tape, sgd_step, smooth_l1_loss

def digest(arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()

model = build_model(ModelConfig(input_len=2500), seed=0)
rng = np.random.default_rng(5)
for _ in range(2):
    x, t = rng.normal(size=(2, 16, 1, 2500)).astype(np.float32)
    tape = Tape()
    pred = model.forward(SignalTensor(x, requires_grad=False), tape=tape, training=True)
    smooth_l1_loss(pred, t, tape=tape)
    tape.backward()
    print(digest(p.grad for _, p in model.params.items()))
    sgd_step(model.params, 0.01)
print(digest(p.values for _, p in model.params.items()))
print("threads", threading.active_count())
"""

# Desk-net training and prediction at their own size floors, then the
# live thread count: 1 while nothing has split.
DESK_TRAINING = """
import threading
import numpy as np
from seismonet import (ModelConfig, SynthParams, TrainConfig, build_model, labeled_only,
                       segment_windows, split_dataset, synth_record, train)

record = synth_record(SynthParams(fs=100.0, duration_s=60.0, seed=2))
split = split_dataset(labeled_only(segment_windows(record, 2.0, 1.0, dt_clip=40.0)),
                      (0.6, 0.2, 0.2))
model = build_model(ModelConfig(input_len=200, levels=3, base_channels=8), seed=0)
train(model, split, TrainConfig(epochs=2, batch_size=16))
model.predict(np.zeros((16, 200)))
print("threads", threading.active_count())
"""

# An untaped forward whose kernels are all above a zero floor still runs on
# one thread: only taped ops split, since predict splits whole batches.
UNTAPED_FORWARD = """
import threading
import numpy as np
import seismonet.model
from seismonet import ModelConfig, build_model
from seismonet.nn import ops

ops.SPLIT_MIN_MACS = 0
seismonet.model.SPLIT_MIN_WORK = float("inf")
model = build_model(ModelConfig(input_len=200, levels=3, base_channels=8), seed=0)
model.predict(np.zeros((16, 200)))
print("threads", threading.active_count())
"""

# Peak RSS of three paper-default taped steps at batch 16.
STEP_PEAK_RSS = """
import resource
import numpy as np
from seismonet import ModelConfig, build_model
from seismonet.nn import SignalTensor, Tape, smooth_l1_loss

model = build_model(ModelConfig(input_len=2500), seed=0)
rng = np.random.default_rng(0)
for _ in range(3):
    x, t = rng.normal(size=(2, 16, 1, 2500)).astype(np.float32)
    tape = Tape()
    pred = model.forward(SignalTensor(x, requires_grad=False), tape=tape, training=True)
    smooth_l1_loss(pred, t, tape=tape)
    del pred
    tape.backward()
    model.params.zero_grad()
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def test_run_halves_waits_for_the_worker_before_reraising():
    done = []

    def fill(lo, hi):
        if lo == 0:
            raise RuntimeError("first half")
        threading.Event().wait(0.05)
        done.append((lo, hi))

    with ThreadPoolExecutor(max_workers=1) as pool:
        with pytest.raises(RuntimeError, match="first half"):
            run_halves(pool, fill, 5)
        assert done == [(2, 5)]
    run_halves(None, lambda lo, hi: done.append((lo, hi)), 5)
    assert done[-1] == (0, 5)


def test_run_halves_runs_both_halves_here_while_the_worker_is_busy():
    release, halves = threading.Event(), []
    with ThreadPoolExecutor(max_workers=1) as pool:
        busy = pool.submit(release.wait)
        run_halves(pool, lambda lo, hi: halves.append((lo, hi, threading.get_ident())), 5)
        assert not busy.done()  # it returned without waiting behind the queued job

        def fail(lo, hi):
            raise RuntimeError("first half")
        timeout = threading.Timer(5.0, release.set)  # so a wait behind the job ends
        timeout.start()
        with pytest.raises(RuntimeError, match="first half"):
            run_halves(pool, fail, 5)
        assert not busy.done()  # a failed half withdraws the worker's turn too
        timeout.cancel()
        release.set()
    assert halves == [(0, 2, threading.get_ident()), (2, 5, threading.get_ident())]


def test_tape_backward_waits_for_every_deferred_job_before_reraising():
    done = []

    def job(tag, fail=False):
        threading.Event().wait(0.05)
        done.append(tag)
        if fail:
            raise RuntimeError(tag)

    def chain_fails():
        raise ValueError("chain")

    with ThreadPoolExecutor(max_workers=1) as pool:
        # a deferred job fails: backward re-raises it once the later job has run too
        tape = Tape()
        tape.record(lambda: tape.defer(pool.submit(job, "second")))
        tape.record(lambda: tape.defer(pool.submit(job, "first", True)))
        with pytest.raises(RuntimeError, match="first"):
            tape.backward()
        assert done == ["first", "second"]
        # the chain fails: the jobs submitted before it finish first
        tape = Tape()
        tape.record(chain_fails)
        tape.record(lambda: tape.defer(pool.submit(job, "third")))
        with pytest.raises(ValueError, match="chain"):
            tape.backward()
        assert done == ["first", "second", "third"]
        assert pool.submit(len, "ok").result() == 2


def test_deferred_parameter_gradients_match_one_thread_and_reraise_failures(monkeypatch):
    # In-process, with the pool and floor patched, so any CPU count defers.
    rng = np.random.default_rng(0)
    spec = ConvSpec(8, 8, 5, stride=2, padding=2)
    x_values = rng.normal(size=(4, 8, 60)).astype(np.float32)
    w_values = rng.normal(size=spec.weight_shape).astype(np.float32)

    def step():
        weight, bias = Parameter(w_values.copy()), Parameter(np.zeros(8, np.float32))
        x, tape = SignalTensor(x_values), Tape()
        y = conv1d(x, weight, bias, spec, tape)
        y.grad[...] = 1.0
        tape.backward()
        return x.grad.tobytes(), weight.grad.tobytes(), bias.grad.tobytes()

    one_thread = step()
    workers = []
    with ThreadPoolExecutor(max_workers=1) as pool:
        monkeypatch.setattr(ops, "second_core", lambda: pool)
        monkeypatch.setattr(ops, "SPLIT_MIN_MACS", 0)
        assert step() == one_thread
        weight_grad = ops._corr_weight_grad

        def failing(*args):
            threading.Event().wait(0.05)
            workers.append(threading.current_thread() is not threading.main_thread())
            raise MemoryError("weight gradient")

        monkeypatch.setattr(ops, "_corr_weight_grad", failing)
        with pytest.raises(MemoryError, match="weight gradient"):
            step()
        assert workers == [True]
        monkeypatch.setattr(ops, "_corr_weight_grad", weight_grad)
        assert step() == one_thread

@two_cpus
def test_second_core_is_none_on_the_pool_worker():
    # A job that split again would queue behind itself on the one worker.
    out = run_python("""
from seismonet.nn.pool import second_core
pool = second_core()
print(pool is not None, pool.submit(second_core).result() is None)
""")
    assert out.split() == ["True", "True"]


def test_split_kernels_give_the_one_thread_bytes_on_every_model_shape():
    lines = run_python(KERNEL_SHAPES).splitlines()
    geometries, splits, tap_by_tap = map(int, lines[0].split())
    # two kernels that may split at batch 3, 5 and 16: six calls per
    # geometry, of which only the column GEMMs too small to keep their bits
    # (the desk net's and the entry convolutions') stay whole
    assert geometries >= 90 and splits >= 5 * geometries and tap_by_tap >= 10
    assert lines[1:] == []


@two_cpus
def test_paper_default_step_gradients_are_the_one_cpu_bytes():
    # seismonet pins numpy's OpenBLAS to one thread itself, so neither the
    # thread variables nor the CPU count change a bit, and two CPUs always
    # get the pool.
    unset = {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": None}
    single = run_python(PAPER_STEP, one_cpu=True, env=unset).splitlines()
    assert single[-1] == "threads 1"
    for setting in ({}, {"OPENBLAS_NUM_THREADS": "1"}, {"OMP_NUM_THREADS": "1"},
                    {"OPENBLAS_NUM_THREADS": "2"}):
        split = run_python(PAPER_STEP, env={**unset, **setting}).splitlines()
        assert split == [*single[:-1], "threads 2"], setting


ENV_NAMES = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def test_no_package_module_reads_the_environment():
    # The bits above hold in every environment because nothing under the
    # package reads a variable; a module that starts to would go unnoticed.
    readers = []
    for path in sorted((SRC / "seismonet").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ENV_NAMES:
                readers.append(f"{path.name}:{node.lineno}: .{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                readers += [f"{path.name}:{node.lineno}: from os import {alias.name}"
                            for alias in node.names if alias.name in ENV_NAMES]
    assert readers == []


@two_cpus
def test_desk_training_stays_on_one_thread():
    assert run_python(DESK_TRAINING).split() == ["threads", "1"]


@two_cpus
def test_untaped_forward_kernels_do_not_split():
    assert run_python(UNTAPED_FORWARD).split() == ["threads", "1"]


@pytest.mark.slow
@two_cpus
def test_split_step_peak_rss_is_near_one_cpu():
    # Measured gap on a 2-vCPU VM: -1.7 to +3.3 MB per pair of runs (about
    # 212 MB split against 209.5 MB on one CPU). Now and then one run reads
    # about 10 MB high, as glibc happens to place the heap; the smallest of
    # three runs per side does not.
    split = min(float(run_python(STEP_PEAK_RSS)) for _ in range(3))
    single = min(float(run_python(STEP_PEAK_RSS, one_cpu=True)) for _ in range(3))
    assert split - single <= 6.0, (split, single)
