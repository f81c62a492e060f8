"""Training on two cores: the taped convolutions split over the one-worker
pool, with the same bytes as on one core and about the same memory."""
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from conftest import run_python, two_cpus
from seismonet.nn.pool import run_halves

# Every correlation geometry of the desk and paper-default nets (transposed
# layers in the correlation's own terms, so stride-2 up-sampling layers are
# there too), run through the three kernels at several batch sizes on one
# thread and given a one-worker pool. No size floor applies to a kernel that
# is given a pool; only a column-family GEMM too small to keep its bits
# stays whole. Prints the number of geometries and of kernel calls that
# split, then each mismatch.
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

class CountingPool(ThreadPoolExecutor):
    submits = 0

    def submit(self, *args):
        CountingPool.submits += 1
        return super().submit(*args)

pool = CountingPool(max_workers=1)
mismatches = []
rng = np.random.default_rng(0)
for w_shape, n_in, n_out, stride, padding in sorted(geometries):
    (out_ch, in_ch, kernel), w = w_shape, rng.normal(size=w_shape).astype(np.float32)
    for batch in (1, 3, 5, 16):
        x = rng.normal(size=(batch, in_ch, n_in)).astype(np.float32)
        dy = rng.normal(size=(batch, out_ch, n_out)).astype(np.float32)
        for name, run in (
                ("forward", lambda p: ops._corr_forward(x, w, stride, padding, p)),
                ("input_grad", lambda p: ops._corr_input_grad(dy, w, stride, padding, n_in, p)),
                ("weight_grad", lambda p: ops._corr_weight_grad(dy, x, stride, padding,
                                                                kernel, p))):
            if run(None).tobytes() != run(pool).tobytes():
                mismatches.append((name, w_shape, n_in, stride, padding, batch))
print(len(geometries), CountingPool.submits)
for mismatch in mismatches:
    print(*mismatch)
"""

# SHA-256 of the parameter gradients of one paper-default taped step at
# batch 16, then the live thread count (2 once a kernel has split).
PAPER_STEP = """
import hashlib
import threading
import numpy as np
from seismonet import ModelConfig, build_model
from seismonet.nn import SignalTensor, Tape, smooth_l1_loss

model = build_model(ModelConfig(input_len=2500), seed=0)
rng = np.random.default_rng(5)
x, t = rng.normal(size=(2, 16, 1, 2500)).astype(np.float32)
tape = Tape()
pred = model.forward(SignalTensor(x, requires_grad=False), tape=tape, training=True)
smooth_l1_loss(pred, t, tape=tape)
tape.backward()
digest = hashlib.sha256()
for _, param in model.params.items():
    digest.update(param.grad.tobytes())
print(digest.hexdigest())
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
    geometries, splits = map(int, lines[0].split())
    assert geometries >= 90 and splits >= 2 * geometries * 3
    assert lines[1:] == []


@two_cpus
def test_paper_default_step_gradients_are_the_one_cpu_bytes():
    # seismonet pins numpy's OpenBLAS to one thread itself, so neither the
    # thread variables nor the CPU count change a bit, and two CPUs always
    # get the pool.
    unset = {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": None}
    single = run_python(PAPER_STEP, one_cpu=True, env=unset).splitlines()
    assert single[1] == "threads 1"
    for setting in ({}, {"OPENBLAS_NUM_THREADS": "1"}, {"OMP_NUM_THREADS": "1"},
                    {"OPENBLAS_NUM_THREADS": "2"}):
        split = run_python(PAPER_STEP, env={**unset, **setting}).splitlines()
        assert split == [single[0], "threads 2"], setting


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
