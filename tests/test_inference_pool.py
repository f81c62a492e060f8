"""Inference on two cores: the same bytes and the same memory as on one."""
import platform

import pytest

from conftest import run_python, two_cpus

pytestmark = two_cpus

# Hashes of paper-default and desk predictions at several batch sizes, and a
# validation loss, then the live thread count (2 once the pool has run). The
# desk net sits under the size floor, so its split is forced here to check
# its layer shapes too.
PREDICTIONS = """
import hashlib
import threading
import numpy as np
import seismonet.model
from seismonet import (ModelConfig, SynthParams, build_model, evaluate_loss,
                       segment_windows, synth_record)

paper_floor = seismonet.model.SPLIT_MIN_WORK
for config, floor in ((ModelConfig(input_len=2500), paper_floor),
                      (ModelConfig(input_len=200, levels=3, base_channels=8), 0)):
    seismonet.model.SPLIT_MIN_WORK = floor
    model = build_model(config, seed=0)
    for batch in (2, 3, 5, 16):
        x = np.random.default_rng(batch).normal(size=(batch, config.input_len))
        print(config.input_len, batch, hashlib.sha256(model.predict(x).tobytes()).hexdigest())
seismonet.model.SPLIT_MIN_WORK = paper_floor
model = build_model(ModelConfig(input_len=2500), seed=0)
windows = segment_windows(synth_record(SynthParams(fs=250.0, duration_s=40.0, seed=3)),
                          10.0, 5.0)
print(repr(evaluate_loss(model, windows, batch_size=5)))
print("threads", threading.active_count())
"""

# Four caller threads, more than the cores, start predicting together with
# a short switch interval, so their first calls race to make the pool. Each
# must get the one-thread forward's bytes, and one worker serves them all.
CONCURRENT_CALLERS = """
import sys
import threading
import numpy as np
import seismonet.model
from seismonet import ModelConfig, build_model
from seismonet.nn import SignalTensor

seismonet.model.SPLIT_MIN_WORK = 0
model = build_model(ModelConfig(input_len=200, levels=3, base_channels=8), seed=0)
inputs = [np.random.default_rng(i).normal(size=(5, 1, 200)).astype(np.float32)
          for i in range(4)]
expected = [model.forward(SignalTensor(x)).values for x in inputs]
results = {}
start = threading.Barrier(4)

def call(i):
    start.wait(timeout=60)
    results[i] = [model.predict(inputs[i]) for _ in range(20)]

sys.setswitchinterval(1e-5)
callers = [threading.Thread(target=call, args=(i,)) for i in range(4)]
for t in callers:
    t.start()
for t in callers:
    t.join(timeout=120)
assert not any(t.is_alive() for t in callers)
assert all(np.array_equal(got, expected[i]) for i in range(4) for got in results[i])
print("threads", threading.active_count())
"""

# Peak RSS of a loop of paper-default batch-4 predictions. The model is built
# twice first, so the heap holds a freed model's worth of memory that the
# forward passes can reuse, as in a benchmark or service that set up before
# scoring.
PEAK_RSS = """
import resource
import numpy as np
from seismonet import ModelConfig, build_model

for _ in range(2):
    model = None
    model = build_model(ModelConfig(input_len=2500), seed=0)
rng = np.random.default_rng(0)
for _ in range(8):
    model.predict(rng.normal(size=(4, 2500)))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def test_split_predictions_and_loss_are_the_one_thread_bytes():
    split = run_python(PREDICTIONS).splitlines()
    single = run_python(PREDICTIONS, one_cpu=True).splitlines()
    assert split[-1] == "threads 2" and single[-1] == "threads 1"
    assert len(split) == 10
    assert split[:-1] == single[:-1]


def test_concurrent_callers_share_one_worker_and_get_their_own_bytes():
    assert run_python(CONCURRENT_CALLERS).split() == ["threads", "2"]


@pytest.mark.slow
def test_split_adds_no_malloc_arena_to_the_peak_rss():
    # Measured gap on a 2-vCPU VM: +0.4 to +1.2 MB with the pool's one-arena
    # cap, +4.9 to +5.1 MB without it (the worker's own arena).
    split = float(run_python(PEAK_RSS))
    single = float(run_python(PEAK_RSS, one_cpu=True))
    assert split - single <= 3.0, (split, single)


# Once the pool exists, two freed 24 MiB blocks stay in the heap, so making
# them again faults no page. Under glibc's dynamic thresholds every round
# took fresh pages from the system again: about 1000 minor faults a round
# on a 2-vCPU VM whose kernel backs numpy's large arrays with transparent
# huge pages (48 MiB is 12288 pages of 4 KiB).
REUSED_HEAP = """
import resource
import numpy as np
from seismonet.nn.pool import second_core

assert second_core() is not None
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    a = np.ones(6 << 20, np.float32)
    b = np.ones(6 << 20, np.float32)
    del a, b
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc")
def test_pool_process_reuses_freed_heap_without_page_faults():
    faults = [int(n) for n in run_python(REUSED_HEAP).split()]
    assert faults[0] > 0 and max(faults[1:]) <= 10, faults
