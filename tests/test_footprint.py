"""What a process pays for: imports, checkpoint loads, gradient buffers."""
import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import seismonet
import seismonet.model
from conftest import run_python
from seismonet.checkpoint import load_checkpoint, save_checkpoint
from seismonet.model import ModelConfig, build_model

DESK = ModelConfig(input_len=200, levels=3, base_channels=8)

# A default train, eval or infer process never needs scipy.signal; only the
# prominence floor and the ECG annotator import it.
PIPELINE = """
import sys
from pathlib import Path
from seismonet import (ModelConfig, SynthParams, ValleyParams, build_model,
                       evaluate_subject, load_checkpoint, save_checkpoint,
                       segment_windows, synth_record)
path = Path(sys.argv[1]) / "model.smn"
save_checkpoint(build_model(ModelConfig(input_len=100, levels=2, base_channels=4),
                            seed=1), path)
model = load_checkpoint(path)
windows = segment_windows(synth_record(SynthParams(fs=50.0, duration_s=12.0, seed=2)),
                          2.0, 1.0)
model.predict(windows[0].scg_seg)
evaluate_subject(model, windows, 50.0, ValleyParams(min_prominence=float(sys.argv[2])))
print("scipy.signal" in sys.modules)
"""


@pytest.mark.parametrize("min_prominence, loaded", [("0", "False"), ("0.5", "True")])
def test_scipy_signal_loads_only_for_the_prominence_floor(tmp_path, min_prominence,
                                                          loaded):
    src = Path(seismonet.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", PIPELINE, str(tmp_path), min_prominence],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [loaded]


def test_import_and_small_model_inference_start_no_thread():
    # Importing seismonet pins BLAS to one thread and starts no pool, so
    # only the size floor keeps the desk net's batches on the calling thread.
    threads = run_python("""
import threading
import seismonet
import numpy as np
print(threading.active_count())
model = seismonet.build_model(seismonet.ModelConfig(input_len=200, levels=3,
                                                    base_channels=8), seed=0)
model.predict(np.zeros((16, 200)))
print(threading.active_count())
""")
    assert threads.split() == ["1", "1"]


def test_load_runs_no_initializer(tmp_path, monkeypatch):
    model = build_model(DESK, seed=4)
    path = tmp_path / "desk.smn"
    save_checkpoint(model, path)

    def refuse(*args, **kwargs):
        raise AssertionError("an initializer ran")

    monkeypatch.setattr(seismonet.model, "xavier_uniform_init", refuse)
    with pytest.raises(AssertionError, match="initializer ran"):
        build_model(DESK, seed=4)
    loaded = load_checkpoint(path)
    x = np.random.default_rng(0).normal(size=(2, 200))
    np.testing.assert_array_equal(loaded.predict(x), model.predict(x))


def test_load_and_predict_hold_no_parameter_gradient(tmp_path):
    path = tmp_path / "desk.smn"
    save_checkpoint(build_model(DESK, seed=4), path)
    model = load_checkpoint(path)
    model.predict(np.random.default_rng(0).normal(size=(3, 200)))
    model.params.zero_grad()
    assert [name for name, p in model.params.items() if p._grad is not None] == []


def test_paper_default_load_peak_is_near_the_parameter_bytes(tmp_path):
    # The load reads each payload straight into its array, so its traced peak
    # is the parameters plus headers and buffers: 1.01x measured. Drawing an
    # init first and keeping gradient buffers took 2.63x.
    model = build_model(ModelConfig(input_len=2500), seed=0)
    param_bytes = sum(p.values.nbytes for _, p in model.params.items())
    path = tmp_path / "paper.smn"
    save_checkpoint(model, path)
    del model
    tracemalloc.start()
    try:
        load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * param_bytes, peak / param_bytes


def test_desk_checkpoint_bytes_pinned(tmp_path):
    path = tmp_path / "desk.smn"
    save_checkpoint(build_model(DESK, seed=0), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "e2ae68c60b02989f539bb4863df3b540b0869f39217dc63a0f689b76288022b8")
