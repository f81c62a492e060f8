"""Training loop bookkeeping, purity, and determinism."""
import importlib.util
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import seismonet.model
import seismonet.training
from conftest import run_python, two_cpus
from seismonet.errors import NumericError, ValidationError
from seismonet.model import ModelConfig, build_model
from seismonet.nn import lr_schedule
from seismonet.synth import SynthParams, synth_record
from seismonet.training import TrainConfig, TrainHistory, evaluate_loss, train
from seismonet.windows import DatasetSplit, labeled_only, segment_windows, split_dataset


def tiny_split(n_subjects=2, duration=30.0, fs=50.0, w_sec=2.0, hop_sec=2.0,
               dt_clip=8.0, seed0=40):
    windows = []
    for i in range(n_subjects):
        record = synth_record(SynthParams(fs=fs, duration_s=duration,
                                          mean_hr_bpm=66.0 + 4 * i, hr_jitter=0.05,
                                          scg_noise_sigma=0.1, seed=seed0 + i),
                              subject_id=f"t{i}")
        windows.extend(labeled_only(segment_windows(record, w_sec, hop_sec,
                                                    dt_clip=dt_clip)))
    return split_dataset(windows, (0.6, 0.2, 0.2))


def tiny_model(input_len=100, seed=1):
    return build_model(ModelConfig(input_len=input_len, levels=2, base_channels=4),
                       seed=seed)


def test_one_epoch_bookkeeping():
    split = tiny_split()
    model = tiny_model()
    cfg = TrainConfig(epochs=1, batch_size=4, seed=0, checkpoint_every=0)
    _, history = train(model, split, cfg)
    assert len(history) == 1
    rec = history.records[0]
    assert rec.epoch == 0
    assert rec.lr == 0.001
    assert np.isfinite(rec.train_loss)
    assert np.isfinite(rec.val_loss)


def test_history_lr_column_matches_schedule():
    split = tiny_split()
    model = tiny_model()
    cfg = TrainConfig(epochs=8, lr0=0.01, schedule_step=3, schedule_factor=10,
                      batch_size=8, seed=0, checkpoint_every=0)
    _, history = train(model, split, cfg)
    for rec in history.records:
        assert rec.lr == lr_schedule(rec.epoch, 0.01, 3, 10)


def test_overfit_tiny_set():
    record = synth_record(SynthParams(fs=50.0, duration_s=30.0, mean_hr_bpm=66.0,
                                      hr_jitter=0.05, scg_noise_sigma=0.05, seed=4),
                          "overfit")
    windows = labeled_only(segment_windows(record, 2.0, 3.0, dt_clip=5.0))[:8]
    assert len(windows) == 8
    split = DatasetSplit(train=windows, val=[], test=[])
    model = build_model(ModelConfig(input_len=100, levels=3, base_channels=8), seed=2)
    cfg = TrainConfig(epochs=200, lr0=0.02, schedule_step=1000, schedule_factor=10,
                      batch_size=2, seed=1, checkpoint_every=0)
    _, history = train(model, split, cfg)
    assert history.records[-1].train_loss < 0.1 * history.records[0].train_loss


def test_unlabeled_window_rejected():
    split = tiny_split()
    # no annotation inside the window: no target
    split.train[0] = replace(split.train[0], rpeaks_local=np.zeros(0, dtype=np.int64))
    with pytest.raises(ValidationError, match="target"):
        train(tiny_model(), split, TrainConfig(epochs=1, checkpoint_every=0))


def test_zero_schedule_step_rejected_when_built():
    with pytest.raises(ValidationError, match="schedule_step must be >= 1, got 0"):
        TrainConfig(schedule_step=0)


def test_negative_checkpoint_period_rejected_when_built():
    with pytest.raises(ValidationError, match="checkpoint_every must be >= 0, got -1"):
        TrainConfig(checkpoint_every=-1)


def test_nonfinite_loss_aborts_with_context():
    split = tiny_split()
    model = tiny_model()
    model.params["denoise.conv2.weight"].values[...] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="epoch 0"):
        train(model, split, TrainConfig(epochs=1, checkpoint_every=0))


def test_evaluate_loss_pure():
    split = tiny_split()
    model = tiny_model()
    before_params = {n: p.values.copy() for n, p in model.params.items()}
    before_buffers = {n: b.copy() for n, b in model.named_buffers()}
    v1 = evaluate_loss(model, split.val)
    v2 = evaluate_loss(model, split.val)
    assert v1 == v2
    for name, values in model.params.items():
        np.testing.assert_array_equal(values.values, before_params[name])
    for name, buf in model.named_buffers():
        np.testing.assert_array_equal(buf, before_buffers[name])


def test_evaluate_loss_allocates_no_gradients(grad_reads):
    evaluate_loss(tiny_model(), tiny_split().val)
    assert grad_reads == []


def test_evaluate_loss_on_perfect_predictions():
    # all-zero parameters force an all-zero output; zero targets give loss 0
    split = tiny_split()
    # an annotation at every sample: an all-zero target
    split.val = [replace(w, rpeaks_local=np.arange(w.length)) for w in split.val]
    model = tiny_model()
    for _, p in model.params.items():
        p.values[...] = 0.0
    assert evaluate_loss(model, split.val) == 0.0


def test_evaluate_loss_matches_hand_computation():
    split = tiny_split()
    windows = split.val[:2]
    model = tiny_model()
    got = evaluate_loss(model, windows)
    total = 0.0
    for w in windows:
        pred = model.predict(w.scg_seg)
        d = pred - w.target_dt
        elem = np.where(np.abs(d) < 1, 0.5 * d * d, np.abs(d) - 0.5)
        total += elem.mean()
    assert got == pytest.approx(total / 2, rel=1e-6)


def test_evaluate_loss_empty_rejected():
    with pytest.raises(ValidationError):
        evaluate_loss(tiny_model(), [])


def test_training_deterministic_bitwise(tmp_path):
    histories = []
    for run in range(2):
        split = tiny_split()
        model = tiny_model(seed=7)
        cfg = TrainConfig(epochs=3, batch_size=4, seed=11, checkpoint_every=0)
        _, history = train(model, split, cfg)
        path = tmp_path / f"history_{run}.csv"
        history.to_csv(path)
        histories.append(path.read_bytes())
    assert histories[0] == histories[1]


def test_final_partial_batch_processed():
    split = tiny_split()
    split = DatasetSplit(train=split.train[:5], val=split.val[:2], test=[])
    model = tiny_model()
    cfg = TrainConfig(epochs=1, batch_size=4, seed=0, checkpoint_every=0)
    _, history = train(model, split, cfg)  # 5 windows -> batches of 4 and 1
    assert len(history) == 1


def test_checkpoints_written(tmp_path):
    split = tiny_split()
    model = tiny_model()
    cfg = TrainConfig(epochs=2, batch_size=8, seed=0, checkpoint_every=1)
    train(model, split, cfg, checkpoint_dir=tmp_path)
    assert (tmp_path / "model_final.smn").exists()
    assert (tmp_path / "model_best.smn").exists()
    assert (tmp_path / "model_epoch0001.smn").exists()
    assert (tmp_path / "model_epoch0002.smn").exists()


def test_history_csv_format(tmp_path):
    history = TrainHistory()
    from seismonet.training import EpochRecord
    history.append(EpochRecord(0, 0.001, 1.5, 2.5))
    path = tmp_path / "h.csv"
    history.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,lr,train_loss,val_loss"
    assert lines[1] == "0,0.001,1.5,2.5"


BENCHMARK_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _benchmark_tracing():
    """perfbench/tracing.py, loaded by path so the list below is the benchmark's."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", BENCHMARK_TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_traced_names_run_in_a_taped_step(monkeypatch):
    # The benchmark times ops by rebinding these module attributes; an op
    # that the package renames or stops calling through them would drop out
    # of its trace without an error.
    calls = Counter()

    def count(owner, name):
        orig = getattr(owner, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapped)

    model_ops = _benchmark_tracing().MODEL_OPS
    for name in model_ops:
        count(seismonet.model, name)
    for name in ("smooth_l1_loss", "sgd_step"):
        count(seismonet.training, name)

    # the desk net on 200-sample windows, one batch: one taped step
    split = tiny_split(fs=100.0)
    split = DatasetSplit(train=split.train[:4], val=[], test=[])
    model = build_model(ModelConfig(input_len=200, levels=3, base_channels=8), seed=0)
    train(model, split, TrainConfig(epochs=1, batch_size=4, checkpoint_every=0))
    missing = [n for n in (*model_ops, "smooth_l1_loss", "sgd_step") if not calls[n]]
    assert missing == []
    assert calls["sgd_step"] == 1


def test_benchmark_tracer_runs_a_taped_step_and_a_prediction():
    # The tracer charges every recorded backward to the op being traced, so a
    # taped op called outside the traced names fails the benchmark's traced run.
    tracing = _benchmark_tracing()
    split = tiny_split(fs=100.0)
    split = DatasetSplit(train=split.train[:4], val=[], test=[])
    model = build_model(ModelConfig(input_len=200, levels=3, base_channels=8), seed=0)
    tracer = tracing.Tracer()
    base = tracer.snapshot()
    with tracer.active():
        seismonet.training.train(model, split,
                                 TrainConfig(epochs=1, batch_size=4, checkpoint_every=0))
        model.predict(np.zeros((4, 200)))
    assert tracer.metrics(base, 1, 0.0, 0.0)["nn.op_calls"] > 0
    assert len(tracer.steps) == 1


# One taped desk step and a prediction under the benchmark tracer, with
# every convolution above the floor so that the pool's worker runs the
# parameter gradients; prints the op calls, the recorded steps and the live
# thread count.
TRACED_WORKER_STEP = """
import importlib.util
import sys
import threading
import numpy as np
import seismonet.training
from seismonet import (ModelConfig, SynthParams, TrainConfig, build_model, labeled_only,
                       segment_windows, synth_record)
from seismonet.nn import ops
from seismonet.windows import DatasetSplit

spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
ops.SPLIT_MIN_MACS = 0
record = synth_record(SynthParams(fs=100.0, duration_s=30.0, seed=40))
windows = labeled_only(segment_windows(record, 2.0, 2.0, dt_clip=8.0))
split = DatasetSplit(train=windows[:4], val=[], test=[])
model = build_model(ModelConfig(input_len=200, levels=3, base_channels=8), seed=0)
tracer = tracing.Tracer()
base = tracer.snapshot()
with tracer.active():
    seismonet.training.train(model, split,
                             TrainConfig(epochs=1, batch_size=4, checkpoint_every=0))
    model.predict(np.zeros((4, 200)))
print(tracer.metrics(base, 1, 0.0, 0.0)["nn.op_calls"] > 0, len(tracer.steps),
      threading.active_count())
"""


@two_cpus
def test_benchmark_tracer_runs_a_step_whose_parameter_gradients_run_on_the_worker():
    # A job on the worker that called a traced name or recorded on the tape
    # would be charged to the op the calling thread is tracing, and fail.
    assert run_python(TRACED_WORKER_STEP, BENCHMARK_TRACING).split() == ["True", "1", "2"]
