"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The end-to-end learning
criterion trains a small model from scratch and takes a few minutes; the
whole module stays well inside its stated runtime budgets.
"""
import math
import os
import time

import numpy as np
import pytest

from conftest import KinkProbe
from seismonet.checkpoint import load_checkpoint, save_checkpoint
from seismonet.detect import ValleyParams, ppv, sensitivity
from seismonet.evaluation import evaluate_split
from seismonet.hrv import bland_altman, hrv_indices
from seismonet.model import InceptionResidualBlock, ModelConfig, build_model
from seismonet.nn import (
    BatchNormState,
    ConvSpec,
    Parameter,
    ParamStore,
    SignalTensor,
    Tape,
    batchnorm1d,
    conv1d,
    conv_transpose1d,
    leaky_relu,
    smooth_l1_loss,
)
from seismonet.synth import SynthParams, synth_record
from seismonet.training import TrainConfig, train
from seismonet.windows import (
    distance_transform,
    labeled_only,
    segment_windows,
    split_dataset,
)

GRAD_TOL = 1e-4
MODEL_GRAD_TOL = 1e-3
KINK_MARGIN = 2e-4

# Desk-scale experiment knobs (this artifact's bar, fixed seeds).
DESK_FS = 100.0
DESK_DURATION_S = 120.0
DESK_SUBJECTS = 6
DESK_CLIP = 40.0
DESK_BATCH = 8
DESK_VALLEYS = ValleyParams(min_prominence=5.0, smoothing=5)


# ----------------------------------------------------------------------
# gradient-check machinery
# ----------------------------------------------------------------------

def fd_max_error(loss_fn, tracked, step=1e-5):
    """Central-difference check against already-populated .grad buffers."""
    # snapshot first: re-running the forward closure may zero the buffers
    grads = [obj.grad.reshape(-1).copy() for obj in tracked]
    max_err = 0.0
    for obj, grad in zip(tracked, grads):
        flat = obj.values.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            h = step * max(1.0, abs(orig))
            flat[i] = orig + h
            f_plus = loss_fn()
            flat[i] = orig - h
            f_minus = loss_fn()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2 * h)
            denom = max(abs(grad[i]), abs(numeric), 1e-8)
            max_err = max(max_err, abs(grad[i] - numeric) / denom)
    return max_err


def projection_error(make_output, proj_seed):
    """Check d(proj . output)/d(input) for every tracked buffer."""
    tape = Tape()
    tracked, out = make_output(tape)
    proj = np.random.default_rng(proj_seed).normal(size=out.values.shape)
    out.grad[...] = proj
    tape.backward()

    def loss_fn():
        _, out2 = make_output(None)
        return float((proj * out2.values).sum())

    return fd_max_error(loss_fn, tracked)


def check_conv1d(rng):
    cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    k = int(rng.choice([1, 3, 5]))
    s, p = int(rng.integers(1, 3)), int(rng.integers(0, 3))
    length = int(rng.integers(k, k + 12))
    spec = ConvSpec(cin, cout, k, s, p)
    x = rng.normal(size=(2, cin, length))
    w = rng.normal(size=(cout, cin, k))
    b = rng.normal(size=cout)
    xt, wt, bt = SignalTensor(x), Parameter(w), Parameter(b)

    def make(tape):
        xt.zero_grad(); wt.zero_grad(); bt.zero_grad()
        return (xt, wt, bt), conv1d(xt, wt, bt, spec, tape)

    return projection_error(make, proj_seed=1)


def check_conv_transpose(rng):
    cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    k = int(rng.choice([1, 3, 5]))
    s = int(rng.integers(1, 3))
    p = int(rng.integers(0, (k + 1) // 2))
    length = int(rng.integers(2, 12))
    spec = ConvSpec(cin, cout, k, s, p, transposed=True)
    if spec.out_length(length) < 1:
        return 0.0
    xt = SignalTensor(rng.normal(size=(2, cin, length)))
    wt = Parameter(rng.normal(size=(cin, cout, k)))
    bt = Parameter(rng.normal(size=cout))

    def make(tape):
        xt.zero_grad(); wt.zero_grad(); bt.zero_grad()
        return (xt, wt, bt), conv_transpose1d(xt, wt, bt, spec, tape)

    return projection_error(make, proj_seed=2)


def check_batchnorm(rng):
    c = int(rng.integers(1, 4))
    length = int(rng.integers(3, 12))
    training = bool(rng.integers(0, 2))
    xt = SignalTensor(rng.normal(size=(2, c, length)))
    state = BatchNormState(Parameter(rng.normal(size=c) + 1.5),
                           Parameter(rng.normal(size=c)))
    state.running_mean = rng.normal(size=c)
    state.running_var = rng.uniform(0.5, 2.0, size=c)

    def make(tape):
        xt.zero_grad(); state.gamma.zero_grad(); state.beta.zero_grad()
        return (xt, state.gamma, state.beta), batchnorm1d(xt, state, training, tape)

    return projection_error(make, proj_seed=3)


def check_leaky_relu(rng):
    x = rng.normal(size=(2, 2, 10))
    x[np.abs(x) < 5e-3] += 0.01  # keep clear of the kink
    xt = SignalTensor(x)

    def make(tape):
        xt.zero_grad()
        return (xt,), leaky_relu(xt, 0.01, tape)

    return projection_error(make, proj_seed=4)


def check_loss(rng):
    pred = rng.normal(size=(2, 1, 10))
    # keep |pred - target| away from the quadratic/linear switch at 1
    pred = np.where(np.abs(np.abs(pred) - 1.0) < 5e-2, pred * 1.2, pred)
    target = np.zeros_like(pred)
    pt = SignalTensor(pred)

    def loss_fn():
        return smooth_l1_loss(SignalTensor(pt.values.copy()), target)

    tape = Tape()
    smooth_l1_loss(pt, target, tape=tape)
    tape.backward()
    return fd_max_error(loss_fn, [pt])


def _block_probe_inputs(rng, build_block, shape):
    """Draw inputs until every internal activation clears the kink margin."""
    for attempt in range(20):
        x = rng.normal(size=shape)
        block, store = build_block()
        with KinkProbe() as probe:
            block.forward(SignalTensor(x.copy()), None, True)
        if probe.min_margin > KINK_MARGIN:
            return x, block, store
    raise AssertionError("no kink-safe draw found")


def _check_block(rng, build_block, shape):
    x, block, store = _block_probe_inputs(rng, build_block, shape)
    xt = SignalTensor(x)
    params = [p for _, p in store.items()]

    def make(tape):
        xt.zero_grad()
        store.zero_grad()
        return (xt, *params), block.forward(xt, tape, True)

    return projection_error(make, proj_seed=5)


def _nudge_biases(store, rng):
    # zero-initialized biases sit exactly on activation kinks under
    # structural zero padding; check at a generic point instead
    for name, param in store.items():
        if name.endswith(".bias") or name.endswith(".beta"):
            param.values = param.values + rng.uniform(0.01, 0.05, param.values.shape)


def check_inception(rng):
    channels = int(rng.choice([4, 6]))
    length = int(rng.integers(12, 28))
    cfg = ModelConfig(input_len=64, levels=1, base_channels=8)

    def build():
        store = ParamStore()
        block = InceptionResidualBlock(store, "b", channels, cfg, np.float64)
        store.initialize(np.random.default_rng(rng.integers(1000)))
        _nudge_biases(store, rng)
        return block, store

    return _check_block(rng, build, (2, channels, length))


def check_ensemble(rng):
    length = int(rng.integers(16, 32))
    cfg = ModelConfig(input_len=length, levels=1, base_channels=4)
    store = ParamStore()
    from seismonet.model import EnsembleAveragingBlock
    block = EnsembleAveragingBlock(store, cfg, np.float64)
    store.initialize(np.random.default_rng(rng.integers(1000)))
    _nudge_biases(store, rng)
    # two plain convolutions: no activation kinks inside
    xt = SignalTensor(rng.normal(size=(2, 1, length)))
    params = [p for _, p in store.items()]

    def make(tape):
        xt.zero_grad()
        store.zero_grad()
        return (xt, *params), block.forward(xt, tape, True)

    return projection_error(make, proj_seed=6)


def check_denoise(rng):
    w = int(rng.integers(16, 28))
    length = int(rng.integers(w - 4, 2 * w))
    cfg = ModelConfig(input_len=w, levels=1, base_channels=4)

    def build():
        store = ParamStore()
        from seismonet.model import DenoisingBlock
        block = DenoisingBlock(store, 2, cfg, np.float64)
        store.initialize(np.random.default_rng(rng.integers(1000)))
        _nudge_biases(store, rng)
        return block, store

    return _check_block(rng, build, (2, 2, length))


@pytest.mark.slow
def test_gradient_suite():
    start = time.time()
    rng = np.random.default_rng(20250731)
    checks = {
        "conv1d": check_conv1d,
        "conv_transpose1d": check_conv_transpose,
        "batchnorm1d": check_batchnorm,
        "leaky_relu": check_leaky_relu,
        "smooth_l1_loss": check_loss,
        "inception_residual": check_inception,
        "ensemble": check_ensemble,
        "denoise": check_denoise,
    }
    for name, check in checks.items():
        worst = max(check(rng) for _ in range(20))
        assert worst < GRAD_TOL, f"{name}: max rel error {worst:.3e} >= {GRAD_TOL}"

    # whole tiny model at a generic parameter point with kink-safe margins
    cfg = ModelConfig(input_len=64, levels=2, base_channels=4)
    model = build_model(cfg, seed=3, dtype=np.float64)
    nudge = np.random.default_rng(2)
    for _, p in model.params.items():
        p.values = p.values + nudge.uniform(-0.05, 0.05, p.values.shape)
    x = np.random.default_rng(11).normal(size=(2, 1, 64))
    with KinkProbe() as probe:
        y0 = model.forward(SignalTensor(x.copy()), tape=None, training=True).values
    assert probe.min_margin > KINK_MARGIN
    target = y0 - 0.3

    model.params.zero_grad()
    tape = Tape()
    pred = model.forward(SignalTensor(x.copy()), tape=tape, training=True)
    smooth_l1_loss(pred, target, tape=tape)
    tape.backward()

    def loss_fn():
        out = model.forward(SignalTensor(x.copy()), tape=None, training=True)
        return smooth_l1_loss(out, target)

    worst = fd_max_error(loss_fn, [p for _, p in model.params.items()])
    assert worst < MODEL_GRAD_TOL, f"whole model: {worst:.3e} >= {MODEL_GRAD_TOL}"

    elapsed = time.time() - start
    assert elapsed < 120, f"gradient suite took {elapsed:.0f}s >= 120s"
    print(f"PASS gradient suite: all layer ops < {GRAD_TOL}, whole model "
          f"{worst:.2e} < {MODEL_GRAD_TOL}, {elapsed:.0f}s")


def test_distance_transform_oracle():
    start = time.time()
    rng = np.random.default_rng(4)
    for _ in range(1000):
        length = int(rng.integers(1, 201))
        ann = np.unique(rng.integers(0, length, size=int(rng.integers(1, 12))))
        out = distance_transform(ann, length)
        brute = np.array([min(abs(i - p) for p in ann) for i in range(length)],
                         dtype=np.int64)
        np.testing.assert_array_equal(out, brute)
    elapsed = time.time() - start
    assert elapsed < 5, f"distance-transform oracle took {elapsed:.1f}s >= 5s"
    print(f"PASS distance-transform oracle: 1000 instances exact, {elapsed:.1f}s")


def test_architecture_arithmetic():
    start = time.time()
    cfg = ModelConfig(input_len=256, levels=5, base_channels=32)
    model = build_model(cfg, seed=0)
    assert model.block_count == 12
    assert model.bottleneck_channels == 512

    rng = np.random.default_rng(6)
    for _ in range(50):
        levels = int(rng.integers(1, 5))
        base = int(rng.choice([4, 8, 16]))
        stride = int(rng.choice([2, 3]))
        min_len = 4 * stride ** levels
        input_len = int(rng.integers(min_len, min_len + 64))
        c = ModelConfig(input_len=input_len, levels=levels, base_channels=base,
                        down_stride=stride)
        m = build_model(c, seed=int(rng.integers(1000)))
        assert m.block_count == 2 * levels + 2
        assert m.bottleneck_channels == base * 2 ** (levels - 1)
        out = m.forward(SignalTensor(np.zeros((1, 1, input_len), np.float32)))
        assert out.shape == (1, 1, input_len)
    elapsed = time.time() - start
    assert elapsed < 60, f"architecture suite took {elapsed:.0f}s >= 60s"
    print(f"PASS architecture arithmetic: 2N+2 blocks, 2^(N-1)*c_i bottleneck, "
          f"50 random configs length-preserving, {elapsed:.0f}s")


def test_table1_arithmetic():
    assert f"{sensitivity(6323, 114):.2f}" == "0.98"
    assert f"{ppv(6323, 115):.2f}" == "0.98"
    assert f"{sensitivity(304, 19):.2f}" == "0.94"
    assert f"{ppv(304, 15):.2f}" == "0.95"
    print("PASS detection-table arithmetic: totals 0.98/0.98, "
          "first-subject row 0.94/0.95")


def test_exact_transform_fixed_point():
    windows = []
    for i in range(3):
        record = synth_record(SynthParams(fs=100.0, duration_s=60.0,
                                          mean_hr_bpm=64.0 + 4 * i, hr_jitter=0.06,
                                          scg_noise_sigma=0.15, seed=70 + i),
                              subject_id=f"fx{i}")
        windows.extend(labeled_only(segment_windows(record, 2.0, 1.0)))
    split = split_dataset(windows, (0.6, 0.2, 0.2))

    report = evaluate_split(lambda w: w.target_dt, split.test, fs=100.0,
                            valley_params=ValleyParams(), tol_ms=90.0)
    assert report.total_se == 1.0
    assert report.total_ppv == 1.0
    print("PASS exact-transform fixed point: stub transform gives Se=PPV=1.0")


@pytest.mark.slow
def test_end_to_end_desk_scale_learning():
    start = time.time()
    records = [
        synth_record(SynthParams(fs=DESK_FS, duration_s=DESK_DURATION_S,
                                 mean_hr_bpm=62.0 + 3 * i, hr_jitter=0.06,
                                 scg_noise_sigma=0.2, seed=100 + i),
                     subject_id=f"s{i}")
        for i in range(DESK_SUBJECTS)
    ]
    windows = []
    for record in records:
        windows.extend(labeled_only(segment_windows(record, 2.0, 1.0,
                                                    dt_clip=DESK_CLIP)))
    split = split_dataset(windows, (0.6, 0.2, 0.2), drop_boundary=True)

    model = build_model(ModelConfig(input_len=200, levels=3, base_channels=8),
                        seed=11)
    cfg = TrainConfig(epochs=200, lr0=0.001, schedule_step=70, schedule_factor=10.0,
                      batch_size=DESK_BATCH, seed=5, checkpoint_every=0)
    model, history = train(model, split, cfg)
    train_time = time.time() - start
    assert train_time < 15 * 60, f"training took {train_time:.0f}s >= 15 min"

    report = evaluate_split(model, split.test, fs=DESK_FS,
                            valley_params=DESK_VALLEYS, tol_ms=90.0)
    se, value = report.total_se, report.total_ppv
    assert se >= 0.95, f"test Se {se:.4f} < 0.95"
    assert value >= 0.95, f"test PPV {value:.4f} < 0.95"
    print(f"PASS end-to-end desk-scale learning: Se={se:.4f} PPV={value:.4f} "
          f"(loss {history.records[0].train_loss:.2f} -> "
          f"{history.records[-1].train_loss:.2f}, {train_time / 60:.1f} min)")


def test_hrv_oracle():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        nn = rng.uniform(300.0, 1500.0, size=n).tolist()
        idx = hrv_indices(np.array(nn))
        mean_nn = sum(nn) / n
        sdnn = math.sqrt(sum((v - mean_nn) ** 2 for v in nn) / (n - 1))
        diffs = [nn[i + 1] - nn[i] for i in range(n - 1)]
        rmssd = math.sqrt(sum(d * d for d in diffs) / len(diffs))
        pnn50 = sum(1 for d in diffs if abs(d) > 50.0) / len(diffs)
        for got, want in [(idx.mean_nn, mean_nn), (idx.sdnn, sdnn),
                          (idx.rmssd, rmssd), (idx.pnn50, pnn50)]:
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    worked = hrv_indices(np.array([800.0, 860.0, 865.0, 920.0]))
    assert worked.pnn50 == pytest.approx(2 / 3, rel=1e-12)
    assert worked.rmssd == pytest.approx(47.08, abs=0.01)
    print("PASS HRV oracle: 1000 random sequences at 1e-9 relative; "
          f"worked example pnn50=2/3, rmssd={worked.rmssd:.2f}")


def test_bland_altman_criteria():
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(2, 25))
        pairs = list(zip(rng.normal(size=n) * 5, rng.normal(size=n) * 5))
        st = bland_altman(pairs)
        assert st.loa_low == st.mean_diff - 1.96 * st.sd_diff
        assert st.loa_high == st.mean_diff + 1.96 * st.sd_diff
        assert st.loa_range == st.loa_high - st.loa_low

    worked = bland_altman([(10.0, 12.0), (20.0, 19.0)])
    assert worked.mean_diff == pytest.approx(-0.5, rel=1e-12)
    assert worked.sd_diff == pytest.approx(2.1213, abs=1e-4)
    print(f"PASS Bland-Altman: LoA identities exact; worked example "
          f"mean_diff={worked.mean_diff}, sd_diff={worked.sd_diff:.4f}")


def test_training_determinism(tmp_path):
    csv_bytes = []
    for run in range(2):
        windows = []
        for i in range(2):
            record = synth_record(SynthParams(fs=50.0, duration_s=30.0,
                                              mean_hr_bpm=66.0 + 4 * i,
                                              hr_jitter=0.05, scg_noise_sigma=0.1,
                                              seed=40 + i), subject_id=f"d{i}")
            windows.extend(labeled_only(segment_windows(record, 2.0, 2.0,
                                                        dt_clip=8.0)))
        split = split_dataset(windows, (0.6, 0.2, 0.2))
        model = build_model(ModelConfig(input_len=100, levels=2, base_channels=4),
                            seed=7)
        cfg = TrainConfig(epochs=3, batch_size=4, seed=11, checkpoint_every=0)
        _, history = train(model, split, cfg)
        path = tmp_path / f"history_{run}.csv"
        history.to_csv(path)
        csv_bytes.append(path.read_bytes())
    assert csv_bytes[0] == csv_bytes[1]
    print("PASS determinism: identical seed/config/data give bitwise-identical "
          "history CSVs")


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    model = build_model(ModelConfig(input_len=96, levels=2, base_channels=8), seed=9)
    model.forward(SignalTensor(rng.normal(size=(4, 1, 96)).astype(np.float32)),
                  tape=Tape(), training=True)
    path = tmp_path / "model.smn"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    for _ in range(10):
        x = rng.normal(size=(2, 1, 96)).astype(np.float32)
        np.testing.assert_array_equal(loaded.predict(x), model.predict(x))
    print("PASS checkpoint round trip: bitwise-identical forward outputs "
          "on 10 random inputs")


@pytest.mark.skipif(not os.environ.get("CEBS_DATA_DIR"),
                    reason="optional: set CEBS_DATA_DIR to CSV-converted records")
def test_cebs_replication_path(tmp_path):
    """Optional replication path on user-supplied CSV-converted records."""
    from seismonet.cli import main

    config = tmp_path / "cebs.cfg"
    epochs = os.environ.get("CEBS_EPOCHS", "300")
    config.write_text(f"""
paths.data_dir = {os.environ['CEBS_DATA_DIR']}
paths.out_dir = {tmp_path / 'out'}
sampling.source_fs = 5000
sampling.target_fs = {os.environ.get('CEBS_TARGET_FS', '250')}
train.epochs = {epochs}
""")
    assert main(["--config", str(config), "train"]) == 0
    assert main(["--config", str(config), "eval"]) == 0
    assert (tmp_path / "out" / "report.csv").exists()
    assert (tmp_path / "out" / "hrv.csv").exists()
    print("PASS replication path: train+eval completed and emitted reports")
