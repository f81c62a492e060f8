"""End-to-end CLI flows on a tiny synthetic corpus."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import seismonet
from conftest import first_dim_offset, first_name_last_byte, run_python, two_cpus
from seismonet.cli import main
from seismonet.records import load_record, write_record
from seismonet.synth import SynthParams, synth_record


@pytest.fixture
def workspace(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(f"""
# tiny desk corpus
paths.data_dir = {tmp_path / 'data'}
paths.out_dir = {tmp_path / 'out'}
sampling.source_fs = 50
dataset.window_sec = 2
dataset.hop_sec = 1
dataset.dt_clip = 10
model.levels = 2
model.base_channels = 4
train.epochs = 2
train.batch_size = 8
train.seed = 3
train.checkpoint_every = 0
eval.min_prominence = 0.5
synth.subjects = 2
synth.fs = 50
synth.duration_s = 12
synth.seed = 9
""")
    return tmp_path, config


def run(config, *args):
    return main(["--config", str(config), *args])


def test_synth_writes_records_per_subject(workspace):
    tmp, config = workspace
    assert run(config, "synth") == 0
    data = tmp / "data"
    csvs = sorted(data.glob("*.csv"))
    anns = sorted(data.glob("*.rpeaks"))
    assert len(csvs) == 2
    assert len(anns) == 2
    for path in csvs:
        record = load_record(path, fs=50)
        assert record.rpeaks is not None and record.rpeaks.size > 0


def test_synth_deterministic_bytes(workspace):
    tmp, config = workspace
    run(config, "synth")
    first = {p.name: p.read_bytes() for p in sorted((tmp / "data").iterdir())}
    run(config, "synth")
    second = {p.name: p.read_bytes() for p in sorted((tmp / "data").iterdir())}
    assert first == second


def test_train_eval_infer_pipeline(workspace, capsys):
    tmp, config = workspace
    assert run(config, "synth") == 0
    data_before = {p.name: p.read_bytes() for p in sorted((tmp / "data").iterdir())}

    assert run(config, "train") == 0
    out = tmp / "out"
    assert (out / "model_final.smn").exists()
    history = (out / "history.csv").read_text().strip().splitlines()
    assert history[0] == "epoch,lr,train_loss,val_loss"
    assert len(history) == 3  # header + 2 epochs

    assert run(config, "eval") == 0
    report = (out / "report.csv").read_text().strip().splitlines()
    assert report[0] == "subject,detected,actual,tp,fp,fn,se,ppv"
    total = report[-1].split(",")
    assert total[0] == "total"
    detected, actual, tp, fp, fn = map(int, total[1:6])
    assert tp + fp == detected
    assert tp + fn == actual
    assert (out / "hrv.csv").exists()
    assert (out / "bland_altman_points.csv").exists()
    assert (out / "bland_altman_summary.csv").exists()
    printed = capsys.readouterr().out
    assert "total Se" in printed

    record_path = sorted((tmp / "data").glob("*.csv"))[0]
    assert run(config, "infer", str(record_path)) == 0
    pred = out / f"pred_{record_path.stem}.csv"
    peaks = out / f"{record_path.stem}.peaks"
    assert pred.exists() and peaks.exists()
    pred_lines = pred.read_text().strip().splitlines()
    n_windows = (12 * 50 - 100) // 50 + 1
    assert len(pred_lines) == 1 + n_windows * 100
    peak_values = [int(v) for v in peaks.read_text().split()]
    assert peak_values == sorted(set(peak_values))

    # The 2-epoch model's valleys are shallow: without the prominence floor
    # and with smoothing it still finds beats, so the peak checks see some.
    assert main(["--config", str(config), "--set", "eval.min_prominence=0",
                 "--set", "eval.smoothing=3", "infer", str(record_path)]) == 0
    peak_values = np.array([int(v) for v in peaks.read_text().split()])
    merge_gap = 200.0 * 50 / 1000 / 2  # eval.refractory_ms * fs / 1000 / 2
    assert peak_values.size > 0
    assert np.all(np.diff(peak_values) >= merge_gap)  # strictly increasing too
    assert peak_values[0] >= 0 and peak_values[-1] < len(load_record(record_path, fs=50))

    # inputs never mutated
    data_after = {p.name: p.read_bytes() for p in sorted((tmp / "data").iterdir())}
    assert data_before == data_after


def test_agree_command_on_paired_table(workspace, tmp_path):
    tmp, config = workspace
    table = tmp_path / "paired_hrv.csv"
    table.write_text(
        "subject,source,mean_nn_ms,sdnn_ms,rmssd_ms,pnn50\n"
        "a,scg,850.0,50.0,40.0,0.10\n"
        "a,ecg,852.0,48.0,41.0,0.09\n"
        "b,scg,900.0,60.0,45.0,0.20\n"
        "b,ecg,905.0,61.0,44.0,0.22\n"
        "c,scg,800.0,40.0,35.0,0.05\n"
        "c,ecg,798.0,41.0,36.0,0.06\n")
    assert run(config, "agree", str(table)) == 0
    out = tmp / "out"
    summary = (out / "bland_altman_summary.csv").read_text().strip().splitlines()
    assert len(summary) == 5  # header + four indices
    points = (out / "bland_altman_points.csv").read_text().strip().splitlines()
    assert len(points) == 1 + 4 * 3


HRV_TABLE = ("subject,source,mean_nn_ms,sdnn_ms,rmssd_ms,pnn50\n"
             "a,scg,850.0,50.0,40.0,0.10\n"
             "a,ecg,852.0,48.0,41.0,0.09\n"
             "b,scg,900.0,60.0,45.0,0.20\n"
             "b,ecg,905.0,61.0,44.0,0.22\n")


@pytest.mark.parametrize("edit, message", [
    (lambda t: t.replace("subject,source", "subject,src"), ":1: expected the header"),
    (lambda t: t.replace("a,ecg,852.0,", "a,ecg,"), ":3: expected 6 fields, got 5"),
    (lambda t: t.replace("0.22", "abc"), ":5: could not convert string to float: 'abc'"),
    (lambda t: t.replace("905.0", "inf"), ":5: non-finite value"),
    (lambda t: t + "b,ecg,905.0,61.0,44.0,0.22\n", ":6: duplicate row"),
], ids=["header", "ragged", "non_numeric", "non_finite", "duplicate"])
def test_agree_rejects_malformed_table(workspace, tmp_path, capsys, edit, message):
    tmp, config = workspace
    table = tmp_path / "bad_hrv.csv"
    table.write_text(edit(HRV_TABLE))
    assert run(config, "agree", str(table)) == 1
    assert f"{table}{message}" in capsys.readouterr().err
    assert not (tmp / "out" / "bland_altman_summary.csv").exists()


# eval then infer, with the workspace net's batches split over two cores
# (it is under the size floor), then the live thread count.
SPLIT_EVAL_INFER = """
import sys
import threading
import seismonet.model
from seismonet.cli import main

seismonet.model.SPLIT_MIN_WORK = 0
config, record = sys.argv[1:]
detect = ["--set", "eval.min_prominence=0", "--set", "eval.smoothing=3"]
assert main(["--config", config, *detect, "eval"]) == 0
assert main(["--config", config, *detect, "infer", record]) == 0
print("threads", threading.active_count())
"""


@two_cpus
def test_eval_and_infer_outputs_match_one_thread_bytes(workspace):
    tmp, config = workspace
    assert run(config, "synth") == 0
    assert run(config, "train") == 0
    record = sorted((tmp / "data").glob("*.csv"))[0]
    out = tmp / "out"
    trained = {p.name for p in out.iterdir()}
    runs = []
    for one_cpu in (False, True):
        for path in out.iterdir():
            if path.name not in trained:
                path.unlink()
        stdout = run_python(SPLIT_EVAL_INFER, config, record, one_cpu=one_cpu)
        runs.append((stdout.splitlines()[-1],
                     {p.name: p.read_bytes() for p in out.iterdir() if p.name not in trained}))
    (split_threads, split), (single_threads, single) = runs
    assert (split_threads, single_threads) == ("threads 2", "threads 1")
    assert sorted(split) == sorted([
        "report.csv", "hrv.csv", "bland_altman_points.csv", "bland_altman_summary.csv",
        f"pred_{record.stem}.csv", f"{record.stem}.peaks"])
    assert split == single


def test_agree_and_hrv_reproduce_eval_tables(workspace):
    tmp, config = workspace
    run(config, "synth")
    run(config, "train")
    # no prominence floor, so the briefly trained model detects beats and
    # the Bland-Altman tables have rows
    detect = ["--set", "eval.min_prominence=0", "--set", "eval.smoothing=3"]
    assert main(["--config", str(config), *detect, "eval"]) == 0
    out, again = tmp / "out", tmp / "again"
    assert main(["--config", str(config), "--set", f"paths.out_dir={again}",
                 "agree", str(out / "hrv.csv")]) == 0
    for name in ("bland_altman_points.csv", "bland_altman_summary.csv"):
        assert (again / name).read_bytes() == (out / name).read_bytes()
    assert len((out / "bland_altman_points.csv").read_text().splitlines()) > 1

    assert main(["--config", str(config), "--set", f"paths.out_dir={again}", "hrv"]) == 0
    header = (out / "hrv.csv").read_text().splitlines()[0]
    assert (again / "hrv.csv").read_text().splitlines()[0] == header


def test_train_epochs_override(workspace):
    tmp, config = workspace
    run(config, "synth")
    assert run(config, "train", "--epochs", "1") == 0
    history = (tmp / "out" / "history.csv").read_text().strip().splitlines()
    assert len(history) == 2


def test_negative_checkpoint_period_exits_one(workspace, capsys):
    tmp, config = workspace
    assert run(config, "synth") == 0
    assert main(["--config", str(config), "--set", "train.checkpoint_every=-1",
                 "train"]) == 1
    assert "checkpoint_every must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp / "out").exists()


def test_zero_checkpoint_period_writes_no_periodic_checkpoint(workspace):
    tmp, config = workspace
    assert run(config, "synth") == 0
    assert main(["--config", str(config), "--set", "train.checkpoint_every=0",
                 "train", "--epochs", "1"]) == 0
    assert not list((tmp / "out").glob("model_epoch*.smn"))
    assert (tmp / "out" / "model_final.smn").exists()


def test_python_m_seismonet_runs_the_cli():
    src = Path(seismonet.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "seismonet", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: seismonet")


def test_set_override_applies(workspace):
    tmp, config = workspace
    assert main(["--config", str(config), "--set", "synth.subjects=3", "synth"]) == 0
    assert len(list((tmp / "data").glob("*.csv"))) == 3


def test_global_seed_changes_synthesis(workspace):
    tmp, config = workspace
    run(config, "synth")
    baseline = {p.name: p.read_bytes() for p in sorted((tmp / "data").iterdir())}
    assert main(["--config", str(config), "--seed", "1234", "synth"]) == 0
    reseeded = {p.name: p.read_bytes() for p in sorted((tmp / "data").iterdir())}
    assert baseline != reseeded


def test_hrv_command_from_annotations(workspace):
    tmp, config = workspace
    run(config, "synth")
    assert run(config, "hrv") == 0
    lines = (tmp / "out" / "hrv.csv").read_text().strip().splitlines()
    assert lines[0].startswith("subject,source")
    assert len(lines) == 3
    assert all(",ecg," in line for line in lines[1:])


def test_hrv_skips_record_too_short_to_annotate(workspace, capsys):
    tmp, config = workspace
    data = tmp / "data"
    data.mkdir()
    for name, seconds in (("long", 12.0), ("short", 1.5)):
        record = synth_record(SynthParams(fs=50.0, duration_s=seconds, seed=4), name)
        record.rpeaks = None
        write_record(record, data / f"{name}.csv")
    assert run(config, "hrv") == 0
    assert "skipping 'short': need at least 2 s of signal" in capsys.readouterr().out
    lines = (tmp / "out" / "hrv.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("long,ecg,")


def test_unknown_config_key_exits_one(workspace):
    _, config = workspace
    assert main(["--config", str(config), "--set", "nope.key=1", "synth"]) == 1


def test_missing_config_file_exits_one(tmp_path):
    assert main(["--config", str(tmp_path / "absent.cfg"), "synth"]) == 1


def test_eval_without_checkpoint_exits_one(workspace):
    _, config = workspace
    run(config, "synth")
    assert run(config, "eval") == 1


def test_nonfinite_loss_exits_two(workspace):
    _, config = workspace
    run(config, "synth")
    with np.errstate(invalid="ignore", over="ignore"):
        rc = main(["--config", str(config), "--set", "train.lr0=1e12",
                   "train", "--epochs", "3"])
    assert rc == 2


def test_infer_short_record_reports_empty(workspace, tmp_path, capsys):
    tmp, config = workspace
    run(config, "synth")
    run(config, "train", "--epochs", "1")
    short = tmp_path / "short.csv"
    short.write_text("t,scg\n0,0.1\n0.02,0.2\n")
    assert run(config, "infer", str(short)) == 0
    assert "nothing to infer" in capsys.readouterr().out


def test_non_finite_record_sample_exits_one(workspace, capsys):
    tmp, config = workspace
    run(config, "synth")
    path = sorted((tmp / "data").glob("*.csv"))[0]
    lines = path.read_text().splitlines(keepends=True)
    t, _, ecg = lines[5].split(",")
    lines[5] = f"{t},nan,{ecg}"
    path.write_text("".join(lines))
    assert run(config, "train") == 1
    assert f"{path.name}:6: non-finite value" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda row: row.replace(",", ",1#", 1), "could not convert string to float"),
    (lambda row: row.rsplit(",", 1)[0] + "\n", "expected 3 fields, got 2"),
    (lambda row: row.rstrip("\n") + ",0.5\n", "expected 3 fields, got 4"),
], ids=["hash_in_field", "missing_field", "extra_field"])
def test_malformed_record_row_exits_one(workspace, capsys, edit, message):
    tmp, config = workspace
    run(config, "synth")
    path = sorted((tmp / "data").glob("*.csv"))[0]
    lines = path.read_text().splitlines(keepends=True)
    lines[5] = edit(lines[5])
    path.write_text("".join(lines))
    capsys.readouterr()
    assert run(config, "hrv") == 1
    err = capsys.readouterr().err
    assert f"{path.name}:6: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("suffix", ["", ".rpeaks"], ids=["csv", "rpeaks"])
def test_non_utf8_record_file_exits_one(tmp_path, capsys, suffix):
    data = tmp_path / "data"
    data.mkdir()
    csv = data / "a.csv"
    csv.write_bytes(b"t,scg\n0,1\n1,\xff\n" if not suffix else b"t,scg\n0,1\n1,2\n")
    if suffix:
        (data / "a.csv.rpeaks").write_bytes(b"0\n\xff\n")
    assert main(["--set", f"paths.data_dir={data}", "hrv"]) == 1
    err = capsys.readouterr().err
    assert f"a.csv{suffix}: not valid UTF-8" in err
    assert "Traceback" not in err


def test_non_utf8_hrv_table_exits_one(tmp_path, capsys):
    table = tmp_path / "hrv.csv"
    table.write_bytes(HRV_TABLE.encode().replace(b"0.10", b"0.1\xff"))
    assert main(["--set", f"paths.out_dir={tmp_path / 'out'}", "agree", str(table)]) == 1
    err = capsys.readouterr().err
    assert f"{table}: not valid UTF-8" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_negative_tolerance_exits_one(workspace, capsys):
    _, config = workspace
    assert main(["--config", str(config), "--set", "eval.tol_ms=-5", "eval"]) == 1
    assert "bad value for 'eval.tol_ms': must be >= 0, got -5.0" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["sampling.target_fs", "dataset.dt_clip"])
def test_negative_rate_or_clip_exits_one(workspace, capsys, key):
    tmp, config = workspace
    assert run(config, "synth") == 0
    assert main(["--config", str(config), "--set", f"{key}=-5", "train"]) == 1
    assert f"bad value for {key!r}: must be >= 0, got -5.0" in capsys.readouterr().err
    assert not (tmp / "out").exists()


def test_corrupted_checkpoint_dim_exits_one(workspace, capsys):
    tmp, config = workspace
    run(config, "synth")
    run(config, "train", "--epochs", "1")
    path = tmp / "out" / "model_final.smn"
    data = bytearray(path.read_bytes())
    data[first_dim_offset(data) + 7] = 0x40  # the dim's most significant byte
    path.write_bytes(bytes(data))
    assert run(config, "eval") == 1
    assert "has shape" in capsys.readouterr().err


def test_non_utf8_checkpoint_name_exits_one(workspace, capsys):
    tmp, config = workspace
    run(config, "synth")
    run(config, "train", "--epochs", "1")
    path = tmp / "out" / "model_final.smn"
    data = bytearray(path.read_bytes())
    data[first_name_last_byte(data)] = 0xFF
    path.write_bytes(bytes(data))
    assert run(config, "eval") == 1
    assert "tensor name is not valid UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("setting, command, prepare", [
    ("synth.fs=nan", "synth", []),
    ("synth.duration_s=inf", "synth", []),
    ("dataset.window_sec=nan", "train", ["synth"]),
    ("eval.tol_ms=nan", "eval", ["synth", "train"]),
    ("sampling.source_fs=nan", "hrv", ["synth"]),
])
def test_non_finite_config_value_exits_one(workspace, capsys, setting, command, prepare):
    _, config = workspace
    for step in prepare:
        assert run(config, step) == 0
    capsys.readouterr()
    assert main(["--config", str(config), "--set", setting, command]) == 1
    key = setting.split("=")[0]
    assert f"bad value for {key!r}: not a finite number" in capsys.readouterr().err


def test_non_utf8_config_file_exits_one(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"synth.subjects = 2 # \xff\n")
    assert main(["--config", str(config), "synth"]) == 1
    assert f"{config}: not valid UTF-8" in capsys.readouterr().err


def test_subject_count_below_one_exits_one(workspace, capsys):
    tmp, config = workspace
    assert main(["--config", str(config), "--set", "synth.subjects=-3", "synth"]) == 1
    assert "bad value for 'synth.subjects'" in capsys.readouterr().err
    assert not (tmp / "data").exists()
