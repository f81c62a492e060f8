"""The benchmark's workloads: seeded inputs, set-up, one unit of work, checks.

Every call into seismonet goes through a module attribute
(``training.train``, ``records.load_record``, ...), so the tracing probe can
rebind it; this file itself holds no timing or tracing code.

A unit of work is one training epoch (train loop plus validation pass) on
the ``train_*`` workloads and one scored record (load, segment, evaluate) on
``eval_long``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from seismonet import checkpoint, evaluation, model, records, synth, training, windows
from seismonet.detect import ValleyParams
from seismonet.errors import SeismoNetError

HERE = Path(__file__).resolve().parent
REFS_JSON = HERE / "refs.json"
REF_WAVEFORMS_NPZ = HERE / "ref_waveforms.npz"

# The stored references are for these fixed inputs, whatever --seed is.
REF_SEED = 0
# float32 tolerances for the stored references: relative to the loss, and
# relative to the reference waveform's largest magnitude.
LOSS_RTOL = 1e-4
WAVE_RTOL = 1e-4
ORACLE_MIN = 0.99
TOL_MS = 90.0


def reference_prediction(net, fs: float, window_s: float) -> np.ndarray:
    """The model's output on the fixed window of the stored-waveform checks."""
    rec = synth.synth_record(synth.SynthParams(fs=fs, duration_s=window_s, seed=REF_SEED),
                             "ref")
    return net.predict(rec.scg)


def check_waveform(tally: "Tally", name: str, got: np.ndarray) -> None:
    with np.load(REF_WAVEFORMS_NPZ) as refs:
        ref = refs[name]
    err = float(np.max(np.abs(got - ref)))
    tally.check("reference_waveform", err <= WAVE_RTOL * float(np.max(np.abs(ref))),
                f"max abs error {err!r} against the stored {name} waveform")


class Tally:
    """Operations attempted and failed, plus a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def ops(self, count: int, failure: str | None = None) -> None:
        self.attempted += count
        if failure is not None:
            self.failed += count
            self.notes.append(failure)

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.ops(1, None if ok else f"check {name} failed: {detail}")


# ---------------------------------------------------------------------------
# Training workloads.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainWorkload:
    name: str
    why: str
    fs: float
    window_s: float
    hop_s: float
    dt_clip: float | None
    subjects: int
    duration_s: float
    levels: int
    base_channels: int
    batch: int

    kind = "train"

    def synth_params(self, seed: int, index: int, duration_s: float):
        return synth.SynthParams(fs=self.fs, duration_s=duration_s,
                                 mean_hr_bpm=62.0 + 3 * index, hr_jitter=0.06,
                                 scg_noise_sigma=0.2, seed=seed * 100 + index)

    def split(self, seed: int, subjects: int, duration_s: float):
        wins = []
        for i in range(subjects):
            rec = synth.synth_record(self.synth_params(seed, i, duration_s), f"s{i}")
            wins.extend(windows.labeled_only(windows.segment_windows(
                rec, self.window_s, self.hop_s, self.dt_clip)))
        return windows.split_dataset(wins, (0.6, 0.2, 0.2))

    def model_config(self):
        return model.ModelConfig(input_len=round(self.window_s * self.fs),
                                 levels=self.levels, base_channels=self.base_channels)

    def train_config(self, seed: int):
        return training.TrainConfig(epochs=1, batch_size=self.batch, seed=seed,
                                    checkpoint_every=0)

    def setup(self, seed: int, work_dir: Path) -> "TrainSetup":
        split = self.split(seed, self.subjects, self.duration_s)
        net = model.build_model(self.model_config(), seed=seed)
        path = work_dir / f"{self.name}.smn"
        checkpoint.save_checkpoint(net, path)
        return TrainSetup(self, seed, split, checkpoint.load_checkpoint(path))

    def reference_run(self) -> tuple[float, np.ndarray]:
        """One epoch on the fixed reference inputs (one subject): the train
        loss, and the trained model's output on the reference window."""
        split = self.split(REF_SEED, 1, self.duration_s)
        net = model.build_model(self.model_config(), seed=REF_SEED)
        _, history = training.train(net, split, self.train_config(REF_SEED))
        return (history.records[0].train_loss,
                reference_prediction(net, self.fs, self.window_s))


class TrainSetup:
    def __init__(self, workload: TrainWorkload, seed: int, split, net):
        self.workload = workload
        self.split = split
        self.net = net
        self.cfg = workload.train_config(seed)
        self.unit_windows = len(split.train)
        self.unit_record_s = len(split.train) * workload.window_s
        self.unit_ops = math.ceil(len(split.train) / workload.batch) + 1  # steps + val pass

    def describe(self) -> str:
        wl = self.workload
        return (f"{wl.subjects} synthetic subject(s) x {wl.duration_s:g} s at "
                f"{wl.fs:g} Hz; {wl.window_s:g} s windows ({round(wl.window_s * wl.fs)} "
                f"samples), hop {wl.hop_s:g} s; split 60/20/20 -> train "
                f"{len(self.split.train)}, val {len(self.split.val)}, test "
                f"{len(self.split.test)} windows; levels {wl.levels}, base "
                f"{wl.base_channels}, {self.net.params.count_values()} parameters; "
                f"batch {wl.batch}; unit = 1 epoch ({self.unit_ops - 1} steps + val)")

    def unit(self, tally: Tally) -> None:
        _, history = training.train(self.net, self.split, self.cfg)
        rec = history.records[0]
        tally.ops(self.unit_ops)
        tally.check("finite_loss", math.isfinite(rec.train_loss) and math.isfinite(rec.val_loss),
                    f"train {rec.train_loss}, val {rec.val_loss}")

    def verify(self, tally: Tally) -> None:
        expected = json.loads(REFS_JSON.read_text())[self.workload.name]["first_epoch_loss"]
        loss, waveform = self.workload.reference_run()
        tally.check("reference_loss", abs(loss - expected) <= LOSS_RTOL * abs(expected),
                    f"first-epoch loss {loss!r} vs stored {expected!r}")
        check_waveform(tally, self.workload.name, waveform)


# ---------------------------------------------------------------------------
# Record-scoring workload.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalWorkload:
    name: str
    why: str
    fs: float
    duration_s: float
    window_s: float
    hop_s: float
    model_seed: int  # fixed, so the stored reference waveform applies

    kind = "eval"
    params = ValleyParams()

    def model_config(self):
        return model.ModelConfig(input_len=round(self.window_s * self.fs))

    def setup(self, seed: int, work_dir: Path) -> "EvalSetup":
        rec = synth.synth_record(synth.SynthParams(fs=self.fs, duration_s=self.duration_s,
                                                   seed=seed), "long")
        csv_path = work_dir / f"{self.name}.csv"
        records.write_record(rec, csv_path)
        net = model.build_model(self.model_config(), seed=self.model_seed)
        path = work_dir / f"{self.name}.smn"
        checkpoint.save_checkpoint(net, path)
        return EvalSetup(self, csv_path, len(rec), len(rec.rpeaks),
                         checkpoint.load_checkpoint(path))


class EvalSetup:
    def __init__(self, workload: EvalWorkload, csv_path: Path, rows: int, beats: int, net):
        self.workload = workload
        self.csv_path = csv_path
        self.rows = rows
        self.beats = beats
        self.net = net
        w = round(workload.window_s * workload.fs)
        hop = round(workload.hop_s * workload.fs)
        self.unit_windows = (rows - w) // hop + 1
        self.unit_record_s = rows / workload.fs
        self.unit_ops = self.unit_windows
        self.min_gap = workload.params.refractory_ms * workload.fs / 1000.0 / 2.0
        self.last_windows = None

    def describe(self) -> str:
        wl = self.workload
        return (f"1 synthetic annotated record, {wl.duration_s:g} s at {wl.fs:g} Hz "
                f"({self.rows} CSV rows, {self.beats} beats); {wl.window_s:g} s windows, "
                f"hop {wl.hop_s:g} s -> {self.unit_windows} windows; paper-default model "
                f"({self.net.params.count_values()} parameters, untrained, seed "
                f"{wl.model_seed}); unit = load + segment + evaluate_subject")

    def unit(self, tally: Tally) -> None:
        wl = self.workload
        merged: list[np.ndarray] = []
        merge = evaluation.merge_detections

        def capture(hits, min_gap):
            out = merge(hits, min_gap)
            merged.append(out)
            return out

        rec = records.load_record(self.csv_path, wl.fs)
        wins = windows.segment_windows(rec, wl.window_s, wl.hop_s)
        evaluation.merge_detections = capture
        try:
            score = evaluation.evaluate_subject(self.net, wins, wl.fs, wl.params, TOL_MS)
        finally:
            evaluation.merge_detections = merge
        tally.ops(len(wins))
        self.last_windows = wins
        self._check_score(tally, score, merged[0], wins, len(rec))

    def _check_score(self, tally, score, peaks, wins, length) -> None:
        gaps = np.diff(peaks)
        tally.check("merged_increasing", bool(np.all(gaps > 0)), "merged peaks not increasing")
        tally.check("merged_in_range", peaks.size == 0 or (peaks[0] >= 0 and peaks[-1] < length),
                    f"merged peaks outside [0, {length})")
        tally.check("merged_gap", bool(np.all(gaps >= self.min_gap)),
                    f"merged peaks closer than {self.min_gap} samples")
        covered = np.unique(np.concatenate([w.rpeaks_local + w.start for w in wins]))
        tally.check("score_counts",
                    score.detected_total == peaks.size
                    and score.actual_total == covered.size
                    and score.tp + score.fp == score.detected_total
                    and score.tp + score.fn == score.actual_total,
                    f"inconsistent counts {score}")

    def verify(self, tally: Tally) -> None:
        wl = self.workload
        check_waveform(tally, wl.name, reference_prediction(self.net, wl.fs, wl.window_s))
        if self.last_windows is None:
            tally.check("oracle", False, "no record was scored")
            return
        oracle = evaluation.evaluate_subject(lambda w: w.target_dt, self.last_windows,
                                             wl.fs, wl.params, TOL_MS)
        tally.check("oracle", oracle.se >= ORACLE_MIN and oracle.ppv >= ORACLE_MIN,
                    f"oracle Se {oracle.se:.4f}, PPV {oracle.ppv:.4f} "
                    f"(tp {oracle.tp}, fp {oracle.fp}, fn {oracle.fn})")


WORKLOADS = {
    wl.name: wl for wl in (
        TrainWorkload(
            name="train_paper",
            why=("paper-default net (levels 5, base 32), 10 s windows at 250 Hz, batch 16, "
                 "16 train + 4 val windows per epoch: the headline training cost, "
                 "large conv GEMMs"),
            fs=250.0, window_s=10.0, hop_s=5.0, dt_clip=None, subjects=1,
            duration_s=140.0, levels=5, base_channels=32, batch=16),
        TrainWorkload(
            name="train_desk",
            why=("desk net (levels 3, base 8), 2 s windows at 100 Hz, batch 8, 6 subjects x "
                 "120 s: small shapes where per-call overhead and glue dominate"),
            fs=100.0, window_s=2.0, hop_s=1.0, dt_clip=40.0, subjects=6,
            duration_s=120.0, levels=3, base_channels=8, batch=8),
        EvalWorkload(
            name="eval_long",
            why=("one 10 min record at 250 Hz (150k CSV rows, 119 windows) scored with the "
                 "untrained paper-default net: CSV parsing, forward-only inference, thinning"),
            fs=250.0, duration_s=600.0, window_s=10.0, hop_s=5.0, model_seed=0),
    )
}


def run_unit(setup, tally: Tally) -> bool:
    """One unit of work; a seismonet error counts its operations as failed."""
    try:
        setup.unit(tally)
    except SeismoNetError as exc:
        tally.ops(setup.unit_ops, f"unit failed: {type(exc).__name__}: {exc}")
        return False
    return True
