"""Scoring of detected beats against ground truth, per subject and overall."""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .detect import ValleyParams, detect_valleys, match_peaks, ppv, sensitivity, thin
from .errors import RecordFormatError, ValidationError
from .hrv import BlandAltmanStats, HrvIndices, bland_altman, hrv_indices, nn_intervals
from .windows import Window, group_by_subject

DEFAULT_TOL_MS = 90.0

# Windows per model forward pass in record inference. The batched
# predictions are bitwise equal to one-window calls (the tests check it).
# On one core with one BLAS thread, 4 and 8 scored a 10 min record equally
# fast, both about 1.25x faster than 1. With each batch split over two
# cores, the eval_long benchmark (4 pairs of runs) read a median 62.1
# windows/s at 4 and 67.4 at 8, but a peak RSS of 77.7 MB at 4 and
# 89.1-89.8 MB at 8; 4 holds less memory.
PREDICT_BATCH = 4

HRV_INDEX_NAMES = ("mean_nn_ms", "sdnn_ms", "rmssd_ms", "pnn50")
HRV_HEADER = "subject,source," + ",".join(HRV_INDEX_NAMES)

# One hrv.csv row: subject, derivation ("scg" or "ecg"), indices.
HrvRow = tuple[str, str, HrvIndices]


@dataclass(frozen=True)
class SubjectScore:
    """One detection-performance row plus the subject's HRV index pair."""

    subject_id: str
    detected_total: int
    actual_total: int
    tp: int
    fp: int
    fn: int
    scg_hrv: HrvIndices | None
    ecg_hrv: HrvIndices | None

    @property
    def se(self) -> float:
        return sensitivity(self.tp, self.fn)

    @property
    def ppv(self) -> float:
        return ppv(self.tp, self.fp)


@dataclass
class PeakMatchReport:
    rows: list[SubjectScore]

    def totals(self) -> tuple[int, int, int, int, int]:
        detected = sum(r.detected_total for r in self.rows)
        actual = sum(r.actual_total for r in self.rows)
        tp = sum(r.tp for r in self.rows)
        fp = sum(r.fp for r in self.rows)
        fn = sum(r.fn for r in self.rows)
        return detected, actual, tp, fp, fn

    @property
    def total_se(self) -> float:
        _, _, tp, _, fn = self.totals()
        return sensitivity(tp, fn)

    @property
    def total_ppv(self) -> float:
        _, _, tp, fp, _ = self.totals()
        return ppv(tp, fp)

    def to_csv(self, path: str | Path) -> None:
        """Write per-subject rows plus a total row; Se/PPV at 2 decimals."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("subject,detected,actual,tp,fp,fn,se,ppv\n")
            for r in self.rows:
                fh.write(f"{r.subject_id},{r.detected_total},{r.actual_total},"
                         f"{r.tp},{r.fp},{r.fn},{_round2(r.se)},{_round2(r.ppv)}\n")
            detected, actual, tp, fp, fn = self.totals()
            fh.write(f"total,{detected},{actual},{tp},{fp},{fn},"
                     f"{_round2(self.total_se)},{_round2(self.total_ppv)}\n")


def _round2(value: float) -> str:
    return "nan" if math.isnan(value) else f"{value:.2f}"


def merge_detections(hits: Sequence[tuple[int, float]], min_gap: float) -> np.ndarray:
    """Deduplicate record-coordinate detections, keeping the deeper valley
    of any two closer than min_gap samples."""
    positions = np.fromiter((h[0] for h in hits), dtype=np.int64, count=len(hits))
    depths = np.fromiter((h[1] for h in hits), dtype=np.float64, count=len(hits))
    return thin(positions, depths, min_gap)


def _predict_batched(predict, windows: Sequence[Window]) -> Iterator[np.ndarray]:
    """One prediction per window, from ``predict`` on (b, w) stacks.

    A stack whose windows differ in length is predicted window by window,
    so the model's own length check rejects the odd window.
    """
    for lo in range(0, len(windows), PREDICT_BATCH):
        batch = windows[lo:lo + PREDICT_BATCH]
        if len({w.length for w in batch}) == 1:
            yield from predict(np.stack([w.scg_seg for w in batch]))
        else:
            yield from (predict(w.scg_seg) for w in batch)


class RecordInference:
    """The record-inference loop, for a model or a plain window->waveform
    callable.

    A model's ``.predict`` runs on stacks of ``PREDICT_BATCH`` windows; a
    callable is called on one window per step. Iterating checks each
    prediction's length and yields ``(window, prediction, valleys)`` one
    window at a time, valleys in window coordinates, so no caller needs
    every waveform of a record at once. ``merged()`` then deduplicates all
    valleys in record coordinates, collapsing those within half the
    refractory period to the deeper one.
    """

    def __init__(self, model, windows: Sequence[Window], fs: float,
                 valley_params: ValleyParams):
        if not (hasattr(model, "predict") or callable(model)):
            raise ValidationError("model must expose .predict or be callable on a window")
        self.model, self.windows, self.fs, self.valley_params = model, windows, fs, valley_params
        self.hits: list[tuple[int, float]] = []

    def __iter__(self) -> Iterator[tuple[Window, np.ndarray, np.ndarray]]:
        if hasattr(self.model, "predict"):
            predictions = _predict_batched(self.model.predict, self.windows)
        else:
            predictions = map(self.model, self.windows)
        for window, pred in zip(self.windows, predictions):
            pred = np.asarray(pred, dtype=np.float64).reshape(-1)
            if pred.size != window.length:
                raise ValidationError(
                    f"prediction length {pred.size} != window length {window.length}")
            valleys = detect_valleys(pred, self.fs, self.valley_params)
            self.hits.extend((int(v + window.start), float(pred[v])) for v in valleys)
            yield window, pred, valleys

    def merged(self) -> np.ndarray:
        return merge_detections(
            self.hits, self.valley_params.refractory_ms * self.fs / 1000.0 / 2.0)


def evaluate_subject(model, test_windows: Sequence[Window], fs: float,
                     valley_params: ValleyParams = ValleyParams(),
                     tol_ms: float = DEFAULT_TOL_MS,
                     per_window: bool = False) -> SubjectScore:
    """Run the model over one subject's test windows and score detections.

    By default, detections and annotations from overlapping windows are
    mapped to record coordinates and deduplicated (detections within half
    the refractory period collapse to the deeper one) before a single
    matching pass. With ``per_window`` each window is matched separately
    and the counts summed. HRV indices always use the deduplicated,
    record-coordinate peak trains: model detections for the SCG side,
    annotations for the ECG side.
    """
    if not test_windows:
        raise ValidationError("no test windows given")
    subject = test_windows[0].subject_id
    for window in test_windows:
        if window.rpeaks_local is None:
            raise ValidationError(
                f"window (subject={subject!r}, start={window.start}) has no annotations")

    inference = RecordInference(model, test_windows, fs, valley_params)
    actual_all: list[int] = []
    tp = fp = fn = 0
    detected_total = actual_total = 0
    for window, _, valleys in inference:
        local_actual = np.asarray(window.rpeaks_local, dtype=np.int64)
        actual_all.extend(int(a + window.start) for a in local_actual)
        if per_window:
            w_tp, w_fp, w_fn = match_peaks(valleys, local_actual, tol_ms, fs)
            tp += w_tp
            fp += w_fp
            fn += w_fn
            detected_total += valleys.size
            actual_total += local_actual.size

    detected_merged = inference.merged()
    actual_merged = np.unique(np.asarray(actual_all, dtype=np.int64))

    if not per_window:
        tp, fp, fn = match_peaks(detected_merged, actual_merged, tol_ms, fs)
        detected_total = int(detected_merged.size)
        actual_total = int(actual_merged.size)

    return SubjectScore(
        subject_id=subject,
        detected_total=detected_total,
        actual_total=actual_total,
        tp=tp, fp=fp, fn=fn,
        scg_hrv=_indices_or_none(detected_merged, fs),
        ecg_hrv=_indices_or_none(actual_merged, fs),
    )


def _indices_or_none(peaks: np.ndarray, fs: float) -> HrvIndices | None:
    if peaks.size < 3:
        return None
    return hrv_indices(nn_intervals(peaks, fs))


def evaluate_split(model, test_windows: Sequence[Window], fs: float,
                   valley_params: ValleyParams = ValleyParams(),
                   tol_ms: float = DEFAULT_TOL_MS,
                   per_window: bool = False) -> PeakMatchReport:
    """Score every subject present in the given windows."""
    groups = group_by_subject(test_windows)
    rows = [
        evaluate_subject(model, windows, fs, valley_params, tol_ms, per_window)
        for windows in groups.values()
    ]
    return PeakMatchReport(rows)


def hrv_table(report: PeakMatchReport) -> list[HrvRow]:
    """(subject, source, indices) rows for both derivations."""
    rows = []
    for r in report.rows:
        if r.scg_hrv is not None:
            rows.append((r.subject_id, "scg", r.scg_hrv))
        if r.ecg_hrv is not None:
            rows.append((r.subject_id, "ecg", r.ecg_hrv))
    return rows


def write_hrv_csv(rows: Sequence[HrvRow], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(HRV_HEADER + "\n")
        for subject, source, idx in rows:
            fh.write(f"{subject},{source},{idx.mean_nn!r},{idx.sdnn!r},"
                     f"{idx.rmssd!r},{idx.pnn50!r}\n")


def read_hrv_csv(path: str | Path) -> list[HrvRow]:
    """Rows of a table in the ``write_hrv_csv`` layout, validated strictly.

    A wrong header, a row with the wrong field count, a non-numeric or
    non-finite value, or a repeated (subject, source) pair raises
    ``RecordFormatError`` naming the line, and bytes that are not UTF-8
    raise it naming the file. Blank lines are skipped.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"HRV table not found: {path}")
    n_fields = 2 + len(HRV_INDEX_NAMES)
    rows: dict[tuple[str, str], HrvIndices] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            if fh.readline().strip() != HRV_HEADER:
                raise RecordFormatError(f"{path}:1: expected the header {HRV_HEADER!r}")
            for lineno, line in enumerate(fh, start=2):
                parts = line.strip().split(",")
                if parts == [""]:
                    continue
                if len(parts) != n_fields:
                    raise RecordFormatError(
                        f"{path}:{lineno}: expected {n_fields} fields, got {len(parts)}")
                key = (parts[0], parts[1])
                if key in rows:
                    raise RecordFormatError(f"{path}:{lineno}: duplicate row for {key}")
                try:
                    values = [float(v) for v in parts[2:]]
                except ValueError as exc:
                    raise RecordFormatError(f"{path}:{lineno}: {exc}") from None
                if not all(map(math.isfinite, values)):
                    raise RecordFormatError(f"{path}:{lineno}: non-finite value")
                rows[key] = HrvIndices(*values)
    except UnicodeDecodeError:
        raise RecordFormatError(f"{path}: not valid UTF-8") from None
    return [(subject, source, idx) for (subject, source), idx in rows.items()]


def agreement_by_index(rows: Sequence[HrvRow]) -> dict[str, BlandAltmanStats]:
    """Bland-Altman statistics of SCG-derived vs ECG-derived indices.

    One pair per subject with both derivations, in order of first
    appearance; indices with fewer than two such subjects are omitted.
    """
    by_subject: dict[str, dict[str, HrvIndices]] = {}
    for subject, source, idx in rows:
        by_subject.setdefault(subject, {})[source] = idx
    paired = [(s["scg"], s["ecg"]) for s in by_subject.values() if "scg" in s and "ecg" in s]
    stats = {}
    for name, attr in zip(HRV_INDEX_NAMES, ("mean_nn", "sdnn", "rmssd", "pnn50")):
        pairs = [(getattr(scg, attr), getattr(ecg, attr)) for scg, ecg in paired]
        if len(pairs) >= 2:
            stats[name] = bland_altman(pairs)
    return stats


def write_agreement_csv(rows: Sequence[HrvRow], points_path: str | Path,
                        summary_path: str | Path) -> dict[str, BlandAltmanStats]:
    """Write the Bland-Altman point and summary tables; returns the statistics."""
    stats = agreement_by_index(rows)
    with open(points_path, "w", encoding="utf-8") as fh:
        fh.write("index,mean,diff\n")
        for name, st in stats.items():
            for mean, diff in st.points:
                fh.write(f"{name},{mean!r},{diff!r}\n")
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write("index,mean_diff,sd_diff,loa_low,loa_high,loa_range,outliers\n")
        for name, st in stats.items():
            fh.write(f"{name},{st.mean_diff!r},{st.sd_diff!r},{st.loa_low!r},"
                     f"{st.loa_high!r},{st.loa_range!r},{len(st.outliers)}\n")
    return stats
