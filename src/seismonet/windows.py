"""Windowing, distance-transform targets, and train/val/test splitting."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientDataError, ValidationError
from .records import Record


@dataclass(eq=False)
class Window:
    """One fixed-length SCG segment with its local annotations.

    ``rpeaks_local`` are annotation indices relative to ``start``. A window
    is labeled when at least one of them falls inside it; its ``target_dt``
    is then the per-sample distance (in samples) to the nearest local
    annotation, clipped at ``dt_clip`` when set, computed on each read, so
    no window holds a target. ``segment_windows`` makes ``scg_seg`` a
    read-only view of the record's samples, so overlapping windows share
    memory. Windows compare by identity: a field-wise ``==`` would compare
    arrays, whose truth value is ambiguous.
    """

    subject_id: str
    start: int
    scg_seg: np.ndarray
    rpeaks_local: np.ndarray | None = None
    dt_clip: float | None = None

    @property
    def length(self) -> int:
        return self.scg_seg.size

    @property
    def labeled(self) -> bool:
        return self.rpeaks_local is not None and self.rpeaks_local.size > 0

    @property
    def target_dt(self) -> np.ndarray | None:
        if not self.labeled:
            return None
        target = distance_transform(self.rpeaks_local, self.length).astype(np.float64)
        if self.dt_clip is not None:
            np.minimum(target, float(self.dt_clip), out=target)
        return target


@dataclass
class DatasetSplit:
    """Disjoint train/validation/test window collections."""

    train: list[Window]
    val: list[Window]
    test: list[Window]


def distance_transform(annotations, length: int) -> np.ndarray:
    """Per-sample distance to the nearest annotation, in samples.

    Two linear sweeps: a forward pass finds the nearest annotation at or
    before each index, a backward pass the nearest at or after; the output
    is the elementwise minimum. Exact integer arithmetic throughout.
    """
    if length <= 0:
        raise ValidationError(f"length must be > 0, got {length}")
    ann = np.unique(np.asarray(annotations, dtype=np.int64))
    if ann.size == 0:
        raise ValidationError("distance transform requires at least one annotation")
    if ann[0] < 0 or ann[-1] >= length:
        raise ValidationError(f"annotations must lie in [0, {length - 1}]")

    idx = np.arange(length, dtype=np.int64)
    sentinel = 2 * length

    before = np.full(length, -sentinel, dtype=np.int64)
    before[ann] = ann
    before = np.maximum.accumulate(before)

    after = np.full(length, 3 * sentinel, dtype=np.int64)
    after[ann] = ann
    after = np.minimum.accumulate(after[::-1])[::-1]

    return np.minimum(idx - before, after - idx)


def segment_windows(record: Record, w_sec: float, hop_sec: float,
                    dt_clip: float | None = None) -> list[Window]:
    """Cut a record into windows of w_sec every hop_sec.

    Windows start at 0, hop, 2*hop, ... while they fit entirely inside the
    record, giving floor((L-w)/hop)+1 windows. When the record carries
    R-peak annotations, each window receives its local annotation indices
    and ``dt_clip``; its distance-transform target (optionally clipped at
    ``dt_clip`` samples) is computed when read, if at least one annotation
    falls inside it.
    """
    w = _whole_samples(w_sec, record.fs, "window length")
    hop = _whole_samples(hop_sec, record.fs, "hop")
    length = len(record)
    if length < w:
        raise InsufficientDataError(
            f"record {record.subject_id!r} has {length} samples, shorter "
            f"than one window of {w}")

    starts = range(0, length - w + 1, hop)
    if record.rpeaks is not None:
        # rpeaks ascend, so each window's annotations are one slice of them.
        first = np.searchsorted(record.rpeaks, starts, side="left").tolist()
        stop = np.searchsorted(record.rpeaks, np.add(starts, w), side="left").tolist()
    windows = []
    for n, start in enumerate(starts):
        seg = record.scg[start:start + w]
        seg.flags.writeable = False
        local = None
        if record.rpeaks is not None:
            local = record.rpeaks[first[n]:stop[n]] - start
        windows.append(Window(record.subject_id, start, seg, local, dt_clip))
    return windows


def _whole_samples(seconds: float, fs: float, what: str) -> int:
    samples = seconds * fs
    rounded = round(samples)
    if rounded < 1 or abs(samples - rounded) > 1e-9 * max(1.0, abs(samples)):
        raise ValidationError(
            f"{what} of {seconds} s is not a whole positive number of "
            f"samples at fs={fs}")
    return int(rounded)


def labeled_only(windows: Sequence[Window]) -> list[Window]:
    """Drop windows without a distance-transform target (none is computed)."""
    return [w for w in windows if w.labeled]


def group_by_subject(windows: Sequence[Window]) -> dict[str, list[Window]]:
    groups: dict[str, list[Window]] = {}
    for w in windows:
        groups.setdefault(w.subject_id, []).append(w)
    return groups


def split_dataset(windows: Sequence[Window], ratios: tuple[float, float, float],
                  drop_boundary: bool = True) -> DatasetSplit:
    """Assign each subject's windows contiguously to train/val/test.

    Per subject: the first floor(r_train*n) windows go to train, the next
    floor(r_val*n) to val, the remainder to test. With ``drop_boundary``
    (the default), the first window of val and of test is dropped when it
    shares samples with the last window of the preceding split, so
    overlapped windows never leak across splits.
    """
    r_train, r_val, r_test = ratios
    if min(r_train, r_val, r_test) <= 0:
        raise ValidationError(f"ratios must be positive, got {ratios}")
    if abs(r_train + r_val + r_test - 1.0) > 1e-9:
        raise ValidationError(f"ratios must sum to 1, got {ratios}")

    train: list[Window] = []
    val: list[Window] = []
    test: list[Window] = []
    for subject, group in group_by_subject(windows).items():
        n = len(group)
        if n < 3:
            raise InsufficientDataError(
                f"subject {subject!r} has only {n} windows; need at least 3")
        n_train = math.floor(r_train * n + 1e-9)
        n_val = math.floor(r_val * n + 1e-9)
        parts = [group[:n_train], group[n_train:n_train + n_val],
                 group[n_train + n_val:]]
        if drop_boundary:
            for prev, cur in ((0, 1), (1, 2)):
                if parts[prev] and parts[cur] and _overlaps(parts[prev][-1], parts[cur][0]):
                    parts[cur] = parts[cur][1:]
        train.extend(parts[0])
        val.extend(parts[1])
        test.extend(parts[2])
    return DatasetSplit(train, val, test)


def _overlaps(a: Window, b: Window) -> bool:
    return b.start < a.start + a.length
