"""Valley detection on predicted waveforms and tolerance-based peak scoring."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .fieldcodec import Bounded, bounded


@dataclass(frozen=True)
class ValleyParams(Bounded):
    """Detector knobs; prominence is in the waveform's units (samples)."""

    min_prominence: float = field(default=0.0, metadata=bounded(0))
    refractory_ms: float = field(default=200.0, metadata=bounded(0, open_low=True))
    smoothing: int = field(default=0, metadata=bounded(0))


def detect_valleys(t_pred: np.ndarray, fs: float,
                   params: ValleyParams = ValleyParams()) -> np.ndarray:
    """Indices of waveform valleys, thinned by the refractory period.

    A valley is a sample strictly lower than both neighbors (after optional
    moving-average smoothing) with prominence at least ``min_prominence``.
    Greedy thinning keeps the deeper of any two valleys closer than
    refractory_ms*fs/1000 samples.
    """
    signal = np.asarray(t_pred, dtype=np.float64)
    if signal.size < 3:
        raise ValidationError(f"need at least 3 samples, got {signal.size}")
    if params.smoothing > 1:
        kernel = np.ones(params.smoothing) / params.smoothing
        signal = np.convolve(signal, kernel, mode="same")

    interior = np.arange(1, signal.size - 1)
    is_valley = (signal[interior] < signal[interior - 1]) & \
                (signal[interior] < signal[interior + 1])
    candidates = interior[is_valley]
    if params.min_prominence > 0:
        # Imported here: scipy.signal costs about 0.9 s and 77 MB RSS to load.
        from scipy.signal import peak_prominences

        prominences = peak_prominences(-signal, candidates)[0]
        candidates = candidates[prominences >= params.min_prominence]
    return thin(candidates, signal[candidates], params.refractory_ms * fs / 1000.0)


def thin(positions: np.ndarray, depths: np.ndarray, gap: float) -> np.ndarray:
    """Greedy refractory thinning; the kept positions, sorted, as int64.

    Positions are visited deepest first, ties resolved by position for
    determinism; one is kept unless an already kept one lies closer than
    ``gap``. A kept position suppresses its neighbours, found by binary
    search in position order, so thinning is O(n log n).
    """
    positions = np.asarray(positions, dtype=np.int64)
    order = np.argsort(positions)
    positions = positions[order]
    depths = np.asarray(depths, dtype=np.float64)[order]
    # Integer positions are closer than gap exactly when at most `reach`
    # apart; [lo, hi) holds those neighbours.
    reach = np.ceil(gap) - 1.0
    lo = np.searchsorted(positions, positions - reach, side="left").tolist()
    hi = np.searchsorted(positions, positions + reach, side="right").tolist()

    suppressed = np.zeros(positions.size, dtype=bool)
    keep = np.zeros(positions.size, dtype=bool)
    for i in np.lexsort((positions, depths)).tolist():
        if not suppressed[i]:
            keep[i] = True
            suppressed[lo[i]:hi[i]] = True
    return positions[keep]


def match_peaks(detected: np.ndarray, actual: np.ndarray, tol_ms: float,
                fs: float) -> tuple[int, int, int]:
    """One-to-one greedy nearest matching within a time tolerance.

    Candidate pairs within tol_ms*fs/1000 samples are taken closest first,
    each detection and each actual peak used at most once. Returns
    (TP, FP, FN).
    """
    detected = np.asarray(detected, dtype=np.int64)
    actual = np.asarray(actual, dtype=np.int64)
    tol = tol_ms * fs / 1000.0

    pairs = []
    for di, d in enumerate(detected):
        lo = np.searchsorted(actual, d - math.ceil(tol))
        hi = np.searchsorted(actual, d + math.ceil(tol) + 1)
        for ai in range(lo, hi):
            dist = abs(int(d) - int(actual[ai]))
            if dist <= tol:
                pairs.append((dist, di, ai))
    pairs.sort()

    used_d = np.zeros(detected.size, dtype=bool)
    used_a = np.zeros(actual.size, dtype=bool)
    tp = 0
    for _, di, ai in pairs:
        if not used_d[di] and not used_a[ai]:
            used_d[di] = True
            used_a[ai] = True
            tp += 1
    return tp, int(detected.size - tp), int(actual.size - tp)


def sensitivity(tp: int, fn: int) -> float:
    """TP/(TP+FN); NaN when the denominator is zero."""
    if tp < 0 or fn < 0:
        raise ValidationError("counts must be non-negative")
    if tp + fn == 0:
        return math.nan
    return tp / (tp + fn)


def ppv(tp: int, fp: int) -> float:
    """TP/(TP+FP); NaN when the denominator is zero."""
    if tp < 0 or fp < 0:
        raise ValidationError("counts must be non-negative")
    if tp + fp == 0:
        return math.nan
    return tp / (tp + fp)
