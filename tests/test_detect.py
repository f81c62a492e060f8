"""Valley detection, greedy matching, and ratio metrics.

The two quadratic thinning loops that ``detect.thin`` replaced are kept
below as the reference: the refractory step of the old ``detect_valleys``
and the old ``merge_detections``. Both scan every kept position for each
candidate.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import peak_prominences

from seismonet.detect import (
    ValleyParams,
    detect_valleys,
    match_peaks,
    ppv,
    sensitivity,
    thin,
)
from seismonet.errors import ValidationError
from seismonet.evaluation import merge_detections
from seismonet.windows import distance_transform


# ----------------------------------------------------------------------
# reference (quadratic) thinning
# ----------------------------------------------------------------------

def ref_detect_valleys(t_pred, fs, params=ValleyParams()):
    signal = np.asarray(t_pred, dtype=np.float64)
    if params.smoothing > 1:
        kernel = np.ones(params.smoothing) / params.smoothing
        signal = np.convolve(signal, kernel, mode="same")
    interior = np.arange(1, signal.size - 1)
    is_valley = (signal[interior] < signal[interior - 1]) & \
                (signal[interior] < signal[interior + 1])
    candidates = interior[is_valley]
    if candidates.size == 0:
        return np.zeros(0, dtype=np.int64)
    if params.min_prominence > 0:
        prominences = peak_prominences(-signal, candidates)[0]
        candidates = candidates[prominences >= params.min_prominence]
        if candidates.size == 0:
            return np.zeros(0, dtype=np.int64)

    gap = params.refractory_ms * fs / 1000.0
    order = np.lexsort((candidates, signal[candidates]))
    kept: list[int] = []
    for idx in candidates[order]:
        if all(abs(int(idx) - k) >= gap for k in kept):
            kept.append(int(idx))
    return np.asarray(sorted(kept), dtype=np.int64)


def ref_merge(hits, min_gap):
    kept: list[int] = []
    for idx, _depth in sorted(hits, key=lambda h: (h[1], h[0])):
        if all(abs(idx - k) >= min_gap for k in kept):
            kept.append(idx)
    return np.asarray(sorted(kept), dtype=np.int64)


def assert_same(got, want):
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)


# Few distinct positions and depths, so duplicates and ties are common.
hit_lists = st.lists(st.tuples(st.integers(0, 60), st.sampled_from([0.0, 0.5, 1.0, 2.5, -1.0])),
                     max_size=40)
gaps = st.one_of(st.integers(0, 12).map(float), st.floats(0.0, 12.0))


@settings(max_examples=300, deadline=None)
@given(hits=hit_lists, gap=gaps)
def test_thin_and_merge_match_reference(hits, gap):
    want = ref_merge(hits, gap)
    assert_same(merge_detections(hits, gap), want)
    positions = np.array([h[0] for h in hits], dtype=np.int64)
    depths = np.array([h[1] for h in hits], dtype=np.float64)
    assert_same(thin(positions, depths, gap), want)


@settings(max_examples=300, deadline=None)
@given(signal=st.lists(st.integers(0, 6).map(float), min_size=3, max_size=120),
       fs=st.sampled_from([10.0, 50.0, 100.0, 250.0]),
       refractory_ms=st.floats(1.0, 300.0),
       smoothing=st.sampled_from([0, 3]),
       min_prominence=st.sampled_from([0.0, 0.5]))
def test_detect_valleys_matches_reference(signal, fs, refractory_ms, smoothing,
                                          min_prominence):
    params = ValleyParams(min_prominence=min_prominence, refractory_ms=refractory_ms,
                          smoothing=smoothing)
    assert_same(detect_valleys(np.array(signal), fs, params),
                ref_detect_valleys(signal, fs, params))


def test_thin_empty():
    assert_same(thin(np.zeros(0, dtype=np.int64), np.zeros(0), 5.0), np.zeros(0))
    assert_same(merge_detections([], 5.0), np.zeros(0))


def exhaustive_max_matching(detected, actual, tol):
    """Largest one-to-one matching, by brute-force recursion (small inputs)."""
    pairs = [(i, j) for i, d in enumerate(detected) for j, a in enumerate(actual)
             if abs(d - a) <= tol]

    def best(idx, used_d, used_a):
        if idx == len(pairs):
            return 0
        i, j = pairs[idx]
        skip = best(idx + 1, used_d, used_a)
        if i in used_d or j in used_a:
            return skip
        take = 1 + best(idx + 1, used_d | {i}, used_a | {j})
        return max(skip, take)

    return best(0, frozenset(), frozenset())


# ----------------------------------------------------------------------
# detect_valleys
# ----------------------------------------------------------------------

def test_valleys_of_exact_transform():
    # fs chosen so the refractory gap (200 ms -> 2 samples) sits below the
    # annotation spacing
    dt = distance_transform([2, 7], 10).astype(float)
    found = detect_valleys(dt, fs=10.0)
    np.testing.assert_array_equal(found, [2, 7])


def test_monotone_ramp_has_no_valleys():
    assert detect_valleys(np.arange(20.0), fs=100.0).size == 0


def test_refractory_keeps_deeper_valley():
    signal = np.full(400, 10.0)
    signal[100] = 2.0   # shallower
    signal[150] = 1.0   # deeper, 50 ms away at 1 kHz
    found = detect_valleys(signal, fs=1000.0,
                           params=ValleyParams(refractory_ms=200.0))
    np.testing.assert_array_equal(found, [150])


def test_min_prominence_filters_shallow_dips():
    signal = np.full(300, 10.0)
    signal[50] = 9.5            # dip of 0.5
    signal[200] = 2.0           # deep valley
    found = detect_valleys(signal, fs=1000.0,
                           params=ValleyParams(min_prominence=1.0))
    np.testing.assert_array_equal(found, [200])


def test_smoothing_removes_jitter_valleys():
    rng = np.random.default_rng(0)
    base = np.abs(np.arange(-100, 101, dtype=float))
    noisy = base + rng.normal(0, 0.3, base.size)
    raw = detect_valleys(noisy, fs=100.0, params=ValleyParams(refractory_ms=10.0))
    smoothed = detect_valleys(noisy, fs=100.0,
                              params=ValleyParams(refractory_ms=10.0, smoothing=7))
    assert smoothed.size <= raw.size


def test_valleys_too_short_rejected():
    with pytest.raises(ValidationError):
        detect_valleys(np.array([1.0, 2.0]), fs=10.0)


def test_exact_transform_fixed_point_property(rng):
    # annotations spaced beyond the refractory gap: valleys of the exact
    # transform recover every interior annotation, and matching at any
    # positive tolerance is perfect
    fs = 100.0
    gap = int(200.0 * fs / 1000.0)  # refractory in samples
    for _ in range(100):
        n = int(rng.integers(1, 10))
        spacing = rng.integers(gap + 2, 3 * gap, size=n)
        ann = np.cumsum(spacing) + int(rng.integers(1, gap))
        length = int(ann[-1] + rng.integers(2, gap))
        dt = distance_transform(ann, length).astype(float)
        found = detect_valleys(dt, fs=fs)
        interior = ann[(ann > 0) & (ann < length - 1)]
        assert set(interior.tolist()) <= set(found.tolist())
        tp, fp, fn = match_peaks(found, ann, tol_ms=10.0, fs=fs)
        if interior.size == ann.size:
            assert fp == 0 and fn == 0
            assert sensitivity(tp, fn) == 1.0
            assert ppv(tp, fp) == 1.0


# ----------------------------------------------------------------------
# match_peaks
# ----------------------------------------------------------------------

def test_match_worked_example():
    tp, fp, fn = match_peaks(np.array([100, 300]), np.array([105, 600]),
                             tol_ms=90.0, fs=1000.0)
    assert (tp, fp, fn) == (1, 1, 1)


def test_match_identical_sets():
    actual = np.array([50, 200, 420])
    tp, fp, fn = match_peaks(actual, actual, tol_ms=90.0, fs=1000.0)
    assert (tp, fp, fn) == (3, 0, 0)


def test_match_accounting_random(rng):
    for _ in range(200):
        detected = np.unique(rng.integers(0, 2000, size=rng.integers(0, 15)))
        actual = np.unique(rng.integers(0, 2000, size=rng.integers(0, 15)))
        tp, fp, fn = match_peaks(detected, actual, tol_ms=90.0, fs=1000.0)
        assert tp + fp == detected.size
        assert tp + fn == actual.size


def test_match_greedy_equals_exhaustive_on_separated_actuals(rng):
    # actual peaks separated by more than twice the tolerance, as beats are
    tol_ms, fs = 90.0, 1000.0
    tol = tol_ms * fs / 1000.0
    for _ in range(100):
        n_actual = int(rng.integers(1, 8))
        gaps = rng.integers(int(2 * tol) + 5, int(4 * tol), size=n_actual)
        actual = np.cumsum(gaps)
        detected = np.unique(rng.integers(0, int(actual[-1] + 2 * tol),
                                          size=rng.integers(0, 10)))
        tp, _, _ = match_peaks(detected, actual, tol_ms, fs)
        assert tp == exhaustive_max_matching(detected.tolist(), actual.tolist(), tol)


def test_match_shift_invariance(rng):
    detected = np.unique(rng.integers(100, 3000, size=8))
    actual = np.unique(rng.integers(100, 3000, size=8))
    base = match_peaks(detected, actual, 90.0, 1000.0)
    shifted = match_peaks(detected + 5000, actual + 5000, 90.0, 1000.0)
    assert base == shifted


# ----------------------------------------------------------------------
# sensitivity / ppv
# ----------------------------------------------------------------------

def test_metrics_table_totals():
    assert f"{sensitivity(6323, 114):.2f}" == "0.98"
    assert f"{ppv(6323, 115):.2f}" == "0.98"


def test_metrics_zero_denominator_is_nan():
    assert math.isnan(sensitivity(0, 0))
    assert math.isnan(ppv(0, 0))


def test_metrics_reject_negative_counts():
    with pytest.raises(ValidationError):
        sensitivity(-1, 2)
    with pytest.raises(ValidationError):
        ppv(1, -2)


def test_metrics_in_unit_interval(rng):
    for _ in range(100):
        tp, fp, fn = rng.integers(0, 50, size=3)
        if tp + fn > 0:
            assert 0.0 <= sensitivity(int(tp), int(fn)) <= 1.0
        if tp + fp > 0:
            assert 0.0 <= ppv(int(tp), int(fp)) <= 1.0
