"""Distance transform, windowing, and dataset splitting."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seismonet.detect import ValleyParams
from seismonet.errors import InsufficientDataError, ValidationError
from seismonet.evaluation import evaluate_subject
from seismonet.records import Record
from seismonet.windows import (
    Window,
    distance_transform,
    labeled_only,
    segment_windows,
    split_dataset,
)


def brute_force_dt(annotations, length):
    return np.array([min(abs(i - p) for p in annotations) for i in range(length)],
                    dtype=np.int64)


# ----------------------------------------------------------------------
# distance_transform
# ----------------------------------------------------------------------

def test_dt_all_indices_annotated():
    out = distance_transform(np.arange(6), 6)
    np.testing.assert_array_equal(out, np.zeros(6, dtype=np.int64))


def test_dt_single_annotation_at_origin():
    np.testing.assert_array_equal(distance_transform([0], 5), [0, 1, 2, 3, 4])


def test_dt_worked_example():
    np.testing.assert_array_equal(
        distance_transform([2, 7], 10), [2, 1, 0, 1, 2, 2, 1, 0, 1, 2])


def test_dt_empty_annotations_rejected():
    with pytest.raises(ValidationError):
        distance_transform([], 5)


def test_dt_out_of_range_rejected():
    with pytest.raises(ValidationError):
        distance_transform([5], 5)


def test_dt_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        length = int(rng.integers(1, 201))
        n_ann = int(rng.integers(1, max(2, length // 3) + 1))
        ann = np.unique(rng.integers(0, length, size=n_ann))
        out = distance_transform(ann, length)
        np.testing.assert_array_equal(out, brute_force_dt(ann, length))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_dt_properties(data):
    length = data.draw(st.integers(2, 120))
    ann = data.draw(st.sets(st.integers(0, length - 1), min_size=1, max_size=10))
    out = distance_transform(sorted(ann), length)
    assert np.all(out >= 0)
    assert np.all(out[sorted(ann)] == 0)
    zero_at = set(np.flatnonzero(out == 0).tolist())
    assert zero_at == set(ann)
    # 1-Lipschitz in sample units
    assert np.max(np.abs(np.diff(out))) <= 1


# ----------------------------------------------------------------------
# segment_windows
# ----------------------------------------------------------------------

def _record(duration_s, fs=100.0, with_peaks=True, seed=0):
    rng = np.random.default_rng(seed)
    n = int(duration_s * fs)
    scg = rng.normal(size=n)
    rpeaks = np.arange(int(0.4 * fs), n, int(0.8 * fs)) if with_peaks else None
    return Record("sub", fs, scg, ecg=None, rpeaks=rpeaks)


def test_window_count_60s_record():
    windows = segment_windows(_record(60.0), 10.0, 5.0)
    assert len(windows) == 11


def test_single_exact_fit():
    windows = segment_windows(_record(10.0), 10.0, 5.0)
    assert len(windows) == 1
    assert windows[0].start == 0


def test_too_short_record_rejected():
    with pytest.raises(InsufficientDataError):
        segment_windows(_record(5.0), 10.0, 5.0)


def test_window_count_formula_random():
    rng = np.random.default_rng(3)
    for _ in range(50):
        fs = 10.0
        w = int(rng.integers(1, 12))
        hop = int(rng.integers(1, 12))
        total = int(rng.integers(w * 10, 300))
        record = Record("s", fs, np.zeros(total))
        windows = segment_windows(record, w / fs, hop / fs)
        assert len(windows) == (total - w) // hop + 1


def test_overlapping_windows_reconstruct_stream():
    record = _record(20.0, fs=100.0, with_peaks=False, seed=5)
    w_sec, hop_sec = 2.0, 1.0
    windows = segment_windows(record, w_sec, hop_sec)
    hop = int(hop_sec * record.fs)
    pieces = [win.scg_seg[:hop] for win in windows[:-1]] + [windows[-1].scg_seg]
    np.testing.assert_array_equal(np.concatenate(pieces), record.scg)


def test_scg_seg_is_a_read_only_view_of_the_record():
    record = _record(20.0, fs=100.0, with_peaks=False, seed=5)
    before = record.scg.copy()
    windows = segment_windows(record, 2.0, 1.0)
    for win in windows:
        assert np.shares_memory(win.scg_seg, record.scg)
        np.testing.assert_array_equal(win.scg_seg, before[win.start:win.start + win.length])
    with pytest.raises(ValueError, match="read-only"):
        windows[3].scg_seg[0] = 1.0
    np.testing.assert_array_equal(record.scg, before)


def test_windows_carry_local_annotations_and_targets():
    record = _record(30.0)
    windows = segment_windows(record, 2.0, 1.0)
    for win in windows:
        assert win.rpeaks_local is not None
        if win.labeled:
            assert win.target_dt.size == win.length
            assert np.all(win.target_dt[win.rpeaks_local] == 0)


def test_dt_clip_caps_target():
    record = _record(30.0)
    windows = labeled_only(segment_windows(record, 2.0, 1.0, dt_clip=7))
    assert all(np.max(w.target_dt) <= 7 for w in windows)


def test_segment_windows_hold_no_targets():
    record = _record(120.0, fs=250.0)
    tracemalloc.start()
    windows = segment_windows(record, 10.0, 5.0, dt_clip=40)
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    w = windows[0].length
    assert all(win.labeled for win in windows)
    # A target per window would hold len(windows) * w * 8 bytes.
    assert held < len(windows) * w * 8 / 4
    for win in windows:
        for value in vars(win).values():
            if isinstance(value, np.ndarray):
                assert np.shares_memory(value, record.scg) or value.size < w


@pytest.mark.parametrize("dt_clip", [None, 7, 2.5])
def test_target_read_is_the_clipped_distance_transform(dt_clip):
    record = Record("sub", 100.0, np.zeros(1000), rpeaks=np.array([50, 130, 700, 720]))
    windows = segment_windows(record, 2.0, 1.0, dt_clip=dt_clip)
    labels = [win.labeled for win in windows]
    assert labels == [win.rpeaks_local.size > 0 for win in windows]
    assert not all(labels) and any(labels)
    for win in windows:
        if not win.labeled:
            assert win.target_dt is None
            continue
        expected = distance_transform(win.rpeaks_local, win.length).astype(np.float64)
        if dt_clip is not None:
            expected = np.minimum(expected, float(dt_clip))
        assert win.target_dt.dtype == np.float64
        assert win.target_dt.tobytes() == expected.tobytes()


def test_oracle_scores_from_targets_built_on_read():
    record = _record(60.0, fs=250.0)
    windows = segment_windows(record, 10.0, 5.0)
    score = evaluate_subject(lambda w: w.target_dt, windows, 250.0, ValleyParams(), 90.0)
    assert score.actual_total == record.rpeaks.size
    assert score.tp == score.actual_total and score.fp == 0


def test_fractional_window_rejected():
    with pytest.raises(ValidationError):
        segment_windows(_record(30.0, fs=100.0), 0.015, 1.0)


# ----------------------------------------------------------------------
# split_dataset
# ----------------------------------------------------------------------

def _dummy_windows(n, subject="a", length=10, spacing=None):
    spacing = length if spacing is None else spacing
    return [Window(subject, i * spacing, np.zeros(length)) for i in range(n)]


def test_split_60_20_20_counts():
    split = split_dataset(_dummy_windows(10), (0.6, 0.2, 0.2))
    assert (len(split.train), len(split.val), len(split.test)) == (6, 2, 2)


def test_split_five_windows_floor():
    split = split_dataset(_dummy_windows(5), (0.6, 0.2, 0.2))
    assert (len(split.train), len(split.val), len(split.test)) == (3, 1, 1)


def test_split_bad_ratio_sum_rejected():
    with pytest.raises(ValidationError):
        split_dataset(_dummy_windows(10), (0.5, 0.5, 0.1))


def test_split_too_few_windows_rejected():
    with pytest.raises(InsufficientDataError):
        split_dataset(_dummy_windows(2), (0.6, 0.2, 0.2))


def test_split_preserves_order_and_disjointness():
    windows = _dummy_windows(20)
    split = split_dataset(windows, (0.6, 0.2, 0.2))
    combined = split.train + split.val + split.test
    assert [w.start for w in combined] == [w.start for w in windows]
    keys = {(w.subject_id, w.start) for w in combined}
    assert len(keys) == len(combined)


def test_split_drops_overlapping_boundary_windows():
    overlapped = _dummy_windows(10, length=10, spacing=5)
    split = split_dataset(overlapped, (0.6, 0.2, 0.2), drop_boundary=True)
    assert (len(split.train), len(split.val), len(split.test)) == (6, 1, 1)
    # no window in val/test shares samples with the previous split
    assert split.val[0].start >= split.train[-1].start + 10
    assert split.test[0].start >= split.val[-1].start + 10


def test_split_keep_boundary_when_disabled():
    overlapped = _dummy_windows(10, length=10, spacing=5)
    split = split_dataset(overlapped, (0.6, 0.2, 0.2), drop_boundary=False)
    assert (len(split.train), len(split.val), len(split.test)) == (6, 2, 2)


def test_split_is_per_subject():
    windows = _dummy_windows(10, "a") + _dummy_windows(5, "b")
    split = split_dataset(windows, (0.6, 0.2, 0.2))
    assert len(split.train) == 9
    assert len(split.val) == 3
    assert len(split.test) == 3
