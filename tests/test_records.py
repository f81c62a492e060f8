"""Record I/O, resampling, and annotator behavior."""
import numpy as np
import pytest

from seismonet.errors import RecordFormatError, ValidationError
from seismonet.records import (
    Record,
    annotate_ecg_rpeaks,
    load_annotations,
    load_record,
    resample,
    resample_record,
    rescale_indices,
    write_record,
)
from seismonet.synth import SynthParams, synth_record


def test_load_three_row_file(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("t,scg,ecg\n0,0.1,0.5\n1,0.2,0.4\n2,0.1,0.3\n")
    record = load_record(path, fs=5000)
    assert len(record) == 3
    assert record.fs == 5000
    np.testing.assert_allclose(record.scg, [0.1, 0.2, 0.1])
    np.testing.assert_allclose(record.ecg, [0.5, 0.4, 0.3])


def test_load_without_ecg_column(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("t,scg\n0,1.0\n0.5,2.0\n")
    record = load_record(path, fs=2)
    assert record.ecg is None
    assert len(record) == 2


def test_malformed_row_reports_line_number(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("t,scg\n0,1.0\n1,not_a_number\n")
    with pytest.raises(RecordFormatError, match=r":3"):
        load_record(path, fs=1)


def test_wrong_field_count_reports_line_number(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("t,scg,ecg\n0,1.0,2.0\n1,1.0\n")
    with pytest.raises(RecordFormatError, match=r":3"):
        load_record(path, fs=1)


@pytest.mark.parametrize("rows,line", [
    ("0,1.0,2.0\n1,nan,2.0\n", 3),
    ("0,1.0,2.0\n\n1,1.0,-inf\n", 4),
    ("inf,1.0,2.0\n", 2),
    ("0,1.0,2.0\n1,1e999,2.0\n", 3),
], ids=["nan_scg", "neg_inf_ecg_after_blank_line", "inf_time", "overflow_to_inf"])
def test_non_finite_sample_reports_line_number(tmp_path, rows, line):
    path = tmp_path / "r.csv"
    path.write_text("t,scg,ecg\n" + rows)
    with pytest.raises(RecordFormatError, match=rf"r\.csv:{line}: non-finite value"):
        load_record(path, fs=1)


def test_non_monotone_time_rejected(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("t,scg\n0,1.0\n0,2.0\n")
    with pytest.raises(RecordFormatError, match="monotonic|increasing"):
        load_record(path, fs=1)


def test_non_increasing_annotations_rejected(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("t,scg\n" + "".join(f"{i},{i}.0\n" for i in range(10)))
    (tmp_path / "r.csv.rpeaks").write_text("5\n5\n")
    with pytest.raises(ValidationError, match="strictly increasing"):
        load_record(path, fs=1)


def test_annotations_out_of_range_rejected():
    with pytest.raises(ValidationError):
        Record("x", 100, np.zeros(10), rpeaks=np.array([3, 12]))


def test_ecg_length_mismatch_rejected():
    with pytest.raises(ValidationError):
        Record("x", 100, np.zeros(10), ecg=np.zeros(9))


def test_write_load_round_trip_bit_exact(tmp_path):
    record = synth_record(SynthParams(fs=125.0, duration_s=8.0, seed=3), "rt")
    path = tmp_path / "rt.csv"
    write_record(record, path)
    loaded = load_record(path, fs=record.fs)
    np.testing.assert_array_equal(loaded.scg, record.scg)
    np.testing.assert_array_equal(loaded.ecg, record.ecg)
    np.testing.assert_array_equal(loaded.rpeaks, record.rpeaks)


def test_load_annotations_reads_ascending_ints(tmp_path):
    path = tmp_path / "a.rpeaks"
    path.write_text("3\n17\n240\n")
    np.testing.assert_array_equal(load_annotations(path), [3, 17, 240])


def test_resample_identity():
    x = np.array([1.0, 3.0, 2.0])
    np.testing.assert_array_equal(resample(x, 100, 100), x)


def test_resample_downsample_by_two():
    np.testing.assert_allclose(resample(np.array([0.0, 1, 2, 3]), 4, 2), [0.0, 2.0])


def test_resample_round_trip_bounded_by_one_step():
    # monotone ramp, halved then restored: interior midpoints deviate by at
    # most one input step, and the clamped tail sample by exactly one
    x = np.cumsum(np.abs(np.sin(np.arange(200) * 0.37)))
    step = np.max(np.abs(np.diff(x)))
    down = resample(x, 200, 100)
    up = resample(down, 100, 200)
    assert up.size == x.size
    assert np.max(np.abs(up - x)) <= step + 1e-12


def test_rescale_indices_collapses_collisions():
    out = rescale_indices(np.array([10, 11, 40]), fs_in=100, fs_out=10, out_len=10)
    np.testing.assert_array_equal(out, [1, 4])


def test_resample_record_rescales_annotations():
    record = synth_record(SynthParams(fs=500.0, duration_s=6.0, seed=1), "rs")
    halved = resample_record(record, 250.0)
    assert len(halved) == len(record) // 2
    assert halved.fs == 250.0
    np.testing.assert_allclose(halved.rpeaks * 2, record.rpeaks, atol=2)


def test_annotator_recovers_clean_synthetic_peaks():
    record = synth_record(SynthParams(fs=250.0, duration_s=20.0, mean_hr_bpm=66.0,
                                      hr_jitter=0.05, scg_noise_sigma=0.0, seed=9), "a")
    found = annotate_ecg_rpeaks(record.ecg, record.fs)
    assert found.size == record.rpeaks.size
    tol = int(0.010 * record.fs)
    for peak in record.rpeaks:
        assert np.min(np.abs(found - peak)) <= tol


def test_annotator_flat_signal_empty():
    assert annotate_ecg_rpeaks(np.zeros(1000), 100.0).size == 0


def test_annotator_noise_robustness_monte_carlo():
    recovered = 0
    total = 0
    for seed in range(10):
        record = synth_record(SynthParams(fs=250.0, duration_s=20.0, mean_hr_bpm=70.0,
                                          hr_jitter=0.05, scg_noise_sigma=0.0,
                                          seed=100 + seed), "mc")
        noisy = record.ecg + np.random.default_rng(seed).normal(0, 0.05, record.ecg.size)
        found = annotate_ecg_rpeaks(noisy, record.fs)
        tol = int(0.020 * record.fs)
        total += record.rpeaks.size
        for peak in record.rpeaks:
            if found.size and np.min(np.abs(found - peak)) <= tol:
                recovered += 1
    assert recovered / total >= 0.95


def test_annotator_rejects_short_signal():
    with pytest.raises(ValidationError):
        annotate_ecg_rpeaks(np.zeros(100), fs=100.0)
