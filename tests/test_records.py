"""Record I/O, resampling, and annotator behavior."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from seismonet import records
from seismonet.cli import main
from seismonet.errors import RecordFormatError, ValidationError
from seismonet.records import (
    Record,
    annotate_ecg_rpeaks,
    load_annotations,
    load_record,
    resample,
    resample_record,
    rescale_indices,
    write_annotations,
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
    ("0,1.0,2.0\n \t\n1,nan,2.0\n", 4),
], ids=["nan_scg", "neg_inf_ecg_after_blank_line", "inf_time", "overflow_to_inf",
        "nan_after_whitespace_line"])
def test_non_finite_sample_reports_line_number(tmp_path, rows, line):
    path = tmp_path / "r.csv"
    path.write_text("t,scg,ecg\n" + rows)
    with pytest.raises(RecordFormatError, match=rf"r\.csv:{line}: non-finite value"):
        load_record(path, fs=1)


def _load_outcome(path, strict_only=False):
    """What load_record makes of a file: its arrays' bytes, or the exception."""
    try:
        if strict_only:
            with mock.patch.object(records, "_parse_rows_fast", return_value=None):
                record = load_record(path, fs=1)
        else:
            record = load_record(path, fs=1)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    ecg = None if record.ecg is None else (record.ecg.dtype, record.ecg.tobytes())
    return record.scg.dtype, record.scg.tobytes(), ecg


def _assert_fast_path_matches_strict_loop(path):
    assert _load_outcome(path) == _load_outcome(path, strict_only=True)
    # Whatever the header, rows the fast path accepts are the strict loop's.
    try:
        capacity = records._count_line_ends(path)
        with open(path, encoding="utf-8") as fh:
            n_columns = len(fh.readline().split(","))
            fast = records._parse_rows_fast(fh, n_columns, capacity)
            if fast is None:
                return
            fh.seek(0)
            fh.readline()
            strict = records._parse_rows_strict(fh, path, n_columns, capacity)
    except UnicodeDecodeError:
        return
    assert _columns(fast) == _columns(strict)


def _columns(data):
    """A parse's sample columns (dtype and bytes) and its checks."""
    return ([(col.dtype, col.tobytes()) for col in data.samples],
            data.bad_row, data.increasing)


_FAST_PARSE_CASES = pytest.mark.parametrize("body, fast_decides", [
    ("0,1.0\n\n1,2.0\n\n", True),
    ("0,1.0\n   \n1,2.0\n", True),
    ("", False),
    ("\n\n", False),
    ("0,1.0\n1,2#0\n", False),
    ("0,1_0\n1,2.0\n", False),
    (" 0 , 1.0 \n\t1,2.0\t\n", True),
    ("0,1.0\n1,2.0,3.0\n", False),
    ("0,1.0\n1\n", False),
    ("0,1.0\n1,nan\n", True),
    ("0,1.0\n1,1e999\n", True),
    ("0,1.0\n0,2.0\n", True),
], ids=["blank_lines", "whitespace_line", "header_only", "header_and_blank_lines",
        "hash_in_field", "underscore_digits", "surrounding_spaces", "ragged_long",
        "ragged_short", "nan", "overflow", "non_monotone_time"])


@_FAST_PARSE_CASES
def test_fast_parse_matches_strict_loop(tmp_path, body, fast_decides):
    path = tmp_path / "r.csv"
    path.write_text("t,scg\n" + body)
    _assert_fast_path_matches_strict_loop(path)
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        fast = records._parse_rows_fast(fh, 2, records._count_line_ends(path))
        assert (fast is not None) == fast_decides


@pytest.mark.parametrize("chunk_rows", [1, 2])
@_FAST_PARSE_CASES
def test_fast_parse_matches_strict_loop_in_small_chunks(tmp_path, body, fast_decides,
                                                       chunk_rows):
    with mock.patch.object(records, "CHUNK_ROWS", chunk_rows):
        test_fast_parse_matches_strict_loop(tmp_path, body, fast_decides)


def test_strict_fallback_keeps_underscore_digits(tmp_path):
    # float() reads 1_0 as 10; the vectorised parse rejects it, and the
    # strict loop then loads the file as before.
    path = tmp_path / "r.csv"
    path.write_text("t,scg\n0,1_0\n1,2.5\n")
    np.testing.assert_array_equal(load_record(path, fs=1).scg, [10.0, 2.5])


_FIELD = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["", " ", "nan", "-inf", "1e999", "1_0", "1#", "#", "0x1", "1.",
                     ".5", "+1", "1e", " 2 ", "\t3", "\x0c", "\xa0", "\u0661", "1 2"]),
)
_ROW = st.lists(_FIELD, min_size=1, max_size=4).map(",".join)
_BODY = st.one_of(
    st.binary(max_size=120),
    st.lists(st.one_of(_ROW, st.sampled_from(["", " ", "\r", "\x0b"])), max_size=8).map(
        lambda rows: "\n".join(rows).encode()),
    # Increasing times with arbitrary samples: rows the fast path can accept.
    st.lists(_FIELD, max_size=8).map(
        lambda vals: "".join(f"{i},{v}\n" for i, v in enumerate(vals)).encode()),
)


def _any_record_bytes(test):
    """Hypothesis inputs for a test taking record ``header`` and ``body`` bytes."""
    test = example(header=b"t,scg,ecg\n", body=b"0,1,2\n\n1,3,4\r\n2,5,inf\n")(test)
    test = example(header=b"t,scg\n", body=b"0,1\n1,\xff\n")(test)
    test = given(header=st.sampled_from([b"t,scg\n", b"t,scg,ecg\n", b" t , scg \n",
                                         b"t,ecg\n", b""]),
                 body=_BODY)(test)
    return settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])(test)


@_any_record_bytes
def test_any_record_bytes_parse_alike_on_both_paths(tmp_path, header, body):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(header + body)
    _assert_fast_path_matches_strict_loop(path)


@pytest.mark.parametrize("chunk_rows", [1, 2])
@_any_record_bytes
def test_any_record_bytes_parse_alike_in_small_chunks(tmp_path, chunk_rows, header, body):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(header + body)
    with mock.patch.object(records, "CHUNK_ROWS", chunk_rows):
        _assert_fast_path_matches_strict_loop(path)
        chunked = _load_outcome(path)
    # Chunking changes nothing: the strict loop in one table reads alike.
    assert chunked == _load_outcome(path, strict_only=True)


@pytest.mark.parametrize("chunk_rows", [1, 2])
@pytest.mark.parametrize("body, error", [
    ("0,1\n1,2\n1,3\n4,5\n", "r.csv: time column is not strictly increasing"),
    ("0,1\n2,2\n1,3\n", "r.csv: time column is not strictly increasing"),
    ("0,1\n0,2\n2,3\n3,nan\n", "r.csv:5: non-finite value"),
    ("0,nan\n1,2\n2,3\n3,x\n", "r.csv:5: could not convert string to float: 'x'"),
    ("0,nan\n1,2\n2,3\n3,4,5\n", "r.csv:5: expected 2 fields, got 3"),
    ("0,1\n1,2\n\n  \n2,3\n3,4\n", None),
    ("0,1\n1,2\n\n2,inf\n", "r.csv:5: non-finite value"),
    ("0,1\n1,2\n2,3\n3,4\n", None),
    ("0,1\n1,2\n2,3\n3,4\n\n\n", None),
], ids=["repeat_at_boundary", "decrease_at_boundary", "nan_after_time_violation",
        "malformed_after_nan", "ragged_after_nan", "blank_lines_at_boundary",
        "inf_after_blank_at_boundary", "multiple_of_chunk", "multiple_of_chunk_then_blanks"])
def test_chunk_boundaries_read_as_one_table(tmp_path, chunk_rows, body, error):
    path = tmp_path / "r.csv"
    path.write_text("t,scg\n" + body)
    whole = _load_outcome(path, strict_only=True)
    with mock.patch.object(records, "CHUNK_ROWS", chunk_rows):
        chunked = _load_outcome(path)
    assert chunked == whole
    if error is None:
        times = [line.split(",")[0] for line in body.split("\n") if line.strip()]
        assert len(load_record(path, fs=1)) == len(times)
    else:
        assert chunked == (RecordFormatError, f"{path.parent}/{error}")


def test_line_end_count_bounds_the_rows(tmp_path):
    path = tmp_path / "r.csv"
    path.write_bytes(b"t,scg\r\n0,1\r1,2\n\r\n2,3")
    assert records._count_line_ends(path) == 4
    record = load_record(path, fs=1)
    np.testing.assert_array_equal(record.scg, [1.0, 2.0, 3.0])
    assert record.scg.flags.owndata


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


def test_write_annotations_one_int_per_line(tmp_path):
    path = tmp_path / "a.rpeaks"
    write_annotations(np.array([3, 17, 240], dtype=np.int64), path)
    assert path.read_bytes() == b"3\n17\n240\n"
    np.testing.assert_array_equal(load_annotations(path), [3, 17, 240])
    write_annotations(np.zeros(0, dtype=np.int64), path)
    assert path.read_bytes() == b""


_INDEX_LINE = st.one_of(
    st.integers(-10**3, 10**6).map(str),
    st.integers(-2**70, 2**70).map(str),
    st.sampled_from(["", " ", "1_0", "+5", " 7 ", "\u0663", "1.0", "1e3", "0x10", "-0",
                     "9" * 5000, "\x00", "\r"]),
)
_ANNOTATION_BYTES = st.one_of(
    st.binary(max_size=60),
    st.lists(_INDEX_LINE, max_size=8).map(lambda lines: "\n".join(lines).encode()),
    # Ascending indices, the well-formed case.
    st.sets(st.integers(0, 10**4), max_size=8).map(
        lambda idx: "".join(f"{i}\n" for i in sorted(idx)).encode()),
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=_ANNOTATION_BYTES)
@example(body=b"99999999999999999999\n")
def test_any_annotation_bytes_load_or_raise_a_format_error(tmp_path, body):
    path = tmp_path / "a.rpeaks"
    path.write_bytes(body)
    try:
        indices = load_annotations(path)
    except (RecordFormatError, ValidationError):
        return
    assert indices.dtype == np.int64 and indices.ndim == 1
    assert np.all(np.diff(indices) > 0)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=_ANNOTATION_BYTES)
@example(body=b"99999999999999999999\n")
@example(body=b"0\n40\n80\n")
def test_any_annotation_bytes_exit_zero_or_one(tmp_path, body):
    data = tmp_path / "data"
    data.mkdir(exist_ok=True)
    (data / "r.csv").write_text("t,scg\n" + "".join(f"{i},0.5\n" for i in range(100)))
    (data / "r.csv.rpeaks").write_bytes(body)
    try:
        load_annotations(data / "r.csv.rpeaks")
        parses = True
    except (RecordFormatError, ValidationError):
        parses = False
    code = main(["--set", f"paths.data_dir={data}", "--set", f"paths.out_dir={tmp_path}",
                 "--set", "sampling.source_fs=50", "hrv"])
    assert code in ((0, 1) if parses else (1,))


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


def test_resample_record_to_no_samples_names_record_and_rates():
    record = synth_record(SynthParams(fs=500.0, duration_s=6.0, seed=1), "rs")
    with pytest.raises(ValidationError,
                       match=r"record 'rs': resampling from 500.0 Hz to 1e-300 Hz "
                             r"leaves no samples"):
        resample_record(record, 1e-300)


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
