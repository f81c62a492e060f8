"""Subject-level evaluation: fixed-point behavior, accounting, reports."""
import numpy as np
import pytest

from seismonet.detect import ValleyParams
from seismonet.errors import RecordFormatError, ValidationError
from seismonet.model import ModelConfig, build_model
from seismonet.evaluation import (
    PREDICT_BATCH,
    PeakMatchReport,
    RecordInference,
    SubjectScore,
    agreement_by_index,
    evaluate_split,
    evaluate_subject,
    hrv_table,
    merge_detections,
    read_hrv_csv,
    write_agreement_csv,
    write_hrv_csv,
)
from seismonet.hrv import HrvIndices
from seismonet.synth import SynthParams, synth_record
from seismonet.windows import Window, labeled_only, segment_windows, split_dataset


def oracle_model(window):
    """Stub predictor that emits the exact distance transform."""
    return window.target_dt


def synthetic_test_windows(n_subjects=2, seed0=60):
    windows = []
    for i in range(n_subjects):
        record = synth_record(SynthParams(fs=100.0, duration_s=60.0,
                                          mean_hr_bpm=64.0 + 5 * i, hr_jitter=0.06,
                                          scg_noise_sigma=0.1, seed=seed0 + i),
                              subject_id=f"e{i}")
        windows.extend(labeled_only(segment_windows(record, 2.0, 1.0)))
    return split_dataset(windows, (0.6, 0.2, 0.2)).test


def test_exact_transform_fixed_point():
    test_windows = synthetic_test_windows()
    report = evaluate_split(oracle_model, test_windows, fs=100.0,
                            valley_params=ValleyParams(), tol_ms=90.0)
    assert report.total_se == 1.0
    assert report.total_ppv == 1.0
    for row in report.rows:
        assert row.fp == 0 and row.fn == 0


def test_exact_transform_fixed_point_per_window():
    # Per-window counting cannot see an annotation sitting exactly on a
    # window's first or last sample (no interior valley there); such
    # boundary hits are the only permissible misses.
    test_windows = synthetic_test_windows()
    boundary = sum(
        int(np.any(w.rpeaks_local == 0)) + int(np.any(w.rpeaks_local == w.length - 1))
        for w in test_windows)
    report = evaluate_split(oracle_model, test_windows, fs=100.0,
                            valley_params=ValleyParams(), tol_ms=90.0,
                            per_window=True)
    _, _, _, fp, fn = report.totals()
    assert fp == 0
    assert fn <= boundary


def test_row_accounting_identities():
    test_windows = synthetic_test_windows()

    def noisy_model(window):
        rng = np.random.default_rng(window.start)
        return window.target_dt + rng.normal(0, 3.0, window.target_dt.size)

    for per_window in (False, True):
        report = evaluate_split(noisy_model, test_windows, fs=100.0,
                                per_window=per_window)
        for row in report.rows:
            assert row.tp + row.fp == row.detected_total
            assert row.tp + row.fn == row.actual_total


def test_table_row_arithmetic():
    row = SubjectScore("1", 319, 323, 304, 15, 19, None, None)
    assert f"{row.se:.2f}" == "0.94"
    assert f"{row.ppv:.2f}" == "0.95"


def test_merge_detections_keeps_deeper():
    hits = [(100, 5.0), (104, 2.0), (300, 1.0)]
    merged = merge_detections(hits, min_gap=10.0)
    np.testing.assert_array_equal(merged, [104, 300])


def test_record_inference_streams_and_merges_at_half_refractory():
    # 200 ms refractory at 100 Hz: windows thin at 20 samples, the merge
    # across windows at 10. Valleys at record indices 50 and 65 both stay.
    windows = [Window("s", start, np.zeros(100)) for start in (0, 40)]
    valley_at = {0: 50, 40: 65}
    calls = []

    def predictor(window):
        calls.append(window.start)
        return np.abs(np.arange(100.0) - (valley_at[window.start] - window.start))

    inference = RecordInference(predictor, windows, 100.0, ValleyParams())
    steps = iter(inference)
    window, pred, valleys = next(steps)
    assert calls == [0]  # one window predicted per step
    assert window.start == 0 and pred.size == 100
    np.testing.assert_array_equal(valleys, [50])
    assert [w.start for w, _, _ in steps] == [40]
    np.testing.assert_array_equal(inference.merged(), [50, 65])


class _CountingModel:
    """A model whose .predict records the shape of every call."""

    def __init__(self, model):
        self.model, self.shapes = model, []

    def predict(self, scg):
        self.shapes.append(np.shape(scg))
        return self.model.predict(scg)


def _model_windows(input_len, fs, count):
    record = synth_record(SynthParams(fs=fs, duration_s=(count + 1) * input_len / fs / 2,
                                      seed=4), subject_id="b")
    windows = segment_windows(record, input_len / fs, input_len / fs / 2)[:count]
    assert len(windows) == count
    return windows


@pytest.mark.parametrize("config, fs", [
    (dict(input_len=200, levels=3, base_channels=8), 100.0),
    (dict(input_len=2500), 250.0),
], ids=["desk", "paper_default"])
def test_batched_inference_bitwise_equals_per_window_predict(config, fs):
    model = build_model(ModelConfig(**config), seed=1)
    count = 2 * PREDICT_BATCH + 3
    windows = _model_windows(config["input_len"], fs, count)
    params = ValleyParams(smoothing=3)
    counting = _CountingModel(model)
    batched = RecordInference(counting, windows, fs, params)
    single = RecordInference(lambda w: model.predict(w.scg_seg), windows, fs, params)

    steps = list(zip(batched, single))
    assert len(steps) == count
    for (w_b, pred_b, valleys_b), (w_s, pred_s, valleys_s) in steps:
        assert w_b is w_s
        assert pred_b.dtype == pred_s.dtype and pred_b.tobytes() == pred_s.tobytes()
        np.testing.assert_array_equal(valleys_b, valleys_s)
    np.testing.assert_array_equal(batched.merged(), single.merged())
    assert batched.hits == single.hits
    w = config["input_len"]
    assert counting.shapes == [(PREDICT_BATCH, w), (PREDICT_BATCH, w), (3, w)]


@pytest.mark.parametrize("bad", ["one_window", "every_window"])
def test_wrong_window_length_in_batch_rejected_as_before(bad):
    model = build_model(ModelConfig(input_len=200, levels=3, base_channels=8), seed=1)
    windows = _model_windows(200, 100.0, PREDICT_BATCH + 2)
    short = [Window(w.subject_id, w.start, w.scg_seg[:-1]) for w in windows]
    windows = short if bad == "every_window" else windows[:3] + short[3:4] + windows[4:]

    def run(predictor):
        seen = []
        with pytest.raises(ValidationError) as info:
            for window, _, _ in RecordInference(predictor, windows, 100.0, ValleyParams()):
                seen.append(window.start)
        return str(info.value), seen

    message, seen = run(model)
    assert message == "input length 199 != configured 200"
    assert (message, seen) == run(lambda w: model.predict(w.scg_seg))


def test_hrv_pair_produced_per_subject():
    test_windows = synthetic_test_windows()
    report = evaluate_split(oracle_model, test_windows, fs=100.0)
    for row in report.rows:
        assert row.scg_hrv is not None
        assert row.ecg_hrv is not None
        # the oracle detects exactly the annotations, so indices agree
        assert row.scg_hrv.mean_nn == pytest.approx(row.ecg_hrv.mean_nn)
    assert len(hrv_table(report)) == 2 * len(report.rows)


def test_agreement_stats_for_perfect_detector():
    test_windows = synthetic_test_windows(n_subjects=3)
    report = evaluate_split(oracle_model, test_windows, fs=100.0)
    stats = agreement_by_index(hrv_table(report))
    assert set(stats) == {"mean_nn_ms", "sdnn_ms", "rmssd_ms", "pnn50"}
    for st in stats.values():
        assert st.mean_diff == pytest.approx(0.0, abs=1e-9)
        assert st.loa_range == pytest.approx(0.0, abs=1e-9)


def test_report_csv_layout(tmp_path):
    rows = [SubjectScore("1", 319, 323, 304, 15, 19, None, None),
            SubjectScore("2", 317, 316, 309, 8, 7, None, None),
            SubjectScore("a,b", 0, 0, 0, 0, 0, None, None)]
    report = PeakMatchReport(rows)
    path = tmp_path / "report.csv"
    report.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "subject,detected,actual,tp,fp,fn,se,ppv"
    assert lines[1] == "1,319,323,304,15,19,0.94,0.95"
    assert lines[3] == '"a,b",0,0,0,0,0,nan,nan'  # a comma in the id is quoted
    assert lines[-1].startswith("total,636,639,613,23,26,")


def test_output_csv_files(tmp_path):
    test_windows = synthetic_test_windows(n_subjects=3)
    report = evaluate_split(oracle_model, test_windows, fs=100.0)
    write_hrv_csv(hrv_table(report), tmp_path / "hrv.csv")
    write_agreement_csv(hrv_table(report), tmp_path / "pts.csv", tmp_path / "sum.csv")
    hrv_lines = (tmp_path / "hrv.csv").read_text().strip().splitlines()
    assert hrv_lines[0] == "subject,source,mean_nn_ms,sdnn_ms,rmssd_ms,pnn50"
    assert len(hrv_lines) == 1 + 2 * 3
    sum_lines = (tmp_path / "sum.csv").read_text().strip().splitlines()
    assert sum_lines[0].startswith("index,mean_diff,sd_diff")
    assert len(sum_lines) == 5


def test_hrv_csv_round_trip(tmp_path):
    report = evaluate_split(oracle_model, synthetic_test_windows(n_subjects=3), fs=100.0)
    rows = hrv_table(report)
    write_hrv_csv(rows, tmp_path / "hrv.csv")
    assert read_hrv_csv(tmp_path / "hrv.csv") == rows


def test_hrv_csv_keeps_whitespace_around_subject_ids(tmp_path):
    # " a" and "a" are two subjects; read back as one, they would pair up
    idx = HrvIndices(850.0, 50.0, 40.0, 0.1)
    rows = [(" a", "ecg", idx), ("a", "scg", idx), ("b\t", "ecg", idx), ("  ", "scg", idx)]
    path = tmp_path / "hrv.csv"
    write_hrv_csv(rows, path)
    assert read_hrv_csv(path) == rows
    # empty and all-whitespace lines are skipped and still counted
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n  \t\na,ecg,1.0,2.0\n")
    with pytest.raises(RecordFormatError, match=r"hrv\.csv:8: expected 6 fields, got 4"):
        read_hrv_csv(path)


def test_read_hrv_csv_missing_file(tmp_path):
    with pytest.raises(ValidationError, match="not found"):
        read_hrv_csv(tmp_path / "absent.csv")


def test_empty_windows_rejected():
    with pytest.raises(ValidationError):
        evaluate_subject(oracle_model, [], fs=100.0)


def test_prediction_length_mismatch_rejected():
    windows = synthetic_test_windows()[:1]

    def bad_model(window):
        return np.zeros(window.length - 1)

    with pytest.raises(ValidationError, match="length"):
        evaluate_subject(bad_model, windows, fs=100.0)
