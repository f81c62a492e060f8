"""Command-line interface wiring synthesis, training, inference, and scoring.

Exit codes: 0 success, 1 validation/configuration error, 2 runtime or
numeric error.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .checkpoint import load_checkpoint
from .config import (DatasetConfig, EvalConfig, PathsConfig, RunConfig, SamplingConfig,
                     SynthCohort, load_config)
from .detect import ValleyParams
from .errors import (
    ConfigError,
    InsufficientDataError,
    NumericError,
    RecordFormatError,
    SeismoNetError,
    ValidationError,
)
from .evaluation import (
    RecordInference,
    evaluate_split,
    hrv_table,
    read_hrv_csv,
    write_agreement_csv,
    write_hrv_csv,
)
from .hrv import hrv_indices, nn_intervals
from .model import ModelConfig, build_model
from .records import (
    Record,
    annotate_ecg_rpeaks,
    load_record,
    resample_record,
    write_annotations,
    write_record,
)
from .synth import SynthParams, synth_record
from .training import TrainConfig, train
from .windows import labeled_only, segment_windows, split_dataset


def _load_resampled(cfg: RunConfig, path: str | Path) -> Record:
    sampling = cfg.section(SamplingConfig)
    return resample_record(load_record(path, fs=sampling.source_fs), sampling.effective_fs)


def _load_records(cfg: RunConfig) -> list[Record]:
    data_dir = Path(cfg.section(PathsConfig).data_dir)
    paths = sorted(data_dir.glob("*.csv"))
    if not paths:
        raise ValidationError(f"no record CSV files found in {data_dir}")
    return [_load_resampled(cfg, path) for path in paths]


def _windows_split(cfg: RunConfig, records: list[Record]):
    ds = cfg.section(DatasetConfig)
    windows = []
    for record in records:
        windows.extend(labeled_only(segment_windows(
            record, ds.window_sec, ds.hop_sec, dt_clip=ds.clip)))
    return split_dataset(windows, (ds.train_ratio, ds.val_ratio, ds.test_ratio),
                         drop_boundary=ds.drop_boundary)


def _out_dir(cfg: RunConfig) -> Path:
    out_dir = Path(cfg.section(PathsConfig).out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def synth_params(cfg: RunConfig, subject_index: int) -> SynthParams:
    # Slight per-subject rate offsets keep cross-subject statistics
    # non-degenerate while staying fully seeded. The 240 bpm cap on the
    # offset never takes a subject below the configured mean.
    mean = cfg["synth.mean_hr_bpm"]
    hr = max(mean, min(mean + 2.0 * subject_index, 240.0))
    return cfg.section(SynthParams, mean_hr_bpm=hr, seed=cfg["synth.seed"] + subject_index)


def cmd_synth(cfg: RunConfig) -> int:
    data_dir = Path(cfg.section(PathsConfig).data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    n = cfg.section(SynthCohort).subjects
    for i in range(n):
        record = synth_record(synth_params(cfg, i), subject_id=f"subject{i + 1:02d}")
        write_record(record, data_dir / f"{record.subject_id}.csv")
    print(f"wrote {n} synthetic records to {data_dir}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    train_cfg = cfg.section(TrainConfig)
    split = _windows_split(cfg, _load_records(cfg))
    if not split.train:
        raise InsufficientDataError("no labeled training windows")
    input_len = split.train[0].length
    model = build_model(cfg.section(ModelConfig, input_len=input_len), seed=train_cfg.seed)

    out_dir = _out_dir(cfg)
    model, history = train(model, split, train_cfg, checkpoint_dir=out_dir)
    history.to_csv(out_dir / "history.csv")
    last = history.records[-1]
    print(f"trained {len(history)} epochs; final train loss {last.train_loss:.6f}, "
          f"val loss {last.val_loss:.6f}")
    print(f"checkpoint: {out_dir / 'model_final.smn'}")
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    model = load_checkpoint(cfg.section(PathsConfig).checkpoint_path)
    split = _windows_split(cfg, _load_records(cfg))
    if not split.test:
        raise InsufficientDataError("test split is empty")
    ev = cfg.section(EvalConfig)
    report = evaluate_split(model, split.test, cfg.section(SamplingConfig).effective_fs,
                            cfg.section(ValleyParams), tol_ms=ev.tol_ms,
                            per_window=ev.per_window)
    out_dir = _out_dir(cfg)
    report.to_csv(out_dir / "report.csv")
    rows = hrv_table(report)
    write_hrv_csv(rows, out_dir / "hrv.csv")
    write_agreement_csv(rows, out_dir / "bland_altman_points.csv",
                        out_dir / "bland_altman_summary.csv")
    print(f"total Se {report.total_se:.2f}, PPV {report.total_ppv:.2f} "
          f"({len(report.rows)} subjects)")
    return 0


def cmd_infer(cfg: RunConfig, record_path: str) -> int:
    model = load_checkpoint(cfg.section(PathsConfig).checkpoint_path)
    record = _load_resampled(cfg, record_path)
    ds = cfg.section(DatasetConfig)
    try:
        windows = segment_windows(record, ds.window_sec, ds.hop_sec)
    except InsufficientDataError:
        print(f"record {record.subject_id!r} is shorter than one window; "
              f"nothing to infer")
        return 0
    if windows[0].length != model.config.input_len:
        raise ValidationError(
            f"window length {windows[0].length} != model input length "
            f"{model.config.input_len}; adjust dataset.window_sec or sampling")

    out_dir = _out_dir(cfg)
    inference = RecordInference(model, windows, record.fs, cfg.section(ValleyParams))
    pred_path = out_dir / f"pred_{record.subject_id}.csv"
    with open(pred_path, "w", encoding="utf-8") as fh:
        fh.write("window_start,offset,t_pred\n")
        for window, pred, _ in inference:
            for offset, value in enumerate(pred):
                fh.write(f"{window.start},{offset},{float(value)!r}\n")
    merged = inference.merged()
    peaks_path = out_dir / f"{record.subject_id}.peaks"
    write_annotations(merged, peaks_path)
    print(f"wrote {pred_path} and {peaks_path} ({merged.size} peaks)")
    return 0


def cmd_hrv(cfg: RunConfig) -> int:
    """HRV indices from record annotations (annotating from ECG if needed)."""
    records = _load_records(cfg)
    rows = []
    for record in records:
        peaks = record.rpeaks
        if peaks is None and record.ecg is not None:
            try:
                peaks = annotate_ecg_rpeaks(record.ecg, record.fs)
            except ValidationError as exc:
                print(f"skipping {record.subject_id!r}: {exc}")
                continue
        if peaks is None or peaks.size < 3:
            print(f"skipping {record.subject_id!r}: fewer than 3 annotated peaks")
            continue
        rows.append((record.subject_id, "ecg", hrv_indices(nn_intervals(peaks, record.fs))))
    path = _out_dir(cfg) / "hrv.csv"
    write_hrv_csv(rows, path)
    print(f"wrote {len(rows)} HRV rows to {path}")
    return 0


def cmd_agree(cfg: RunConfig, hrv_csv: str | None) -> int:
    """Bland-Altman agreement from an hrv.csv with scg and ecg rows."""
    rows = read_hrv_csv(hrv_csv or Path(cfg.section(PathsConfig).out_dir) / "hrv.csv")
    out_dir = _out_dir(cfg)
    stats = write_agreement_csv(rows, out_dir / "bland_altman_points.csv",
                                out_dir / "bland_altman_summary.csv")
    for name, st in stats.items():
        print(f"{name}: mean diff {st.mean_diff:.4f}, "
              f"LoA [{st.loa_low:.4f}, {st.loa_high:.4f}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seismonet",
        description="SCG-to-R-peak pipeline: synthesize, train, infer, evaluate.")
    parser.add_argument("--config", help="path to a key=value config file")
    parser.add_argument("--seed", type=int, help="override train/synth seeds")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one config entry (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("synth", help="write synthetic records to the data dir")
    p_train = sub.add_parser("train", help="train a model on the data dir")
    p_train.add_argument("--epochs", type=int, help="override train.epochs")
    sub.add_parser("eval", help="score the test split with a checkpoint")
    p_infer = sub.add_parser("infer", help="predict waveform and peaks for a record")
    p_infer.add_argument("record", help="path to a record CSV")
    sub.add_parser("hrv", help="HRV indices from record annotations")
    p_agree = sub.add_parser("agree", help="Bland-Altman agreement from an hrv.csv")
    p_agree.add_argument("hrv_csv", nargs="?", help="HRV table (default: out/hrv.csv)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        for override in args.set:
            if "=" not in override:
                raise ConfigError(f"--set expects key=value, got {override!r}")
            key, value = override.split("=", 1)
            cfg.set(key.strip(), value.strip())
        if args.seed is not None:
            cfg.set("train.seed", str(args.seed))
            cfg.set("synth.seed", str(args.seed))
        if args.command == "train" and args.epochs is not None:
            cfg.set("train.epochs", str(args.epochs))

        if args.command == "synth":
            return cmd_synth(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            return cmd_eval(cfg)
        if args.command == "infer":
            return cmd_infer(cfg, args.record)
        if args.command == "hrv":
            return cmd_hrv(cfg)
        return cmd_agree(cfg, args.hrv_csv)  # argparse admits no other command
    except (ConfigError, ValidationError, RecordFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except SeismoNetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
