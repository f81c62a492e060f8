"""Record I/O, resampling, and the internal ECG annotator.

A record is one subject's synchronized SCG/ECG streams. On disk it is a
UTF-8 CSV with header ``t,scg`` or ``t,scg,ecg`` and one sample per row; the
time column is only checked for monotonicity. R-peak annotations live in a
sibling ``<record>.rpeaks`` file, one ascending integer sample index per
line.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .errors import RecordFormatError, ValidationError


@dataclass
class Record:
    """Synchronized sample streams for one subject."""

    subject_id: str
    fs: float
    scg: np.ndarray
    ecg: np.ndarray | None = None
    rpeaks: np.ndarray | None = field(default=None)

    def __post_init__(self):
        if self.fs <= 0:
            raise ValidationError(f"sampling rate must be > 0, got {self.fs}")
        self.scg = np.asarray(self.scg, dtype=np.float64)
        if self.scg.ndim != 1:
            raise ValidationError("scg must be one-dimensional")
        if self.ecg is not None:
            self.ecg = np.asarray(self.ecg, dtype=np.float64)
            if self.ecg.shape != self.scg.shape:
                raise ValidationError(
                    f"ecg length {self.ecg.size} != scg length {self.scg.size}")
        if self.rpeaks is not None:
            self.rpeaks = np.asarray(self.rpeaks, dtype=np.int64)
            validate_annotations(self.rpeaks, len(self.scg))

    def __len__(self) -> int:
        return self.scg.size


def validate_annotations(indices: np.ndarray, length: int) -> None:
    """Check that annotation indices are strictly increasing and in range."""
    indices = np.asarray(indices)
    if indices.size == 0:
        return
    if np.any(np.diff(indices) <= 0):
        raise ValidationError("annotation indices must be strictly increasing")
    if indices[0] < 0 or indices[-1] >= length:
        raise ValidationError(
            f"annotation indices must lie in [0, {length - 1}]")


# Data rows per vectorised parse call. Beyond the sample columns it returns,
# the parse holds one chunk's work: its (rows, columns) float64 table and the
# checks on it, under three such tables in all.
CHUNK_ROWS = 65536


def load_record(path: str | Path, fs: float) -> Record:
    """Load a record CSV plus its optional sibling annotation file.

    The data rows are parsed by one vectorised call per chunk of
    ``CHUNK_ROWS`` rows, straight into sample columns sized from the file's
    line count; the time column is checked as it goes and never held whole.
    When a call fails, or yields a table of another width, the strict line
    loop parses the file again and raises the ``RecordFormatError`` naming
    the line. A parse error wins over a non-finite value, which wins over a
    time column that does not strictly increase.
    """
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"record file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip()
            columns = [c.strip() for c in header.split(",")]
            if columns not in (["t", "scg"], ["t", "scg", "ecg"]):
                raise RecordFormatError(
                    f"{path}: expected header 't,scg' or 't,scg,ecg', got {header!r}")
            capacity = _count_line_ends(path)
            data = _parse_rows_fast(fh, len(columns), capacity)
            if data is None:
                fh.seek(0)
                fh.readline()
                data = _parse_rows_strict(fh, path, len(columns), capacity)
    except UnicodeDecodeError:
        raise RecordFormatError(f"{path}: not valid UTF-8") from None

    if data.bad_row is not None:
        lineno = _line_of_row(path, data.bad_row)
        raise RecordFormatError(f"{path}:{lineno}: non-finite value")
    if not data.increasing:
        raise RecordFormatError(f"{path}: time column is not strictly increasing")

    rpeaks = None
    ann_path = annotation_path(path)
    if ann_path.is_file():
        rpeaks = load_annotations(ann_path)
    elif ann_path.exists():
        raise RecordFormatError(f"{ann_path}: annotation path is not a file")

    return Record(
        subject_id=path.stem,
        fs=fs,
        scg=data.samples[0],
        ecg=data.samples[1] if len(columns) == 3 else None,
        rpeaks=rpeaks,
    )


class _Columns:
    """Sample columns filled one table of rows at a time, checked on arrival.

    ``samples`` holds one owned array per column after the time column.
    ``bad_row`` is the first data row (0-based) holding a non-finite value,
    and ``increasing`` says whether every time so far exceeds the one
    before; only the last time is kept across tables. (The first time
    counts as rising from -inf. A non-finite time may read as not rising,
    but a non-finite value is reported ahead of the times anyway.)
    """

    def __init__(self, n_columns: int, capacity: int):
        self.samples = tuple(np.empty(capacity) for _ in range(n_columns - 1))
        self.rows = 0
        self.bad_row: int | None = None
        self.increasing = True
        self._last_time = -np.inf

    def append(self, table: np.ndarray) -> None:
        """Take a non-empty (rows, columns) table."""
        n = len(table)
        if self.bad_row is None and not np.isfinite(table).all():
            self.bad_row = self.rows + int(np.argmin(np.isfinite(table).all(axis=1)))
        times = table[:, 0]
        if self.increasing:
            self.increasing = bool(times[0] > self._last_time
                                   and not np.any(times[1:] <= times[:-1]))
        self._last_time = times[-1]
        for col, samples in enumerate(self.samples, start=1):
            samples[self.rows:self.rows + n] = table[:, col]
        self.rows += n

    def trimmed(self) -> "_Columns":
        """Shrink the columns in place to the rows written (the header's
        line end and any blank lines make the line count too high)."""
        for samples in self.samples:
            if samples.size != self.rows:
                samples.resize(self.rows, refcheck=False)
        return self


def _count_line_ends(path: Path) -> int:
    """Line ends in a file as text mode reads them (``\\n``, ``\\r\\n``,
    lone ``\\r``): at least the number of data rows after the header."""
    count = 0
    cr_before = False
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            count += int(np.count_nonzero(np.frombuffer(block, dtype=np.uint8) == ord("\n")))
            if b"\r" in block:
                count += block.count(b"\r") - block.count(b"\r\n")
            if cr_before and block.startswith(b"\n"):
                count -= 1  # one \r\n split across two blocks
            cr_before = block.endswith(b"\r")
    return count


def _parse_rows_fast(fh, n_columns: int, capacity: int) -> _Columns | None:
    """The remaining rows of ``fh`` as checked columns, or None.

    Lines the strict loop skips (empty after ``str.strip()``) are dropped
    first; the rest go to ``np.loadtxt`` ``CHUNK_ROWS`` at a time. None
    means the strict loop must decide: a call failed or warned, a chunk had
    rows of another width, or there were no data rows. Where it succeeds, it
    reads the same rows and values as the strict loop.
    """
    lines = (line for line in fh if line.strip())
    data = _Columns(n_columns, capacity)
    for first in lines:
        chunk = chain((first,), islice(lines, CHUNK_ROWS - 1))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = np.loadtxt(chunk, dtype=np.float64, delimiter=",", comments=None,
                                   ndmin=2)
        except (ValueError, UserWarning):
            return None
        if table.shape[1] != n_columns:
            return None
        data.append(table)
    if data.rows == 0:
        return None
    return data.trimmed()


def _parse_rows_strict(fh, path: Path, n_columns: int, capacity: int) -> _Columns:
    """The remaining rows of ``fh``, line by line; the first bad line raises."""
    data = _Columns(n_columns, capacity)
    rows = []
    for lineno, line in enumerate(fh, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != n_columns:
            raise RecordFormatError(
                f"{path}:{lineno}: expected {n_columns} fields, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise RecordFormatError(f"{path}:{lineno}: {exc}") from None
        if len(rows) == CHUNK_ROWS:
            data.append(np.array(rows, dtype=np.float64))
            rows = []
    if rows:
        data.append(np.array(rows, dtype=np.float64))
    return data.trimmed()


def _line_of_row(path: Path, row: int) -> int:
    """Line number of data row ``row`` (0-based) of a record CSV."""
    with open(path, encoding="utf-8") as fh:
        data_lines = (n for n, line in enumerate(fh, start=1) if n > 1 and line.strip())
        return next(islice(data_lines, row, None))


def annotation_path(record_path: str | Path) -> Path:
    return Path(str(record_path) + ".rpeaks")


_INT64 = np.iinfo(np.int64)


def load_annotations(path: str | Path) -> np.ndarray:
    indices = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    index = int(line)
                except ValueError as exc:
                    raise RecordFormatError(f"{path}:{lineno}: {exc}") from None
                if not _INT64.min <= index <= _INT64.max:
                    raise RecordFormatError(f"{path}:{lineno}: index out of the int64 range")
                indices.append(index)
    except UnicodeDecodeError:
        raise RecordFormatError(f"{path}: not valid UTF-8") from None
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size and np.any(np.diff(indices) <= 0):
        raise ValidationError(f"{path}: annotation indices must be strictly increasing")
    return indices


def write_record(record: Record, path: str | Path) -> None:
    """Write a record CSV (and ``.rpeaks`` sibling when annotated).

    Sample values are written with shortest round-trip formatting, so a
    load after a write reproduces them bit for bit.
    """
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        if record.ecg is not None:
            fh.write("t,scg,ecg\n")
            for i in range(len(record)):
                t = i / record.fs
                fh.write(f"{t!r},{float(record.scg[i])!r},{float(record.ecg[i])!r}\n")
        else:
            fh.write("t,scg\n")
            for i in range(len(record)):
                fh.write(f"{i / record.fs!r},{float(record.scg[i])!r}\n")
    if record.rpeaks is not None:
        write_annotations(record.rpeaks, annotation_path(path))


def write_annotations(indices, path: str | Path) -> None:
    """Write sample indices one integer per line, as ``load_annotations`` reads them."""
    with open(path, "w", encoding="utf-8") as fh:
        for idx in indices:
            fh.write(f"{int(idx)}\n")


def resample(signal: np.ndarray, fs_in: float, fs_out: float) -> np.ndarray:
    """Linear-interpolation resampling; output length = round(L*fs_out/fs_in)."""
    if fs_in <= 0 or fs_out <= 0:
        raise ValidationError("sampling rates must be > 0")
    signal = np.asarray(signal, dtype=np.float64)
    if fs_in == fs_out:
        return signal.copy()
    out_len = int(round(signal.size * fs_out / fs_in))
    positions = np.arange(out_len) * (fs_in / fs_out)
    return np.interp(positions, np.arange(signal.size), signal)


def rescale_indices(indices: np.ndarray, fs_in: float, fs_out: float,
                    out_len: int) -> np.ndarray:
    """Map annotation indices to a new rate; collisions collapse to one."""
    scaled = np.round(np.asarray(indices) * (fs_out / fs_in)).astype(np.int64)
    scaled = np.clip(scaled, 0, out_len - 1)
    return np.unique(scaled)


def resample_record(record: Record, fs_out: float) -> Record:
    """Resample all streams of a record to fs_out."""
    if fs_out == record.fs:
        return record
    scg = resample(record.scg, record.fs, fs_out)
    if scg.size == 0:
        raise ValidationError(
            f"record {record.subject_id!r}: resampling from {record.fs} Hz to "
            f"{fs_out} Hz leaves no samples")
    ecg = resample(record.ecg, record.fs, fs_out) if record.ecg is not None else None
    rpeaks = None
    if record.rpeaks is not None:
        rpeaks = rescale_indices(record.rpeaks, record.fs, fs_out, scg.size)
    return Record(record.subject_id, fs_out, scg, ecg, rpeaks)


def annotate_ecg_rpeaks(ecg: np.ndarray, fs: float) -> np.ndarray:
    """Locate R-peaks with a differenced-squared-integrated energy envelope.

    The envelope is thresholded adaptively (fraction of its 99th
    percentile), local maxima closer than a 200 ms refractory period are
    thinned, and each surviving candidate is snapped to the largest
    baseline excursion of the raw ECG within +-100 ms. A flat signal
    yields an empty result.
    """
    # Imported here: scipy.signal costs about 0.9 s and 77 MB RSS to load.
    from scipy.signal import find_peaks

    ecg = np.asarray(ecg, dtype=np.float64)
    if ecg.size < 2 * fs:
        raise ValidationError(f"need at least 2 s of signal, got {ecg.size / fs:.3f} s")

    energy = np.gradient(ecg) ** 2
    width = max(1, int(round(0.15 * fs)))
    envelope = np.convolve(energy, np.ones(width) / width, mode="same")

    scale = np.percentile(envelope, 99)
    if scale <= 0:
        return np.zeros(0, dtype=np.int64)
    threshold = 0.3 * scale
    refractory = max(1, int(round(0.2 * fs)))
    candidates, _ = find_peaks(envelope, height=threshold, distance=refractory)
    if candidates.size == 0:
        return np.zeros(0, dtype=np.int64)

    baseline = np.median(ecg)
    half = max(1, int(round(0.1 * fs)))
    refined = np.empty(candidates.size, dtype=np.int64)
    for i, c in enumerate(candidates):
        lo = max(0, c - half)
        hi = min(ecg.size, c + half + 1)
        refined[i] = lo + int(np.argmax(np.abs(ecg[lo:hi] - baseline)))
    return np.unique(refined)
