"""Holter-length records: the CSV-to-windows path holds record-sized memory."""
import tracemalloc

import numpy as np
import pytest

from seismonet import records
from seismonet.records import load_record
from seismonet.windows import segment_windows

FS = 250.0
# What load_record may hold beyond 1.25x the arrays it returns: three
# (CHUNK_ROWS, 3) float64 tables, room for one chunk's parse (its table,
# np.loadtxt's growth of it, the finiteness and time-step checks).
CHUNK_ALLOWANCE = 3 * records.CHUNK_ROWS * 3 * 8


def _fixed_point_text(columns, int_digits: int, decimals: int) -> bytes:
    """CSV rows of signed fixed-width decimals, formatted by array ops.

    Each field is a sign, ``int_digits`` digits (leading zeros included), a
    point and ``decimals`` digits; both parsers read leading zeros.
    """
    digits = int_digits + decimals
    width = digits + 3  # sign, point, separator
    text = np.empty((columns[0].size, width * len(columns)), dtype=np.uint8)
    for j, values in enumerate(columns):
        scaled = np.round(np.abs(values) * 10.0 ** decimals).astype(np.int64)
        base = j * width
        text[:, base] = np.where(values < 0, ord("-"), ord("+"))
        for k in range(digits):
            text[:, base + 1 + k + (k >= int_digits)] = 48 + scaled // 10 ** (digits - 1 - k) % 10
        text[:, base + 1 + int_digits] = ord(".")
        text[:, base + width - 1] = ord(",") if j < len(columns) - 1 else ord("\n")
    return text.tobytes()


def _write_long_record(path, seconds: float) -> None:
    """An annotated t,scg,ecg record of random samples, one beat per 0.8 s."""
    n = round(seconds * FS)
    rng = np.random.default_rng(11)
    with open(path, "wb") as fh:
        fh.write(b"t,scg,ecg\n")
        for lo in range(0, n, 100_000):
            idx = np.arange(lo, min(n, lo + 100_000))
            fh.write(_fixed_point_text(
                [idx / FS, rng.normal(size=idx.size), rng.normal(size=idx.size)],
                int_digits=5, decimals=6))
    beats = np.arange(round(0.4 * FS), n, round(0.8 * FS))
    records.annotation_path(path).write_text("".join(f"{b}\n" for b in beats))


@pytest.mark.slow
@pytest.mark.parametrize("seconds", [600.0, 7200.0], ids=["10min", "2h"])
def test_long_record_holds_record_sized_memory(tmp_path, seconds):
    path = tmp_path / "long.csv"
    _write_long_record(path, seconds)

    tracemalloc.start()
    try:
        record = load_record(path, fs=FS)
        parse_peak = tracemalloc.get_traced_memory()[1]
        before = tracemalloc.get_traced_memory()[0]
        windows = segment_windows(record, 10.0, 5.0)
        windows_held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()

    assert len(record) == round(seconds * FS)
    returned = record.scg.nbytes + record.ecg.nbytes + record.rpeaks.nbytes
    assert parse_peak <= 1.25 * returned + CHUNK_ALLOWANCE
    assert all(w.labeled for w in windows)
    # A distance-transform target per window would hold 8 bytes per sample.
    assert windows_held < len(windows) * windows[0].length * 8 / 4
