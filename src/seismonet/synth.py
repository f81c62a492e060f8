"""Synthetic SCG/ECG record generation for desk-scale experiments.

Beat times follow RR = 60/mean_hr * (1 + jitter*u) with u uniform on
[-1, 1]. The ECG is a train of narrow Gaussian spikes at the beat times;
the SCG is a damped oscillatory burst starting a fixed latency after each
beat, plus optional Gaussian noise. Generation is bit-deterministic under a
fixed seed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .records import Record

# Burst shape constants; amplitudes are arbitrary units.
SCG_LATENCY_S = 0.05
SCG_BURST_S = 0.25
SCG_OSC_HZ = 18.0
SCG_DECAY_S = 0.06
ECG_SPIKE_S = 0.012


@dataclass(frozen=True)
class SynthParams:
    fs: float = 250.0
    duration_s: float = 60.0
    mean_hr_bpm: float = 70.0
    hr_jitter: float = 0.05
    scg_noise_sigma: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.fs <= 0:
            raise ValidationError(f"fs must be > 0, got {self.fs}")
        if self.duration_s <= 0:
            raise ValidationError(f"duration_s must be > 0, got {self.duration_s}")
        if not 20 < self.mean_hr_bpm < 250:
            raise ValidationError(
                f"mean_hr_bpm must be in (20, 250), got {self.mean_hr_bpm}")
        if not 0 <= self.hr_jitter < 1:
            raise ValidationError(f"hr_jitter must be in [0, 1), got {self.hr_jitter}")
        if self.scg_noise_sigma < 0:
            raise ValidationError(
                f"scg_noise_sigma must be >= 0, got {self.scg_noise_sigma}")


def synth_record(params: SynthParams, subject_id: str = "synth") -> Record:
    """Generate one annotated record."""
    rng = np.random.default_rng(params.seed)
    fs = params.fs
    length = int(round(params.duration_s * fs))
    rr_mean = 60.0 / params.mean_hr_bpm
    tail_margin = SCG_LATENCY_S + SCG_BURST_S

    beat_times = []
    t = 0.3 * rr_mean
    while t <= params.duration_s - tail_margin:
        beat_times.append(t)
        u = rng.uniform(-1.0, 1.0)
        t += rr_mean * (1.0 + params.hr_jitter * u)

    ecg = np.zeros(length)
    scg = np.zeros(length)
    spike_sigma = ECG_SPIKE_S * fs
    spike_reach = max(1, int(round(4 * spike_sigma)))
    burst_len = int(round(SCG_BURST_S * fs))
    burst_t = np.arange(burst_len) / fs
    burst = np.exp(-burst_t / SCG_DECAY_S) * np.sin(2 * np.pi * SCG_OSC_HZ * burst_t)
    latency = int(round(SCG_LATENCY_S * fs))

    peaks = np.unique(np.round(np.asarray(beat_times) * fs).astype(np.int64))
    peaks = peaks[peaks < length]
    for p in peaks:
        lo = max(0, p - spike_reach)
        hi = min(length, p + spike_reach + 1)
        ecg[lo:hi] += np.exp(-0.5 * ((np.arange(lo, hi) - p) / spike_sigma) ** 2)
        b0 = p + latency
        b1 = min(length, b0 + burst_len)
        if b0 < length:
            scg[b0:b1] += burst[:b1 - b0]

    if params.scg_noise_sigma > 0:
        scg += rng.normal(0.0, params.scg_noise_sigma, size=length)

    return Record(subject_id, fs, scg, ecg, peaks)
