"""Synthetic SCG/ECG record generation for desk-scale experiments.

Beat times follow RR = 60/mean_hr * (1 + jitter*u) with u uniform on
[-1, 1]. The ECG is a train of narrow Gaussian spikes at the beat times;
the SCG is a damped oscillatory burst starting a fixed latency after each
beat, plus optional Gaussian noise. Generation is bit-deterministic under a
fixed seed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fieldcodec import Bounded, bounded
from .records import Record

# Burst shape constants; amplitudes are arbitrary units.
SCG_LATENCY_S = 0.05
SCG_BURST_S = 0.25
SCG_OSC_HZ = 18.0
SCG_DECAY_S = 0.06
ECG_SPIKE_S = 0.012


@dataclass(frozen=True)
class SynthParams(Bounded):
    fs: float = field(default=250.0, metadata=bounded(0, open_low=True))
    duration_s: float = field(default=60.0, metadata=bounded(0, open_low=True))
    mean_hr_bpm: float = field(default=70.0,
                               metadata=bounded(20, 250, open_low=True, open_high=True))
    hr_jitter: float = field(default=0.05, metadata=bounded(0, 1, open_high=True))
    scg_noise_sigma: float = field(default=0.1, metadata=bounded(0))
    seed: int = 0


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
