"""Shared test utilities: scalar-projection gradient checks and probes."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import seismonet.model
from seismonet.nn import GradSlot, Tape

SRC = Path(seismonet.__file__).resolve().parents[1]

# Inference splits a batch over two cores only with at least two CPUs in the
# process affinity; these tests compare that path with the one-thread path.
two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs at least two CPUs")

ONE_CPU = "import os\nos.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"


def run_python(code: str, *args, one_cpu: bool = False) -> str:
    """Run ``code`` in a fresh interpreter and return its stdout.

    The child imports seismonet from this checkout with BLAS pinned to one
    thread, so inference may use the second core. With ``one_cpu`` the
    child pins itself to one CPU before anything else runs, which keeps
    every batch on the calling thread.
    """
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", (ONE_CPU if one_cpu else "") + code,
                           *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def projection_check(build, arrays, proj_seed=99, step=1e-5):
    """Finite-difference check of an op through a fixed random projection.

    ``build(tape, *arrays)`` must return (inputs_to_check, output_tensor)
    where inputs_to_check is a sequence of SignalTensor/Parameter objects
    aligned with ``arrays`` (None entries are skipped). Returns the max
    relative error over all checked coordinates.
    """
    from seismonet.nn import grad_check

    def fn(*values):
        tape = Tape()
        tracked, out = build(tape, *values)
        proj = np.random.default_rng(proj_seed).normal(size=out.values.shape)
        scalar = float((proj * out.values).sum())
        out.grad[...] = proj
        tape.backward()
        return scalar, [t.grad if t is not None else None for t in tracked]

    return grad_check(fn, arrays, step=step)


def first_dim_offset(data: bytes) -> int:
    """Offset of the first tensor's first u64 dim in checkpoint bytes."""
    pos = 8  # magic, version
    pos += 4 + int.from_bytes(data[pos:pos + 4], "little")  # config block
    pos += 4 + int.from_bytes(data[pos:pos + 4], "little")  # tensor name
    return pos + 4  # rank


def first_name_last_byte(data: bytes) -> int:
    """Offset of the last byte of the first tensor's name in checkpoint bytes."""
    return first_dim_offset(data) - 5  # before the u32 rank


class KinkProbe:
    """Record how close leaky-ReLU inputs come to the activation kink
    during a model forward pass (model-level gradient checks must run at
    points with a healthy margin)."""

    def __init__(self):
        self.min_margin = np.inf

    def __enter__(self):
        self._orig = seismonet.model.leaky_relu

        def wrapped(x, slope, tape=None):
            margin = float(np.abs(np.asarray(x.values)).min())
            self.min_margin = min(self.min_margin, margin)
            return self._orig(x, slope, tape)

        seismonet.model.leaky_relu = wrapped
        return self

    def __exit__(self, *exc):
        seismonet.model.leaky_relu = self._orig
        return False


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def grad_reads(monkeypatch):
    """Shapes of every gradient read (the only way one gets allocated), in
    order. Activations and parameters both keep their gradient in a
    ``GradSlot``, so reads of either show up here."""
    reads = []
    prop = GradSlot.grad

    def counting_get(slot):
        reads.append(slot.shape)
        return prop.fget(slot)

    monkeypatch.setattr(GradSlot, "grad", property(counting_get, prop.fset))
    return reads
