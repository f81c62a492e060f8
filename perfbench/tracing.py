"""Per-layer tracing of a benchmark run, from outside the package.

While active, the probe rebinds the public names that ``seismonet.model``,
``seismonet.training`` and ``seismonet.evaluation`` import and the module
functions the workloads call (the idiom of ``tests/conftest.py``'s
KinkProbe), and wraps ``SeismoNet.forward``/``predict`` and
``Tape.record``/``backward`` at the class, so that each backward closure is
timed under the op that recorded it. Every wrapped call is a span; a
layer's self time is its spans' time minus the spans nested inside them,
and whatever the spans leave of the traced wall time is "unattributed".
"""
from __future__ import annotations

import os
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from seismonet import checkpoint, evaluation, model, records, synth, training, windows
from seismonet.nn import SignalTensor, Tape

NN_OPS = ("conv1d", "conv_transpose1d", "batchnorm1d", "leaky_relu", "concat_channels",
          "add", "crop_or_pad")
CONV_OPS = ("conv1d", "conv_transpose1d")
# resize_linear is an identity in the model; it is traced (op calls, nn self
# time) but has no metric of its own.
MODEL_OPS = NN_OPS + ("resize_linear",)
LAYERS = ("nn", "model", "training", "records", "windows", "detect", "evaluation", "hrv",
          "synth", "checkpoint", "trace")
# Parts of a training step; the rest of the step is glue.
STEP_PARTS = ("model.forward", "nn.smooth_l1_loss.fwd", "model.backward", "nn.sgd_step")

MB = 1 << 20


def _valley_candidates(t_pred, params) -> int:
    """Strict local minima of the (smoothed) waveform, before any thinning."""
    signal = np.asarray(t_pred, dtype=np.float64)
    if params.smoothing > 1:
        signal = np.convolve(signal, np.ones(params.smoothing) / params.smoothing, mode="same")
    mid = signal[1:-1]
    return int(np.count_nonzero((mid < signal[:-2]) & (mid < signal[2:])))


class Tracer:
    """Spans and counters of the traced parts of one run.

    Times accumulate in ``time_s`` (inclusive, per span key) and
    ``self_s`` (exclusive, per layer); counts in ``counts``.
    """

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.time_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.steps: list[tuple[float, float]] = []  # (step s, glue s)
        self.wall_s = 0.0
        self._stack: list[list[float]] = []
        self._op: str | None = None
        self._bwd_keys = {op: f"nn.{op}.bwd" for op in MODEL_OPS + ("smooth_l1_loss",)}
        self._recorded = False
        self._step_start = 0.0
        self._step_base: dict[str, float] = {}

    def call(self, layer: str, key: str, fn, *args, **kwargs):
        """Run fn as a span of ``layer`` timed under ``key``."""
        stack = self._stack
        frame = [0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            self.self_s[layer] += dt - frame[0]
            self.time_s[key] += dt
            if stack:
                stack[-1][0] += dt

    @contextmanager
    def active(self):
        """Install the probe and add the enclosed wall time to ``wall_s``."""
        with _Probe(self):
            t0 = perf_counter()
            try:
                yield self
            finally:
                self.wall_s += perf_counter() - t0

    # -- wrappers ---------------------------------------------------------

    def wrap(self, layer: str, key: str, fn):
        def wrapped(*args, **kwargs):
            return self.call(layer, key, fn, *args, **kwargs)
        return wrapped

    def wrap_counted(self, layer: str, key: str, fn, count):
        """Span plus ``count(args, result)`` charged to the trace layer."""
        def wrapped(*args, **kwargs):
            out = self.call(layer, key, fn, *args, **kwargs)
            self.call("trace", "trace.count", count, args, out)
            return out
        return wrapped

    def wrap_op(self, name: str, fn):
        key = f"nn.{name}.fwd"

        def wrapped(*args, **kwargs):
            prev = self._op
            self._op, self._recorded = name, False
            try:
                out = self.call("nn", key, fn, *args, **kwargs)
            finally:
                self._op = prev
            self.call("trace", "trace.count", self._count_op, name, args, out, self._recorded)
            return out
        return wrapped

    def wrap_record(self, fn):
        def record(tape, closure):
            key = self._bwd_keys[self._op]
            self._recorded = True
            fn(tape, lambda: self.call("nn", key, closure))
        return record

    def wrap_train(self, fn):
        def train(*args, **kwargs):
            self.call("trace", "trace.count", self._begin_step)
            return self.call("training", "training.train", fn, *args, **kwargs)
        return train

    def wrap_sgd(self, fn):
        def sgd_step(*args, **kwargs):
            out = self.call("nn", "nn.sgd_step", fn, *args, **kwargs)
            self.call("trace", "trace.count", self._end_step)
            return out
        return sgd_step

    # -- counters ---------------------------------------------------------

    def _count_op(self, name, args, out, taped) -> None:
        c = self.counts
        c["nn.op_calls"] += 1
        if isinstance(out, SignalTensor) and all(out is not a for a in args):
            c["nn.alloc_bytes"] += out.values.nbytes
            c["nn.grad_alloc_bytes"] += out.grad.nbytes
        if name in CONV_OPS:
            x, weight = args[0], args[1]
            length = out.length if name == "conv1d" else x.length
            flop = 2.0 * x.batch * weight.values.size * length
            # Each backward pass (input and weight gradient) costs one forward.
            c["nn.conv_flop"] += flop * (3 if taped else 1)

    def _count_predict(self, args, out) -> None:
        scg = np.asarray(args[1])
        self.counts["model.predict_windows"] += 1 if scg.ndim == 1 else scg.shape[0]

    def _count_valleys(self, args, out) -> None:
        params = args[2] if len(args) > 2 else evaluation.ValleyParams()
        self.counts["detect.candidates"] += _valley_candidates(args[0], params)
        self.counts["detect.kept"] += len(out)

    def _count_merge(self, args, out) -> None:
        self.counts["evaluation.hits"] += len(args[0])
        self.counts["evaluation.merged"] += len(out)

    def _count_rows(self, args, out) -> None:
        self.counts["records.rows"] += len(out)

    def _count_windows(self, args, out) -> None:
        self.counts["windows.count"] += len(out)

    def _count_checkpoint(self, args, out) -> None:
        self.counts["checkpoint.bytes"] = os.path.getsize(args[1])

    def _begin_step(self) -> None:
        self._step_start = perf_counter()
        self._step_base = {k: self.time_s[k] for k in STEP_PARTS}

    def _end_step(self) -> None:
        step = perf_counter() - self._step_start
        parts = sum(self.time_s[k] - self._step_base[k] for k in STEP_PARTS)
        self.steps.append((step, step - parts))
        self._begin_step()

    # -- report -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Totals so far, to subtract from the unit phase's totals."""
        return {"time_s": dict(self.time_s), "counts": dict(self.counts),
                "steps": len(self.steps)}

    def metrics(self, base: dict, units: int, untraced_unit_s: float,
                traced_unit_s: float) -> dict[str, float]:
        """Per-layer metrics; unit-phase figures are per unit of work.

        ``base`` is the snapshot taken when the traced units began; set-up
        figures (synth, checkpoint) come from the traced set-up before it,
        and self times cover the whole traced wall time.
        """
        t0, c0 = base["time_s"], base["counts"]

        def t(key):  # ms per unit
            return 1e3 * (self.time_s.get(key, 0.0) - t0.get(key, 0.0)) / units

        def n(key):  # count per unit
            return (self.counts.get(key, 0.0) - c0.get(key, 0.0)) / units

        def ratio(num, den):
            return num / den if den else 0.0

        m: dict[str, float] = {}
        for op in NN_OPS:
            m[f"nn.{op}.fwd_ms"] = t(f"nn.{op}.fwd")
            m[f"nn.{op}.bwd_ms"] = t(f"nn.{op}.bwd")
        conv_ms = sum(m[f"nn.{op}.{d}_ms"] for op in CONV_OPS for d in ("fwd", "bwd"))
        m["nn.smooth_l1_loss_ms"] = t("nn.smooth_l1_loss.fwd") + t("nn.smooth_l1_loss.bwd")
        m["nn.sgd_step_ms"] = t("nn.sgd_step")
        m["nn.op_calls"] = n("nn.op_calls")
        m["nn.conv_gflop"] = n("nn.conv_flop") / 1e9
        m["nn.conv_gflops"] = ratio(m["nn.conv_gflop"], conv_ms / 1e3)
        m["nn.alloc_mb"] = n("nn.alloc_bytes") / MB
        m["nn.grad_alloc_mb"] = n("nn.grad_alloc_bytes") / MB
        m["model.forward_ms"] = t("model.forward")
        m["model.backward_ms"] = t("model.backward")
        m["model.predict_ms"] = ratio(t("model.predict"), n("model.predict_windows"))
        steps = self.steps[base["steps"]:]
        m["training.step_ms_p50"] = 1e3 * statistics.median(s for s, _ in steps) if steps else 0.0
        m["training.glue_ms"] = 1e3 * statistics.median(g for _, g in steps) if steps else 0.0
        m["training.val_ms"] = t("training.val")
        m["records.load_ms"] = t("records.load")
        m["records.rows_per_s"] = ratio(n("records.rows"), m["records.load_ms"] / 1e3)
        m["windows.segment_ms"] = t("windows.segment")
        m["windows.count"] = n("windows.count")
        m["detect.valleys_ms"] = t("detect.valleys")
        m["detect.candidates"] = n("detect.candidates")
        m["detect.kept"] = n("detect.kept")
        m["detect.match_ms"] = t("detect.match")
        m["evaluation.merge_ms"] = t("evaluation.merge")
        m["evaluation.hits"] = n("evaluation.hits")
        m["evaluation.merged"] = n("evaluation.merged")
        m["evaluation.subject_ms"] = t("evaluation.subject")
        m["hrv.indices_ms"] = t("hrv.indices")
        m["synth.record_ms"] = 1e3 * t0.get("synth.record", 0.0)
        m["checkpoint.save_ms"] = 1e3 * t0.get("checkpoint.save", 0.0)
        m["checkpoint.load_ms"] = 1e3 * t0.get("checkpoint.load", 0.0)
        m["checkpoint.bytes"] = c0.get("checkpoint.bytes", 0.0)
        for layer in LAYERS:
            m[f"{layer}.self_ms"] = 1e3 * self.self_s.get(layer, 0.0)
        wall_ms = 1e3 * self.wall_s
        m["trace.unattributed_ms"] = wall_ms - sum(m[f"{layer}.self_ms"] for layer in LAYERS)
        m["trace.wall_ms"] = wall_ms
        m["trace.units"] = float(units)
        m["trace.untraced_unit_ms"] = 1e3 * untraced_unit_s
        m["trace.traced_unit_ms"] = 1e3 * traced_unit_s
        m["trace.overhead_ms"] = 1e3 * (traced_unit_s - untraced_unit_s)
        return m


class _Probe:
    """Rebinds the traced names on entry and restores them on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _rebind(self, owner, name: str, make) -> None:
        orig = getattr(owner, name)
        self._saved.append((owner, name, orig))
        setattr(owner, name, make(orig))

    def __enter__(self):
        tr = self.tracer
        for name in MODEL_OPS:
            self._rebind(model, name, lambda fn, name=name: tr.wrap_op(name, fn))
        self._rebind(training, "smooth_l1_loss", lambda fn: tr.wrap_op("smooth_l1_loss", fn))
        self._rebind(training, "sgd_step", tr.wrap_sgd)
        self._rebind(training, "evaluate_loss",
                     lambda fn: tr.wrap("training", "training.val", fn))
        self._rebind(training, "train", tr.wrap_train)
        self._rebind(model.SeismoNet, "forward",
                     lambda fn: tr.wrap("model", "model.forward", fn))
        self._rebind(model.SeismoNet, "predict",
                     lambda fn: tr.wrap_counted("model", "model.predict", fn,
                                                tr._count_predict))
        self._rebind(model, "build_model", lambda fn: tr.wrap("model", "model.build", fn))
        self._rebind(Tape, "record", tr.wrap_record)
        self._rebind(Tape, "backward", lambda fn: tr.wrap("model", "model.backward", fn))
        self._rebind(evaluation, "evaluate_subject",
                     lambda fn: tr.wrap("evaluation", "evaluation.subject", fn))
        self._rebind(evaluation, "detect_valleys",
                     lambda fn: tr.wrap_counted("detect", "detect.valleys", fn,
                                                tr._count_valleys))
        self._rebind(evaluation, "match_peaks",
                     lambda fn: tr.wrap("detect", "detect.match", fn))
        self._rebind(evaluation, "merge_detections",
                     lambda fn: tr.wrap_counted("evaluation", "evaluation.merge", fn,
                                                tr._count_merge))
        for name in ("nn_intervals", "hrv_indices"):
            self._rebind(evaluation, name, lambda fn: tr.wrap("hrv", "hrv.indices", fn))
        self._rebind(records, "load_record",
                     lambda fn: tr.wrap_counted("records", "records.load", fn,
                                                tr._count_rows))
        self._rebind(records, "write_record",
                     lambda fn: tr.wrap("records", "records.write", fn))
        self._rebind(windows, "segment_windows",
                     lambda fn: tr.wrap_counted("windows", "windows.segment", fn,
                                                tr._count_windows))
        self._rebind(synth, "synth_record", lambda fn: tr.wrap("synth", "synth.record", fn))
        self._rebind(checkpoint, "save_checkpoint",
                     lambda fn: tr.wrap_counted("checkpoint", "checkpoint.save", fn,
                                                tr._count_checkpoint))
        self._rebind(checkpoint, "load_checkpoint",
                     lambda fn: tr.wrap("checkpoint", "checkpoint.load", fn))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, orig = self._saved.pop()
            setattr(owner, name, orig)
        return False
