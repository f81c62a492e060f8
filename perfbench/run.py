"""seismonet benchmark: seeded synthetic workloads, timed or traced.

Run from the repository root:

    python3 perfbench/run.py --workload train_paper --seed 1 --seconds 45 --trace 0

Workloads (see ``workloads.py``): ``train_paper`` times training epochs and
``eval_long`` times scoring a 10 min record; these two are declared in
BENCHMARK.json. ``train_desk`` (training at small shapes) runs the same way
but is not declared: on a shared 2-vCPU machine its run-to-run spread came
close to the 0.25 bound, so use it for manual before/after checks. With
``--trace 0`` the run sets up ``SETUP_REPS`` times, then repeats units of
work for ``--seconds`` and reports the end-to-end metrics: throughput of
the fastest unit, median set-up time and peak resident memory. With
``--trace 1`` it sets up once under the tracer, runs untraced units for
half of ``--seconds`` and traced units for the other half, and reports the
per-layer metrics; the tracing overhead compares the fastest traced and
untraced units. Either way the outputs are checked afterwards; the last
line of stdout is one JSON object, and the exit code is 1 when any check
or operation failed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import bootstrap

SETUP_REPS = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(setup, seconds: float, tally) -> list[float]:
    """Repeat units of work until ``seconds`` have passed (at least one)."""
    from workloads import run_unit

    samples: list[float] = []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        if not run_unit(setup, tally):
            break
        samples.append(time.perf_counter() - t0)
    return samples


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def environment() -> str:
    import numpy
    import scipy

    return (f"blas_threads {bootstrap.BLAS_THREADS}  nproc {os.cpu_count()}  "
            f"python {platform.python_version()}  numpy {numpy.__version__}  "
            f"scipy {scipy.__version__}")


def timed_run(workload, args, work_dir: Path, tally) -> dict[str, float] | None:
    setup_s = []
    for _ in range(SETUP_REPS):
        setup = None  # free the previous set-up before building the next
        t0 = time.perf_counter()
        setup = workload.setup(args.seed, work_dir)
        setup_s.append(time.perf_counter() - t0)
    print(f"inputs: {setup.describe()}")
    samples = measure(setup, args.seconds, tally)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup.verify(tally)
    if not samples:
        return None

    # Throughput comes from the run's fastest unit: on a shared machine,
    # contention from other tenants slows stretches of a run by a quarter to
    # a half, which moves a median over units far more than it moves the
    # fastest unit.
    best = min(samples)
    metrics = {
        "windows_per_s": setup.unit_windows / best,
        "record_s_per_s": setup.unit_record_s / best,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
    }
    q1, q2, q3 = quartiles(samples)
    print(f"units: {len(samples)}; unit wall s min {best:.4f}, median {q2:.4f} (quartiles "
          f"{q1:.4f} .. {q3:.4f}); set-up s per repetition "
          f"{', '.join(f'{s:.4f}' for s in setup_s)}")
    if workload.kind == "train":
        name, unit, per_unit = "train_windows_per_s", "windows/s", setup.unit_windows
    else:
        name, unit, per_unit = "eval_record_s_per_s", "record-s/s", setup.unit_record_s
    print(f"{name}: {per_unit / best:.4f} {unit} (fastest unit), "
          f"{per_unit / q2:.4f} {unit} (median unit)")
    return metrics


def traced_run(workload, args, work_dir: Path, tally) -> dict[str, float] | None:
    from tracing import Tracer

    tracer = Tracer()
    with tracer.active():
        setup = workload.setup(args.seed, work_dir)
    print(f"inputs: {setup.describe()}")
    untraced = measure(setup, args.seconds / 2, tally)
    base = tracer.snapshot()
    with tracer.active():
        traced = measure(setup, args.seconds / 2, tally)
    setup.verify(tally)
    if not untraced or not traced:
        return None
    metrics = tracer.metrics(base, len(traced), min(untraced), min(traced))
    print_trace_summary(metrics, workload.kind)
    return metrics


def print_trace_summary(m: dict[str, float], kind: str) -> None:
    from tracing import LAYERS

    unit = "epoch" if kind == "train" else "record"
    wall = m["trace.wall_ms"]
    print(f"self time over the traced wall time ({wall:.1f} ms: traced set-up + "
          f"{m['trace.units']:g} traced {unit}(s)):")
    rows = [(f"{layer}", m[f"{layer}.self_ms"]) for layer in LAYERS]
    rows.append(("unattributed", m["trace.unattributed_ms"]))
    for name, ms in rows:
        print(f"  {name:<14} {ms:>12.2f} ms  {100 * ms / wall:6.2f} %")
    print(f"  {'sum':<14} {sum(ms for _, ms in rows):>12.2f} ms  (= wall {wall:.2f} ms)")
    print(f"tracing overhead: traced {unit} {m['trace.traced_unit_ms']:.2f} ms - untraced "
          f"{m['trace.untraced_unit_ms']:.2f} ms = {m['trace.overhead_ms']:.2f} ms")
    print(f"counts per {unit}: {m['nn.op_calls']:g} nn op calls; "
          f"conv {m['nn.conv_gflop']:.4f} GFLOP at {m['nn.conv_gflops']:.2f} GFLOP/s; "
          f"allocated {m['nn.alloc_mb']:.2f} MB values + {m['nn.grad_alloc_mb']:.2f} MB grads")
    if m["detect.candidates"]:
        print(f"  detect: kept {m['detect.kept']:g} of {m['detect.candidates']:g} valley "
              f"candidates ({100 * m['detect.kept'] / m['detect.candidates']:.2f} %)")
    if m["evaluation.hits"]:
        print(f"  evaluation: merged {m['evaluation.merged']:g} of {m['evaluation.hits']:g} "
              f"hits ({100 * m['evaluation.merged'] / m['evaluation.hits']:.2f} %)")


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap.prepare()
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  {environment()}")
    print(f"why: {workload.why}")

    tally = workloads.Tally()
    work_dir = bootstrap.ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        run = traced_run if args.trace else timed_run
        metrics = run(workload, args, work_dir, tally)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    if metrics is None:
        for note in tally.notes:
            print(f"FAIL {note}", file=sys.stderr)
        return 1
    if set(metrics) != set(declared):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(declared))} differ from "
              f"BENCHMARK.json", file=sys.stderr)
        return 2
    for name, value in metrics.items():
        print(f"{name:<28} {value:>16.6f} {declared[name]}")
    print(f"fail_ratio {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.6f} (failed / attempted operations: "
          f"training steps, validation passes, scored windows, output checks)")
    for note in tally.notes:
        print(f"FAIL {note}")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": declared[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
