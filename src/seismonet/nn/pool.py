"""A one-worker thread pool that lets a process use a second core.

numpy's ``matmul`` releases the GIL, so a worker thread can run GEMMs while
the calling thread runs others. Three callers use it: through
``run_halves``, inference (``SeismoNet.predict`` splits a batch of whole
windows) and the taped convolutions of a training step (the forward and
the input gradient split the batch); through ``submit``, a taped
convolution's backward, which hands its parameter gradients to the worker
while the calling thread goes on with the backward (``Tape.defer``; see
``nn.ops``). A split only shortens a GEMM's N or M dimension, which leaves
every output element's summation order, and so its bits, unchanged, as
long as each half stays a blocked GEMM (``nn.ops`` explains the
small-matrix exception); a job on the worker runs exactly what the calling
thread would.

Importing this module, and so seismonet, sets numpy's bundled OpenBLAS to
one thread for the whole process (its ``scipy_openblas_set_num_threads64_``),
before the package's first GEMM and whatever ``OPENBLAS_NUM_THREADS`` or
``OMP_NUM_THREADS`` say. OpenBLAS's thread count changes a GEMM's summation
order, so a run gives one set of bits per platform. The pool exists exactly
when the process may run on at least two CPUs (``os.sched_getaffinity``)
and the pin succeeded. Where numpy carries another BLAS, nothing is pinned
and no pool is made: two batch halves on top of a multi-threaded BLAS ran
slower than one batch. A process given more than two CPUs gives up the BLAS
threads it would have run beyond the second core.

The decision is made once per process, on first use, and no thread exists
before then. A forked child decides afresh rather than inherit a pool whose
worker did not survive the fork. On the worker itself ``second_core``
returns None: a job that split again would queue behind itself on the one
worker and wait forever.

Creating the pool sets three glibc malloc parameters (``mallopt``; a
no-op off glibc). It caps glibc at one arena (``M_ARENA_MAX``): a worker
thread otherwise gets an arena of its own, whose freed activations the
calling thread cannot reuse, and that raised the peak RSS of scoring a
long record by about 9 %. It also fixes the mmap threshold at 32 MiB, the
ceiling of glibc's dynamic one on 64-bit, and turns heap trimming off
(setting either threshold ends glibc's adjusting of both). Under the
dynamic defaults, whether the free top of the heap crossed the trim
threshold after a training step depended on where earlier frees had left
it, which varies with the order in which the two threads free: some runs
of the ``train_paper`` benchmark gave back and re-faulted about 20 MB per
epoch (about 5000 minor faults a second), others none. Trimming only
lowered the RSS between steps, never the peak.
"""
from __future__ import annotations

import ctypes
import os
import threading

# glibc's mallopt parameter numbers
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
M_ARENA_MAX = -8
# DEFAULT_MMAP_THRESHOLD_MAX on 64-bit: the dynamic threshold's ceiling
MMAP_THRESHOLD = 32 << 20

# One pool per process: it stands for the process's second core.
_executor = None
_owner_pid: int | None = None
_lock = threading.Lock()
_thread = threading.local()  # ``on_worker`` is set on the pool's worker thread


def _pin_blas() -> bool:
    """Set numpy's bundled OpenBLAS to one thread; False where numpy has none."""
    try:
        from numpy._core import _multiarray_umath
        set_threads = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):  # an older numpy, or another BLAS
        return False
    set_threads.argtypes = (ctypes.c_int,)
    set_threads.restype = None
    set_threads(1)
    return True


# At import: before the package's first GEMM, in one-CPU processes too.
_blas_pinned = _pin_blas()


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _steady_malloc() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):  # not glibc
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_ARENA_MAX, 1)
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, -1)  # never trim


def _mark_worker() -> None:
    _thread.on_worker = True


def second_core():
    """The pool's executor, or None when work should stay on this thread."""
    global _executor, _owner_pid
    if getattr(_thread, "on_worker", False):
        return None
    pid = os.getpid()
    if _owner_pid != pid:
        with _lock:  # two first callers must not both make a pool
            if _owner_pid != pid:
                _executor = None
                if _blas_pinned and _cpus() >= 2:
                    from concurrent.futures import ThreadPoolExecutor

                    _steady_malloc()
                    _executor = ThreadPoolExecutor(max_workers=1,
                                                   thread_name_prefix="seismonet",
                                                   initializer=_mark_worker)
                _owner_pid = pid
    return _executor


def run_halves(pool, fill, n: int) -> None:
    """Run ``fill(lo, hi)`` over ``[0, n)`` as two halves, one handed to the pool.

    The worker is handed the upper half and this thread runs the lower one,
    both writing into one output that ``fill`` closes over. If the worker
    has not started its half when this thread is done with its own (it is
    busy with earlier jobs), this thread withdraws that half and runs it
    too, so no half queues behind those jobs; a half that fails here
    withdraws the worker's the same way. A half that the worker started is
    waited for before this returns or re-raises, so no half is still
    writing once the caller moves on. With no pool, or fewer than two
    items, ``fill(0, n)`` runs here.
    """
    if pool is None or n < 2:
        fill(0, n)
        return
    mid = n // 2
    other = pool.submit(fill, mid, n)
    try:
        fill(0, mid)
    finally:
        if not other.cancel():
            other.exception()  # waits, whatever the outcome
    if other.cancelled():
        fill(mid, n)
    else:
        other.result()
