"""A one-worker thread pool that lets inference use a second core.

numpy's ``matmul`` releases the GIL, so a worker thread can run one half of
a batch's GEMMs while the calling thread runs the other. The pool exists
only where that can help:

- the process may run on at least two CPUs (``os.sched_getaffinity``);
- BLAS is declared single-threaded in the environment: the first of
  ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` that is set reads 1, as
  OpenBLAS itself resolves them. A multi-threaded BLAS already uses the
  cores, and two batch halves on top of it ran slower than one batch.

The decision is made once per process, on first use, and no thread exists
before then. A forked child decides afresh rather than inherit a pool whose
worker did not survive the fork.

Creating the pool caps glibc at one malloc arena (``mallopt(M_ARENA_MAX,
1)``; a no-op off glibc). A worker thread otherwise gets an arena of its
own, whose freed activations the calling thread cannot reuse: that raised
the peak RSS of scoring a long record by about 9 %.
"""
from __future__ import annotations

import os
import threading

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
M_ARENA_MAX = -8  # glibc's mallopt parameter number

# One pool per process: it stands for the process's second core.
_executor = None
_owner_pid: int | None = None
_lock = threading.Lock()


def blas_single_threaded() -> bool:
    """True when the environment pins BLAS to one thread."""
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "").strip()
        if value:
            return value == "1"
    return False


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cap_malloc_arenas() -> None:
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):  # not glibc
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_ARENA_MAX, 1)


def second_core():
    """The pool's executor, or None when work should stay on this thread."""
    global _executor, _owner_pid
    pid = os.getpid()
    if _owner_pid != pid:
        with _lock:  # two first callers must not both make a pool
            if _owner_pid != pid:
                _executor = None
                if _cpus() >= 2 and blas_single_threaded():
                    from concurrent.futures import ThreadPoolExecutor

                    _cap_malloc_arenas()
                    _executor = ThreadPoolExecutor(max_workers=1,
                                                   thread_name_prefix="seismonet")
                _owner_pid = pid
    return _executor
