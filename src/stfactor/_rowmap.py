"""The row map: row chunks on every usable core, scratch from the calling thread, one BLAS thread."""

import contextlib
import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np


@functools.cache
def _blas_thread_controls():
    """(get, set) of the thread count of the OpenBLAS behind numpy's LAPACK, or None."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                 "openblas_{}_num_threads"):
        if hasattr(lib, name.format("set")):
            get, set_ = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


_POOL_MIN_COST = 2e6  # about 20 ms of serial work; a smaller map runs in the calling thread
_PIN_LOCK = threading.Lock()
_pin = [0, 0]  # threads inside the map, BLAS thread count to restore


def _pin_blas(step: int) -> None:
    """+1 entering, -1 leaving: the first caller in sets BLAS to one thread, the last out restores it."""
    controls = _blas_thread_controls()
    with _PIN_LOCK:
        if controls and _pin[0] == 0:
            _pin[1] = controls[0]()
        _pin[0] += step
        if controls and _pin[0] == (step > 0):  # 1 after entering, 0 after leaving
            controls[1](1 if _pin[0] else _pin[1])


@contextlib.contextmanager
def blas_pinned():
    """BLAS at one thread inside, for nested and concurrent holders: an idle OpenBLAS thread
    busy-waits for a while after each multi-threaded call, taking a core from the next map."""
    _pin_blas(+1)
    try:
        yield
    finally:
        _pin_blas(-1)


def map_workers(count: int, cost: float) -> int:
    """Threads sharing ``count`` rows: one per usable core, or 1 if BLAS cannot be pinned
    or ``cost`` (about 10 ns of serial work per unit) is below :data:`_POOL_MIN_COST`."""
    if _blas_thread_controls() is None or cost < _POOL_MIN_COST:
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cores or 1, count)


def _map_rows(task, weights, workers: int, scratch=tuple) -> None:
    """task(lo, hi, *scratch()) on ``workers`` contiguous chunks of rows (the count the caller's
    layout gave), BLAS at one thread; each chunk's weight is within one row of an equal share.  The
    calling thread makes all scratch first (glibc keeps a worker thread's freed heap resident), and
    each chunk drops its own when done: the other way round, `comparison` ops ran 3% slower."""
    buffers, cum = [scratch() for _ in range(workers)], np.cumsum(weights)
    bounds = [0, *np.searchsorted(cum, cum[-1] * np.arange(1, workers) / workers, "right"), len(cum)]
    with blas_pinned(), ThreadPoolExecutor(max(workers - 1, 1)) as pool:
        rest = pool.map(lambda lo, hi: task(lo, hi, *buffers.pop()), bounds[1:-1], bounds[2:])
        task(bounds[0], bounds[1], *buffers.pop())
        list(rest)
