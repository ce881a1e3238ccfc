"""Each step's layout from its own arguments, and the bytes live at the peak of a public entry's call.

Each step lays itself out (pads, block width, batch rows, filter chunks, the simulator's block,
each row map's workers) with its stage builder below, called with its own arguments.  A public
entry chains the same stages into the bytes live at its call's peak, the largest stage on top of
what earlier stages still hold (numpy's iterator buffers included, per worker in the maps), and
checks them against physical memory once, before any work.  A step called alone checks its own
stages.  Inside an entry one boolean context variable says they were checked: it feeds no layer
input, and remains only because the benchmark's tracer wraps the public names the entries call.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import os

import numpy as np

from ._rowmap import map_workers
from .errors import ConfigError

_BLOCK_BYTES = 4 << 20  # one cross-spectrum block: a cache-sized share of the padded half-spectrum
_EIGH_BATCH_BYTES = 1 << 20
_GIL_ROWS = 500  # numpy's gufuncs keep the GIL over a call of at most this many matrix rows
_FILTER_CHUNKS = 4  # partial sums of chi, added in chunk order whatever the worker count
_CONV_BUDGET_BYTES = 8 << 20  # scratch bytes per block of the simulator's filters
_CHECKED = contextvars.ContextVar("checked", default=False)


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _check_memory(step: str, need: int) -> None:
    """ConfigError, before anything is allocated, if ``step`` needs more than physical memory."""
    if need > (have := _physical_memory_bytes()):
        raise ConfigError(f"{step} needs {need:.0f} bytes, more than the {have} bytes of physical memory")


def step(name: str, *stages) -> dict:
    """The first stage's layout, once the stages' bytes are checked unless an enclosing entry did."""
    if not _CHECKED.get():
        _check_memory(name, _chain(*stages))
    return stages[0][0]


@contextlib.contextmanager
def entry(name: str, need: int):
    """Check ``need`` bytes as a :func:`step` does; the steps called inside skip their checks."""
    step(name, (None, need, 0))
    token = _CHECKED.set(True)
    try:
        yield
    finally:
        _CHECKED.reset(token)


def _chain(*stages) -> int:
    """The largest total of stages (layout, peak, held) in turn, each atop what earlier ones hold."""
    peak = held = 0
    for _, stage_peak, stage_held in stages:
        peak, held = max(peak, held + stage_peak), held + stage_held
    return int(peak)


def _half(window) -> int:
    return (math.prod(2 * b + 1 for b in window) + 1) // 2


def _next_fast_len(target: int) -> int:
    # smallest 5-smooth integer >= target
    n = target
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _autocov(n: int, dims, window):
    """Padded lengths past d + L (no lag |h| <= L wraps around), block width w (w series'
    cross-spectra fill _BLOCK_BYTES) and per-series lengths of the block arrays (P1 P2 K3 bins,
    K3 = P3 // 2 + 1, then the transforms over each axis): the half lag box, the padded
    half-spectrum and each worker's conjugated series and blocks; held: the lag box."""
    pad = tuple(_next_fast_len(d + b + 1) for d, b in zip(dims, window))
    l1, l2, l3 = (2 * b + 1 for b in window)
    k3 = pad[2] // 2 + 1
    sizes = (pad[0] * pad[1] * k3, l1 * pad[1] * k3, l1 * l2 * k3, l1 * l2 * l3)
    width = min(n, max(1, _BLOCK_BYTES // (sizes[0] * 16)))
    workers = map_workers(n, n * (n + 1) // 2 * sizes[0])  # pairs times bins, about 10 ns a unit
    gammas, scratch = 8 * n * n * _half(window), sizes[0] + width * sum(sizes) + 3 * np.getbufsize()
    return ({"pad": pad, "width": width, "sizes": sizes, "workers": workers},
            gammas + 16 * (sizes[0] * n + workers * scratch), gammas)


def _assembly(n: int, window, bw):
    """The packed estimate and each row worker's weighted lags, axis products and iterator buffers
    (one per operand of the strided real products into the lags); held: the estimate."""
    shape, packed = [2 * b + 1 for b in bw], 8 * n * n * _half(bw)
    workers = map_workers(n, n * (n + 1) // 2 * math.prod(shape) * sum(shape) / 8)
    rows, box = (bw[0] + 1) * shape[1], math.prod(2 * b + 1 for b in window)
    scratch = 16 * n * (max(box, rows * (2 * window[2] + 1)) + rows * shape[2]) + 24 * np.getbufsize()
    return {"workers": workers}, packed + workers * scratch, packed - 8 * n * n * _half(window)


def _phases(q_keep: int) -> int:
    """The iterator buffer of _fix_phases's broadcast complex product, if there are rows."""
    return 16 * np.getbufsize() if q_keep else 0


def _eigensolves(half: int, sizes, q_keep: int = 0, fewer: bool = False):
    """Batch rows per size m (about _EIGH_BATCH_BYTES, over _GIL_ROWS rows a call): the eigenvalues,
    each worker's batch with its eigenvectors, and q_keep rows with their phase-fixed copy.  If
    ``fewer``, the batch of any one size up to sizes[0]: a smaller size can take more rows."""
    def per_batch(m):
        return max(_EIGH_BATCH_BYTES // (16 * m * m), _GIL_ROWS // m + 1)

    workers = map_workers(half, half * sum(m**3 for m in sizes))  # m x m eigensolves
    batch = max(min(per_batch(m), half) * m * (m + 1) for m in (range(1, sizes[0] + 1) if fewer else sizes))
    vals, rows = 8 * half * sum(sizes), 16 * half * q_keep * max(sizes)
    return ({"steps": tuple(map(per_batch, sizes)), "workers": workers},
            vals + 2 * rows + _phases(q_keep) + 32 * workers * batch, vals + rows)


def _eigensystem(n: int, dims, window, bw, q_keep: int) -> list:
    """The spectral step and the eigensolves or, for n > V, the Gram matrix and principal
    coordinates, their spectral step and eigensolves, and the n-sized arrays: the eigenvalues,
    then the rows with x2d @ back and its complex cast, or later the rows with their norm's and
    phases' temporaries and buffer."""
    half, volume = _half(bw), math.prod(dims)
    if volume >= n:
        return [_autocov(n, dims, window), _assembly(n, window, bw), _eigensolves(half, [n], q_keep),
                ({}, 0, -8 * n * n * half)]
    square, eig, rows = 8 * volume * volume, _eigensolves(half, [volume], q_keep, fewer=True), half * q_keep
    return [({}, 5 * square, 2 * square), _autocov(volume, dims, window), _assembly(volume, window, bw),
            eig, ({}, 8 * n * (half + max(6 * rows, 2 * rows + 3 * volume)) + _phases(q_keep),
             8 * half * n * (1 + 2 * q_keep) - (2 + half) * square - eig[2])]


def _filter(n: int, dims, q: int, bw, trunc):
    """Row starts per chunk of the half grid; each chunk's partial chi, and per worker two score
    buffers (three more if the window is tiled), the rows, their ufunc buffers and the
    back-projection; held: chi and its interior mask."""
    shape, volume = [2 * b + 1 for b in bw], math.prod(dims)
    starts = np.arange(0, _half(bw), shape[2])
    chunks = tuple(np.array_split(starts, min(_FILTER_CHUNKS, len(starts))))
    workers = map_workers(len(chunks), _half(bw) * q * volume * (2 * n + sum(2 * m + 1 for m in trunc)) / 32)
    tiled = any(d > 3 * (2 * m + 1) for d, m in zip(dims, trunc))
    worker = (((2 + 3 * tiled) * volume + 2 * n) * shape[2] * q + 3 * np.getbufsize()) * 16 + 8 * n * volume
    return ({"chunks": chunks, "workers": workers},
            8 * len(chunks) * n * volume + workers * worker, 8 * n * volume + volume)


def _simulation(n: int, dims, q: int, pad: int, correlated: bool):
    """Filters per convolution block; at once a shock field and the next one's draw, three panels
    (chi, xi, and x or one of xi's terms), the correlated draws and twice a block's scratch."""
    (s1, s2, t), (p1, p2, p3) = dims, (d + 2 * pad for d in dims)
    per_filter = s1 * p2 * p3 + s1 * p1 + s2 * p2 + t * p3
    block = max(1, _CONV_BUDGET_BYTES // (8 * per_filter))
    draws = (n + 4) * math.prod(d + 2 for d in dims) if correlated else 0
    need = min(q, 2) * p1 * p2 * p3 + 3 * n * s1 * s2 * t + draws + 2 * min(block, n) * per_filter
    return {"block": block}, 8 * need, 0


def spectral(n: int, dims, window, bw) -> int:
    """The autocovariances and the estimate assembled from them."""
    return _chain(_autocov(n, dims, window), _assembly(n, window, bw))


def eigensystem(n: int, dims, window, bw, q_keep: int) -> int:
    return _chain(*_eigensystem(n, dims, window, bw, q_keep))


def common_component(n: int, dims, window, bw, q: int, trunc) -> int:
    return _chain(*_eigensystem(n, dims, window, bw, q), _filter(n, dims, q, bw, trunc))


def baseline(n: int, dims, window, bw, q: int, trunc) -> int:
    """The stacked panel's checks and its demeaned copy, if it needs one, then its estimate."""
    stacked, lattice = n * dims[0] * dims[1], (1, 1, dims[2])
    return _chain(({}, 18 * stacked * dims[2], 8 * stacked * dims[2]),
                  *_eigensystem(stacked, lattice, window, bw, q), _filter(stacked, lattice, q, bw, trunc))


def scan(n: int, dims, window, bw, sizes, scales: int, q_max: int) -> int:
    """The spectral step with a permuted lag box (and the (n, n) index arrays numpy broadcasts
    for it), the weighted eigenvalues, and per scale qhat with two temporaries or with one
    subsample's scores and their sum."""
    autocov, weighted = _autocov(n, dims, window), _eigensolves(_half(bw), sizes)
    return _chain(autocov, ({}, autocov[2] + 16 * n * n, 0), _assembly(n, window, bw), weighted,
                  ({}, weighted[2], 0),
                  ({}, 8 * scales * (3 * len(sizes) + 2 * (q_max + 1)), 0))


def curve(n: int, dims, window, bw, sizes) -> int:
    """The spectral step and the weighted eigenvalues or, for n > V, the largest subpanel eigensystem."""
    if math.prod(dims) >= n:
        weighted = _eigensolves(_half(bw), sizes)
        return _chain(_autocov(n, dims, window), _assembly(n, window, bw), weighted, ({}, weighted[2], 0))
    return max(10 * n * math.prod(dims), *(eigensystem(m, dims, window, bw, 0) for m in sizes))
