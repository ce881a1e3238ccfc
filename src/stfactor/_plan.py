"""One plan per shape: the layouts, row-map worker counts and peak bytes of a public entry's call.

Each public entry builds its plan from the shapes alone and checks its bytes against physical
memory once, before any work; the layers it calls, public ones included, run on that plan (a
curve's subpanels on their parts of it).  The bytes are those live at the call's peak: the
largest stage, counting what earlier stages still hold, numpy's iterator buffers included in
the stages whose strided ufuncs make them (per worker in the maps).  Inside an entry the Gram
route's r <= V principal coordinates run on the layouts planned for V series.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import os
from dataclasses import dataclass, field

import numpy as np

from ._rowmap import map_workers
from .errors import ConfigError

_BLOCK_BYTES = 4 << 20  # one cross-spectrum block: a cache-sized share of the padded half-spectrum
_EIGH_BATCH_BYTES = 1 << 20
_GIL_ROWS = 500  # numpy's gufuncs keep the GIL over a call of at most this many matrix rows
_FILTER_CHUNKS = 4  # partial sums of chi, added in chunk order whatever the worker count
_CONV_BUDGET_BYTES = 8 << 20  # scratch bytes per block of the simulator's filters
_ACTIVE = contextvars.ContextVar("plan", default=None)


@dataclass(frozen=True)
class Plan:
    """The peak bytes, the layouts that the stage builders below describe, each row map's workers
    and a curve's subpanel plans."""

    bytes: int
    pad: tuple = ()
    width: int = 0
    sizes: tuple = ()
    steps: tuple = ()
    chunks: tuple = ()
    block: int = 0
    workers: dict = field(default_factory=dict)
    parts: tuple = ()


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _check_memory(step: str, need: int) -> None:
    """ConfigError, before anything is allocated, if ``step`` needs more than physical memory."""
    if need > (have := _physical_memory_bytes()):
        raise ConfigError(f"{step} needs {need:.0f} bytes, more than the {have} bytes of physical memory")


def current(step: str, build) -> Plan:
    """The plan of the entry being run or, called alone, ``build()`` checked against memory.  An
    entry calls its public layers only on the shapes its plan was built for (or, for the Gram
    route's coordinates, fewer series on the same lattice)."""
    if (plan := _ACTIVE.get()) is None:
        _check_memory(step, (plan := build()).bytes)
    return plan


@contextlib.contextmanager
def running(plan: Plan):
    """The public functions called inside run on ``plan``."""
    token = _ACTIVE.set(plan)
    try:
        yield plan
    finally:
        _ACTIVE.reset(token)


def entry(step: str, build):
    """Run on the :func:`current` plan."""
    return running(current(step, build))


def _chain(*stages, parts=()) -> Plan:
    """Stages (fields, peak, held) in turn: each one's bytes come on top of what the stages before
    it hold (held < 0 frees), and the plan keeps the largest total."""
    fields, workers, peak, held = {}, {}, 0, 0
    for stage, stage_peak, stage_held in stages:
        workers.update(stage.pop("workers", {}))
        fields.update(stage)
        peak, held = max(peak, held + stage_peak), held + stage_held
    return Plan(int(peak), workers=workers, parts=parts, **fields)


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
    return ({"pad": pad, "width": width, "sizes": sizes, "workers": {"autocov": workers}},
            gammas + 16 * (sizes[0] * n + workers * scratch), gammas)


def _assembly(n: int, window, bw):
    """The packed estimate and each row worker's weighted lags, axis products and iterator buffers
    (one per operand of the strided real products into the lags); held: the estimate."""
    shape, packed = [2 * b + 1 for b in bw], 8 * n * n * _half(bw)
    workers = map_workers(n, n * (n + 1) // 2 * math.prod(shape) * sum(shape) / 8)
    rows, box = (bw[0] + 1) * shape[1], math.prod(2 * b + 1 for b in window)
    scratch = 16 * n * (max(box, rows * (2 * window[2] + 1)) + rows * shape[2]) + 24 * np.getbufsize()
    return {"workers": {"assembly": workers}}, packed + workers * scratch, packed - 8 * n * n * _half(window)


def _phases(q_keep: int) -> int:
    """The iterator buffer of _fix_phases's broadcast complex product, if there are rows."""
    return 16 * np.getbufsize() if q_keep else 0


def _eigensolves(half: int, sizes, q_keep: int = 0):
    """Batch rows per size m (about _EIGH_BATCH_BYTES, over _GIL_ROWS rows a call): the eigenvalues,
    each worker's batch with its eigenvectors, and q_keep rows with their phase-fixed copy."""
    steps = tuple(max(_EIGH_BATCH_BYTES // (16 * m * m), _GIL_ROWS // m + 1) for m in sizes)
    workers = map_workers(half, half * sum(m**3 for m in sizes))  # m x m eigensolves
    batch = max(min(step, half) * m * (m + 1) for m, step in zip(sizes, steps))
    vals, rows = 8 * half * sum(sizes), 16 * half * q_keep * max(sizes)
    return ({"steps": steps, "workers": {"eigen": workers}},
            vals + 2 * rows + _phases(q_keep) + 32 * workers * batch, vals + rows)


def _eigensystem(n: int, dims, window, bw, q_keep: int) -> list:
    """The spectral step and the eigensolves or, for n > V, the Gram matrix and principal
    coordinates, their spectral step and eigensolves, and the n-sized arrays (eigenvalues, rows
    with their norm's and phases' temporaries and buffer, x2d @ back and its complex cast)."""
    half, volume = _half(bw), math.prod(dims)
    if volume >= n:
        return [_autocov(n, dims, window), _assembly(n, window, bw), _eigensolves(half, [n], q_keep),
                ({}, 0, -8 * n * n * half)]
    square, eig = 8 * volume * volume, _eigensolves(half, [volume], q_keep)
    return [({}, 5 * square, 2 * square), _autocov(volume, dims, window), _assembly(volume, window, bw),
            eig, ({}, 8 * n * (half + 6 * half * q_keep + 3 * volume) + _phases(q_keep),
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
    return ({"chunks": chunks, "workers": {"filter": workers}},
            8 * len(chunks) * n * volume + workers * worker, 8 * n * volume + volume)


def simulation(n: int, dims, q: int, pad: int, correlated: bool) -> Plan:
    """Filters per convolution block; at once a shock field and the next one's draw, three panels
    (chi, xi, and x or one of xi's terms), the correlated draws and twice a block's scratch."""
    (s1, s2, t), (p1, p2, p3) = dims, (d + 2 * pad for d in dims)
    per_filter = s1 * p2 * p3 + s1 * p1 + s2 * p2 + t * p3
    block = max(1, _CONV_BUDGET_BYTES // (8 * per_filter))
    draws = (n + 4) * math.prod(d + 2 for d in dims) if correlated else 0
    need = min(q, 2) * p1 * p2 * p3 + 3 * n * s1 * s2 * t + draws + 2 * min(block, n) * per_filter
    return _chain(({"block": block}, 8 * need, 0))


def spectral(n: int, dims, window, bw=None) -> Plan:
    """The autocovariances and, given bandwidths, the estimate assembled from them."""
    return _chain(_autocov(n, dims, window), *([_assembly(n, window, bw)] if bw else []))


def assembly(n: int, window, bw) -> Plan:
    return _chain(_assembly(n, window, bw))


def eigensolves(half: int, sizes, q_keep: int = 0, weighted: bool = False) -> Plan:
    """The eigensolves, with the weighted copy of their eigenvalues if ``weighted``."""
    stage = _eigensolves(half, sizes, q_keep)
    return _chain(stage, ({}, weighted * stage[2], 0))


def eigensystem(n: int, dims, window, bw, q_keep: int) -> Plan:
    return _chain(*_eigensystem(n, dims, window, bw, q_keep))


def common_component(n: int, dims, window, bw, q: int, trunc) -> Plan:
    return _chain(*_eigensystem(n, dims, window, bw, q), _filter(n, dims, q, bw, trunc))


def baseline(n: int, dims, window, bw, q: int, trunc) -> Plan:
    """The stacked panel's checks and its demeaned copy, if it needs one, then its estimate."""
    stacked, lattice = n * dims[0] * dims[1], (1, 1, dims[2])
    return _chain(({}, 18 * stacked * dims[2], 8 * stacked * dims[2]),
                  *_eigensystem(stacked, lattice, window, bw, q), _filter(stacked, lattice, q, bw, trunc))


def scan(n: int, dims, window, bw, sizes, scales: int, q_max: int) -> Plan:
    """The spectral step with a permuted lag box (and the (n, n) index arrays numpy broadcasts
    for it), the weighted eigenvalues, and per scale qhat with two temporaries or with one
    subsample's scores and their sum."""
    autocov, weighted = _autocov(n, dims, window), _eigensolves(_half(bw), sizes)
    return _chain(autocov, ({}, autocov[2] + 16 * n * n, 0), _assembly(n, window, bw), weighted,
                  ({}, weighted[2], 0),
                  ({}, 8 * scales * (3 * len(sizes) + 2 * (q_max + 1)), 0))


def curve(n: int, dims, window, bw, sizes) -> Plan:
    """The spectral step and the weighted eigenvalues or, for n > V, each subpanel's own plan."""
    if math.prod(dims) >= n:
        weighted = _eigensolves(_half(bw), sizes)
        return _chain(_autocov(n, dims, window), _assembly(n, window, bw), weighted, ({}, weighted[2], 0))
    parts = tuple(eigensystem(m, dims, window, bw, 0) for m in sizes)
    return _chain(({}, max(10 * n * math.prod(dims), *(p.bytes for p in parts)), 0), parts=parts)
