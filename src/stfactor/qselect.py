"""Data-driven selection of the number of dynamic factors.

The criterion penalizes the grid-averaged eigenvalue mass left in the
tail after removing k components:

    IC(k) = log[ (1/n) sum_{j>k} mean_theta max(lambda_j(theta), 0) ]
            + k * c * p(n, S1, S2, T),

minimized over k = 0..q_max.  Negative estimated eigenvalues (possible
under non-positive lag windows) count as zero inside the tail sums.
The reference for the criterion is ``tests/oracles.py``, which
evaluates it at fixed c from full-grid eigenvalues; the scan's
full-sample estimate is checked against it.

The penalty scale c is calibrated by a stability scan: the estimate is
repeated over nested cross-sectional subsamples (the leading principal
submatrices of the spectral estimate of the panel, estimated once after
one seeded random permutation of its series) and, for every c on a
grid, the across-subsample variance

    S_c = (1/J) sum_j ( qhat_c^(n_j) - mean_j qhat_c^(n_j) )^2

is recorded.  S_c vanishes on "stability intervals" of c; the first
such interval (c near 0) always reports q_max by underpenalization, and
the selected factor count is the common full-sample estimate on the
second stability interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from ._rowmap import blas_pinned, map_workers
from .dynpca import weighted_submatrix_eigenvalues
from .errors import ConfigError, NumericError
from .field import LatticeField
from .spectral import (
    _check_memory,
    resolve_kernels,
    sample_autocovariance,
    spectral_from_autocovariance,
    validate_bandwidths,
)

__all__ = [
    "penalty_value",
    "StabilityScan",
    "stability_scan",
    "NoSecondIntervalError",
]


def penalty_value(n, dims, bw, smoothness=(2.0, 2.0, 2.0)) -> float:
    """Unscaled penalty.

    p = (1/n + B1^-t1 + B2^-t2 + B3^-t3 + 1/V)
          * log(min(n, B1^t1, B2^t2, B3^t3, V)),
    V = sqrt(S1*S2*T) / (sqrt(B1*B2*B3) * log B1 * log B2 * log B3).

    Requires every bandwidth >= 2 so the logarithms are positive.
    """
    s1, s2, t = (int(d) for d in dims)
    b1, b2, b3 = (int(b) for b in bw)
    if min(s1, s2, t) < 1:
        raise ConfigError("extents must be positive")
    if min(b1, b2, b3) < 2:
        raise ConfigError(f"penalty requires all bandwidths >= 2, got {(b1, b2, b3)}")
    t1, t2, t3 = (float(v) for v in smoothness)
    v = math.sqrt(s1 * s2 * t) / (
        math.sqrt(b1 * b2 * b3) * math.log(b1) * math.log(b2) * math.log(b3)
    )
    rate = 1.0 / n + b1 ** -t1 + b2 ** -t2 + b3 ** -t3 + 1.0 / v
    level = min(n, b1 ** t1, b2 ** t2, b3 ** t3, v)
    if level <= 1.0:
        raise NumericError(f"penalty log factor is non-positive (min argument {level})")
    return rate * math.log(level)


def _tail_means(grid_means: np.ndarray, q_max: int) -> np.ndarray:
    """Bracketed IC averages (1/n) sum_{j>k} lambda_bar_j for k = 0..q_max."""
    n = grid_means.shape[0]
    rev = np.concatenate([[0.0], np.cumsum(grid_means[::-1])])[::-1]
    return rev[: q_max + 1] / n


# ---------------------------------------------------------------------------
# Stability scan over the penalty scale
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilityScan:
    """Result of the penalty-scale calibration scan.

    ``qhat_table[c_idx, j]`` is the estimate at penalty scale
    ``c_grid[c_idx]`` on the leading ``subsample_sizes[j]`` series of the
    permuted panel.  ``intervals`` lists every maximal run of the grid
    where the estimate is stable (S_c = 0 and the full-sample estimate
    constant) as (start_idx, end_idx_inclusive, q).
    """

    c_grid: np.ndarray
    subsample_sizes: tuple[int, ...]
    qhat_table: np.ndarray
    s_curve: np.ndarray
    q_by_c: np.ndarray
    intervals: tuple[tuple[int, int, int], ...]
    selected_c: float | None
    selected_q: int | None
    permutation: np.ndarray
    seed: int
    settings: dict = dc_field(default_factory=dict)


class NoSecondIntervalError(NumericError):
    """Raised when the scan finds fewer than two stability intervals.

    The full scan (with ``selected_q`` / ``selected_c`` set to None) is
    attached as ``.scan`` so the S_c curve can still be emitted for
    manual inspection.
    """

    def __init__(self, message: str, scan: StabilityScan):
        super().__init__(message)
        self.scan = scan


# Stability runs shorter than this share of the c grid (or than two
# points) are not candidates for the second interval.
MIN_RUN_FRACTION = 0.005

# the factor-count bound of a scan that is given none
DEFAULT_Q_MAX = 10


def _stable_runs(qhat_table: np.ndarray, q_full: np.ndarray):
    """Maximal index runs where all subsamples agree on one estimate.

    A run ends when agreement breaks or when the agreed value changes
    (adjacent plateaus with different q are distinct intervals).
    """
    stable = qhat_table.max(axis=1) == qhat_table.min(axis=1)
    runs = []
    i, total = 0, len(stable)
    while i < total:
        if not stable[i]:
            i += 1
            continue
        j = i
        while j + 1 < total and stable[j + 1] and q_full[j + 1] == q_full[i]:
            j += 1
        runs.append((i, j, int(q_full[i])))
        i = j + 1
    return runs


@blas_pinned()
def stability_scan(
    field: LatticeField,
    q_max: int | None = None,
    c_grid=None,
    subsample_sizes=None,
    kernels="epanechnikov",
    bw=None,
    seed: int = 0,
    c_manual: float | None = None,
) -> StabilityScan:
    """Calibrate the penalty scale and select the factor count.

    One seeded random permutation of the series is drawn; for every
    penalty scale in ``c_grid`` and every leading subsample of the
    permuted panel the factor count is estimated, and the selected
    answer is the common full-sample estimate on the second stability
    interval of c -> S_c.  The spectral estimate of the permuted panel
    is assembled once at full n; subsample estimates use its leading
    principal submatrices, which is what re-estimation on the subsample
    would produce anyway.

    ``q_max`` defaults to :data:`DEFAULT_Q_MAX` and ``c_grid`` to
    0:0.0005:3, formed as ``arange(0, 6001) / 2000``.
    ``subsample_sizes`` defaults to n - 5j, j = 1..16 (clipped to stay
    above q_max + 2); the full size n is always included.  ``c_manual``
    bypasses interval detection and reads the estimate at the nearest
    grid scale; it must lie between the grid's ends.  Runs shorter than
    :data:`MIN_RUN_FRACTION` of the grid are ignored when choosing the
    second interval (the reported interval list is unfiltered).
    """
    n = field.n
    q_max = DEFAULT_Q_MAX if q_max is None else q_max
    if not 0 <= q_max < n:
        raise ConfigError(f"q_max={q_max} must satisfy 0 <= q_max < n={n}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if c_grid is None:
        c_grid = np.arange(0, 6001) / 2000.0
    c_grid = np.asarray(list(c_grid), dtype=np.float64)
    if c_grid.ndim != 1 or len(c_grid) < 2:
        raise ConfigError("c_grid must contain at least two scales")
    if not np.isfinite(c_grid).all() or np.any(np.diff(c_grid) <= 0) or c_grid[0] < 0:
        raise ConfigError("c_grid must be finite, non-negative and strictly increasing")
    if c_manual is not None and not np.isfinite(c_manual):
        raise ConfigError(f"c_manual={c_manual} must be finite")
    if c_manual is not None and not c_grid[0] <= c_manual <= c_grid[-1]:
        raise ConfigError(f"c_manual={c_manual} lies outside the c grid [{c_grid[0]}, {c_grid[-1]}]")
    kernels = resolve_kernels(kernels)
    bw = validate_bandwidths(bw, field.dims)
    if subsample_sizes is None:
        sizes = [n - 5 * j for j in range(1, 17) if n - 5 * j > max(q_max + 2, 2)]
    else:
        sizes = [int(s) for s in subsample_sizes]
    sizes = sorted(set(sizes) | {n})
    if sizes[0] <= q_max:
        raise ConfigError(f"smallest subsample {sizes[0]} must exceed q_max={q_max}")
    if sizes[0] < 1 or sizes[-1] > n:
        raise ConfigError("subsample sizes must lie in 1..n")
    n_c, n_j = len(c_grid), len(sizes)
    # per c: qhat plus s_curve's two temporaries, or plus one subsample's scores and their sum
    _check_memory(f"the scan over {n_c} c_grid scales", 8 * n_c * (3 * n_j + 2 * (q_max + 1)))

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    perm = rng.permutation(n)

    # temporaries: the permuted copy is freed once the autocovariance returns, the lag box after the assembly
    estimate = spectral_from_autocovariance(
        sample_autocovariance(LatticeField(field.values[perm], demeaned=field.demeaned), bw), kernels)
    smoothness = tuple(k.smoothness for k in kernels)

    qhat = np.empty((n_c, n_j), dtype=np.int64)
    for j, (m, weighted) in enumerate(zip(sizes, weighted_submatrix_eigenvalues(estimate, sizes))):
        means = np.maximum(weighted, 0.0).sum(axis=0)
        pen = penalty_value(m, field.dims, bw, smoothness)
        tails = _tail_means(means, q_max)
        if np.any(tails <= 0.0):
            raise NumericError(
                f"degenerate spectrum: eigenvalue tail sum is not positive on subsample of size {m}"
            )
        # IC(k) = log tails[k] + k * c * pen, one row per c
        scores = np.log(tails) + np.multiply.outer(c_grid * pen, np.arange(q_max + 1))
        qhat[:, j] = np.argmin(scores, axis=1)

    q_full = qhat[:, -1]
    mean_q = qhat.mean(axis=1)
    s_curve = np.mean((qhat - mean_q[:, None]) ** 2, axis=1)
    intervals = tuple(_stable_runs(qhat, q_full))

    settings = {
        "q_max": int(q_max),
        "bw": list(bw),
        "kernels": [k.kind for k in kernels],
        "subsample_sizes": [int(s) for s in sizes],
        "seed": int(seed),
        "c_grid": [float(c_grid[0]), float(c_grid[-1]), len(c_grid)],
        "eigen_workers": map_workers(estimate.grid.half_count, estimate.grid.half_count * n**3),
    }

    def build(selected_c, selected_q):
        return StabilityScan(
            c_grid, tuple(sizes), qhat, s_curve, q_full, intervals,
            selected_c, selected_q, perm, seed, settings,
        )

    if c_manual is not None:
        idx = int(np.argmin(np.abs(c_grid - c_manual)))
        return build(float(c_grid[idx]), int(q_full[idx]))

    min_len = max(2, round(MIN_RUN_FRACTION * n_c))
    candidates = [iv for iv in intervals if iv[1] - iv[0] + 1 >= min_len]
    if len(candidates) < 2:
        raise NoSecondIntervalError(
            "no second stability interval; widen c_grid", build(None, None)
        )
    lo, hi, q_sel = candidates[1]
    mid = (lo + hi) // 2
    return build(float(c_grid[mid]), int(q_sel))

