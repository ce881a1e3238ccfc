"""Common-component recovery via truncated two-sided projection filters.

The estimated common component of series ell at lattice point
varsigma = (s1, s2, t) is the rank-q frequency-domain projection of the
data, brought back to the lag domain and truncated to the window that
is actually available around varsigma:

    chi_hat_{ell,varsigma} = sum_kappa [ C(kappa) x_{varsigma-kappa} ]_ell,

where the real coefficient matrices are inverse grid transforms of the
projector built from the leading dynamic eigenvector rows P(theta),

    C(kappa) = (1/G) sum_theta P(theta)^dagger P(theta) e^{i<kappa,theta>},

and kappa runs over per-axis ranges clipped near the lattice boundary:

    kappa_low_d  = max(coord_d - dim_d, -M_d),
    kappa_high_d = min(coord_d - 1,      M_d).

Note the clipped window is exactly "all lattice points within M_d of
coord_d", so the boundary truncation is equivalent to running the full
symmetric window over zero-padded data.  The production path never
materializes the coefficient tensor.  Exchanging the finite sums gives

    chi_hat = (1/G) sum_theta P(theta)^dagger W_theta[ P(theta) x ],

where W_theta is the clipped window with phase e^{i kappa_d theta_d},
applied one lattice axis at a time (e^{i<kappa,theta>} is separable).
P(theta) acts on the series axis and W_theta on the lattice axes, so
the two commute: the data are projected onto the q eigenvector rows
first and only the q scores are windowed.  Per axis W_d = D_d B_d D_d^*,
with D_d the phases e^{i s theta_d} and B_d[s, u] = 1{|s-u| <= M_d} a
real band, so one band product per axis serves every point of a row of
the half grid (the points sharing theta_1, theta_2).  The rows run on
the row map in a fixed number of chunks; each chunk sums its own
partial chi and the partials are added in chunk order, so chi's bits
depend on neither the core count nor the BLAS thread count.  The
lag-domain form (C(kappa) summed over the grid, then convolved) is kept
only as the test oracle in ``tests/oracles.py``.  Truncation lags are
capped at the bandwidths (M_d <= B_d) so that extracting lag-domain
coefficients from the (2B_d+1)-point frequency grid is alias-free.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._rowmap import _map_rows, blas_pinned, map_workers
from .errors import ConfigError
from .field import LatticeField
from .dynpca import DynamicEigenSystem, eigensystem_from_field
from .spectral import FrequencyGrid, _check_memory, resolve_kernels, validate_bandwidths

__all__ = [
    "validate_truncation",
    "interior_mask",
    "CommonComponentEstimate",
    "estimate_common_component",
]


_FILTER_CHUNKS = 4  # partial sums of chi, added in chunk order whatever the worker count


def validate_truncation(trunc, bw, dims) -> tuple[int, int, int]:
    """Checked truncation triple; ``None`` selects M_d = B_d, the widest alias-free window."""
    trunc = tuple(int(m) for m in (bw if trunc is None else trunc))
    if len(trunc) != 3:
        raise ConfigError("truncation must be a triple (M_S1, M_S2, M_T)")
    for m, b, d, name in zip(trunc, bw, dims, ("S1", "S2", "T")):
        if m < 0:
            raise ConfigError(f"truncation M_{name}={m} must be >= 0")
        if m > b:
            raise ConfigError(f"truncation M_{name}={m} exceeds bandwidth {b} (lag aliasing)")
        if m >= d:
            raise ConfigError(f"truncation M_{name}={m} must be < extent {name}={d}")
    return trunc


def interior_mask(dims, trunc) -> np.ndarray:
    """Boolean (S1, S2, T) mask of points with the full symmetric window.

    A point has the complete window iff M_d + 1 <= coord_d <= dim_d - M_d
    on every axis.
    """
    masks = []
    for dim, m in zip(dims, trunc):
        coords = np.arange(1, dim + 1)
        masks.append((coords >= m + 1) & (coords <= dim - m))
    return masks[0][:, None, None] & masks[1][None, :, None] & masks[2][None, None, :]


def _window(z: np.ndarray, m: int, out: np.ndarray) -> None:
    """out[..., s, :] = sum of z[..., u, :] over u in [s-m, s+m] cap lattice, along axis -2.

    A block-banded real product, O(m) per element: the axis is cut into
    tiles of b = 2m+1 points, and each output tile is one b x (b+2m) band
    block applied to its input tile and the m points either side, with
    zeros past the ends doing the clipping.  An axis no longer than three
    tiles is one dense tile, which is as fast there.
    """
    extent = z.shape[-2]
    b = extent if extent <= 3 * (2 * m + 1) else 2 * m + 1
    tiles = -(-extent // b)
    mat = (np.abs(np.arange(b)[:, None] - np.arange(-m, b + m)) <= m).astype(float)
    if m == 0:
        out[...] = z
    elif tiles == 1:
        np.matmul(mat[:, m:m + extent], z, out=out)
    else:
        padded = np.zeros(z.shape[:-2] + (tiles * b + 2 * m, z.shape[-1]))
        padded[..., m:m + extent, :] = z
        windows = np.lib.stride_tricks.sliding_window_view(padded, b + 2 * m, axis=-2)[..., ::b, :, :]
        tiled = mat @ windows.swapaxes(-1, -2)
        out[...] = tiled.reshape(z.shape[:-2] + (tiles * b, z.shape[-1]))[..., :extent, :]


def _filter_plan(n: int, dims, q: int, grid, trunc):
    """Row starts in chunks, the map cost (about 10 ns a unit) and the bytes held at once: each
    chunk's partial chi, and per worker its buffers (3 more if tiled), rows and ufunc buffers."""
    starts = np.arange(0, grid.half_count, grid.shape[2])
    chunks = np.array_split(starts, min(_FILTER_CHUNKS, len(starts)))
    volume, cols = int(np.prod(dims)), grid.shape[2] * q
    cost = grid.half_count * q * volume * (2 * n + sum(2 * m + 1 for m in trunc)) / 32
    tiled = any(d > 3 * (2 * m + 1) for d, m in zip(dims, trunc))
    worker = (((2 + 3 * tiled) * volume + 2 * n) * cols + 3 * np.getbufsize()) * 16 + n * volume * 8
    return chunks, cost, len(chunks) * n * volume * 8 + map_workers(len(chunks), cost) * worker


def _apply_projection_frequency(
    values: np.ndarray, system: DynamicEigenSystem, q: int, trunc
) -> np.ndarray:
    """chi = (1/G) sum_theta P(theta)^dag W_theta[P(theta) x]: project, then window.

    A half-grid row's scores sit side by side in the last axis of an (S1, S2, T, .) array.
    Both projections are real GEMMs on its float view, with Re P and Im P interleaved to
    match: the data are real, and negated frequencies contribute the complex conjugate
    (counted by ``pair_weights``), so only the real part of the back-projection is formed.
    """
    grid = system.grid
    n, (s1, s2, t) = values.shape[0], values.shape[1:]
    x = values.reshape(n, -1)
    volume, points, weights = x.shape[1], grid.points, grid.pair_weights / grid.size
    chunks, cost, _ = _filter_plan(n, values.shape[1:], q, grid, trunc)
    partials = [np.zeros_like(x) for _ in chunks]

    def rows(lo, hi, bufs, product):  # the map's scratch: two score buffers, the back-projection
        for chunk, start in ((c, start) for c in range(lo, hi) for start in chunks[c]):
            batch = slice(start, min(start + grid.shape[2], grid.half_count))
            size = (batch.stop - start) * q
            scores, spare = (buf[:volume * size].reshape(s1, s2, t, size) for buf in bufs)
            vecs = system.eigenvectors[batch, :q, :]
            proj = np.stack([vecs.real, vecs.imag], axis=2).reshape(-1, n)  # Re p_k, Im p_k, ...
            np.matmul(x.T, proj.T, out=scores.view(float).reshape(volume, -1))
            theta1, theta2 = points[start, :2]
            d12 = np.exp(-1j * np.add.outer(np.arange(s1) * theta1, np.arange(s2) * theta2))
            d3 = np.repeat(np.exp(-1j * np.outer(np.arange(t), points[batch, 2])), q, 1)
            scores *= d12[..., None, None]  # D^*, then B per axis, then D
            scores *= d3
            a, b = scores.view(float), spare.view(float)
            _window(a.reshape(s1 * s2, t, -1), trunc[2], b.reshape(s1 * s2, t, -1))
            _window(b.reshape(s1, s2, -1), trunc[1], a.reshape(s1, s2, -1))
            _window(a.reshape(s1, -1), trunc[0], b.reshape(s1, -1))
            spare *= np.conj(d12)[..., None, None]
            spare *= np.conj(d3)
            # Re(P^dag S) = Re(P)^T Re(S) + Im(P)^T Im(S), weighted per frequency
            back = proj * np.repeat(weights[batch], 2 * q)[:, None]
            partials[chunk] += np.matmul(back.T, b.reshape(volume, -1).T, out=product)

    _map_rows(rows, np.ones(len(chunks)), cost,
              lambda: (np.empty((2, volume * grid.shape[2] * q), complex), np.empty_like(x)))
    for part in partials[1:]:
        partials[0] += part
    return partials[0].reshape(values.shape)


@dataclass(frozen=True)
class CommonComponentEstimate:
    """Estimated common component plus the region of full filter support."""

    chi: np.ndarray
    mask: np.ndarray
    settings: dict


@blas_pinned()
def estimate_common_component(
    field: LatticeField, q: int, kernels="epanechnikov", bw=None, trunc=None
) -> CommonComponentEstimate:
    """Rank-q common component of a demeaned field (full estimation run).

    Pipeline: spectral density on the frequency grid, leading dynamic
    eigenvectors, projection filter, truncated two-sided filtering of
    the data.  ``q = n`` reproduces the data (complete projector);
    ``q = 0`` returns zeros.
    """
    if not field.demeaned:
        raise ConfigError("estimate_common_component requires a demeaned field")
    if not 0 <= q <= field.n:
        raise ConfigError(f"q={q} out of range 0..{field.n}")
    kernels = resolve_kernels(kernels)
    bw = validate_bandwidths(bw, field.dims)
    trunc = validate_truncation(trunc, bw, field.dims)
    _check_memory(f"the projection filter for n={field.n}, dims={tuple(field.dims)}, q={q}",
                  _filter_plan(field.n, field.dims, q, FrequencyGrid(bw), trunc)[2])
    system = eigensystem_from_field(field, kernels, bw, q_keep=q)
    top = system.eigenvalues[:, : max(q, 1)]
    if q > 0 and np.all(top <= 0):
        warnings.warn("degenerate spectrum: all leading eigenvalues are <= 0", RuntimeWarning)
    chi = _apply_projection_frequency(field.values, system, q, trunc)
    settings = {
        "n": field.n,
        "dims": list(field.dims),
        "q": int(q),
        "kernels": [k.kind for k in kernels],
        "bw": list(bw),
        "trunc": list(trunc),
        "eigen_workers": system.eigen_workers,
    }
    return CommonComponentEstimate(chi, interior_mask(field.dims, trunc), settings)
