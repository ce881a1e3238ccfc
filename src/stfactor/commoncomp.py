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
first and only the q scores are windowed, by banded products with the
clipped window matrices W_d[s, u] = e^{i(s-u)theta_d} 1{|s-u| <= M_d},
one row of the half grid (the points sharing theta_1, theta_2) per
batch.  The lag-domain form (C(kappa) summed over the grid, then
convolved) is kept only as the test oracle in ``tests/oracles.py``.
Truncation lags are capped at the bandwidths (M_d <= B_d)
so that extracting lag-domain coefficients from the (2B_d+1)-point
frequency grid is alias-free.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .field import LatticeField
from .dynpca import DynamicEigenSystem, eigensystem_from_field
from .spectral import resolve_kernels, validate_bandwidths

__all__ = [
    "validate_truncation",
    "interior_mask",
    "CommonComponentEstimate",
    "estimate_common_component",
]


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


def _window(z: np.ndarray, m: int, thetas) -> np.ndarray:
    """w[s] = sum_{u in [s-m, s+m] cap lattice} e^{i(s-u)theta} z[u] along axis -2.

    A block-banded product, O(m) per element: the axis is cut into tiles
    of b = 2m+1 points, and each output tile is one b x (b+2m) Toeplitz
    block applied to its input tile and the m points either side, with
    zeros past the ends doing the clipping.  An axis no longer than three
    tiles is one dense tile, which is as fast there.  ``thetas``
    broadcasts against the leading axes.
    """
    if m == 0:
        return z
    extent = z.shape[-2]
    b = extent if extent <= 3 * (2 * m + 1) else 2 * m + 1
    tiles = -(-extent // b)
    lag = np.arange(b)[:, None] - np.arange(-m, b + m)
    mat = np.exp(1j * np.multiply.outer(thetas, lag)) * (np.abs(lag) <= m)
    if tiles == 1:
        return mat[..., m:-m] @ z
    padded = np.zeros(z.shape[:-2] + (tiles * b + 2 * m, z.shape[-1]), complex)
    padded[..., m:m + extent, :] = z
    windows = np.lib.stride_tricks.sliding_window_view(padded, b + 2 * m, axis=-2)[..., ::b, :, :]
    out = mat[..., None, :, :] @ windows.swapaxes(-1, -2)
    return out.reshape(z.shape[:-2] + (tiles * b, z.shape[-1]))[..., :extent, :]


def _apply_projection_frequency(
    values: np.ndarray, system: DynamicEigenSystem, q: int, trunc
) -> np.ndarray:
    """chi = (1/G) sum_theta P(theta)^dag W_theta[P(theta) x]: project, then window.

    P(theta) acts on the series axis and the windowed transforms W_theta
    on the lattice axes, so the two commute and only the q scores are
    windowed; the result equals the truncated lag-domain convolution
    exactly.  The half grid that the eigensystem stores is visited one
    row (the points sharing theta_1, theta_2) at a time.  Each window is
    applied to the last lattice axis through a transposed view, which
    rotates that axis to the front, so T (one theta_3 per point), S2 and
    S1 leave the scores in their original order.  Both projections are
    real GEMMs with [Re P; Im P]: the data are real, and negated
    frequencies contribute the complex conjugate (counted by
    ``pair_weights``), so only the real part of the back-projection is
    formed.
    """
    grid = system.grid
    n, (s1, s2, t) = values.shape[0], values.shape[1:]
    x = values.reshape(n, -1)
    chi = np.zeros_like(x)
    points = grid.points
    weights = grid.pair_weights / grid.size
    for start in range(0, grid.half_count, grid.shape[2]):
        batch = slice(start, min(start + grid.shape[2], grid.half_count))
        rows = system.eigenvectors[batch, :q, :]
        p = rows.shape[0]
        proj = np.concatenate([rows.real, rows.imag])  # [Re P; Im P], (2p, q, n)
        re, im = (proj.reshape(-1, n) @ x).reshape(2, p, q, s1 * s2, t)
        scores = np.empty(re.shape, complex)
        scores.real, scores.imag = re, im
        theta1, theta2 = points[start, :2]
        scores = _window(scores.swapaxes(-1, -2), trunc[2], points[batch, 2, None])
        scores = _window(scores.reshape(p * q, t * s1, s2).swapaxes(-1, -2), trunc[1], theta2)
        scores = _window(scores.reshape(p * q, s2 * t, s1).swapaxes(-1, -2), trunc[0], theta1)
        # Re(P^dag S) = Re(P)^T Re(S) + Im(P)^T Im(S), weighted per frequency
        back = (proj * np.tile(weights[batch], 2)[:, None, None]).reshape(-1, n)
        chi += back.T @ np.stack([scores.real, scores.imag]).reshape(-1, x.shape[1])
    return chi.reshape(values.shape)


@dataclass(frozen=True)
class CommonComponentEstimate:
    """Estimated common component plus the region of full filter support."""

    chi: np.ndarray
    mask: np.ndarray
    settings: dict


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
