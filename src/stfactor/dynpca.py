"""Frequency-wise eigenstructure of the spectral density estimate.

At every grid frequency the Hermitian spectral density matrix is
decomposed into descending eigenvalues and orthonormal row
eigenvectors.  The leading eigenvalues, averaged over the grid, carry
the factor-detection signature: under a q-factor structure the top q
averaged eigenvalues grow with the cross-sectional dimension while the
(q+1)-th stays bounded (the eigen-gap).

Eigenvector phases are not identifiable; each row is rotated so its
largest-modulus entry is real-positive, which makes output
deterministic without affecting any projector built from the rows.
Like the spectral estimate, the eigensystem lives on the non-redundant
half of the grid (zero frequency last): for a real field the rows at a
negated frequency are the conjugates, p_j(-theta) = conj(p_j(theta)),
and the eigenvalues are equal, so the other half is never formed.

For stacked panels with more series than lattice points (n > S1*S2*T)
the standard estimator runs on the panel's r <= V principal coordinates,
with rows mapped back by U, instead of forming the huge n x n spectral
matrices; see :func:`eigensystem_from_field`, which picks the route by
shape.  Eigenvalue curves need top_k >= 1.
The solves run on the row map of :mod:`_rowmap`, one half-grid chunk per
usable core with BLAS at one thread, so each matrix gets the same LAPACK
call, and the same bits, whatever the core count.  A worker builds its
chunk's complex matrices from the packed estimate about 1 MiB at a time,
in a buffer made by the calling thread (glibc keeps a worker thread's
freed heap resident), and LAPACK reads their lower triangles.  The public
entries hold BLAS at one thread for their whole call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rowmap import _map_rows, blas_pinned
from .errors import ConfigError, NumericError
from .field import LatticeField, as_demeaned_field
from .spectral import (
    FrequencyGrid,
    SpectralDensityEstimate,
    _check_memory,
    estimate_spectral_density,
    sample_autocovariance,
    spectral_from_autocovariance,
    validate_bandwidths,
)

__all__ = [
    "DynamicEigenSystem",
    "eigendecompose_all",
    "eigensystem_from_field",
    "eigenvalue_curve_by_size",
]


@dataclass(frozen=True)
class DynamicEigenSystem:
    """Per-frequency eigenvalues and leading eigenvector rows on the half grid.

    ``eigenvalues`` is (grid.half_count, n), descending at every point;
    ``eigenvectors`` is (grid.half_count, q_keep, n) whose rows
    p_j(theta) are unit norm and satisfy p_j(theta) Sigma(theta) =
    lambda_j(theta) p_j(theta).  Both are in grid order with the zero
    frequency last, like ``SpectralDensityEstimate.packed``.
    ``eigen_workers`` threads solved the eigenproblems.
    """

    grid: FrequencyGrid
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    q_keep: int
    eigen_workers: int = 1

    def __post_init__(self):
        if self.eigenvalues.shape[0] != self.grid.half_count:
            raise ConfigError(
                f"expected {self.grid.half_count} half-grid points, got {self.eigenvalues.shape[0]}"
            )

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[1]

    def eigenvalue_means(self) -> np.ndarray:
        """Grid-averaged eigenvalues (1/G) sum_theta lambda_j(theta) over the whole grid."""
        return self.grid.pair_weights @ self.eigenvalues / self.grid.size


def _fix_phases(rows: np.ndarray) -> np.ndarray:
    """Rotate each row so its largest-modulus entry is real positive."""
    if rows.shape[-2] == 0:
        return rows
    idx = np.argmax(np.abs(rows), axis=-1)
    pivot = np.take_along_axis(rows, idx[..., None], axis=-1)[..., 0]
    mod = np.abs(pivot)
    if np.any(mod == 0):
        raise NumericError("zero eigenvector row encountered during phase normalization")
    return rows * (np.conj(pivot) / mod)[..., None]


_EIGH_BATCH_BYTES = 1 << 20
_GIL_ROWS = 500  # numpy's gufuncs keep the GIL over a call of at most this many matrix rows


def _solve_rows(solve, vals: np.ndarray, lo: int, hi: int) -> None:
    """vals[lo:hi] = solve(lo, hi); a failed or non-finite decomposition names its grid index."""
    try:
        vals[lo:hi] = solve(lo, hi)
    except np.linalg.LinAlgError as exc:
        if hi - lo == 1:
            raise NumericError(f"eigendecomposition failed at grid index {lo}") from exc
        _solve_rows(solve, vals, lo, (lo + hi) // 2)  # bisect to the failing matrix
        _solve_rows(solve, vals, (lo + hi) // 2, hi)
    bad = ~np.isfinite(vals[lo:hi]).all(axis=1)
    if bad.any():
        raise NumericError(f"eigendecomposition failed at grid index {lo + int(np.argmax(bad))}")


def _map_half_grid(solve, packed, sizes):
    """Per size m, eigenvalues (half, m) from solve(matrices, lo, hi) on the leading m x m blocks,
    and the worker count, in one row map.  Each worker builds complex matrices from ``packed``,
    about _EIGH_BATCH_BYTES but over _GIL_ROWS rows at a time, exact in the lower triangle that
    LAPACK reads (the upper one holds the packing's other half)."""
    half = len(packed)
    vals = [np.empty((half, m)) for m in sizes]
    steps = [max(_EIGH_BATCH_BYTES // (16 * m * m), _GIL_ROWS // m + 1) for m in sizes]

    def rows(lo, hi, buffer):
        for m, step, out in zip(sizes, steps, vals):
            for start in range(lo, hi, step):
                block = packed[start:min(start + step, hi), :m, :m]
                batch = buffer[:block.size].reshape(block.shape)
                batch.real, batch.imag = block, block.transpose(0, 2, 1)
                _solve_rows(lambda a, b: solve(batch[a - start:b - start], a, b), out,
                            start, start + len(block))

    scratch = max(min(step, half) * m * m for m, step in zip(sizes, steps))
    return vals, _map_rows(rows, np.ones(half), half * sum(m**3 for m in sizes),  # m x m eigensolves
                           lambda: [np.empty(scratch, complex)])


def eigendecompose_all(estimate: SpectralDensityEstimate, q_keep: int) -> DynamicEigenSystem:
    """Hermitian eigendecomposition at every stored (half-grid) frequency.

    All n eigenvalues are returned per frequency; eigenvector rows are
    kept for the top ``q_keep`` only.  The zero frequency, last, is
    decomposed in real arithmetic so its rows are exactly real.
    """
    packed, n = estimate.packed, estimate.n
    if not 0 <= q_keep <= n:
        raise ConfigError(f"q_keep={q_keep} out of range 0..{n}")
    rows = np.empty((len(packed), q_keep, n), dtype=complex)

    def solve(mats, lo, hi):
        w, v = np.linalg.eigh(mats)
        if hi == len(packed):
            w[-1], v[-1] = np.linalg.eigh(packed[-1])
        np.conj(v[:, :, ::-1][:, :, :q_keep].transpose(0, 2, 1), out=rows[lo:hi])
        return w[:, ::-1]

    (vals,), workers = _map_half_grid(solve, packed, [n])
    return DynamicEigenSystem(estimate.grid, vals, _fix_phases(rows), q_keep, workers)


# ---------------------------------------------------------------------------
# Gram (dual) route for n >> lattice size
# ---------------------------------------------------------------------------


def _principal_field(x2d: np.ndarray, dims):
    """The panel's r principal coordinates as a field, and the map U back to the n series.

    With X the (n, V) data matrix, V = S1*S2*T, and X^T X / V = E diag(g) E^T
    over its r positive g, the r series Y = diag(sqrt(g V)) E^T on the same
    lattice give X = U Y with orthonormal columns U = X E diag(1 / sqrt(g V)).
    The estimate is linear in the data's outer products, so
    Sigma_hat_X(theta) = U Sigma_hat_Y(theta) U^T: the two share their
    nonzero eigenvalues, and an eigenvector row p of Sigma_hat_Y maps to
    the eigenvector row p U^T of Sigma_hat_X.  Y is demeaned again because
    rounding can leave its near-null rows short of the demeaned check.
    """
    volume = x2d.shape[1]
    gvals, gvecs = np.linalg.eigh(x2d.T @ x2d / volume)
    pos = gvals > max(gvals[-1], 0.0) * 1e-13
    if not pos.any():
        raise NumericError("degenerate data: Gram matrix has no positive eigenvalues")
    scale = np.sqrt(gvals[pos] * volume)
    coords = (scale[:, None] * gvecs[:, pos].T).reshape(-1, *dims)
    return as_demeaned_field(coords), gvecs[:, pos] / scale


@blas_pinned()
def eigensystem_from_field(
    field: LatticeField, kernels="epanechnikov", bw=None, q_keep: int = 0
) -> DynamicEigenSystem:
    """Full pipeline from a demeaned field to its dynamic eigensystem.

    Panels with more series than lattice points (n > S1*S2*T, such as
    stacked panels) get the standard estimator on their r principal
    coordinates, r <= V the numerical rank, with rows mapped back by U
    (see :func:`_principal_field`); all others materialize the n x n
    spectral matrices and decompose them.  Both give the same
    eigenvalues and the same eigenvector rows up to numerical rounding.
    """
    if not field.demeaned:
        raise ConfigError("eigensystem_from_field requires a demeaned field")
    bw = validate_bandwidths(bw, field.dims)
    n, volume = field.n, field.lattice_size
    if volume >= n:
        return eigendecompose_all(estimate_spectral_density(field, kernels, bw), q_keep)
    if q_keep > volume:
        raise ConfigError(f"q_keep={q_keep} exceeds the rank bound min(n, S1*S2*T)={volume}")
    # the n-sized arrays: eigenvalues; rows, their norm's and phases' temporaries; x2d @ back, cast
    half = FrequencyGrid(bw).half_count
    _check_memory(f"the Gram route's rows for n={n}, dims={tuple(field.dims)}, q_keep={q_keep}",
                  8 * n * (half + 6 * half * q_keep + 3 * volume))
    x2d = field.values.reshape(n, volume)
    coords, back = _principal_field(x2d, field.dims)
    if q_keep > coords.n:
        raise NumericError(f"degenerate eigenvector in Gram route: q_keep={q_keep} > rank {coords.n}")
    estimate = spectral_from_autocovariance(sample_autocovariance(coords, bw), kernels)
    small = eigendecompose_all(estimate, q_keep)
    vals = np.zeros((small.grid.half_count, n))
    vals[:, :coords.n] = small.eigenvalues
    vals[:, ::-1].sort(axis=1)  # the zeros belong above Y's negative eigenvalues
    rows = np.zeros((small.grid.half_count, q_keep, n), dtype=np.complex128)
    if q_keep > 0:
        rows = small.eigenvectors @ (x2d @ back).T
        rows = _fix_phases(rows / np.linalg.norm(rows, axis=2, keepdims=True))
    return DynamicEigenSystem(small.grid, vals, rows, q_keep, small.eigen_workers)


# ---------------------------------------------------------------------------
# Averaged eigenvalue curves
# ---------------------------------------------------------------------------


@blas_pinned()
def eigenvalue_curve_by_size(
    field: LatticeField, m_values, top_k: int, kernels="epanechnikov", bw=None
) -> np.ndarray:
    """Averaged top eigenvalues of nested leading subpanels.

    Row r holds the grid-averaged top ``top_k`` eigenvalues of the
    spectral estimate restricted to the first ``m_values[r]`` series.
    The estimate for a leading subset of series is exactly the leading
    principal submatrix of the full estimate, so the spectral matrices
    are assembled once and only the eigendecompositions repeat.  Panels
    with more series than lattice points have no n x n estimate to share:
    each leading panel then gets its own :func:`eigensystem_from_field`.
    """
    if not field.demeaned:
        raise ConfigError("eigenvalue_curve_by_size requires a demeaned field")
    m_values = [int(m) for m in m_values]
    if min(m_values) < 1 or max(m_values) > field.n:
        raise ConfigError(f"subpanel sizes must lie in 1..{field.n}")
    if not 1 <= top_k <= min(m_values):
        raise ConfigError(f"top_k={top_k} must lie in 1..{min(m_values)} (smallest subpanel size)")
    bw = validate_bandwidths(bw, field.dims)
    out = np.empty((len(m_values), top_k))
    if field.lattice_size < field.n:
        for r, m in enumerate(m_values):
            sub = field if m == field.n else LatticeField(field.values[:m], demeaned=True)
            out[r] = eigensystem_from_field(sub, kernels, bw).eigenvalue_means()[:top_k]
        return out
    estimate = estimate_spectral_density(field, kernels, bw)
    return np.array([v[:, :top_k].sum(axis=0) for v in weighted_submatrix_eigenvalues(estimate, m_values)])


def weighted_submatrix_eigenvalues(estimate: SpectralDensityEstimate, sizes) -> list[np.ndarray]:
    """Per size m, descending eigenvalues of the leading m x m submatrices, weighted for grid means.

    Row g holds the eigenvalues at stored half-grid point g times its
    pair weight over the grid size, so a column sum is the full-grid
    mean (1/G) sum_theta lambda_j(theta).  The weights are positive, so
    clamping the weighted values at zero clamps the eigenvalues.
    """
    grid = estimate.grid
    vals, _ = _map_half_grid(lambda mats, lo, hi: np.linalg.eigvalsh(mats)[:, ::-1],
                             estimate.packed, [int(m) for m in sizes])
    return [v * (grid.pair_weights / grid.size)[:, None] for v in vals]

