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
the same eigenstructure is obtained from the small Gram matrix of the
data instead of the huge n x n spectral matrix; see
:func:`eigensystem_from_field`, which picks the route by shape.  Both
routes share one half-grid eigen solver; eigenvalue curves need top_k >= 1.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .field import LatticeField
from .spectral import (
    FrequencyGrid,
    SpectralDensityEstimate,
    estimate_spectral_density,
    resolve_kernels,
    validate_bandwidths,
)

__all__ = [
    "DynamicEigenSystem",
    "eigendecompose_all",
    "eigensystem_from_field",
    "eigenvalue_curve_by_size",
    "write_eigengap_csv",
]


@dataclass(frozen=True)
class DynamicEigenSystem:
    """Per-frequency eigenvalues and leading eigenvector rows on the half grid.

    ``eigenvalues`` is (grid.half_count, n), descending at every point;
    ``eigenvectors`` is (grid.half_count, q_keep, n) whose rows
    p_j(theta) are unit norm and satisfy p_j(theta) Sigma(theta) =
    lambda_j(theta) p_j(theta).  Both are in grid order with the zero
    frequency last, like ``SpectralDensityEstimate.matrices``.
    """

    grid: FrequencyGrid
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    q_keep: int

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


def _half_grid_eigh(mats: np.ndarray):
    """Descending (vals, vecs) of (half, m, m) Hermitian matrices, vecs[g, :, j] for vals[g, j].

    The last matrix, at the zero frequency, is decomposed in real
    arithmetic so its eigenvectors are exactly real.
    """
    bad = ~np.isfinite(mats).all(axis=(1, 2))
    if bad.any():
        raise NumericError(f"eigendecomposition failed at grid index {int(np.argmax(bad))}")
    try:
        vals, vecs = np.linalg.eigh(mats)
    except np.linalg.LinAlgError as exc:
        for g in range(len(mats)):
            try:
                np.linalg.eigh(mats[g])
            except np.linalg.LinAlgError:
                raise NumericError(f"eigendecomposition failed at grid index {g}") from exc
        raise NumericError("eigendecomposition failed") from exc
    bad = ~np.isfinite(vals).all(axis=1)
    if bad.any():
        raise NumericError(f"eigendecomposition failed at grid index {int(np.argmax(bad))}")
    vals[-1], vecs[-1] = np.linalg.eigh(mats[-1].real)
    return vals[:, ::-1], vecs[:, :, ::-1]


def eigendecompose_all(estimate: SpectralDensityEstimate, q_keep: int) -> DynamicEigenSystem:
    """Hermitian eigendecomposition at every stored (half-grid) frequency.

    All n eigenvalues are returned per frequency; eigenvector rows are
    kept for the top ``q_keep`` only.  At the zero frequency the (real
    symmetric) matrix is decomposed in real arithmetic so its
    eigenvectors are exactly real.
    """
    n = estimate.n
    if not 0 <= q_keep <= n:
        raise ConfigError(f"q_keep={q_keep} out of range 0..{n}")
    vals, vecs = _half_grid_eigh(estimate.matrices)
    rows = np.conj(np.transpose(vecs[:, :, :q_keep], (0, 2, 1)))
    return DynamicEigenSystem(estimate.grid, vals, _fix_phases(np.ascontiguousarray(rows)), q_keep)


# ---------------------------------------------------------------------------
# Gram (dual) route for n >> lattice size
# ---------------------------------------------------------------------------


def _axis_weight_matrix(kernel, extent: int, bandwidth: int, theta: float) -> np.ndarray:
    if bandwidth == 0:
        return np.eye(extent, dtype=np.complex128)
    diff = np.arange(extent)[:, None] - np.arange(extent)[None, :]
    return kernel(diff / bandwidth) * np.exp(-1j * theta * diff)


def _gram_half_matrices(x2d: np.ndarray, kernels, bw, dims):
    """Small-side Hermitian matrices sharing the spectrum of Sigma_hat.

    With X the (n, V) data matrix, V = S1*S2*T, the estimate at theta is
    Sigma_hat(theta) = X W(theta) X^T / V for a Hermitian V x V weight
    W(theta) (Kronecker product of per-axis kernel/phase matrices).  Its
    nonzero eigenvalues coincide with those of
    H(theta) = G^(1/2) W(theta) G^(1/2), where G = X^T X / V, and the
    eigenvector of Sigma_hat for eigenvalue mu with H z = mu z is
    v = X G^(-1/2) z / sqrt(V), automatically unit norm.
    """
    kernels = resolve_kernels(kernels)
    volume = x2d.shape[1]
    grid = FrequencyGrid(tuple(bw))
    gram = x2d.T @ x2d / volume
    gram = 0.5 * (gram + gram.T)
    gvals, gvecs = np.linalg.eigh(gram)
    floor = max(gvals[-1], 0.0) * 1e-13
    pos = gvals > floor
    if not pos.any():
        raise NumericError("degenerate data: Gram matrix has no positive eigenvalues")
    sq = np.sqrt(gvals[pos])
    basis = gvecs[:, pos]
    g_half = (basis * sq) @ basis.T
    g_invhalf = (basis / sq) @ basis.T
    half = grid.half_count
    theta_axes = [grid.axis_frequencies(d) for d in range(3)]
    shape = grid.shape
    hs = np.empty((half, volume, volume), dtype=np.complex128)
    for g in range(half):
        i1, i2, i3 = np.unravel_index(g, shape)
        w1 = _axis_weight_matrix(kernels[0], dims[0], bw[0], theta_axes[0][i1])
        w2 = _axis_weight_matrix(kernels[1], dims[1], bw[1], theta_axes[1][i2])
        w3 = _axis_weight_matrix(kernels[2], dims[2], bw[2], theta_axes[2][i3])
        w = np.kron(np.kron(w1, w2), w3)
        h = g_half @ w @ g_half
        hs[g] = 0.5 * (h + np.conj(h.T))
    hs[half - 1] = hs[half - 1].real
    return grid, hs, g_invhalf


def _gram_eigensystem(x2d: np.ndarray, kernels, bw, dims, q_keep: int) -> DynamicEigenSystem:
    n, volume = x2d.shape
    grid, hs, g_invhalf = _gram_half_matrices(x2d, kernels, bw, dims)
    half = grid.half_count
    mu, z = _half_grid_eigh(hs)
    vals = np.zeros((half, n))
    vals[:, : min(n, volume)] = mu[:, : min(n, volume)]
    rows = np.zeros((half, q_keep, n), dtype=np.complex128)
    if q_keep > 0:
        if q_keep > min(n, volume):
            raise ConfigError(
                f"q_keep={q_keep} exceeds the rank bound min(n, S1*S2*T)={min(n, volume)}"
            )
        cols = np.einsum("nv,gvq->gnq", x2d @ g_invhalf / np.sqrt(volume), z[:, :, :q_keep])
        norms = np.linalg.norm(cols, axis=1, keepdims=True)
        if np.any(norms == 0):
            raise NumericError("degenerate eigenvector in Gram route")
        # rows are conjugate transposes of the column eigenvectors
        rows = _fix_phases(np.conj(np.transpose(cols / norms, (0, 2, 1))).copy())
    return DynamicEigenSystem(grid, vals, rows, q_keep)


def eigensystem_from_field(
    field: LatticeField, kernels="epanechnikov", bw=None, q_keep: int = 0
) -> DynamicEigenSystem:
    """Full pipeline from a demeaned field to its dynamic eigensystem.

    Panels with more series than lattice points (n > S1*S2*T, such as
    stacked panels) go through the V x V Gram-side matrices; all others
    materialize the n x n spectral matrices and decompose them.  Both
    give the same eigenvalues and the same eigenvector rows up to
    numerical rounding.
    """
    if not field.demeaned:
        raise ConfigError("eigensystem_from_field requires a demeaned field")
    bw = validate_bandwidths(bw, field.dims)
    if field.lattice_size < field.n:
        x2d = field.values.reshape(field.n, -1)
        return _gram_eigensystem(x2d, kernels, bw, field.dims, q_keep)
    return eigendecompose_all(estimate_spectral_density(field, kernels, bw), q_keep)


# ---------------------------------------------------------------------------
# Averaged eigenvalue curves
# ---------------------------------------------------------------------------


def eigenvalue_curve_by_size(
    field: LatticeField, m_values, top_k: int, kernels="epanechnikov", bw=None
) -> np.ndarray:
    """Averaged top eigenvalues of nested leading subpanels.

    Row r holds the grid-averaged top ``top_k`` eigenvalues of the
    spectral estimate restricted to the first ``m_values[r]`` series.
    The estimate for a leading subset of series is exactly the leading
    principal submatrix of the full estimate, so the spectral matrices
    are assembled once and only the eigendecompositions repeat.
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
        x2d = field.values.reshape(field.n, -1)
        for r, m in enumerate(m_values):
            sub = _gram_eigensystem(x2d[:m], kernels, bw, field.dims, 0)
            out[r] = sub.eigenvalue_means()[:top_k]
        return out
    estimate = estimate_spectral_density(field, kernels, bw)
    for r, m in enumerate(m_values):
        out[r] = weighted_submatrix_eigenvalues(estimate, m)[:, :top_k].sum(axis=0)
    return out


def weighted_submatrix_eigenvalues(estimate: SpectralDensityEstimate, m: int) -> np.ndarray:
    """Descending eigenvalues of the leading m x m submatrices, weighted for grid means.

    Row g holds the eigenvalues at stored half-grid point g times its
    pair weight over the grid size, so a column sum is the full-grid
    mean (1/G) sum_theta lambda_j(theta).  The weights are positive, so
    clamping the weighted values at zero clamps the eigenvalues.
    """
    grid = estimate.grid
    vals = np.linalg.eigvalsh(estimate.matrices[:, :m, :m])[:, ::-1]
    return vals * (grid.pair_weights / grid.size)[:, None]


def write_eigengap_csv(path, m_values, curve: np.ndarray) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m"] + [f"lambda_{j + 1}" for j in range(curve.shape[1])])
        for m, row in zip(m_values, curve):
            writer.writerow([int(m)] + [f"{v:.17g}" for v in row])
