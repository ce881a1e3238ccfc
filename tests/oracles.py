"""Plain-function references for the simulator, the filter and the IC.

The library stores every per-frequency array (spectral matrices,
eigenvalues, eigenvector rows) on the non-redundant half of the grid,
zero frequency last.  ``mirror`` is the one place that rebuilds the
whole grid, by conjugation, for the references below and for tests
that compare against full-grid formulas.  The spectral estimate keeps
each Hermitian matrix in n^2 reals; ``pack`` makes that packing from
complex matrices, for tests that build an estimate by hand.

The library filters in the frequency domain (project, then window).
The filter functions below compute the same estimate as the paper
writes it: the real lag coefficients C(kappa) = (1/G) sum_theta
P(theta)^dag P(theta) e^{i<kappa,theta>} as a direct sum over the grid,
then their convolution over the lattice with the window clipped at the
boundary.

The library selects the factor count by a stability scan that scores
the information criterion on half-grid eigenvalues for a whole grid of
penalty scales.  ``information_criterion`` and ``select_q_fixed_c``
evaluate the criterion as the paper writes it, at fixed scales, from the
mirrored full-grid eigenvalues of one eigensystem.

The library simulates by applying the n filters of one factor to its
shock field together, in blocks of series.
``separable_convolution_reference`` applies one (series, factor) pair's
filter at a time, one banded matrix product per axis.

The library assembles the spectral estimate on the non-redundant half
grid only, one upper-triangle row at a time.  ``spectral_full_reference``
transforms every row at every point of the whole grid, the negated half
included, and averages the two triangles into an exactly Hermitian
matrix.
"""

import itertools

import numpy as np

from stfactor import (
    ConfigError,
    FrequencyGrid,
    LatticeField,
    NumericError,
    eigensystem_from_field,
    penalty_value,
)
from stfactor.spectral import kernel_lag_weights, resolve_kernels, validate_bandwidths

# the imaginary part of C(kappa) must be rounding noise next to the real part
COEFF_IMAG_RTOL = 1e-9


def mirror(half):
    """Whole-grid array from its half-grid first axis: the negated half by conjugation."""
    return np.concatenate([half, np.conj(half[-2::-1])])


def pack(mats):
    """The real (count, n, n) Hermitian packing of a stack of Hermitian matrices, as
    ``SpectralDensityEstimate.packed`` stores it: real parts on and below the diagonal, and
    above it the imaginary parts of the entries below."""
    return np.tril(mats.real) + np.triu(mats.imag.transpose(0, 2, 1), 1)


def full_box(autocov):
    """(G, n, n) autocovariances on the whole lag box, in C order over (h1 + B1, h2 + B2, h3 + B3):
    the negative lags as the stored half reversed and transposed, Gamma(-h) = Gamma(h)^T, then the half."""
    return np.concatenate([autocov.gammas[:0:-1].transpose(0, 2, 1), autocov.gammas])


def gamma(autocov, h):
    """Gamma_hat(h) for one lag triple of an AutocovarianceSet."""
    if any(abs(c) > b for c, b in zip(h, autocov.window)):
        raise ConfigError(f"lag {tuple(h)} outside window {autocov.window}")
    lag = np.ravel_multi_index([c + b for c, b in zip(h, autocov.window)],
                               [2 * b + 1 for b in autocov.window])
    return full_box(autocov)[lag]


def subfield(field, m):
    """First ``m`` series of the field, same lattice dimensions."""
    if not 1 <= m <= field.n:
        raise ConfigError(f"subfield size m={m} out of range 1..{field.n}")
    means = None if field.series_means is None else field.series_means[:m].copy()
    return LatticeField(field.values[:m].copy(), demeaned=field.demeaned, series_means=means)


def full_rows(system, q):
    """(G, q, n) leading eigenvector rows of an eigensystem on the whole grid."""
    if q > system.q_keep:
        raise ConfigError(f"q={q} exceeds the {system.q_keep} eigenvector rows kept")
    return mirror(system.eigenvectors[:, :q, :])


def projector_stack(rows):
    """P(theta)^dag P(theta) at every grid point of (G, q, n) rows, shape (G, n, n)."""
    return np.einsum("gqi,gqj->gij", np.conj(rows), rows)


def lag_coefficients(grid, rows, trunc):
    """Real C(kappa) for |kappa_d| <= M_d from (G, q, n) rows, shape (2M1+1, 2M2+1, 2M3+1, n, n)."""
    phases = np.exp(1j * FrequencyGrid(tuple(trunc)).offsets @ grid.points.T) / grid.size
    coeffs = np.einsum("lg,gqi,gqj->lij", phases, np.conj(rows), rows, optimize=True)
    residue, scale = np.abs(coeffs.imag).max(), np.abs(coeffs.real).max()
    assert residue <= COEFF_IMAG_RTOL * scale, f"conjugate symmetry broken: residue {residue}"
    return coeffs.real.reshape(tuple(2 * m + 1 for m in trunc) + coeffs.shape[1:])


def convolve_lags(coeffs, values):
    """chi[:, s] = sum_kappa C(kappa) x[:, s - kappa], zero outside the lattice."""
    trunc = [(k - 1) // 2 for k in coeffs.shape[:3]]
    padded = np.pad(values, [(0, 0)] + [(m, m) for m in trunc])
    out = np.zeros_like(values)
    for kappa in itertools.product(*(range(-m, m + 1) for m in trunc)):
        src = tuple(slice(m - k, m - k + d) for m, k, d in zip(trunc, kappa, values.shape[1:]))
        out += np.tensordot(coeffs[tuple(np.add(kappa, trunc))], padded[(slice(None),) + src], 1)
    return out


def truncation_ranges(point, dims, trunc):
    """Clipped lags (lo1, hi1, lo2, hi2, lo3, hi3) at a 1-based lattice point."""
    out = []
    for coord, dim, m in zip(point, dims, trunc):
        if not 1 <= coord <= dim:
            raise ConfigError(f"lattice point {tuple(point)} outside extents {tuple(dims)}")
        out += [max(coord - dim, -m), min(coord - 1, m)]
    return tuple(out)


def information_criterion(eigenvalues, q_max, pen):
    """IC(k) for k = 0..q_max from (G, n) eigenvalues on the full grid.

    IC(k) = log[(1/n) sum_{j>k} mean_theta max(lambda_j(theta), 0)] + k * pen,
    with the tail sums taken directly; ``pen`` is one penalty or a vector
    of them (then one row of IC per penalty).
    """
    n = eigenvalues.shape[1]
    if not 0 <= q_max < n:
        raise ConfigError(f"q_max={q_max} must satisfy 0 <= q_max < n={n}")
    means = np.maximum(eigenvalues, 0.0).mean(axis=0)
    tails = np.array([means[k:].sum() / n for k in range(q_max + 1)])
    if np.any(tails <= 0.0):
        raise NumericError("degenerate spectrum: eigenvalue tail sum is not positive")
    return np.log(tails) + np.multiply.outer(pen, np.arange(q_max + 1))


def select_q_fixed_c(field, q_max, kernels="epanechnikov", bw=None, c=1.0):
    """(IC values, arg-min) at penalty c * penalty_value, c a scale or a vector."""
    kernels = resolve_kernels(kernels)
    bw = validate_bandwidths(bw, field.dims)
    pen = penalty_value(field.n, field.dims, bw, tuple(k.smoothness for k in kernels))
    system = eigensystem_from_field(field, kernels, bw)
    values = information_criterion(mirror(system.eigenvalues), q_max, np.multiply(c, pen))
    return values, np.argmin(values, axis=-1)


def band_matrix(out_extent, pad, weights):
    """(out_extent, out_extent + 2*pad) matrix applying lag weights.

    Row s (0-based) places weights[kappa + radius] at padded column
    s + pad - kappa, so multiplying contracts sum_kappa w(kappa)
    u[s - kappa] with u indexed on the padded axis.
    """
    radius = (len(weights) - 1) // 2
    cols = np.arange(out_extent + 2 * pad)
    kappa = (np.arange(out_extent)[:, None] + pad) - cols[None, :]
    w = np.zeros((out_extent, out_extent + 2 * pad))
    inside = np.abs(kappa) <= radius
    w[inside] = weights[kappa[inside] + radius]
    return w


def separable_convolution_reference(loadings, weights, shocks, dims):
    """chi[ell] = sum_j a[ell, j] (w_1 x w_2 x w_3)(ell, j) * u_j, one pair at a time.

    ``weights(ell, j)`` gives the three per-axis lag-weight vectors of
    the pair; ``shocks`` (q, P1, P2, P3) is padded symmetrically.
    """
    n, q = loadings.shape
    pads = [(shocks.shape[1 + d] - dims[d]) // 2 for d in range(3)]
    chi = np.zeros((n,) + tuple(dims))
    for ell in range(n):
        for j in range(q):
            mats = [band_matrix(dims[d], pads[d], w) for d, w in enumerate(weights(ell, j))]
            out = np.einsum("ap,pqr->aqr", mats[0], shocks[j], optimize=True)
            out = np.einsum("bq,aqr->abr", mats[1], out, optimize=True)
            chi[ell] += loadings[ell, j] * np.einsum("cr,abr->abc", mats[2], out, optimize=True)
    return chi


def spectral_full_reference(autocov, kernels):
    """(G, n, n) spectral matrices, every grid point transformed and symmetrized."""
    grid = FrequencyGrid(autocov.window)
    gammas = full_box(autocov)
    n = gammas.shape[1]
    w = kernel_lag_weights(resolve_kernels(kernels), autocov.window)
    s1, s2, s3 = grid.shape
    e1, e2, e3 = (np.exp(-1j * np.outer(grid.axis_frequencies(d), grid.axis_offsets(d)))
                  for d in range(3))
    mats = np.empty((grid.size, n, n), dtype=complex)
    for i in range(n):
        out = (e1 @ (gammas[:, i] * w[:, None]).reshape(s1, -1)).reshape(s1, s2, -1)
        out = (e2 @ out).reshape(s1 * s2, s3, -1)
        mats[:, i] = (e3 @ out).reshape(grid.size, n)
    for i in range(n):
        row = 0.5 * (mats[:, i, i:] + np.conj(mats[:, i:, i]))
        mats[:, i:, i] = np.conj(row)
        mats[:, i, i:] = row
    mats[grid.zero_index].imag = 0.0
    return mats
