"""Lag-domain reference for the common-component filter.

The library filters in the frequency domain (project, then window).
These functions compute the same estimate as the paper writes it: the
real lag coefficients C(kappa) = (1/G) sum_theta P(theta)^dag P(theta)
e^{i<kappa,theta>} as a direct sum over the grid, then their convolution
over the lattice with the window clipped at the boundary.
"""

import itertools

import numpy as np

from stfactor import ConfigError, FrequencyGrid

# the imaginary part of C(kappa) must be rounding noise next to the real part
COEFF_IMAG_RTOL = 1e-9


def _rows(system, q):
    if q > system.q_keep:
        raise ConfigError(f"q={q} exceeds the {system.q_keep} eigenvector rows kept")
    return system.eigenvectors[:, :q, :]


def projector_stack(system, q):
    """P(theta)^dag P(theta) at every grid point, shape (G, n, n)."""
    rows = _rows(system, q)
    return np.einsum("gqi,gqj->gij", np.conj(rows), rows)


def lag_coefficients(system, q, trunc):
    """Real C(kappa) for |kappa_d| <= M_d, shape (2M1+1, 2M2+1, 2M3+1, n, n)."""
    rows, grid = _rows(system, q), system.grid
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
