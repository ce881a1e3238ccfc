"""Sample autocovariances and the smoothed spectral density matrix.

The spectral density of the n-dimensional field is estimated on a
discrete frequency grid by Fourier-transforming kernel-weighted sample
autocovariances over a bandwidth-limited lag window:

    Sigma_hat(theta) = sum_{|h_d| <= B_d} Gamma_hat(h)
                       * K1(h1/B1) K2(h2/B2) K3(h3/B3) * exp(-i<h, theta>)

with the biased sample autocovariance

    Gamma_hat(h) = (1 / (S1 S2 T)) * sum_varsigma x_varsigma x_{varsigma-h}^T

summed over all lattice points where both indices are in range (the
divisor is the full sample size, not the overlap count).  Because the
kernels vanish outside [-1, 1], this lag-window form is algebraically
identical to the direct double sum over all pairs of lattice points,
at a small fraction of the cost.

Frequencies live on a symmetric grid of (2*B_d + 1) points per axis,
theta_d = 2*pi*h_d / (2*B_d + 1) for integer h_d in [-B_d, B_d], i.e.
equispaced modulo 2*pi.  Integrals over frequency become grid averages
(the continuous normalization 8 pi^3 becomes the grid size G), and the
spacing makes those quadratures exact for the lag window at hand: any
lag polynomial of degree up to 2*B_d is integrated exactly, so the
grid mean of the estimate recovers Gamma_hat(0) identically.

For a real field Sigma_hat(-theta) == conj(Sigma_hat(theta)), so only
the non-redundant half of the grid (the first G // 2 + 1 points, zero
frequency last) is computed and stored.  Each matrix is formed on and
above its diagonal and stored Hermitian-packed in n^2 reals (see
:class:`SpectralDensityEstimate`), so Sigma_hat(theta)^dagger ==
Sigma_hat(theta) holds exactly, with a real diagonal and a real
zero-frequency matrix.  Every later layer reads only this half,
weighting each point by :attr:`FrequencyGrid.pair_weights`.
So is the lag box: Gamma_hat(-h) == Gamma_hat(h)^T, so only its non-negative
half (G // 2 + 1 lags, zero first) is stored, and the assembly transposes it.

The autocovariance rows (in column blocks of about 4 MiB) and the
assembly's rows run on the row map of :mod:`_rowmap`, which makes each
worker's scratch in the calling thread.  The spectral step is the largest
allocation (that scratch included) and is checked before any array exists.
"""

from __future__ import annotations

import ctypes
import math
import os
from dataclasses import dataclass

import numpy as np

from . import _rowmap
from .errors import ConfigError
from .field import LatticeField

__all__ = [
    "Kernel",
    "make_kernel",
    "default_bandwidths",
    "validate_bandwidths",
    "FrequencyGrid",
    "AutocovarianceSet",
    "sample_autocovariance",
    "SpectralDensityEstimate",
    "estimate_spectral_density",
]

# Smoothness exponents: |K(u) - 1| = O(|u|^theta) near zero.  The
# truncated kernel is exactly 1 on its support, so any finite exponent
# is valid; a large constant keeps penalty formulas finite.
_KERNEL_SMOOTHNESS = {"epanechnikov": 2.0, "bartlett": 1.0, "truncated": 50.0}

_KERNEL_ALIASES = {
    "ep": "epanechnikov",
    "epanechnikov": "epanechnikov",
    "bartlett": "bartlett",
    "trunc": "truncated",
    "truncated": "truncated",
}


@dataclass(frozen=True)
class Kernel:
    """Symmetric lag-window kernel with K(0) = 1 and support [-1, 1]."""

    kind: str
    smoothness: float

    def __call__(self, u):
        u = np.asarray(u, dtype=np.float64)
        if self.kind == "epanechnikov":
            return np.maximum(0.0, 1.0 - u * u)
        if self.kind == "bartlett":
            return np.maximum(0.0, 1.0 - np.abs(u))
        if self.kind == "truncated":
            return (np.abs(u) <= 1.0).astype(np.float64)
        raise ConfigError(f"unknown kernel kind {self.kind!r}")


def make_kernel(kind: str) -> Kernel:
    """Kernel by name; accepts the aliases ep / bartlett / trunc."""
    canonical = _KERNEL_ALIASES.get(kind.lower())
    if canonical is None:
        raise ConfigError(f"unknown kernel {kind!r}; expected one of {sorted(set(_KERNEL_ALIASES))}")
    return Kernel(canonical, _KERNEL_SMOOTHNESS[canonical])


def resolve_kernels(kernels) -> tuple[Kernel, Kernel, Kernel]:
    """Normalize a kernel spec (name, Kernel, or a triple) to a triple."""
    if isinstance(kernels, (str, Kernel)):
        kernels = (kernels, kernels, kernels)
    kernels = tuple(k if isinstance(k, Kernel) else make_kernel(k) for k in kernels)
    if len(kernels) != 3:
        raise ConfigError("expected one kernel per axis (three total)")
    return kernels


def default_bandwidths(dims) -> tuple[int, int, int]:
    """Bandwidths B_d = max(2, round(dim^(3/7))), capped at dim - 1.

    The 3/7 exponent is the optimal-rate choice for a kernel with
    quadratic smoothness (epanechnikov).  Degenerate axes (extent 1)
    get bandwidth 0, which collapses the axis to the single zero
    frequency.
    """
    out = []
    for d in dims:
        if d <= 1:
            out.append(0)
        else:
            out.append(int(min(d - 1, max(2, round(d ** (3.0 / 7.0))))))
    return tuple(out)


def validate_bandwidths(bw, dims) -> tuple[int, int, int]:
    """Checked bandwidth triple; ``None`` selects :func:`default_bandwidths`."""
    if bw is None:
        bw = default_bandwidths(dims)
    bw = tuple(int(b) for b in bw)
    if len(bw) != 3:
        raise ConfigError("bandwidths must be a triple (B_S1, B_S2, B_T)")
    for b, d, name in zip(bw, dims, ("S1", "S2", "T")):
        if b >= d:
            raise ConfigError(f"bandwidth B_{name}={b} must be < extent {name}={d}")
        if b < 1 and d > 1:
            raise ConfigError(f"bandwidth B_{name}={b} must be >= 1 for extent {name}={d}")
        if b < 0:
            raise ConfigError(f"bandwidth B_{name}={b} must be >= 0")
    return bw


@dataclass(frozen=True)
class FrequencyGrid:
    """Symmetric discrete frequency grid, 2*B_d + 1 points per axis.

    Axis frequencies are theta = 2*pi*h / (2*B_d + 1) for h in
    [-B_d, B_d] (equispaced modulo 2*pi, zero included exactly once,
    the endpoint pi excluded so no frequency is double-counted).  Grid
    points are stored in C order over (h1 + B1, h2 + B2, h3 + B3),
    which makes negation an index reversal: the negated frequency of
    grid index g is G - 1 - g, and the zero frequency sits exactly once
    at the central index (G - 1) // 2.
    """

    bandwidths: tuple[int, int, int]

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(2 * b + 1 for b in self.bandwidths)

    @property
    def size(self) -> int:
        f1, f2, f3 = self.shape
        return f1 * f2 * f3

    @property
    def zero_index(self) -> int:
        return (self.size - 1) // 2

    @property
    def half_count(self) -> int:
        """Number of grid points in the non-redundant half (zero included)."""
        return self.zero_index + 1

    def axis_offsets(self, axis: int) -> np.ndarray:
        b = self.bandwidths[axis]
        return np.arange(-b, b + 1)

    def axis_frequencies(self, axis: int) -> np.ndarray:
        b = self.bandwidths[axis]
        if b == 0:
            return np.zeros(1)
        return 2.0 * np.pi * self.axis_offsets(axis) / (2 * b + 1)

    @property
    def offsets(self) -> np.ndarray:
        """(G, 3) integer offsets h for every grid point."""
        grids = np.meshgrid(*(self.axis_offsets(d) for d in range(3)), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    @property
    def points(self) -> np.ndarray:
        """(G, 3) frequency vectors theta_h for every grid point."""
        grids = np.meshgrid(*(self.axis_frequencies(d) for d in range(3)), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    @property
    def pair_weights(self) -> np.ndarray:
        """Multiplicities that turn half-grid sums into full-grid sums."""
        w = np.full(self.half_count, 2.0)
        w[-1] = 1.0
        return w


_BLOCK_BYTES = 4 << 20  # one cross-spectrum block: a cache-sized share of the padded half-spectrum


# ---------------------------------------------------------------------------
# Sample autocovariances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AutocovarianceSet:
    """Sample autocovariance matrices on the non-negative half of the lag window |h_d| <= B_d.

    ``gammas`` is (grid.half_count, n, n): the lags of the window in C
    order over (h1 + B1, h2 + B2, h3 + B3) from the zero lag on, the
    zero lag first.  The other half is the transposes,
    Gamma(-h) = Gamma(h)^T, and is not stored.
    """

    window: tuple[int, int, int]
    gammas: np.ndarray

    def __post_init__(self):
        if self.gammas.shape[0] != (half := FrequencyGrid(self.window).half_count):
            raise ConfigError(f"expected {half} half-box lags, got {self.gammas.shape[0]}")


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


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _check_memory(step: str, need: int) -> None:
    """ConfigError, before anything is allocated, if ``step`` needs more than physical memory."""
    if need > (have := _physical_memory_bytes()):
        raise ConfigError(f"{step} needs {need:.0f} bytes, more than the {have} bytes of physical memory")


def _autocov_layout(n: int, dims, window):
    """Padded lengths, block width w, per-series lengths of the block arrays (the cross-spectra
    with one row series, P1 P2 K3 bins with K3 = P3 // 2 + 1, and their transforms over each
    axis in turn) and the cost, pairs times bins; w series' cross-spectra fill _BLOCK_BYTES."""
    # zero padding past d + B keeps every lag |h| <= B free of wrap-around
    pad = tuple(_next_fast_len(d + b + 1) for d, b in zip(dims, window))
    l1, l2, l3 = (2 * b + 1 for b in window)
    k3 = pad[2] // 2 + 1
    sizes = (pad[0] * pad[1] * k3, l1 * pad[1] * k3, l1 * l2 * k3, l1 * l2 * l3)
    return pad, min(n, max(1, _BLOCK_BYTES // (sizes[0] * 16))), sizes, n * (n + 1) // 2 * sizes[0]


def _spectral_step_bytes(n: int, dims, window) -> int:
    """Bytes held at once by the spectral step, from the shapes alone: the real autocovariances
    on the half lag box, the packed half-grid estimate, the complex padded half-spectrum of the
    field, and each row worker's scratch (one conjugated series and the four block arrays) and
    numpy's iterator buffers for a strided complex ufunc (at most one per operand)."""
    grid = FrequencyGrid(tuple(window))
    _, width, sizes, cost = _autocov_layout(n, dims, window)
    worker = sizes[0] + width * sum(sizes) + 3 * np.getbufsize()
    return (n * n * grid.half_count * 16 + sizes[0] * n * 16
            + _rowmap.map_workers(n, cost) * worker * 16)


def _autocov_fft(values: np.ndarray, window) -> np.ndarray:
    n = values.shape[0]
    grid = FrequencyGrid(tuple(window))
    pad, width, sizes, cost = _autocov_layout(n, values.shape[1:], window)
    k3 = np.arange(pad[2] // 2 + 1)
    # one padded array, transformed axis by axis in place: rfftn would hold two at once
    spec = np.zeros((n, pad[0], pad[1], len(k3)), complex)
    np.fft.rfft(values, pad[2], axis=3, out=spec[:, :values.shape[1], :values.shape[2]])
    np.fft.fft(spec[:, :values.shape[1]], axis=2, out=spec[:, :values.shape[1]])
    np.fft.fft(spec, axis=1, out=spec)
    spec = spec.reshape(n, -1).T  # (P1 P2 K3, n): series last, so each axis below is one product
    # inverse DFT rows for the lags -B..B only; the half-spectrum axis
    # counts its interior frequencies twice and the real part is kept
    e1, e2, e3 = (np.exp(2j * np.pi * np.outer(np.arange(-b, b + 1), np.arange(k)) / p)
                  for b, k, p in zip(window, (pad[0], pad[1], len(k3)), pad))
    e3 = e3 * np.where((k3 == 0) | (2 * k3 == pad[2]), 1.0, 2.0) / (values[0].size * math.prod(pad))
    half = grid.half_count
    out = np.empty((half, n, n))

    def rows(lo, hi, conj, *scratch):
        for i in range(lo, hi):
            np.conj(spec[:, i], out=conj)
            for j in range(i, n, width):
                # pairs (j..j + w - 1, i): box[h] = Gamma_ji(h), and Gamma_ij(h) = Gamma_ji(-h)
                w = min(width, n - j)
                cross, y1, y2, y3 = (a[:size * w] for a, size in zip(scratch, sizes))
                np.multiply(spec[:, j:j + w], conj[:, None], out=cross.reshape(-1, w))
                np.matmul(e1, cross.reshape(pad[0], -1), out=y1.reshape(len(e1), -1))
                np.matmul(e2, y1.reshape(len(e1), pad[1], -1), out=y2.reshape(len(e1), len(e2), -1))
                np.matmul(e3, y2.reshape(-1, len(k3), w), out=y3.reshape(-1, len(e3), w))
                box = y3.real.reshape(grid.size, w)
                out[:, i, j:j + w] = box[half - 1::-1]  # Gamma_ij first: the diagonal keeps Gamma_ii(h)
                out[:, j:j + w, i] = box[half - 1:]

    lengths = (sizes[0], *(s * width for s in sizes))  # per worker: a conjugated series, the blocks
    _rowmap._map_rows(rows, n - np.arange(n), cost, lambda: [np.empty(k, complex) for k in lengths])
    del spec  # glibc keeps the freed pages resident unless trimmed
    if cost >= _rowmap._POOL_MIN_COST and hasattr(libc := ctypes.CDLL(None), "malloc_trim"):
        libc.malloc_trim(ctypes.c_size_t(0))
    return out


def sample_autocovariance(field: LatticeField, window) -> AutocovarianceSet:
    """Sample autocovariances over the symmetric lag window.

    Gamma_hat(h) = (1/(S1 S2 T)) sum x_varsigma x_{varsigma-h}^T over
    all lattice points where both varsigma and varsigma - h are in
    range; the divisor is always the full lattice size (triangular /
    biased normalization).  Lags with empty overlap are exactly zero.
    Computed from zero-padded FFTs (cross-spectra inverted onto the lag
    box only) and stored on the box's non-negative half, zero lag first
    (see :class:`AutocovarianceSet`).  Raises ConfigError
    before allocating when the spectral step (these autocovariances,
    the half-grid estimate assembled from them and the padded FFT)
    would not fit in physical memory.
    """
    if not field.demeaned:
        raise ConfigError("sample_autocovariance requires a demeaned field")
    window = validate_bandwidths(window, field.dims)
    _check_memory(f"the spectral step for n={field.n}, dims={tuple(field.dims)}, bandwidths={window}",
                  _spectral_step_bytes(field.n, field.dims, window))
    return AutocovarianceSet(window, _autocov_fft(field.values, window))


# ---------------------------------------------------------------------------
# Spectral density estimate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralDensityEstimate:
    """Kernel-smoothed spectral density matrices on the non-redundant half grid.

    ``packed`` is (grid.half_count, n, n) real: the first half of the
    grid in grid order, the zero frequency last.  The other half is its
    conjugate, Sigma(-theta) = conj(Sigma(theta)), and is not stored.
    Each exactly Hermitian Sigma is packed in n^2 reals: real parts on
    and below the diagonal, and above it packed[g, j, i] = Im Sigma_g[i, j]
    for i > j (zero at the zero frequency), so leading blocks pack leading
    submatrices.
    """

    grid: FrequencyGrid
    packed: np.ndarray
    kernels: tuple[Kernel, Kernel, Kernel]

    def __post_init__(self):
        if self.packed.shape[0] != self.grid.half_count:
            raise ConfigError(
                f"expected {self.grid.half_count} half-grid matrices, got {self.packed.shape[0]}"
            )

    @property
    def n(self) -> int:
        return self.packed.shape[1]

    @property
    def matrices(self) -> np.ndarray:
        """The (half_count, n, n) complex matrices, rebuilt from ``packed`` at every read."""
        low, up = np.tril(self.packed), np.triu(self.packed, 1)
        return low + np.triu(low.transpose(0, 2, 1), 1) + 1j * (up.transpose(0, 2, 1) - up)


def kernel_lag_weights(kernels, window) -> np.ndarray:
    """Product kernel weights K1(h1/B1) K2(h2/B2) K3(h3/B3) per lag."""
    kernels = resolve_kernels(kernels)
    per_axis = []
    for k, b in zip(kernels, window):
        h = np.arange(-b, b + 1)
        u = h / b if b > 0 else np.zeros(1)
        per_axis.append(k(u))
    w = per_axis[0][:, None, None] * per_axis[1][None, :, None] * per_axis[2][None, None, :]
    return w.ravel()


def _dft_matrix(grid: FrequencyGrid, axis: int, sign: float) -> np.ndarray:
    h = grid.axis_offsets(axis)
    theta = grid.axis_frequencies(axis)
    return np.exp(sign * 1j * np.outer(theta, h))


def spectral_from_autocovariance(autocov: AutocovarianceSet, kernels) -> SpectralDensityEstimate:
    """Assemble the half-grid spectral estimate from stored autocovariances."""
    kernels = resolve_kernels(kernels)
    grid = FrequencyGrid(autocov.window)
    n = autocov.gammas.shape[1]
    w = kernel_lag_weights(kernels, autocov.window)
    s1, s2, s3 = grid.shape
    e1, e2, e3 = (_dft_matrix(grid, axis, -1.0) for axis in range(3))
    # the half grid lies in the first-axis rows theta_1 <= 0
    r1 = grid.bandwidths[0] + 1
    e1 = e1[:r1]
    half = grid.half_count
    packed = np.empty((half, n, n))
    # cost: pairs x lags x axis lengths / 8, measured at about 10 ns a unit
    cost = n * (n + 1) // 2 * grid.size * sum(grid.shape) / 8

    def rows(lo, hi, lags, prod):  # row i on and right of the diagonal, packed down column i
        for i in range(lo, hi):
            cols = n - i
            block = lags[:grid.size * cols].reshape(grid.size, cols)
            # Gamma_ij(-h) = Gamma_ji(h): the negative lags are column i of the half, reversed
            np.multiply(autocov.gammas[:0:-1, i:, i], w[:half - 1, None], out=block.real[:half - 1])
            np.multiply(autocov.gammas[:, i, i:], w[half - 1:, None], out=block.real[half - 1:])
            block.imag = 0.0
            out = np.matmul(e1, block.reshape(s1, -1), out=prod[:block.size // s1 * r1].reshape(r1, -1))
            out = np.matmul(e2, out.reshape(r1, s2, -1), out=lags[:out.size].reshape(r1, s2, -1))
            out = np.matmul(e3, out.reshape(r1 * s2, s3, -1), out=prod[:out.size].reshape(r1 * s2, s3, -1))
            row = out.reshape(-1, cols)[:half]
            packed[:, i:, i] = row.real  # Sigma_ji = conj(Sigma_ij): Im Sigma_ji on row i
            np.negative(row.imag[:, 1:], out=packed[:, i, i + 1:])
            packed[-1, i, i + 1:] = 0.0  # zero frequency is a real matrix

    lengths = (grid.size * n, r1 * s2 * s3 * n)  # per worker: weighted lags, then each axis product
    _rowmap._map_rows(rows, n - np.arange(n), cost, lambda: [np.empty(k, complex) for k in lengths])
    return SpectralDensityEstimate(grid, packed, kernels)


def estimate_spectral_density(
    field: LatticeField, kernels="epanechnikov", bw=None
) -> SpectralDensityEstimate:
    """Lag-window spectral density estimate of a demeaned field.

    Parameters
    ----------
    field : LatticeField
        Demeaned observations.
    kernels : kernel name, Kernel, or triple thereof
        Smoothing kernel per axis (a single value is used for all three).
    bw : (B_S1, B_S2, B_T) or None
        Bandwidths; ``None`` selects :func:`default_bandwidths`.
    """
    if not field.demeaned:
        raise ConfigError("estimate_spectral_density requires a demeaned field")
    return spectral_from_autocovariance(sample_autocovariance(field, bw), kernels)
