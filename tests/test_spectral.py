import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from stfactor import (
    ConfigError,
    FrequencyGrid,
    LatticeField,
    SpectralDensityEstimate,
    default_bandwidths,
    demean,
    estimate_spectral_density,
    make_kernel,
    sample_autocovariance,
    store_field,
)
import stfactor
from stfactor import _rowmap, cli, commoncomp, dynpca, qselect, spectral
from stfactor.cli import main
from stfactor.spectral import spectral_from_autocovariance, validate_bandwidths
from conftest import random_field
from oracles import full_box, gamma, mirror, pack, spectral_full_reference


class TestKernels:
    def test_epanechnikov_at_zero(self):
        assert make_kernel("epanechnikov")(0.0) == 1.0

    def test_epanechnikov_values(self):
        k = make_kernel("ep")
        assert k(1.0) == 0.0
        assert k(0.5) == 0.75

    def test_bartlett_symmetry_and_value(self):
        k = make_kernel("bartlett")
        assert k(-0.25) == 0.75
        assert k(0.25) == k(-0.25)

    def test_truncated(self):
        k = make_kernel("trunc")
        assert k(0.999) == 1.0 and k(1.0) == 1.0 and k(1.001) == 0.0

    @pytest.mark.parametrize("kind", ["epanechnikov", "bartlett", "truncated"])
    def test_window_conditions(self, kind):
        k = make_kernel(kind)
        u = np.linspace(-2, 2, 401)
        vals = k(u)
        assert k(0.0) == 1.0
        np.testing.assert_allclose(vals, k(-u))
        assert np.all(vals[np.abs(u) > 1] == 0.0)
        small = np.logspace(-4, -1, 20)
        assert np.all(np.abs(k(small) - 1.0) <= 2.0 * small**k.smoothness)

    def test_unknown_kernel(self):
        with pytest.raises(ConfigError):
            make_kernel("gauss")


class TestBandwidths:
    def test_defaults_follow_rate(self):
        assert default_bandwidths((20, 20, 20)) == (4, 4, 4)
        assert default_bandwidths((10, 10, 100)) == (3, 3, 7)
        assert default_bandwidths((1, 1, 50)) == (0, 0, 5)

    def test_validation(self):
        validate_bandwidths((2, 2, 3), (5, 5, 6))
        with pytest.raises(ConfigError):
            validate_bandwidths((5, 2, 3), (5, 5, 6))
        with pytest.raises(ConfigError):
            validate_bandwidths((0, 2, 3), (5, 5, 6))
        validate_bandwidths((0, 0, 3), (1, 1, 6))


class TestFrequencyGrid:
    def test_counts_and_zero(self):
        grid = FrequencyGrid((2, 1, 3))
        assert grid.size == 5 * 3 * 7
        pts = grid.points
        zero_rows = np.flatnonzero(np.all(pts == 0.0, axis=1))
        assert list(zero_rows) == [grid.zero_index]

    def test_negation_symmetry(self):
        grid = FrequencyGrid((2, 1, 3))
        pts = grid.points
        np.testing.assert_allclose(pts[::-1], -pts)

    def test_pair_weights_cover_grid(self):
        grid = FrequencyGrid((1, 1, 2))
        assert grid.pair_weights.sum() == grid.size


def brute_force_autocovariance(values, h):
    """Direct double loop over lattice points (oracle)."""
    n, s1n, s2n, tn = values.shape
    out = np.zeros((n, n))
    for a1 in range(1, s1n + 1):
        for a2 in range(1, s2n + 1):
            for a3 in range(1, tn + 1):
                b1, b2, b3 = a1 - h[0], a2 - h[1], a3 - h[2]
                if 1 <= b1 <= s1n and 1 <= b2 <= s2n and 1 <= b3 <= tn:
                    out += np.outer(
                        values[:, a1 - 1, a2 - 1, a3 - 1], values[:, b1 - 1, b2 - 1, b3 - 1]
                    )
    return out / (s1n * s2n * tn)


def direct_autocovariance(values, window):
    """One matrix product per non-redundant lag, mirror-filled (oracle)."""
    n, dims = values.shape[0], values.shape[1:]
    grid = FrequencyGrid(tuple(window))
    out = np.empty((grid.size, n, n))
    for i, h in enumerate(grid.offsets[: grid.half_count]):
        # varsigma and varsigma - h both in the lattice, 0-based
        lead = tuple(slice(max(k, 0), d + min(k, 0)) for k, d in zip(h, dims))
        trail = tuple(slice(max(-k, 0), d - max(k, 0)) for k, d in zip(h, dims))
        lead_x = values[(slice(None), *lead)].reshape(n, -1)
        out[i] = lead_x @ values[(slice(None), *trail)].reshape(n, -1).T
        out[grid.size - 1 - i] = out[i].T
    center = grid.zero_index
    out[center] = 0.5 * (out[center] + out[center].T)
    return out / math.prod(dims)


class TestAutocovariance:
    def test_zero_lag_is_gram_matrix(self):
        field = random_field((3, 4, 3, 5), seed=1)
        ac = sample_autocovariance(field, (2, 2, 3))
        flat = field.values.reshape(3, -1)
        np.testing.assert_allclose(gamma(ac, (0, 0, 0)), flat @ flat.T / flat.shape[1], atol=1e-14)
        eigs = np.linalg.eigvalsh(gamma(ac, (0, 0, 0)))
        assert eigs.min() > -1e-12

    def test_requires_demeaned(self):
        with pytest.raises(ConfigError):
            sample_autocovariance(random_field((2, 3, 3, 3), demeaned=False), (1, 1, 1))

    def test_out_of_window_lag_rejected(self):
        field = random_field((2, 4, 4, 4), seed=2)
        ac = sample_autocovariance(field, (1, 1, 2))
        with pytest.raises(ConfigError):
            gamma(ac, (0, 0, 4))

    def test_reversal_exact(self):
        field = random_field((3, 4, 4, 5), seed=3)
        ac = sample_autocovariance(field, (2, 2, 2))
        for h in [(1, 0, 0), (2, -1, 1), (0, 2, -2), (1, 1, 1)]:
            neg = tuple(-c for c in h)
            assert np.array_equal(gamma(ac, neg), gamma(ac, h).T)
        assert np.array_equal(gamma(ac, (0, 0, 0)), gamma(ac, (0, 0, 0)).T)

    @pytest.mark.parametrize("h", [(0, 0, 1), (1, 0, 0), (-1, 1, 2), (2, 2, -2)])
    def test_matches_brute_force(self, h):
        field = random_field((3, 4, 3, 5), seed=4)
        ac = sample_autocovariance(field, (2, 2, 2))
        np.testing.assert_allclose(gamma(ac, h), brute_force_autocovariance(field.values, h),
                                   rtol=1e-12, atol=1e-13)

    def test_shifted_series_lag_structure(self):
        # series 2 reads series 1 one step East: x2(s1) = x1(s1 + 1)
        rng = np.random.default_rng(5)
        s1n, s2n, tn = 8, 4, 6
        base = rng.standard_normal((s1n + 1, s2n, tn))
        values = np.stack([base[:-1], base[1:]])
        field = demean(LatticeField(values))
        ac = sample_autocovariance(field, (2, 1, 1))
        oracle = brute_force_autocovariance(field.values, (1, 0, 0))
        np.testing.assert_allclose(gamma(ac, (1, 0, 0)), oracle, rtol=1e-12, atol=1e-13)
        # overlap of the shifted pair is (S1-1)/S1 of the zero-lag energy
        ratio = gamma(ac, (1, 0, 0))[0, 1] / gamma(ac, (0, 0, 0))[0, 0]
        assert abs(ratio - (s1n - 1) / s1n) < 0.15

    def test_fft_equals_direct(self):
        field = random_field((4, 6, 5, 7), seed=6)
        direct = direct_autocovariance(field.values, (2, 2, 3))
        fft = sample_autocovariance(field, (2, 2, 3))
        assert fft.gammas.shape == (FrequencyGrid((2, 2, 3)).half_count, 4, 4)  # the non-negative half
        scale = np.abs(direct).max()
        assert np.max(np.abs(direct - full_box(fft))) < 1e-12 * scale
        np.testing.assert_array_equal(fft.gammas[0], fft.gammas[0].T)  # the zero lag, as written

    @pytest.mark.parametrize("dims, window", [
        ((5, 4, 20), (2, 1, 4)),  # odd padded last axis: no Nyquist bin
        ((9, 1, 1), (4, 0, 0)),   # two degenerate axes
        ((1, 7, 3), (0, 3, 2)),
    ], ids=["odd_pad", "two_degenerate_axes", "degenerate_first_axis"])
    def test_fft_equals_direct_on_uneven_shapes(self, dims, window):
        field = random_field((3, *dims), seed=8)
        direct = direct_autocovariance(field.values, window)
        fft = sample_autocovariance(field, window)
        scale = np.abs(direct).max()
        assert np.max(np.abs(direct - full_box(fft))) < 1e-12 * scale


def brute_force_spectral(values, kernels, bw, theta):
    """Direct double sum over all pairs of lattice points (oracle)."""
    n, s1n, s2n, tn = values.shape
    coords = np.array(
        [(a, b, c) for a in range(1, s1n + 1) for b in range(1, s2n + 1) for c in range(1, tn + 1)]
    )
    flat = values.reshape(n, -1)
    diffs = coords[:, None, :] - coords[None, :, :]
    w = (
        kernels[0](diffs[..., 0] / bw[0] if bw[0] else np.zeros(diffs.shape[:2]))
        * kernels[1](diffs[..., 1] / bw[1] if bw[1] else np.zeros(diffs.shape[:2]))
        * kernels[2](diffs[..., 2] / bw[2] if bw[2] else np.zeros(diffs.shape[:2]))
    )
    phase = np.exp(-1j * np.tensordot(diffs, theta, axes=(2, 0)))
    weight = w * phase
    return np.einsum("ip,pq,jq->ij", flat, weight, flat.conj()) / flat.shape[1]


class TestSpectralDensity:
    def test_autocovariance_set_rejects_the_whole_lag_box(self):
        ac = sample_autocovariance(random_field((3, 4, 4, 5), seed=15), (1, 1, 2))
        with pytest.raises(ConfigError, match=f"expected {FrequencyGrid((1, 1, 2)).half_count} half-box"):
            stfactor.AutocovarianceSet(ac.window, full_box(ac))

    @pytest.mark.parametrize("kind", ["epanechnikov", "bartlett", "truncated"])
    def test_equals_direct_double_sum(self, kind):
        field = random_field((3, 5, 4, 6), seed=7)
        kernel = make_kernel(kind)
        bw = (2, 1, 2)
        est = estimate_spectral_density(field, kind, bw)
        full = mirror(est.matrices)
        scale = np.abs(full).max()
        for g in range(est.grid.size):
            oracle = brute_force_spectral(field.values, (kernel,) * 3, bw, est.grid.points[g])
            assert np.max(np.abs(full[g] - oracle)) < 1e-10 * scale

    def test_hermitian_and_conjugate_symmetry_exact(self):
        est = estimate_spectral_density(random_field((4, 5, 5, 6), seed=8), "ep", (2, 2, 2))
        m = est.matrices
        assert m.shape == (est.grid.half_count, 4, 4)
        assert np.max(np.abs(m - np.conj(m.transpose(0, 2, 1)))) == 0.0
        assert np.all(np.diagonal(m, axis1=1, axis2=2).imag == 0.0)
        assert np.all(m[-1].imag == 0.0)
        full = mirror(est.matrices)
        assert np.array_equal(full[::-1], np.conj(full))
        assert np.array_equal(full[: est.grid.half_count], m)

    def test_inverse_dft_identity(self):
        field = random_field((3, 6, 4, 8), seed=9)
        est = estimate_spectral_density(field, "ep", (2, 1, 3))
        grid_mean = mirror(est.matrices).mean(axis=0)
        gamma0 = gamma(sample_autocovariance(field, (2, 1, 3)), (0, 0, 0))
        assert np.max(np.abs(grid_mean - gamma0)) <= 1e-10 * np.abs(gamma0).max()
        assert np.max(np.abs(grid_mean.imag)) <= 1e-12 * np.abs(gamma0).max()

    def test_bartlett_positive_semidefinite(self):
        est = estimate_spectral_density(random_field((4, 6, 6, 8), seed=10), "bartlett", (2, 2, 3))
        full = mirror(est.matrices)
        for g in range(est.grid.size):
            eigs = np.linalg.eigvalsh(full[g])
            assert eigs.min() >= -1e-10 * np.trace(full[g]).real

    def test_scaling_equivariance(self):
        base = random_field((3, 5, 5, 6), seed=11)
        scaled = LatticeField(2.5 * base.values, demeaned=True)
        e1 = mirror(estimate_spectral_density(base, "ep", (2, 2, 2)).matrices)
        e2 = mirror(estimate_spectral_density(scaled, "ep", (2, 2, 2)).matrices)
        np.testing.assert_allclose(e2, 2.5**2 * e1, rtol=1e-12, atol=1e-12 * np.abs(e1).max())

    def test_white_noise_flat_spectrum(self):
        field = random_field((4, 12, 12, 12), seed=12)
        est = estimate_spectral_density(field, "ep", (3, 3, 3))
        full = mirror(est.matrices)
        diag = np.diagonal(full.real, axis1=1, axis2=2)
        assert 0.7 <= diag.mean() <= 1.3
        off = full.copy()
        for i in range(4):
            off[:, i, i] = 0.0
        assert abs(off.real.mean()) <= 0.15
        assert abs(off.imag.mean()) <= 0.15

    def test_pure_cosine_peaks_at_its_frequency(self):
        tn, b_t = 64, 4
        grid = FrequencyGrid((0, 0, b_t))
        theta_star = grid.axis_frequencies(2)[b_t + 1]  # first positive grid frequency
        t = np.arange(1, tn + 1)
        values = np.cos(theta_star * t)[None, None, None, :]
        field = demean(LatticeField(values))
        est = estimate_spectral_density(field, "ep", (0, 0, b_t))
        power = np.abs(mirror(est.matrices)[:, 0, 0])
        peaks = set(np.argsort(power)[-2:])
        expected = {grid.zero_index + 1, grid.zero_index - 1}
        assert peaks == expected
        # oracle: direct evaluation at every grid point agrees on the argmax
        oracle = np.array([
            abs(brute_force_spectral(field.values, (make_kernel("ep"),) * 3, (0, 0, b_t), p)[0, 0])
            for p in grid.points
        ])
        assert set(np.argsort(oracle)[-2:]) == expected

    @pytest.mark.parametrize("shape, bw", [
        ((4, 1, 1, 16), (0, 0, 5)),  # B1 = 0: one first-axis row
        ((5, 5, 6, 7), (2, 2, 3)),   # odd n
        ((4, 6, 9, 16), (2, 3, 5)),  # uneven extents and bandwidths
    ], ids=["b1_zero", "odd_n", "uneven"])
    def test_full_matrices_match_full_grid_reference(self, shape, bw):
        field = random_field(shape, seed=14)
        est = estimate_spectral_density(field, "ep", bw)
        oracle = spectral_full_reference(sample_autocovariance(field, bw), "ep")
        full = mirror(est.matrices)
        assert full.shape == oracle.shape
        assert np.max(np.abs(full - oracle)) <= 1e-14 * np.abs(oracle).max()

    def test_constructor_rejects_full_grid(self):
        field = random_field((3, 4, 4, 5), seed=15)
        est = estimate_spectral_density(field, "ep", (1, 1, 2))
        with pytest.raises(ConfigError, match=f"expected {est.grid.half_count} half-grid"):
            SpectralDensityEstimate(est.grid, pack(mirror(est.matrices)), est.kernels)


class TestMemoryBound:
    @pytest.fixture
    def tiny_memory(self, monkeypatch):
        def no_fft(*args, **kwargs):
            raise AssertionError("FFT ran before the memory check")

        # the 6 x 5 x 5 x 6 field below needs about 100 kB for its spectral step
        monkeypatch.setattr(spectral, "_physical_memory_bytes", lambda: 16 * 1024)
        monkeypatch.setattr(np.fft, "rfft", no_fft)

    def test_raises_before_fft(self, tiny_memory):
        field = random_field((6, 5, 5, 6), seed=16)
        need = spectral._spectral_step_bytes(6, (5, 5, 6), default_bandwidths((5, 5, 6)))
        with pytest.raises(ConfigError, match=f"needs {need} bytes, more than the 16384 bytes"):
            estimate_spectral_density(field)

    @pytest.mark.parametrize("command,step", [
        (["estimate", "--q", "1"], "the projection filter for n=6"),
        (["select-q", "--qmax", "2"], "the scan over 6001 c_grid scales"),
        (["eigengap", "--m-values", "6", "--topk", "1"], "the spectral step for n=6, dims=(5, 5, 6)"),
        # the leading 6 of the 150 stacked series fit their (1, 1, 6) lattice: the standard route
        (["eigengap", "--gdfm", "--m-values", "6", "--topk", "1"],
         "the spectral step for n=6, dims=(1, 1, 6)"),
    ], ids=["estimate", "select_q", "eigengap", "eigengap_gdfm_standard_route"])
    def test_cli_exits_2(self, tmp_path, capsys, monkeypatch, tiny_memory, command, step):
        steps = []
        for module in (spectral, commoncomp, dynpca, qselect, cli):
            check = module._check_memory
            monkeypatch.setattr(module, "_check_memory",
                                lambda s, need, _check=check: steps.append(s) or _check(s, need))
        store_field(random_field((6, 5, 5, 6), seed=16, demeaned=False), tmp_path / "x.stf")
        rc = main(command + ["--input", f"{tmp_path}/x.stf", "--output", f"{tmp_path}/out"])
        assert rc == 2
        assert "bytes of physical memory" in capsys.readouterr().err
        assert steps[-1].startswith(step)  # the check that fired

    def test_traced_memory_pinned_to_estimate(self):
        # tracemalloc sees numpy's data buffers; the bound is the step's own estimate
        field = random_field((60, 8, 8, 40), seed=17)
        bw = (2, 2, 5)
        need = spectral._spectral_step_bytes(60, (8, 8, 40), bw)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            est = estimate_spectral_density(field, "ep", bw)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base <= 1.1 * need
        # the estimate keeps its packed matrices and nothing grid-sized besides
        assert held - base <= 1.05 * est.packed.nbytes

    def test_assembly_holds_the_packed_estimate(self):
        # n large against the grid: the estimate is most of the assembly's peak, n^2 reals a point
        n, bw = 80, (1, 1, 2)
        ac = sample_autocovariance(random_field((n, 4, 4, 8), seed=20), bw)
        grid = FrequencyGrid(bw)
        scratch = (grid.size + grid.shape[1] * grid.shape[2] * (bw[0] + 1)) * n * 16
        assert _rowmap.map_workers(n, n * n * grid.size) == 1  # one row worker's scratch
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            est = spectral_from_autocovariance(ac, "ep")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert est.packed.nbytes == n * n * grid.half_count * 8
        assert peak <= 1.05 * (est.packed.nbytes + scratch)

    def test_autocovariance_holds_the_half_lag_box(self):
        n, bw = 30, (2, 2, 3)
        field = random_field((n, 6, 6, 8), seed=19)
        sample_autocovariance(field, bw)  # numpy's FFT modules load on first use
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ac = sample_autocovariance(field, bw)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held <= 1.05 * n * n * FrequencyGrid(bw).half_count * 8
        assert ac.gammas.nbytes == n * n * FrequencyGrid(bw).half_count * 8


    # a lattice large against n: the padded spectrum is most of the step.  On the first two
    # the peak is the row loop's ufunc buffers; on the third, rfftn's second padded array
    @pytest.mark.parametrize("n, side", [(12, 16), (4, 20), (60, 30)])
    def test_padded_transform_within_the_bound(self, n, side):
        dims, bw = (side,) * 3, (1, 1, 1)
        field = random_field((n, *dims), seed=18)
        need = spectral._spectral_step_bytes(n, dims, bw)
        sample_autocovariance(field, bw)  # numpy's FFT modules load on first use
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sample_autocovariance(field, bw)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= need


def force_blocks(monkeypatch, n, dims, window, width):
    """Column blocks of ``width`` series, and row threads even at a tiny shape."""
    bins = spectral._autocov_layout(n, dims, window)[2][0]
    monkeypatch.setattr(spectral, "_BLOCK_BYTES", width * bins * 16)
    monkeypatch.setattr(_rowmap, "_POOL_MIN_COST", 0)
    assert spectral._autocov_layout(n, dims, window)[1] == min(width, n)


# the child's numbers at one and two row workers, one sha256 line each
_BLOCKED_CHILD = """
import hashlib
import numpy as np
from stfactor import LatticeField, _rowmap, demean, eigendecompose_all, spectral
_rowmap._POOL_MIN_COST = 0
field = demean(LatticeField(np.random.default_rng(7).standard_normal((30, 6, 6, 10))))
spectral._BLOCK_BYTES = 3 * spectral._autocov_layout(30, field.dims, (2, 2, 3))[2][0] * 16
for cores in (1, 2):
    _rowmap.os.sched_getaffinity = lambda pid: set(range(cores))
    ac = spectral.sample_autocovariance(field, (2, 2, 3))
    system = eigendecompose_all(spectral.spectral_from_autocovariance(ac, "ep"), 3)
    digest = hashlib.sha256()
    for a in (ac.gammas, system.eigenvalues, system.eigenvectors):
        digest.update(a.tobytes())
    print(digest.hexdigest())
"""


class TestBlockedRows:
    """Autocovariance rows in column blocks of w series, shared by the row map's threads."""

    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("n, dims, window", [
        (3, (5, 4, 20), (2, 1, 4)),
        (3, (9, 1, 1), (4, 0, 0)),
        (3, (1, 7, 3), (0, 3, 2)),
        (4, (6, 5, 7), (2, 2, 3)),
    ], ids=["odd_pad", "two_degenerate_axes", "degenerate_first_axis", "four_series"])
    def test_matches_direct_with_exact_reversal(self, monkeypatch, n, dims, window, width):
        force_blocks(monkeypatch, n, dims, window, width)
        field = random_field((n, *dims), seed=8)
        direct = direct_autocovariance(field.values, window)
        fft = full_box(sample_autocovariance(field, window))
        assert np.max(np.abs(direct - fft)) < 1e-12 * np.abs(direct).max()
        assert np.array_equal(fft[::-1], fft.transpose(0, 2, 1))  # Gamma(-h) = Gamma(h)^T

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_bits_do_not_depend_on_row_workers(self, monkeypatch, width):
        # up to more workers than cores, switching threads often, all write one array
        field = random_field((7, 6, 5, 7), seed=9)
        force_blocks(monkeypatch, 7, field.dims, (2, 2, 3), width)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cores in (1, 2, 4):
                monkeypatch.setattr(_rowmap.os, "sched_getaffinity", lambda pid: set(range(cores)))
                pinned = _rowmap._blas_thread_controls() is not None
                assert _rowmap.map_workers(7, 0) == (cores if pinned else 1)
                runs.append(sample_autocovariance(field, (2, 2, 3)).gammas)
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(run, runs[0]) for run in runs[1:])

    def test_bits_do_not_depend_on_workers_or_blas_threads(self):
        # each BLAS thread count in its own interpreter, set before numpy loads
        src = str(Path(stfactor.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            child = subprocess.run([sys.executable, "-c", _BLOCKED_CHILD], env=env, check=True,
                                   capture_output=True, text=True, timeout=120)
            digests += child.stdout.split()
        assert len(digests) == 4 and len(set(digests)) == 1

    def test_traced_peaks_within_the_bound(self, monkeypatch):
        # three-series blocks on two workers; the scratch is about a fifth of the bound
        n, dims, bw = 20, (8, 8, 40), (2, 2, 5)
        field = random_field((n, *dims), seed=17)
        force_blocks(monkeypatch, n, dims, bw, 3)
        monkeypatch.setattr(_rowmap.os, "sched_getaffinity", lambda pid: {0, 1})
        need = spectral._spectral_step_bytes(n, dims, bw)
        peaks = []
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ac = sample_autocovariance(field, bw)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            spectral_from_autocovariance(ac, "ep")
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert max(peaks) <= need


class TestRowScratch:
    """The row map makes each worker's scratch in the calling thread, from its own worker count."""

    def test_cores_growing_mid_step_keep_the_gammas(self, monkeypatch):
        # usable cores go from one to two between readings, as ``taskset -p`` or a cpuset can do
        field = random_field((6, 4, 4, 6), seed=21)
        want = sample_autocovariance(field, (1, 1, 1)).gammas
        monkeypatch.setattr(_rowmap, "_POOL_MIN_COST", 0)
        readings = []

        def growing(pid):
            readings.append(pid)
            return {0} if len(readings) <= 2 else {0, 1}

        monkeypatch.setattr(_rowmap.os, "sched_getaffinity", growing)
        assert np.array_equal(sample_autocovariance(field, (1, 1, 1)).gammas, want)

    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_scratch_once_per_worker_on_the_calling_thread(self, monkeypatch, cores):
        monkeypatch.setattr(_rowmap, "_POOL_MIN_COST", 0)
        monkeypatch.setattr(_rowmap.os, "sched_getaffinity", lambda pid: set(range(cores)))
        makers, chunks = [], []

        def scratch():
            makers.append(threading.get_ident())
            return np.empty(3), []

        def task(lo, hi, buf, log):
            log.append((lo, hi))
            chunks.append((lo, hi, buf, log))

        workers = _rowmap._map_rows(task, np.ones(7), 0, scratch)
        pinned = _rowmap._blas_thread_controls() is not None
        assert workers == (min(cores, 7) if pinned else 1)
        assert makers == [threading.get_ident()] * workers
        assert len(chunks) == workers
        for owned in (2, 3):  # each chunk had buffers no other chunk saw
            assert len({id(chunk[owned]) for chunk in chunks}) == workers
        assert all(log == [(lo, hi)] for lo, hi, _, log in chunks)
