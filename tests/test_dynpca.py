import multiprocessing
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from stfactor import (
    ConfigError,
    DynamicEigenSystem,
    FrequencyGrid,
    LatticeField,
    NumericError,
    SimConfig,
    as_demeaned_field,
    demean,
    eigendecompose_all,
    eigensystem_from_field,
    eigenvalue_curve_by_size,
    estimate_common_component,
    estimate_spectral_density,
    run_mc_study,
    stability_scan,
    stack_to_time_series,
    stacked_series_as_field,
)
from stfactor import _plan, _rowmap, dynpca
from stfactor.dynpca import weighted_submatrix_eigenvalues
from stfactor.spectral import SpectralDensityEstimate, make_kernel
from conftest import random_field
from oracles import convolve_lags, full_rows, lag_coefficients, mirror, pack, projector_stack, subfield


def synthetic_estimate(matrix_fn, bw=(1, 1, 1), n=None):
    """SpectralDensityEstimate with matrices produced by matrix_fn(theta)."""
    grid = FrequencyGrid(bw)
    mats = np.stack([matrix_fn(theta) for theta in grid.points])
    return SpectralDensityEstimate(grid, pack(mats[: grid.half_count].astype(np.complex128)),
                                   (make_kernel("ep"),) * 3)


class TestEigendecomposeAll:
    def test_identity_spectrum(self):
        est = synthetic_estimate(lambda th: np.eye(3))
        system = eigendecompose_all(est, 3)
        np.testing.assert_allclose(system.eigenvalues, 1.0, atol=1e-14)
        # rows satisfy the eigen-relation within the residual tolerance
        full, vals = mirror(est.matrices), mirror(system.eigenvalues)
        vecs = mirror(system.eigenvectors)
        for g in range(est.grid.size):
            rows = vecs[g]
            resid = rows @ full[g] - vals[g][:, None] * rows
            assert np.abs(resid).max() <= 1e-8 * 2

    def test_constant_diagonal_spectrum(self):
        est = synthetic_estimate(lambda th: np.diag([3.0, 2.0, 1.0]))
        system = eigendecompose_all(est, 3)
        expected = np.broadcast_to([3.0, 2.0, 1.0], system.eigenvalues.shape)
        np.testing.assert_allclose(system.eigenvalues, expected, atol=1e-14)
        # eigenvectors are the canonical basis up to sign; phase fixing
        # makes the pivot entry exactly +1
        eye = np.broadcast_to(np.eye(3), system.eigenvectors.shape)
        np.testing.assert_allclose(np.abs(system.eigenvectors), eye, atol=1e-14)

    def test_reconstruction_with_full_rank(self):
        field = random_field((4, 5, 4, 6), seed=21)
        est = estimate_spectral_density(field, "ep", (2, 1, 2))
        system = eigendecompose_all(est, 4)
        vecs = mirror(system.eigenvectors)
        rebuilt = np.einsum("gj,gji,gjk->gik", mirror(system.eigenvalues), np.conj(vecs), vecs)
        full = mirror(est.matrices)
        assert np.abs(rebuilt - full).max() <= 1e-8 * np.abs(full).max()

    def test_invariants(self):
        field = random_field((5, 5, 5, 6), seed=22)
        est = estimate_spectral_density(field, "ep", (2, 2, 2))
        system = eigendecompose_all(est, 5)
        vals, vecs = mirror(system.eigenvalues), mirror(system.eigenvectors)
        assert np.all(np.diff(vals, axis=1) <= 1e-12)
        gram = np.einsum("gqi,gpi->gqp", vecs, np.conj(vecs))
        assert np.abs(gram - np.eye(5)[None]).max() <= 1e-10
        full = mirror(est.matrices)
        resid = np.einsum("gqi,gij->gqj", vecs, full) - vals[:, :, None] * vecs
        bound = 1e-8 * (1.0 + np.abs(vals))[:, :, None]
        assert np.all(np.abs(resid) <= bound)
        # eigenvalue sum equals the trace at every frequency
        traces = np.trace(full, axis1=1, axis2=2).real
        np.testing.assert_allclose(vals.sum(axis=1), traces, rtol=1e-9)

    def test_q_keep_out_of_range(self):
        est = synthetic_estimate(lambda th: np.eye(2))
        with pytest.raises(ConfigError):
            eigendecompose_all(est, 3)

    def test_failure_names_grid_index(self):
        def matrix(th):
            return np.eye(2)

        est = synthetic_estimate(matrix)
        est.packed[3] = np.nan
        with pytest.raises(NumericError, match="grid index 3"):
            eigendecompose_all(est, 1)

    def test_interlacing_per_frequency(self):
        field = random_field((6, 4, 4, 5), seed=23)
        est = estimate_spectral_density(field, "ep", (1, 1, 2))
        mats = mirror(est.matrices)
        full = np.linalg.eigvalsh(mats)[:, ::-1]
        for m in (2, 4):
            sub = np.linalg.eigvalsh(mats[:, :m, :m])[:, ::-1]
            assert np.all(sub <= full[:, :m] + 1e-10)


class TestAveragedEigenvalues:
    def test_constant_case(self):
        est = synthetic_estimate(lambda th: np.diag([3.0, 2.0, 1.0]))
        system = eigendecompose_all(est, 0)
        np.testing.assert_allclose(system.eigenvalue_means()[:3], [3.0, 2.0, 1.0], atol=1e-14)

    def test_is_arithmetic_grid_mean(self):
        grid = FrequencyGrid((1, 1, 1))
        vals = np.random.default_rng(1).uniform(0, 5, size=(grid.half_count, 4))
        vals.sort(axis=1)
        vals = vals[:, ::-1].copy()
        system = DynamicEigenSystem(grid, vals, np.zeros((grid.half_count, 0, 4), complex), 0)
        np.testing.assert_allclose(system.eigenvalue_means(), mirror(vals).mean(axis=0), rtol=1e-15)

    def test_constructor_rejects_full_grid(self):
        grid = FrequencyGrid((1, 1, 2))
        vals = np.ones((grid.size, 3))
        with pytest.raises(ConfigError, match=f"expected {grid.half_count} half-grid points"):
            DynamicEigenSystem(grid, vals, np.zeros((grid.size, 0, 3), complex), 0)

    def test_white_noise_band(self):
        # flat-spectrum oracle: population eigenvalues are all 1; the
        # lattice is sized so ordering bias stays inside the band
        field = random_field((4, 16, 16, 16), seed=24)
        system = eigensystem_from_field(field, "ep", (3, 3, 3))
        avg = system.eigenvalue_means()[:4]
        assert np.all(avg >= 0.7) and np.all(avg <= 1.3)


class TestGramRoute:
    def test_matches_standard_route(self):
        # more series than lattice points: the Gram route that
        # eigensystem_from_field takes must agree with the standard one
        field = random_field((12, 2, 2, 2), seed=25)
        std = eigendecompose_all(estimate_spectral_density(field, "ep", (1, 1, 1)), 3)
        gram = eigensystem_from_field(field, "ep", (1, 1, 1), q_keep=3)
        rank = field.lattice_size
        scale = std.eigenvalues.max()
        assert np.abs(std.eigenvalues[:, :rank] - gram.eigenvalues[:, :rank]).max() <= 1e-8 * scale
        assert np.abs(gram.eigenvalues[:, rank:]).max() <= 1e-8 * scale
        proj_std = np.einsum("gqi,gqj->gij", np.conj(std.eigenvectors), std.eigenvectors)
        proj_gram = np.einsum("gqi,gqj->gij", np.conj(gram.eigenvectors), gram.eigenvectors)
        assert np.abs(proj_std - proj_gram).max() <= 1e-8

    def test_eigenvalues_descend_past_negative_ones(self):
        # the truncated window leaves negative eigenvalues: the n - r zeros
        # the Gram route pads with belong above them, as on the standard route
        field = random_field((30, 2, 3, 4), seed=34)
        gram = eigensystem_from_field(field, "truncated", (1, 2, 2))
        std = eigendecompose_all(estimate_spectral_density(field, "truncated", (1, 2, 2)), 0)
        assert std.eigenvalues.min() < 0
        assert np.all(np.diff(gram.eigenvalues, axis=1) <= 0)
        scale = np.abs(std.eigenvalues).max()
        assert np.abs(gram.eigenvalues - std.eigenvalues).max() <= 1e-12 * scale
        assert np.abs(gram.eigenvalue_means() - std.eigenvalue_means()).max() <= 1e-12 * scale

    def test_auto_route_by_shape(self):
        tall = random_field((12, 2, 2, 2), seed=26)
        wide = random_field((3, 4, 4, 4), seed=27)
        tall_system = eigensystem_from_field(tall, "ep", (1, 1, 1))
        wide_system = eigensystem_from_field(wide, "ep", (1, 1, 2))
        assert tall_system.n == 12 and wide_system.n == 3
        # the Gram route fills the eigenvalues past rank V = 8 with exact zeros
        assert np.all(tall_system.eigenvalues[:, tall.lattice_size:] == 0.0)
        standard = eigendecompose_all(estimate_spectral_density(wide, "ep", (1, 1, 2)), 0)
        assert np.array_equal(wide_system.eigenvalues, standard.eigenvalues)

    def test_gram_rows_orthonormal_and_paired(self):
        field = random_field((20, 2, 2, 3), seed=28)
        system = eigensystem_from_field(field, "ep", (1, 1, 1), q_keep=4)  # Gram route
        gram = np.einsum("gqi,gpi->gqp", system.eigenvectors, np.conj(system.eigenvectors))
        assert np.abs(gram - np.eye(4)[None]).max() <= 1e-10
        # the zero frequency is its own negation, so its rows are exactly real
        assert np.all(system.eigenvectors[-1].imag == 0.0)


    @pytest.mark.parametrize("kernel,shape,bw,trunc", [
        ("bartlett", (30, 2, 3, 4), (1, 2, 2), (1, 1, 1)),
        ("ep", (30, 2, 3, 4), (1, 2, 2), (1, 1, 1)),
        # T = 6 leaves lags outside the flat window, so the top three rows are well separated
        ("truncated", (40, 2, 3, 6), (1, 2, 2), (1, 1, 1)),
        # the stacked baseline's shape: degenerate spatial axes, time lags only
        ("ep", (30, 1, 1, 12), (0, 0, 3), (0, 0, 2)),
    ], ids=["bartlett", "ep", "truncated", "stacked"])
    def test_matches_standard_route_at_anisotropic_shape(self, kernel, shape, bw, trunc):
        # nonzero lag weights on two axes of different extents and bandwidths make
        # Sigma_hat(theta) vary with theta, so a wrong phase sign shows in the rows
        field = random_field(shape, seed=34)
        q = 3
        std = eigendecompose_all(estimate_spectral_density(field, kernel, bw), q)
        gram = eigensystem_from_field(field, kernel, bw, q_keep=q)
        scale = np.abs(std.eigenvalues).max()
        # the windowed estimate may have negative eigenvalues: compare as sets
        assert np.abs(np.sort(std.eigenvalues) - np.sort(gram.eigenvalues)).max() <= 1e-10 * scale
        proj_std = projector_stack(full_rows(std, q))
        assert np.abs(projector_stack(full_rows(gram, q)) - proj_std).max() <= 1e-9

        def chi(system):
            return convolve_lags(lag_coefficients(system.grid, full_rows(system, q), trunc),
                                 field.values)

        direct = chi(std)
        for chi_hat in (chi(gram), estimate_common_component(field, q, kernel, bw, trunc).chi):
            assert np.abs(chi_hat - direct).max() <= 1e-9 * np.abs(direct).max()

    def test_q_keep_above_rank_bound(self):
        field = random_field((12, 2, 2, 2), seed=35)
        with pytest.raises(ConfigError, match=r"exceeds the rank bound min\(n, S1\*S2\*T\)=8"):
            eigensystem_from_field(field, "ep", (1, 1, 1), q_keep=9)

    def test_q_keep_above_numerical_rank(self):
        # 12 series of rank 2: a third row would not be an eigenvector
        rng = np.random.default_rng(0)
        factors = rng.standard_normal((2, 8))
        factors -= factors.mean(axis=1, keepdims=True)
        values = (rng.standard_normal((12, 2)) @ factors).reshape(12, 2, 2, 2)
        field = LatticeField(values, demeaned=True)
        assert eigensystem_from_field(field, "bartlett", (1, 1, 1), q_keep=2).q_keep == 2
        with pytest.raises(NumericError, match="degenerate eigenvector in Gram route"):
            eigensystem_from_field(field, "bartlett", (1, 1, 1), q_keep=3)
        with pytest.raises(NumericError, match="degenerate eigenvector in Gram route"):
            estimate_common_component(field, 3, "bartlett", (1, 1, 1), (1, 1, 1))

    @staticmethod
    def traced_tail(monkeypatch, n, q_keep):
        """The traced peak of a stacked panel's n-sized arrays, from the small eigensystem on, and
        the last stage of the entry's plan, which counts them."""
        field = random_field((n, 1, 1, 10), seed=36)
        eigensystem_from_field(field, "ep", (0, 0, 3), q_keep)  # numpy's lazy set-up
        marks, decompose = {}, dynpca.eigendecompose_all

        def traced_from_here(*args):
            system = decompose(*args)
            tracemalloc.reset_peak()
            marks["base"] = tracemalloc.get_traced_memory()[0]
            return system

        monkeypatch.setattr(dynpca, "eigendecompose_all", traced_from_here)
        tracemalloc.start()
        try:
            eigensystem_from_field(field, "ep", (0, 0, 3), q_keep)
            peak = tracemalloc.get_traced_memory()[1] - marks["base"]
        finally:
            tracemalloc.stop()
        return peak, _plan._eigensystem(n, (1, 1, 10), (0, 0, 2), (0, 0, 3), q_keep)[-1][1]

    @pytest.mark.parametrize("q_keep", [0, 2, 5])
    def test_traced_rows_within_the_checked_bound(self, monkeypatch, q_keep):
        # a stacked shape: 600 series on a (1, 1, 10) lattice, so that only the n-sized arrays
        # count: eigenvalues; then the rows with x2d @ back and its complex cast, or later the
        # rows with their norm's and phases' temporaries and one complex iterator buffer of the
        # phases' product.  No zero rows are alive beside them.
        peak, tail = self.traced_tail(monkeypatch, 600, q_keep)
        rows, buffer = 4 * q_keep, 16 * np.getbufsize() if q_keep else 0
        assert tail == 8 * 600 * (4 + max(6 * rows, 2 * rows + 3 * 10)) + buffer
        assert peak <= tail

    def test_traced_rows_need_the_phases_buffer(self, monkeypatch):
        # q_keep = V - 1 on 60 series: the rows and their temporaries alone fall short
        peak, tail = self.traced_tail(monkeypatch, 60, 9)
        assert tail - 16 * np.getbufsize() < peak <= tail

    def test_steps_are_laid_out_for_the_principal_coordinates(self, monkeypatch):
        # demeaned, 40 stacked series on 10 lattice points have r = 9 principal coordinates: the
        # entry's bytes are those of V = 10 series, and each step lays itself out for its own r
        seen = {}

        def spy(name, series):
            stage = getattr(_plan, name)
            monkeypatch.setattr(_plan, name, lambda *a, **k: seen.setdefault(name, []).append(series(*a))
                                or stage(*a, **k))

        spy("_autocov", lambda n, dims, window: n)
        spy("_assembly", lambda n, window, bw: n)
        spy("_eigensolves", lambda half, sizes, q_keep=0: list(sizes))
        eigensystem_from_field(random_field((40, 1, 1, 10), seed=36), "ep", (0, 0, 3), q_keep=2)
        assert seen == {"_autocov": [10, 9], "_assembly": [10, 9], "_eigensolves": [[10], [9]]}

    def test_smaller_coordinate_batches_within_the_entry_bytes(self, monkeypatch):
        # 166 coordinates take eigensolve batches of 4 matrices where 167 series take 3, so the
        # entry's bytes count the batch of any size up to V: 1.14x of them otherwise
        monkeypatch.setattr(_rowmap.os, "sched_getaffinity", lambda pid: {0, 1})
        field = random_field((170, 1, 1, 167), seed=5)
        eigensystem_from_field(field, "ep", (0, 0, 5))  # numpy's lazy set-up
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert eigensystem_from_field(field, "ep", (0, 0, 5)).eigenvalues.shape == (6, 170)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= _plan.eigensystem(170, (1, 1, 167), (0, 0, 4), (0, 0, 5), 0)

    def test_memory_check_before_the_principal_field(self, monkeypatch):
        monkeypatch.setattr(_plan, "_physical_memory_bytes", lambda: 64 * 1024)
        monkeypatch.setattr(dynpca, "_principal_field", None)  # fails if reached
        need = _plan.eigensystem(600, (1, 1, 10), (0, 0, 2), (0, 0, 3), 2)
        with pytest.raises(ConfigError, match=rf"the eigensystem for n=600, dims=\(1, 1, 10\), "
                                              rf"q_keep=2 needs {need} bytes"):
            eigensystem_from_field(random_field((600, 1, 1, 10), seed=36), "ep", (0, 0, 3), 2)

    def test_zero_panel(self):
        field = LatticeField(np.zeros((12, 2, 2, 2)), demeaned=True)
        with pytest.raises(NumericError, match="no positive eigenvalues"):
            eigensystem_from_field(field, "ep", (1, 1, 1))


class TestEigengapCurve:
    def test_single_series_matches_scalar_average(self):
        field = random_field((3, 4, 4, 5), seed=29)
        curve = eigenvalue_curve_by_size(field, [1], 1, "ep", (1, 1, 2))
        solo = eigensystem_from_field(subfield(field, 1), "ep", (1, 1, 2))
        np.testing.assert_allclose(curve[0, 0], solo.eigenvalue_means()[0], rtol=1e-10)

    def test_matches_direct_subfield_estimation(self):
        field = random_field((6, 4, 4, 5), seed=30)
        curve = eigenvalue_curve_by_size(field, [3, 6], 3, "ep", (1, 1, 2))
        for row, m in zip(curve, (3, 6)):
            sub = eigensystem_from_field(subfield(field, m), "ep", (1, 1, 2))
            np.testing.assert_allclose(row, sub.eigenvalue_means()[:3], rtol=1e-10)

    def test_interlacing_in_panel_size(self):
        field = random_field((8, 4, 4, 6), seed=31)
        curve = eigenvalue_curve_by_size(field, [2, 4, 6, 8], 2, "ep", (1, 1, 2))
        assert np.all(np.diff(curve, axis=0) >= -1e-10)

    def test_stacked_rows_are_the_leading_panels_systems(self):
        # more series than lattice points: no n x n estimate is shared, and
        # each row is the eigensystem of its leading panel, on either route
        field = random_field((2, 3, 3, 8), seed=35, demeaned=False)
        stacked = demean(stacked_series_as_field(stack_to_time_series(field)))
        sizes = [5, 8, 12, 18]  # V = 8
        curve = eigenvalue_curve_by_size(stacked, sizes, 3, "ep", (0, 0, 2))
        for row, m in zip(curve, sizes):
            sub = eigensystem_from_field(subfield(stacked, m), "ep", (0, 0, 2))
            expected = sub.eigenvalue_means()[:3]
            assert np.abs(row - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_rejects_oversized_m(self):
        field = random_field((3, 3, 3, 3), seed=33)
        with pytest.raises(ConfigError):
            eigenvalue_curve_by_size(field, [4], 1, "ep", (1, 1, 1))


def hermitian_stack(count, m, seed=0):
    """``count`` Hermitian m x m matrices as a half-grid stack (bandwidths (0, 0, count - 1))."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((count, m, m)) + 1j * rng.standard_normal((count, m, m))
    mats = a @ np.conj(a.transpose(0, 2, 1))
    mats[-1] = mats[-1].real  # the zero frequency is a real matrix
    grid = FrequencyGrid((0, 0, count - 1))
    return SpectralDensityEstimate(grid, pack(mats), (make_kernel("ep"),) * 3)


needs_blas_pin = pytest.mark.skipif(
    _rowmap._blas_thread_controls() is None, reason="numpy's LAPACK has no OpenBLAS thread setter"
)


class TestHalfGridMap:
    """The chunked per-frequency map returns the bits of one call on the whole stack."""

    @pytest.mark.parametrize("count, cores", [(1, None), (2, None), (7, None), (3, 8)],
                             ids=["one", "two", "odd", "fewer_than_workers"])
    def test_matches_single_call(self, monkeypatch, count, cores):
        monkeypatch.setattr(_rowmap, "_POOL_MIN_COST", 0)  # threads even for these tiny batches
        if cores is not None:
            monkeypatch.setattr(_rowmap.os, "sched_getaffinity", lambda pid: set(range(cores)))
        chunks = []
        solve_rows = dynpca._solve_rows

        def spy(solve, vals, lo, hi):
            chunks.append((lo, hi))
            solve_rows(solve, vals, lo, hi)

        def assert_contiguous_chunks():
            # the map cut the grid into one contiguous chunk per worker
            bounds = sorted(chunks)
            assert bounds[0][0] == 0 and bounds[-1][1] == count
            assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
            assert len(bounds) == _rowmap.map_workers(count, count * 6**3)
            chunks.clear()

        monkeypatch.setattr(dynpca, "_solve_rows", spy)
        est = hermitian_stack(count, 6, seed=count)
        mats, keep = est.matrices, 2
        system = eigendecompose_all(est, keep)
        assert_contiguous_chunks()
        ref_vals, ref_vecs = np.linalg.eigh(mats)
        ref_vals[-1], ref_vecs[-1] = np.linalg.eigh(mats[-1].real)
        ref_rows = np.conj(ref_vecs[:, :, ::-1][:, :, :keep]).transpose(0, 2, 1)
        assert np.array_equal(system.eigenvalues, ref_vals[:, ::-1])
        assert np.array_equal(system.eigenvectors, dynpca._fix_phases(ref_rows))
        assert not system.eigenvectors[-1].imag.any()  # zero frequency in real arithmetic
        weights = (est.grid.pair_weights / est.grid.size)[:, None]
        ref = np.linalg.eigvalsh(mats[:, :4, :4])[:, ::-1] * weights
        assert np.array_equal(weighted_submatrix_eigenvalues(est, [4])[0], ref)
        assert_contiguous_chunks()
        usable = len(_rowmap.os.sched_getaffinity(0))
        assert _rowmap.map_workers(count, count * 6**3) == (
            min(usable, count) if _rowmap._blas_thread_controls() else 1
        )

    @pytest.mark.parametrize("g", [0, 4, 6])
    def test_batched_eigensolves_keep_the_bits(self, monkeypatch, g):
        # each worker solves at most two matrices a call: the same bits, and a failure names its index
        monkeypatch.setattr(_rowmap, "_POOL_MIN_COST", 0)
        est = hermitian_stack(7, 6, seed=3)
        whole = eigendecompose_all(est, 2)
        monkeypatch.setattr(_plan, "_EIGH_BATCH_BYTES", 2 * 16 * 6 * 6)
        monkeypatch.setattr(_plan, "_GIL_ROWS", 0)
        calls = []
        solve_rows = dynpca._solve_rows

        def spy(solve, vals, lo, hi):
            calls.append(hi - lo)
            solve_rows(solve, vals, lo, hi)

        monkeypatch.setattr(dynpca, "_solve_rows", spy)
        batched = eigendecompose_all(est, 2)
        assert max(calls) == 2 and sum(calls) == 7
        assert np.array_equal(batched.eigenvalues, whole.eigenvalues)
        assert np.array_equal(batched.eigenvectors, whole.eigenvectors)
        est.packed[g, 1, 0] = np.nan  # the real part of entries (1, 0) and (0, 1)
        with pytest.raises(NumericError, match=f"grid index {g}$"):
            eigendecompose_all(est, 1)

    def test_batches_hold_enough_rows_to_release_the_gil(self, monkeypatch):
        # one matrix of bytes, but numpy solves a batch of at most 500 rows holding the GIL
        monkeypatch.setattr(_plan, "_EIGH_BATCH_BYTES", 16 * 4 * 4)
        calls = []
        solve_rows = dynpca._solve_rows

        def spy(solve, vals, lo, hi):
            calls.append(hi - lo)
            solve_rows(solve, vals, lo, hi)

        monkeypatch.setattr(dynpca, "_solve_rows", spy)
        est = hermitian_stack(300, 4, seed=5)
        (vals,) = weighted_submatrix_eigenvalues(est, [4])
        assert calls == [126, 126, 48] and 126 * 4 > _plan._GIL_ROWS
        weights = (est.grid.pair_weights / est.grid.size)[:, None]
        assert np.array_equal(vals, np.linalg.eigvalsh(est.matrices)[:, ::-1] * weights)

    def test_memory_check_before_the_batches(self, monkeypatch):
        est = hermitian_stack(300, 4, seed=5)
        monkeypatch.setattr(_plan, "_physical_memory_bytes", lambda: 1024)
        monkeypatch.setattr(dynpca, "_map_rows", None)  # fails if reached
        # the eigenvalues, then one worker's batch of 300 matrices and its eigenvectors
        need = _plan._chain(_plan._eigensolves(300, [4], 1))
        with pytest.raises(ConfigError, match=rf"the eigensolves of 300 matrices at sizes \[4\] "
                                              rf"needs {need} bytes"):
            eigendecompose_all(est, 1)

    @pytest.mark.parametrize("n, cores", [(2, 2), (7, 2), (30, 3), (100, 2), (5, 8)])
    def test_weighted_chunks_balance_pairs(self, monkeypatch, n, cores):
        # the autocovariance's rows: row i carries the n - i pairs (j >= i, i)
        monkeypatch.setattr(_rowmap, "_POOL_MIN_COST", 0)
        monkeypatch.setattr(_rowmap.os, "sched_getaffinity", lambda pid: set(range(cores)))
        weights = n - np.arange(n)
        chunks = []
        workers = _rowmap.map_workers(n, 0)
        _rowmap._map_rows(lambda lo, hi: chunks.append((lo, hi)), weights, workers)
        bounds = sorted(chunks)
        assert len(bounds) == workers == _rowmap.map_workers(n, 0)
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        share = weights.sum() / workers
        assert all(abs(weights[lo:hi].sum() - share) < n for lo, hi in bounds)

    def test_small_batches_run_inline(self):
        # below the cost floor a thread start costs what the second core saves
        assert _rowmap.map_workers(5, 5 * 19**3) == 1
        assert _rowmap._POOL_MIN_COST > 5 * 19**3
        usable = len(_rowmap.os.sched_getaffinity(0))
        pinned = _rowmap._blas_thread_controls() is not None
        assert _rowmap.map_workers(221, 221 * 30**3) == (min(usable, 221) if pinned else 1)

    @pytest.mark.parametrize("threads", [False, True], ids=["inline", "threads"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("g", [0, 4, 6])
    def test_non_finite_matrix_names_its_index(self, monkeypatch, threads, bad, g):
        if threads:
            monkeypatch.setattr(_rowmap, "_POOL_MIN_COST", 0)
        est = hermitian_stack(7, 5)
        est.packed[g, 1, 0] = bad
        with pytest.raises(NumericError, match=f"grid index {g}$"):
            eigendecompose_all(est, 1)
        with pytest.raises(NumericError, match=f"grid index {g}$"):
            weighted_submatrix_eigenvalues(est, [3, 5])

    @pytest.mark.parametrize("threads", [False, True], ids=["inline", "threads"])
    @pytest.mark.parametrize("g", [0, 4])  # not the zero frequency, which has no imaginary part
    def test_non_finite_imaginary_part_names_its_index(self, monkeypatch, threads, g):
        if threads:
            monkeypatch.setattr(_rowmap, "_POOL_MIN_COST", 0)
        est = hermitian_stack(7, 5)
        est.packed[g, 1, 3] = np.nan  # Im of entry (3, 1), above the diagonal
        with pytest.raises(NumericError, match=f"grid index {g}$"):
            eigendecompose_all(est, 1)
        with pytest.raises(NumericError, match=f"grid index {g}$"):
            weighted_submatrix_eigenvalues(est, [4])

    @pytest.mark.parametrize("cores", [1, 2], ids=["inline", "two_workers"])
    def test_packed_path_matches_lapack_on_the_rebuilt_matrices(self, monkeypatch, cores):
        # the complex batches built from the packing give LAPACK today's lower triangles
        monkeypatch.setattr(_rowmap, "_POOL_MIN_COST", 0)
        monkeypatch.setattr(_rowmap.os, "sched_getaffinity", lambda pid: set(range(cores)))
        solved = []
        decompose = dynpca.eigendecompose_all

        def checked(est, q_keep):
            system = decompose(est, q_keep)
            mats = est.matrices
            vals, vecs = np.linalg.eigh(mats)
            vals[-1], vecs[-1] = np.linalg.eigh(mats[-1].real)
            rows = np.conj(vecs[:, :, ::-1][:, :, :q_keep]).transpose(0, 2, 1)
            assert np.array_equal(system.eigenvalues, vals[:, ::-1])
            assert np.array_equal(system.eigenvectors, dynpca._fix_phases(rows))
            solved.append(est.n)
            return system

        monkeypatch.setattr(dynpca, "eigendecompose_all", checked)
        field = random_field((9, 4, 3, 6), seed=31)
        est = estimate_spectral_density(field, "ep", (1, 1, 2))
        checked(est, 3)
        weights = (est.grid.pair_weights / est.grid.size)[:, None]
        for m, vals in zip((4, 9, 2), weighted_submatrix_eigenvalues(est, [4, 9, 2])):
            ref = np.linalg.eigvalsh(est.matrices[:, :m, :m])[:, ::-1] * weights
            assert np.array_equal(vals, ref), m
        # the Gram route decomposes the estimate of the panel's principal coordinates
        stacked = as_demeaned_field(stacked_series_as_field(stack_to_time_series(field)).values)
        eigensystem_from_field(stacked, "ep", (0, 0, 2), q_keep=2)
        assert len(solved) == 2 and solved[1] <= 6  # r <= V principal coordinates

    def test_without_blas_pin_runs_inline_with_the_same_bits(self, monkeypatch):
        field = random_field((6, 4, 4, 6), seed=8)
        monkeypatch.setattr(_rowmap, "_POOL_MIN_COST", 0)
        est = estimate_common_component(field, 2, "ep", (1, 1, 2))
        half = FrequencyGrid((1, 1, 2)).half_count
        assert est.settings["eigen_workers"] == _rowmap.map_workers(half, half * 6**3)
        monkeypatch.setattr(_rowmap, "_blas_thread_controls", lambda: None)
        inline = estimate_common_component(field, 2, "ep", (1, 1, 2))
        assert inline.settings["eigen_workers"] == 1
        assert np.array_equal(inline.chi, est.chi)


def _estimate_in_child(values):
    estimate_common_component(LatticeField(values, demeaned=True), 1, "ep", (1, 1, 1))


@pytest.mark.parametrize("entry", [
    lambda f: estimate_common_component(f, 1, "ep", (2, 2, 2)),
    lambda f: stability_scan(f, 2, np.arange(0, 201) / 50, subsample_sizes=[4, 5], bw=(2, 2, 2)),
    lambda f: eigenvalue_curve_by_size(f, [3, 6], 2, "ep", (2, 2, 2)),
    lambda f: eigensystem_from_field(f, "ep", (2, 2, 2), q_keep=1),
], ids=["estimate_common_component", "stability_scan", "eigenvalue_curve_by_size",
        "eigensystem_from_field"])
def test_public_entries_hold_the_blas_pin(monkeypatch, entry):
    # BLAS is set to one thread once, stays there between the row maps, and is restored once
    sets, maps = [], []
    monkeypatch.setattr(_rowmap, "_POOL_MIN_COST", 0)
    monkeypatch.setattr(_rowmap, "_blas_thread_controls", lambda: (lambda: 3, sets.append))
    pool = _rowmap.ThreadPoolExecutor
    monkeypatch.setattr(_rowmap, "ThreadPoolExecutor", lambda *a: maps.append(sets[:]) or pool(*a))
    entry(random_field((6, 5, 5, 8), seed=35))
    assert sets == [1, 3] and len(maps) >= 2
    assert all(seen == [1] for seen in maps)


@needs_blas_pin
class TestBlasPin:
    """BLAS runs one thread inside the map, and its count is restored on every way out."""

    @pytest.fixture
    def blas_threads(self, monkeypatch):
        monkeypatch.setattr(_rowmap, "_POOL_MIN_COST", 0)  # threads even for small test batches
        get, set_ = _rowmap._blas_thread_controls()
        before = get()
        set_(2)  # a count the map must change and restore
        yield get
        set_(before)

    def test_one_thread_inside_overlapping_maps(self, blas_threads):
        seen = []

        def solve(mats, lo, hi):
            seen.append(blas_threads())
            time.sleep(0.01)  # keep the callers' maps overlapping
            seen.append(blas_threads())
            return np.zeros((hi - lo, 1))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # more callers than cores, each running its own map
            with ThreadPoolExecutor(4) as pool:
                maps = pool.map(lambda count: dynpca._map_half_grid(
                    solve, np.zeros((count, 1, 1)), [1], _plan._eigensolves(count, [1])[0]), [5, 1, 3, 2] * 3,
                    timeout=60)
                list(maps)
        finally:
            sys.setswitchinterval(interval)
        assert len(seen) > 24 and set(seen) == {1}
        assert blas_threads() == 2

    def test_eigenvectors_do_not_depend_on_the_callers_blas_threads(self, blas_threads):
        # at m = 100 LAPACK's eigenvectors differ in their last bits between
        # one and two OpenBLAS threads; the map always solves on one
        est = hermitian_stack(14, 100, seed=3)
        runs = []
        for threads in (2, 1, 2):
            _rowmap._blas_thread_controls()[1](threads)
            system = eigendecompose_all(est, 3)
            runs.append((system.eigenvalues, system.eigenvectors))
        for vals, vecs in runs[1:]:
            assert np.array_equal(vals, runs[0][0]) and np.array_equal(vecs, runs[0][1])

    def test_restored_after_estimate(self, blas_threads):
        estimate_common_component(random_field((6, 4, 4, 6), seed=9), 1, "ep", (1, 1, 1))
        assert blas_threads() == 2

    def test_restored_after_a_map_that_raises(self, blas_threads):
        est = hermitian_stack(7, 5)
        est.packed[3] = np.nan
        with pytest.raises(NumericError, match="grid index 3"):
            eigendecompose_all(est, 1)
        assert blas_threads() == 2

    def test_restored_after_threaded_mc_study(self, blas_threads):
        cfg = SimConfig(model="model_b", n=8, dims=(6, 6, 8), q=1, seed=42, n_reps=4)
        run_mc_study(cfg, "accuracy", bw=(2, 2, 2), threads=4)
        assert blas_threads() == 2

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork start method")
    def test_forked_child_runs_the_map(self, blas_threads):
        field = random_field((6, 4, 4, 6), seed=10)
        estimate_common_component(field, 1, "ep", (1, 1, 1))  # the parent has used the map
        child = multiprocessing.get_context("fork").Process(
            target=_estimate_in_child, args=(field.values,)
        )
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            pytest.fail("a forked child hung in the eigen map")
        assert child.exitcode == 0
