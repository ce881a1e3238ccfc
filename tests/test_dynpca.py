import csv

import numpy as np
import pytest

from stfactor import (
    ConfigError,
    DynamicEigenSystem,
    FrequencyGrid,
    LatticeField,
    demean,
    eigendecompose_all,
    eigensystem_from_field,
    eigenvalue_curve_by_size,
    estimate_spectral_density,
)
from stfactor.dynpca import write_eigengap_csv
from stfactor.spectral import SpectralDensityEstimate, make_kernel
from conftest import random_field
from oracles import mirror, subfield


def synthetic_estimate(matrix_fn, bw=(1, 1, 1), n=None):
    """SpectralDensityEstimate with matrices produced by matrix_fn(theta)."""
    grid = FrequencyGrid(bw)
    mats = np.stack([matrix_fn(theta) for theta in grid.points])
    return SpectralDensityEstimate(grid, mats[: grid.half_count].astype(np.complex128),
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
        est.matrices[3] = np.nan
        from stfactor import NumericError

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

    def test_csv_output(self, tmp_path):
        field = random_field((4, 3, 3, 4), seed=32)
        path = tmp_path / "curve.csv"
        curve = eigenvalue_curve_by_size(field, [2, 4], 2, "ep", (1, 1, 1))
        write_eigengap_csv(path, [2, 4], curve)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["m", "lambda_1", "lambda_2"]
        assert len(rows) == 3
        np.testing.assert_allclose(float(rows[1][1]), curve[0, 0])

    def test_rejects_oversized_m(self):
        field = random_field((3, 3, 3, 3), seed=33)
        with pytest.raises(ConfigError):
            eigenvalue_curve_by_size(field, [4], 1, "ep", (1, 1, 1))
