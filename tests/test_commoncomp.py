import itertools
import json

import numpy as np
import pytest

from stfactor import (
    ConfigError,
    FrequencyGrid,
    LatticeField,
    NumericError,
    apply_filter_coefficients,
    demean,
    eigensystem_from_field,
    estimate_common_component,
    filter_coefficients,
    interior_mask,
    projection_filter,
    truncation_ranges,
)
from stfactor.commoncomp import ProjectionFilter, inverse_grid_transform, validate_truncation
from conftest import random_field


class TestTruncationRanges:
    def test_interior_point_full_window(self):
        lo1, hi1, lo2, hi2, lo3, hi3 = truncation_ranges((4, 5, 6), (20, 20, 20), (3, 3, 3))
        assert (lo1, hi1) == (-3, 3)
        assert (lo2, hi2) == (-3, 3)
        assert (lo3, hi3) == (-3, 3)

    def test_western_edge_clips_upper(self):
        lo1, hi1, *_ = truncation_ranges((1, 10, 10), (20, 20, 20), (3, 3, 3))
        assert hi1 == 0 and lo1 == -3

    def test_eastern_edge_clips_lower(self):
        lo1, hi1, *_ = truncation_ranges((20, 10, 10), (20, 20, 20), (3, 3, 3))
        assert lo1 == 0 and hi1 == 3

    def test_point_outside_lattice(self):
        with pytest.raises(ConfigError):
            truncation_ranges((0, 1, 1), (5, 5, 5), (1, 1, 1))

    def test_validation(self):
        validate_truncation((2, 2, 2), (3, 3, 3), (9, 9, 9))
        with pytest.raises(ConfigError, match="aliasing"):
            validate_truncation((4, 2, 2), (3, 3, 3), (9, 9, 9))
        with pytest.raises(ConfigError):
            validate_truncation((2, 2, 9), (3, 3, 9), (9, 9, 9))

    def test_interior_mask_is_full_window_region(self):
        dims, trunc = (7, 6, 8), (2, 1, 3)
        mask = interior_mask(dims, trunc)
        for point in itertools.product(range(1, 8), range(1, 7), range(1, 9)):
            ranges = truncation_ranges(point, dims, trunc)
            full = all(
                ranges[2 * d] == -trunc[d] and ranges[2 * d + 1] == trunc[d] for d in range(3)
            )
            assert mask[point[0] - 1, point[1] - 1, point[2] - 1] == full


class TestProjectionFilter:
    def test_full_rank_is_identity(self):
        field = random_field((4, 5, 4, 6), seed=50)
        system = eigensystem_from_field(field, "ep", (1, 1, 2), q_keep=4)
        pf = projection_filter(system, 4)
        for g in (0, pf.grid.zero_index, pf.grid.size - 1):
            assert np.abs(pf.khat(g) - np.eye(4)).max() <= 1e-12

    def test_rank_one_constant_row(self):
        grid = FrequencyGrid((1, 1, 1))
        rows = np.zeros((grid.size, 1, 3), complex)
        rows[:, 0, 0] = 1.0
        pf = ProjectionFilter(grid, rows, 1)
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        assert np.abs(pf.khat(0) - expected).max() == 0.0

    def test_projector_algebra(self):
        field = random_field((5, 4, 4, 6), seed=51)
        system = eigensystem_from_field(field, "ep", (1, 1, 2), q_keep=2)
        pf = projection_filter(system, 2)
        stack = pf.khat_stack()
        # idempotent, rank q, Hermitian, conjugate-symmetric
        sq = np.einsum("gij,gjk->gik", stack, stack)
        assert np.abs(sq - stack).max() <= 1e-8
        traces = np.trace(stack, axis1=1, axis2=2)
        assert np.abs(traces - 2.0).max() <= 1e-6
        assert np.abs(stack - np.conj(stack.transpose(0, 2, 1))).max() <= 1e-12
        assert np.abs(stack[::-1] - np.conj(stack)).max() == 0.0

    def test_q_exceeding_kept_rows(self):
        field = random_field((3, 4, 4, 4), seed=52)
        system = eigensystem_from_field(field, "ep", (1, 1, 1), q_keep=1)
        with pytest.raises(ConfigError):
            projection_filter(system, 2)


class TestFilterCoefficients:
    def test_identity_projector_gives_delta(self):
        field = random_field((3, 5, 5, 6), seed=53)
        system = eigensystem_from_field(field, "ep", (2, 2, 2), q_keep=3)
        fc = filter_coefficients(projection_filter(system, 3), (2, 2, 2))
        assert np.abs(fc.coeff((0, 0, 0)) - np.eye(3)).max() <= 1e-12
        for kappa in [(1, 0, 0), (0, -1, 2), (2, 2, 2), (-1, -1, -1)]:
            assert np.abs(fc.coeff(kappa)).max() <= 1e-12

    def test_unit_time_shift_picks_single_lag(self):
        # scalar transfer function e^{-i theta_3}: the inverse transform
        # must place all mass on lag (0, 0, 1); oracle: direct DFT sum
        grid = FrequencyGrid((1, 1, 2))
        stack = np.exp(-1j * grid.points[:, 2])[:, None, None] * np.ones((1, 1))
        out = inverse_grid_transform(stack, grid, (1, 1, 2))
        oracle = np.array([
            np.mean(np.exp(-1j * grid.points[:, 2]) * np.exp(1j * (grid.points @ kappa)))
            for kappa in map(np.array, itertools.product((-1, 0, 1), (-1, 0, 1), (-2, -1, 0, 1, 2)))
        ]).reshape(3, 3, 5)
        np.testing.assert_allclose(out[..., 0, 0], oracle, atol=1e-12)
        assert abs(out[1, 1, 3, 0, 0] - 1.0) <= 1e-12
        mask = np.ones((3, 3, 5), bool)
        mask[1, 1, 3] = False
        assert np.abs(out[mask, 0, 0]).max() <= 1e-12

    def test_round_trip_reproduces_projector(self):
        field = random_field((4, 5, 5, 6), seed=54)
        system = eigensystem_from_field(field, "ep", (2, 2, 2), q_keep=2)
        pf = projection_filter(system, 2)
        fc = filter_coefficients(pf)  # trunc = bw
        grid = pf.grid
        lags = FrequencyGrid(fc.trunc).offsets
        phases = np.exp(-1j * lags @ grid.points.T)  # (L, G)
        rebuilt = np.einsum("lij,lg->gij", fc.coeffs.astype(complex), phases)
        stack = pf.khat_stack()
        assert np.abs(rebuilt - stack).max() <= 1e-9

    def test_coefficient_symmetry(self):
        field = random_field((4, 5, 4, 5), seed=55)
        system = eigensystem_from_field(field, "ep", (1, 1, 2), q_keep=2)
        fc = filter_coefficients(projection_filter(system, 2), (1, 1, 2))
        for kappa in [(1, 0, 0), (0, 1, -2), (1, -1, 1)]:
            neg = tuple(-c for c in kappa)
            assert np.abs(fc.coeff(neg) - fc.coeff(kappa).T).max() <= 1e-9

    def test_broken_conjugate_symmetry_detected(self):
        grid = FrequencyGrid((1, 1, 1))
        rows = np.random.default_rng(0).standard_normal((grid.size, 1, 2)) + 1j
        rows /= np.linalg.norm(rows, axis=2, keepdims=True)
        pf = ProjectionFilter(grid, rows, 1)
        with pytest.raises(NumericError, match="conjugate"):
            filter_coefficients(pf, (1, 1, 1))


def dense_convolution_oracle(coeffs, trunc, values, point):
    """Direct convolution sum at one (1-based) lattice point."""
    n = values.shape[0]
    dims = values.shape[1:]
    lo1, hi1, lo2, hi2, lo3, hi3 = truncation_ranges(point, dims, trunc)
    out = np.zeros(n)
    for k1 in range(lo1, hi1 + 1):
        for k2 in range(lo2, hi2 + 1):
            for k3 in range(lo3, hi3 + 1):
                src = (point[0] - k1 - 1, point[1] - k2 - 1, point[2] - k3 - 1)
                out += coeffs.coeff((k1, k2, k3)) @ values[:, src[0], src[1], src[2]]
    return out


class TestCommonComponent:
    def test_full_rank_reproduces_data(self):
        field = random_field((4, 6, 5, 7), seed=56)
        est = estimate_common_component(field, 4, "ep", (2, 2, 2), (1, 1, 2))
        assert np.abs(est.chi - field.values).max() <= 1e-9
        assert np.abs(est.chi[:, est.mask] - field.values[:, est.mask]).max() <= 1e-9

    def test_zero_q_returns_zeros(self):
        field = random_field((3, 4, 4, 5), seed=57)
        est = estimate_common_component(field, 0, "ep", (1, 1, 1))
        assert np.all(est.chi == 0.0)

    def test_zero_field_returns_zeros_with_warning(self):
        field = LatticeField(np.zeros((3, 4, 4, 5)), demeaned=True)
        with pytest.warns(RuntimeWarning, match="degenerate"):
            est = estimate_common_component(field, 1, "ep", (1, 1, 1))
        assert np.all(est.chi == 0.0)

    @pytest.mark.parametrize(
        "shape, q, bw, trunc",
        [
            ((3, 5, 4, 6), 2, (2, 1, 2), (1, 1, 2)),
            ((3, 5, 5, 7), 2, (2, 2, 3), (0, 2, 1)),
            ((3, 5, 4, 6), 3, (2, 1, 2), (2, 0, 0)),
            ((6, 1, 1, 20), 1, (0, 0, 4), (0, 0, 4)),
            ((3, 5, 6, 1), 2, (2, 2, 0), (2, 1, 0)),  # each batch is a single point
            ((3, 4, 5, 6), 2, (3, 2, 3), (3, 2, 3)),  # M_1 = extent_1 - 1
            ((3, 2, 2, 40), 1, (1, 1, 3), (1, 1, 3)),  # several tiles, a partial last one
        ],
        ids=["base", "zero_trunc_on_wide_axis", "full_rank", "stacked",
             "spatial_only", "window_spans_axis", "long_axis_tiles"],
    )
    def test_matches_materialized_convolution_everywhere(self, shape, q, bw, trunc):
        field = random_field(shape, seed=58)
        est = estimate_common_component(field, q, "ep", bw, trunc)
        system = eigensystem_from_field(field, "ep", bw, q_keep=q)
        fc = filter_coefficients(projection_filter(system, q), trunc)
        direct = apply_filter_coefficients(fc, field.values)
        assert np.abs(est.chi - direct).max() <= 1e-11 * max(1.0, np.abs(direct).max())

    def test_matches_dense_oracle_on_sample_points(self):
        field = random_field((2, 4, 4, 5), seed=59)
        q, bw, trunc = 1, (1, 1, 2), (1, 1, 1)
        est = estimate_common_component(field, q, "ep", bw, trunc)
        system = eigensystem_from_field(field, "ep", bw, q_keep=q)
        fc = filter_coefficients(projection_filter(system, q), trunc)
        for point in [(1, 1, 1), (2, 3, 3), (4, 4, 5), (1, 4, 2), (3, 2, 4)]:
            oracle = dense_convolution_oracle(fc, trunc, field.values, point)
            got = est.chi[:, point[0] - 1, point[1] - 1, point[2] - 1]
            np.testing.assert_allclose(got, oracle, atol=1e-11)

    def test_interior_equals_unclipped_convolution(self):
        field = random_field((2, 6, 6, 7), seed=60)
        q, bw, trunc = 1, (2, 2, 2), (1, 1, 1)
        system = eigensystem_from_field(field, "ep", bw, q_keep=q)
        fc = filter_coefficients(projection_filter(system, q), trunc)
        est = estimate_common_component(field, q, "ep", bw, trunc)
        # plain dense convolution with no clipping, valid region only
        lags = fc.lags
        dims = field.dims
        inner = np.zeros((2, dims[0] - 2, dims[1] - 2, dims[2] - 2))
        for idx in range(len(lags)):
            k1, k2, k3 = (int(v) for v in lags[idx])
            block = field.values[:, 1 - k1:dims[0] - 1 - k1, 1 - k2:dims[1] - 1 - k2,
                                 1 - k3:dims[2] - 1 - k3]
            inner += np.tensordot(fc.coeffs[idx], block, axes=(1, 0))
        interior = est.chi[:, 1:-1, 1:-1, 1:-1]
        np.testing.assert_allclose(interior, inner, atol=1e-11)

    def test_convolution_stage_linearity(self):
        field = random_field((3, 5, 5, 6), seed=61)
        system = eigensystem_from_field(field, "ep", (1, 1, 2), q_keep=2)
        fc = filter_coefficients(projection_filter(system, 2), (1, 1, 1))
        x = np.random.default_rng(1).standard_normal(field.values.shape)
        y = np.random.default_rng(2).standard_normal(field.values.shape)
        combo = apply_filter_coefficients(fc, 2.0 * x - 3.0 * y)
        parts = 2.0 * apply_filter_coefficients(fc, x) - 3.0 * apply_filter_coefficients(fc, y)
        scale = np.abs(parts).max()
        assert np.abs(combo - parts).max() <= 1e-12 * scale

    def test_twice_approximates_once_on_bandlimited_signal(self):
        # narrowband input aligned with the grid: the lag-truncated
        # projector behaves idempotently deep in the interior
        n, dims, b = 4, (1, 1, 96), (0, 0, 8)
        grid = FrequencyGrid(b)
        thetas = grid.axis_frequencies(2)
        t = np.arange(1, dims[2] + 1)
        loadings = np.random.default_rng(3).standard_normal(n)
        signal = sum(np.cos(thetas[b[2] + k] * t + 0.3 * k) for k in (1, 2))
        values = loadings[:, None, None, None] * signal[None, None, None, :]
        values = values + 1e-3 * np.random.default_rng(4).standard_normal((n,) + dims)
        field = demean(LatticeField(values))
        system = eigensystem_from_field(field, "ep", b, q_keep=1)
        fc = filter_coefficients(projection_filter(system, 1), b)
        once = apply_filter_coefficients(fc, field.values)
        twice = apply_filter_coefficients(fc, once)
        m = b[2]
        sl = slice(2 * m, dims[2] - 2 * m)
        scale = np.abs(once[..., sl]).max()
        assert np.abs(twice[..., sl] - once[..., sl]).max() <= 1e-2 * scale

    def test_energy_split_inequality(self):
        field = random_field((4, 5, 5, 6), seed=62)
        est = estimate_common_component(field, 2, "ep", (1, 1, 2))
        split = est.energy_split(field.values)
        total = split["total_energy"]
        lhs = split["common_energy"] + split["residual_energy"]
        assert lhs >= total * (1.0 - 2.0 * abs(split["cross_term"]) / total) - 1e-9

    def test_settings_echo_and_sidecar(self, tmp_path):
        field = random_field((3, 5, 5, 6), seed=63)
        est = estimate_common_component(field, 1, "bartlett", (2, 2, 2), (1, 2, 2))
        assert est.settings["kernels"] == ["bartlett"] * 3
        assert est.settings["trunc"] == [1, 2, 2]
        est.to_json_sidecar(tmp_path / "chi.json")
        payload = json.loads((tmp_path / "chi.json").read_text())
        assert payload["interior_lower"] == [2, 3, 3]
        assert payload["interior_upper"] == [4, 3, 4]

    def test_preconditions(self):
        field = random_field((3, 4, 4, 4), seed=64)
        with pytest.raises(ConfigError):
            estimate_common_component(field, 4, "ep", (1, 1, 1))
        raw = LatticeField(np.random.default_rng(0).standard_normal((2, 4, 4, 4)))
        with pytest.raises(ConfigError):
            estimate_common_component(raw, 1, "ep", (1, 1, 1))
