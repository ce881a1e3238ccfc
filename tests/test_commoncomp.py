import itertools
import sys
import tracemalloc

import numpy as np
import pytest

from stfactor import (
    ConfigError,
    FrequencyGrid,
    LatticeField,
    demean,
    eigensystem_from_field,
    estimate_common_component,
    interior_mask,
)
from stfactor import _plan, _rowmap, commoncomp, spectral
from stfactor.commoncomp import validate_truncation
from conftest import random_field
from oracles import (
    convolve_lags,
    full_rows,
    lag_coefficients,
    projector_stack,
    truncation_ranges,
)


def at(coeffs, kappa):
    """C(kappa) from the (2M1+1, 2M2+1, 2M3+1, n, n) coefficient array."""
    return coeffs[tuple(k + (size - 1) // 2 for k, size in zip(kappa, coeffs.shape))]


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
        stack = projector_stack(full_rows(system, 4))
        for g in (0, system.grid.zero_index, system.grid.size - 1):
            assert np.abs(stack[g] - np.eye(4)).max() <= 1e-12

    def test_rank_one_constant_row(self):
        grid = FrequencyGrid((1, 1, 1))
        rows = np.zeros((grid.size, 1, 3), complex)
        rows[:, 0, 0] = 1.0
        stack = projector_stack(rows)
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        assert np.abs(stack[0] - expected).max() == 0.0

    def test_projector_algebra(self):
        field = random_field((5, 4, 4, 6), seed=51)
        system = eigensystem_from_field(field, "ep", (1, 1, 2), q_keep=2)
        stack = projector_stack(full_rows(system, 2))
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
            full_rows(system, 2)


class TestFilterCoefficients:
    def test_identity_projector_gives_delta(self):
        field = random_field((3, 5, 5, 6), seed=53)
        system = eigensystem_from_field(field, "ep", (2, 2, 2), q_keep=3)
        coeffs = lag_coefficients(system.grid, full_rows(system, 3), (2, 2, 2))
        assert np.abs(at(coeffs, (0, 0, 0)) - np.eye(3)).max() <= 1e-12
        for kappa in [(1, 0, 0), (0, -1, 2), (2, 2, 2), (-1, -1, -1)]:
            assert np.abs(at(coeffs, kappa)).max() <= 1e-12

    def test_unit_time_shift_picks_single_lag(self):
        # row p(theta) = (1, e^{-i theta_3}) / sqrt(2): the projector's
        # (0, 1) entry is the transfer function e^{-i theta_3} / 2, whose
        # inverse transform must place all mass on lag (0, 0, 1)
        grid = FrequencyGrid((1, 1, 2))
        rows = np.stack([np.ones(grid.size), np.exp(-1j * grid.points[:, 2])], axis=1)
        out = lag_coefficients(grid, rows[:, None, :] / np.sqrt(2.0), (1, 1, 2))
        assert abs(out[1, 1, 3, 0, 1] - 0.5) <= 1e-12
        mask = np.ones((3, 3, 5), bool)
        mask[1, 1, 3] = False
        assert np.abs(out[mask, 0, 1]).max() <= 1e-12
        # the transpose entry sits at the negated lag, the diagonal at lag 0
        assert abs(out[1, 1, 1, 1, 0] - 0.5) <= 1e-12
        np.testing.assert_allclose(out[1, 1, 2], 0.5 * np.eye(2), atol=1e-12)

    def test_round_trip_reproduces_projector(self):
        field = random_field((4, 5, 5, 6), seed=54)
        system = eigensystem_from_field(field, "ep", (2, 2, 2), q_keep=2)
        coeffs = lag_coefficients(system.grid, full_rows(system, 2), (2, 2, 2))  # trunc = bw
        grid = system.grid
        lags = FrequencyGrid((2, 2, 2)).offsets
        phases = np.exp(-1j * lags @ grid.points.T)  # (L, G)
        rebuilt = np.einsum("lij,lg->gij", coeffs.reshape(len(lags), 4, 4).astype(complex), phases)
        stack = projector_stack(full_rows(system, 2))
        assert np.abs(rebuilt - stack).max() <= 1e-9

    def test_coefficient_symmetry(self):
        field = random_field((4, 5, 4, 5), seed=55)
        system = eigensystem_from_field(field, "ep", (1, 1, 2), q_keep=2)
        coeffs = lag_coefficients(system.grid, full_rows(system, 2), (1, 1, 2))
        for kappa in [(1, 0, 0), (0, 1, -2), (1, -1, 1)]:
            neg = tuple(-c for c in kappa)
            assert np.abs(at(coeffs, neg) - at(coeffs, kappa).T).max() <= 1e-9

    def test_broken_conjugate_symmetry_detected(self):
        grid = FrequencyGrid((1, 1, 1))
        rows = np.random.default_rng(0).standard_normal((grid.size, 1, 2)) + 1j
        rows /= np.linalg.norm(rows, axis=2, keepdims=True)
        with pytest.raises(AssertionError, match="conjugate"):
            lag_coefficients(grid, rows, (1, 1, 1))


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
                out += at(coeffs, (k1, k2, k3)) @ values[:, src[0], src[1], src[2]]
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
        coeffs = lag_coefficients(system.grid, full_rows(system, q), trunc)
        direct = convolve_lags(coeffs, field.values)
        assert np.abs(est.chi - direct).max() <= 1e-11 * max(1.0, np.abs(direct).max())

    def test_matches_dense_oracle_on_sample_points(self):
        field = random_field((2, 4, 4, 5), seed=59)
        q, bw, trunc = 1, (1, 1, 2), (1, 1, 1)
        est = estimate_common_component(field, q, "ep", bw, trunc)
        system = eigensystem_from_field(field, "ep", bw, q_keep=q)
        coeffs = lag_coefficients(system.grid, full_rows(system, q), trunc)
        for point in [(1, 1, 1), (2, 3, 3), (4, 4, 5), (1, 4, 2), (3, 2, 4)]:
            oracle = dense_convolution_oracle(coeffs, trunc, field.values, point)
            got = est.chi[:, point[0] - 1, point[1] - 1, point[2] - 1]
            np.testing.assert_allclose(got, oracle, atol=1e-11)

    def test_interior_equals_unclipped_convolution(self):
        field = random_field((2, 6, 6, 7), seed=60)
        q, bw, trunc = 1, (2, 2, 2), (1, 1, 1)
        system = eigensystem_from_field(field, "ep", bw, q_keep=q)
        coeffs = lag_coefficients(system.grid, full_rows(system, q), trunc)
        est = estimate_common_component(field, q, "ep", bw, trunc)
        # plain dense convolution with no clipping, valid region only
        dims = field.dims
        inner = np.zeros((2, dims[0] - 2, dims[1] - 2, dims[2] - 2))
        for k1, k2, k3 in itertools.product((-1, 0, 1), repeat=3):
            block = field.values[:, 1 - k1:dims[0] - 1 - k1, 1 - k2:dims[1] - 1 - k2,
                                 1 - k3:dims[2] - 1 - k3]
            inner += np.tensordot(at(coeffs, (k1, k2, k3)), block, axes=(1, 0))
        interior = est.chi[:, 1:-1, 1:-1, 1:-1]
        np.testing.assert_allclose(interior, inner, atol=1e-11)

    def test_convolution_stage_linearity(self):
        field = random_field((3, 5, 5, 6), seed=61)
        system = eigensystem_from_field(field, "ep", (1, 1, 2), q_keep=2)
        coeffs = lag_coefficients(system.grid, full_rows(system, 2), (1, 1, 1))
        x = np.random.default_rng(1).standard_normal(field.values.shape)
        y = np.random.default_rng(2).standard_normal(field.values.shape)
        combo = convolve_lags(coeffs, 2.0 * x - 3.0 * y)
        parts = 2.0 * convolve_lags(coeffs, x) - 3.0 * convolve_lags(coeffs, y)
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
        coeffs = lag_coefficients(system.grid, full_rows(system, 1), b)
        once = convolve_lags(coeffs, field.values)
        twice = convolve_lags(coeffs, once)
        m = b[2]
        sl = slice(2 * m, dims[2] - 2 * m)
        scale = np.abs(once[..., sl]).max()
        assert np.abs(twice[..., sl] - once[..., sl]).max() <= 1e-2 * scale

    def test_settings_echo(self):
        field = random_field((3, 5, 5, 6), seed=63)
        est = estimate_common_component(field, 1, "bartlett", (2, 2, 2), (1, 2, 2))
        assert est.settings["kernels"] == ["bartlett"] * 3
        assert est.settings["trunc"] == [1, 2, 2]

    def test_preconditions(self):
        field = random_field((3, 4, 4, 4), seed=64)
        with pytest.raises(ConfigError):
            estimate_common_component(field, 4, "ep", (1, 1, 1))
        raw = LatticeField(np.random.default_rng(0).standard_normal((2, 4, 4, 4)))
        with pytest.raises(ConfigError):
            estimate_common_component(raw, 1, "ep", (1, 1, 1))


class TestChunkedFilter:
    """The filter's half-grid rows in a fixed number of chunks, shared by the row map's threads."""

    @pytest.mark.parametrize("shape, bw", [
        ((4, 5, 1, 8), (1, 0, 2)),  # 2 rows: fewer than the chunks
        ((4, 8, 1, 8), (3, 0, 2)),  # 4 rows: one per chunk
        ((4, 5, 5, 8), (1, 1, 2)),  # 5 rows: not a multiple of the chunk count
    ], ids=["below", "equal", "uneven"])
    def test_bits_do_not_depend_on_row_workers(self, monkeypatch, shape, bw):
        field = random_field(shape, seed=70)
        system = eigensystem_from_field(field, "ep", bw, q_keep=2)
        grid = system.grid
        rows = -(-grid.half_count // grid.shape[2])
        window = spectral._lag_window("ep", bw)
        chunks = _plan._filter(shape[0], shape[1:], 2, bw, bw)[0]["chunks"]
        assert len(chunks) == min(rows, _plan._FILTER_CHUNKS)
        autocov = spectral.sample_autocovariance(field, window)
        monkeypatch.setattr(_rowmap, "_POOL_MIN_COST", 0)
        chis, mats = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cores in (1, 2, 4):
                monkeypatch.setattr(_rowmap.os, "sched_getaffinity", lambda pid: set(range(cores)))
                pinned = _rowmap._blas_thread_controls() is not None
                layout = _plan._filter(shape[0], shape[1:], 2, bw, bw)[0]
                assert layout["workers"] == (min(cores, len(chunks)) if pinned else 1)
                chis.append(commoncomp._apply_projection_frequency(field.values, system, 2, bw, layout))
                mats.append(spectral.spectral_from_autocovariance(autocov, "ep", bw).matrices)
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(chi, chis[0]) for chi in chis[1:])
        assert all(np.array_equal(m, mats[0]) for m in mats[1:])
        direct = convolve_lags(lag_coefficients(grid, full_rows(system, 2), bw), field.values)
        assert np.abs(chis[0] - direct).max() <= 1e-12 * np.abs(direct).max()

    def test_traced_peak_within_the_estimate(self, monkeypatch):
        # many series and one factor: the chunks' partials are most of the estimate
        n, dims, bw, q = 60, (8, 8, 10), (2, 2, 3), 1
        field = random_field((n, *dims), seed=71)
        system = eigensystem_from_field(field, "ep", bw, q_keep=q)
        monkeypatch.setattr(_rowmap, "_POOL_MIN_COST", 0)
        monkeypatch.setattr(_rowmap.os, "sched_getaffinity", lambda pid: {0, 1})
        # the filter's stage of the entry's bytes: its peak on top of what the eigensystem holds
        layout, need, _ = _plan._filter(n, dims, q, bw, bw)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            commoncomp._apply_projection_frequency(field.values, system, q, bw, layout)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= need

    def test_memory_check_before_the_spectral_step(self, monkeypatch):
        field = random_field((6, 5, 5, 6), seed=72)
        need = _plan.common_component(6, (5, 5, 6), (1, 1, 1), (2, 2, 2), 1, (2, 2, 2))
        monkeypatch.setattr(_plan, "_physical_memory_bytes", lambda: need - 1)
        monkeypatch.setattr(commoncomp, "eigensystem_from_field", None)  # fails if reached
        with pytest.raises(ConfigError, match=f"the common component .* needs {need} bytes"):
            estimate_common_component(field, 1, "ep", (2, 2, 2))
