import tracemalloc

import numpy as np
import pytest

from stfactor import (
    ConfigError,
    FrequencyGrid,
    LatticeField,
    NoSecondIntervalError,
    NumericError,
    estimate_spectral_density,
    penalty_value,
    stability_scan,
)
from stfactor import _plan, qselect, spectral
from stfactor.qselect import _stable_runs, _tail_means
from stfactor.simlab import SimConfig, simulate_field
from stfactor import demean
from conftest import random_field
from oracles import information_criterion, select_q_fixed_c, subfield

# frozen by an independent scalar evaluation of the penalty formula at
# n=100, dims (25,25,25), B=(4,4,4), smoothness (2,2,2)
PENALTY_REFERENCE = 0.6509959967059817


def flat_eigenvalues(n, value=1.0, bw=(1, 1, 1)):
    """(G, n) full-grid eigenvalues, all equal to ``value``."""
    return np.full((FrequencyGrid(bw).size, n), float(value))


class TestPenalty:
    def test_frozen_reference_value(self):
        value = penalty_value(100, (25, 25, 25), (4, 4, 4), (2.0, 2.0, 2.0))
        assert abs(value - PENALTY_REFERENCE) <= 1e-12 * PENALTY_REFERENCE

    def test_linear_in_scale(self):
        # the criterion's penalty term is k * c * p: doubling c doubles it
        p = penalty_value(100, (25, 25, 25), (4, 4, 4))
        vals = flat_eigenvalues(8)
        free, one, two = information_criterion(vals, 3, np.array([0.0, p, 2.0 * p]))
        assert np.abs((two - free) - 2.0 * (one - free)).max() <= 1e-15

    def test_min_argument_dominance(self):
        # with n the smallest of the five arguments the log factor is log n
        import math

        n, dims, bw = 3, (400, 400, 400), (6, 6, 6)
        value = penalty_value(n, dims, bw, (2.0, 2.0, 2.0))
        v = math.sqrt(400**3) / (math.sqrt(6**3) * math.log(6) ** 3)
        rate = 1 / n + 3 * 6.0**-2 + 1 / v
        assert abs(value - rate * math.log(n)) <= 1e-12

    def test_small_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            penalty_value(10, (9, 9, 9), (1, 2, 2))


class TestInformationCriterion:
    def test_identity_spectrum_closed_form(self):
        n = 8
        pen = penalty_value(n, (25, 25, 25), (4, 4, 4))
        values = information_criterion(flat_eigenvalues(n), 4, pen)
        for k in range(5):
            expected = np.log((n - k) / n) + k * pen
            assert abs(values[k] - expected) <= 1e-12

    def test_zero_k_has_no_penalty(self):
        pen = 123.0 * penalty_value(5, (25, 25, 25), (4, 4, 4))
        value = information_criterion(flat_eigenvalues(5, 2.0), 0, pen)[0]
        assert abs(value - np.log(2.0)) <= 1e-12

    def test_degenerate_spectrum_rejected(self):
        pen = penalty_value(4, (25, 25, 25), (4, 4, 4))
        with pytest.raises(NumericError, match="degenerate"):
            information_criterion(flat_eigenvalues(4, 0.0), 1, pen)

    def test_negative_eigenvalues_clamped(self):
        grid = FrequencyGrid((1, 1, 1))
        vals = np.tile(np.array([2.0, 1.0, -0.5]), (grid.size, 1))
        # the negative eigenvalue contributes zero, not -0.5
        expected = np.log(1.0 / 3.0)
        assert abs(information_criterion(vals, 1, 0.0)[1] - expected) <= 1e-12

    def test_tail_means_match_direct_sum(self):
        means = np.array([5.0, 3.0, 1.0, 0.5])
        tails = _tail_means(means, 3)
        for k in range(4):
            assert abs(tails[k] - means[k:].sum() / 4) <= 1e-15

    def test_unpenalized_ic_non_increasing(self):
        field = random_field((10, 6, 6, 8), seed=40)
        values, _ = select_q_fixed_c(field, 5, kernels="ep", bw=(2, 2, 2), c=0.0)
        assert np.all(np.diff(values) <= 1e-12)


class TestSelectQFixedC:
    def test_white_noise_selects_zero(self):
        field = random_field((60, 15, 15, 15), seed=41)
        _, q_hat = select_q_fixed_c(field, 8, kernels="ep", bw=(3, 3, 3), c=1.0)
        assert q_hat == 0

    def test_factor_panel_selects_truth(self):
        # c chosen inside the stability region of this design (the scan
        # tests below calibrate it from scratch)
        cfg = SimConfig(model="model_b", n=40, dims=(15, 15, 15), q=2, seed=42)
        x, _ = simulate_field(cfg)
        _, q_hat = select_q_fixed_c(demean(x), 8, kernels="ep", bw=(3, 3, 3), c=0.6)
        assert q_hat == 2

    def test_huge_scale_forces_zero(self):
        cfg = SimConfig(model="model_b", n=30, dims=(12, 12, 12), q=3, seed=43)
        x, _ = simulate_field(cfg)
        _, q_hat = select_q_fixed_c(demean(x), 8, kernels="ep", bw=(3, 3, 3), c=1e3)
        assert q_hat == 0

    def test_qmax_validation(self):
        field = random_field((4, 6, 6, 6), seed=44)
        with pytest.raises(ConfigError):
            select_q_fixed_c(field, 4, bw=(2, 2, 2))


class TestStableRuns:
    def test_step_function_table(self):
        # q constant across subsamples everywhere: variability vanishes and
        # the runs are exactly the steps
        q_full = np.array([5, 5, 5, 3, 3, 1, 1, 1, 0, 0])
        table = np.tile(q_full[:, None], (1, 4))
        runs = _stable_runs(table, q_full)
        assert runs == [(0, 2, 5), (3, 4, 3), (5, 7, 1), (8, 9, 0)]
        s_curve = np.var(table, axis=1)
        assert np.all(s_curve == 0.0)

    def test_disagreement_breaks_runs(self):
        table = np.array([[3, 3], [3, 2], [2, 2]])
        runs = _stable_runs(table, table[:, -1])
        assert runs == [(0, 0, 3), (2, 2, 2)]


@pytest.fixture(scope="module")
def panel():
    cfg = SimConfig(model="model_b", n=30, dims=(12, 12, 12), q=2, seed=5)
    x, _ = simulate_field(cfg)
    return demean(x)


class TestStabilityScan:
    def test_selects_truth_and_structure(self, panel):
        c_grid = np.arange(0, 601) / 100.0
        scan = stability_scan(panel, 6, c_grid, subsample_sizes=[27, 24, 21, 18], seed=1)
        assert scan.selected_q == 2
        # underpenalized first interval reports q_max
        assert scan.intervals[0][2] == 6
        assert scan.intervals[0][0] == 0

    @pytest.mark.parametrize("kernels", ["epanechnikov", ("ep", "bartlett", "trunc")])
    def test_reindexed_lag_box_matches_a_permuted_panel(self, monkeypatch, panel, kernels):
        # Gamma'(h) = P Gamma(h) P^T lag by lag: the panel's lag box, re-indexed, is the permuted
        # panel's, so the estimate and every qhat match a scan of an explicitly permuted copy
        args = (panel, 6, np.arange(0, 601) / 100.0)
        kwargs = {"subsample_sizes": [27, 24, 21], "kernels": kernels, "bw": (3, 2, 3), "seed": 4}
        assemble, estimates = qselect.spectral_from_autocovariance, []

        def recorded_assembly(*parts):
            estimates.append(assemble(*parts))
            return estimates[-1]

        monkeypatch.setattr(qselect, "spectral_from_autocovariance", recorded_assembly)
        scan = stability_scan(*args, **kwargs)
        permuted = estimate_spectral_density(
            LatticeField(panel.values[scan.permutation], demeaned=True), kernels, (3, 2, 3))
        assert not np.array_equal(scan.permutation, np.arange(panel.n))
        scale = np.abs(permuted.packed).max()
        assert np.max(np.abs(estimates[0].packed - permuted.packed)) <= 1e-14 * scale
        monkeypatch.setattr(qselect, "spectral_from_autocovariance", lambda *parts: permuted)
        assert np.array_equal(stability_scan(*args, **kwargs).qhat_table, scan.qhat_table)

    def test_q_by_c_non_increasing(self, panel):
        c_grid = np.arange(0, 301) / 50.0
        scan = stability_scan(panel, 6, c_grid, subsample_sizes=[27, 24, 21], seed=2)
        assert np.all(np.diff(scan.q_by_c) <= 0)

    def test_s_curve_matches_direct_recomputation(self, panel):
        c_grid = np.arange(0, 121) / 20.0
        scan = stability_scan(panel, 5, c_grid, subsample_sizes=[27, 24, 21], seed=3)
        table = scan.qhat_table.astype(float)
        oracle = ((table - table.mean(axis=1, keepdims=True)) ** 2).mean(axis=1)
        np.testing.assert_allclose(scan.s_curve, oracle, atol=1e-12)

    def test_determinism(self, panel):
        c_grid = np.arange(0, 121) / 20.0
        one = stability_scan(panel, 5, c_grid, subsample_sizes=[27, 24], seed=9)
        two = stability_scan(panel, 5, c_grid, subsample_sizes=[27, 24], seed=9)
        assert np.array_equal(one.qhat_table, two.qhat_table)
        assert np.array_equal(one.permutation, two.permutation)
        assert one.selected_q == two.selected_q and one.selected_c == two.selected_c

    def test_no_second_interval_error_carries_scan(self, panel):
        # a grid confined to the underpenalized region has only one interval
        c_grid = np.arange(0, 21) / 10000.0
        with pytest.raises(NoSecondIntervalError) as excinfo:
            stability_scan(panel, 5, c_grid, subsample_sizes=[27, 24], seed=4)
        scan = excinfo.value.scan
        assert scan.selected_q is None
        assert len(scan.s_curve) == len(c_grid)

    def test_c_manual_override(self, panel):
        c_grid = np.arange(0, 121) / 20.0
        scan = stability_scan(panel, 5, c_grid, subsample_sizes=[27, 24], seed=5, c_manual=1.5)
        idx = int(np.argmin(np.abs(c_grid - 1.5)))
        assert scan.selected_c == c_grid[idx]
        assert scan.selected_q == scan.q_by_c[idx]

    def test_zero_field_names_subsample_size(self):
        field = LatticeField(np.zeros((12, 6, 6, 6)), demeaned=True)
        with pytest.raises(NumericError, match="degenerate spectrum.*subsample of size 7"):
            stability_scan(field, 2, np.arange(0, 11) / 10.0, subsample_sizes=[7, 9], bw=(2, 2, 2))

    @pytest.mark.parametrize("design", ["model_b", "model_a", "white_noise"])
    def test_q_by_c_matches_fixed_c_oracle(self, design):
        # the scan scores the criterion on half-grid eigenvalues of the
        # permuted panel; the oracle on the full grid of the original one
        if design == "white_noise":
            field = random_field((30, 12, 12, 12), seed=46)
        else:
            x, _ = simulate_field(SimConfig(model=design, n=30, dims=(12, 12, 12), q=2, seed=47))
            field = demean(x)
        c_grid = np.arange(0, 301) / 50.0
        # c_manual skips the interval search, which white noise may not pass
        scan = stability_scan(field, 6, c_grid, subsample_sizes=[20, 25], bw=(2, 2, 2), seed=8,
                              c_manual=0.0)
        _, q_hat = select_q_fixed_c(field, 6, bw=(2, 2, 2), c=c_grid)
        assert np.array_equal(scan.q_by_c, q_hat)
        # column j scores the leading m_j series of the permuted panel
        permuted = LatticeField(field.values[scan.permutation], demeaned=True)
        for j, m in enumerate(scan.subsample_sizes):
            _, q_sub = select_q_fixed_c(subfield(permuted, m), 6, bw=(2, 2, 2), c=c_grid)
            assert np.array_equal(scan.qhat_table[:, j], q_sub), f"column of m={m}"

    def test_non_demeaned_field_is_config_error(self, panel):
        raw = LatticeField(panel.values + 1.0)
        with pytest.raises(ConfigError, match="demeaned"):
            stability_scan(raw, 3, np.arange(0, 10) / 10.0, subsample_sizes=[27], bw=(2, 2, 2))

    def test_validation_errors(self, panel):
        with pytest.raises(ConfigError):
            stability_scan(panel, 40, np.arange(0, 10) / 10.0)
        with pytest.raises(ConfigError):
            stability_scan(panel, 3, np.array([0.3, 0.2, 0.1]))
        with pytest.raises(ConfigError):
            stability_scan(panel, 3, np.arange(0, 10) / 10.0, subsample_sizes=[2])

    @pytest.mark.parametrize("bad", [
        {"c_grid": [0.0, 1.0, np.nan]}, {"c_grid": [np.nan, 1.0]}, {"c_grid": [0.0, np.inf]},
        {"c_manual": np.nan}, {"c_manual": np.inf}, {"c_manual": -np.inf},
    ], ids=["grid_nan_last", "grid_nan_first", "grid_inf", "manual_nan", "manual_inf",
            "manual_minus_inf"])
    def test_non_finite_c_is_config_error_before_the_spectral_step(self, monkeypatch, panel, bad):
        monkeypatch.setattr(qselect, "sample_autocovariance", None)  # fails if reached
        args = {"c_grid": np.arange(0, 10) / 10.0, **bad}
        with pytest.raises(ConfigError, match="must be finite"):
            stability_scan(panel, 3, subsample_sizes=[27], bw=(2, 2, 2), **args)

    @pytest.mark.parametrize("c_manual", [-5.0, -1e-9, 0.9 + 1e-9, 1e9])
    def test_c_manual_outside_the_grid_is_config_error_before_the_spectral_step(
            self, monkeypatch, panel, c_manual):
        monkeypatch.setattr(qselect, "sample_autocovariance", None)  # fails if reached
        with pytest.raises(ConfigError, match=rf"c_manual={c_manual} lies outside the c grid \[0.0, 0.9\]"):
            stability_scan(panel, 3, np.arange(0, 10) / 10.0, subsample_sizes=[27], bw=(2, 2, 2),
                           c_manual=c_manual)

    @pytest.mark.parametrize("kind", ["epanechnikov", "bartlett", "truncated"])
    def test_traced_peak_within_the_spectral_step(self, monkeypatch, kind):
        # n large against the lattice: the whole lag box beside the estimate would not fit;
        # the scan re-indexes the panel's lag box and holds no permuted copy of the panel
        n, dims, bw = 80, (3, 3, 5), (2, 2, 2)
        field = random_field((n, *dims), seed=49)
        grid = FrequencyGrid(bw)
        window = spectral._lag_window(kind, bw)
        # the scan's spectral step: the lag box, its permuted copy and index arrays, the assembly
        autocov = _plan._autocov(n, dims, window)
        spectral_step = _plan._chain(autocov, ({}, autocov[2] + 16 * n * n, 0),
                                     _plan._assembly(n, window, bw))
        assert n * n * (grid.size * 8 + grid.half_count * 16) > spectral_step
        args = (field, 3, np.arange(0, 101) / 50.0)
        kwargs = {"subsample_sizes": [70], "bw": bw, "kernels": kind, "c_manual": 1.0}
        stability_scan(*args, **kwargs)  # numpy's lazy set-up
        assemble, step_peaks = qselect.spectral_from_autocovariance, []

        def traced_assembly(*parts):
            estimate = assemble(*parts)
            step_peaks.append(tracemalloc.get_traced_memory()[1] - base)
            return estimate

        checked, check = [], _plan._check_memory
        monkeypatch.setattr(qselect, "spectral_from_autocovariance", traced_assembly)
        monkeypatch.setattr(_plan, "_check_memory",
                            lambda step, need: checked.append(need) or check(step, need))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            stability_scan(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert step_peaks[0] <= spectral_step  # the spectral step alone, through the assembly
        # then the eigen map and the c grid: one check, by the scan's plan, bounds it all
        assert checked == [_plan.scan(n, dims, window, bw, [70, 80], 101, 3)]
        assert peak <= checked[0]

    def test_memory_check_before_the_spectral_step(self, monkeypatch, panel):
        monkeypatch.setattr(_plan, "_physical_memory_bytes", lambda: 4 * 2**20)
        monkeypatch.setattr(qselect, "sample_autocovariance", None)  # fails if reached
        # the scan's plan, above the c grid's share alone: qhat and its temporaries for sizes
        # (27, 30), scores for q = 0..3
        need = _plan.scan(30, (12, 12, 12), (1, 1, 1), (2, 2, 2), [27, 30], 200_000, 3)
        assert need > 8 * 200_000 * (3 * 2 + 2 * 4)
        with pytest.raises(ConfigError, match=f"200000 c_grid scales needs {need} bytes"):
            stability_scan(panel, 3, np.arange(200_000) / 1e5, subsample_sizes=[27], bw=(2, 2, 2))
