import math
import tracemalloc

import numpy as np
import pytest

from oracles import gamma, separable_convolution_reference
from stfactor import (
    ConfigError,
    LatticeField,
    NumericError,
    SimConfig,
    demean,
    error_metrics,
    estimate_common_component,
    gdfm_baseline,
    run_mc_study,
    sample_autocovariance,
    simulate_field,
    substream,
)
from stfactor import _plan, _rowmap, simlab
from stfactor.simlab import _idio_correlated, _model_a_chi

# blocked products reorder the sums of the per-series contractions
CONV_RTOL = 1e-13


def model_a_chi(a, b, shocks, radius, dims):
    """model_a's chi from the shocks, in the blocks the simulator's plan gives their padding."""
    pad = (shocks.shape[1] - dims[0]) // 2
    block = _plan._simulation(len(a), dims, len(shocks), pad, False)[0]["block"]
    return _model_a_chi(a, b, shocks, radius, dims, block)


def model_a_inputs(n, dims, q, radius, seed=0):
    a = substream(seed, 0, "loadings_a").standard_normal((n, q))
    b = substream(seed, 0, "decay_b").uniform(0.5, 0.8, size=(n, q))
    padded = tuple(d + 2 * radius for d in dims)
    return a, b, substream(seed, 0, "shocks").standard_normal((q,) + padded)


def assert_matches_reference(chi, ref):
    assert np.abs(chi - ref).max() <= CONV_RTOL * np.abs(ref).max()


class TestSimConfig:
    def test_rejects_non_integer_values(self):
        for bad in ({"dims": (5, 5)}, {"dims": (5, 5, 6.0)}, {"q": 1.5}, {"n": "40"},
                    {"seed": True}, {"model": "model_c"}, {"idio": "ar1"}):
            with pytest.raises(ConfigError):
                SimConfig(**bad)
        assert SimConfig(n=np.int64(6), dims=[5, 5, 6]).dims == (5, 5, 6)

    def test_radius_belongs_to_model_a(self):
        assert SimConfig(model="model_a").r_a == 40
        assert SimConfig(model="model_a", r_a=3).r_a == 3
        assert SimConfig(model="model_b").r_a is None
        with pytest.raises(ConfigError, match="r_a=3: model_b"):
            SimConfig(model="model_b", r_a=3)
        with pytest.raises(ConfigError, match="r_a must hold integers"):
            SimConfig(model="model_a", r_a=2.5)


class TestModelA:
    @pytest.mark.parametrize("idio", ["iid_gaussian", "correlated"])
    @pytest.mark.parametrize("model", ["model_a", "model_b"])
    def test_zero_factors_gives_pure_noise(self, model, idio):
        cfg = SimConfig(model=model, n=3, dims=(4, 4, 6), q=0, idio=idio, seed=1)
        x, chi = simulate_field(cfg)
        assert np.all(chi.values == 0.0)
        if idio == "iid_gaussian":
            noise = substream(cfg.seed, 0, "idio").standard_normal((3, 4, 4, 6))
        else:
            noise = _idio_correlated(cfg, 0)
        assert x.values.tobytes() == noise.tobytes()

    def test_seed_determinism(self):
        cfg = SimConfig(model="model_a", n=4, dims=(5, 5, 8), q=2, seed=7, r_a=10)
        x1, c1 = simulate_field(cfg)
        x2, c2 = simulate_field(cfg)
        assert np.array_equal(x1.values, x2.values)
        assert np.array_equal(c1.values, c2.values)
        x3, _ = simulate_field(cfg, rep=1)
        assert not np.array_equal(x1.values, x3.values)

    def test_truncation_radius_adequacy(self):
        # same shock stream, radii 40 vs 60: the dropped tail carries
        # weight at most 0.8^40 per axis
        cfg = SimConfig(model="model_a", n=5, dims=(6, 6, 10), q=2, seed=3, r_a=60)
        a = substream(cfg.seed, 0, "loadings_a").standard_normal((cfg.n, cfg.q))
        b = substream(cfg.seed, 0, "decay_b").uniform(0.5, 0.8, size=(cfg.n, cfg.q))
        padded = tuple(d + 120 for d in cfg.dims)
        shocks = substream(cfg.seed, 0, "shocks").standard_normal((cfg.q,) + padded)
        chi40 = model_a_chi(a, b, shocks, 40, cfg.dims)
        chi60 = model_a_chi(a, b, shocks, 60, cfg.dims)
        assert np.abs(chi40 - chi60).max() <= 1e-3 * chi60.std()

    # golden: the CLI golden file's shape; ragged: n=30 is 23 + 7 series
    # per block; budget: a two-series budget gives blocks of 2, 2, 2, 1
    @pytest.mark.parametrize("n,dims,q,radius,budget_filters", [
        (3, (4, 4, 5), 1, 15, None),
        (30, (10, 10, 16), 2, 40, None),
        (7, (5, 6, 7), 2, 6, 2),
    ], ids=["golden", "ragged", "budget"])
    def test_convolution_matches_per_series_reference(self, monkeypatch, n, dims, q, radius,
                                                      budget_filters):
        a, b, shocks = model_a_inputs(n, dims, q, radius, seed=9)
        if budget_filters is not None:
            (s1, s2, t), (p1, p2, p3) = dims, shocks.shape[1:]
            per_filter = 8 * (s1 * p2 * p3 + s1 * p1 + s2 * p2 + t * p3)
            monkeypatch.setattr(_plan, "_CONV_BUDGET_BYTES", budget_filters * per_filter)
        lags = np.abs(np.arange(-radius, radius + 1))
        ref = separable_convolution_reference(a, lambda ell, j: [b[ell, j] ** lags] * 3,
                                              shocks, dims)
        assert_matches_reference(model_a_chi(a, b, shocks, radius, dims), ref)

    @pytest.mark.parametrize("n,dims", [(100, (10, 10, 100)), (100, (25, 25, 25))],
                             ids=["eigengap", "cube"])
    def test_convolution_scratch_stays_within_budget(self, n, dims):
        a, b, shocks = model_a_inputs(n, dims, 2, 40)
        tracemalloc.start()
        try:
            chi = model_a_chi(a, b, shocks, 40, dims)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - chi.nbytes <= 3 * _plan._CONV_BUDGET_BYTES


class TestModelB:
    def test_conditional_variance_formula(self):
        # sum of squared moving-average weights: 1.5 * 1.5 * 1.25 = 2.8125
        cfg = SimConfig(model="model_b", n=4, dims=(30, 30, 200), q=2, seed=11)
        _, chi = simulate_field(cfg)
        a = substream(cfg.seed, 0, "loadings_a").standard_normal((cfg.n, cfg.q))
        predicted = 2.8125 * (a**2).sum(axis=1)
        sample = chi.values.var(axis=(1, 2, 3))
        assert np.all(np.abs(sample / predicted - 1.0) <= 0.10)

    def test_zero_factors(self):
        cfg = SimConfig(model="model_b", n=2, dims=(4, 4, 4), q=0, seed=2)
        _, chi = simulate_field(cfg)
        assert np.all(chi.values == 0.0)

    def test_seed_determinism(self):
        cfg = SimConfig(model="model_b", n=3, dims=(5, 5, 6), q=2, seed=4)
        x1, _ = simulate_field(cfg)
        x2, _ = simulate_field(cfg)
        assert np.array_equal(x1.values, x2.values)

    def test_chi_matches_per_series_reference(self):
        cfg = SimConfig(model="model_b", n=6, dims=(5, 6, 7), q=2, seed=12)
        _, chi = simulate_field(cfg)
        a = substream(cfg.seed, 0, "loadings_a").standard_normal((cfg.n, cfg.q))
        shocks = substream(cfg.seed, 0, "shocks").standard_normal((cfg.q, 7, 8, 9))
        spatial, temporal = np.array([0.5, 1.0, 0.5]), np.array([0.0, 1.0, 0.5])
        ref = separable_convolution_reference(a, lambda ell, j: (spatial, spatial, temporal),
                                              shocks, cfg.dims)
        assert_matches_reference(chi.values, ref)

    def test_temporal_support_is_one_sided(self):
        # weights act on shocks at t and t-1 only: chi at t=1 must not
        # depend on shocks strictly after the first time slice
        cfg = SimConfig(model="model_b", n=2, dims=(4, 4, 6), q=1, seed=5)
        _, chi = simulate_field(cfg)
        shocks = substream(cfg.seed, 0, "shocks").standard_normal((1, 6, 6, 8))
        a = substream(cfg.seed, 0, "loadings_a").standard_normal((2, 1))
        manual = np.zeros((4, 4))
        for k1 in (-1, 0, 1):
            for k2 in (-1, 0, 1):
                for k3 in (0, 1):
                    w = 0.5 ** (abs(k1) + abs(k2) + abs(k3))
                    manual += w * shocks[0, 1 - k1 : 5 - k1, 1 - k2 : 5 - k2, 1 - k3]
        np.testing.assert_allclose(chi.values[0, :, :, 0], a[0, 0] * manual, rtol=1e-12)


class TestCorrelatedIdio:
    def test_cross_sectional_correlation_structure(self):
        cfg = SimConfig(model="model_b", n=12, dims=(12, 12, 160), q=0,
                        idio="correlated", seed=21)
        xi = _idio_correlated(cfg, 0)
        flat = xi.reshape(12, -1)
        flat = flat - flat.mean(axis=1, keepdims=True)
        corr = np.corrcoef(flat)
        near = np.mean([corr[i, i + 1] for i in range(11)])
        far = np.mean([abs(corr[i, i + 5]) for i in range(7)])
        assert near > 0.1
        assert near > far
        assert far < 0.05

    def test_temporal_ma_support(self):
        # first-order temporal moving average: autocovariance at lag 2 is
        # zero up to sampling noise
        cfg = SimConfig(model="model_b", n=3, dims=(8, 8, 500), q=0,
                        idio="correlated", seed=22)
        xi = _idio_correlated(cfg, 0)
        field = demean(LatticeField(xi))
        ac = sample_autocovariance(field, (1, 1, 2))
        lag2 = gamma(ac, (0, 0, 2))
        lag0 = gamma(ac, (0, 0, 0))
        assert np.abs(lag2).max() <= 0.05 * np.abs(np.diag(lag0)).max()

    def test_seed_determinism(self):
        cfg = SimConfig(model="model_b", n=3, dims=(4, 4, 5), q=0, idio="correlated", seed=23)
        assert np.array_equal(_idio_correlated(cfg, 0), _idio_correlated(cfg, 0))

    def test_dispatch_through_simulate_field(self):
        cfg = SimConfig(model="model_b", n=3, dims=(4, 4, 5), q=1, idio="correlated", seed=24)
        x, chi = simulate_field(cfg)
        xi = x.values - chi.values
        np.testing.assert_allclose(xi, _idio_correlated(cfg, 0), rtol=1e-12)


class TestSimulationMemory:
    """simulate_field checks its memory against an upper bound before the first draw."""

    @pytest.mark.parametrize("model, idio, n, dims, q, r_a", [
        ("model_a", "iid_gaussian", 7, (5, 6, 9), 2, 3),
        ("model_a", "correlated", 9, (4, 5, 7), 3, 4),
        ("model_b", "iid_gaussian", 12, (6, 5, 8), 2, None),
        ("model_b", "correlated", 5, (7, 6, 5), 1, None),
        # shocks larger than the rest: holding all four at once would top the bound
        ("model_a", "iid_gaussian", 2, (3, 3, 3), 4, 6),
    ], ids=["model_a_iid", "model_a_correlated", "model_b_iid", "model_b_correlated",
            "model_a_four_factors"])
    def test_traced_peak_within_the_checked_bound(self, monkeypatch, model, idio, n, dims, q, r_a):
        cfg = SimConfig(model, n=n, dims=dims, q=q, idio=idio, seed=3, r_a=r_a)
        simulate_field(cfg)  # numpy's modules load on first use
        needs = []
        check = _plan._check_memory
        monkeypatch.setattr(_plan, "_check_memory",
                            lambda step, need: needs.append(need) or check(step, need))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            simulate_field(cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # a shock field and the next one's draw, chi, xi and x, the correlated draws, two blocks
        pad = r_a if model == "model_a" else 1
        (s1, s2, t), (p1, p2, p3) = dims, (d + 2 * pad for d in dims)
        per_filter = s1 * p2 * p3 + s1 * p1 + s2 * p2 + t * p3
        block = max(1, _plan._CONV_BUDGET_BYTES // (8 * per_filter))
        draws = (n + 4) * math.prod(d + 2 for d in dims) if idio == "correlated" else 0
        need = 8 * (min(q, 2) * p1 * p2 * p3 + 3 * n * math.prod(dims) + draws
                    + 2 * min(block, n) * per_filter)
        assert needs == [_plan._simulation(n, dims, q, pad, idio == "correlated")[1]] == [need]
        assert peak <= need

    def test_holds_the_blas_pin(self, monkeypatch):
        # model_a's products run on one BLAS thread, so x does not depend on the thread count
        sets, seen = [], []
        monkeypatch.setattr(_rowmap, "_blas_thread_controls", lambda: (lambda: 3, sets.append))
        convolve = simlab._convolve_separable
        monkeypatch.setattr(simlab, "_convolve_separable",
                            lambda *args: seen.append(sets[:]) or convolve(*args))
        simulate_field(SimConfig("model_a", n=3, dims=(3, 3, 4), q=2, r_a=2))
        assert sets == [1, 3] and seen == [[1], [1]]

    def test_raises_before_the_first_draw(self, monkeypatch):
        monkeypatch.setattr(simlab, "substream", None)  # a draw would raise TypeError
        monkeypatch.setattr(_plan, "_physical_memory_bytes", lambda: 1024)
        cfg = SimConfig("model_a", n=4, dims=(3, 3, 4), q=1, idio="correlated", r_a=2)
        with pytest.raises(ConfigError, match=r"model_a design with n=4, dims=\(3, 3, 4\), q=1, "
                                              r"idio=correlated needs \d+ bytes, more than the 1024"):
            simulate_field(cfg)


class TestErrorMetrics:
    def test_perfect_estimate(self):
        chi = np.random.default_rng(0).standard_normal((2, 3, 3, 4))
        assert error_metrics(chi, chi) == (0.0, 0.0)

    def test_zero_estimate_standardizes_to_one(self):
        chi = np.random.default_rng(1).standard_normal((2, 3, 3, 4))
        e1, e2 = error_metrics(np.zeros_like(chi), chi)
        assert e2 == 1.0

    def test_constant_offset(self):
        chi = np.random.default_rng(2).standard_normal((2, 3, 3, 4))
        e1, _ = error_metrics(chi + 1.0, chi)
        assert abs(e1 - 1.0) <= 1e-12

    def test_e2_identity(self):
        rng = np.random.default_rng(3)
        chi = rng.standard_normal((3, 4, 4, 5))
        chi_hat = chi + 0.1 * rng.standard_normal(chi.shape)
        e1, e2 = error_metrics(chi_hat, chi)
        sq_err = np.sum((chi_hat - chi) ** 2)
        assert abs(e2 * np.sum(chi**2) - sq_err) <= 1e-10 * sq_err

    def test_interior_region(self):
        rng = np.random.default_rng(4)
        chi = rng.standard_normal((2, 4, 4, 4))
        chi_hat = chi.copy()
        chi_hat[:, 0] += 10.0  # corrupt a boundary slab only
        mask = np.zeros((4, 4, 4), bool)
        mask[1:3, 1:3, 1:3] = True
        e1_int, _ = error_metrics(chi_hat, chi, mask)
        assert e1_int == 0.0
        e1_all, _ = error_metrics(chi_hat, chi)
        assert e1_all > 1.0

    def test_no_mask_scores_every_point(self):
        rng = np.random.default_rng(5)
        chi = rng.standard_normal((2, 3, 4, 5))
        chi_hat = chi + 0.3 * rng.standard_normal(chi.shape)
        full = error_metrics(chi_hat, chi, np.ones((3, 4, 5), bool))
        assert np.array(error_metrics(chi_hat, chi)).tobytes() == np.array(full).tobytes()

    @pytest.mark.parametrize("mask", [np.ones((3, 4), bool), np.ones((2, 3, 4, 5), bool),
                                      np.ones((3, 4, 5)), np.ones((3, 4, 5), int)],
                             ids=["short", "with_series_axis", "float", "int"])
    def test_bad_mask_rejected(self, mask):
        chi = np.ones((2, 3, 4, 5))
        with pytest.raises(ConfigError, match=r"shape \(3, 4, 5\), got .* of shape"):
            error_metrics(chi, chi, mask)

    def test_zero_truth_rejected(self):
        with pytest.raises(NumericError):
            error_metrics(np.ones((1, 2, 2, 2)), np.zeros((1, 2, 2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            error_metrics(np.zeros((1, 2, 2, 2)), np.zeros((1, 2, 2, 3)))

    def test_empty_region_rejected(self):
        chi = np.ones((1, 2, 2, 2))
        with pytest.raises(ConfigError, match="holds no lattice point"):
            error_metrics(chi, chi, np.zeros((2, 2, 2), bool))


class TestGdfmBaseline:
    def test_bit_identical_on_degenerate_spatial_axes(self):
        cfg = SimConfig(model="model_b", n=6, dims=(1, 1, 30), q=1, seed=31)
        x, _ = simulate_field(cfg)
        xd = demean(x)
        direct = estimate_common_component(xd, 1, "ep", (0, 0, 4), (0, 0, 4))
        stacked = gdfm_baseline(xd, 1, "ep", 4, 4)
        assert np.array_equal(direct.chi, stacked.chi)
        assert np.array_equal(direct.mask, stacked.mask)
        assert direct.settings == stacked.settings

    def test_shapes_and_mask(self):
        cfg = SimConfig(model="model_b", n=4, dims=(3, 4, 20), q=1, seed=32)
        x, _ = simulate_field(cfg)
        out = gdfm_baseline(demean(x), 1, "ep", 3, 2)
        assert out.chi.shape == (4, 3, 4, 20)
        # the temporal filter's settings on the field's lattice
        assert out.settings["n"] == 4 and out.settings["dims"] == [3, 4, 20]
        assert out.settings["bw"] == [0, 0, 3] and out.settings["trunc"] == [0, 0, 2]
        # time-interior only; spatial axes unconstrained
        assert out.mask.shape == (3, 4, 20)
        assert out.mask[:, :, 2:18].all() and not out.mask[:, :, :2].any()

    def test_ignoring_space_costs_accuracy(self):
        cfg = SimConfig(model="model_b", n=20, dims=(8, 8, 16), q=2, seed=33)
        x, chi = simulate_field(cfg)
        xd = demean(x)
        est = estimate_common_component(xd, 2)
        base = gdfm_baseline(xd, 2)
        e1, _ = error_metrics(est.chi, chi.values)
        g1, _ = error_metrics(base.chi, chi.values)
        assert e1 < g1


class TestRunMcStudy:
    def test_accuracy_study_metrics(self):
        cfg = SimConfig(model="model_b", n=8, dims=(6, 6, 8), q=1, seed=41, n_reps=3)
        out = run_mc_study(cfg, "accuracy", bw=(2, 2, 2))
        assert out.n_reps == 3
        assert set(out.metrics) == {"E1", "E2", "E1_interior", "E2_interior"}
        assert all(len(v) == 3 for v in out.metrics.values())
        assert out.mean("E2") > 0

    def test_thread_count_does_not_change_results(self):
        cfg = SimConfig(model="model_b", n=8, dims=(6, 6, 8), q=1, seed=42, n_reps=4)
        seq = run_mc_study(cfg, "accuracy", bw=(2, 2, 2), threads=1)
        par = run_mc_study(cfg, "accuracy", bw=(2, 2, 2), threads=4)
        for name in seq.metrics:
            assert np.array_equal(seq.metrics[name], par.metrics[name])

    def test_replication_pool_holds_the_blas_pin(self, monkeypatch):
        # two replications on two threads, each with its row maps: BLAS is set to one thread
        # once, stays there across every map of both replications, and is restored once
        sets, maps = [], []
        monkeypatch.setattr(_rowmap, "_POOL_MIN_COST", 0)
        monkeypatch.setattr(_rowmap, "_blas_thread_controls", lambda: (lambda: 3, sets.append))
        pool = _rowmap.ThreadPoolExecutor
        monkeypatch.setattr(_rowmap, "ThreadPoolExecutor", lambda *a: maps.append(sets[:]) or pool(*a))
        cfg = SimConfig(model="model_b", n=8, dims=(6, 6, 8), q=1, seed=42)
        run_mc_study(cfg, "accuracy", bw=(2, 2, 2), n_reps=2, threads=2)
        assert sets == [1, 3] and len(maps) >= 4
        assert all(seen == [1] for seen in maps)

    def test_comparison_study(self):
        cfg = SimConfig(model="model_b", n=10, dims=(5, 5, 12), q=1, seed=43, n_reps=2)
        out = run_mc_study(cfg, "comparison", bw=(1, 1, 3))
        assert list(out.metrics) == ["E1", "E2", "E1_gdfm", "E2_gdfm", "E1_interior",
                                     "E2_interior", "E1_gdfm_interior", "E2_gdfm_interior"]
        assert "region" not in out.settings

    def test_comparison_baseline_uses_temporal_bw_and_trunc(self):
        cfg = SimConfig(model="model_b", n=6, dims=(5, 5, 16), q=1, seed=45)
        out = run_mc_study(cfg, "comparison", bw=(2, 2, 7), trunc=(1, 1, 3))
        assert out.settings["bw"] == [2, 2, 7] and out.settings["trunc"] == [1, 1, 3]
        x, chi = simulate_field(cfg)
        est = estimate_common_component(demean(x), 1, "ep", (2, 2, 7), (1, 1, 3))
        base = gdfm_baseline(demean(x), 1, "ep", 7, 3)
        assert out.metrics["E1_gdfm"][0] == error_metrics(base.chi, chi.values)[0]
        # both interior columns score the spatio-temporal estimate's mask
        assert out.metrics["E1_interior"][0] == error_metrics(est.chi, chi.values, est.mask)[0]
        assert out.metrics["E1_gdfm_interior"][0] == error_metrics(base.chi, chi.values,
                                                                   est.mask)[0]

    def test_failing_replication_names_itself(self):
        cfg = SimConfig(model="model_b", n=10, dims=(5, 5, 8), q=1, seed=44, n_reps=2)
        with pytest.raises(NumericError, match="replication 0"):
            # a two-point c grid cannot contain two stability intervals
            run_mc_study(cfg, "selection", q_max=3, bw=(2, 2, 2),
                         c_grid=np.array([0.0, 1e-6]), subsample_sizes=[8, 9])

    @pytest.mark.parametrize("study", ["accuracy", "comparison"])
    @pytest.mark.parametrize("scan_arg", [{"q_max": 3}, {"c_grid": np.array([0.0, 1.0])},
                                          {"subsample_sizes": [8, 9]}],
                             ids=["q_max", "c_grid", "subsample_sizes"])
    def test_scan_arguments_outside_selection_rejected(self, study, scan_arg):
        cfg = SimConfig(model="model_b", n=10, dims=(5, 5, 8), q=1, seed=46)
        with pytest.raises(ConfigError, match="selection study only"):
            run_mc_study(cfg, study, bw=(2, 2, 2), **scan_arg)

    def test_selection_records_resolved_q_max(self):
        cfg = SimConfig(model="model_b", n=20, dims=(8, 8, 8), q=1, seed=46)
        out = run_mc_study(cfg, "selection", bw=(2, 2, 2))
        assert out.settings["q_max"] == 10
        assert run_mc_study(cfg, "accuracy", bw=(2, 2, 2)).settings["q_max"] is None

    @pytest.mark.parametrize("study", ["accuracy", "comparison"])
    def test_empty_interior_fails_before_any_work(self, monkeypatch, study):
        def no_work(*args, **kwargs):
            raise AssertionError("a replication started")

        monkeypatch.setattr(simlab, "simulate_field", no_work)
        # the default M = B = (2, 2, 2) leaves no interior point on 4 x 4 x 6
        cfg = SimConfig(model="model_b", n=4, dims=(4, 4, 6), q=1)
        with pytest.raises(ConfigError, match=r"dims \[4, 4, 6\] .* truncation \[2, 2, 2\]"):
            run_mc_study(cfg, study, n_reps=1)

    def test_interior_check_builds_no_mask(self, monkeypatch):
        # a 400^3 interior mask alone is 64 MB: the simulator's memory check fires first
        monkeypatch.setattr(_plan, "_physical_memory_bytes", lambda: 2**20)
        cfg = SimConfig(model="model_b", n=4, dims=(400, 400, 400), q=1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with pytest.raises(ConfigError, match=r"model_b design with n=4, dims=\(400, 400, 400\)"):
                run_mc_study(cfg, "accuracy", n_reps=1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2**20
