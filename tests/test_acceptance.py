"""End-to-end acceptance suite.

One test per numbered criterion; each prints a PASS/FAIL line with the
measured quantities.  Reproduction bands correspond to the desk-scale
benchmark targets; the constants every run uses (kernels, bandwidths,
truncations) are recorded in the printed line.
"""

import time

import numpy as np
import pytest

from stfactor import (
    LatticeField,
    SimConfig,
    as_demeaned_field,
    demean,
    eigensystem_from_field,
    eigenvalue_curve_by_size,
    error_metrics,
    estimate_common_component,
    estimate_spectral_density,
    make_kernel,
    run_mc_study,
    sample_autocovariance,
    simulate_field,
    stability_scan,
    stack_to_time_series,
    stacked_series_as_field,
    substream,
)
from oracles import gamma, mirror

pytestmark = pytest.mark.acceptance


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def eigengap_panel():
    """Shared data for criteria 1 and 2: factor panel, its eigenvalue
    curve over nested panel sizes, and the run time of the curve."""
    cfg = SimConfig(model="model_a", n=100, dims=(10, 10, 100), q=2, seed=0)
    x, _ = simulate_field(cfg)
    xd = demean(x)
    start = time.time()
    curve = eigenvalue_curve_by_size(xd, [20, 40, 60, 80, 100], 3, "ep", (3, 3, 7))
    elapsed = time.time() - start
    return xd, curve, elapsed


@pytest.mark.slow
def test_criterion_1_eigengap(eigengap_panel):
    _, curve, elapsed = eigengap_panel
    failures = []
    if not (np.all(np.diff(curve[:, 0]) > 0) and np.all(np.diff(curve[:, 1]) > 0)):
        failures.append("leading averaged eigenvalues not strictly increasing")
    l3_ratio = curve[-1, 2] / curve[0, 2]
    if not curve[-1, 2] <= 2.0 * curve[0, 2]:
        failures.append(f"third eigenvalue grew {l3_ratio:.2f}x (> 2x its m=20 value)")
    gap = curve[-1, 1] / curve[-1, 2]
    if not gap >= 3.0:
        failures.append(f"gap ratio {gap:.2f} < 3")
    if not elapsed <= 600.0:
        failures.append(f"runtime {elapsed:.0f}s > 600s")
    detail = (
        f"l1 {np.round(curve[:, 0], 1).tolist()}, l2 {np.round(curve[:, 1], 1).tolist()}, "
        f"l3 growth {l3_ratio:.2f}x, gap ratio {gap:.2f}, {elapsed:.0f}s"
    )
    report(1, not failures, detail)
    assert not failures, "; ".join(failures)


@pytest.mark.slow
def test_criterion_2_no_gap_for_stacked_baseline(eigengap_panel):
    xd, curve, _ = eigengap_panel
    panel_gap = curve[-1, 1] / curve[-1, 2]
    stacked = stack_to_time_series(xd)
    sfield = as_demeaned_field(stacked_series_as_field(stacked).values)
    top = eigenvalue_curve_by_size(sfield, [sfield.n], 10, "ep", (0, 0, 7))[0]
    ratios = top[1:-1] / top[2:]
    ok = bool(np.all(ratios <= panel_gap))
    report(
        2, ok,
        f"stacked consecutive ratios (2..10) max {ratios.max():.2f} "
        f"vs factor-panel gap {panel_gap:.2f}",
    )
    assert ok


@pytest.mark.slow
def test_criterion_3_accuracy_tables():
    start = time.time()
    kernel, bw, trunc, reps = "ep", (6, 6, 6), (6, 6, 6), 20
    results = {}
    for model in ("model_b", "model_a"):
        cfg = SimConfig(model=model, n=40, dims=(20, 20, 20), q=2, seed=0, n_reps=reps)
        out = run_mc_study(cfg, "accuracy", kernels=kernel, bw=bw, trunc=trunc)
        results[model] = (out.mean("E1"), out.mean("E2"))
    elapsed = time.time() - start
    e1_b, e2_b = results["model_b"]
    e1_a, _ = results["model_a"]
    failures = []
    if not 0.10 <= e1_b <= 0.35:
        failures.append(f"model_b mean E1 {e1_b:.3f} outside [0.10, 0.35]")
    if not 0.015 <= e2_b <= 0.07:
        failures.append(f"model_b mean E2 {e2_b:.4f} outside [0.015, 0.07]")
    if not 0.20 <= e1_a <= 0.55:
        failures.append(f"model_a mean E1 {e1_a:.3f} outside [0.20, 0.55]")
    if not elapsed <= 1800.0:
        failures.append(f"runtime {elapsed:.0f}s > 1800s")
    detail = (
        f"model_b E1 {e1_b:.3f} E2 {e2_b:.4f}; model_a E1 {e1_a:.3f}; "
        f"settings ep B=M={bw}; N={reps}; {elapsed:.0f}s"
    )
    report(3, not failures, detail)
    assert not failures, "; ".join(failures)


@pytest.mark.slow
def test_criterion_4_stacked_baseline_comparison():
    cfg = SimConfig(model="model_b", n=30, dims=(10, 10, 20), q=2, seed=0, n_reps=20)
    out = run_mc_study(cfg, "comparison")
    own, base = out.metrics["E1"], out.metrics["E1_gdfm"]
    wins = int(np.sum(own < base))
    ok = (own.mean() <= 0.5 * base.mean()) and wins >= 18
    report(
        4, ok,
        f"factor-panel mean E1 {own.mean():.3f} vs stacked {base.mean():.3f}; "
        f"ordering holds {wins}/20",
    )
    assert ok


@pytest.mark.slow
def test_criterion_5_factor_count_selection():
    start = time.time()
    rates = {}
    for q in (0, 1, 2, 3):
        cfg = SimConfig(model="model_b", n=100, dims=(25, 25, 25), q=q, seed=0, n_reps=20)
        out = run_mc_study(cfg, "selection", q_max=10)
        rates[q] = out.mean("correct")
    elapsed = time.time() - start
    ok = all(rate >= 0.9 for rate in rates.values())
    report(
        5, ok,
        "correct rates " + ", ".join(f"q={q}: {r:.2f}" for q, r in rates.items())
        + f"; subsamples n-5j, c grid 0:0.0005:3, q_max=10; {elapsed:.0f}s",
    )
    assert ok, rates


def test_criterion_6_exact_identity_suite():
    failures = []
    field = demean(LatticeField(substream(60, 0, "idio").standard_normal((6, 8, 7, 9))))
    est = estimate_spectral_density(field, "ep", (2, 2, 3))
    m = mirror(est.matrices)
    if np.max(np.abs(m - np.conj(m.transpose(0, 2, 1)))) != 0.0:
        failures.append("Hermitianity not exact")
    if not np.array_equal(m[::-1], np.conj(m)):
        failures.append("conjugate frequency symmetry not exact")
    ac = sample_autocovariance(field, (2, 2, 3))
    gamma0 = gamma(ac, (0, 0, 0))
    if np.max(np.abs(m.mean(axis=0) - gamma0)) > 1e-10 * np.abs(gamma0).max():
        failures.append("inverse-transform grid mean != lag-0 autocovariance")
    for h in [(1, 0, 0), (2, -1, 3), (0, 2, -1)]:
        if not np.array_equal(gamma(ac, tuple(-c for c in h)), gamma(ac, h).T):
            failures.append(f"autocovariance reversal not exact at {h}")
    full = np.linalg.eigvalsh(m)[:, ::-1]
    for sub_n in (2, 4):
        sub = np.linalg.eigvalsh(m[:, :sub_n, :sub_n])[:, ::-1]
        if not np.all(sub <= full[:, :sub_n] + 1e-10):
            failures.append(f"interlacing violated for subpanel {sub_n}")
    est_full = estimate_common_component(field, field.n, "ep", (2, 2, 3))
    dev = np.abs(est_full.chi[:, est_full.mask] - field.values[:, est_full.mask]).max()
    if dev > 1e-9:
        failures.append(f"full-rank reconstruction off by {dev:.2e}")
    chi_hat = est_full.chi
    truth = field.values
    e1, e2 = error_metrics(chi_hat + 0.1, truth)
    sq = np.sum((chi_hat + 0.1 - truth) ** 2)
    if abs(e2 * np.sum(truth**2) - sq) > 1e-10 * sq:
        failures.append("E2 identity violated")
    cfg = SimConfig(model="model_b", n=24, dims=(10, 10, 10), q=2, seed=3)
    x, _ = simulate_field(cfg)
    scan = stability_scan(demean(x), 6, np.arange(0, 301) / 100.0,
                          subsample_sizes=[22, 20, 18], seed=2)
    if not np.all(np.diff(scan.q_by_c) <= 0):
        failures.append("full-sample estimate not non-increasing in c")
    mc_cfg = SimConfig(model="model_b", n=8, dims=(6, 6, 8), q=1, seed=4, n_reps=4)
    seq = run_mc_study(mc_cfg, "accuracy", bw=(2, 2, 2), threads=1)
    par = run_mc_study(mc_cfg, "accuracy", bw=(2, 2, 2), threads=4)
    for name in seq.metrics:
        if not np.array_equal(seq.metrics[name], par.metrics[name]):
            failures.append(f"thread count changed metric {name}")
    report(6, not failures, "exact identities, reconstruction, monotonicity, determinism")
    assert not failures, "; ".join(failures)


def test_criterion_7_brute_force_oracles():
    from test_spectral import brute_force_spectral

    failures = []
    field = demean(LatticeField(substream(70, 0, "idio").standard_normal((3, 5, 5, 6))))
    for kind in ("epanechnikov", "bartlett", "truncated"):
        est = estimate_spectral_density(field, kind, (2, 2, 2))
        full = mirror(est.matrices)
        scale = np.abs(full).max()
        kernel = make_kernel(kind)
        worst = max(
            np.max(np.abs(full[g] - brute_force_spectral(
                field.values, (kernel,) * 3, (2, 2, 2), est.grid.points[g])))
            for g in range(est.grid.size)
        )
        if worst > 1e-10 * scale:
            failures.append(f"{kind} lag window deviates {worst:.2e} from direct double sum")
    cfg = SimConfig(model="model_b", n=4, dims=(30, 30, 200), q=2, seed=7)
    _, chi = simulate_field(cfg)
    a = substream(cfg.seed, 0, "loadings_a").standard_normal((4, 2))
    ratio = chi.values.var(axis=(1, 2, 3)) / (2.8125 * (a**2).sum(axis=1))
    if not np.all(np.abs(ratio - 1.0) <= 0.10):
        failures.append(f"moving-average variance ratio off: {np.round(ratio, 3)}")
    report(7, not failures, "direct-sum equivalence at every grid point; variance formula")
    assert not failures, "; ".join(failures)


@pytest.mark.slow
def test_criterion_8_spectral_error_shrinks_with_lattice():
    def max_entry_mse(dim, bw, seed):
        noise = substream(80, seed, "idio").standard_normal((4, dim, dim, dim))
        f = demean(LatticeField(noise))
        est = estimate_spectral_density(f, "ep", (bw, bw, bw))
        return (np.abs(mirror(est.matrices) - np.eye(4)) ** 2).mean(axis=0).max()

    mses = []
    for dim in (8, 12, 16):
        bw = max(2, round(dim ** (3.0 / 7.0)))
        mses.append(np.mean([max_entry_mse(dim, bw, s) for s in (1, 2, 3)]))
    ok = mses[0] > mses[1] > mses[2]
    report(8, ok, f"max-entry MSE {np.round(mses, 4).tolist()} over lattices 8/12/16")
    assert ok
