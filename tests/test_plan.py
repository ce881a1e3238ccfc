"""A generated sweep over seeded small shapes, holding each public entry's plan to its word.

Every case draws a design (n from 1 to above V = S1*S2*T, axes of extent 1, q from 0 to n,
one of the three kernels, either model and either noise design) and runs each public entry on
it.  After one warm-up call, each entry must (1) make one memory check, whose bytes bound the
tracemalloc peak of the call, its few kB of Python objects aside; (2) match the references of
``oracles.py`` within 1e-10 of the largest value; (3) give the same bits with its row maps
inline and on two workers.
"""

import math
import threading
import tracemalloc

import numpy as np
import pytest

from stfactor import (
    SimConfig,
    _plan,
    _rowmap,
    demean,
    dynpca,
    eigensystem_from_field,
    eigenvalue_curve_by_size,
    estimate_common_component,
    estimate_spectral_density,
    gdfm_baseline,
    sample_autocovariance,
    simlab,
    simulate_field,
    stability_scan,
    stack_to_time_series,
    stacked_series_as_field,
    substream,
)
from stfactor.spectral import _lag_window
from oracles import (
    convolve_lags,
    direct_autocovariance,
    full_rows,
    lag_coefficients,
    pack,
    select_q_fixed_c,
    separable_convolution_reference,
    spectral_full_reference,
)

RTOL = 1e-10
# tracemalloc also counts a call's own Python objects (generators, array headers, context
# managers), which no plan counts: up to 7.1 kB, the simulator's at n = 1
OBJECTS = 16 << 10


def design(seed: int) -> dict:
    """One seeded case: the simulated design and every entry's settings."""
    rng = np.random.default_rng(seed)
    scan, gram = seed % 3 == 0, seed % 3 == 1  # a scan needs every bandwidth >= 2; Gram: n > V
    side = (1, 3) if gram else (3, 6) if scan else (1, 6)
    dims = tuple(int(d) for d in rng.integers(*side, 2)) + (int(rng.integers(3, 6 if gram else 8)),)
    volume = math.prod(dims)
    n = (int(volume + rng.integers(1, 6)) if gram else 1 if seed == 2
         else int(rng.integers(2 if scan else 1, min(volume, 9) + 1)))
    bw = tuple(0 if d == 1 else 2 if scan else int(rng.integers(1, min(d - 1, 3) + 1)) for d in dims)
    model = str(rng.choice(["model_a", "model_b"]))
    cfg = SimConfig(model, n=n, dims=dims, q=int(rng.integers(0, 4)),
                    idio=str(rng.choice(["iid_gaussian", "correlated"])), seed=seed,
                    r_a=int(rng.integers(1, 4)) if model == "model_a" else None)
    sizes = sorted({int(m) for m in rng.integers(1, n + 1, 2)} | {n})
    q_max = int(rng.integers(0, min(n - 1, 3) + 1)) if scan else 0
    bw_t = int(rng.integers(1, min(dims[2] - 1, 3) + 1))
    return {
        "cfg": cfg, "bw": bw, "kernel": str(rng.choice(["epanechnikov", "bartlett", "truncated"])),
        # the Gram route's rank is V - 1 after demeaning
        "q": int(rng.integers(0, (min(n, volume - 1) if gram else n) + 1)),
        "trunc": tuple(int(rng.integers(0, min(b, d - 1) + 1)) for b, d in zip(bw, dims)),
        "sizes": sizes, "top_k": int(rng.integers(1, sizes[0] + 1)),
        "q_max": q_max, "subsamples": [m for m in sizes if m > max(q_max, 1)],
        "q_t": int(rng.integers(0, min(3, dims[2] - 1) + 1)), "bw_t": bw_t,
        "trunc_t": int(rng.integers(0, bw_t + 1)),
    }


C_GRID = np.arange(0, 201) / 50


def references(case, xd) -> dict:
    """Each entry's outputs from the references of ``oracles.py``."""
    kernel, bw, q = case["kernel"], case["bw"], case["q"]
    full = spectral_full_reference(sample_autocovariance(xd, bw), kernel)
    system = eigensystem_from_field(xd, kernel, bw, q_keep=q)
    chi = convolve_lags(lag_coefficients(system.grid, full_rows(system, q), case["trunc"]), xd.values)
    curve = [np.linalg.eigvalsh(full[:, :m, :m])[:, ::-1].mean(axis=0)[:case["top_k"]]
             for m in case["sizes"]]
    stacked = demean(stacked_series_as_field(stack_to_time_series(xd)))
    bw_t, q_t = (0, 0, case["bw_t"]), case["q_t"]
    stacked_system = eigensystem_from_field(stacked, kernel, bw_t, q_keep=q_t)
    stacked_chi = convolve_lags(lag_coefficients(stacked_system.grid, full_rows(stacked_system, q_t),
                                                 (0, 0, case["trunc_t"])), stacked.values)
    box = direct_autocovariance(xd.values, _lag_window(kernel, bw))
    out = {"autocovariance": box[len(box) // 2:], "spectral": pack(full[:len(full) // 2 + 1]),
           "eigensystem": np.linalg.eigvalsh(full)[:, ::-1], "common_component": chi, "curve": np.array(curve),
           "baseline": stacked_chi.reshape(xd.values.shape)}
    if case["subsamples"][:-1] and min(bw) >= 2:
        out["scan"] = select_q_fixed_c(xd, case["q_max"], kernel, bw, C_GRID)[1]
    return out


def simulation_reference(cfg):
    """chi of replication 0 from the raw draws, one (series, factor) filter at a time."""
    pad = cfg.r_a if cfg.model == "model_a" else 1
    a = substream(cfg.seed, 0, "loadings_a").standard_normal((cfg.n, cfg.q))
    shocks = substream(cfg.seed, 0, "shocks").standard_normal((cfg.q,) + tuple(d + 2 * pad for d in cfg.dims))
    if cfg.model == "model_b":
        spatial, temporal = np.array([0.5, 1.0, 0.5]), np.array([0.0, 1.0, 0.5])
        return separable_convolution_reference(a, lambda ell, j: (spatial, spatial, temporal),
                                               shocks, cfg.dims)
    b = substream(cfg.seed, 0, "decay_b").uniform(0.5, 0.8, size=(cfg.n, cfg.q))
    lags = np.abs(np.arange(-pad, pad + 1))
    return separable_convolution_reference(a, lambda ell, j: (b[ell, j] ** lags,) * 3, shocks, cfg.dims)


def entries(case, xd) -> dict:
    """Each public entry as a call returning its output arrays."""
    kernel, bw, q = case["kernel"], case["bw"], case["q"]
    calls = {
        "simulate": lambda: tuple(f.values for f in simulate_field(case["cfg"])),
        "autocovariance": lambda: (sample_autocovariance(xd, _lag_window(kernel, bw)).gammas,),
        "spectral": lambda: (estimate_spectral_density(xd, kernel, bw).packed,),
        "eigensystem": lambda: (lambda s: (s.eigenvalues, s.eigenvectors))(
            eigensystem_from_field(xd, kernel, bw, q_keep=q)),
        "common_component": lambda: (estimate_common_component(xd, q, kernel, bw, case["trunc"]).chi,),
        "curve": lambda: (eigenvalue_curve_by_size(xd, case["sizes"], case["top_k"], kernel, bw),),
        "baseline": lambda: (gdfm_baseline(xd, case["q_t"], kernel, case["bw_t"], case["trunc_t"]).chi,),
    }
    if case["subsamples"][:-1] and min(bw) >= 2:
        calls["scan"] = lambda: (lambda s: (s.qhat_table, s.q_by_c))(stability_scan(
            xd, case["q_max"], C_GRID, case["subsamples"], kernel, bw, seed=3, c_manual=1.0))
    return calls


def traced(call, checks):
    """The outputs and traced peak of one call, and the bytes of the one memory check it made."""
    del checks[:]
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(checks) == 1, f"{len(checks)} memory checks"
    return out, peak, checks[0]


def close(got, want):
    scale = max(np.abs(want).max(initial=0.0), 1e-300)
    return np.abs(np.asarray(got) - want).max(initial=0.0) <= RTOL * scale


@pytest.mark.parametrize("seed", range(30))
def test_each_entry_within_its_plan_its_references_and_its_bits(monkeypatch, seed):
    case = design(seed)
    xd = demean(simulate_field(case["cfg"])[0])
    want = references(case, xd)
    checks = []
    monkeypatch.setattr(_plan, "_check_memory", lambda step, need: checks.append(need))
    for name, call in entries(case, xd).items():
        call()  # warm-up: numpy's FFT and LAPACK modules load on first use
        runs = []
        for cost, cores in ((math.inf, {0}), (0, {0, 1})):  # inline, then two workers
            monkeypatch.setattr(_rowmap, "_POOL_MIN_COST", cost)
            monkeypatch.setattr(_rowmap.os, "sched_getaffinity", lambda pid, cores=cores: cores)
            out, peak, need = traced(call, checks)
            assert peak <= need + OBJECTS, f"{name}: traced {peak} > planned {need} bytes"
            runs.append(out)
        assert all(np.array_equal(a, b) for a, b in zip(*runs)), f"{name}: bits moved with the workers"
        out = runs[0]
        if name == "simulate":
            assert close(out[1], simulation_reference(case["cfg"]))
        elif name == "eigensystem":
            assert close(out[0], want["eigensystem"][:len(out[0])])
        elif name == "scan":
            assert np.array_equal(out[1], want["scan"])
        else:
            assert close(out[0], want[name]), name


ENTRIES = {
    "simulate_field": lambda f: simulate_field(SimConfig("model_a", n=4, dims=(4, 4, 5), q=2, r_a=2)),
    "sample_autocovariance": lambda f: sample_autocovariance(f, (1, 1, 1)),
    "estimate_spectral_density": lambda f: estimate_spectral_density(f, "ep", (2, 2, 2)),
    "eigensystem_from_field": lambda f: eigensystem_from_field(f, "ep", (2, 2, 2), q_keep=1),
    "eigensystem_from_field_gram": lambda f: eigensystem_from_field(stacked(f), "ep", (0, 0, 2), q_keep=1),
    "estimate_common_component": lambda f: estimate_common_component(f, 1, "ep", (2, 2, 2)),
    "stability_scan": lambda f: stability_scan(f, 2, C_GRID, [4, 5], "ep", (2, 2, 2), c_manual=1.0),
    "eigenvalue_curve_by_size": lambda f: eigenvalue_curve_by_size(f, [3, 6], 2, "ep", (2, 2, 2)),
    # one subpanel on the standard route, two on the Gram route
    "eigenvalue_curve_by_size_gram": lambda f: eigenvalue_curve_by_size(stacked(f), [8, 60, 150], 2, "ep",
                                                                        (0, 0, 2)),
    "gdfm_baseline": lambda f: gdfm_baseline(f, 1, "ep", 2),
}


def stacked(field):
    return demean(stacked_series_as_field(stack_to_time_series(field)))


@pytest.mark.parametrize("entry", ENTRIES)
def test_each_entry_checks_its_memory_once_before_its_first_row_map(monkeypatch, entry):
    # the simulator runs no row map: its check comes before the first draw
    field, events = demean(simulate_field(SimConfig(n=6, dims=(5, 5, 8), seed=35))[0]), []
    monkeypatch.setattr(_rowmap, "_POOL_MIN_COST", 0)
    monkeypatch.setattr(_plan, "_check_memory", lambda step, need: events.append("check"))
    pool = _rowmap.ThreadPoolExecutor
    monkeypatch.setattr(_rowmap, "ThreadPoolExecutor", lambda *a: events.append("map") or pool(*a))
    draw = simlab.substream
    monkeypatch.setattr(simlab, "substream", lambda *a: events.append("draw") or draw(*a))
    ENTRIES[entry](field)
    assert events.count("check") == 1 and events[0] == "check" and len(events) > 1


def test_scan_echoes_the_workers_its_eigen_map_ran(monkeypatch):
    # every size at once costs half * (15^3 + 20^3), above the floor, while half * 20^3 is below it
    monkeypatch.setattr(_rowmap.os, "sched_getaffinity", lambda pid: {0, 1})
    xd = demean(simulate_field(SimConfig("model_b", n=20, dims=(10, 10, 20), seed=1))[0])
    threads, solve = set(), dynpca._solve_rows
    monkeypatch.setattr(dynpca, "_solve_rows", lambda *a: threads.add(threading.get_ident()) or solve(*a))
    scan = stability_scan(xd, subsample_sizes=[15], c_manual=1.0)
    assert scan.settings["bw"] == [3, 3, 4] and scan.subsample_sizes == (15, 20)
    assert scan.settings["eigen_workers"] == len(threads)
    assert len(threads) == (2 if _rowmap._blas_thread_controls() else 1)
