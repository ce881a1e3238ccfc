"""A checked-in record of the pipeline's numbers on tiny simulated panels.

Each case of ``rowmap.npz`` is one ``simulate_field`` panel run through the
layers on the row map: the sample autocovariances (the whole box of the
kernel's lag window, rebuilt from the stored half by ``oracles.full_box``),
the half-grid spectral matrices, the eigenvalues and phase-fixed eigenvector
rows, chi with its mask, and the stacked baseline's chi (the Gram route).  ``studies.npz`` holds the
per-replication metrics of the three Monte Carlo studies (the comparison's
whole-lattice columns), one stability scan and both eigengap curves (nested
submatrices and the Gram route).  ``draws.npz`` holds ``simulate_field``'s raw
x and chi for every replication of every design above, and of one design with
several model_a factors.  ``tests/test_golden.py`` recomputes every array and
compares it with the record.

Rewrite the record only on purpose, and say which values moved and why:

    PYTHONPATH=src python tests/golden.py --write

``--diff`` recomputes the record and prints, for every array, whether its
bytes equal the checked-in ones and its largest move max|new - old| / max|old|.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from stfactor import (
    SimConfig,
    as_demeaned_field,
    demean,
    eigenvalue_curve_by_size,
    simulate_field,
    stability_scan,
    stack_to_time_series,
    stacked_series_as_field,
)
from stfactor.commoncomp import estimate_common_component
from stfactor.dynpca import eigendecompose_all
from stfactor.simlab import gdfm_baseline, run_mc_study
from stfactor.spectral import _lag_window, sample_autocovariance, spectral_from_autocovariance
from oracles import full_box

PATH = Path(__file__).with_name("golden") / "rowmap.npz"
STUDIES_PATH = PATH.with_name("studies.npz")
DRAWS_PATH = PATH.with_name("draws.npz")

# case name: (design, bandwidths); each has at least two autocovariance rows and filter chunks
CASES = {
    "model_b": (SimConfig("model_b", n=6, dims=(5, 5, 6), q=2, seed=11), (1, 1, 1)),
    "model_a": (SimConfig("model_a", n=5, dims=(4, 5, 8), q=1, idio="correlated", seed=12, r_a=3),
                (1, 1, 2)),
    "q0": (SimConfig("model_b", n=4, dims=(4, 4, 6), q=0, seed=13), (1, 1, 1)),
    "q3": (SimConfig("model_b", n=7, dims=(4, 5, 6), q=3, seed=14), (1, 1, 2)),
}


def versions() -> str:
    """The numpy and BLAS builds the numbers came from."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, {blas.get('name')} {blas.get('version')}"


def compute(cfg: SimConfig, bw) -> dict[str, np.ndarray]:
    """Every recorded array of one case."""
    field = demean(simulate_field(cfg)[0])
    autocov = sample_autocovariance(field, _lag_window("epanechnikov", bw))
    spectral = spectral_from_autocovariance(autocov, "epanechnikov", bw)
    system = eigendecompose_all(spectral, cfg.q)
    est = estimate_common_component(field, cfg.q, "epanechnikov", bw)
    return {
        "gammas": full_box(autocov), "matrices": spectral.matrices,
        "eigenvalues": system.eigenvalues, "rows": system.eigenvectors,
        "chi": est.chi, "mask": est.mask,
        "gdfm_chi": gdfm_baseline(field, cfg.q, "epanechnikov").chi,
    }


# study: (design, run_mc_study arguments, recorded metrics; None records every one)
STUDIES = {
    "accuracy": (SimConfig("model_a", n=5, dims=(5, 5, 8), q=1, idio="correlated", seed=23,
                           r_a=3, n_reps=2), {"bw": (1, 1, 2)}, None),
    "comparison": (SimConfig("model_b", n=6, dims=(5, 5, 8), q=1, seed=22, n_reps=2),
                   {"bw": (1, 1, 2)}, ("E1", "E2", "E1_gdfm", "E2_gdfm")),
    "selection": (SimConfig("model_b", n=12, dims=(5, 5, 8), q=1, seed=21, n_reps=2),
                  {"bw": (2, 2, 2), "q_max": 3, "c_grid": np.arange(0, 401) / 100,
                   "subsample_sizes": [8, 10]}, None),
}

# the scan's and both curves' panel, and the panel whose stacked pairs feed the Gram-route curve
SCAN = SimConfig("model_b", n=12, dims=(5, 5, 8), q=2, seed=24)
STACKED = SimConfig("model_b", n=4, dims=(3, 3, 8), q=1, seed=25)


def compute_studies() -> dict[str, np.ndarray]:
    """Every array of the studies' record."""
    arrays = {}
    for study, (cfg, kwargs, names) in STUDIES.items():
        metrics = run_mc_study(cfg, study, **kwargs).metrics
        arrays.update({f"{study}.{name}": metrics[name] for name in names or metrics})
    field = demean(simulate_field(SCAN)[0])
    scan = stability_scan(field, 3, np.arange(0, 401) / 100, subsample_sizes=[8, 10],
                          bw=(2, 2, 2), seed=5)
    arrays.update({
        "scan.qhat_table": scan.qhat_table, "scan.s_curve": scan.s_curve,
        "scan.intervals": np.array(scan.intervals),
        "scan.selected": np.array([scan.selected_c, scan.selected_q]),
        "curve.nested": eigenvalue_curve_by_size(field, [4, 8, 12], 3, "epanechnikov", (2, 2, 2)),
    })
    # 36 stacked (series, site) pairs on a (1, 1, 8) lattice: every size m > 8 is a Gram route
    small = demean(simulate_field(STACKED)[0])
    stacked = as_demeaned_field(stacked_series_as_field(stack_to_time_series(small)).values)
    arrays["curve.gram"] = eigenvalue_curve_by_size(stacked, [12, 24, 36], 3, "epanechnikov",
                                                    (0, 0, 2))
    return arrays


DRAWS = {**{case: cfg for case, (cfg, _) in CASES.items()},
         **{study: cfg for study, (cfg, _, _) in STUDIES.items()},
         "scan": SCAN, "stacked": STACKED,
         "model_a_q3": SimConfig("model_a", n=4, dims=(3, 4, 5), q=3, seed=15, r_a=2)}


def compute_draws() -> dict[str, np.ndarray]:
    """x and chi of every replication of every design in DRAWS."""
    arrays = {}
    for name, cfg in DRAWS.items():
        for rep in range(cfg.n_reps):
            x, chi = simulate_field(cfg, rep)
            arrays[f"{name}.{rep}.x"], arrays[f"{name}.{rep}.chi"] = x.values, chi.values
    return arrays


def records() -> dict[Path, dict[str, np.ndarray]]:
    """Every file of the record, recomputed."""
    arrays = {f"{case}.{name}": value for case, (cfg, bw) in CASES.items()
              for name, value in compute(cfg, bw).items()}
    return {PATH: arrays, STUDIES_PATH: compute_studies(), DRAWS_PATH: compute_draws()}


def write() -> None:
    PATH.parent.mkdir(exist_ok=True)
    for path, record in records().items():
        np.savez_compressed(path, versions=np.array(versions()), **record)
        print(f"wrote {path} ({path.stat().st_size} bytes) from {versions()}")


def move(new: np.ndarray, old: np.ndarray) -> float:
    """max|new - old| / max|old| (0 when both are all zero, inf for a new shape)."""
    if new.shape != old.shape:
        return np.inf
    if new.size == 0:
        return 0.0
    new, old = (a.astype(np.int64) if a.dtype == bool else a for a in (new, old))
    largest, scale = float(np.max(np.abs(new - old))), float(np.max(np.abs(old)))
    return largest / scale if scale else (0.0 if largest == 0 else np.inf)


def diff() -> bool:
    """Print each array's byte equality and largest move against the record; True if no bytes moved."""
    same = True
    for path, record in records().items():
        with np.load(path) as data:
            old = dict(data)
        print(f"{path.name}: recorded from {old.pop('versions')}, recomputed from {versions()}")
        for name in sorted(set(record) | set(old)):
            if name not in record or name not in old:
                print(f"  {name}: only in the {'record' if name in old else 'recomputation'}")
                same = False
                continue
            new, was = np.asarray(record[name]), old[name]
            equal = new.dtype == was.dtype and new.shape == was.shape and new.tobytes() == was.tobytes()
            same &= equal
            print(f"  {name}: bytes {'equal' if equal else 'differ'}, largest move {move(new, was):.3g}")
    return same


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="recompute and overwrite the record")
    parser.add_argument("--diff", action="store_true",
                        help="compare a recomputation with the record, array by array; exit 1 if bytes moved")
    args = parser.parse_args()
    if args.write:
        write()
    elif args.diff:
        raise SystemExit(0 if diff() else 1)
    else:
        parser.print_help()
