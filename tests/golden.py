"""A checked-in record of the pipeline's numbers on tiny simulated panels.

Each case is one ``simulate_field`` panel run through the layers on the row
map: the sample autocovariances, the half-grid spectral matrices, the
eigenvalues and phase-fixed eigenvector rows, chi with its mask, and the
stacked baseline's chi (the Gram route).  ``tests/test_golden.py`` recomputes
every case and compares it with the record.

Rewrite the record only on purpose, and say which values moved and why:

    PYTHONPATH=src python tests/golden.py --write
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from stfactor import SimConfig, demean, simulate_field
from stfactor.commoncomp import estimate_common_component
from stfactor.dynpca import eigendecompose_all
from stfactor.simlab import gdfm_baseline
from stfactor.spectral import sample_autocovariance, spectral_from_autocovariance

PATH = Path(__file__).with_name("golden") / "rowmap.npz"

# case name: (design, bandwidths); each has at least two autocovariance rows and filter chunks
CASES = {
    "model_b": (SimConfig("model_b", n=6, dims=(5, 5, 6), q=2, seed=11), (1, 1, 1)),
    "model_a": (SimConfig("model_a", n=5, dims=(4, 5, 8), q=1, idio="correlated", seed=12, r_a=3),
                (1, 1, 2)),
}


def versions() -> str:
    """The numpy and BLAS builds the numbers came from."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, {blas.get('name')} {blas.get('version')}"


def compute(cfg: SimConfig, bw) -> dict[str, np.ndarray]:
    """Every recorded array of one case."""
    field = demean(simulate_field(cfg)[0])
    autocov = sample_autocovariance(field, bw)
    spectral = spectral_from_autocovariance(autocov, "epanechnikov")
    system = eigendecompose_all(spectral, cfg.q)
    est = estimate_common_component(field, cfg.q, "epanechnikov", bw)
    return {
        "gammas": autocov.gammas, "matrices": spectral.matrices,
        "eigenvalues": system.eigenvalues, "rows": system.eigenvectors,
        "chi": est.chi, "mask": est.mask,
        "gdfm_chi": gdfm_baseline(field, cfg.q, "epanechnikov").chi,
    }


def write() -> None:
    arrays = {f"{case}.{name}": value for case, (cfg, bw) in CASES.items()
              for name, value in compute(cfg, bw).items()}
    PATH.parent.mkdir(exist_ok=True)
    np.savez_compressed(PATH, versions=np.array(versions()), **arrays)
    print(f"wrote {PATH} ({PATH.stat().st_size} bytes) from {versions()}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="recompute and overwrite the record")
    if parser.parse_args().write:
        write()
    else:
        parser.print_help()
