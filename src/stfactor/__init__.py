"""Dynamic factor analysis for spatio-temporal random fields on a lattice.

The pipeline: lag-window spectral density estimation of an
n-dimensional field observed on an S1 x S2 x T lattice, frequency-wise
dynamic principal components, common-component recovery through
truncated two-sided projection filters, penalty-calibrated selection of
the number of factors, and a Monte Carlo harness for the synthetic
designs used to validate all of it.
"""

__version__ = "0.1.0"

from .errors import ConfigError, DataError, NumericError
from .field import (
    LatticeField,
    as_demeaned_field,
    demean,
    load_field,
    stack_to_time_series,
    stacked_series_as_field,
    store_field,
)
from .spectral import (
    AutocovarianceSet,
    FrequencyGrid,
    Kernel,
    SpectralDensityEstimate,
    default_bandwidths,
    estimate_spectral_density,
    make_kernel,
    sample_autocovariance,
)
from .dynpca import (
    DynamicEigenSystem,
    eigendecompose_all,
    eigensystem_from_field,
    eigenvalue_curve_by_size,
)
from .qselect import NoSecondIntervalError, StabilityScan, penalty_value, stability_scan
from .commoncomp import (
    CommonComponentEstimate,
    estimate_common_component,
    interior_mask,
)
from .simlab import (
    GdfmResult,
    MCResult,
    SimConfig,
    error_metrics,
    gdfm_baseline,
    run_mc_study,
    simulate_field,
    simulate_idio_correlated,
    simulate_model_a,
    simulate_model_b,
    substream,
)

__all__ = [
    "ConfigError", "DataError", "NumericError",
    "LatticeField", "as_demeaned_field", "demean", "load_field",
    "stack_to_time_series", "stacked_series_as_field", "store_field",
    "AutocovarianceSet", "FrequencyGrid", "Kernel", "SpectralDensityEstimate",
    "default_bandwidths", "estimate_spectral_density", "make_kernel", "sample_autocovariance",
    "DynamicEigenSystem", "eigendecompose_all", "eigensystem_from_field",
    "eigenvalue_curve_by_size",
    "NoSecondIntervalError", "StabilityScan", "penalty_value", "stability_scan",
    "CommonComponentEstimate", "estimate_common_component", "interior_mask",
    "GdfmResult", "MCResult", "SimConfig", "error_metrics", "gdfm_baseline", "run_mc_study",
    "simulate_field", "simulate_idio_correlated", "simulate_model_a", "simulate_model_b",
    "substream",
]
