"""Synthetic data generators, error metrics, and the Monte Carlo harness.

Two common-component designs are provided.  Both load q independent
standard-normal shock fields u_j through separable geometric lag
weights:

* model_a -- two-sided convolution with per-series decay,
  chi_{ell,s} = sum_{|kappa_d| <= R} sum_j a_{ell j}
  * b_{ell j}^(|k1|+|k2|+|k3|) * u_{j, s-kappa}, with a ~ N(0,1) and
  b ~ U[0.5, 0.8].  The infinite design is truncated at radius R
  (default 40; the omitted tail weight is at most 0.8^40 ~ 1.3e-4 per
  axis) and shocks are drawn on a lattice padded by R so no observation
  suffers simulation-boundary truncation.

* model_b -- finite convolution with weights 0.5^(|k1|+|k2|+|k3|) over
  kappa from (-1,-1,0) to (1,1,1).

Both designs convolve through one separable helper: a filter is a
(S_d, P_d) band matrix per axis, applied to the padded (P1, P2, P3)
shock field.  model_a runs its n per-series filters of one factor
together, with the loading a_{ell j} folded into series ell's axis-0
weights: axis 0 is one GEMM per block of series, axes 1 and 2 are
batched matrix products over the block, and each block is added into
chi in place.  A block holds at most :data:`_CONV_BUDGET_BYTES`
(16 MiB) of scratch, the axis-0 product plus the block's band
matrices, unless one series alone needs more; the block size is fixed
from the shapes before anything is allocated, so scratch memory does
not grow with n.
The result equals the per-series contraction up to the order of its
sums (about 1e-15 of the largest |chi|).

The idiosyncratic part is either i.i.d. standard normal or the
correlated design xi_{ell,s} = sum_kappa sum_{j=0..4}
0.5^(|k1|+|k2|+|k3|+j) c_{ell j kappa} v_{ell+j, s-kappa} with
c ~ U[0.5, 0.8], which is correlated across series, space, and time.

Randomness is counter-based: every (seed, replication, stream role)
triple opens an independent Philox substream, so results do not depend
on execution order or thread count.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._rowmap import blas_pinned
from .errors import ConfigError, DataError, NumericError
from .field import (
    LatticeField,
    as_demeaned_field,
    demean,
    stack_to_time_series,
    stacked_series_as_field,
)
from .commoncomp import (
    CommonComponentEstimate,
    estimate_common_component,
    interior_mask,
    validate_truncation,
)
from .qselect import DEFAULT_Q_MAX, stability_scan
from .spectral import _check_memory, resolve_kernels, validate_bandwidths

__all__ = [
    "SimConfig",
    "substream",
    "simulate_field",
    "error_metrics",
    "gdfm_baseline",
    "MCResult",
    "run_mc_study",
]

_ROLES = {"loadings_a": 0, "decay_b": 1, "shocks": 2, "idio": 3, "idio_coeff": 4, "scan": 5}


def substream(seed: int, rep: int, role: str) -> np.random.Generator:
    """Independent counter-based generator for one (seed, rep, role)."""
    if rep < 0:
        raise ConfigError(f"replication index must be >= 0, got {rep}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(rep), _ROLES[role]))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class SimConfig:
    """Design of one synthetic panel."""

    model: str = "model_b"
    n: int = 40
    dims: tuple[int, int, int] = (20, 20, 20)
    q: int = 2
    idio: str = "iid_gaussian"
    seed: int = 0
    r_a: int | None = None  # model_a only; None means 40
    n_reps: int = 1

    def __post_init__(self):
        if not isinstance(self.dims, (tuple, list)) or len(self.dims) != 3:
            raise ConfigError(f"dims must hold three extents (S1, S2, T), got {self.dims!r}")
        if self.model == "model_a" and self.r_a is None:
            object.__setattr__(self, "r_a", 40)
        ints = [("n", self.n), ("q", self.q), ("seed", self.seed), ("n_reps", self.n_reps)]
        if self.r_a is not None:
            ints.append(("r_a", self.r_a))
        for name, value in ints + [("dims", d) for d in self.dims]:
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must hold integers, got {value!r}")
        object.__setattr__(self, "dims", tuple(self.dims))
        if self.model not in ("model_a", "model_b"):
            raise ConfigError(f"unknown model {self.model!r}")
        if self.idio not in ("iid_gaussian", "correlated"):
            raise ConfigError(f"unknown idiosyncratic design {self.idio!r}")
        if self.q < 0:
            raise ConfigError("q must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.model == "model_a" and self.r_a < 1:
            raise ConfigError("model_a truncation radius must be >= 1")
        if self.model == "model_b" and self.r_a is not None:
            raise ConfigError(f"r_a={self.r_a}: model_b has no truncation radius")
        if self.n < 1 or min(self.dims) < 1:
            raise ConfigError("n and all extents must be positive")


# scratch bytes per block of filters in _convolve_separable
_CONV_BUDGET_BYTES = 16 * 2**20


def _conv_block(dims, padded):
    """Filters per block of _convolve_separable and one filter's scratch floats (held at most twice)."""
    (s1, s2, t), (p1, p2, p3) = dims, padded
    per_filter = s1 * p2 * p3 + s1 * p1 + s2 * p2 + t * p3
    return max(1, _CONV_BUDGET_BYTES // (8 * per_filter)), per_filter


def _convolve_separable(shock: np.ndarray, weights, out: np.ndarray) -> None:
    """Add k separable lag filters of one padded shock field into ``out``.

    ``weights`` holds one (k, 2 r_d + 1) array per axis d; row i gives
    filter i's weights at lags kappa_d = -r_d..r_d.  ``out`` is
    (k, S1, S2, T) and ``shock`` has extents P_d = S_d + 2 p_d with
    p_d >= r_d; out[i, s] += sum_kappa prod_d w_i,d(kappa_d) u[s + p - kappa].
    """
    k, s1, s2, t = out.shape
    p1, p2, p3 = shock.shape
    # band row s holds w(kappa) at padded column s + p - kappa; lags past
    # the radius read the zero column appended to the weights
    cols, padded = [], []
    for w, s, p in zip(weights, out.shape[1:], shock.shape):
        radius = (w.shape[1] - 1) // 2
        kappa = np.arange(s)[:, None] + (p - s) // 2 - np.arange(p)
        cols.append(np.where(np.abs(kappa) <= radius, kappa + radius, 2 * radius + 1))
        padded.append(np.pad(w, ((0, 0), (0, 1))))
    block = _conv_block(out.shape[1:], shock.shape)[0]
    flat = shock.reshape(p1, p2 * p3)
    for lo in range(0, k, block):
        m0, m1, m2 = (w[lo:lo + block, c] for w, c in zip(padded, cols))
        m = len(m0)
        step = (m0.reshape(m * s1, p1) @ flat).reshape(m, s1, p2, p3)
        step = m1[:, None] @ step
        out[lo:lo + m] += (step.reshape(m, s1 * s2, p3) @ m2.transpose(0, 2, 1)).reshape(
            m, s1, s2, t)


def _model_a_chi(a, b, shocks, radius, dims):
    """Truncated geometric convolution; shocks padded at least by radius."""
    lags = np.abs(np.arange(-radius, radius + 1))
    chi = np.zeros((len(a),) + tuple(dims))
    for j in range(a.shape[1]):
        weights = b[:, j, None] ** lags
        # the loading a_{ell j} scales series ell's axis-0 filter
        _convolve_separable(shocks[j], (a[:, j, None] * weights, weights, weights), chi)
    return chi


def _idio_correlated(cfg: SimConfig, rep: int) -> np.ndarray:
    """Cross-sectionally, spatially, and serially correlated noise.

    Each xi_ell mixes shock rows ell..ell+4 with geometric weights, so
    series up to 4 apart are correlated and farther pairs are not.
    """
    n = cfg.n
    s1, s2, t = cfg.dims
    v = substream(cfg.seed, rep, "idio").standard_normal((n + 4, s1 + 2, s2 + 2, t + 1))
    kappas = list(itertools.product((-1, 0, 1), (-1, 0, 1), (0, 1)))
    coeffs = substream(cfg.seed, rep, "idio_coeff").uniform(
        0.5, 0.8, size=(n, 5, len(kappas))
    )
    xi = np.zeros((n, s1, s2, t))
    rows = np.arange(n)
    for j in range(5):
        block = v[j:j + n]
        for k_idx, (k1, k2, k3) in enumerate(kappas):
            weight = 0.5 ** (abs(k1) + abs(k2) + abs(k3) + j)
            sl = (
                slice(1 - k1, 1 - k1 + s1),
                slice(1 - k2, 1 - k2 + s2),
                slice(1 - k3, 1 - k3 + t),
            )
            xi += weight * coeffs[rows, j, k_idx][:, None, None, None] * block[:, sl[0], sl[1], sl[2]]
    return xi


def simulate_field(cfg: SimConfig, rep: int = 0):
    """Draw replication ``rep`` of the configured design; returns (x, chi_true).

    With q = 0 the loadings and shocks are empty, chi is zero and x is
    the idiosyncratic draw itself.  Raises ConfigError before the first
    draw when the design would not fit in physical memory.
    """
    pad = cfg.r_a if cfg.model == "model_a" else 1
    padded = tuple(d + 2 * pad for d in cfg.dims)
    # at once: the shocks, four panels (chi, a product or xi, x), the correlated draws, a block
    block, per_filter = _conv_block(cfg.dims, padded)
    draws = (cfg.n + 4) * math.prod(d + 2 for d in cfg.dims) if cfg.idio == "correlated" else 0
    _check_memory(f"the {cfg.model} design with n={cfg.n}, dims={cfg.dims}, q={cfg.q}, idio={cfg.idio}",
                  8 * (cfg.q * math.prod(padded) + 4 * cfg.n * math.prod(cfg.dims) + draws
                       + 2 * min(block, cfg.n) * per_filter))
    a = substream(cfg.seed, rep, "loadings_a").standard_normal((cfg.n, cfg.q))
    shocks = substream(cfg.seed, rep, "shocks").standard_normal((cfg.q,) + padded)
    if cfg.model == "model_a":
        b = substream(cfg.seed, rep, "decay_b").uniform(0.5, 0.8, size=(cfg.n, cfg.q))
        chi = _model_a_chi(a, b, shocks, pad, cfg.dims)
    else:
        spatial = np.array([[0.5, 1.0, 0.5]])
        temporal = np.array([[0.0, 1.0, 0.5]])  # lags kappa_3 in {0, 1} only
        chi = np.zeros((cfg.n,) + cfg.dims)
        for j in range(cfg.q):
            base = np.zeros((1,) + cfg.dims)
            _convolve_separable(shocks[j], (spatial, spatial, temporal), base)
            chi += a[:, j][:, None, None, None] * base
    if cfg.idio == "iid_gaussian":
        xi = substream(cfg.seed, rep, "idio").standard_normal((cfg.n,) + cfg.dims)
    else:
        xi = _idio_correlated(cfg, rep)
    return LatticeField(chi + xi), LatticeField(chi)


# ---------------------------------------------------------------------------
# Error metrics
# ---------------------------------------------------------------------------


def error_metrics(chi_hat: np.ndarray, chi_true: np.ndarray, mask=None):
    """(E1, E2): mean squared error and truth-standardized squared error.

    E1 averages (chi_hat - chi_true)^2 over the scored (series, lattice
    point) pairs; E2 divides their total squared error by their total
    squared truth.  ``mask``, a boolean array of the lattice shape,
    selects the scored points; None scores every point.
    """
    chi_hat = np.asarray(chi_hat, dtype=np.float64)
    chi_true = np.asarray(chi_true, dtype=np.float64)
    if chi_hat.shape != chi_true.shape:
        raise ConfigError(f"shape mismatch {chi_hat.shape} vs {chi_true.shape}")
    if mask is not None:
        mask = np.asarray(mask)
        if mask.dtype != bool or mask.shape != chi_true.shape[1:]:
            raise ConfigError(f"mask must be a boolean array of shape {chi_true.shape[1:]}, "
                              f"got {mask.dtype} of shape {mask.shape}")
        # boolean indexing copies in Fortran order, which sums in another
        # order: a full mask stays unindexed and scores bit for bit like None
        if not mask.all():
            chi_hat, chi_true = chi_hat[:, mask], chi_true[:, mask]
    diff = chi_hat - chi_true
    if diff.size == 0:
        raise ConfigError("the mask holds no lattice point")
    sq_err = float(np.sum(diff**2))
    sq_truth = float(np.sum(chi_true**2))
    e1 = sq_err / diff.size
    if sq_truth == 0.0:
        raise NumericError("E2 undefined: true common component has zero energy")
    return e1, sq_err / sq_truth


# ---------------------------------------------------------------------------
# Stacked purely-temporal baseline
# ---------------------------------------------------------------------------


def gdfm_baseline(
    field: LatticeField, q: int, kernels="epanechnikov", bw_t=None, trunc_t=None
) -> CommonComponentEstimate:
    """Purely temporal factor estimate of the stacked panel.

    The n*S1*S2 (series, location) pairs are stacked into one long
    vector time series (a reshaped view of the panel) and the standard
    pipeline runs with degenerate spatial axes (single zero spatial
    frequency, no spatial lags), which reduces every formula to its
    one-dimensional temporal special case.  The estimate is reshaped
    back to field shape for comparison against the truth; its mask and
    ``settings`` describe the temporal filter, bw (0, 0, B_T) and trunc
    (0, 0, M_T), on the field's lattice.
    """
    sf = as_demeaned_field(stacked_series_as_field(stack_to_time_series(field)).values)
    # unset values resolve on the stacked (1, 1, T) lattice: B_T by default, M_T = B_T
    bw = None if bw_t is None else (0, 0, int(bw_t))
    trunc = None if trunc_t is None else (0, 0, int(trunc_t))
    est = estimate_common_component(sf, q, kernels, bw, trunc)
    settings = {**est.settings, "n": field.n, "dims": list(field.dims)}
    return CommonComponentEstimate(est.chi.reshape(field.values.shape),
                                   interior_mask(field.dims, settings["trunc"]), settings)


# ---------------------------------------------------------------------------
# Monte Carlo harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MCResult:
    """Per-replication metrics plus their means and standard errors."""

    study: str
    n_reps: int
    metrics: dict
    settings: dict
    seed: int

    def mean(self, name: str) -> float:
        return float(np.mean(self.metrics[name]))

    def standard_error(self, name: str) -> float:
        vals = np.asarray(self.metrics[name], dtype=np.float64)
        if len(vals) < 2:
            return 0.0
        return float(vals.std(ddof=1) / np.sqrt(len(vals)))

    def summary(self) -> dict:
        return {
            "study": self.study,
            "n_reps": self.n_reps,
            "means": {k: self.mean(k) for k in self.metrics},
            "standard_errors": {k: self.standard_error(k) for k in self.metrics},
            "settings": self.settings,
            "seed": self.seed,
        }


def _accuracy_rep(cfg, rep, q_fit, kernels, bw, trunc):
    x, chi_true = simulate_field(cfg, rep)
    xd = demean(x)
    est = estimate_common_component(xd, q_fit, kernels, bw, trunc)
    e1, e2 = error_metrics(est.chi, chi_true.values)
    e1_int, e2_int = error_metrics(est.chi, chi_true.values, est.mask)
    return {"E1": e1, "E2": e2, "E1_interior": e1_int, "E2_interior": e2_int}


def _comparison_rep(cfg, rep, q_fit, kernels, bw, trunc):
    x, chi_true = simulate_field(cfg, rep)
    xd = demean(x)
    est = estimate_common_component(xd, q_fit, kernels, bw, trunc)
    base = gdfm_baseline(xd, q_fit, kernels, bw[2], trunc[2])
    # the interior is the stricter (spatio-temporal) one, so both are scored like for like
    row = {}
    for region, mask in (("", None), ("_interior", est.mask)):
        for method, chi in (("", est.chi), ("_gdfm", base.chi)):
            row[f"E1{method}{region}"], row[f"E2{method}{region}"] = error_metrics(
                chi, chi_true.values, mask)
    return row


def _selection_rep(cfg, rep, q_max, kernels, bw, c_grid, subsample_sizes):
    xd = demean(simulate_field(cfg, rep)[0])  # the raw panel and the truth are not kept
    scan_seed = int(substream(cfg.seed, rep, "scan").integers(0, 2**63 - 1))
    scan = stability_scan(
        xd, q_max, c_grid, subsample_sizes=subsample_sizes,
        kernels=kernels, bw=bw, seed=scan_seed,
    )
    q_hat = int(scan.selected_q)
    return {
        "q_hat": q_hat,
        "correct": float(q_hat == cfg.q),
        "under": float(q_hat < cfg.q),
        "over": float(q_hat > cfg.q),
    }


def run_mc_study(
    cfg: SimConfig,
    study: str = "accuracy",
    n_reps: int | None = None,
    q_fit: int | None = None,
    kernels="epanechnikov",
    bw=None,
    trunc=None,
    q_max: int | None = None,
    c_grid=None,
    subsample_sizes=None,
    threads: int = 1,
) -> MCResult:
    """Repeat simulate -> estimate -> score over seeded replications.

    Replication r draws every random object from substreams keyed by
    (cfg.seed, r), so the result is independent of execution order and
    of ``threads``; any failing replication aborts the study naming its
    index and seed, except that a configuration or data error propagates
    unchanged.  ``q_max``, ``c_grid`` and ``subsample_sizes`` (defaults
    as in ``stability_scan``) are read by the selection study only;
    giving one to another study is an error.  Both estimate studies also
    score the interior, and fail before any replication if there is none.
    """
    if study not in ("accuracy", "comparison", "selection"):
        raise ConfigError(f"unknown study {study!r}")
    if study == "selection" and (trunc is not None or q_fit is not None):
        raise ConfigError("the selection study estimates q and filters nothing: "
                          "it takes neither trunc nor q_fit")
    scan_args = {"q_max": q_max, "c_grid": c_grid, "subsample_sizes": subsample_sizes}
    unread = [name for name, value in scan_args.items() if value is not None]
    if study != "selection" and unread:
        raise ConfigError(f"{', '.join(unread)}: read by the selection study only, not {study!r}")
    n_reps = cfg.n_reps if n_reps is None else int(n_reps)
    if n_reps < 1:
        raise ConfigError("n_reps must be >= 1")
    if threads < 1:
        raise ConfigError(f"threads={threads} must be >= 1")
    # resolved once, so every replication and the echo use the same values
    kernels = resolve_kernels(kernels)
    bw = validate_bandwidths(bw, cfg.dims)
    if study == "selection":
        q_max = DEFAULT_Q_MAX if q_max is None else q_max
    else:
        q_fit = cfg.q if q_fit is None else int(q_fit)
        trunc = validate_truncation(trunc, bw, cfg.dims)
        if not interior_mask(cfg.dims, trunc).any():
            raise ConfigError(f"dims {list(cfg.dims)} leave no interior point at truncation "
                              f"{list(trunc)}, which the {study} study scores")

    def one(rep: int) -> dict:
        try:
            if study == "accuracy":
                return _accuracy_rep(cfg, rep, q_fit, kernels, bw, trunc)
            if study == "comparison":
                return _comparison_rep(cfg, rep, q_fit, kernels, bw, trunc)
            return _selection_rep(cfg, rep, q_max, kernels, bw, c_grid, subsample_sizes)
        except (ConfigError, DataError):
            raise  # bad settings or data: the same in every replication
        except Exception as exc:
            raise NumericError(f"replication {rep} (seed {cfg.seed}) failed: {exc}") from exc

    with blas_pinned():  # one BLAS thread for the whole study, between the row maps too
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                rows = list(pool.map(one, range(n_reps)))
        else:
            rows = [one(rep) for rep in range(n_reps)]

    names = list(rows[0])
    metrics = {name: np.array([row[name] for row in rows]) for name in names}
    settings = {
        "model": cfg.model, "n": cfg.n, "dims": list(cfg.dims), "q": cfg.q,
        "idio": cfg.idio, "r_a": cfg.r_a, "study": study, "q_fit": q_fit,
        "q_max": q_max,
        "kernels": [k.kind for k in kernels],
        "bw": list(bw),
        "trunc": None if trunc is None else list(trunc),
        "threads": threads,
        "truth_retained": False,
    }
    return MCResult(study, n_reps, metrics, settings, cfg.seed)

