"""The four benchmark workloads: inputs from the seed, one op, output checks.

One op is one Monte Carlo replication (``accuracy``, ``selection``,
``comparison``) or one eigengap curve (``eigengap``), at the shapes of the
acceptance criteria 3, 5, 1+2 and 4.  Op ``i`` of a run draws its panel from
``SimConfig(seed=op_seed(seed, i))``, so one ``--seed`` always gives the
same inputs; op 0 is the untimed warm-up.

Every op's outputs are checked against invariants that hold for any seed.
``evaluate`` returns the op's numeric outputs (written out at 17
significant digits) and the list of failed checks.  ``summaries`` maps a
printed statistic to the output it averages over the timed ops: estimator
quality, deterministic for a seed.
"""

from __future__ import annotations

import math

import numpy as np

import stfactor

C_GRID = np.arange(0, 6001) / 2000.0  # 0:0.0005:3, the criterion-5 grid
Q_MAX = 10


def op_seed(seed: int, i: int) -> int:
    return seed * 1_000_003 + i


def _estimate_failures(captured) -> list[str]:
    """Interior mask count equals prod(d - 2M) for every estimate of the op."""
    estimates = [result for name, result in captured if name == "projection"]
    if not estimates:
        return ["no common-component estimate captured"]
    failures = []
    for est in estimates:
        expected = math.prod(d - 2 * m for d, m in zip(est.settings["dims"], est.settings["trunc"]))
        if int(est.mask.sum()) != expected:
            failures.append(f"interior count {int(est.mask.sum())} != {expected}")
    return failures


def _estimate_evaluation(result, captured):
    """Outputs of an accuracy or comparison study and their failed checks.

    E1 finite and E2 finite in (0, 1) for every E1*/E2* metric, plus the
    interior mask count of every estimate.
    """
    outputs = {key: float(values[0]) for key, values in result.metrics.items()}
    failures = []
    for key, value in outputs.items():
        if key.startswith("E1") and not math.isfinite(value):
            failures.append(f"{key}={value} not finite")
        if key.startswith("E2") and not (math.isfinite(value) and 0.0 < value < 1.0):
            failures.append(f"{key}={value} outside (0, 1)")
    return outputs, failures + _estimate_failures(captured)


class _Workload:
    cycle = 1  # ops per cycle; the timed loop stops only between cycles
    min_ops = 2

    def __init__(self, seed: int):
        self.seed = seed

    def config(self, i: int, **design):
        return stfactor.SimConfig(seed=op_seed(self.seed, i), **design)


class Accuracy(_Workload):
    """Criterion 3: model_b and model_a replications in turn, n=40, 20^3."""

    name = "accuracy"
    cycle = 2
    min_ops = 4
    summaries = {"e2_mean": "E2"}
    layers = ("simlab.simulate", "field.demean", "spectral.autocov", "spectral.assembly",
              "dynpca.eigendecompose", "commoncomp.projection", "simlab.metrics")

    def call(self, i: int):
        model = "model_b" if i % 2 == 0 else "model_a"
        cfg = self.config(i, model=model, n=40, dims=(20, 20, 20), q=2)
        return stfactor.run_mc_study(
            cfg, "accuracy", n_reps=1, kernels="ep", bw=(6, 6, 6), trunc=(6, 6, 6), threads=1
        )

    def evaluate(self, i, result, captured):
        return _estimate_evaluation(result, captured)


class Selection(_Workload):
    """Criterion 5: model_b, n=100, 25^3, q=2, q_max=10, 17 subsamples."""

    name = "selection"
    q = 2
    summaries = {"q_correct_frac": "correct", "c_miss_share": "c_miss_share"}
    layers = ("simlab.simulate", "field.demean", "spectral.autocov", "spectral.assembly",
              "qselect.scan")

    def call(self, i: int):
        cfg = self.config(i, model="model_b", n=100, dims=(25, 25, 25), q=self.q)
        return stfactor.run_mc_study(cfg, "selection", n_reps=1, q_max=Q_MAX, c_grid=C_GRID, threads=1)

    def evaluate(self, i, result, captured):
        q_hat = int(result.metrics["q_hat"][0])
        outputs = {"q_hat": q_hat, "correct": float(result.metrics["correct"][0])}
        failures = [] if 0 <= q_hat <= Q_MAX else [f"q_hat={q_hat} outside 0..{Q_MAX}"]
        scans = [res for name, res in captured if name == "scan"]
        if len(scans) != 1:
            return outputs, failures + [f"{len(scans)} stability scans captured, expected 1"]
        scan = scans[0]
        if scan.selected_q is None or len(scan.intervals) < 2:
            failures.append("no second stability interval")
        elif scan.selected_q != q_hat:
            failures.append(f"scan selected {scan.selected_q}, study reported {q_hat}")
        outputs["selected_c"] = float(scan.selected_c) if scan.selected_c is not None else math.nan
        outputs["intervals"] = len(scan.intervals)
        # share of the c grid where the full-sample estimate misses the true q
        outputs["c_miss_share"] = float(np.mean(scan.q_by_c != self.q))
        return outputs, failures


class Eigengap(_Workload):
    """Criteria 1 and 2: nested curve on model_a, then the stacked curve."""

    name = "eigengap"
    summaries = {"l3_growth": "l3_growth"}
    layers = ("simlab.simulate", "field.demean", "spectral.autocov", "spectral.assembly",
              "dynpca.curve", "dynpca.gram")
    m_values = (20, 40, 60, 80, 100)

    def call(self, i: int):
        x, _ = stfactor.simulate_field(self.config(i, model="model_a", n=100, dims=(10, 10, 100), q=2))
        xd = stfactor.demean(x)
        curve = stfactor.eigenvalue_curve_by_size(xd, self.m_values, 3, "ep", (3, 3, 7))
        stacked = stfactor.demean(stfactor.stacked_series_as_field(stfactor.stack_to_time_series(xd)))
        top = stfactor.eigenvalue_curve_by_size(stacked, [stacked.n], 10, "ep", (0, 0, 7))[0]
        return curve, top

    def evaluate(self, i, result, captured):
        curve, top = result
        outputs = {f"m{m}_l{k + 1}": float(curve[r, k])
                   for r, m in enumerate(self.m_values) for k in range(curve.shape[1])}
        outputs.update({f"stacked_l{k + 1}": float(v) for k, v in enumerate(top)})
        failures = []
        if not (np.isfinite(curve).all() and np.isfinite(top).all()):
            return outputs, ["non-finite eigenvalue"]
        if np.any(np.diff(curve, axis=1) > 0) or np.any(np.diff(top) > 0):
            failures.append("averaged eigenvalues not non-increasing in k")
        # Cauchy interlacing on nested principal submatrices, per frequency;
        # the tolerance only absorbs eigensolver rounding
        tol = 1e-9 * float(np.abs(curve).max())
        if np.any(np.diff(curve, axis=0) < -tol):
            failures.append("averaged eigenvalues decrease with m")
        if curve[0, 2] > 0:
            outputs["l3_growth"] = float(curve[-1, 2] / curve[0, 2])
        return outputs, failures


class Comparison(_Workload):
    """Criterion 4: model_b, n=30, 10x10x20, with the stacked baseline."""

    name = "comparison"
    summaries = {"e2_mean": "E2", "e2_gdfm_mean": "E2_gdfm"}
    layers = ("simlab.simulate", "field.demean", "spectral.autocov", "spectral.assembly",
              "dynpca.eigendecompose", "dynpca.gram", "commoncomp.projection",
              "simlab.baseline", "simlab.metrics")

    def call(self, i: int):
        cfg = self.config(i, model="model_b", n=30, dims=(10, 10, 20), q=2)
        return stfactor.run_mc_study(cfg, "comparison", n_reps=1, threads=1)

    def evaluate(self, i, result, captured):
        return _estimate_evaluation(result, captured)


WORKLOADS = {w.name: w for w in (Accuracy, Selection, Eigengap, Comparison)}
