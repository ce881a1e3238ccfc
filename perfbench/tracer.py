"""Spans around the public stfactor functions, recorded from outside the library.

Each wrapper replaces a function at the module attribute its callers look
up at call time (``stfactor.simlab.estimate_common_component`` is the name
``run_mc_study`` resolves, not ``stfactor.commoncomp``'s).  A wrapper always
keeps the results the output checks need; only while ``Tracer.enabled`` is
set does it also record a span: name, parent span, op id, start, end, and
the operation counts computed from the call's result.

A layer's self time is its span's duration minus the time its direct child
spans cover.  The op's own root span keeps the time spent outside every
wrapped function (the ``run_mc_study`` loop, stacking calls made by the
benchmark); it is reported as ``trace.unattributed_s``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# (module, attribute, span name).  Two entries with one span name cover a
# function imported by name into two modules.
WRAPPED = (
    ("stfactor", "simulate_field", "simulate"),
    ("stfactor.simlab", "simulate_field", "simulate"),
    ("stfactor", "demean", "demean"),
    ("stfactor.simlab", "demean", "demean"),
    ("stfactor.simlab", "estimate_common_component", "projection"),
    ("stfactor.simlab", "gdfm_baseline", "baseline"),
    ("stfactor.simlab", "error_metrics", "metrics"),
    ("stfactor.simlab", "stability_scan", "scan"),
    ("stfactor.commoncomp", "eigensystem_from_field", "eigensystem"),
    ("stfactor", "eigenvalue_curve_by_size", "curve"),
    ("stfactor.spectral", "sample_autocovariance", "autocov"),
    ("stfactor.qselect", "sample_autocovariance", "autocov"),
    ("stfactor.spectral", "spectral_from_autocovariance", "assembly"),
    ("stfactor.qselect", "spectral_from_autocovariance", "assembly"),
)

LAYERS = (
    "simlab.simulate",
    "field.demean",
    "spectral.autocov",
    "spectral.assembly",
    "dynpca.eigendecompose",
    "dynpca.gram",
    "dynpca.curve",
    "qselect.scan",
    "commoncomp.projection",
    "simlab.baseline",
    "simlab.metrics",
)

_LAYER_OF_SPAN = {
    "simulate": "simlab.simulate",
    "demean": "field.demean",
    "autocov": "spectral.autocov",
    "assembly": "spectral.assembly",
    "eigensystem": "dynpca.eigendecompose",
    "curve": "dynpca.curve",
    "scan": "qselect.scan",
    "projection": "commoncomp.projection",
    "baseline": "simlab.baseline",
    "metrics": "simlab.metrics",
}

# Results kept for the output checks, in tracing and untraced runs alike.
CAPTURED_SPANS = ("projection", "scan")

COUNTS = (
    "spectral.autocov.gflop",
    "spectral.assembly.out_mb",
    "dynpca.eigendecompose.matrices",
    "dynpca.eigendecompose.order",
    "qselect.scan.eigvalsh_matrices",
)


def _half_count(bandwidths) -> int:
    size = 1
    for b in bandwidths:
        size *= 2 * int(b) + 1
    return (size + 1) // 2


def _counts(name: str, args, result) -> dict:
    """Operation counts computed from array shapes, not measured."""
    if name == "autocov":
        grid_size, n, _ = result.gammas.shape
        volume = args[0].lattice_size
        # direct form: one (n x V)(V x n) product per non-redundant lag
        return {"gflop": 2.0 * ((grid_size + 1) // 2) * n * n * volume / 1e9}
    if name == "assembly":
        grid_size, n, _ = result.matrices.shape
        return {"out_mb": grid_size * n * n * 16 / 1e6}
    if name == "eigensystem":
        return {"matrices": result.grid.half_count, "order": result.n}
    if name == "scan":
        return {"eigvalsh_matrices": _half_count(result.settings["bw"]) * len(result.subsample_sizes)}
    return {}


class Tracer:
    """Installs the wrappers and keeps spans and captured results in memory."""

    def __init__(self):
        self.enabled = False
        self.spans = []  # [name, parent, op, start, end, counts]
        self.captured = []  # (span name, result)
        self._stack = []
        self._op = None

    def install(self) -> None:
        """Wrap every name in ``WRAPPED``; a missing name is an error."""
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                raise RuntimeError(f"wrapped public name {module_name}.{attr} is missing")
            setattr(module, attr, self._wrap(getattr(module, attr), name))

    def _wrap(self, fn, name: str):
        capture = name in CAPTURED_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                result = fn(*args, **kwargs)
                if capture:
                    self.captured.append((name, result))
                return result
            span = [name, self._stack[-1] if self._stack else None, self._op, 0.0, 0.0, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            span[5] = _counts(name, args, result)
            if capture:
                self.captured.append((name, result))
            return result

        return wrapper

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Root span of one op; every span inside it carries ``op_id``."""
        if not self.enabled:
            yield
            return
        span = ["op", None, op_id, time.perf_counter(), 0.0, None]
        self._op = op_id
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[4] = time.perf_counter()
            self._stack.pop()
            self._op = None

    def layer_totals(self) -> dict:
        """Per-layer self time, calls and computed counts summed over all spans."""
        covered = [0.0] * len(self.spans)
        children = [set() for _ in self.spans]
        for name, parent, _, start, end, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
                children[parent].add(name)
        totals = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        totals["unattributed"] = {"self_s": 0.0, "calls": 0}
        counts = dict.fromkeys(COUNTS, 0.0)
        op_wall = 0.0
        for idx, (name, parent, _, start, end, info) in enumerate(self.spans):
            self_s = end - start - covered[idx]
            if name == "op":
                layer = "unattributed"
                op_wall += end - start
            elif name in ("eigensystem", "curve") and "autocov" not in children[idx]:
                # no spectral estimate underneath: the Gram (dual) route
                layer = "dynpca.gram"
            else:
                layer = _LAYER_OF_SPAN[name]
            totals[layer]["self_s"] += self_s
            totals[layer]["calls"] += 1
            for key, value in (info or {}).items():
                if f"{layer}.{key}" in counts:  # Gram-route eigensystems count nothing
                    counts[f"{layer}.{key}"] += value
        return {"layers": totals, "counts": counts, "op_wall_s": op_wall}

