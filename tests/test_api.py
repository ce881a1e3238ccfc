import ast
import importlib.util
import re
import types
from pathlib import Path

import numpy as np

import stfactor
from conftest import random_field


def test_all_lists_resolvable_non_module_names():
    assert isinstance(stfactor.__all__, list)
    assert len(set(stfactor.__all__)) == len(stfactor.__all__)
    for name in stfactor.__all__:
        assert hasattr(stfactor, name), name
        assert not isinstance(getattr(stfactor, name), types.ModuleType), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from stfactor import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(stfactor.__all__)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracer():
    """The benchmark's tracer module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_surface_resolves():
    """Every name the benchmark harness wraps or calls exists, read without installing it."""
    tracer = load_tracer()
    for module_name, attr, _ in tracer.WRAPPED:
        assert hasattr(importlib.import_module(module_name), attr), f"{module_name}.{attr}"
    called = set(re.findall(r"\bstfactor\.(\w+)", (PERFBENCH / "workloads.py").read_text()))
    assert {"stack_to_time_series", "stacked_series_as_field", "demean"} <= called
    for name in called:
        assert hasattr(stfactor, name), name
    # the stacked eigengap input: a demeaned field restacked, then demeaned again
    field = stfactor.demean(stfactor.LatticeField(np.arange(48.0).reshape(2, 3, 2, 4) ** 2))
    stacked = stfactor.demean(
        stfactor.stacked_series_as_field(stfactor.stack_to_time_series(field))
    )
    assert stacked.n == 12 and stacked.dims == (1, 1, 4) and stacked.demeaned


def test_trace_attributes_the_gram_route(monkeypatch):
    """Gram-route eigensystems and curves count as ``dynpca.gram``, a layer ``--trace 1`` expects.

    The tracer books an eigensystem or curve span without an ``autocov``
    span under it to that layer, so the Gram route must not reach a
    wrapped autocovariance.
    """
    tracer = load_tracer()
    for module_name, attr, _ in tracer.WRAPPED:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, getattr(module, attr))  # restored at teardown
    trace = tracer.Tracer()
    trace.install()
    field = random_field((2, 3, 3, 8), seed=3, demeaned=False)
    stacked = stfactor.demean(stfactor.stacked_series_as_field(stfactor.stack_to_time_series(field)))
    trace.enabled = True
    with trace.op(0):
        stfactor.gdfm_baseline(field, 1, "ep", 2, 2)
        stfactor.eigenvalue_curve_by_size(stacked, [9, 18], 1, "ep", (0, 0, 2))
    assert trace.layer_totals()["layers"]["dynpca.gram"]["calls"] >= 2


def test_only_the_cli_writes_result_files():
    """The library returns data; ``cli.py`` alone formats CSV and JSON files."""
    package = Path(stfactor.__file__).resolve().parent
    importers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if {m.split(".")[0] for m in modules} & {"csv", "json"}:
                importers.add(path.name)
    assert importers == {"cli.py"}
