import importlib.util
import re
import types
from pathlib import Path

import numpy as np

import stfactor


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


def test_benchmark_surface_resolves():
    """Every name the benchmark harness wraps or calls exists, read without installing it."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", perfbench / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module_name, attr, _ in tracer.WRAPPED:
        assert hasattr(importlib.import_module(module_name), attr), f"{module_name}.{attr}"
    called = set(re.findall(r"\bstfactor\.(\w+)", (perfbench / "workloads.py").read_text()))
    assert {"stack_to_time_series", "stacked_series_as_field", "demean"} <= called
    for name in called:
        assert hasattr(stfactor, name), name
    # the stacked eigengap input: a demeaned field restacked, then demeaned again
    field = stfactor.demean(stfactor.LatticeField(np.arange(48.0).reshape(2, 3, 2, 4) ** 2))
    stacked = stfactor.demean(
        stfactor.stacked_series_as_field(stfactor.stack_to_time_series(field))
    )
    assert stacked.n == 12 and stacked.dims == (1, 1, 4) and stacked.demeaned
