import ast
import importlib.util
import re
import types
from pathlib import Path

import numpy as np

import stfactor
from stfactor import _plan
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


def scopes_where(predicate):
    """Dotted names of the library's functions and classes holding a node that satisfies ``predicate``."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
            else:
                if predicate(child):
                    found.add(".".join(scope))
                visit(child, scope)

    package = Path(stfactor.__file__).resolve().parent
    for path in package.glob("*.py"):
        visit(ast.parse(path.read_text()), [])
    return found


def test_only_the_config_and_the_simulator_branch_on_the_model():
    """``SimConfig`` checks the design name and ``simulate_field`` draws it; nothing else asks."""
    names = {"model_a", "model_b"}

    def asks_model(node):
        if not isinstance(node, ast.Compare):
            return False
        sides = [node.left, *node.comparators]
        consts = {sub.value for side in sides for sub in ast.walk(side)
                  if isinstance(sub, ast.Constant)}
        return (any(isinstance(side, ast.Attribute) and side.attr == "model" for side in sides)
                and bool(consts & names))

    assert scopes_where(asks_model) == {"SimConfig.__post_init__", "simulate_field"}


def calls_named(name):
    """A ``scopes_where`` predicate: a call of a function or attribute called ``name``."""

    def predicate(node):
        func = node.func if isinstance(node, ast.Call) else None
        return getattr(func, "id", getattr(func, "attr", None)) == name

    return predicate


def test_only_eigensystem_from_field_enters_the_gram_route():
    """The principal coordinates are formed in one place, which every Gram-route caller goes through."""
    assert scopes_where(calls_named("_principal_field")) == {"eigensystem_from_field"}


def test_no_layer_reads_the_complex_spectral_matrices():
    """``SpectralDensityEstimate.matrices`` rebuilds n^2 complex numbers a point for tests and tools:
    the library reads the packed half grid only."""
    assert scopes_where(lambda node: isinstance(node, ast.Attribute) and node.attr == "matrices") == set()


def test_only_the_row_map_and_the_study_start_worker_threads():
    """The row map owns the worker policy; the study's replication pool is the one other."""
    assert scopes_where(calls_named("ThreadPoolExecutor")) == {"_map_rows", "run_mc_study"}


def test_the_one_context_variable_is_the_checked_flag_of_step_and_entry():
    """Each step lays itself out from its own arguments: the one ambient state left is ``_plan``'s
    flag that an enclosing entry already checked the bytes, and only ``step`` and ``entry`` read it."""
    made = calls_named("ContextVar")
    package = Path(stfactor.__file__).resolve().parent
    counts = {path.name: sum(map(made, ast.walk(ast.parse(path.read_text())))) for path in package.glob("*.py")}
    assert {name: count for name, count in counts.items() if count} == {"_plan.py": 1}
    (flag,) = [target.id for node in ast.parse(Path(_plan.__file__).read_text()).body
               if isinstance(node, ast.Assign) and made(node.value) for target in node.targets]
    assert scopes_where(lambda node: isinstance(node, ast.Name) and node.id == flag
                        and isinstance(node.ctx, ast.Load)
                        or isinstance(node, ast.Attribute) and node.attr == flag) == {"step", "entry"}


def test_workers_are_counted_by_the_row_map_the_byte_estimates_and_the_echo():
    """Each row map's workers are counted once per entry, by the plan's stage builders, which size
    the bytes with them; ``_map_rows`` and the echoes are handed the plan's count."""
    owners = scopes_where(calls_named("map_workers"))
    assert owners == {"_autocov", "_assembly", "_eigensolves", "_filter"}
    assert all(callable(getattr(_plan, name)) for name in owners)
