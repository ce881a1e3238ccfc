"""stfactor benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload accuracy --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  A single client issues ops back to back (closed loop) with
``run_mc_study(threads=1)`` and BLAS at its default thread count.

``--trace 0`` measures the end-to-end metrics with tracing off.  Set-up
(import, input generation, one untimed warm-up op) is timed in this process
and in ``SETUP_CHILDREN`` fresh interpreters, and ``setup_s`` is the median.
The timed loop then runs whole workload cycles until ``--seconds`` have
passed and at least ``min_ops`` ops are done.

``--trace 1`` runs the same ops three times: untraced, traced, and traced in a
child process whose environment limits BLAS to one thread; it reports the
per-layer metrics.  It exits with status 3, printing no result, when a layer
the workload is expected to exercise records no span.

Each op's outputs are checked (see ``workloads.py``) and written with 17
significant digits to ``perfbench/out/``.  The last stdout line is the JSON
result ``{"correct", "attempted", "failed", "metrics"}``; the lines before it
list every metric with its unit and the environment.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_CHILDREN = 1
CHILD_TIMEOUT_S = 170
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {
    "op_s_p50": "s",
    "ops_per_s": "1/s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the role of a child process started by this script
    p.add_argument("--role", choices=("main", "setup", "blas1"), default="main")
    p.add_argument("--ops", type=int, default=0, help="op count of a blas1 child")
    return p.parse_args(argv)


class Bench:
    """The workload, the tracer and a record of every op run in this process."""

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.records = []

    def run_op(self, i: int, phase: str) -> dict:
        tracer = self.tracer
        tracer.captured.clear()
        failures = []
        result = None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with tracer.op(i):
                result = self.workload.call(i)
        except Exception as exc:  # a failing op is counted and the run goes on
            traceback.print_exc()
            failures = [f"{type(exc).__name__}: {exc}"]
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        outputs = {}
        if result is not None:
            outputs, failures = self.workload.evaluate(i, result, tracer.captured)
        tracer.captured.clear()
        for failure in failures:
            print(f"check failed: {self.workload.name} op {i} ({phase}): {failure}", file=sys.stderr)
        record = {"op": i, "phase": phase, "wall": wall, "cpu": cpu, "outputs": outputs,
                  "failures": failures}
        self.records.append(record)
        return record

    def run_ops(self, phase: str, seconds: float = 0.0, count: int = 0) -> list:
        """Ops 1, 2, ... in whole cycles: ``count`` of them, or until ``seconds``."""
        wl = self.workload
        ops = []
        start = time.perf_counter()
        while True:
            for _ in range(wl.cycle):
                ops.append(self.run_op(len(ops) + 1, phase))
            if count:
                if len(ops) >= count:
                    return ops
            elif len(ops) >= wl.min_ops and time.perf_counter() - start >= seconds:
                return ops

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r["failures"])

    def write_outputs(self, path: Path, env: dict) -> None:
        OUT.mkdir(exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            fh.write("# " + json.dumps(env, sort_keys=True) + "\n")
            fh.write("op\tphase\tname\tvalue\n")
            for r in self.records:
                for name, value in [("wall_s", r["wall"]), ("cpu_s", r["cpu"])] + list(r["outputs"].items()):
                    fh.write(f"{r['op']}\t{r['phase']}\t{name}\t{value:.17g}\n")
                for failure in r["failures"]:
                    fh.write(f"{r['op']}\t{r['phase']}\tfailure\t{failure}\n")


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    llc = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            llc[int((index / "level").read_text())] = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "llc_size": llc[max(llc)] if llc else "unknown",
        "platform": platform.platform(),
    }


def run_child(args, role: str, extra=(), env=None) -> dict:
    """Run this script in a fresh interpreter and return its last JSON line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--role", role, *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} child exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(name: str, value, unit: str, note: str = "") -> None:
    print(f"{name:40s} {value:>14.6g} {unit:8s} {note}".rstrip())


def end_to_end(args, bench, setup_s) -> dict:
    wl = bench.workload
    ops = bench.run_ops("timed", seconds=args.seconds)
    setups = [setup_s]
    attempted, failed = len(bench.records), bench.failed
    for _ in range(SETUP_CHILDREN):
        child = run_child(args, "setup")
        setups.append(child["setup_s"])
        attempted += child["attempted"]
        failed += child["failed"]
    walls = [op["wall"] for op in ops]
    metrics = {
        "op_s_p50": statistics.median(walls),
        "ops_per_s": len(walls) / sum(walls),
        "cpu_s_per_op": statistics.median(op["cpu"] for op in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
    }
    notes = {
        "op_s_p50": f"median of {len(walls)} ops, max {max(walls):.4g} s",
        "setup_s": f"median of {len(setups)} set-ups",
    }
    for name, value in metrics.items():
        report(name, value, E2E_UNITS[name], notes.get(name, ""))
    report("fail_frac", failed / attempted, "1", f"{failed} of {attempted} ops")
    for name, key in wl.summaries.items():
        values = [op["outputs"][key] for op in ops if key in op["outputs"]]
        if values:
            report(name, statistics.fmean(values), "1", f"mean of {len(values)} timed ops")
    return {"attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}}


def traced_pass(bench, count: int) -> dict:
    """Run ops 1..count with spans on; per-op layer totals and op wall."""
    bench.tracer.enabled = True
    bench.run_ops("traced", count=count)
    bench.tracer.enabled = False
    totals = bench.tracer.layer_totals()
    per_op = {layer: {k: v / count for k, v in totals["layers"][layer].items()}
              for layer in LAYERS + ("unattributed",)}
    return {"layers": per_op, "counts": {k: v / count for k, v in totals["counts"].items()},
            "op_wall_s": totals["op_wall_s"] / count}


def per_layer(args, bench):
    wl = bench.workload
    untraced = bench.run_ops("untraced", seconds=args.seconds)
    count = len(untraced)
    traced = traced_pass(bench, count)
    missing = [layer for layer in wl.layers if traced["layers"][layer]["calls"] == 0]
    if missing:
        print(f"perfbench: no span recorded for expected layers {missing} on {wl.name}", file=sys.stderr)
        return None
    env = dict(os.environ, **{k: "1" for k in BLAS_ENV})
    child = run_child(args, "blas1", ("--ops", str(count)), env=env)
    untraced_wall = sum(op["wall"] for op in untraced) / count
    metrics = {}
    for layer in LAYERS:
        self_s = traced["layers"][layer]["self_s"]
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.calls"] = (traced["layers"][layer]["calls"], "count")
        metrics[f"{layer}.share"] = (self_s / traced["op_wall_s"], "1")
        metrics[f"{layer}.blas1_ratio"] = (child["layers"][layer]["self_s"] / self_s if self_s > 0 else 0.0, "1")
    counts = traced["counts"]
    autocov_s = traced["layers"]["spectral.autocov"]["self_s"]
    metrics["spectral.autocov.gflop"] = (counts["spectral.autocov.gflop"], "gflop.computed")
    metrics["spectral.autocov.gflop_per_s"] = (
        counts["spectral.autocov.gflop"] / autocov_s if autocov_s > 0 else 0.0, "gflop/s")
    metrics["spectral.assembly.out_mb"] = (counts["spectral.assembly.out_mb"], "MB.computed")
    metrics["dynpca.eigendecompose.matrices"] = (counts["dynpca.eigendecompose.matrices"], "count.computed")
    metrics["dynpca.eigendecompose.order"] = (counts["dynpca.eigendecompose.order"], "count.computed")
    metrics["qselect.scan.eigvalsh_matrices"] = (counts["qselect.scan.eigvalsh_matrices"], "count.computed")
    metrics["trace.overhead_s"] = (traced["op_wall_s"] - untraced_wall, "s")
    metrics["trace.unattributed_s"] = (traced["layers"]["unattributed"]["self_s"], "s")
    for name, (value, unit) in metrics.items():
        report(name, value, unit)
    report("trace.layer_sum_s", sum(traced["layers"][layer]["self_s"] for layer in LAYERS), "s",
           "summed layer self time per op")
    report("trace.op_s", traced["op_wall_s"], "s", f"traced mean over {count} ops")
    report("untraced.op_s", untraced_wall, "s", f"untraced mean over {count} ops")
    report("blas1.blas_threads", child["blas_threads"] or 0, "count", "in the one-thread child")
    return {"attempted": len(bench.records) + child["attempted"],
            "failed": bench.failed + child["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stfactor" / "__init__.py").is_file():
        print(f"perfbench: no stfactor sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import stfactor
    from workloads import WORKLOADS

    if not Path(stfactor.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: stfactor imported from {stfactor.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    bench = Bench(WORKLOADS[args.workload](args.seed), tracer)
    bench.run_op(0, "warmup")
    setup_s = time.perf_counter() - start

    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s, "attempted": 1, "failed": bench.failed}))
        return 0
    if args.role == "blas1":
        traced = traced_pass(bench, args.ops)
        print(json.dumps({"layers": traced["layers"], "blas_threads": blas_threads(),
                          "attempted": len(bench.records), "failed": bench.failed}))
        return 0

    result = per_layer(args, bench) if args.trace else end_to_end(args, bench, setup_s)
    if result is None:
        return 3
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    bench.write_outputs(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.tsv", env)
    result["correct"] = result["failed"] == 0
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
