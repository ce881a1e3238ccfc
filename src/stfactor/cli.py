"""Command-line front end.

Subcommands: simulate | estimate | select-q | eigengap | mc-study |
compare-gdfm.  Every run writes a settings echo (JSON) recording the
seed and every constant used, sufficient to reproduce the outputs
bit-exactly.  Exit codes: 0 success, 2 configuration error, 3 data
error, 4 numeric failure.

This module writes every result file: tables with ``%.17g`` cells and
``\n`` line ends, JSON at indent 2.  Field files stay with ``store_field``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
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
from ._plan import _check_memory
from .spectral import make_kernel, validate_bandwidths
from .dynpca import eigenvalue_curve_by_size
from .commoncomp import estimate_common_component
from .qselect import NoSecondIntervalError, stability_scan
from .simlab import SimConfig, run_mc_study, simulate_field


def _parse_ints(text: str | None, flag: str, count: int | None = 3) -> tuple[int, ...] | None:
    """Comma-separated integers of ``--flag`` (None if unset); ``count=None`` takes any length."""
    if text is None:
        return None
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        parts = ()
    if not parts or count not in (None, len(parts)):
        what = "comma-separated integers" if count is None else f"{count} comma-separated integers"
        raise ConfigError(f"--{flag} expects {what}, got {text!r}")
    return parts


def _parse_cgrid(text: str) -> np.ndarray:
    try:
        start, step, stop = (float(p) for p in text.split(":"))
    except ValueError:
        raise ConfigError(f"--cgrid expects start:step:stop, got {text!r}")
    if not np.isfinite([start, step, stop]).all() or step <= 0 or stop < start:
        raise ConfigError(f"--cgrid {text!r} needs finite start <= stop and step > 0")
    count = np.floor((stop - start) / step + 1e-9) + 1
    # the grid and the arange it is scaled from, before either exists
    _check_memory(f"--cgrid {text}", 16 * count)
    return start + step * np.arange(int(count))


def _design(args) -> dict:
    """The SimConfig fields set by the design flags of simulate and the studies."""
    return {
        "model": "model_a" if args.model == "a" else "model_b",
        "n": args.n, "dims": _parse_ints(args.dims, "dims"), "q": args.q,
        "idio": "correlated" if args.idio == "correlated" else "iid_gaussian",
        "seed": args.seed, "r_a": args.ra,
    }


def _sim_config(args, design: dict) -> SimConfig:
    """The design's SimConfig; the error for --ra with model_b names the flag."""
    if args.ra is not None and design["model"] != "model_a":
        raise ConfigError(f"--ra sets the model_a truncation radius; {design['model']} has none")
    return SimConfig(**design)


def _check_output_dirs(args) -> None:
    # --output is opened as given or taken as a prefix, and every command writes its echo
    written = {"simulate": [""], "estimate": ["", ".json"], "eigengap": [""]}.get(
        args.command, [".csv", ".json"])
    for flag, suffixes in (("output", written + [".settings.json"]), ("truth_output", [""])):
        path = getattr(args, flag, None)
        if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError(f"--{flag.replace('_', '-')} {path}: its directory does not exist")
        for file in [] if path is None else [path + suffix for suffix in suffixes]:
            if os.path.isdir(file):
                raise ConfigError(f"--{flag.replace('_', '-')} {file} is a directory")


def _write_table(path, columns: dict) -> None:
    """CSV of equal-length columns: a header of their names, every cell ``%.17g``."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in zip(*columns.values()):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, default=str)


def _write_settings(path_prefix: str, payload: dict) -> None:
    _write_json(f"{path_prefix}.settings.json",
                {**payload, "version": __version__, "argv": sys.argv[1:]})


def cmd_simulate(args) -> int:
    cfg = _sim_config(args, _design(args))
    x, chi = simulate_field(cfg, rep=args.rep)
    store_field(x, args.output)
    if args.truth_output:
        store_field(chi, args.truth_output)
    _write_settings(args.output, {
        "command": "simulate", "model": cfg.model, "n": cfg.n, "dims": list(cfg.dims),
        "q": cfg.q, "idio": cfg.idio, "seed": cfg.seed, "r_a": cfg.r_a, "rep": args.rep,
    })
    return 0


def cmd_estimate(args) -> int:
    field = demean(load_field(args.input))
    bw, trunc = _parse_ints(args.bw, "bw"), _parse_ints(args.trunc, "trunc")
    est = estimate_common_component(field, args.q, args.kernel, bw, trunc)
    store_field(LatticeField(est.chi), args.output)
    _write_json(f"{args.output}.json", {
        **est.settings, "interior_lower": [m + 1 for m in est.settings["trunc"]],
        "interior_upper": [d - m for d, m in zip(field.dims, est.settings["trunc"])],
    })
    _write_settings(args.output, {"command": "estimate", "input": args.input, **est.settings})
    return 0


def cmd_select_q(args) -> int:
    field = demean(load_field(args.input))
    c_grid = None if args.cgrid is None else _parse_cgrid(args.cgrid)
    sizes = _parse_ints(args.subsamples, "subsamples", count=None)
    failure = None
    try:
        scan = stability_scan(
            field, args.qmax, c_grid, subsample_sizes=sizes, kernels=args.kernel,
            bw=_parse_ints(args.bw, "bw"), seed=args.seed, c_manual=args.c_manual,
        )
    except NoSecondIntervalError as exc:
        # the curve, the summary and the echo (selected_q/c null) are still written
        scan, failure = exc.scan, exc
    else:
        if np.any(np.diff(scan.q_by_c) > 0):
            raise NumericError("full-sample estimate is not non-increasing in c")
    _write_table(f"{args.output}.csv",
                 {"c": scan.c_grid, "S_c": scan.s_curve, "qhat_full": scan.q_by_c})
    intervals = [{"c_start": float(scan.c_grid[lo]), "c_end": float(scan.c_grid[hi]), "q": q,
                  "points": hi - lo + 1} for lo, hi, q in scan.intervals]
    _write_json(f"{args.output}.json", {
        "selected_c": scan.selected_c, "selected_q": scan.selected_q,
        "intervals": intervals, "settings": scan.settings,
    })
    _write_settings(args.output, {
        "command": "select-q", "input": args.input, **scan.settings, "cgrid": args.cgrid,
        "c_manual": args.c_manual, "selected_q": scan.selected_q, "selected_c": scan.selected_c,
    })
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return 4
    print(f"selected_q={scan.selected_q} at c={scan.selected_c}")
    return 0


def cmd_eigengap(args) -> int:
    field = demean(load_field(args.input))
    m_values = _parse_ints(args.m_values, "m-values", count=None)
    if m_values is None:
        step = max(1, field.n // 10)
        # ten steps, ending at the full panel even when step does not divide n
        m_values = sorted(set(range(step, field.n + 1, step)) | {field.n})
    bw = _parse_ints(args.bw, "bw")
    if args.gdfm:
        # the purely temporal variant: every (series, site) pair is one series
        stacked = stacked_series_as_field(stack_to_time_series(field))
        curve_field = as_demeaned_field(stacked.values)
        # the (1, 1, T) stacked lattice keeps only the time bandwidth
        curve_bw = (0, 0, bw[2]) if bw else None
    else:
        curve_field, curve_bw = field, bw
    curve_bw = validate_bandwidths(curve_bw, curve_field.dims)
    topk = min(10, min(m_values)) if args.topk is None else args.topk
    curve = eigenvalue_curve_by_size(curve_field, m_values, topk, args.kernel, curve_bw)
    lambdas = {f"lambda_{j + 1}": col for j, col in enumerate(curve.T)}
    _write_table(args.output, {"m": m_values, **lambdas})
    _write_settings(args.output, {
        "command": "eigengap", "input": args.input, "m_values": m_values,
        "topk": topk, "kernel": make_kernel(args.kernel).kind,
        "bw": list(curve_bw), "gdfm": bool(args.gdfm),
    })
    return 0


def cmd_mc_study(args) -> int:
    # the design from the flags; a --config JSON object may override any of it
    design = {**_design(args), "n_reps": args.reps}
    if args.config:
        try:
            with open(args.config, "r", encoding="ascii") as fh:
                overrides = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read --config {args.config}: {exc}") from None
        if not isinstance(overrides, dict):
            raise ConfigError("--config must hold a JSON object")
        unknown = sorted(set(overrides) - set(design))
        if unknown:
            raise ConfigError(f"unknown --config keys {unknown}; known keys are {list(design)}")
        design.update(overrides)
    cfg = _sim_config(args, design)
    result = run_mc_study(
        cfg, study=args.study, q_fit=args.q_fit, kernels=args.kernel,
        bw=_parse_ints(args.bw, "bw"), trunc=_parse_ints(args.trunc, "trunc"),
        q_max=args.qmax, threads=args.threads,
    )
    _write_table(f"{args.output}.csv", {"rep": range(result.n_reps), **result.metrics})
    _write_json(f"{args.output}.json", result.summary())
    _write_settings(args.output, {"command": args.study, **result.settings, "seed": cfg.seed})
    for name in result.metrics:
        print(f"{name}: mean={result.mean(name):.6g} se={result.standard_error(name):.3g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stfactor",
        description="Spatio-temporal dynamic factor analysis on lattice data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--kernel", default="ep", help="ep | bartlett | trunc")
        p.add_argument("--bw", default=None, help="bandwidths B1,B2,B3")

    p = sub.add_parser("simulate", help="draw a synthetic panel")
    p.add_argument("--model", choices=["a", "b"], default="b")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dims", required=True, help="S1,S2,T")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--idio", choices=["iid", "correlated"], default="iid")
    p.add_argument("--ra", type=int, default=None, help="model_a truncation radius (default 40)")
    p.add_argument("--rep", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.add_argument("--truth-output", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="estimate the common component")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--trunc", default=None, help="truncations M1,M2,M3")
    add_common(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("select-q", help="stability scan for the factor count")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="output prefix (.csv/.json)")
    p.add_argument("--qmax", type=int, default=None, help="default 10")
    p.add_argument("--cgrid", default=None, help="start:step:stop (default 0:0.0005:3)")
    p.add_argument("--subsamples", default=None, help="comma list of subsample sizes")
    p.add_argument("--c-manual", type=float, default=None, dest="c_manual")
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(func=cmd_select_q)

    p = sub.add_parser("eigengap", help="averaged eigenvalues vs panel size")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="CSV path")
    p.add_argument("--m-values", default=None, help="comma list of panel sizes")
    p.add_argument("--topk", type=int, default=None,
                   help="eigenvalues per size (default: 10, at most the smallest size)")
    p.add_argument("--gdfm", action="store_true", help="stacked purely-temporal variant")
    add_common(p)
    p.set_defaults(func=cmd_eigengap)

    for name, study_default in (("mc-study", None), ("compare-gdfm", "comparison")):
        p = sub.add_parser(name, help="Monte Carlo reproduction study")
        if study_default is None:
            p.add_argument("--study", choices=["accuracy", "comparison", "selection"],
                           default="accuracy")
        else:
            p.set_defaults(study=study_default)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--model", choices=["a", "b"], default="b")
        p.add_argument("--n", type=int, default=40)
        p.add_argument("--dims", default="20,20,20")
        p.add_argument("--q", type=int, default=2)
        p.add_argument("--q-fit", type=int, default=None, dest="q_fit")
        p.add_argument("--qmax", type=int, default=None, help="selection study only")
        p.add_argument("--idio", choices=["iid", "correlated"], default="iid")
        p.add_argument("--ra", type=int, default=None, help="model_a only (default 40)")
        p.add_argument("--reps", type=int, default=20)
        p.add_argument("--trunc", default=None)
        p.add_argument("--output", required=True, help="output prefix")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=1)
        add_common(p)
        p.set_defaults(func=cmd_mc_study)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_output_dirs(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
