import argparse
import csv
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import stfactor
from stfactor import (
    ConfigError,
    SimConfig,
    default_bandwidths,
    demean,
    eigenvalue_curve_by_size,
    load_field,
    run_mc_study,
    stability_scan,
    store_field,
)
from stfactor import _rowmap, cli, commoncomp, dynpca, qselect, spectral
from stfactor.cli import main
from conftest import random_field

# golden digests of fixed-seed simulation outputs, frozen from the
# first release build; any change in the generator or file formats
# must be deliberate.  a.stf was re-frozen when model_a moved from
# per-series einsum contractions to blocked matrix products, which
# changes its last bits (4.8e-16 of the largest |chi|;
# test_simlab checks the convolution against the per-series oracle)
GOLDEN = {
    "b.stf": "6243bf2f3f0913e1bc66eaa66d69f16ec5df5bcbf624ea99d7407f0ba36985c5",
    "b_chi.stf": "ebf93354a071924fa4fe98c8b7056505282d3a6c2f69634fcec144393e78acde",
    "a.stf": "c6be847347f0906f00c79a1aa9bd40226e67c4c5abcb62017923b7ca67fe68bf",
    "c.csv": "b2602c7c7d486d3e6957b200e8cd201feee421cb7cedf7472f8b64dd716892b0",
}


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def exit_status(argv):
    """main's return value, or the status of the SystemExit argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def run_cli_child(args, blas_threads, one_core=False):
    """``stfactor`` in its own interpreter, with BLAS limited to ``blas_threads`` from the start
    and, with ``one_core``, the process held to one core, so every row map runs one worker."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads, OMP_NUM_THREADS=blas_threads,
               MKL_NUM_THREADS=blas_threads)
    src = str(Path(stfactor.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    core = {min(os.sched_getaffinity(0))}
    subprocess.run([sys.executable, "-m", "stfactor.cli"] + args, env=env, check=True, timeout=120,
                   preexec_fn=(lambda: os.sched_setaffinity(0, core)) if one_core else None)


class TestSimulate:
    def test_golden_files(self, tmp_path):
        assert main(["simulate", "--model", "b", "--n", "4", "--dims", "5,5,6", "--q", "2",
                     "--seed", "7", "--output", f"{tmp_path}/b.stf",
                     "--truth-output", f"{tmp_path}/b_chi.stf"]) == 0
        assert main(["simulate", "--model", "a", "--n", "3", "--dims", "4,4,5", "--q", "1",
                     "--ra", "15", "--seed", "9", "--output", f"{tmp_path}/a.stf"]) == 0
        assert main(["simulate", "--model", "b", "--n", "2", "--dims", "3,3,4", "--q", "0",
                     "--idio", "correlated", "--seed", "11",
                     "--output", f"{tmp_path}/c.csv"]) == 0
        for name, digest in GOLDEN.items():
            assert sha256(tmp_path / name) == digest, name

    def test_zero_factors_truth_is_zero(self, tmp_path):
        assert main(["simulate", "--model", "b", "--n", "2", "--dims", "3,3,4", "--q", "0",
                     "--seed", "1", "--output", f"{tmp_path}/x.stf",
                     "--truth-output", f"{tmp_path}/chi.stf"]) == 0
        chi = load_field(tmp_path / "chi.stf")
        assert np.all(chi.values == 0.0)

    def test_bad_dims_is_usage_error(self, tmp_path):
        rc = main(["simulate", "--model", "b", "--n", "2", "--dims", "3,3", "--q", "1",
                   "--output", f"{tmp_path}/x.stf"])
        assert rc == 2

    def test_settings_echo_written(self, tmp_path):
        main(["simulate", "--model", "b", "--n", "2", "--dims", "3,3,4", "--q", "1",
              "--seed", "5", "--output", f"{tmp_path}/x.stf"])
        payload = json.loads((tmp_path / "x.stf.settings.json").read_text())
        assert payload["seed"] == 5
        assert payload["dims"] == [3, 3, 4]
        assert "version" in payload


class TestEstimate:
    def test_full_rank_reproduces_demeaned_input(self, tmp_path):
        main(["simulate", "--model", "b", "--n", "3", "--dims", "6,6,8", "--q", "1",
              "--seed", "2", "--output", f"{tmp_path}/x.stf"])
        rc = main(["estimate", "--input", f"{tmp_path}/x.stf", "--q", "3",
                   "--bw", "2,2,2", "--output", f"{tmp_path}/chi.stf"])
        assert rc == 0
        from stfactor import demean

        x = demean(load_field(tmp_path / "x.stf"))
        chi = load_field(tmp_path / "chi.stf")
        assert np.abs(chi.values - x.values).max() <= 1e-9
        sidecar = json.loads((tmp_path / "chi.stf.json").read_text())
        assert sidecar["q"] == 3

    # model_a at n=30, 10x10x16 runs its convolution in two blocks of series; at 10x10x16
    # the eigensolves run on the row map's threads, and at 12x12x20 the filter's chunks too
    @pytest.mark.parametrize("model,n,dims", [
        ("b", "24", "10,10,16"), ("a", "30", "10,10,16"), ("b", "30", "12,12,20"),
    ], ids=["b", "a", "b_filter_map"])
    def test_chi_bit_identical_across_blas_threads(self, tmp_path, model, n, dims):
        # the settings echo promises bit-exact reproduction; hold it to that across
        # BLAS thread counts and row-map workers, each run in its own interpreter
        digests = []
        for threads, one_core in itertools.product(("1", "2"), (True, False)):
            out = tmp_path / f"threads{threads}_{'one_core' if one_core else 'all_cores'}"
            out.mkdir()
            for args in (["simulate", "--model", model, "--n", n, "--dims", dims,
                          "--q", "2", "--seed", "13", "--output", f"{out}/x.stf"],
                         ["estimate", "--input", f"{out}/x.stf", "--q", "2",
                          "--output", f"{out}/chi.stf"]):
                run_cli_child(args, threads, one_core)
            digests.append([sha256(out / "x.stf"), sha256(out / "chi.stf")])
        assert all(digest == digests[0] for digest in digests[1:])

    def test_sidecar_interior_bounds(self, tmp_path):
        store_field(random_field((3, 5, 5, 6), seed=63, demeaned=False), tmp_path / "x.stf")
        rc = main(["estimate", "--input", f"{tmp_path}/x.stf", "--q", "1", "--kernel", "bartlett",
                   "--bw", "2,2,2", "--trunc", "1,2,2", "--output", f"{tmp_path}/chi.stf"])
        assert rc == 0
        payload = json.loads((tmp_path / "chi.stf.json").read_text())
        assert payload["interior_lower"] == [2, 3, 3]
        assert payload["interior_upper"] == [4, 3, 4]

    def test_missing_input_is_data_error(self, tmp_path):
        rc = main(["estimate", "--input", f"{tmp_path}/nope.stf", "--q", "1",
                   "--output", f"{tmp_path}/chi.stf"])
        assert rc == 3

    def test_directory_input_is_data_error(self, tmp_path, capsys):
        (tmp_path / "x.stf").mkdir()
        rc = main(["estimate", "--input", f"{tmp_path}/x.stf", "--q", "1",
                   "--output", f"{tmp_path}/chi.stf"])
        assert rc == 3
        assert f"cannot read input file {tmp_path}/x.stf" in capsys.readouterr().err
        assert not (tmp_path / "chi.stf").exists()

    def test_non_ascii_csv_is_data_error(self, tmp_path, capsys):
        (tmp_path / "bad.csv").write_bytes(b"ell,s1,s2,t,value\n1,1,1,1,0.5\xe9\n")
        rc = main(["estimate", "--input", f"{tmp_path}/bad.csv", "--q", "1",
                   "--output", f"{tmp_path}/chi.stf"])
        assert rc == 3
        assert "non-ASCII byte b'\\xe9'" in capsys.readouterr().err
        assert not (tmp_path / "chi.stf").exists()

    def test_ignored_threads_flag_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", "--input", f"{tmp_path}/x.stf", "--q", "1",
                  "--output", f"{tmp_path}/chi.stf", "--threads", "2"])
        assert excinfo.value.code == 2

    def test_oversized_q_is_config_error(self, tmp_path):
        main(["simulate", "--model", "b", "--n", "2", "--dims", "4,4,5", "--q", "1",
              "--seed", "3", "--output", f"{tmp_path}/x.stf"])
        rc = main(["estimate", "--input", f"{tmp_path}/x.stf", "--q", "5",
                   "--output", f"{tmp_path}/chi.stf"])
        assert rc == 2


class TestSelectQ:
    def test_scan_outputs_and_override(self, tmp_path):
        main(["simulate", "--model", "b", "--n", "20", "--dims", "10,10,10", "--q", "1",
              "--seed", "4", "--output", f"{tmp_path}/x.stf"])
        rc = main(["select-q", "--input", f"{tmp_path}/x.stf", "--qmax", "4",
                   "--cgrid", "0:0.02:4", "--subsamples", "18,16,14",
                   "--output", f"{tmp_path}/scan"])
        assert rc == 0
        summary = json.loads((tmp_path / "scan.json").read_text())
        assert summary["selected_q"] == 1
        lines = (tmp_path / "scan.csv").read_text().splitlines()
        assert lines[0] == "c,S_c,qhat_full"
        # manual override pins the scale
        rc = main(["select-q", "--input", f"{tmp_path}/x.stf", "--qmax", "4",
                   "--cgrid", "0:0.02:4", "--subsamples", "18,16,14",
                   "--c-manual", "0.0", "--output", f"{tmp_path}/scan2"])
        assert rc == 0
        summary2 = json.loads((tmp_path / "scan2.json").read_text())
        assert summary2["selected_q"] == 4  # no penalty at c = 0

    def test_exports(self, tmp_path):
        main(["simulate", "--model", "b", "--n", "30", "--dims", "12,12,12", "--q", "2",
              "--seed", "5", "--output", f"{tmp_path}/x.stf"])
        rc = main(["select-q", "--input", f"{tmp_path}/x.stf", "--qmax", "5",
                   "--cgrid", "0:0.05:6", "--subsamples", "27,24", "--seed", "6",
                   "--output", f"{tmp_path}/scan"])
        assert rc == 0
        c_grid = 0.05 * np.arange(121)
        scan = stability_scan(demean(load_field(tmp_path / "x.stf")), 5, c_grid,
                              subsample_sizes=[27, 24], seed=6)
        with open(tmp_path / "scan.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["c", "S_c", "qhat_full"]
        assert len(rows) == len(c_grid) + 1
        payload = json.loads((tmp_path / "scan.json").read_text())
        assert payload["selected_q"] == scan.selected_q

    def test_scan_bit_identical_across_blas_threads(self, tmp_path):
        # the scan's eigensolves run with BLAS held at one thread; its
        # curve and summary must not depend on the thread count it started with
        main(["simulate", "--model", "b", "--n", "40", "--dims", "8,8,10", "--q", "2",
              "--seed", "17", "--output", f"{tmp_path}/x.stf"])
        digests = []
        for threads in ("1", "2"):
            run_cli_child(["select-q", "--input", f"{tmp_path}/x.stf", "--bw", "2,2,2",
                           "--output", f"{tmp_path}/scan{threads}"], threads)
            digests.append([sha256(tmp_path / f"scan{threads}.{ext}") for ext in ("csv", "json")])
        assert digests[0] == digests[1]

    def test_no_second_interval_exits_numeric_but_emits_curve(self, tmp_path):
        main(["simulate", "--model", "b", "--n", "12", "--dims", "8,8,8", "--q", "1",
              "--seed", "6", "--output", f"{tmp_path}/x.stf"])
        rc = main(["select-q", "--input", f"{tmp_path}/x.stf", "--qmax", "3",
                   "--cgrid", "0:0.00005:0.0002", "--subsamples", "10,11",
                   "--output", f"{tmp_path}/scan"])
        assert rc == 4
        assert (tmp_path / "scan.csv").exists()
        summary = json.loads((tmp_path / "scan.json").read_text())
        assert summary["selected_q"] is None
        echo = json.loads((tmp_path / "scan.settings.json").read_text())
        assert echo["command"] == "select-q"
        assert echo["selected_q"] is None and echo["selected_c"] is None

    @pytest.mark.parametrize("text", ["nan:1:2", "0:nan:1", "0:0.1:nan", "-inf:1:2", "0:inf:1",
                                      "0:0.1:inf"])
    def test_non_finite_cgrid_is_config_error(self, text):
        with pytest.raises(ConfigError, match="--cgrid .* needs finite"):
            cli._parse_cgrid(text)

    def test_cgrid_memory_checked_before_allocation(self, monkeypatch):
        monkeypatch.setattr(spectral, "_physical_memory_bytes", lambda: 2**20)
        tracemalloc.start()
        try:
            # 3,000,001 scales: 48 MB of grid and arange
            with pytest.raises(ConfigError, match="--cgrid 0:1e-6:3 needs 48000016 bytes, more than"):
                cli._parse_cgrid("0:1e-6:3")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16


class TestEigengap:
    def test_csv_columns(self, tmp_path):
        main(["simulate", "--model", "b", "--n", "8", "--dims", "6,6,8", "--q", "1",
              "--seed", "8", "--output", f"{tmp_path}/x.stf"])
        rc = main(["eigengap", "--input", f"{tmp_path}/x.stf", "--m-values", "4,8",
                   "--topk", "3", "--bw", "2,2,2", "--output", f"{tmp_path}/gap.csv"])
        assert rc == 0
        lines = (tmp_path / "gap.csv").read_text().splitlines()
        assert lines[0] == "m,lambda_1,lambda_2,lambda_3"
        assert len(lines) == 3

    def test_csv_output(self, tmp_path):
        store_field(random_field((4, 3, 3, 4), seed=32, demeaned=False), tmp_path / "x.stf")
        rc = main(["eigengap", "--input", f"{tmp_path}/x.stf", "--m-values", "2,4",
                   "--topk", "2", "--bw", "1,1,1", "--output", f"{tmp_path}/curve.csv"])
        assert rc == 0
        curve = eigenvalue_curve_by_size(demean(load_field(tmp_path / "x.stf")), [2, 4], 2, "ep",
                                         (1, 1, 1))
        with open(tmp_path / "curve.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["m", "lambda_1", "lambda_2"]
        assert len(rows) == 3
        np.testing.assert_allclose(float(rows[1][1]), curve[0, 0])

    def test_stacked_variant(self, tmp_path):
        main(["simulate", "--model", "b", "--n", "4", "--dims", "3,3,16", "--q", "1",
              "--seed", "9", "--output", f"{tmp_path}/x.stf"])
        rc = main(["eigengap", "--input", f"{tmp_path}/x.stf", "--m-values", "36",
                   "--topk", "4", "--gdfm", "--output", f"{tmp_path}/gap.csv"])
        assert rc == 0
        lines = (tmp_path / "gap.csv").read_text().splitlines()
        assert lines[1].split(",")[0] == "36"

    def test_stacked_variant_matches_library_curve(self, tmp_path):
        from stfactor import demean, stack_to_time_series, stacked_series_as_field

        main(["simulate", "--model", "b", "--n", "4", "--dims", "3,3,16", "--q", "1",
              "--seed", "9", "--output", f"{tmp_path}/x.stf"])
        rc = main(["eigengap", "--input", f"{tmp_path}/x.stf", "--m-values", "20,36",
                   "--topk", "3", "--bw", "1,1,3", "--gdfm", "--output", f"{tmp_path}/gap.csv"])
        assert rc == 0
        x = demean(load_field(tmp_path / "x.stf"))
        stacked = demean(stacked_series_as_field(stack_to_time_series(x)))
        expected = eigenvalue_curve_by_size(stacked, [20, 36], 3, "ep", (0, 0, 3))
        rows = [line.split(",") for line in (tmp_path / "gap.csv").read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == ["20", "36"]
        np.testing.assert_allclose([[float(v) for v in row[1:]] for row in rows], expected,
                                   rtol=1e-12)
        echo = json.loads((tmp_path / "gap.csv.settings.json").read_text())
        assert echo["m_values"] == [20, 36] and echo["gdfm"] is True

    def test_stacked_size_out_of_range_exits_2(self, tmp_path, capsys):
        # 2 series on a 3 x 3 lattice stack into 18; no size is clipped to fit
        main(["simulate", "--model", "b", "--n", "2", "--dims", "3,3,16", "--q", "1",
              "--seed", "9", "--output", f"{tmp_path}/x.stf"])
        rc = main(["eigengap", "--input", f"{tmp_path}/x.stf", "--m-values", "3,500",
                   "--gdfm", "--output", f"{tmp_path}/gap.csv"])
        assert rc == 2
        assert "subpanel sizes must lie in 1..18" in capsys.readouterr().err
        assert not (tmp_path / "gap.csv").exists()

    def test_default_topk_fits_smallest_size(self, tmp_path, capsys):
        main(["simulate", "--n", "40", "--dims", "8,8,20", "--q", "2", "--seed", "11",
              "--output", f"{tmp_path}/x.stf"])
        rc = main(["eigengap", "--input", f"{tmp_path}/x.stf", "--output", f"{tmp_path}/gap.csv"])
        assert rc == 0
        header = (tmp_path / "gap.csv").read_text().splitlines()[0]
        assert header == "m,lambda_1,lambda_2,lambda_3,lambda_4"
        echo = json.loads((tmp_path / "gap.csv.settings.json").read_text())
        assert echo["topk"] == 4
        capsys.readouterr()
        rc = main(["eigengap", "--input", f"{tmp_path}/x.stf", "--topk", "5",
                   "--output", f"{tmp_path}/gap5.csv"])
        assert rc == 2
        assert "top_k=5 must lie in 1..4" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, expected", [
        ([], (2, 2, 2)),  # the defaults for a 5 x 5 x 6 lattice
        (["--gdfm", "--bw", "2,2,5"], (0, 0, 5)),  # the stacked (1, 1, 6) lattice
    ], ids=["default_bw", "gdfm"])
    def test_echo_records_bandwidths_used(self, tmp_path, monkeypatch, extra, expected):
        used = []

        def recording_curve(field, sizes, top_k, kernels, bw):
            used.append(bw)
            return eigenvalue_curve_by_size(field, sizes, top_k, kernels, bw)

        monkeypatch.setattr("stfactor.cli.eigenvalue_curve_by_size", recording_curve)
        main(["simulate", "--n", "6", "--dims", "5,5,6", "--q", "1",
              "--output", f"{tmp_path}/x.stf"])
        rc = main(["eigengap", "--input", f"{tmp_path}/x.stf", "--m-values", "6", "--topk", "2",
                   *extra, "--output", f"{tmp_path}/gap.csv"])
        assert rc == 0
        echo = json.loads((tmp_path / "gap.csv.settings.json").read_text())
        assert used == [expected]
        assert echo["bw"] == list(expected)

    @pytest.mark.parametrize("n, sizes", [
        (45, [4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 45]),
        (40, [4, 8, 12, 16, 20, 24, 28, 32, 36, 40]),
    ], ids=["n45", "n40"])
    def test_default_sizes_end_at_full_panel(self, tmp_path, n, sizes):
        main(["simulate", "--n", str(n), "--dims", "4,4,6", "--q", "1",
              "--output", f"{tmp_path}/x.stf"])
        rc = main(["eigengap", "--input", f"{tmp_path}/x.stf", "--bw", "1,1,2",
                   "--output", f"{tmp_path}/gap.csv"])
        assert rc == 0
        rows = (tmp_path / "gap.csv").read_text().splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == sizes
        echo = json.loads((tmp_path / "gap.csv.settings.json").read_text())
        assert echo["m_values"] == sizes


class TestMcStudy:
    def test_accuracy_smoke(self, tmp_path):
        rc = main(["mc-study", "--study", "accuracy", "--model", "b", "--n", "8",
                   "--dims", "6,6,8", "--q", "1", "--reps", "2", "--bw", "2,2,2",
                   "--seed", "10", "--output", f"{tmp_path}/mc"])
        assert rc == 0
        summary = json.loads((tmp_path / "mc.json").read_text())
        assert summary["n_reps"] == 2
        assert "E1" in summary["means"]

    def test_csv_and_summary_outputs(self, tmp_path):
        rc = main(["mc-study", "--study", "accuracy", "--model", "b", "--n", "8",
                   "--dims", "5,5,8", "--q", "1", "--seed", "45", "--reps", "2",
                   "--bw", "2,2,2", "--output", f"{tmp_path}/mc"])
        assert rc == 0
        cfg = SimConfig(model="model_b", n=8, dims=(5, 5, 8), q=1, seed=45, n_reps=2)
        out = run_mc_study(cfg, "accuracy", bw=(2, 2, 2))
        lines = (tmp_path / "mc.csv").read_text().splitlines()
        assert lines[0].startswith("rep,")
        assert len(lines) == 3
        payload = json.loads((tmp_path / "mc.json").read_text())
        assert payload["n_reps"] == 2
        assert abs(payload["means"]["E1"] - out.mean("E1")) <= 1e-12

    def test_config_file_overrides(self, tmp_path):
        cfg = {"model": "model_b", "n": 6, "dims": [5, 5, 6], "q": 1, "seed": 3, "n_reps": 2}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        rc = main(["mc-study", "--study", "accuracy", "--config", f"{tmp_path}/cfg.json",
                   "--bw", "1,1,1", "--output", f"{tmp_path}/mc"])
        assert rc == 0
        summary = json.loads((tmp_path / "mc.json").read_text())
        assert summary["settings"]["n"] == 6

    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        cfg = {"model": "model_b", "n": 6, "dims": [5, 5, 6], "q": 1, "reps": 1, "bw": [1, 1, 1]}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        rc = main(["mc-study", "--study", "accuracy", "--config", f"{tmp_path}/cfg.json",
                   "--bw", "1,1,1", "--output", f"{tmp_path}/mc"])
        assert rc == 2
        assert "['bw', 'reps']" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    @pytest.mark.parametrize("text", [None, '{"n": 6,', "[6]"], ids=["missing", "malformed", "list"])
    def test_unreadable_config_is_config_error(self, tmp_path, text):
        if text is not None:
            (tmp_path / "cfg.json").write_text(text)
        rc = main(["mc-study", "--config", f"{tmp_path}/cfg.json", "--output", f"{tmp_path}/mc"])
        assert rc == 2
        assert not (tmp_path / "mc.json").exists()

    @pytest.mark.parametrize("args", [
        ["--study", "accuracy", "--region", "interior"],
        ["--study", "selection", "--trunc", "1,1,1"],
        ["--study", "selection", "--q-fit", "5"],
        ["--study", "accuracy"],
        ["--study", "comparison"],
    ], ids=["accuracy_region", "selection_trunc", "selection_q_fit", "accuracy_qmax",
            "comparison_qmax"])
    def test_flag_the_study_does_not_read_is_config_error(self, tmp_path, args):
        # --region is no flag of any study: argparse rejects it
        rc = exit_status(["mc-study", "--n", "12", "--dims", "5,5,6", "--q", "1", "--qmax", "3",
                          "--reps", "1", "--bw", "2,2,2", "--output", f"{tmp_path}/mc"] + args)
        assert rc == 2
        assert not (tmp_path / "mc.json").exists()

    @pytest.mark.parametrize("args", [
        ["mc-study", "--bw", "9,9,9"],
        ["mc-study", "--bw", "1,1,1", "--kernel", "foo"],
        ["compare-gdfm", "--bw", "1,1,1", "--trunc", "3,3,3"],
    ], ids=["bw", "kernel", "trunc"])
    def test_config_error_inside_replication_exits_2(self, tmp_path, capsys, args):
        # resolved before the first replication, so no replication is named
        rc = main(args + ["--n", "6", "--dims", "5,5,6", "--reps", "1",
                          "--output", f"{tmp_path}/mc"])
        assert rc == 2
        assert "replication" not in capsys.readouterr().err

    @pytest.mark.parametrize("design", [{"dims": [5, 5]}, {"q": 1.5}, {"n": "40"}],
                             ids=["dims_pair", "q_float", "n_string"])
    def test_config_value_of_wrong_type_is_config_error(self, tmp_path, design):
        (tmp_path / "cfg.json").write_text(json.dumps(design))
        rc = main(["mc-study", "--config", f"{tmp_path}/cfg.json", "--n", "6", "--dims", "5,5,6",
                   "--reps", "1", "--bw", "1,1,1", "--output", f"{tmp_path}/mc"])
        assert rc == 2
        assert not (tmp_path / "mc.json").exists()

    def test_compare_gdfm_alias(self, tmp_path):
        rc = main(["compare-gdfm", "--model", "b", "--n", "8", "--dims", "4,4,10",
                   "--q", "1", "--reps", "2", "--bw", "1,1,2", "--seed", "12",
                   "--output", f"{tmp_path}/cmp"])
        assert rc == 0
        summary = json.loads((tmp_path / "cmp.json").read_text())
        assert "E1_gdfm" in summary["means"]

    @pytest.mark.parametrize("study", ["accuracy", "selection"])
    def test_echo_records_values_used(self, tmp_path, study):
        rc = main(["mc-study", "--study", study, "--n", "6", "--dims", "6,6,8", "--q", "1",
                   "--reps", "1", "--output", f"{tmp_path}/mc"]
                  + (["--qmax", "2"] if study == "selection" else []))
        assert rc == 0
        echo = json.loads((tmp_path / "mc.settings.json").read_text())
        bw = list(default_bandwidths((6, 6, 8)))
        assert echo["kernels"] == ["epanechnikov"] * 3 and echo["bw"] == bw
        # the selection study fits and filters nothing, so it has no q_fit and no truncation
        assert echo["trunc"] == (bw if study == "accuracy" else None)
        assert echo["q_fit"] == (1 if study == "accuracy" else None)

    def test_resolved_values_reproduce_the_study(self, tmp_path):
        common = ["mc-study", "--n", "6", "--dims", "6,6,8", "--q", "1", "--reps", "1"]
        assert main(common + ["--output", f"{tmp_path}/unset"]) == 0
        echo = json.loads((tmp_path / "unset.settings.json").read_text())
        assert main(common + ["--kernel", echo["kernels"][0],
                              "--bw", ",".join(map(str, echo["bw"])),
                              "--trunc", ",".join(map(str, echo["trunc"])),
                              "--output", f"{tmp_path}/set"]) == 0
        assert sha256(tmp_path / "unset.csv") == sha256(tmp_path / "set.csv")

    def test_compare_gdfm_rejects_qmax(self, tmp_path):
        rc = main(["compare-gdfm", "--n", "8", "--dims", "4,4,10", "--q", "1", "--qmax", "3",
                   "--reps", "1", "--bw", "1,1,2", "--output", f"{tmp_path}/cmp"])
        assert rc == 2
        assert not (tmp_path / "cmp.json").exists()


@pytest.mark.parametrize("args", [
    ["simulate", "--seed", "-1", "--n", "6", "--dims", "5,5,6"],
    ["simulate", "--rep", "-1", "--n", "6", "--dims", "5,5,6"],
    ["select-q", "--seed", "-1", "--qmax", "2", "--bw", "1,1,1"],
    ["mc-study", "--seed", "-3", "--n", "6", "--dims", "5,5,6", "--reps", "1", "--bw", "1,1,1"],
], ids=["simulate_seed", "simulate_rep", "select_q_seed", "mc_study_seed"])
def test_negative_seed_or_replication_exits_2(tmp_path, capsys, args):
    if args[0] == "select-q":
        main(["simulate", "--n", "6", "--dims", "5,5,6", "--q", "1",
              "--output", f"{tmp_path}/x.stf"])
        args = args + ["--input", f"{tmp_path}/x.stf"]
    capsys.readouterr()
    rc = main(args + ["--output", f"{tmp_path}/out"])
    assert rc == 2
    assert f"got {args[2]}" in capsys.readouterr().err
    assert not any(tmp_path.glob("out*"))


@pytest.mark.parametrize("args", [
    ["select-q", "--subsamples", "4,x"],
    ["eigengap", "--m-values", "2,x"],
    ["eigengap", "--topk", "-1"],
    ["mc-study", "--threads", "0", "--n", "6", "--dims", "5,5,6", "--reps", "1", "--bw", "1,1,1"],
], ids=["subsamples", "m_values", "topk", "threads"])
def test_malformed_list_or_count_flag_exits_2(tmp_path, args):
    main(["simulate", "--n", "6", "--dims", "5,5,6", "--q", "1", "--output", f"{tmp_path}/x.stf"])
    if args[0] != "mc-study":
        args = args + ["--input", f"{tmp_path}/x.stf", "--bw", "1,1,1"]
    rc = main(args + ["--output", f"{tmp_path}/out"])
    assert rc == 2
    assert not any(tmp_path.glob("out*"))


@pytest.mark.parametrize("command", [
    ["simulate"], ["mc-study", "--reps", "1"], ["compare-gdfm", "--reps", "1"],
], ids=["simulate", "mc_study", "compare_gdfm"])
def test_radius_with_model_b_exits_2(tmp_path, capsys, command):
    rc = main(command + ["--model", "b", "--ra", "3", "--n", "6", "--dims", "5,5,6",
                         "--output", f"{tmp_path}/out"])
    assert rc == 2
    assert "--ra" in capsys.readouterr().err
    assert not any(tmp_path.glob("out*"))


@pytest.mark.parametrize("command, bad", [
    (["simulate", "--n", "6", "--dims", "5,5,6", "--output", "{tmp}/missing/out"],
     "--output {tmp}/missing/"),
    (["simulate", "--n", "6", "--dims", "5,5,6", "--truth-output", "{tmp}/missing/chi.stf",
      "--output", "{tmp}/x.stf"], "--truth-output {tmp}/missing/"),
    (["estimate", "--input", "{tmp}/x.stf", "--q", "1", "--output", "{tmp}/missing/out"],
     "--output {tmp}/missing/"),
    (["select-q", "--input", "{tmp}/x.stf", "--output", "{tmp}/missing/out"],
     "--output {tmp}/missing/"),
    (["eigengap", "--input", "{tmp}/x.stf", "--output", "{tmp}/missing/out"],
     "--output {tmp}/missing/"),
    (["mc-study", "--n", "6", "--dims", "5,5,6", "--output", "{tmp}/missing/out"],
     "--output {tmp}/missing/"),
    (["compare-gdfm", "--n", "6", "--dims", "5,5,6", "--output", "{tmp}/missing/out"],
     "--output {tmp}/missing/"),
    # paths opened as given may not name a directory
    (["simulate", "--n", "6", "--dims", "5,5,6", "--output", "{tmp}/dir"],
     "--output {tmp}/dir is a directory"),
    (["simulate", "--n", "6", "--dims", "5,5,6", "--truth-output", "{tmp}/dir",
      "--output", "{tmp}/x.stf"], "--truth-output {tmp}/dir is a directory"),
    (["estimate", "--input", "{tmp}/x.stf", "--q", "1", "--output", "{tmp}/dir"],
     "--output {tmp}/dir is a directory"),
    (["eigengap", "--input", "{tmp}/x.stf", "--output", "{tmp}/dir"],
     "--output {tmp}/dir is a directory"),
], ids=["simulate", "truth_output", "estimate", "select_q", "eigengap", "mc_study",
        "compare_gdfm", "simulate_dir", "truth_output_dir", "estimate_dir", "eigengap_dir"])
def test_missing_output_directory_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                          command, bad):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output check")

    # the input files do not exist either: reading them would be exit code 3
    for name in ("simulate_field", "run_mc_study", "load_field"):
        monkeypatch.setattr(f"stfactor.cli.{name}", no_work)
    (tmp_path / "dir").mkdir()
    rc = main([a.format(tmp=tmp_path) for a in command])
    assert rc == 2
    assert bad.format(tmp=tmp_path) in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "dir"]
    assert list((tmp_path / "dir").iterdir()) == []


@pytest.mark.parametrize("command, written", [
    (["simulate", "--n", "6", "--dims", "5,5,6"], ".settings.json"),
    (["estimate", "--input", "{tmp}/x.stf", "--q", "1"], ".json"),
    (["select-q", "--input", "{tmp}/x.stf"], ".csv"),
    (["eigengap", "--input", "{tmp}/x.stf"], ".settings.json"),
    (["mc-study", "--n", "6", "--dims", "5,5,6"], ".json"),
    (["compare-gdfm", "--n", "6", "--dims", "5,5,6"], ".settings.json"),
], ids=["simulate", "estimate", "select_q", "eigengap", "mc_study", "compare_gdfm"])
def test_derived_output_directory_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                          command, written):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output check")

    for name in ("simulate_field", "run_mc_study", "load_field"):
        monkeypatch.setattr(f"stfactor.cli.{name}", no_work)
    (tmp_path / f"out{written}").mkdir()
    rc = main([a.format(tmp=tmp_path) for a in command] + ["--output", f"{tmp_path}/out"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"--output {tmp_path}/out{written} is a directory" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [tmp_path / f"out{written}"]
    assert list((tmp_path / f"out{written}").iterdir()) == []


def test_config_radius_with_model_b_exits_2(tmp_path, capsys):
    (tmp_path / "cfg.json").write_text(json.dumps({"r_a": 3}))
    rc = main(["mc-study", "--model", "b", "--config", f"{tmp_path}/cfg.json", "--n", "6",
               "--dims", "5,5,6", "--reps", "1", "--output", f"{tmp_path}/out"])
    assert rc == 2
    assert "r_a=3" in capsys.readouterr().err
    assert not any(tmp_path.glob("out*"))


def test_model_b_echoes_no_radius(tmp_path):
    echo = _echo(tmp_path, ["simulate", "--model", "b", "--n", "2", "--dims", "3,3,4", "--q", "1"])
    assert echo["r_a"] is None
    echo = _echo(tmp_path, ["simulate", "--model", "a", "--n", "2", "--dims", "3,3,4", "--q", "1"])
    assert echo["r_a"] == 40


def test_empty_interior_exits_2_without_output(tmp_path, capsys):
    rc = main(["mc-study", "--n", "4", "--dims", "4,4,6", "--q", "1", "--reps", "1",
               "--output", f"{tmp_path}/out"])
    assert rc == 2
    assert "no interior point" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_default_c_grid_is_the_library_default(tmp_path, monkeypatch):
    grids = []

    def spy(*args, **kwargs):
        scan = stability_scan(*args, **kwargs)
        grids.append(scan.c_grid)
        return scan

    monkeypatch.setattr("stfactor.cli.stability_scan", spy)
    monkeypatch.setattr("stfactor.simlab.stability_scan", spy)
    cfg = stfactor.SimConfig(model="model_b", n=20, dims=(8, 8, 8), q=1, seed=46)
    stfactor.run_mc_study(cfg, "selection", bw=(2, 2, 2))
    main(["simulate", "--n", "20", "--dims", "8,8,8", "--q", "1", "--seed", "46",
          "--output", f"{tmp_path}/x.stf"])
    echo = _echo(tmp_path, ["select-q", "--input", f"{tmp_path}/x.stf", "--bw", "2,2,2"])
    assert len(grids) == 2 and np.array_equal(grids[0], grids[1])
    assert np.array_equal(grids[0], np.arange(0, 6001) / 2000)
    assert echo["cgrid"] is None and echo["c_grid"] == [0.0, 3.0, 6001]
    assert echo["q_max"] == 10


def _echo(tmp_path, args):
    assert main(args + ["--output", f"{tmp_path}/out"]) == 0
    return json.loads((tmp_path / "out.settings.json").read_text())


# the echo keys of each command, as README "Command line" names them
ECHO_KEYS = {
    "estimate": ["command", "input", "n", "dims", "q", "kernels", "bw", "trunc", "eigen_workers"],
    "select-q": ["command", "input", "q_max", "bw", "kernels", "subsample_sizes", "seed",
                 "c_grid", "eigen_workers", "cgrid", "c_manual", "selected_q", "selected_c"],
    "eigengap": ["command", "input", "m_values", "topk", "kernel", "bw", "gdfm"],
    "mc-study": ["command", "model", "n", "dims", "q", "idio", "r_a", "study", "q_fit", "q_max",
                 "kernels", "bw", "trunc", "threads", "truth_retained", "seed"],
}


@pytest.mark.parametrize("command, args", [
    ("estimate", ["--q", "1"]),
    ("select-q", ["--qmax", "3", "--cgrid", "0:0.05:4", "--subsamples", "10,11",
                  "--c-manual", "0.5"]),
    ("eigengap", ["--m-values", "6,12", "--topk", "2"]),
    ("mc-study", ["--n", "6", "--dims", "5,5,6", "--q", "1", "--reps", "1"]),
], ids=["estimate", "select_q", "eigengap", "mc_study"])
def test_echo_key_sets(tmp_path, command, args):
    if command != "mc-study":
        main(["simulate", "--n", "12", "--dims", "5,5,6", "--q", "1",
              "--output", f"{tmp_path}/x.stf"])
        args = args + ["--input", f"{tmp_path}/x.stf", "--bw", "2,2,2"]
    echo = _echo(tmp_path, [command] + args)
    assert sorted(echo) == sorted(ECHO_KEYS[command] + ["version", "argv"])
    assert echo["command"] == ("accuracy" if command == "mc-study" else command)


def read_table(path):
    """Header and float cells of a result CSV, which must end its lines with a bare newline."""
    data = Path(path).read_bytes()
    assert b"\r" not in data, path
    header, *rows = data.decode("ascii").splitlines()
    return header.split(","), np.array([[float(v) for v in row.split(",")] for row in rows])


def test_tables_parse_back_bit_equal_to_the_library(tmp_path):
    main(["simulate", "--model", "b", "--n", "12", "--dims", "6,6,8", "--q", "1", "--seed", "3",
          "--output", f"{tmp_path}/x.stf"])
    field = demean(load_field(tmp_path / "x.stf"))

    assert main(["eigengap", "--input", f"{tmp_path}/x.stf", "--m-values", "4,8,12",
                 "--topk", "3", "--bw", "2,2,2", "--output", f"{tmp_path}/gap.csv"]) == 0
    header, cells = read_table(tmp_path / "gap.csv")
    curve = eigenvalue_curve_by_size(field, [4, 8, 12], 3, "ep", (2, 2, 2))
    assert header == ["m", "lambda_1", "lambda_2", "lambda_3"]
    assert np.array_equal(cells[:, 0], [4, 8, 12]) and np.array_equal(cells[:, 1:], curve)

    assert main(["select-q", "--input", f"{tmp_path}/x.stf", "--qmax", "3", "--cgrid",
                 "0:0.05:4", "--subsamples", "10,11", "--bw", "2,2,2", "--c-manual", "1",
                 "--output", f"{tmp_path}/scan"]) == 0
    header, cells = read_table(tmp_path / "scan.csv")
    scan = stability_scan(field, 3, 0.05 * np.arange(81), subsample_sizes=[10, 11], bw=(2, 2, 2),
                          c_manual=1)
    assert header == ["c", "S_c", "qhat_full"]
    assert np.array_equal(cells, np.column_stack([scan.c_grid, scan.s_curve, scan.q_by_c]))

    assert main(["mc-study", "--study", "accuracy", "--n", "8", "--dims", "6,6,8", "--q", "1",
                 "--reps", "2", "--bw", "2,2,2", "--seed", "10", "--output", f"{tmp_path}/mc"]) == 0
    header, cells = read_table(tmp_path / "mc.csv")
    cfg = SimConfig(model="model_b", n=8, dims=(6, 6, 8), q=1, seed=10, n_reps=2)
    result = run_mc_study(cfg, "accuracy", bw=(2, 2, 2))
    assert header == ["rep", *result.metrics]
    assert np.array_equal(cells, np.column_stack([np.arange(2), *result.metrics.values()]))


@pytest.mark.skipif(_rowmap._blas_thread_controls() is None,
                    reason="numpy's LAPACK has no OpenBLAS thread setter")
class TestBlasPin:
    """estimate, select-q and eigengap run on one BLAS thread throughout, and restore the count."""

    def test_analyses_hold_one_blas_thread(self, tmp_path, monkeypatch):
        get, set_ = _rowmap._blas_thread_controls()
        entered = {}
        # each analysis entry's first step, before its row maps pin BLAS
        for module, name in ((commoncomp, "eigensystem_from_field"),
                             (qselect, "sample_autocovariance"),
                             (dynpca, "estimate_spectral_density")):
            def spy(*args, _name=name, _call=getattr(module, name), **kwargs):
                entered[_name] = get()
                return _call(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        store_field(random_field((6, 5, 5, 8), seed=64, demeaned=False), tmp_path / "x.stf")
        before = get()
        set_(2)  # a count the commands must change and restore
        try:
            for args in (["estimate", "--q", "1", "--output", f"{tmp_path}/chi.stf"],
                         ["select-q", "--qmax", "2", "--cgrid", "0:0.5:2", "--subsamples", "5,4",
                          "--output", f"{tmp_path}/scan"],
                         ["eigengap", "--m-values", "3,6", "--output", f"{tmp_path}/gap.csv"]):
                main(args + ["--input", f"{tmp_path}/x.stf", "--bw", "1,1,1"])
                assert get() == 2, args[0]
        finally:
            set_(before)
        assert entered == dict.fromkeys(entered, 1) and len(entered) == 3


# generated from the parser: every flag that takes a number, a number list or a grid, fed nan,
# inf and a non-number in each of its places in turn; a valid value of every such flag
NUMERIC_VALUES = {
    "--n": "6", "--dims": "5,5,6", "--q": "1", "--ra": "3", "--rep": "0", "--seed": "0",
    "--trunc": "1,1,1", "--bw": "1,1,1", "--qmax": "2", "--cgrid": "0:0.5:3",
    "--subsamples": "8,10", "--c-manual": "0.5", "--m-values": "4,8", "--topk": "2",
    "--q-fit": "1", "--reps": "1", "--threads": "1",
}
NOT_NUMERIC = {"--input", "--output", "--truth-output", "--config", "--kernel"}
# a minimal valid argv of each subcommand, less --output; {x} is a tiny simulated panel
MINIMAL_ARGV = {
    "simulate": ["--n", "4", "--dims", "4,4,6"],
    "estimate": ["--input", "{x}", "--q", "1", "--bw", "1,1,1"],
    "select-q": ["--input", "{x}", "--qmax", "2", "--subsamples", "8,10", "--c-manual", "0.5",
                 "--bw", "2,2,2"],
    "eigengap": ["--input", "{x}", "--bw", "1,1,1"],
    "mc-study": ["--n", "6", "--dims", "5,5,6", "--reps", "1", "--bw", "1,1,1"],
    "compare-gdfm": ["--n", "6", "--dims", "5,5,6", "--reps", "1", "--bw", "1,1,1"],
}


def _numeric_flags():
    subcommands = next(a for a in cli.build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)).choices
    return [(command, action) for command, sub in subcommands.items() for action in sub._actions
            if action.option_strings and action.option_strings[0] not in NOT_NUMERIC
            and action.nargs != 0 and action.choices is None]


NUMERIC_FLAGS = _numeric_flags()


@pytest.fixture(scope="module")
def tiny_panel(tmp_path_factory):
    path = tmp_path_factory.mktemp("panel") / "x.stf"
    store_field(random_field((12, 5, 5, 6), seed=81, demeaned=False), path)
    return str(path)


def _argv(command, tiny_panel, flag=None, value=None):
    args = [a.format(x=tiny_panel) for a in MINIMAL_ARGV[command]]
    if flag in args:
        del args[args.index(flag):args.index(flag) + 2]
    return [command] + args + ([flag, value] if flag else [])


@pytest.mark.parametrize("command", MINIMAL_ARGV)
def test_minimal_argv_succeeds(tmp_path, tiny_panel, command):
    assert main(_argv(command, tiny_panel) + ["--output", f"{tmp_path}/out"]) == 0


def test_every_numeric_flag_has_a_value():
    assert {action.option_strings[0] for _, action in NUMERIC_FLAGS} == set(NUMERIC_VALUES)
    assert {command for command, _ in NUMERIC_FLAGS} == set(MINIMAL_ARGV)


@pytest.mark.parametrize("command, action", NUMERIC_FLAGS,
                         ids=[f"{c}{a.option_strings[0]}" for c, a in NUMERIC_FLAGS])
def test_non_finite_or_non_numeric_flag_exits_2(tmp_path, capsys, tiny_panel, command, action):
    flag = action.option_strings[0]
    parts = re.split(r"([,:])", NUMERIC_VALUES[flag])  # numbers at even places, separators between
    for place in range(0, len(parts), 2):
        for token in ("nan", "inf", "x"):
            value = "".join(token if k == place else part for k, part in enumerate(parts))
            argv = _argv(command, tiny_panel, flag, value) + ["--output", f"{tmp_path}/out"]
            status = exit_status(argv)
            err = capsys.readouterr().err
            assert status == 2, argv
            assert "Traceback" not in err, argv
            assert flag in err or action.dest in err, (argv, err)


@pytest.mark.parametrize("value", ["-5", "1e9"])
def test_c_manual_outside_the_grid_exits_2(tmp_path, capsys, tiny_panel, value):
    # the default grid is 0:0.0005:3; a scale outside it used to read the nearest end
    argv = _argv("select-q", tiny_panel, "--c-manual", value) + ["--output", f"{tmp_path}/out"]
    assert exit_status(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"c_manual={float(value)} lies outside the c grid [0.0, 3.0]" in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", [
    ["simulate", "--model", "a", "--ra", "2", "--n", "5", "--dims", "4,4,6", "--q", "1"],
    ["mc-study", "--model", "b", "--idio", "correlated", "--n", "5", "--dims", "4,4,6", "--q", "1",
     "--reps", "1", "--bw", "1,1,1"],
], ids=["simulate", "mc_study"])
def test_simulation_short_of_memory_exits_2(tmp_path, capsys, monkeypatch, command):
    # the design is checked before its first draw; the CLI names it and its bytes
    monkeypatch.setattr(spectral, "_physical_memory_bytes", lambda: 4096)
    assert exit_status(command + ["--output", f"{tmp_path}/out"]) == 2
    err = capsys.readouterr().err
    design = "model_a design with n=5" if command[0] == "simulate" else "model_b design with n=5"
    assert "Traceback" not in err and re.search(f"{design}, .* needs \\d+ bytes, more than the 4096", err)
    assert not os.path.exists(f"{tmp_path}/out")


@pytest.mark.parametrize("command", [
    ["compare-gdfm", "--n", "6", "--dims", "5,5,6", "--reps", "1", "--bw", "1,1,1"],
    ["eigengap", "--input", "{x}", "--gdfm", "--m-values", "300", "--bw", "1,1,1"],
], ids=["compare_gdfm", "eigengap_gdfm"])
def test_gram_route_short_of_memory_exits_2(tmp_path, capsys, monkeypatch, tiny_panel, command):
    # one byte short of the Gram route's rows; the comparison's panel estimate and stacked filter
    # need more, so it stops at an earlier check, the stacked curve at the Gram route's own
    argv = [a.format(x=tiny_panel) for a in command] + ["--output", f"{tmp_path}/out"]
    needs = []
    check = dynpca._check_memory
    monkeypatch.setattr(dynpca, "_check_memory", lambda step, need: needs.append(need) or check(step, need))
    assert main(argv) == 0
    monkeypatch.setattr(spectral, "_physical_memory_bytes", lambda: needs[0] - 1)
    capsys.readouterr()
    assert exit_status(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "bytes of physical memory" in err
    assert ("Gram route's rows for n=300" in err) == (command[0] == "eigengap")
