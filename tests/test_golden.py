"""The pipeline and the simulator reproduce their checked-in record, inline and on two row-map
workers."""

import numpy as np
import pytest

from stfactor import _rowmap
from golden import (CASES, DRAWS_PATH, PATH, STUDIES_PATH, compute, compute_draws, compute_studies,
                    versions)


def load(path):
    with np.load(path) as data:
        return dict(data)


@pytest.fixture(scope="module")
def record():
    return load(PATH)


@pytest.fixture(scope="module")
def studies_record():
    return load(STUDIES_PATH)


def pool(monkeypatch, pooled):
    if pooled:
        monkeypatch.setattr(_rowmap, "_POOL_MIN_COST", 0)
        monkeypatch.setattr(_rowmap.os, "sched_getaffinity", lambda pid: {0, 1})


def assert_matches(arrays, record, prefix=""):
    # bit for bit on the builds that wrote the record, else within 1e-12 of each array's scale
    recorded, running = str(record["versions"]), versions()
    exact = recorded == running
    for name, value in arrays.items():
        want = record[f"{prefix}{name}"]
        where = f"{prefix}{name}: {running} against the record's {recorded}"
        assert value.shape == want.shape and value.dtype == want.dtype, where
        if exact or want.dtype.kind in "bi":
            assert np.array_equal(value, want), where
        else:
            np.testing.assert_allclose(value, want, rtol=1e-12, atol=1e-12 * np.abs(want).max(),
                                       err_msg=where)


POOLED = pytest.mark.parametrize("pooled", [False, True], ids=["inline", "two_workers"])


@POOLED
@pytest.mark.parametrize("case", CASES)
def test_matches_the_record(monkeypatch, record, case, pooled):
    pool(monkeypatch, pooled)
    assert_matches(compute(*CASES[case]), record, f"{case}.")


@POOLED
def test_studies_scan_and_curves_match_the_record(monkeypatch, studies_record, pooled):
    pool(monkeypatch, pooled)
    arrays = compute_studies()
    assert sorted(arrays) == sorted(set(studies_record) - {"versions"})
    assert_matches(arrays, studies_record)


@POOLED
def test_draws_match_the_record(monkeypatch, pooled):
    pool(monkeypatch, pooled)
    record = load(DRAWS_PATH)
    arrays = compute_draws()
    assert sorted(arrays) == sorted(set(record) - {"versions"})
    assert_matches(arrays, record)
