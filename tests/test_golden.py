"""The pipeline reproduces its checked-in record, inline and on two row-map workers."""

import numpy as np
import pytest

from stfactor import _rowmap
from golden import CASES, PATH, compute, versions


@pytest.fixture(scope="module")
def record():
    with np.load(PATH) as data:
        return dict(data)


@pytest.mark.parametrize("pooled", [False, True], ids=["inline", "two_workers"])
@pytest.mark.parametrize("case", CASES)
def test_matches_the_record(monkeypatch, record, case, pooled):
    if pooled:
        monkeypatch.setattr(_rowmap, "_POOL_MIN_COST", 0)
        monkeypatch.setattr(_rowmap.os, "sched_getaffinity", lambda pid: {0, 1})
    # bit for bit on the builds that wrote the record, else within 1e-12 of each array's scale
    recorded, running = str(record["versions"]), versions()
    exact = recorded == running
    for name, value in compute(*CASES[case]).items():
        want = record[f"{case}.{name}"]
        where = f"{case}.{name}: {running} against the record's {recorded}"
        assert value.shape == want.shape and value.dtype == want.dtype, where
        if exact or want.dtype == bool:
            assert np.array_equal(value, want), where
        else:
            np.testing.assert_allclose(value, want, rtol=1e-12, atol=1e-12 * np.abs(want).max(),
                                       err_msg=where)
