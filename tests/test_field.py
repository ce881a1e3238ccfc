import io

import numpy as np
import pytest

from stfactor import (
    ConfigError,
    DataError,
    LatticeField,
    as_demeaned_field,
    demean,
    load_field,
    stack_to_time_series,
    stacked_series_as_field,
    store_field,
)
from conftest import random_field
from oracles import subfield


class TestLatticeField:
    def test_rejects_nonfinite_with_coordinate(self):
        values = np.zeros((2, 3, 2, 4))
        values[1, 2, 0, 3] = np.inf
        with pytest.raises(DataError, match=r"\(2, 3, 1, 4\)"):
            LatticeField(values)

    def test_rejects_wrong_rank(self):
        with pytest.raises(DataError):
            LatticeField(np.zeros((2, 3, 4)))

    def test_values_read_only(self):
        field = random_field((2, 3, 3, 4), demeaned=False)
        with pytest.raises(ValueError):
            field.values[0, 0, 0, 0] = 1.0

    def test_demeaned_flag_validated(self):
        with pytest.raises(DataError):
            LatticeField(np.ones((1, 2, 2, 2)), demeaned=True)


class TestDemean:
    def test_constant_field(self):
        field = LatticeField(np.full((2, 3, 2, 4), 5.0))
        out = demean(field)
        assert np.all(out.values == 0.0)
        assert np.allclose(out.series_means, 5.0)
        assert out.demeaned

    def test_zero_mean_field_unchanged(self):
        values = np.random.default_rng(3).standard_normal((2, 4, 4, 6))
        values -= values.mean(axis=(1, 2, 3), keepdims=True)
        out = demean(LatticeField(values))
        assert np.max(np.abs(out.values - values)) < 1e-15

    def test_shift_invariance(self):
        # shifting one series by a constant must not change the demeaned field
        base = np.random.default_rng(4).standard_normal((3, 4, 5, 6))
        shifted = base.copy()
        shifted[1] += 17.25
        out_base = demean(LatticeField(base))
        out_shift = demean(LatticeField(shifted))
        np.testing.assert_allclose(out_shift.values, out_base.values, atol=1e-13)

    def test_grand_mean_below_tolerance(self):
        out = demean(LatticeField(1e6 + np.random.default_rng(5).standard_normal((2, 5, 5, 5))))
        means = out.values.mean(axis=(1, 2, 3))
        stds = out.values.std(axis=(1, 2, 3))
        assert np.all(np.abs(means) <= 1e-12 * stds)

    def test_double_demean_rejected(self):
        field = demean(LatticeField(np.random.default_rng(0).standard_normal((1, 2, 2, 2))))
        with pytest.raises(ConfigError):
            demean(field)


class TestAsDemeanedField:
    def test_demeaned_values_kept_bit_identical(self):
        values = random_field((3, 4, 4, 5), seed=6).values
        out = as_demeaned_field(values)
        assert out.demeaned and np.array_equal(out.values, values)

    def test_other_values_demeaned(self):
        values = random_field((3, 4, 4, 5), seed=7, demeaned=False).values + 2.5
        out = as_demeaned_field(values)
        assert np.array_equal(out.values, demean(LatticeField(values)).values)


class TestSubfield:
    """The oracle that tests use to take the leading series of a panel."""

    def test_full_is_identity(self):
        field = random_field((5, 3, 3, 4))
        out = subfield(field, 5)
        np.testing.assert_array_equal(out.values, field.values)

    def test_single_series(self):
        field = random_field((5, 3, 3, 4))
        out = subfield(field, 1)
        np.testing.assert_array_equal(out.values[0], field.values[0])
        assert out.n == 1

    def test_matches_manual_slice(self):
        field = random_field((5, 3, 3, 4))
        np.testing.assert_array_equal(subfield(field, 3).values, field.values[:3])

    def test_nested_composition(self):
        field = random_field((6, 2, 3, 4))
        once = subfield(field, 2)
        twice = subfield(subfield(field, 4), 2)
        np.testing.assert_array_equal(once.values, twice.values)

    def test_out_of_range(self):
        field = random_field((3, 2, 2, 2))
        for m in (0, 4):
            with pytest.raises(ConfigError):
                subfield(field, m)


class TestStacking:
    def test_trivial_single_location(self):
        field = random_field((1, 1, 1, 7), demeaned=False)
        stacked = stack_to_time_series(field)
        assert len(stacked) == 1
        np.testing.assert_array_equal(stacked[0], field.values[0, 0, 0])

    def test_exhaustive_index_map(self):
        # row (ell-1)*S1*S2 + (s1-1)*S2 + (s2-1) holds cell (ell, s1, s2)
        field = random_field((2, 3, 2, 3), demeaned=False)
        stacked = stack_to_time_series(field)
        assert stacked.shape == (12, 3)
        assert np.shares_memory(stacked, field.values)
        for ell in range(1, 3):
            for s1 in range(1, 4):
                for s2 in range(1, 3):
                    row = (ell - 1) * 3 * 2 + (s1 - 1) * 2 + (s2 - 1)
                    np.testing.assert_array_equal(
                        stacked[row], field.values[ell - 1, s1 - 1, s2 - 1]
                    )

    def test_round_trip(self):
        field = random_field((3, 2, 4, 5), demeaned=False)
        stacked = stack_to_time_series(field)
        np.testing.assert_array_equal(stacked.reshape(field.values.shape), field.values)

    def test_time_slice_multiset_preserved(self):
        field = random_field((3, 2, 2, 4), demeaned=False)
        stacked = stack_to_time_series(field)
        for t in range(4):
            np.testing.assert_array_equal(
                np.sort(stacked[:, t]), np.sort(field.values[..., t].ravel())
            )

    def test_as_field(self):
        field = random_field((2, 2, 2, 3), demeaned=False)
        sf = stacked_series_as_field(stack_to_time_series(field))
        assert sf.n == 8 and sf.dims == (1, 1, 3)
        # a view of the same read-only values, not marked demeaned
        assert np.shares_memory(sf.values, field.values) and not sf.values.flags.writeable
        assert not sf.demeaned
        assert demean(sf).demeaned


class TestFileFormats:
    def test_csv_shape_bookkeeping(self):
        text = "ell,s1,s2,t,value\n1,1,1,1,1.5\n1,1,1,2,-2\n1,2,1,1,0.25\n1,2,1,2,3\n"
        field = load_field(io.BytesIO(text.encode()), "csv")
        assert field.n == 1 and field.dims == (2, 1, 2)
        assert field.values[0, 1, 0, 1] == 3.0
        assert not field.demeaned

    def test_binary_round_trip_bit_exact(self):
        field = random_field((3, 4, 2, 5), seed=9, demeaned=False)
        buf = io.BytesIO()
        store_field(field, buf, "stf-binary")
        buf.seek(0)
        loaded = load_field(buf, "stf-binary")
        assert np.array_equal(loaded.values, field.values)
        assert loaded.values.tobytes() == field.values.tobytes()

    def test_csv_round_trip_value_exact(self, tmp_path):
        field = random_field((2, 3, 2, 3), seed=10, demeaned=False)
        path = tmp_path / "field.csv"
        store_field(field, path)
        loaded = load_field(path)
        np.testing.assert_array_equal(loaded.values, field.values)

    def test_csv_stream_left_open(self):
        stream = io.BytesIO(b"ell,s1,s2,t,value\n1,1,1,1,0.5\n")
        assert load_field(stream, "csv").values[0, 0, 0, 0] == 0.5
        assert not stream.closed
        with pytest.raises(DataError, match="header"):
            load_field(stream, "csv")  # at its end now: no header left
        assert not stream.closed

    def test_payload_one_short(self):
        field = random_field((1, 2, 1, 4), demeaned=False)
        buf = io.BytesIO()
        store_field(field, buf, "stf-binary")
        data = buf.getvalue()[:-8]
        with pytest.raises(DataError, match="expected 8 values, got 7"):
            load_field(io.BytesIO(data), "stf-binary")

    def test_csv_payload_one_short(self):
        text = "ell,s1,s2,t,value\n" + "\n".join(
            f"1,{s1},1,{t},0.0" for s1 in (1, 2) for t in (1, 2, 3, 4)
        )
        lines = text.splitlines()
        with pytest.raises(DataError, match="expected 8 values, got 7"):
            load_field(io.BytesIO("\n".join(lines[:-1]).encode()), "csv")

    def test_malformed_binary_header(self):
        with pytest.raises(DataError, match="header"):
            load_field(io.BytesIO(b"NOPE 1 1 1 1\n"), "stf-binary")

    def test_malformed_csv_header(self):
        with pytest.raises(DataError, match="header"):
            load_field(io.BytesIO(b"a,b,c\n1,2,3\n"), "csv")

    def test_non_ascii_csv_byte_is_data_error(self):
        # the reader decodes in chunks, so the bad byte surfaces at the header read
        with pytest.raises(DataError, match=r"non-ASCII byte b'\\xe9'"):
            load_field(io.BytesIO(b"ell,s1,s2,t,value\n1,1,1,1,0.5\xe9\n"), "csv")
        # past the first chunk it surfaces while reading the rows
        rows = "".join(f"1,1,1,{t},0.0\n" for t in range(1, 2001)).encode()
        with pytest.raises(DataError, match=r"non-ASCII byte b'\\xff'"):
            load_field(io.BytesIO(b"ell,s1,s2,t,value\n" + rows + b"1,1,1,2001,\xff\n"), "csv")

    def test_nonfinite_value_rejected_with_coordinate(self):
        text = "ell,s1,s2,t,value\n1,1,1,1,nan\n1,1,1,2,0\n"
        with pytest.raises(DataError, match=r"\(1, 1, 1, 1\)"):
            load_field(io.BytesIO(text.encode()), "csv")

    def test_duplicate_csv_row(self):
        text = "ell,s1,s2,t,value\n1,1,1,1,0\n1,1,1,1,1\n1,1,1,3,2\n"
        with pytest.raises(DataError, match="duplicate"):
            load_field(io.BytesIO(text.encode()), "csv")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_store_load_identity_property(self, tmp_path, seed):
        field = random_field((2, 2, 3, 4), seed=seed, demeaned=False)
        p1 = tmp_path / f"f{seed}.stf"
        store_field(field, p1, "stf-binary")
        assert np.array_equal(load_field(p1, "stf-binary").values, field.values)
