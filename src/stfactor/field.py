"""Lattice-indexed random-field data model and I/O.

A field holds ``n`` real-valued series observed on a regular
``S1 x S2`` spatial lattice over ``T`` time points.  Values are stored
as a 4-array indexed ``(ell, s1, s2, t)`` with the time axis fastest
(cache-friendly for temporal lag loops).  All public coordinates are
1-based: series ``ell = 1..n``, space ``s1 = 1..S1``, ``s2 = 1..S2``,
time ``t = 1..T``.  Spatially, ``(s1, s2) = (1, 1)`` is the South-West
corner of the lattice; ``s1`` grows East and ``s2`` grows North.

A spatio-temporal lag/shift is an integer triple ``(h1, h2, h3)``;
plain tuples are used throughout.

Two on-disk formats are supported:

* ``csv`` -- header ``ell,s1,s2,t,value``, one row per lattice point,
  values printed with 17 significant digits (value-exact round trip).
* ``stf-binary`` -- ASCII magic line ``STF1 n S1 S2 T\\n`` followed by
  little-endian float64 in storage order (bit-exact round trip).

Fields are immutable after construction and safe to share across
threads; every operation here is pure.  Stacking the (series, site)
pairs into one long vector time series returns a view of the same
read-only values, not a new array.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

__all__ = [
    "LatticeField",
    "demean",
    "as_demeaned_field",
    "stack_to_time_series",
    "stacked_series_as_field",
    "load_field",
    "store_field",
]

_MAGIC = b"STF1"

# Relative tolerance for the "series mean is zero" invariant of a
# demeaned field (measured against the series standard deviation).
DEMEANED_MEAN_RTOL = 1e-12


def _first_nonfinite_coordinate(values: np.ndarray) -> tuple[int, int, int, int] | None:
    """Return the 1-based (ell, s1, s2, t) of the first non-finite entry."""
    bad = ~np.isfinite(values)
    if not bad.any():
        return None
    flat = int(np.flatnonzero(bad)[0])
    ell, s1, s2, t = np.unravel_index(flat, values.shape)
    return (int(ell) + 1, int(s1) + 1, int(s2) + 1, int(t) + 1)


@dataclass(frozen=True)
class LatticeField:
    """n series on an S1 x S2 x T lattice.

    Attributes
    ----------
    values : ndarray, shape (n, S1, S2, T)
        Real observations, float64, indexed (ell, s1, s2, t) 0-based
        internally (coordinate c maps to array index c - 1).
    demeaned : bool
        True once the per-series grand mean has been removed.
    series_means : ndarray, shape (n,) or None
        The removed means; populated by :func:`demean`.
    """

    values: np.ndarray
    demeaned: bool = False
    series_means: np.ndarray | None = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 4:
            raise DataError(f"field values must be 4-dimensional, got shape {values.shape}")
        if min(values.shape) < 1:
            raise DataError(f"all field extents must be positive, got shape {values.shape}")
        offender = _first_nonfinite_coordinate(values)
        if offender is not None:
            raise DataError(f"non-finite value at (ell,s1,s2,t)={offender}")
        values = np.ascontiguousarray(values)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if self.demeaned:
            means = values.mean(axis=(1, 2, 3))
            stds = values.std(axis=(1, 2, 3))
            scale = np.where(stds > 0, stds, 1.0)
            if np.any(np.abs(means) > DEMEANED_MEAN_RTOL * scale):
                raise DataError("field marked demeaned but a series has non-zero grand mean")
            if self.series_means is None:
                object.__setattr__(self, "series_means", np.zeros(self.n))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def dims(self) -> tuple[int, int, int]:
        """(S1, S2, T) lattice extents."""
        return self.values.shape[1:]

    @property
    def lattice_size(self) -> int:
        """Number of lattice points S1*S2*T."""
        s1, s2, t = self.dims
        return s1 * s2 * t


def demean(field: LatticeField) -> LatticeField:
    """Remove the grand mean of each series over all lattice points.

    The mean is a single constant per series (not per-location or
    per-time).  A second pass removes the floating-point residual so
    the remaining mean is at machine-epsilon level.

    Raises
    ------
    ConfigError
        If the field is already demeaned.
    """
    if field.demeaned:
        raise ConfigError("field is already demeaned")
    means = field.values.mean(axis=(1, 2, 3))
    centered = field.values - means[:, None, None, None]
    centered -= centered.mean(axis=(1, 2, 3))[:, None, None, None]
    return LatticeField(centered, demeaned=True, series_means=means)


def as_demeaned_field(values: np.ndarray) -> LatticeField:
    """Demeaned field of ``values``, which are kept unchanged if already demeaned.

    Values whose series means already pass the demeaned check are used
    as they are, so pipelines fed with demeaned inputs reuse the
    identical values; all others go through :func:`demean`.
    """
    try:
        return LatticeField(values, demeaned=True)
    except DataError:
        return demean(LatticeField(values))


def stack_to_time_series(field: LatticeField) -> np.ndarray:
    """The field as one (N, T) vector time series, N = n*S1*S2.

    A C-order reshape: row (ell-1)*S1*S2 + (s1-1)*S2 + (s2-1) holds cell
    (ell, s1, s2), so the series index varies slowest and the locations
    of each series follow in (s1, s2) C order.  The result is a view of
    the field's read-only values, not a copy.
    """
    return field.values.reshape(-1, field.dims[2])


def stacked_series_as_field(stacked: np.ndarray) -> LatticeField:
    """View an (N, T) stacked series as an (N, 1, 1, T) field, not marked demeaned.

    This is the entry point for running the purely temporal pipeline
    (degenerate spatial axes) on stacked data.
    """
    return LatticeField(stacked[:, None, None, :])


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def _infer_format(path: str) -> str:
    return "csv" if str(path).lower().endswith(".csv") else "stf-binary"


def store_field(field: LatticeField, target, format: str = "auto") -> None:
    """Write a field to ``target`` (path or binary stream)."""
    if format == "auto":
        if not isinstance(target, (str, os.PathLike)):
            raise ConfigError("format='auto' requires a path target")
        format = _infer_format(target)
    if isinstance(target, (str, os.PathLike)):
        with open(target, "wb") as fh:
            _store_stream(field, fh, format)
    else:
        _store_stream(field, target, format)


def _store_stream(field: LatticeField, fh, format: str) -> None:
    n, (s1n, s2n, tn) = field.n, field.dims
    if format == "stf-binary":
        fh.write(f"STF1 {n} {s1n} {s2n} {tn}\n".encode("ascii"))
        fh.write(field.values.astype("<f8").tobytes(order="C"))
    elif format == "csv":
        lines = ["ell,s1,s2,t,value"]
        flat = field.values.ravel(order="C")
        idx = 0
        for ell in range(1, n + 1):
            for s1 in range(1, s1n + 1):
                for s2 in range(1, s2n + 1):
                    for t in range(1, tn + 1):
                        lines.append(f"{ell},{s1},{s2},{t},{flat[idx]:.17g}")
                        idx += 1
        fh.write(("\n".join(lines) + "\n").encode("ascii"))
    else:
        raise ConfigError(f"unknown field format {format!r}")


def load_field(source, format: str = "auto") -> LatticeField:
    """Read a field from ``source`` (path or binary stream).

    The loaded field always has ``demeaned=False``.  Round-trips with
    :func:`store_field` bit-exactly for ``stf-binary`` and value-exactly
    for ``csv``.

    Raises
    ------
    DataError
        Malformed header, payload length mismatch (the message names
        expected vs actual counts), or a non-finite value (the message
        names the coordinate of the first offender).
    """
    if format == "auto":
        if not isinstance(source, (str, os.PathLike)):
            raise ConfigError("format='auto' requires a path source")
        format = _infer_format(source)
    if isinstance(source, (str, os.PathLike)):
        if not os.path.exists(source):
            raise DataError(f"input file not found: {source}")
        with open(source, "rb") as fh:
            return _load_stream(fh, format)
    return _load_stream(source, format)


def _load_stream(fh, format: str) -> LatticeField:
    if format == "stf-binary":
        header = fh.readline()
        parts = header.split()
        if len(parts) != 5 or parts[0] != _MAGIC:
            raise DataError(f"malformed stf-binary header: {header!r}")
        try:
            n, s1n, s2n, tn = (int(p) for p in parts[1:])
        except ValueError as exc:
            raise DataError(f"malformed stf-binary header: {header!r}") from exc
        if min(n, s1n, s2n, tn) < 1:
            raise DataError(f"non-positive extent in header: {header!r}")
        expected = n * s1n * s2n * tn
        payload = fh.read()
        got = len(payload) // 8
        if len(payload) != expected * 8:
            raise DataError(f"payload length mismatch: expected {expected} values, got {got}")
        values = np.frombuffer(payload, dtype="<f8").reshape(n, s1n, s2n, tn)
        return LatticeField(values.astype(np.float64))
    if format == "csv":
        text = io.TextIOWrapper(fh, encoding="ascii")
        try:
            return _load_csv(text)
        except UnicodeDecodeError as exc:  # decoded in chunks, so no line number is known
            raise DataError(f"csv holds a non-ASCII byte {exc.object[exc.start:exc.end]!r}") from None
        finally:
            text.detach()  # the caller's stream stays open
    raise ConfigError(f"unknown field format {format!r}")


def _load_csv(text) -> LatticeField:
    header = text.readline().strip()
    if header != "ell,s1,s2,t,value":
        raise DataError(f"malformed csv header: {header!r}")
    records = []
    for lineno, line in enumerate(text, start=2):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != 5:
            raise DataError(f"malformed csv row at line {lineno}: {line!r}")
        try:
            ell, s1, s2, t = (int(c) for c in cells[:4])
            value = float(cells[4])
        except ValueError as exc:
            raise DataError(f"malformed csv row at line {lineno}: {line!r}") from exc
        records.append((ell, s1, s2, t, value))
    if not records:
        raise DataError("csv contains no data rows")
    arr = np.array([r[:4] for r in records], dtype=np.int64)
    if arr.min() < 1:
        raise DataError("csv indices must be 1-based positive integers")
    n, s1n, s2n, tn = (int(m) for m in arr.max(axis=0))
    expected = n * s1n * s2n * tn
    if len(records) != expected:
        raise DataError(f"payload length mismatch: expected {expected} values, got {len(records)}")
    values = np.zeros((n, s1n, s2n, tn))
    filled = np.zeros((n, s1n, s2n, tn), dtype=bool)
    for ell, s1, s2, t, value in records:
        if filled[ell - 1, s1 - 1, s2 - 1, t - 1]:
            raise DataError(f"duplicate csv entry for (ell,s1,s2,t)=({ell},{s1},{s2},{t})")
        values[ell - 1, s1 - 1, s2 - 1, t - 1] = value
        filled[ell - 1, s1 - 1, s2 - 1, t - 1] = True
    missing = np.argwhere(~filled)
    if len(missing):
        coord = tuple(int(c) + 1 for c in missing[0])
        raise DataError(f"missing csv entry for (ell,s1,s2,t)={coord}")
    return LatticeField(values)
