"""CSV reading and writing, target cleaning, and feature engineering.

Input files are plain decimal CSV:

  drivers.csv       header ``t,AE,AL,AU,F107,SymH,Bx,By,Bz,Vsw,Psw,Vx,PC,NewellCF``
  observations.csv  header ``t,sat_id,mlat,mlt,eflux[,region]``, region in {SUB,AUR,POL}

This module owns the CSV text format. Every CSV the commands write goes
through one writer, ``write_csv``, and both input files through one
scanner, ``_Records``: the file is read once as bytes, and numpy finds
its newlines and commas, so each line's field count, a quoted field, a
NUL byte and each record's line number come from arrays of offsets, and
no field becomes a Python string. A header that names a column twice is
rejected, and a UTF-8 byte-order mark is skipped. Each numeric column is
converted by numpy from the bytes of its fields, a row chunk at a time;
Python ``float`` reads only the few fields numpy rejects, so every value
is the one ``float`` gives. Every number must be finite, and faults are
found with masks; an error names the first offending ``path:line`` and,
for a bad number, its column. The drivers become a ``DriverSeries``, the
parsed block as it is, with single missing rows filled by midpoints; the
observations become a columnar ``ObsTable``.

Feature rows are a spatial block (sin MLT, cos MLT, scaled MLAT) followed
per driver variable by instantaneous lags at 0/-5/-10/-15 min (nearest
cadence sample) and trailing means over windows ending at the observation
time; ``has_history`` is the one rule of which times have that history.
``history_feature_rows`` takes every lag and window of the schema's
variables in one pass per row chunk of times: one gather, and one
``np.add.reduceat`` along the rows of the zero-padded driver matrix.
Rows are stored unnormalized: training fits a ``Normalization`` on its
training rows and records it in the checkpoint, and ``models.predict``
applies the recorded one.

``Holdout`` is the one validation rule: one satellite (or every
satellite, for the conv decoder) over a time range, by default satellite
0 over the last quarter of the data's span. It is applied one way:
``holdout.mask`` marks the validation rows and ``table[...]`` selects
each side, for training and for ``eval``. The checkpoint records it.

The ``features`` command holds none of the feature matrix.
``build_features`` gives the rows as ``container.Blocks``: one function,
``_feature_block``, builds a run of kept observations' float32 rows,
computing the history of the run's distinct times once in float64 and
scattering it to the rows, rounded as the cache stores it.
``write_table_cache`` streams the blocks into the cache, and a table
whose ``rows`` are read is filled from the same blocks, once. The binary
cache is a ``container`` file of kind ``feature cache`` (the layout is
described there) that stores the rows as float32; ``read_table_cache``
returns them as a read-only float32 view of the file's bytes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import container
from .container import row_chunks
from .errors import ConfigError, DataError, bind
from .geomodel import (
    DRIVER_NAMES,
    MLAT_MAX,
    MLAT_MIN,
    DriverSeries,
    ObsTable,
    Region,
)
from .stats import percentile_linear

SPATIAL_NAMES = ("sin_mlt", "cos_mlt", "mlat_scaled")
DEFAULT_LAG_MINUTES = (0.0, 5.0, 10.0, 15.0)
DEFAULT_AVG_MINUTES = (30.0, 45.0, 60.0, 180.0, 300.0, 360.0)


@dataclass(frozen=True)
class CleaningReport:
    n_in: int
    n_dropped_outlier: int
    n_dropped_nonpositive: int
    threshold: float

    def __post_init__(self):
        if self.n_in < self.n_dropped_outlier + self.n_dropped_nonpositive:
            raise ValueError("dropped more rows than were supplied")


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature layout: spatial block, then 10 history features per
    variable; the variables are some of ``DRIVER_NAMES``."""

    variables: tuple[str, ...] = DRIVER_NAMES
    lag_minutes: tuple[float, ...] = DEFAULT_LAG_MINUTES
    avg_minutes: tuple[float, ...] = DEFAULT_AVG_MINUTES

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        if not self.variables:
            raise ValueError("empty variable set")
        for var in self.variables:
            if var not in DRIVER_NAMES:
                raise ValueError(f"unknown driver variable {var!r}")

    @property
    def names(self) -> tuple[str, ...]:
        out = list(SPATIAL_NAMES)
        for var in self.variables:
            out.extend(f"{var}_lag{_fmt_min(m)}" for m in self.lag_minutes)
            out.extend(f"{var}_avg{_fmt_min(m)}" for m in self.avg_minutes)
        return tuple(out)

    @property
    def global_names(self) -> tuple[str, ...]:
        return self.names[len(SPATIAL_NAMES):]

    @property
    def width(self) -> int:
        return len(SPATIAL_NAMES) + len(self.variables) * (
            len(self.lag_minutes) + len(self.avg_minutes)
        )

    @property
    def history_seconds(self) -> float:
        """How far back the driver series must reach before the first usable row."""
        return 60.0 * max(max(self.lag_minutes), max(self.avg_minutes))

    def to_meta(self) -> dict:
        """The JSON form stored in cache headers and checkpoint metadata."""
        return {
            "variables": list(self.variables),
            "lag_minutes": list(self.lag_minutes),
            "avg_minutes": list(self.avg_minutes),
        }

    @classmethod
    def from_meta(cls, meta: dict) -> FeatureSchema:
        """Inverse of ``to_meta``; a missing field raises KeyError."""
        return cls(
            variables=tuple(meta["variables"]),
            lag_minutes=tuple(float(m) for m in meta["lag_minutes"]),
            avg_minutes=tuple(float(m) for m in meta["avg_minutes"]),
        )


def _fmt_min(minutes: float) -> str:
    return f"{minutes:g}m"


@dataclass
class FeatureTable:
    """Unnormalized feature rows with their target and observation columns.

    ``rows`` is float32: the cache's read-only view when read by
    ``read_table_cache``. ``build_features`` gives them as
    ``container.Blocks``, and a writable matrix is filled from the blocks
    the first time ``rows`` is read; ``write_table_cache`` streams the
    blocks instead, so a table that is only cached never holds its rows.
    """

    schema: FeatureSchema
    rows: np.ndarray
    target: np.ndarray
    region: np.ndarray | None
    t: np.ndarray
    mlat: np.ndarray
    mlt: np.ndarray
    sat_id: np.ndarray
    n_dropped_history: int = 0

    def __post_init__(self):
        rows = vars(self)["rows"]  # blocks stay unread
        n, w = rows.shape
        if w != self.schema.width:
            raise ValueError("row width does not match schema")
        for name in ("target", "t", "mlat", "mlt", "sat_id"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} has wrong length")
        if self.region is not None and len(self.region) != n:
            raise ValueError("region column has wrong length")
        # min and max propagate NaN and reach any infinity, and, unlike
        # isfinite, need no row-sized mask; blocks check their own rows
        extremes = (rows.min(initial=0.0), rows.max(initial=0.0)) if isinstance(rows, np.ndarray) else ()
        if not np.all(np.isfinite(extremes)) or not np.all(np.isfinite(self.target)):
            raise ValueError("non-finite feature or target")

    @property
    def n(self) -> int:
        return len(self.target)

    def __getitem__(self, key) -> FeatureTable:
        """The rows a slice, mask or index array selects, ``n_dropped_history`` 0."""
        return FeatureTable(
            schema=self.schema,
            rows=self.rows[key],
            target=self.target[key],
            region=None if self.region is None else self.region[key],
            t=self.t[key],
            mlat=self.mlat[key],
            mlt=self.mlt[key],
            sat_id=self.sat_id[key],
        )


class _FilledOnRead:
    """``FeatureTable.rows``: ``container.Blocks`` stored there are filled
    into a float32 matrix, once, when ``rows`` is first read."""

    def __get__(self, table, owner=None):
        if table is None:
            return self
        rows = vars(table)["rows"]
        if isinstance(rows, container.Blocks):
            filled = np.empty(rows.shape, dtype=np.float32)
            r0 = 0
            for block in rows:
                filled[r0 : r0 + len(block)] = block
                r0 += len(block)
            rows = vars(table)["rows"] = filled
        return rows

    def __set__(self, table, rows):
        vars(table)["rows"] = rows


FeatureTable.rows = _FilledOnRead()


@dataclass(frozen=True)
class Holdout:
    """The validation selection: rows of satellite ``sat_id`` (of every
    satellite when None) with ``t_start <= t < t_end``."""

    sat_id: int | None
    t_start: float
    t_end: float

    @classmethod
    def from_config(cls, cfg, t: np.ndarray, by_satellite: bool = True) -> Holdout:
        """The holdout that parsed config values (``config.load_config``)
        set for data at times ``t``. ``holdout.sat_id`` defaults to 0; for
        data not split by satellite (no ``by_satellite``) it is None, and
        setting it is a ConfigError. ``holdout.t_start``/``t_end`` default to
        the last quarter of the span of ``t``, the end one second past it;
        a configured window that is empty whatever the data is a ConfigError."""
        if not by_satellite and "holdout.sat_id" in cfg:
            raise ConfigError("holdout.sat_id does not apply to data not split by satellite")
        if ("holdout.t_start" in cfg) != ("holdout.t_end" in cfg):
            raise ConfigError("holdout.t_start and holdout.t_end must be given together")
        if "holdout.t_start" in cfg:
            t_start, t_end = cfg["holdout.t_start"], cfg["holdout.t_end"]
            if t_end <= t_start:
                raise ConfigError("holdout.t_end must exceed holdout.t_start")
        else:
            t_lo, t_hi = float(t.min()), float(t.max())
            t_start, t_end = t_hi - 0.25 * (t_hi - t_lo), t_hi + 1.0
        return cls(cfg.get("holdout.sat_id", 0) if by_satellite else None, t_start, t_end)

    def mask(self, t: np.ndarray, sat_id: np.ndarray | None = None) -> np.ndarray:
        """The rows at times ``t`` (of satellites ``sat_id``) in the holdout;
        a DataError if there are none."""
        mask = (t >= self.t_start) & (t < self.t_end)
        if self.sat_id is not None:
            mask &= sat_id == self.sat_id
        if not mask.any():
            raise DataError(f"holdout {self.to_meta()} selects no rows")
        return mask

    def to_meta(self) -> dict:
        """The JSON form stored in checkpoint metadata."""
        return {"sat_id": self.sat_id, "t_start": self.t_start, "t_end": self.t_end}

    @classmethod
    def from_meta(cls, meta: dict) -> Holdout:
        """Inverse of ``to_meta``; a missing field raises KeyError."""
        return cls(meta["sat_id"], meta["t_start"], meta["t_end"])


# ── CSV readers ───────────────────────────────────────────────────────

_BOM = b"\xef\xbb\xbf"


def _offsets(buf: np.ndarray, byte: int) -> np.ndarray:
    """The offsets of ``byte`` in ``buf``, found a chunk at a time, so no
    mask the size of the file is made; int32 when they fit."""
    dtype = np.int32 if len(buf) < 2**31 else np.int64
    return np.concatenate(
        [np.flatnonzero(buf[sl] == byte).astype(dtype) + dtype(sl.start) for sl in row_chunks(len(buf), 1)]
    )


def _to_float(tokens: np.ndarray, out: np.ndarray, bad: np.ndarray):
    """Convert the byte-string ``tokens`` into ``out`` as ``float`` would.

    numpy's cast converts every token it can; a run it rejects is halved
    until each rejected token stands alone, and Python ``float`` reads that
    one from its text, so a non-ASCII digit or space reads as ``float``
    reads it. A token ``float`` also rejects is NaN in ``out`` and True in
    ``bad``.
    """
    try:
        out[:] = tokens.astype(np.float64)
    except ValueError:
        if len(tokens) > 1:
            mid = len(tokens) // 2
            _to_float(tokens[:mid], out[:mid], bad[:mid])
            _to_float(tokens[mid:], out[mid:], bad[mid:])
            return
        try:
            out[0] = float(tokens[0].decode())
        except ValueError:
            out[0], bad[0] = np.nan, True


class _Records:
    """The records of a CSV file of unquoted, comma-separated fields,
    located in the file's bytes.

    The scan is numpy's: the offsets of every newline and comma give each
    line's field count, and a field is the bytes between its commas. A
    UTF-8 byte-order mark at the start is skipped, and ``\\r\\n`` or a
    lone ``\\r`` ends a line as ``\\n`` does. A header that names a column
    twice is a DataError. Blank and whitespace-only lines are skipped. A
    line fault is a wrong field count, a quoted field or a NUL byte; the
    records end before it, and ``fault`` holds it for the caller to raise
    only when the records hold no fault, so an error always names the
    first bad line. ``lineno`` is each record's line number.
    """

    def __init__(self, path):
        with open(path, "rb") as fh:
            raw = fh.read()
        if b"\r" in raw:
            raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        bom = len(_BOM) if raw.startswith(_BOM) else 0
        if len(raw) == bom:
            raise DataError(f"{path}: empty file")
        self.buf = buf = np.frombuffer(raw, np.uint8, offset=bom)
        if buf.max() >= 0x80:
            try:
                raw.decode("utf-8-sig")
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}: not UTF-8 text: {exc}") from None
        ends = _offsets(buf, ord("\n"))
        starts = np.insert(ends + 1, 0, 0)
        ends = np.append(ends, ends.dtype.type(len(buf)))
        self.header = [h.strip() for h in next(csv.reader([self._text(starts[0], ends[0])]), [])]
        for i, name in enumerate(self.header):
            if name in self.header[:i]:
                raise DataError(f"{path}: column {name} appears twice in the header")
        n_fields = len(self.header)
        body = int(ends[0]) + 1  # the first byte past the header line

        commas = _offsets(buf, ord(","))
        count = np.diff(np.searchsorted(commas, starts), append=len(commas))[1:]
        starts, ends = starts[1:], ends[1:]
        blank = (count == 0) & (starts == ends)
        for i in np.flatnonzero((count == 0) & ~blank):
            blank[i] = not self._text(starts[i], ends[i]).strip()
        stop = np.flatnonzero(~blank & (count != n_fields - 1))[:1].tolist()
        for byte in (b'"', b"\0"):
            at = raw.find(byte, bom + body)
            if at >= 0:
                stop.append(int(np.searchsorted(starts, at - bom, side="right")) - 1)
        stop = min(stop, default=len(starts))
        rec = np.flatnonzero(~blank[:stop]).astype(starts.dtype)
        self.lineno = rec + 2
        self.starts, self.ends = starts[rec], ends[rec]
        first = int(np.searchsorted(commas, body))
        n_commas = max(n_fields - 1, 0)
        self.commas = commas[first : first + rec.size * n_commas].reshape(rec.size, n_commas)

        self.fault = None
        if stop < len(starts):
            line = self._text(starts[stop], ends[stop])
            if '"' in line:
                msg = "quoted fields are not supported"
            elif "\0" in line:
                msg = "line contains NUL"
            else:
                msg = f"expected {n_fields} fields"
            self.fault = DataError(f"{path}:{stop + 2}: {msg}")

    def _text(self, start, end) -> str:
        return self.buf[start:end].tobytes().decode()

    def _spans(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Where field ``j`` of each record starts and ends."""
        starts = self.starts if j == 0 else self.commas[:, j - 1] + 1
        ends = self.ends if j == self.commas.shape[1] else self.commas[:, j]
        return starts, ends

    def _tokens(self, j: int):
        """Field ``j`` of the records as byte strings, a row chunk at a
        time: (the chunk's slice, its tokens)."""
        starts, ends = self._spans(j)
        width = max(1, int((ends - starts).max(initial=0)))
        for sl in row_chunks(len(starts), 10 * width):
            at = starts[sl, None] + np.arange(width)
            tokens = np.take(self.buf, at, mode="clip")
            tokens[at >= ends[sl, None]] = 0  # the padding of a byte string
            yield sl, tokens.view(f"S{width}")[:, 0]

    def numbers(self, idx: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """Columns ``idx`` as numbers: (values [len(idx), n records], mask
        of the records with an unparsable field, whose value is NaN)."""
        values = np.empty((len(idx), len(self.lineno)))
        bad = np.zeros(len(self.lineno), dtype=bool)
        for k, j in enumerate(idx):
            for sl, tokens in self._tokens(j):
                _to_float(tokens, values[k, sl], bad[sl])
        return values, bad

    def codes(self, j: int, code, dtype) -> np.ndarray:
        """``code(text)`` of field ``j`` of every record, called once per
        distinct text."""
        out = np.empty(len(self.lineno), dtype=dtype)
        seen = {}
        for sl, tokens in self._tokens(j):
            distinct, inverse = np.unique(tokens, return_inverse=True)
            for tok in distinct:
                if tok not in seen:
                    seen[tok] = code(tok.decode())
            out[sl] = np.array([seen[tok] for tok in distinct], dtype=dtype)[inverse]
        return out

    def fields(self, r: int, idx: list[int]) -> list[str]:
        """The text of fields ``idx`` of record ``r``."""
        return [self._text(s[r], e[r]) for s, e in map(self._spans, idx)]


def _column_index(path, header: list[str], names) -> list[int]:
    """The header position of each of ``names``; a missing one is a DataError."""
    for name in names:
        if name not in header:
            raise DataError(f"{path}: missing required column {name}")
    return [header.index(name) for name in names]


def _finite_fault(names, values: np.ndarray):
    """The finite-number rule as a check for ``_raise_first_fault``: the
    records with a NaN or infinite value, named by the first such column."""
    bad = ~np.isfinite(values)

    def message(r):
        k = int(np.argmax(bad[:, r]))
        return f"{names[k]} must be finite, got {float(values[k, r])}"

    return bad.any(axis=0), message


def _raise_first_fault(path, lineno: np.ndarray, checks, line_fault: DataError | None):
    """Raise a DataError for the first record any check flags, with the
    message of the first check that flags it; else raise ``line_fault``.

    ``checks`` holds (mask, message) pairs in the order the rules apply to
    one record; ``message(r)`` describes the fault of record ``r``.
    """
    flagged = np.logical_or.reduce([mask for mask, _ in checks])
    if flagged.any():
        r = int(np.argmax(flagged))
        msg = next(message(r) for mask, message in checks if mask[r])
        raise DataError(f"{path}:{lineno[r]}: {msg}")
    if line_fault is not None:
        raise line_fault


def _parse_error(tokens: list[str], names, int_column: int | None = None) -> str:
    """The error of the row-wise conversions for a record's first bad field:
    ``float`` on each field, then ``int`` on the integer column, whose value
    must fit an int64."""
    for k, tok in enumerate(tokens):
        try:
            int(float(tok)) if k == int_column else float(tok)
        except (ValueError, OverflowError) as exc:
            return str(exc)
    return f"{names[int_column]} {int(float(tokens[int_column]))} is outside the int64 range"


def read_drivers_csv(path) -> DriverSeries:
    """Parse a driver CSV; small gaps (one missing row) are midpoint-filled.

    The cadence is the smallest time step in the file; steps of twice the
    cadence are treated as one missing row, anything larger is an error.
    A fill whose neighbours' sum overflows halves each before adding.
    Columns other than ``t`` and the drivers are not read.
    """
    records = _Records(path)
    if not records.header or records.header[0] != "t":
        raise DataError(f"{path}: first column must be 't'")
    names = ("t",) + DRIVER_NAMES
    idx = _column_index(path, records.header, names)
    values, parse_bad = records.numbers(idx)
    unparsable = (parse_bad, lambda r: _parse_error(records.fields(r, idx), names))
    _raise_first_fault(path, records.lineno, [unparsable, _finite_fault(names, values)], records.fault)
    del records  # the file's bytes, before the series is built

    t, data = values[0], values[1:]
    if t.size < 2:
        raise DataError(f"{path}: need at least two rows")
    dt = np.diff(t)
    if np.any(dt <= 0):
        raise DataError(f"{path}: non-monotonic time")
    cadence = float(dt.min())
    ratio = dt / cadence
    if np.any(dt > cadence * 1.5):
        # Fill single-row gaps with midpoints; larger gaps are errors.
        gap = np.abs(ratio - 2.0) < 1e-6
        bad = ~gap & ~(np.abs(ratio - 1.0) < 1e-6)
        if bad.any():
            i = int(np.argmax(bad))
            raise DataError(f"{path}: gap of {dt[i]:g}s exceeds one missing row at t={t[i]:g}")
        at = np.flatnonzero(gap) + 1
        with np.errstate(over="ignore"):  # a sum beyond the float64 range halves each side first
            mid = 0.5 * (data[:, at - 1] + data[:, at])
        mid = np.where(np.isfinite(mid), mid, 0.5 * data[:, at - 1] + 0.5 * data[:, at])
        data = np.insert(data, at, mid, axis=1)
    elif np.any(np.abs(ratio - np.rint(ratio)) > 1e-6):
        raise DataError(f"{path}: irregular cadence")
    return DriverSeries(t0=float(t[0]), cadence=cadence, values=data)


_OBS_COLUMNS = ("t", "sat_id", "mlat", "mlt", "eflux")
_NO_REGION = -1
_BAD_REGION = -2


def _region_value(token: str) -> int:
    if not token.strip():
        return _NO_REGION
    try:
        return Region.from_code(token).value
    except ValueError:
        return _BAD_REGION


def read_observations_csv(path) -> tuple[ObsTable, int]:
    """Parse observations; returns (table, count of dropped non-positive eflux).

    Blank lines are skipped. Rows with eflux <= 0 are dropped and counted
    before their region code is read. Any other fault raises a DataError
    for the first offending line: a wrong field count, a quoted field or
    NUL byte, an unparsable number, a sat_id that is not a non-negative
    integer, mlat outside [45, 90], an unknown region code, a NaN eflux, or
    any other number that is not finite.
    """
    records = _Records(path)
    header = records.header
    idx = _column_index(path, header, _OBS_COLUMNS)
    values, parse_bad = records.numbers(idx)
    t, sat, mlat, mlt, eflux = values
    parse_bad |= ~(np.abs(sat) < 2.0**63)
    dropped = eflux <= 0
    region = None
    region_bad = np.zeros(len(records.lineno), dtype=bool)
    if "region" in header:
        j = header.index("region")
        region = records.codes(j, _region_value, np.int8)
        region_bad = ~dropped & (region == _BAD_REGION)
    checks = [
        (parse_bad, lambda r: _parse_error(records.fields(r, idx), _OBS_COLUMNS, 1)),
        ((sat < 0) | (sat != np.floor(sat)),
         lambda r: f"sat_id must be a non-negative integer, got {float(sat[r])}"),
        (~((mlat >= MLAT_MIN) & (mlat <= MLAT_MAX)), lambda r: f"mlat {float(mlat[r]):g} outside [45, 90]"),
        (region_bad, lambda r: f"unknown region code: {records.fields(r, [j])[0]!r}"),
        (np.isnan(eflux), lambda r: f"eflux must be positive, got {float(eflux[r])}"),
        _finite_fault(_OBS_COLUMNS, values),
    ]
    _raise_first_fault(path, records.lineno, checks, records.fault)
    del records, checks  # the file's bytes, before the table's copies

    keep = ~dropped
    table = ObsTable(
        t=t[keep],
        sat_id=sat[keep].astype(np.int64),
        mlat=mlat[keep],
        mlt=mlt[keep],
        eflux=eflux[keep],
        region=None if region is None else region[keep],
    )
    return table, int(dropped.sum())


# ── CSV writer ────────────────────────────────────────────────────────

def write_csv(path, header, columns):
    """Write equal-length ``columns`` (1-D arrays or lists) as CSV rows
    under ``header``; a header of None writes no header line.

    Each field is ``str`` of its Python value, an array's values taken by
    ``tolist()`` a row chunk at a time, so a float is written as its
    shortest round-trip decimal and no whole column is ever held as text.
    Columns of different lengths, or a header of another width, raise a
    ValueError before the file is opened.
    """
    lengths = [len(col) for col in columns]
    if len(set(lengths)) != 1 or (header is not None and len(header) != len(columns)):
        raise ValueError(f"write_csv: columns of lengths {lengths} under header {header}")
    with open(path, "w", newline="") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        # a field held as a Python number and its str takes about 100 bytes
        for sl in row_chunks(lengths[0], 100 * len(columns)):
            chunk = [col[sl].tolist() if isinstance(col, np.ndarray) else col[sl] for col in columns]
            fields = [list(map(str, values)) for values in chunk]
            fh.write("".join(",".join(row) + "\n" for row in zip(*fields)))


def whole_as_int(values) -> np.ndarray:
    """``values`` as an object array for ``write_csv``: each integral value
    below 1e15 in magnitude is an int, written without a fraction, and
    the others stay floats."""
    v = np.asarray(values, dtype=np.float64)
    whole = (v == np.floor(v)) & (np.abs(v) < 1e15)
    out = v.astype(object)
    out[whole] = v[whole].astype(np.int64)
    return out


# ── Cleaning ──────────────────────────────────────────────────────────

def clean_targets(
    obs: ObsTable,
    percentile: float = 99.995,
    fixed_threshold: float | None = None,
    n_dropped_nonpositive: int = 0,
) -> tuple[ObsTable, CleaningReport]:
    """Drop rows whose eflux exceeds the percentile cut (or a fixed threshold)."""
    if not len(obs):
        raise DataError("clean_targets: empty observation list")
    if fixed_threshold is not None:
        threshold = float(fixed_threshold)
    else:
        threshold = percentile_linear(obs.eflux, percentile)
    kept = obs[obs.eflux <= threshold]
    report = CleaningReport(
        n_in=len(obs) + n_dropped_nonpositive,
        n_dropped_outlier=len(obs) - len(kept),
        n_dropped_nonpositive=n_dropped_nonpositive,
        threshold=threshold,
    )
    return kept, report


# ── Feature construction ──────────────────────────────────────────────

def has_history(drivers: DriverSeries, times: np.ndarray, schema: FeatureSchema) -> np.ndarray:
    """The mask of ``times`` whose full driver history lies in the series."""
    return (times - schema.history_seconds >= drivers.t0 - 1e-9) & (times <= drivers.t_end + 1e-9)


def history_feature_rows(drivers: DriverSeries, times: np.ndarray, schema: FeatureSchema) -> np.ndarray:
    """Lag/average features [m, 10*n_vars] for times that all have history.

    A time that ``has_history`` rejects is a ValueError. Instantaneous lags
    take the nearest cadence sample (``DriverSeries.index_at``); averages
    are the mean over driver samples in the half-open window (t - tau, t].
    Every row depends only on its own time, so the result does not depend
    on duplicates or order. The zero pad lets a window end at the last sample.
    """
    tt = np.asarray(times, dtype=np.float64)
    if not has_history(drivers, tt, schema).all():
        raise ValueError("history_feature_rows: a time lacks the full driver history")
    n_var, n_lag, n_avg = len(schema.variables), len(schema.lag_minutes), len(schema.avg_minutes)
    padded = np.pad(drivers.values[[DRIVER_NAMES.index(v) for v in schema.variables]], ((0, 0), (0, 1)))
    # seconds back from each time: its lags, its windows' lengths, then 0 for the time itself
    back_s = 60.0 * np.array(schema.lag_minutes + schema.avg_minutes + (0.0,))
    cad, last = drivers.cadence, drivers.n - 1
    rows = np.empty((tt.size, n_var, n_lag + n_avg))
    # a time's float64 temporaries: lags, reduceat's 2 sums per window, the means
    for sl in row_chunks(tt.size, 8 * (n_var + 2) * (n_lag + 3 * n_avg)):
        t = tt[sl, None]
        rows[sl, :, :n_lag] = padded[:, drivers.index_at(t - back_s[:n_lag])].transpose(1, 0, 2)
        last_before = np.floor((t - back_s[n_lag:] - drivers.t0) / cad + 1e-9).astype(np.int64)
        start = np.clip(last_before[:, :-1] + 1, 0, last)
        bounds = np.stack([start, np.clip(last_before[:, -1:], start, last) + 1], axis=-1)
        sums = np.add.reduceat(padded, bounds.ravel(), axis=1)[:, 0::2].reshape(n_var, len(t), n_avg)
        rows[sl, :, n_lag:] = sums.transpose(1, 0, 2) / (bounds[..., 1] - bounds[..., 0])[:, None, :]
    return rows.reshape(tt.size, n_var * (n_lag + n_avg))


def spatial_block(mlat: np.ndarray, mlt: np.ndarray) -> np.ndarray:
    ang = 2.0 * np.pi * np.asarray(mlt, dtype=np.float64) / 24.0
    scaled = (np.asarray(mlat, dtype=np.float64) - MLAT_MIN) / (MLAT_MAX - MLAT_MIN)
    return np.column_stack([np.sin(ang), np.cos(ang), scaled])


_NORM_COLUMNS = 16


@dataclass(frozen=True, eq=False)
class Normalization:
    """The z-scoring ``(rows - mean) / std`` of a model's inputs."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, rows: np.ndarray) -> Normalization:
        """Per-column float64 mean/std; zero-variance columns get std 1.

        The std is taken over blocks of columns, so the only temporary is one
        block. An axis-0 reduction adds each column's rows in row order whatever
        the block, so the result equals ``rows.astype(float64).std(axis=0)``
        bit for bit. A lone trailing column is folded into the block before
        it: numpy would sum a one-column block pairwise instead.
        """
        width = rows.shape[1]
        mean = rows.mean(axis=0, dtype=np.float64)
        std = np.empty(width)
        starts = list(range(0, width, _NORM_COLUMNS))
        if len(starts) > 1 and width - starts[-1] == 1:
            starts.pop()
        for j0, j1 in zip(starts, starts[1:] + [width]):
            std[j0:j1] = rows[:, j0:j1].std(axis=0, dtype=np.float64)
        return cls(mean, np.where(std > 1e-12, std, 1.0))

    def apply(self, rows: np.ndarray) -> np.ndarray:
        """z-scored ``rows``, computed in float64 a row chunk at a time and
        stored as float32, the dtype the forward passes take."""
        out = np.empty(rows.shape, dtype=np.float32)
        for sl in row_chunks(len(rows), 8 * rows.shape[1]):
            out[sl] = (rows[sl] - self.mean) / self.std
        return out

    def to_meta(self) -> dict:
        """The JSON form stored in checkpoint metadata."""
        return {"mean": [float(v) for v in self.mean], "std": [float(v) for v in self.std]}

    @classmethod
    def from_meta(cls, meta: dict, width: int) -> Normalization:
        """Inverse of ``to_meta`` for a model of input width ``width``;
        missing statistics or another width is a DataError."""
        try:
            mean, std = (np.asarray(meta[key], dtype=np.float64) for key in ("mean", "std"))
        except KeyError:
            raise DataError("checkpoint metadata lacks normalization statistics") from None
        for stat in (mean, std):
            if stat.shape != (width,):
                raise DataError(f"checkpoint normalizes {stat.size} features, the model takes {width}")
        return cls(mean, std)


def _feature_block(drivers: DriverSeries, schema: FeatureSchema, t, mlat, mlt, sl: slice) -> np.ndarray:
    """The float32 feature rows ``sl`` of the observations at ``t``,
    ``mlat``, ``mlt``, which all have history, rounded as the cache stores
    them: the spatial block, then the history rows of the run's distinct
    times, computed once in float64 and scattered to the observations at
    each time. A history feature beyond the float32 range is a DataError
    naming the earliest time of all ``t`` that has one, and its first
    such feature."""
    times, at = np.unique(t[sl], return_inverse=True)
    with np.errstate(over="ignore"):
        hist = history_feature_rows(drivers, times, schema).astype(np.float32)
    if not np.isfinite(hist).all():
        raise _float32_error(drivers, t, schema)
    n_sp = len(SPATIAL_NAMES)
    rows = np.empty((len(at), schema.width), dtype=np.float32)
    rows[:, :n_sp] = spatial_block(mlat[sl], mlt[sl])
    rows[:, n_sp:] = hist[at]
    return rows


def _float32_error(drivers: DriverSeries, t: np.ndarray, schema: FeatureSchema) -> DataError:
    """The error for the earliest of times ``t`` with a history feature
    beyond the float32 range, naming the first such feature."""
    times = np.unique(t)
    names = schema.global_names
    for sl in row_chunks(times.size, 4 * len(names)):
        hist = history_feature_rows(drivers, times[sl], schema)
        with np.errstate(over="ignore"):
            bad = ~np.isfinite(hist.astype(np.float32))
        if bad.any():
            r, c = np.argwhere(bad)[0]
            return DataError(
                f"build_features: feature {names[c]} is {float(hist[r, c])!r} "
                f"at t={float(times[sl.start + r])!r}, "
                "beyond the float32 range of the feature cache"
            )
    raise AssertionError("no history feature beyond the float32 range")


def build_features(
    drivers: DriverSeries, obs: ObsTable, schema: FeatureSchema | None = None
) -> FeatureTable:
    """Assemble the feature table for a table of observations.

    Observations at times ``has_history`` rejects are dropped and counted
    in ``n_dropped_history``; the target is log10 of the kept eflux.
    Region labels are kept only when every retained row carries one.

    The rows are ``container.Blocks``: each run of about ``_CHUNK_BYTES``
    of kept float32 rows is built by ``_feature_block`` from ``drivers``
    when the rows are written or read, so nothing of the float32
    ``[n, width]`` matrix's size is held until ``rows`` is read. A history
    feature beyond the float32 range is a DataError naming the earliest
    such time and its first such feature, raised when the blocks are made.
    """
    if schema is None:
        schema = FeatureSchema()
    if not len(obs):
        raise DataError("build_features: no observations")

    ok = has_history(drivers, obs.t, schema)
    n_dropped = int((~ok).sum())
    if not ok.any():
        raise DataError("no observation has the full driver history")
    t, mlat, mlt = obs.t[ok], obs.mlat[ok], obs.mlt[ok]

    def blocks():
        runs = row_chunks(t.size, 4 * schema.width)
        return (_feature_block(drivers, schema, t, mlat, mlt, sl) for sl in runs)

    region_arr = None
    if obs.region is not None and np.all(obs.region[ok] >= 0):
        region_arr = obs.region[ok]

    return FeatureTable(
        schema=schema,
        rows=container.Blocks((t.size, schema.width), blocks),
        target=np.log10(obs.eflux[ok]),
        region=region_arr,
        t=t,
        mlat=mlat,
        mlt=mlt,
        sat_id=obs.sat_id[ok],
        n_dropped_history=n_dropped,
    )


# ── Binary feature cache ──────────────────────────────────────────────

_CACHE_KIND = "feature cache"
# FeatureTable column -> stored dtype, in file order; region is left out when None.
_CACHE_DTYPES = {
    "rows": "<f4",
    "target": "<f8",
    "region": "<i1",
    "t": "<f8",
    "mlat": "<f8",
    "mlt": "<f8",
    "sat_id": "<u2",
}


def write_table_cache(table: FeatureTable, path):
    """Write ``table`` as a ``feature cache`` container: the schema and
    ``n_dropped_history`` in the header, each column as an array of the
    dtype ``_CACHE_DTYPES`` gives it (the rows as float32).

    sat_id is stored as u16, so an id outside 0..65535 is a DataError,
    raised before the file is opened.
    """
    out_of_range = (table.sat_id < 0) | (table.sat_id > 0xFFFF)
    if out_of_range.any():
        raise DataError(
            f"sat_id {int(table.sat_id[out_of_range][0])} outside 0..65535 cannot be cached"
        )
    columns = vars(table)  # rows given as blocks are streamed, not filled
    arrays = {
        name: (columns[name], dtype) for name, dtype in _CACHE_DTYPES.items() if columns[name] is not None
    }
    meta = {"schema": table.schema.to_meta(), "n_dropped_history": table.n_dropped_history}
    container.write(path, _CACHE_KIND, meta, arrays)


def read_table_cache(path) -> FeatureTable:
    """Load a cache written by ``write_table_cache``. Every column but
    sat_id (widened to int64) is a read-only view of the file's bytes;
    nothing copies or widens the float32 row block. A cache that lacks an
    array or holds an unknown one, such as the normalization arrays of
    earlier caches, is a DataError naming the command that rebuilds it."""
    meta, arrays = container.read(path, _CACHE_KIND, "auroracast features")
    try:
        return FeatureTable(
            schema=FeatureSchema.from_meta(meta["schema"]),
            n_dropped_history=int(meta["n_dropped_history"]),
            **{"region": None, **arrays, "sat_id": arrays["sat_id"].astype(np.int64)},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(
            f"{path}: corrupt or outdated feature cache ({exc!r}); "
            "re-run `auroracast features` to rebuild it"
        ) from None


def schema_from_config(cfg) -> FeatureSchema:
    """The feature layout for parsed config values (``config.load_config``):
    ``features.variables`` picks the drivers, all of them when unset."""
    fields = {"variables": cfg["features.variables"]} if "features.variables" in cfg else {}
    return bind(FeatureSchema, **fields)

