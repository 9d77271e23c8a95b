"""CSV reading and writing, target cleaning, and feature engineering.

Input files are plain decimal CSV:

  drivers.csv       header ``t,AE,AL,AU,F107,SymH,Bx,By,Bz,Vsw,Psw,Vx,PC,NewellCF``
  observations.csv  header ``t,sat_id,mlat,mlt,eflux[,region]``, region in {SUB,AUR,POL}

This module owns the CSV text format. Every CSV the commands write goes
through one writer, ``write_csv``, and both input files through one
tokenizer, ``_read_csv``: the file is read once and split on newlines and
commas, so a quoted field, a NUL byte or a header that names a column
twice is rejected. Each numeric column is converted in one call, every
number must be finite, and faults are found with masks; an error names
the first offending ``path:line`` and, for a bad number, its column. The
drivers become a ``DriverSeries``, with single missing rows filled by
midpoints; the observations become a columnar ``ObsTable``.

Feature rows are a spatial block (sin MLT, cos MLT, scaled MLAT) followed
per driver variable by instantaneous lags at 0/-5/-10/-15 min (nearest
cadence sample) and trailing means over windows ending at the observation
time; ``has_history`` is the one rule of which times have that history.
Rows are stored unnormalized: training fits a ``Normalization`` on its
training rows and records it in the checkpoint, and ``models.predict``
applies the recorded one.

``Holdout`` is the one validation rule: one satellite (or every
satellite, for the conv decoder) over a time range, by default satellite
0 over the last quarter of the data's span. It is applied one way:
``holdout.mask`` marks the validation rows and ``table[...]`` selects
each side, for training and for ``eval``. The checkpoint records it.

A process holds the feature matrix once. ``build_features`` computes the
history block in float64 once per distinct observation time, a chunk of
times at a time, and scatters each chunk into the one ``[n, width]``
float32 matrix it returns, rounded as the cache stores it. The binary
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
    """Ordered feature layout: spatial block, then 10 history features per variable."""

    variables: tuple[str, ...] = DRIVER_NAMES
    lag_minutes: tuple[float, ...] = DEFAULT_LAG_MINUTES
    avg_minutes: tuple[float, ...] = DEFAULT_AVG_MINUTES

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        if not self.variables:
            raise ValueError("empty variable set")

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

    ``rows`` is float32: a writable matrix when built by
    ``build_features``, the cache's read-only view when read by
    ``read_table_cache``.
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
        n, w = self.rows.shape
        if w != self.schema.width:
            raise ValueError("row width does not match schema")
        for name in ("target", "t", "mlat", "mlt", "sat_id"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} has wrong length")
        if self.region is not None and len(self.region) != n:
            raise ValueError("region column has wrong length")
        # min and max propagate NaN and reach any infinity, and, unlike
        # isfinite, need no row-sized mask
        extremes = (self.rows.min(initial=0.0), self.rows.max(initial=0.0))
        if not np.all(np.isfinite(extremes)) or not np.all(np.isfinite(self.target)):
            raise ValueError("non-finite feature or target")

    @property
    def n(self) -> int:
        return self.rows.shape[0]

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

def _read_csv(path) -> tuple[list[str], list[str], np.ndarray, DataError | None]:
    """Split a CSV file of unquoted, comma-separated fields.

    Returns (header names, the fields of every record one record after
    another, each record's line number, the first line fault or None).
    A header that names a column twice is a DataError. Blank and
    whitespace-only lines are skipped. A line fault is a wrong
    field count, a quoted field or a NUL byte; the records end before it,
    and the caller raises it only when they hold no fault, so an error
    always names the first bad line.
    """
    with open(path) as fh:
        text = fh.read()
    if not text:
        raise DataError(f"{path}: empty file")
    lines = text.split("\n")
    header = [h.strip() for h in next(csv.reader(lines[:1]))]
    for i, name in enumerate(header):
        if name in header[:i]:
            raise DataError(f"{path}: column {name} appears twice in the header")
    n_fields = len(header)

    body = lines[1:]
    commas = np.fromiter((ln.count(",") for ln in body), dtype=np.int64, count=len(body))
    blank = np.zeros(len(body), dtype=bool)
    blank[[i for i in np.flatnonzero(commas == 0) if not body[i].strip()]] = True
    line_fault = ~blank & (commas != n_fields - 1)
    if '"' in text or "\0" in text:
        line_fault |= np.array(['"' in ln or "\0" in ln for ln in body], dtype=bool)
    stop = int(np.argmax(line_fault)) if line_fault.any() else len(body)
    rec = np.flatnonzero(~blank[:stop])
    fields = ",".join([body[i] for i in rec]).split(",") if rec.size else []
    fault = None
    if stop < len(body):
        ln = body[stop]
        if '"' in ln:
            msg = "quoted fields are not supported"
        elif "\0" in ln:
            msg = "line contains NUL"
        else:
            msg = f"expected {n_fields} fields"
        fault = DataError(f"{path}:{stop + 2}: {msg}")
    return header, fields, rec + 2, fault


def _column_index(path, header: list[str], names) -> list[int]:
    """The header position of each of ``names``; a missing one is a DataError."""
    for name in names:
        if name not in header:
            raise DataError(f"{path}: missing required column {name}")
    return [header.index(name) for name in names]


def _parse_columns(fields: list[str], n_fields: int, idx: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Python ``float`` on the fields of columns ``idx``, a column per call.

    Returns (values [len(idx), n records], mask of the records with an
    unparsable field); an unparsable field's value is NaN.
    """
    n = len(fields) // n_fields
    values = np.empty((len(idx), n))
    bad = np.zeros(n, dtype=bool)
    for k, j in enumerate(idx):
        tokens = fields[j::n_fields]
        try:
            values[k] = np.array(tokens, dtype=object).astype(np.float64)
        except ValueError:
            for i, tok in enumerate(tokens):
                try:
                    values[k, i] = float(tok)
                except ValueError:
                    values[k, i], bad[i] = np.nan, True
    return values, bad


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
    Columns other than ``t`` and the drivers are not read.
    """
    header, fields, lineno, line_fault = _read_csv(path)
    if not header or header[0] != "t":
        raise DataError(f"{path}: first column must be 't'")
    names = ("t",) + DRIVER_NAMES
    idx = _column_index(path, header, names)
    n_fields = len(header)
    values, parse_bad = _parse_columns(fields, n_fields, idx)
    unparsable = (parse_bad, lambda r: _parse_error([fields[r * n_fields + j] for j in idx], names))
    _raise_first_fault(path, lineno, [unparsable, _finite_fault(names, values)], line_fault)

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
        data = np.insert(data, at, 0.5 * (data[:, at - 1] + data[:, at]), axis=1)
    elif np.any(np.abs(ratio - np.rint(ratio)) > 1e-6):
        raise DataError(f"{path}: irregular cadence")
    return DriverSeries(t0=float(t[0]), cadence=cadence, columns=dict(zip(DRIVER_NAMES, data)))


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
    header, fields, lineno, line_fault = _read_csv(path)
    idx = _column_index(path, header, _OBS_COLUMNS)
    n_fields = len(header)
    values, parse_bad = _parse_columns(fields, n_fields, idx)
    t, sat, mlat, mlt, eflux = values
    parse_bad |= ~(np.abs(sat) < 2.0**63)
    dropped = eflux <= 0
    region = None
    region_bad = np.zeros(len(lineno), dtype=bool)
    if "region" in header:
        tokens = fields[header.index("region")::n_fields]
        lookup = {tok: _region_value(tok) for tok in set(tokens)}
        region = np.fromiter(map(lookup.__getitem__, tokens), dtype=np.int8, count=len(tokens))
        region_bad = ~dropped & (region == _BAD_REGION)
    checks = [
        (parse_bad, lambda r: _parse_error([fields[r * n_fields + j] for j in idx], _OBS_COLUMNS, 1)),
        ((sat < 0) | (sat != np.floor(sat)),
         lambda r: f"sat_id must be a non-negative integer, got {float(sat[r])}"),
        (~((mlat >= MLAT_MIN) & (mlat <= MLAT_MAX)), lambda r: f"mlat {float(mlat[r]):g} outside [45, 90]"),
        (region_bad, lambda r: f"unknown region code: {tokens[r]!r}"),
        (np.isnan(eflux), lambda r: f"eflux must be positive, got {float(eflux[r])}"),
        _finite_fault(_OBS_COLUMNS, values),
    ]
    _raise_first_fault(path, lineno, checks, line_fault)

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
    on duplicates or order.
    """
    tt = np.asarray(times, dtype=np.float64)
    if not has_history(drivers, tt, schema).all():
        raise ValueError("history_feature_rows: a time lacks the full driver history")
    cad, last = drivers.cadence, drivers.n - 1
    lag_idx = [drivers.index_at(tt - 60.0 * lag_min) for lag_min in schema.lag_minutes]
    i_now = np.floor((tt - drivers.t0) / cad + 1e-9).astype(np.int64)
    windows = []  # per trailing mean: reduceat bounds of each window, and its sample count
    for avg_min in schema.avg_minutes:
        i_start = np.floor((tt - 60.0 * avg_min - drivers.t0) / cad + 1e-9).astype(np.int64) + 1
        i_start = np.clip(i_start, 0, last)
        bounds = np.empty(2 * tt.size, dtype=np.int64)
        bounds[0::2] = i_start
        bounds[1::2] = np.clip(i_now, i_start, last) + 1
        windows.append((bounds, bounds[1::2] - i_start))

    n_feat = len(schema.lag_minutes) + len(schema.avg_minutes)
    rows = np.empty((tt.size, len(schema.variables) * n_feat))
    col = 0
    for var in schema.variables:
        series = drivers.columns[var]
        padded = np.concatenate([series, [0.0]])
        for idx in lag_idx:
            rows[:, col] = series[idx]
            col += 1
        for bounds, count in windows:
            rows[:, col] = np.add.reduceat(padded, bounds)[0::2] / count
            col += 1
    return rows


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


def build_features(
    drivers: DriverSeries, obs: ObsTable, schema: FeatureSchema | None = None
) -> FeatureTable:
    """Assemble the feature table for a table of observations.

    Observations at times ``has_history`` rejects are dropped and counted
    in ``n_dropped_history``; the target is log10 of the kept eflux.
    Region labels are kept only when every retained row carries one.

    The rows are one float32 ``[n, width]`` matrix, rounded as the cache
    stores them, and nothing else of its size is held: the spatial block
    is written a row chunk at a time, and the history block a chunk of
    the kept rows' distinct times at a time, each chunk's rows computed
    once in float64 and scattered to the observations at those times. A
    history feature beyond the float32 range is a DataError naming it.
    """
    if schema is None:
        schema = FeatureSchema()
    if not len(obs):
        raise DataError("build_features: no observations")
    for var in schema.variables:
        if var not in drivers.columns:
            raise DataError(f"driver series lacks variable {var}")

    ok = has_history(drivers, obs.t, schema)
    n_dropped = int((~ok).sum())
    if not ok.any():
        raise DataError("no observation has the full driver history")
    keep = np.flatnonzero(ok)
    uniq, src = np.unique(obs.t[keep], return_inverse=True)
    n_sp = len(SPATIAL_NAMES)
    rows = np.empty((keep.size, schema.width), dtype=np.float32)
    for sl in row_chunks(keep.size, 8 * n_sp):
        rows[sl, :n_sp] = spatial_block(obs.mlat[keep[sl]], obs.mlt[keep[sl]])
    # kept rows in time order: a chunk of distinct times is one run of it
    order = np.argsort(src, kind="stable")
    names = schema.global_names
    for sl in row_chunks(uniq.size, rows.itemsize * len(names)):
        hist = history_feature_rows(drivers, uniq[sl], schema)
        with np.errstate(over="ignore"):
            hist32 = hist.astype(np.float32)
        bad = ~np.isfinite(hist32)
        if bad.any():
            r, c = np.argwhere(bad)[0]
            raise DataError(
                f"build_features: feature {names[c]} is {float(hist[r, c])!r} "
                f"at t={float(uniq[sl.start + r])!r}, "
                "beyond the float32 range of the feature cache"
            )
        del hist, bad  # before the chunk's gathered copy is made
        lo, hi = np.searchsorted(src, (sl.start, sl.stop), sorter=order)
        at = order[lo:hi]
        rows[at, n_sp:] = hist32[src[at] - sl.start]
    region_arr = None
    if obs.region is not None and np.all(obs.region[ok] >= 0):
        region_arr = obs.region[ok]

    return FeatureTable(
        schema=schema,
        rows=rows,
        target=np.log10(obs.eflux[ok]),
        region=region_arr,
        t=obs.t[ok],
        mlat=obs.mlat[ok],
        mlt=obs.mlt[ok],
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
    arrays = {
        name: (getattr(table, name), dtype)
        for name, dtype in _CACHE_DTYPES.items()
        if getattr(table, name) is not None
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

