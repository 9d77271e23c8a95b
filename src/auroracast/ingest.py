"""CSV ingestion, target cleaning, and feature engineering.

Input files are plain decimal CSV:

  drivers.csv       header ``t,AE,AL,AU,F107,SymH,Bx,By,Bz,Vsw,Psw,Vx,PC,NewellCF``
  observations.csv  header ``t,sat_id,mlat,mlt,eflux[,region]``, region in {SUB,AUR,POL}

Observations are read into a columnar ``ObsTable``: the file is read
once, each numeric column is converted in one call, and faults are found
with masks; an error names the first offending line. Observation fields
are split on commas, so a line with a quoted field is rejected.

Feature rows are a spatial block (sin MLT, cos MLT, scaled MLAT) followed
per driver variable by instantaneous lags at 0/-5/-10/-15 min (nearest
cadence sample) and trailing means over windows ending at the observation
time. Rows are stored unnormalized: training fits a ``Normalization`` on
its training rows and records it in the checkpoint, and
``models.predict`` applies the recorded one.

``Holdout`` is the one validation rule: one satellite (or every
satellite, for the conv decoder) over a time range, by default satellite
0 over the last quarter of the data's span. Training splits by it, the
checkpoint records it, and ``eval`` scores the rows it selects.

A process holds the feature matrix once. ``build_features`` computes the
history block once per distinct observation time and gathers it, a row
chunk at a time, into the one ``[n, width]`` float64 matrix it returns.
The binary cache is a ``container`` file of kind ``feature cache`` (the
layout is described there) that stores the rows as float32;
``read_table_cache`` returns them as a read-only float32 view of the
file's bytes.
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

    ``rows`` is float64 when built by ``build_features``; when read by
    ``read_table_cache`` it is the cache's read-only float32 view.
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
        # min propagates NaN and, unlike isnan, needs no row-sized mask
        if np.isnan(self.rows.min(initial=np.inf)) or not np.all(np.isfinite(self.target)):
            raise ValueError("non-finite feature or target")

    @property
    def n(self) -> int:
        return self.rows.shape[0]


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
        the last quarter of the span of ``t``, the end one second past it."""
        if not by_satellite and "holdout.sat_id" in cfg:
            raise ConfigError("holdout.sat_id does not apply to data not split by satellite")
        if ("holdout.t_start" in cfg) != ("holdout.t_end" in cfg):
            raise ConfigError("holdout.t_start and holdout.t_end must be given together")
        if "holdout.t_start" in cfg:
            t_start, t_end = cfg["holdout.t_start"], cfg["holdout.t_end"]
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

def read_drivers_csv(path) -> DriverSeries:
    """Parse a driver CSV; small gaps (one missing row) are midpoint-filled.

    The cadence is the smallest time step in the file; steps of twice the
    cadence are treated as one missing row, anything larger is an error.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if not header or header[0] != "t":
            raise DataError(f"{path}: first column must be 't'")
        for name in DRIVER_NAMES:
            if name not in header:
                raise DataError(f"{path}: missing required column {name}")
        cols_idx = {name: header.index(name) for name in DRIVER_NAMES}
        t_list: list[float] = []
        data: dict[str, list[float]] = {name: [] for name in DRIVER_NAMES}
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} fields")
            try:
                t_list.append(float(row[0]))
                for name, i in cols_idx.items():
                    data[name].append(float(row[i]))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None

    t = np.asarray(t_list, dtype=np.float64)
    if t.size < 2:
        raise DataError(f"{path}: need at least two rows")
    dt = np.diff(t)
    if np.any(dt <= 0):
        raise DataError(f"{path}: non-monotonic time")
    cadence = float(dt.min())
    cols = {name: np.asarray(v, dtype=np.float64) for name, v in data.items()}

    # Fill single-row gaps by linear interpolation; larger gaps are errors.
    if np.any(dt > cadence * 1.5):
        filled_t = [t[0]]
        filled = {name: [cols[name][0]] for name in DRIVER_NAMES}
        for i in range(1, t.size):
            step = t[i] - t[i - 1]
            ratio = step / cadence
            if abs(ratio - 1.0) < 1e-6:
                pass
            elif abs(ratio - 2.0) < 1e-6:
                filled_t.append(t[i - 1] + cadence)
                for name in DRIVER_NAMES:
                    filled[name].append(0.5 * (cols[name][i - 1] + cols[name][i]))
            else:
                raise DataError(
                    f"{path}: gap of {step:g}s exceeds one missing row at t={t[i - 1]:g}"
                )
            filled_t.append(t[i])
            for name in DRIVER_NAMES:
                filled[name].append(cols[name][i])
        t = np.asarray(filled_t)
        cols = {name: np.asarray(v) for name, v in filled.items()}
    else:
        ratio = dt / cadence
        if np.any(np.abs(ratio - np.rint(ratio)) > 1e-6):
            raise DataError(f"{path}: irregular cadence")

    return DriverSeries(t0=float(t[0]), cadence=cadence, columns=cols)


_OBS_COLUMNS = ("t", "sat_id", "mlat", "mlt", "eflux")
_NO_REGION = -1
_BAD_REGION = -2


def _parse_floats(tokens: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Python ``float`` on every token in one call; returns (values, bad mask)."""
    try:
        return np.array(tokens, dtype=object).astype(np.float64), np.zeros(len(tokens), bool)
    except ValueError:
        pass
    values = np.full(len(tokens), np.nan)
    bad = np.zeros(len(tokens), dtype=bool)
    for i, tok in enumerate(tokens):
        try:
            values[i] = float(tok)
        except ValueError:
            bad[i] = True
    return values, bad


def _region_value(token: str) -> int:
    if not token.strip():
        return _NO_REGION
    try:
        return Region.from_code(token).value
    except ValueError:
        return _BAD_REGION


def _parse_error(fields: list[str]) -> str:
    """The error the row-wise rules give for the first unparsable field."""
    t, sat, mlat, mlt, eflux = fields
    try:
        float(t)
        sat_id = int(float(sat))
        float(mlat)
        float(mlt)
        float(eflux)
    except (ValueError, OverflowError) as exc:
        return str(exc)
    return f"sat_id {sat_id} is outside the int64 range"


def read_observations_csv(path) -> tuple[ObsTable, int]:
    """Parse observations; returns (table, count of dropped non-positive eflux).

    Blank lines are skipped. Rows with eflux <= 0 are dropped and counted
    before their region code is read. Any other fault raises a DataError
    for the first offending line: a wrong field count, a quoted field or
    NUL byte, an unparsable number, mlat outside [45, 90], an unknown
    region code, or a NaN eflux.
    """
    with open(path) as fh:
        text = fh.read()
    if not text:
        raise DataError(f"{path}: empty file")
    lines = text.split("\n")
    header = [h.strip() for h in next(csv.reader(lines[:1]))]
    for name in _OBS_COLUMNS:
        if name not in header:
            raise DataError(f"{path}: missing required column {name}")
    idx = [header.index(name) for name in _OBS_COLUMNS]
    region_idx = header.index("region") if "region" in header else None
    n_fields = len(header)

    # Line faults: everything before the first one is tokenised and checked.
    body = lines[1:]
    commas = np.fromiter((ln.count(",") for ln in body), dtype=np.int64, count=len(body))
    blank = np.zeros(len(body), dtype=bool)
    blank[[i for i in np.flatnonzero(commas == 0) if not body[i].strip()]] = True
    line_fault = ~blank & (commas != n_fields - 1)
    if '"' in text or "\0" in text:
        line_fault |= np.array(['"' in ln or "\0" in ln for ln in body])
    stop = int(np.argmax(line_fault)) if line_fault.any() else len(body)
    rec = np.flatnonzero(~blank[:stop])
    flat = ",".join([body[i] for i in rec]).split(",") if rec.size else []

    cols, parse_bad = [], np.zeros(rec.size, dtype=bool)
    for j in idx:
        values, bad = _parse_floats(flat[j::n_fields])
        cols.append(values)
        parse_bad |= bad
    t, sat, mlat, mlt, eflux = cols
    parse_bad |= ~(np.abs(sat) < 2.0**63)
    mlat_bad = ~parse_bad & ~((mlat >= MLAT_MIN) & (mlat <= MLAT_MAX))
    dropped = ~parse_bad & ~mlat_bad & (eflux <= 0)
    labelled = ~parse_bad & ~mlat_bad & ~dropped
    region = None
    region_bad = np.zeros(rec.size, dtype=bool)
    if region_idx is not None:
        tokens = flat[region_idx::n_fields]
        lookup = {tok: _region_value(tok) for tok in set(tokens)}
        region = np.fromiter(map(lookup.__getitem__, tokens), dtype=np.int8, count=rec.size)
        region_bad = labelled & (region == _BAD_REGION)
    nan_bad = labelled & ~region_bad & np.isnan(eflux)

    fault = parse_bad | mlat_bad | region_bad | nan_bad
    if fault.any():
        r = int(np.argmax(fault))
        fields = body[rec[r]].split(",")
        if parse_bad[r]:
            msg = _parse_error([fields[j] for j in idx])
        elif mlat_bad[r]:
            msg = f"mlat {float(mlat[r]):g} outside [45, 90]"
        elif region_bad[r]:
            msg = f"unknown region code: {fields[region_idx]!r}"
        else:
            msg = f"eflux must be positive, got {float(eflux[r])}"
        raise DataError(f"{path}:{rec[r] + 2}: {msg}")
    if stop < len(body):
        ln = body[stop]
        if '"' in ln:
            msg = "quoted fields are not supported"
        elif "\0" in ln:
            msg = "line contains NUL"
        else:
            msg = f"expected {n_fields} fields"
        raise DataError(f"{path}:{stop + 2}: {msg}")

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


# ── Cleaning and transforms ───────────────────────────────────────────

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


def log_transform(eflux):
    """Base-10 log of a positive flux (scalar or array)."""
    v = np.asarray(eflux, dtype=np.float64)
    if np.any(v <= 0):
        raise ValueError("log_transform requires positive flux")
    out = np.log10(v)
    return float(out) if out.ndim == 0 else out


# ── Feature construction ──────────────────────────────────────────────

def history_feature_rows(
    drivers: DriverSeries, times: np.ndarray, schema: FeatureSchema
) -> tuple[np.ndarray, np.ndarray]:
    """Lag/average features for arbitrary times; rows lacking history are flagged.

    Returns (rows [m, 10*n_vars], ok mask). Instantaneous lags take the
    nearest cadence sample; averages are the mean over driver samples in
    the half-open window (t - tau, t]. Each distinct time is computed once
    and gathered back; every row depends only on its own time, so the
    result does not depend on duplicates or order.
    """
    uniq, inverse = np.unique(np.asarray(times, dtype=np.float64), return_inverse=True)
    rows, ok = _history_rows(drivers, uniq, schema)
    return rows[inverse], ok[inverse]


def _history_rows(
    drivers: DriverSeries, times: np.ndarray, schema: FeatureSchema
) -> tuple[np.ndarray, np.ndarray]:
    cad = drivers.cadence
    ok = (times - schema.history_seconds >= drivers.t0 - 1e-9) & (
        times <= drivers.t_end + 1e-9
    )
    n_feat = len(schema.lag_minutes) + len(schema.avg_minutes)
    rows = np.zeros((times.size, len(schema.variables) * n_feat))

    tt = times[ok]
    if tt.size:
        lag_idx = []
        for lag_min in schema.lag_minutes:
            idx = np.rint((tt - 60.0 * lag_min - drivers.t0) / cad)
            lag_idx.append(np.clip(idx, 0, drivers.n - 1).astype(np.int64))
        win_bounds = []
        for avg_min in schema.avg_minutes:
            tau = 60.0 * avg_min
            i_end = np.floor((tt - drivers.t0) / cad + 1e-9).astype(np.int64)
            i_start = np.floor((tt - tau - drivers.t0) / cad + 1e-9).astype(np.int64) + 1
            i_start = np.clip(i_start, 0, drivers.n - 1)
            i_end = np.clip(i_end, i_start, drivers.n - 1)
            win_bounds.append((i_start, i_end))

        col = 0
        block = np.empty((tt.size, n_feat))
        for var in schema.variables:
            series = drivers.columns[var]
            padded = np.concatenate([series, [0.0]])
            j = 0
            for idx in lag_idx:
                block[:, j] = series[idx]
                j += 1
            for i_start, i_end in win_bounds:
                starts = np.empty(2 * tt.size, dtype=np.int64)
                starts[0::2] = i_start
                starts[1::2] = i_end + 1
                sums = np.add.reduceat(padded, starts)[0::2]
                block[:, j] = sums / (i_end - i_start + 1)
                j += 1
            rows[ok, col : col + n_feat] = block
            col += n_feat
    return rows, ok


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

    Rows whose time lacks the full driver history are dropped and counted
    in ``n_dropped_history``. Region labels are kept only when every
    retained row carries one.
    """
    if schema is None:
        schema = FeatureSchema()
    if not len(obs):
        raise DataError("build_features: no observations")
    for var in schema.variables:
        if var not in drivers.columns:
            raise DataError(f"driver series lacks variable {var}")

    target = log_transform(obs.eflux)
    uniq, inverse = np.unique(np.asarray(obs.t, dtype=np.float64), return_inverse=True)
    hist, ok_uniq = _history_rows(drivers, uniq, schema)
    ok = ok_uniq[inverse]
    n_dropped = int((~ok).sum())
    if not ok.any():
        raise DataError("no observation has the full driver history")
    keep = np.flatnonzero(ok)
    src = inverse[keep]
    spatial = spatial_block(obs.mlat, obs.mlt)
    n_sp = spatial.shape[1]
    rows = np.empty((keep.size, schema.width))
    for sl in row_chunks(keep.size, rows.itemsize * schema.width):
        rows[sl, :n_sp] = spatial[keep[sl]]
        rows[sl, n_sp:] = hist[src[sl]]
    del hist, spatial
    region_arr = None
    if obs.region is not None and np.all(obs.region[ok] >= 0):
        region_arr = obs.region[ok]

    return FeatureTable(
        schema=schema,
        rows=rows,
        target=target[ok],
        region=region_arr,
        t=obs.t[ok],
        mlat=obs.mlat[ok],
        mlt=obs.mlt[ok],
        sat_id=obs.sat_id[ok],
        n_dropped_history=n_dropped,
    )


def _subset(table: FeatureTable, mask: np.ndarray) -> FeatureTable:
    return FeatureTable(
        schema=table.schema,
        rows=table.rows[mask],
        target=table.target[mask],
        region=None if table.region is None else table.region[mask],
        t=table.t[mask],
        mlat=table.mlat[mask],
        mlt=table.mlt[mask],
        sat_id=table.sat_id[mask],
        n_dropped_history=0,
    )


def split_by_holdout(table: FeatureTable, holdout: Holdout) -> tuple[FeatureTable, FeatureTable]:
    """(training rows, validation rows): the rows ``holdout`` does not
    select, and those it does."""
    val_mask = holdout.mask(table.t, table.sat_id)
    return _subset(table, ~val_mask), _subset(table, val_mask)


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

