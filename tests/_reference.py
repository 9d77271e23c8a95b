"""Reference implementations of the columnar data path.

Each function here is the straightforward per-row (or per-window) version
of a vectorised function in ``auroracast``, or the whole-array version of
a chunked one; the tests compare the two exactly. The row-wise CSV
readers ``read_drivers_rows`` and ``read_observations_rows`` parse with
``csv.reader`` and ``float`` one row at a time and apply the package's
finite-number rule row by row, and ``obs_table`` turns
observation tuples into an ``ObsTable``, so tests can still write
observations one by one. The ``write_*_rows`` functions are the per-row
CSV writers the package had before ``ingest.write_csv``, one f-string per
line. The scalar oracles of the world (``true_flux``,
``true_region``, ``cell_of``, with ``driver_row_at`` for their driver
input) and the one-window compositor ``composite_window`` take plain
floats. ``conv2d_backward_dense`` is ``autodiff.conv2d``'s backward one
sample at a time, scattering every output cell.
``backward_keeping_records`` with ``accumulate_zero_filled`` is
``Tape.backward`` as it was before it consumed the tape record by record.
``dense_batch`` and ``sparse_masked_loss_dense`` are the conv training
step's targets and loss as they were before the loss read observed-cell
positions: dense value and mask grids, gathered through the mask.
``history_rows_and_mask`` is ``ingest.history_feature_rows`` as it was
before it refused times without history: a zero row for each such time,
and the ``has_history`` mask; ``history_rows_per_variable`` is it as it
was before it took every variable and window in one pass. ``add``, ``scale`` and ``sum_all`` are
autodiff ops that only the tests' graphs use. ``dist_weights_fit_then_bin``
is ``losses.dist_weights`` as a fitted per-bin table that bins the targets
again through its edges, and ``sample_traces_per_satellite`` is
``geomodel.sample_traces`` drawing one satellite at a time, then sorting
the rows by time and satellite; ``gen_drivers_per_variable`` is
``geomodel.gen_drivers`` stepping one variable at a time.
"""

from __future__ import annotations

import csv
import json
import math
import struct
import zlib

import numpy as np

from auroracast.autodiff import Tape, Tensor, _accumulate, _check_dtypes
from auroracast.errors import DataError
from auroracast.geomodel import (
    DRIVER_NAMES,
    MLAT_MAX,
    MLAT_MIN,
    DriverSeries,
    GridMap,
    GridSpec,
    ObsTable,
    Region,
    _orbit_track,
    activity_level,
    cells_of,
    flux_field,
    region_field,
)
from auroracast.ingest import has_history, history_feature_rows, spatial_block
from auroracast.stats import uniform_bin_index
from auroracast.train import SparseSamples, _runs


def obs_table(rows) -> ObsTable:
    """Columns of ``(t, sat_id, mlat, mlt, eflux, region)`` tuples, region
    a ``Region`` or None; unlabelled rows get region -1."""
    t, sat_id, mlat, mlt, eflux, region = zip(*rows) if rows else ([],) * 6
    return ObsTable(
        t=np.array(t, dtype=np.float64),
        sat_id=np.array(sat_id, dtype=np.int64),
        mlat=np.array(mlat, dtype=np.float64),
        mlt=np.array(mlt, dtype=np.float64),
        eflux=np.array(eflux, dtype=np.float64),
        region=np.array([-1 if r is None else r.value for r in region], dtype=np.int8),
    )


def driver_row_at(drivers, t: float) -> dict[str, float]:
    """Every driver's value at the sample nearest time ``t``: the row that
    ``true_flux`` and ``true_region`` take."""
    i = int(drivers.index_at(t))
    return {name: float(col[i]) for name, col in zip(DRIVER_NAMES, drivers.values)}


def true_flux(mlat: float, mlt: float, drivers_at_t, params) -> float:
    """The world's log10 flux at one coordinate (MLT taken modulo 24), for
    one row of drivers."""
    a = activity_level(drivers_at_t["NewellCF"], params)
    return float(flux_field(mlat, mlt % 24.0, a, params))


def true_region(mlat: float, mlt: float, drivers_at_t, params) -> Region:
    """The world's region at one coordinate (MLT taken modulo 24), for one
    row of drivers."""
    a = activity_level(drivers_at_t["NewellCF"], params)
    return Region(int(region_field(mlat, mlt % 24.0, a, params)))


def cell_of(mlat: float, mlt: float, spec: GridSpec) -> tuple[int, int]:
    """The (row, col) grid cell of one coordinate."""
    row, col = cells_of(mlat, mlt, spec)
    return int(row), int(col)


def composite_window(obs: ObsTable, t_center: float, spec: GridSpec, half_width_s=150.0) -> GridMap:
    """Grid target from every observation within the closed window
    [t_center - half_width, t_center + half_width], one observation at a
    time; cells hit more than once take the mean log10 flux. An empty
    window is a DataError."""
    sums = np.zeros((spec.n_lat, spec.n_mlt))
    counts = np.zeros((spec.n_lat, spec.n_mlt))
    for i in np.argsort(obs.t, kind="stable"):
        if t_center - half_width_s <= obs.t[i] <= t_center + half_width_s:
            r, c = cell_of(float(obs.mlat[i]), float(obs.mlt[i]), spec)
            sums[r, c] += np.log10(obs.eflux[i])
            counts[r, c] += 1
    if not counts.any():
        raise DataError(f"no observations within the window at t={t_center:g}")
    mask = counts > 0
    values = np.zeros_like(sums)
    values[mask] = sums[mask] / counts[mask]
    return GridMap(spec=spec, values=values, mask=mask)


def _check_finite(path, lineno, names, values):
    """The finite-number rule for one row: the first NaN or infinite value
    is a DataError naming its column."""
    for name, value in zip(names, values):
        if not math.isfinite(value):
            raise DataError(f"{path}:{lineno}: {name} must be finite, got {value}")


def _check_header(path, header):
    """A header that names a column twice is a DataError."""
    for i, name in enumerate(header):
        if name in header[:i]:
            raise DataError(f"{path}: column {name} appears twice in the header")


def read_drivers_rows(path) -> DriverSeries:
    """``csv.reader`` plus ``float`` per field, one row at a time, then a
    per-row gap fill: single missing rows get the midpoint of their
    neighbours, halved before it is summed where the sum overflows. The cadence is the smallest time step in the file; a
    larger gap, or a step that is no whole number of cadences, is an error.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        _check_header(path, header)
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
                values = [float(row[0])] + [float(row[i]) for i in cols_idx.values()]
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            _check_finite(path, lineno, ("t",) + DRIVER_NAMES, values)
            t_list.append(values[0])
            for name, value in zip(DRIVER_NAMES, values[1:]):
                data[name].append(value)

    t = np.asarray(t_list, dtype=np.float64)
    if t.size < 2:
        raise DataError(f"{path}: need at least two rows")
    dt = np.diff(t)
    if np.any(dt <= 0):
        raise DataError(f"{path}: non-monotonic time")
    cadence = float(dt.min())
    cols = {name: np.asarray(v, dtype=np.float64) for name, v in data.items()}

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
                    before, after = float(cols[name][i - 1]), float(cols[name][i])
                    mid = 0.5 * (before + after)
                    filled[name].append(mid if math.isfinite(mid) else 0.5 * before + 0.5 * after)
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

    return DriverSeries(t0=float(t[0]), cadence=cadence, values=[cols[name] for name in DRIVER_NAMES])


def read_observations_rows(path) -> tuple[list[tuple], int]:
    """``csv.reader`` plus ``float`` per field, one row at a time; returns
    (``(t, sat_id, mlat, mlt, eflux, region)`` tuples, count of dropped
    non-positive eflux). sat_id must be a whole, non-negative number that
    fits an int64."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        _check_header(path, header)
        required = ["t", "sat_id", "mlat", "mlt", "eflux"]
        for name in required:
            if name not in header:
                raise DataError(f"{path}: missing required column {name}")
        idx = {name: header.index(name) for name in required}
        region_idx = header.index("region") if "region" in header else None

        out: list[tuple] = []
        n_nonpositive = 0
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} fields")
            try:
                t = float(row[idx["t"]])
                sat_value = float(row[idx["sat_id"]])
                sat = int(sat_value)
                mlat = float(row[idx["mlat"]])
                mlt = float(row[idx["mlt"]])
                eflux = float(row[idx["eflux"]])
            except (ValueError, OverflowError) as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            if not abs(sat_value) < 2.0**63:
                raise DataError(f"{path}:{lineno}: sat_id {sat} is outside the int64 range")
            if sat != sat_value or sat < 0:
                raise DataError(f"{path}:{lineno}: sat_id must be a non-negative integer, got {sat_value}")
            if not MLAT_MIN <= mlat <= MLAT_MAX:
                raise DataError(f"{path}:{lineno}: mlat {mlat:g} outside [45, 90]")
            region = None
            if not eflux <= 0 and region_idx is not None and row[region_idx].strip():
                try:
                    region = Region.from_code(row[region_idx])
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from None
            if math.isnan(eflux):
                raise DataError(f"{path}:{lineno}: eflux must be positive, got {eflux}")
            _check_finite(path, lineno, required, (t, sat, mlat, mlt, eflux))
            if eflux <= 0:
                n_nonpositive += 1
                continue
            out.append((t, sat, mlat, mlt, eflux, region))
    return out, n_nonpositive


def composite_add_at(drivers, obs: ObsTable, schema, spec: GridSpec, half_width_s=150.0):
    """Per-window ``np.add.at`` compositor over time-sorted observations.

    Returns (list of (t_center, features, values grid, mask grid), n_empty).
    """
    times = drivers.times
    feats, ok = history_rows_and_mask(drivers, times, schema)
    order = np.argsort(obs.t, kind="stable")
    t_all = obs.t[order]
    mlat_all = obs.mlat[order]
    mlt_all = obs.mlt[order]
    logf_all = np.log10(obs.eflux[order])
    out = []
    n_empty = 0
    for i, t_center in enumerate(times):
        if not ok[i]:
            continue
        lo = np.searchsorted(t_all, t_center - half_width_s, side="left")
        hi = np.searchsorted(t_all, t_center + half_width_s, side="right")
        if hi <= lo:
            n_empty += 1
            continue
        rows, cols = cells_of(mlat_all[lo:hi], mlt_all[lo:hi], spec)
        sums = np.zeros((spec.n_lat, spec.n_mlt))
        counts = np.zeros((spec.n_lat, spec.n_mlt))
        np.add.at(sums, (rows, cols), logf_all[lo:hi])
        np.add.at(counts, (rows, cols), 1.0)
        mask = counts > 0
        values = np.zeros_like(sums)
        values[mask] = sums[mask] / counts[mask]
        out.append((float(t_center), feats[i], values, mask))
    return out, n_empty


def history_rows_and_mask(drivers, times, schema):
    """(rows [m, 10*n_vars], mask of the times with history): each time's
    ``history_feature_rows`` row, or zeros where ``has_history`` rejects it."""
    times = np.asarray(times, dtype=np.float64)
    ok = has_history(drivers, times, schema)
    rows = np.zeros((times.size, len(schema.global_names)))
    rows[ok] = history_feature_rows(drivers, times[ok], schema)
    return rows, ok


def history_rows_per_variable(drivers, times, schema):
    """``history_feature_rows`` one variable and one lag or window at a
    time: each trailing mean is a 1-D ``np.add.reduceat`` over the
    variable's series with a zero appended."""
    tt = np.asarray(times, dtype=np.float64)
    cad, last = drivers.cadence, drivers.n - 1
    lag_idx = [drivers.index_at(tt - 60.0 * lag_min) for lag_min in schema.lag_minutes]
    i_now = np.floor((tt - drivers.t0) / cad + 1e-9).astype(np.int64)
    windows = []
    for avg_min in schema.avg_minutes:
        i_start = np.floor((tt - 60.0 * avg_min - drivers.t0) / cad + 1e-9).astype(np.int64) + 1
        i_start = np.clip(i_start, 0, last)
        bounds = np.empty(2 * tt.size, dtype=np.int64)
        bounds[0::2] = i_start
        bounds[1::2] = np.clip(i_now, i_start, last) + 1
        windows.append((bounds, bounds[1::2] - i_start))
    cols = []
    for var in schema.variables:
        series = drivers.column(var)
        padded = np.concatenate([series, [0.0]])
        cols.extend(series[idx] for idx in lag_idx)
        cols.extend(np.add.reduceat(padded, bounds)[0::2] / count for bounds, count in windows)
    return np.column_stack(cols)


def history_rows_one_by_one(drivers, times, schema):
    """Each time's feature row computed in a call of its own."""
    pairs = [history_rows_and_mask(drivers, np.array([t]), schema) for t in times]
    return np.vstack([rows for rows, _ in pairs]), np.concatenate([ok for _, ok in pairs])


def feature_rows_hstack(drivers, obs: ObsTable, schema):
    """Feature rows as the full spatial and history blocks side by side,
    then the rows with full history selected."""
    hist, ok = history_rows_and_mask(drivers, obs.t, schema)
    return np.hstack([spatial_block(obs.mlat, obs.mlt), hist])[ok]


def fit_normalization_whole(rows):
    """Mean and std of the whole float64 matrix at once; std 1 where it is 0."""
    rows = np.asarray(rows, dtype=np.float64)
    mean = rows.mean(axis=0)
    std = rows.std(axis=0)
    return mean, np.where(std > 1e-12, std, 1.0)


def _w_str(buf: bytearray, s: str):
    raw = s.encode("utf-8")
    buf += struct.pack("<H", len(raw)) + raw


def cache_bytes_bytearray(table, legacy: bool = False) -> bytes:
    """A feature cache of ``table`` in one of the two formats before the
    container: ``AFT2``, which ends in the CRC32 of all bytes before it,
    or, with ``legacy``, ``AFT1``, the same layout without the CRC."""
    buf = bytearray(b"AFT1" if legacy else b"AFT2")
    buf += struct.pack("<II", table.n, table.schema.width)
    names = table.schema.names
    buf += struct.pack("<H", len(names))
    for name in names:
        _w_str(buf, name)
    buf += struct.pack("<H", len(table.schema.variables))
    for var in table.schema.variables:
        _w_str(buf, var)
    buf += struct.pack("<B", len(table.schema.lag_minutes))
    buf += np.asarray(table.schema.lag_minutes, dtype="<f8").tobytes()
    buf += struct.pack("<B", len(table.schema.avg_minutes))
    buf += np.asarray(table.schema.avg_minutes, dtype="<f8").tobytes()

    buf += table.rows.astype("<f4").tobytes()
    buf += table.target.astype("<f8").tobytes()
    if table.region is None:
        buf += struct.pack("<B", 0)
    else:
        buf += struct.pack("<B", 1)
        buf += table.region.astype("<i1").tobytes()
    buf += table.t.astype("<f8").tobytes()
    buf += table.mlat.astype("<f8").tobytes()
    buf += table.mlt.astype("<f8").tobytes()
    buf += table.sat_id.astype("<u2").tobytes()
    norm_mean, norm_std = fit_normalization_whole(table.rows)
    buf += norm_mean.astype("<f8").tobytes()
    buf += norm_std.astype("<f8").tobytes()
    buf += struct.pack("<I", table.n_dropped_history)
    if not legacy:
        buf += struct.pack("<I", zlib.crc32(buf))
    return bytes(buf)


def checkpoint_bytes_aurn(model) -> bytes:
    """A baseline-model checkpoint in the ``AURN`` format before the
    container: magic, u16 version 1, u8 arch tag 0, u32 input width, u16
    count and u32 hidden widths, f32 dropout, u32-length JSON metadata,
    then per parameter its name, shape and f32 data, and a trailing CRC32."""
    arch = model.arch
    buf = bytearray(b"AURN" + struct.pack("<HBIH", 1, 0, arch.input_width, len(arch.hidden)))
    buf += struct.pack(f"<{len(arch.hidden)}If", *arch.hidden, arch.dropout_rate)
    meta = json.dumps(model.meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    buf += struct.pack("<I", len(meta)) + meta
    items = sorted(model.params.items())
    buf += struct.pack("<H", len(items))
    for name, tensor in items:
        data, raw = tensor.data, name.encode("utf-8")
        buf += struct.pack(f"<H{len(raw)}sB{data.ndim}I", len(raw), raw, data.ndim, *data.shape)
        buf += data.astype("<f4").tobytes()
    buf += struct.pack("<I", zlib.crc32(buf))
    return bytes(buf)


def container_bytes(kind: str, meta: dict, arrays: dict) -> bytes:
    """A container assembled in one bytearray, each array converted in one
    call: magic, u32 header length, the canonical-JSON header, the arrays
    at 8-byte-aligned offsets, and the CRC32 of all bytes before it."""
    arrays = {name: np.asarray(arr, dtype=dtype) for name, (arr, dtype) in arrays.items()}
    header = {
        "kind": kind,
        "version": 1,
        "meta": meta,
        "arrays": [
            {"name": name, "dtype": a.dtype.str, "shape": list(a.shape)} for name, a in arrays.items()
        ],
    }
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    buf = bytearray(b"AURC" + struct.pack("<I", len(raw)) + raw)
    for a in arrays.values():
        buf += bytes(-len(buf) % 8) + a.tobytes()
    buf += struct.pack("<I", zlib.crc32(buf))
    return bytes(buf)


def cache_bytes_container(table, normalization: bool = False) -> bytes:
    """The feature cache of ``table`` as one whole-buffer container; with
    ``normalization``, as caches were written before the normalization
    arrays were dropped, the whole-table mean and std after sat_id."""
    arrays = {"rows": (table.rows, "<f4"), "target": (table.target, "<f8")}
    if table.region is not None:
        arrays["region"] = (table.region, "<i1")
    arrays.update(t=(table.t, "<f8"), mlat=(table.mlat, "<f8"), mlt=(table.mlt, "<f8"))
    arrays["sat_id"] = (table.sat_id, "<u2")
    if normalization:
        mean, std = fit_normalization_whole(table.rows)
        arrays.update(norm_mean=(mean, "<f8"), norm_std=(std, "<f8"))
    schema = {
        "variables": list(table.schema.variables),
        "lag_minutes": list(table.schema.lag_minutes),
        "avg_minutes": list(table.schema.avg_minutes),
    }
    meta = {"schema": schema, "n_dropped_history": table.n_dropped_history}
    return container_bytes("feature cache", meta, arrays)


# ── Per-row CSV writers ───────────────────────────────────────────────

def _fmt_time(v: float) -> str:
    """An integral value below 1e15 in magnitude as an int, else repr."""
    f = float(v)
    return str(int(f)) if f.is_integer() and abs(f) < 1e15 else repr(f)


def _r(x) -> str:
    return repr(float(x))


def write_drivers_rows(drivers, path):
    with open(path, "w", newline="") as fh:
        fh.write("t," + ",".join(DRIVER_NAMES) + "\n")
        times = drivers.times
        cols = drivers.values
        for i in range(drivers.n):
            fh.write(_fmt_time(times[i]) + "," + ",".join(repr(float(c[i])) for c in cols) + "\n")


def write_observations_rows(obs, path):
    codes = [Region(v).code for v in range(len(Region))]
    with open(path, "w", newline="") as fh:
        fh.write("t,sat_id,mlat,mlt,eflux,region\n")
        for i in range(len(obs)):
            fh.write(
                f"{_fmt_time(obs.t[i])},{int(obs.sat_id[i])},{_r(obs.mlat[i])},{_r(obs.mlt[i])},"
                f"{_r(obs.eflux[i])},{codes[obs.region[i]]}\n"
            )


def write_cleaning_rows(report, n_dropped_history, path):
    with open(path, "w", newline="") as fh:
        fh.write("n_in,n_dropped_outlier,n_dropped_nonpositive,threshold,n_dropped_history\n")
        fh.write(
            f"{report.n_in},{report.n_dropped_outlier},{report.n_dropped_nonpositive},"
            f"{report.threshold!r},{n_dropped_history}\n"
        )


def write_history_rows(history, path):
    with open(path, "w", newline="") as fh:
        fh.write("epoch,train_loss,val_loss\n")
        for epoch, train_loss, val_loss in history.epochs:
            fh.write(f"{epoch},{train_loss!r},{val_loss!r}\n")


def write_grid_rows(grid, path):
    with open(path, "w", newline="") as fh:
        for row in grid:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def write_binned_errors_rows(report, path):
    with open(path, "w", newline="") as fh:
        fh.write("bin_lo,bin_hi,count,mae_log10,bias_log10,mae_linear_factor\n")
        for i in range(report.n_bins):
            factor = 10.0 ** float(report.mae[i])
            fh.write(
                f"{_r(report.edges[i])},{_r(report.edges[i + 1])},{int(report.count[i])},"
                f"{_r(report.mae[i])},{_r(report.bias[i])},{_r(factor)}\n"
            )


def write_tail_reduction_rows(report, path):
    """Percentiles follow the time rule; the writer before ``write_csv``
    used ``:g``, which agrees up to six significant digits."""
    with open(path, "w", newline="") as fh:
        fh.write("percentile,threshold_log10,n,baseline_mae_log10,candidate_mae_log10,reduction_pct\n")
        for i, p in enumerate(report.percentiles):
            fh.write(
                f"{_fmt_time(p)},{_r(report.thresholds[i])},{int(report.count[i])},"
                f"{_r(report.base_mae[i])},{_r(report.cand_mae[i])},{_r(100.0 * report.reduction[i])}\n"
            )


def write_histogram_rows(edges, true_counts, pred_counts, path):
    """Counts are written as integers; the writer before ``write_csv``
    used ``:g``, which rounds a count of 1e6 or more."""
    t_total = float(true_counts.sum()) or 1.0
    p_total = float(pred_counts.sum()) or 1.0
    with open(path, "w", newline="") as fh:
        fh.write("bin_lo,bin_hi,true_count,pred_count,true_frac,pred_frac\n")
        for i in range(len(true_counts)):
            fh.write(
                f"{_r(edges[i])},{_r(edges[i + 1])},{int(true_counts[i])},{int(pred_counts[i])},"
                f"{_r(true_counts[i] / t_total)},{_r(pred_counts[i] / p_total)}\n"
            )


def write_region_mse_rows(table, path):
    with open(path, "w", newline="") as fh:
        fh.write("region,count,mse_log10\n")
        for code, (mse, count) in table.items():
            fh.write(f"{code},{count},{'' if mse is None else _r(mse)}\n")


def write_classification_rows(report, path):
    codes = [r.code for r in Region]
    with open(path, "w", newline="") as fh:
        fh.write("metric,arg1,arg2,value\n")
        fh.write(f"accuracy,,,{_r(report.accuracy)}\n")
        for i, ti in enumerate(codes):
            for j, pj in enumerate(codes):
                fh.write(f"confusion,{ti},{pj},{int(report.confusion[i, j])}\n")
        for i, code in enumerate(codes):
            fh.write(f"precision,{code},,{_r(report.precision[i])}\n")
        for i, code in enumerate(codes):
            fh.write(f"recall,{code},,{_r(report.recall[i])}\n")


def conv2d_backward_dense(x, k, dy):
    """(dx, dk) of a valid cross-correlation of x [n, c_in, h, w] with
    k [c_out, c_in, kh, kw] for output gradient dy: per sample and tap, the
    channel contraction of dy on the full-width flattened rows, scattered
    over every output cell, zero or not."""
    n, ci, h, w = x.shape
    co, _, kh, kw = k.shape
    oh, ow = dy.shape[2:]
    span = (oh - 1) * w + ow
    dy_rows = np.zeros((n, co, oh, w), dtype=x.dtype)
    dy_rows[:, :, :, :ow] = dy
    dy_flat = dy_rows.reshape(n, co, oh * w)[:, :, :span]
    x_flat = x.reshape(n, ci, h * w)
    taps = [(p, q, slice(p * w + q, p * w + q + span)) for p in range(kh) for q in range(kw)]
    dx = np.zeros_like(x_flat)
    dk = np.zeros_like(k)
    tap = np.empty((ci, span), dtype=x.dtype)
    for i in range(n):
        for p, q, run in taps:
            dk[:, :, p, q] += dy_flat[i] @ x_flat[i, :, run].T
            np.einsum("oc,ol->cl", k[:, :, p, q], dy_flat[i], out=tap)
            dx[i, :, run] += tap
    return dx.reshape(x.shape), dk


def accumulate_zero_filled(t, g):
    """``autodiff._accumulate`` with every gradient starting from zeros."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def backward_keeping_records(tape, loss):
    """Replay ``tape`` in reverse and leave every record on it, so every
    activation and gradient lives as long as the tape. Run it with
    ``accumulate_zero_filled`` in place of ``_accumulate``."""
    loss.grad = np.ones_like(loss.data)
    for out, fn in reversed(tape._records):
        if out.grad is not None:
            fn()


def dense_batch(samples: SparseSamples, idx) -> tuple[np.ndarray, np.ndarray]:
    """Dense (values, mask) grids [b, n_lat, n_mlt] for samples ``idx``;
    unobserved cells hold 0."""
    spec = samples.spec
    idx = np.asarray(idx, dtype=np.int64)
    offsets = samples.offsets
    sample_of, pos = _runs(offsets[idx], offsets[idx + 1] - offsets[idx])
    values = np.zeros((len(idx), spec.n_lat * spec.n_mlt))
    mask = np.zeros(values.shape, dtype=bool)
    values[sample_of, samples.cells[pos]] = samples.values[pos]
    mask[sample_of, samples.cells[pos]] = True
    shape = (len(idx), spec.n_lat, spec.n_mlt)
    return values.reshape(shape), mask.reshape(shape)


def sparse_masked_loss_dense(
    tape: Tape | None,
    pred: Tensor,
    target_values: np.ndarray,
    mask: np.ndarray,
    normalize: bool = True,
) -> Tensor:
    """``losses.sparse_masked_loss_op`` on dense target and mask grids of
    ``pred``'s shape: the observed cells are read through the mask."""
    m = np.asarray(mask, dtype=bool)
    if pred.shape != m.shape:
        raise ValueError("pred/mask shapes differ")
    count = int(m.sum())
    if count == 0:
        raise ValueError("empty mask: no observed cells in batch")
    v = np.asarray(target_values, dtype=np.float64)[m].astype(pred.data.dtype)
    diff = pred.data[m] - v
    denom = count if normalize else 1
    out = Tensor(np.array(np.sum(diff**2) / denom, dtype=pred.data.dtype))

    if tape is not None:
        def backward():
            dp = np.zeros_like(pred.data)
            dp[m] = out.grad * 2.0 * diff / denom
            _accumulate(pred, dp)

        tape.record(out, backward)
    return out


def add(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    _check_dtypes(a, b)
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data)

    if tape is not None:
        def backward():
            _accumulate(a, out.grad)
            _accumulate(b, out.grad)

        tape.record(out, backward)
    return out


def scale(x: Tensor, c: float, tape: Tape | None = None) -> Tensor:
    out = Tensor(x.data * c)

    if tape is not None:
        def backward():
            _accumulate(x, out.grad * c)

        tape.record(out, backward)
    return out


def sum_all(x: Tensor, tape: Tape | None = None) -> Tensor:
    out = Tensor(np.array(x.data.sum(), dtype=x.data.dtype))

    if tape is not None:
        def backward():
            _accumulate(x, np.broadcast_to(out.grad, x.shape).astype(x.data.dtype))

        tape.record(out, backward)
    return out


def dist_weights_fit_then_bin(y_train, n_bins: int = 50) -> np.ndarray:
    """Per-bin weights ``1 / ((count + 1) * n)`` over ``np.linspace`` edges
    of [min, max], then each target's weight looked up by binning it again
    between the first and last edge."""
    y = np.asarray(y_train, dtype=np.float64)
    lo, hi = float(y.min()), float(y.max())
    counts = np.bincount(uniform_bin_index(y, lo, hi, n_bins), minlength=n_bins)
    weights = 1.0 / ((counts + 1.0) * y.size)
    edges = np.linspace(lo, hi, n_bins + 1)
    return weights[uniform_bin_index(y, float(edges[0]), float(edges[-1]), n_bins)]


def gen_drivers_per_variable(params, duration_s: float) -> DriverSeries:
    """``geomodel.gen_drivers`` one variable at a time: each variable's OU
    path is stepped in a loop of its own, one element at a time."""
    n = int(math.floor(duration_s / params.cadence_s)) + 1
    dt = params.cadence_s
    children = np.random.SeedSequence([params.seed, 0]).spawn(len(DRIVER_NAMES))
    values = np.empty((len(DRIVER_NAMES), n))
    for x, name, child in zip(values, DRIVER_NAMES, children):
        proc = params.processes[name]
        noise = np.random.default_rng(child).standard_normal(n - 1)
        x[0] = proc.mean
        k = dt / proc.tau_s
        amp = proc.volatility * math.sqrt(dt)
        for i in range(1, n):
            x[i] = x[i - 1] + (proc.mean - x[i - 1]) * k + amp * noise[i - 1]
    return DriverSeries(t0=params.t0, cadence=params.cadence_s, values=values)


def sample_traces_per_satellite(params, drivers, obs_cadence_s=None) -> ObsTable:
    """Each satellite's track, flux, noise and regions drawn on its own,
    concatenated, then ordered by time and satellite with ``np.lexsort``."""
    cad = params.obs_cadence_s if obs_cadence_s is None else float(obs_cadence_s)
    n_obs = int(math.floor((drivers.t_end - drivers.t0) / cad)) + 1
    times = drivers.t0 + cad * np.arange(n_obs)
    a = activity_level(drivers.column("NewellCF")[drivers.index_at(times)], params)
    children = np.random.SeedSequence([params.seed, 1]).spawn(params.n_sats)
    cols = {key: [] for key in ("t", "sat_id", "mlat", "mlt", "logf", "region")}
    for s in range(params.n_sats):
        mlat, mlt = _orbit_track(times, s, params)
        noise = params.noise_sigma * np.random.default_rng(children[s]).standard_normal(n_obs)
        for key, value in (
            ("t", times), ("sat_id", np.full(n_obs, s, dtype=np.int64)), ("mlat", mlat), ("mlt", mlt),
            ("logf", flux_field(mlat, mlt, a, params) + noise), ("region", region_field(mlat, mlt, a, params)),
        ):
            cols[key].append(value)
    cols = {key: np.concatenate(value) for key, value in cols.items()}
    order = np.lexsort((cols["sat_id"], cols["t"]))
    cols = {key: value[order] for key, value in cols.items()}
    eflux = np.array([10.0**x for x in cols.pop("logf").tolist()])
    return ObsTable(eflux=eflux, **cols)
