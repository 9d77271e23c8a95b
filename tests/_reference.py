"""Reference implementations of the columnar data path.

Each function here is the straightforward per-row (or per-window) version
of a vectorised function in ``auroracast``, or the whole-array version of
a chunked one; the tests compare the two exactly. Conversion from
``Observation`` rows to an ``ObsTable`` also lives here, so tests can
still write observations one by one, as do the scalar oracles of the
world (``true_flux``, ``true_region``, ``cell_of``, with
``driver_row_at`` for their driver input) and the one-window compositor
``composite_window``.
"""

from __future__ import annotations

import csv
import json
import struct
import zlib

import numpy as np

from auroracast.errors import DataError
from auroracast.geomodel import (
    MLAT_MAX,
    MLAT_MIN,
    GridMap,
    GridSpec,
    MagCoord,
    Observation,
    ObsTable,
    Region,
    activity_level,
    cells_of,
    flux_field,
    region_field,
)
from auroracast.ingest import history_feature_rows, spatial_block


def obs_table(rows: list[Observation]) -> ObsTable:
    """Columns of a list of Observation rows; unlabelled rows get region -1."""
    regions = [-1 if o.region is None else o.region.value for o in rows]
    return ObsTable(
        t=np.array([o.t for o in rows], dtype=np.float64),
        sat_id=np.array([o.sat_id for o in rows], dtype=np.int64),
        mlat=np.array([o.coord.mlat for o in rows], dtype=np.float64),
        mlt=np.array([o.coord.mlt for o in rows], dtype=np.float64),
        eflux=np.array([o.eflux for o in rows], dtype=np.float64),
        region=np.array(regions, dtype=np.int8),
    )


def driver_row_at(drivers, t: float) -> dict[str, float]:
    """Every driver's value at the sample nearest time ``t``: the row that
    ``true_flux`` and ``true_region`` take."""
    i = int(drivers.index_at(t))
    return {name: float(col[i]) for name, col in drivers.columns.items()}


def true_flux(coord: MagCoord, drivers_at_t, params) -> float:
    """The world's log10 flux at one coordinate, for one row of drivers."""
    a = activity_level(drivers_at_t["NewellCF"], params)
    return float(flux_field(coord.mlat, coord.mlt, a, params))


def true_region(coord: MagCoord, drivers_at_t, params) -> Region:
    """The world's region at one coordinate, for one row of drivers."""
    a = activity_level(drivers_at_t["NewellCF"], params)
    return Region(int(region_field(coord.mlat, coord.mlt, a, params)))


def cell_of(coord: MagCoord, spec: GridSpec) -> tuple[int, int]:
    """The (row, col) grid cell of one coordinate."""
    row, col = cells_of(coord.mlat, coord.mlt, spec)
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
            r, c = cell_of(MagCoord(float(obs.mlat[i]), float(obs.mlt[i])), spec)
            sums[r, c] += np.log10(obs.eflux[i])
            counts[r, c] += 1
    if not counts.any():
        raise DataError(f"no observations within the window at t={t_center:g}")
    mask = counts > 0
    values = np.zeros_like(sums)
    values[mask] = sums[mask] / counts[mask]
    return GridMap(spec=spec, values=values, mask=mask)


def read_observations_rows(path) -> tuple[list[Observation], int]:
    """``csv.reader`` plus ``float`` per field, one Observation per row."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        required = ["t", "sat_id", "mlat", "mlt", "eflux"]
        for name in required:
            if name not in header:
                raise DataError(f"{path}: missing required column {name}")
        idx = {name: header.index(name) for name in required}
        region_idx = header.index("region") if "region" in header else None

        out: list[Observation] = []
        n_nonpositive = 0
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} fields")
            try:
                t = float(row[idx["t"]])
                sat = int(float(row[idx["sat_id"]]))
                mlat = float(row[idx["mlat"]])
                mlt = float(row[idx["mlt"]])
                eflux = float(row[idx["eflux"]])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            if not MLAT_MIN <= mlat <= MLAT_MAX:
                raise DataError(f"{path}:{lineno}: mlat {mlat:g} outside [45, 90]")
            if eflux <= 0:
                n_nonpositive += 1
                continue
            region = None
            if region_idx is not None and row[region_idx].strip():
                try:
                    region = Region.from_code(row[region_idx])
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from None
            out.append(
                Observation(t=t, sat_id=sat, coord=MagCoord(mlat, mlt), eflux=eflux, region=region)
            )
    return out, n_nonpositive


def composite_add_at(drivers, obs: ObsTable, schema, spec: GridSpec, half_width_s=150.0):
    """Per-window ``np.add.at`` compositor over time-sorted observations.

    Returns (list of (t_center, features, values grid, mask grid), n_empty).
    """
    times = drivers.times
    feats, ok = history_feature_rows(drivers, times, schema)
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


def history_rows_one_by_one(drivers, times, schema):
    """Each time's feature row computed in a call of its own."""
    pairs = [history_feature_rows(drivers, np.array([t]), schema) for t in times]
    return np.vstack([rows for rows, _ in pairs]), np.concatenate([ok for _, ok in pairs])


def feature_rows_hstack(drivers, obs: ObsTable, schema):
    """Feature rows as the full spatial and history blocks side by side,
    then the rows with full history selected."""
    hist, ok = history_feature_rows(drivers, obs.t, schema)
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
