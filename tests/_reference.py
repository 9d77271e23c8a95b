"""Row-at-a-time reference implementations of the columnar data path.

Each function here is the straightforward per-row (or per-window) version
of a vectorised function in ``auroracast``; the tests compare the two
exactly. Conversion from ``Observation`` rows to an ``ObsTable`` also
lives here, so tests can still write observations one by one.
"""

from __future__ import annotations

import csv

import numpy as np

from auroracast.errors import DataError
from auroracast.geomodel import (
    MLAT_MAX,
    MLAT_MIN,
    GridSpec,
    MagCoord,
    Observation,
    ObsTable,
    Region,
    cells_of,
)
from auroracast.ingest import history_feature_rows


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
