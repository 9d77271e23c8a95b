"""Evaluation protocol: binned errors, tail-percentile reductions,
histogram comparisons, region metrics, and full-hemisphere map export.

Errors are reported in log10 target space; binned reports carry a
secondary linear-space multiplier column (10**MAE) for readers who think
in percent error. Percentile thresholds use the same linear-interpolation
order statistic as target cleaning. Maps are written as a raw CSV grid
plus an 8-bit binary portable graymap (P5) with the value range mapped
linearly onto [0, 255].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .geomodel import DriverSeries, GridSpec, Region
from .ingest import FeatureSchema, spatial_block
from .models import ConvDecoderArch, Model, predict
from .stats import as_1d_pair, percentile_linear, uniform_bin_index


@dataclass(frozen=True)
class BinnedErrorReport:
    edges: np.ndarray
    mae: np.ndarray
    bias: np.ndarray
    count: np.ndarray

    @property
    def n_bins(self) -> int:
        return len(self.count)


@dataclass(frozen=True)
class TailReductionReport:
    percentiles: tuple[float, ...]
    thresholds: np.ndarray
    base_mae: np.ndarray
    cand_mae: np.ndarray
    reduction: np.ndarray  # (base - cand) / base, as a fraction
    count: np.ndarray


@dataclass(frozen=True)
class ClassificationReport:
    accuracy: float
    confusion: np.ndarray  # [true, pred]
    precision: np.ndarray
    recall: np.ndarray


def binned_errors(y_true, y_pred, n_bins: int = 20) -> BinnedErrorReport:
    """Per-target-bin MAE and mean signed error (true - pred convention)."""
    t, p = as_1d_pair(y_true, y_pred)
    lo, hi = float(t.min()), float(t.max())
    if not hi > lo:
        hi = lo + 1e-9
    idx = uniform_bin_index(t, lo, hi, n_bins)
    count = np.bincount(idx, minlength=n_bins)
    abs_err = np.bincount(idx, weights=np.abs(t - p), minlength=n_bins)
    signed = np.bincount(idx, weights=t - p, minlength=n_bins)
    nonzero = count > 0
    mae = np.zeros(n_bins)
    bias = np.zeros(n_bins)
    mae[nonzero] = abs_err[nonzero] / count[nonzero]
    bias[nonzero] = signed[nonzero] / count[nonzero]
    return BinnedErrorReport(
        edges=np.linspace(lo, hi, n_bins + 1), mae=mae, bias=bias, count=count
    )


def tail_reduction(
    y_true, pred_base, pred_cand, percentiles=(90.0, 95.0, 99.0)
) -> TailReductionReport:
    """MAE above each y_true percentile, and the candidate's relative gain."""
    t, base = as_1d_pair(y_true, pred_base)
    _, cand = as_1d_pair(y_true, pred_cand)
    thresholds, base_mae, cand_mae, reduction, count = [], [], [], [], []
    for p in percentiles:
        thr = percentile_linear(t, p)
        sel = t > thr
        if not sel.any():
            raise DataError(f"no samples above the {p}th percentile")
        b = float(np.mean(np.abs(t[sel] - base[sel])))
        c = float(np.mean(np.abs(t[sel] - cand[sel])))
        thresholds.append(thr)
        base_mae.append(b)
        cand_mae.append(c)
        reduction.append((b - c) / b if b > 0 else 0.0)
        count.append(int(sel.sum()))
    return TailReductionReport(
        percentiles=tuple(percentiles),
        thresholds=np.array(thresholds),
        base_mae=np.array(base_mae),
        cand_mae=np.array(cand_mae),
        reduction=np.array(reduction),
        count=np.array(count),
    )


def histogram_compare(y_true, y_pred, n_bins: int = 50, normalized: bool = False):
    """Counts of true and predicted values over shared uniform bins.

    Returns (edges, true_counts, pred_counts); with ``normalized`` the
    counts are scaled to sum to 1 (the paper-style scaled comparison).
    """
    t, p = as_1d_pair(y_true, y_pred)
    lo = float(min(t.min(), p.min()))
    hi = float(max(t.max(), p.max()))
    if not hi > lo:
        hi = lo + 1e-9
    edges = np.linspace(lo, hi, n_bins + 1)
    t_counts = np.bincount(uniform_bin_index(t, lo, hi, n_bins), minlength=n_bins).astype(
        np.float64
    )
    p_counts = np.bincount(uniform_bin_index(p, lo, hi, n_bins), minlength=n_bins).astype(
        np.float64
    )
    if normalized:
        t_counts = t_counts / t_counts.sum()
        p_counts = p_counts / p_counts.sum()
    return edges, t_counts, p_counts


def classification_report(true_regions, pred_regions) -> ClassificationReport:
    """Accuracy plus a 3x3 confusion matrix with per-class precision/recall.

    Classes with no predictions (or no true members) report 0 for the
    undefined ratio rather than erroring.
    """
    t = np.asarray(true_regions, dtype=np.int64).ravel()
    p = np.asarray(pred_regions, dtype=np.int64).ravel()
    if t.size != p.size or t.size == 0:
        raise ValueError("empty or misaligned label arrays")
    k = 3
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (t, p), 1)
    accuracy = float(np.trace(confusion) / t.size)
    pred_totals = confusion.sum(axis=0)
    true_totals = confusion.sum(axis=1)
    diag = np.diag(confusion)
    precision = np.divide(diag, pred_totals, out=np.zeros(k), where=pred_totals > 0)
    recall = np.divide(diag, true_totals, out=np.zeros(k), where=true_totals > 0)
    return ClassificationReport(
        accuracy=accuracy, confusion=confusion, precision=precision, recall=recall
    )


def region_mse_table(y_true, y_pred, regions) -> dict[str, tuple[float | None, int]]:
    """Per-region MSE in log space; absent regions report (None, 0)."""
    t, p = as_1d_pair(y_true, y_pred)
    codes = np.asarray(regions, dtype=np.int64).ravel()
    if codes.size != t.size:
        raise ValueError("region labels misaligned")
    out: dict[str, tuple[float | None, int]] = {}
    for region in Region:
        sel = codes == region.value
        n = int(sel.sum())
        mse = float(np.mean((t[sel] - p[sel]) ** 2)) if n else None
        out[region.code] = (mse, n)
    return out


# ── Map rendering ─────────────────────────────────────────────────────

def _schema_from_meta(meta: dict) -> FeatureSchema:
    try:
        return FeatureSchema.from_meta(meta["schema"])
    except KeyError as exc:
        raise DataError(f"checkpoint metadata lacks schema field {exc}") from None


def predict_grid(model: Model, drivers: DriverSeries, t: float, spec: GridSpec) -> np.ndarray:
    """Evaluate a trained model over the whole grid at one time step.

    A point model gets one feature row per cell center, the cell's spatial
    block followed by the driver history at ``t``; the conv decoder gets
    the history row alone and predicts the grid. Both go through
    ``models.predict``.
    """
    from .ingest import history_feature_rows

    if t < drivers.t0 or t > drivers.t_end:
        raise DataError(f"timestamp {t:g} outside driver range")
    schema = _schema_from_meta(model.meta)
    hist, ok = history_feature_rows(drivers, np.array([t]), schema)
    if not ok[0]:
        raise DataError(f"timestamp {t:g} lacks full driver history")

    if isinstance(model.arch, ConvDecoderArch):
        return predict(model, hist)[0][0]

    lat_centers = spec.lat_min + (np.arange(spec.n_lat) + 0.5) * spec.dlat
    mlt_centers = (np.arange(spec.n_mlt) + 0.5) * spec.dmlt
    mlat_grid, mlt_grid = np.meshgrid(lat_centers, mlt_centers, indexing="ij")
    spatial = spatial_block(mlat_grid.ravel(), mlt_grid.ravel())
    rows = np.hstack([spatial, np.tile(hist[0], (spatial.shape[0], 1))])
    return predict(model, rows)[0].reshape(spec.n_lat, spec.n_mlt)


def write_grid_csv(grid: np.ndarray, path):
    with open(path, "w", newline="") as fh:
        for row in grid:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def write_pgm(grid: np.ndarray, path, vmin: float | None = None, vmax: float | None = None):
    """8-bit binary graymap; values map linearly [vmin, vmax] -> [0, 255].

    Defaults to the grid's own range; a constant grid renders as 0.
    Row 0 of the image is the lowest latitude row of the grid.
    """
    g = np.asarray(grid, dtype=np.float64)
    lo = float(g.min()) if vmin is None else float(vmin)
    hi = float(g.max()) if vmax is None else float(vmax)
    if hi > lo:
        scaled = np.clip(np.rint((g - lo) / (hi - lo) * 255.0), 0, 255)
    else:
        scaled = np.zeros_like(g)
    h, w = g.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(scaled.astype(np.uint8).tobytes())


def render_map(model: Model, drivers: DriverSeries, t: float, spec: GridSpec, out_base) -> np.ndarray:
    """Predict the full grid and write <out_base>.csv and <out_base>.pgm."""
    grid = predict_grid(model, drivers, t, spec)
    write_grid_csv(grid, f"{out_base}.csv")
    write_pgm(grid, f"{out_base}.pgm")
    return grid


# ── Report CSV writers ────────────────────────────────────────────────

def _r(x) -> str:
    """Shortest round-trip decimal for a scalar."""
    return repr(float(x))


def write_binned_errors_csv(report: BinnedErrorReport, path):
    with open(path, "w", newline="") as fh:
        fh.write("bin_lo,bin_hi,count,mae_log10,bias_log10,mae_linear_factor\n")
        for i in range(report.n_bins):
            factor = 10.0 ** float(report.mae[i])
            fh.write(
                f"{_r(report.edges[i])},{_r(report.edges[i + 1])},{int(report.count[i])},"
                f"{_r(report.mae[i])},{_r(report.bias[i])},{_r(factor)}\n"
            )


def write_tail_reduction_csv(report: TailReductionReport, path):
    with open(path, "w", newline="") as fh:
        fh.write("percentile,threshold_log10,n,baseline_mae_log10,candidate_mae_log10,reduction_pct\n")
        for i, p in enumerate(report.percentiles):
            fh.write(
                f"{p:g},{_r(report.thresholds[i])},{int(report.count[i])},"
                f"{_r(report.base_mae[i])},{_r(report.cand_mae[i])},{_r(100.0 * report.reduction[i])}\n"
            )


def write_histogram_csv(edges, true_counts, pred_counts, path):
    t_total = true_counts.sum() or 1.0
    p_total = pred_counts.sum() or 1.0
    with open(path, "w", newline="") as fh:
        fh.write("bin_lo,bin_hi,true_count,pred_count,true_frac,pred_frac\n")
        for i in range(len(true_counts)):
            fh.write(
                f"{_r(edges[i])},{_r(edges[i + 1])},{true_counts[i]:g},{pred_counts[i]:g},"
                f"{_r(true_counts[i] / t_total)},{_r(pred_counts[i] / p_total)}\n"
            )


def write_region_mse_csv(table: dict[str, tuple[float | None, int]], path):
    with open(path, "w", newline="") as fh:
        fh.write("region,count,mse_log10\n")
        for code, (mse, count) in table.items():
            fh.write(f"{code},{count},{'' if mse is None else _r(mse)}\n")


def write_classification_csv(report: ClassificationReport, path):
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
