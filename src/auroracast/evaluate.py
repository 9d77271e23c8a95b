"""Evaluation protocol: binned errors, tail-percentile reductions,
histogram comparisons, region metrics, and full-hemisphere map export.
``score`` computes every report of one set of predictions, writing none.

Errors are reported in log10 target space; binned reports carry a
secondary linear-space multiplier column (10**MAE) for readers who think
in percent error. Percentile thresholds use the same linear-interpolation
order statistic as target cleaning. Histogram counts are int64. Every
table, and the raw map grid (no header line), is written by
``ingest.write_csv``, so floats are shortest round-trip decimals and
counts are integers. The map also goes to an 8-bit binary portable
graymap (P5) with the grid's range mapped linearly onto [0, 255].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DataError
from .geomodel import DriverSeries, GridSpec, Region
from .ingest import FeatureSchema, has_history, spatial_block, whole_as_int, write_csv
from .losses import mse
from .models import ConvDecoderArch, Model, predict
from .stats import as_1d_pair, percentile_linear, uniform_bin_index


@dataclass(frozen=True)
class BinnedErrorReport:
    edges: np.ndarray
    mae: np.ndarray
    bias: np.ndarray
    count: np.ndarray


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
    mae = np.divide(abs_err, count, out=np.zeros(n_bins), where=count > 0)
    bias = np.divide(signed, count, out=np.zeros(n_bins), where=count > 0)
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
    columns = (thresholds, base_mae, cand_mae, reduction, count)
    return TailReductionReport(tuple(percentiles), *map(np.array, columns))


def histogram_compare(y_true, y_pred, n_bins: int = 50):
    """Counts of true and predicted values over shared uniform bins.

    Returns (edges, true_counts, pred_counts), the counts as int64.
    """
    t, p = as_1d_pair(y_true, y_pred)
    lo = float(min(t.min(), p.min()))
    hi = float(max(t.max(), p.max()))
    if not hi > lo:
        hi = lo + 1e-9
    edges = np.linspace(lo, hi, n_bins + 1)
    t_counts = np.bincount(uniform_bin_index(t, lo, hi, n_bins), minlength=n_bins)
    p_counts = np.bincount(uniform_bin_index(p, lo, hi, n_bins), minlength=n_bins)
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


def score(y_true, y_pred, regions=None, pred_regions=None, base_pred=None):
    """Every report of predictions ``y_pred`` of ``y_true`` that ``eval``
    writes; writes nothing. True ``regions`` add the region MSE, with
    ``pred_regions`` the classification, and a baseline's ``base_pred`` of
    the same rows the tail reduction. Returns ``(tables, summary)``: each
    table's file name mapped to its writer, to be called with the path, and
    the scored ``name: value`` lines of ``summary.txt``."""
    tables = {
        "binned_errors.csv": partial(write_binned_errors_csv, binned_errors(y_true, y_pred, n_bins=20)),
        "histograms.csv": partial(write_histogram_csv, *histogram_compare(y_true, y_pred, n_bins=50)),
    }
    summary = [f"n_validation: {np.size(y_true)}", f"val_mse_log10: {mse(y_true, y_pred)!r}"]
    if regions is not None:
        tables["region_mse.csv"] = partial(write_region_mse_csv, region_mse_table(y_true, y_pred, regions))
        if pred_regions is not None:
            report = classification_report(regions, pred_regions)
            tables["classification.csv"] = partial(write_classification_csv, report)
            summary.append(f"region_accuracy: {report.accuracy!r}")
    if base_pred is not None:
        report = tail_reduction(y_true, base_pred, y_pred)
        tables["tail_reduction.csv"] = partial(write_tail_reduction_csv, report)
        pct = ",".join(repr(float(100.0 * r)) for r in report.reduction)
        summary.append(f"tail_reduction_pct_90_95_99: {pct}")
    return tables, summary


# ── Map rendering ─────────────────────────────────────────────────────

def _schema_from_meta(meta: dict) -> FeatureSchema:
    try:
        return FeatureSchema.from_meta(meta["schema"])
    except (KeyError, ValueError) as exc:
        raise DataError(f"checkpoint metadata holds no valid feature schema ({exc!r})") from None


def predict_grid(model: Model, drivers: DriverSeries, t: float, spec: GridSpec) -> np.ndarray:
    """Evaluate a trained model over the whole grid at one time step.

    A point model gets one feature row per cell center, the cell's spatial
    block followed by the driver history at ``t``; the conv decoder gets
    the history row alone and predicts the grid. Both go through
    ``models.predict``. A ``t`` that ``has_history`` rejects is a DataError.
    """
    from .ingest import history_feature_rows

    if not drivers.t0 <= t <= drivers.t_end:
        raise DataError(f"timestamp {t:g} outside driver range")
    schema = _schema_from_meta(model.meta)
    if not has_history(drivers, np.array([t]), schema)[0]:
        raise DataError(f"timestamp {t:g} lacks full driver history")
    hist = history_feature_rows(drivers, np.array([t]), schema)

    if isinstance(model.arch, ConvDecoderArch):
        return predict(model, hist)[0][0]

    lat_centers = spec.lat_min + (np.arange(spec.n_lat) + 0.5) * spec.dlat
    mlt_centers = (np.arange(spec.n_mlt) + 0.5) * spec.dmlt
    mlat_grid, mlt_grid = np.meshgrid(lat_centers, mlt_centers, indexing="ij")
    spatial = spatial_block(mlat_grid.ravel(), mlt_grid.ravel())
    rows = np.empty((spatial.shape[0], spatial.shape[1] + hist.shape[1]))
    rows[:, : spatial.shape[1]] = spatial
    rows[:, spatial.shape[1] :] = hist[0]
    return predict(model, rows)[0].reshape(spec.n_lat, spec.n_mlt)


def write_grid_csv(grid: np.ndarray, path):
    """The grid's rows as CSV lines, with no header line."""
    write_csv(path, None, np.asarray(grid).T)


def write_pgm(grid: np.ndarray, path):
    """8-bit binary graymap; the grid's range maps linearly onto [0, 255].

    A constant grid renders as 0. Row 0 of the image is the lowest
    latitude row of the grid.
    """
    g = np.asarray(grid, dtype=np.float64)
    lo, hi = float(g.min()), float(g.max())
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

def write_binned_errors_csv(report: BinnedErrorReport, path):
    # Python's scalar power: np.power can differ in the last bit
    factor = [10.0 ** mae for mae in report.mae.tolist()]
    header = ("bin_lo", "bin_hi", "count", "mae_log10", "bias_log10", "mae_linear_factor")
    columns = [report.edges[:-1], report.edges[1:], report.count, report.mae, report.bias, factor]
    write_csv(path, header, columns)


def write_tail_reduction_csv(report: TailReductionReport, path):
    header = ("percentile", "threshold_log10", "n", "baseline_mae_log10", "candidate_mae_log10",
              "reduction_pct")
    columns = [report.thresholds, report.count, report.base_mae, report.cand_mae, 100.0 * report.reduction]
    write_csv(path, header, [whole_as_int(report.percentiles)] + columns)


def write_histogram_csv(edges, true_counts, pred_counts, path):
    fracs = [counts / (counts.sum() or 1) for counts in (true_counts, pred_counts)]
    header = ("bin_lo", "bin_hi", "true_count", "pred_count", "true_frac", "pred_frac")
    write_csv(path, header, [edges[:-1], edges[1:], true_counts, pred_counts, *fracs])


def write_region_mse_csv(table: dict[str, tuple[float | None, int]], path):
    mse = ["" if mse is None else mse for mse, _ in table.values()]
    write_csv(path, ("region", "count", "mse_log10"), [list(table), [n for _, n in table.values()], mse])


def write_classification_csv(report: ClassificationReport, path):
    codes = [r.code for r in Region]
    k = len(codes)
    columns = [
        ["accuracy"] + ["confusion"] * k * k + ["precision"] * k + ["recall"] * k,
        [""] + [code for code in codes for _ in codes] + codes + codes,
        [""] + codes * k + [""] * 2 * k,
        [report.accuracy] + report.confusion.ravel().tolist()
        + report.precision.tolist() + report.recall.tolist(),
    ]
    write_csv(path, ("metric", "arg1", "arg2", "value"), columns)
