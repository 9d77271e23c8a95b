"""Metric reports, percentile consistency, and map rendering."""

import numpy as np
import pytest

from auroracast import models as M
from auroracast.errors import DataError
from auroracast.evaluate import (
    binned_errors,
    classification_report,
    histogram_compare,
    predict_grid,
    region_mse_table,
    render_map,
    tail_reduction,
    write_grid_csv,
    write_pgm,
)
from auroracast.geomodel import GridSpec, WorldParams, gen_drivers
from auroracast.ingest import FeatureSchema
from auroracast.stats import percentile_linear


class TestBinnedErrors:
    def test_perfect_predictions(self):
        rng = np.random.default_rng(0)
        y = rng.normal(10, 1, 200)
        report = binned_errors(y, y, n_bins=10)
        assert np.all(report.mae == 0.0)
        assert report.count.sum() == 200

    def test_constant_offset(self):
        rng = np.random.default_rng(1)
        y = rng.normal(10, 1, 300)
        report = binned_errors(y, y + 0.5, n_bins=8)
        nz = report.count > 0
        assert np.allclose(report.mae[nz], 0.5)
        assert np.allclose(report.bias[nz], -0.5)  # true - pred convention

    def test_loop_oracle(self):
        rng = np.random.default_rng(2)
        y = rng.normal(9, 2, 100)
        p = rng.normal(9, 2, 100)
        n_bins = 7
        report = binned_errors(y, p, n_bins=n_bins)
        lo, hi = y.min(), y.max()
        for b in range(n_bins):
            sel = []
            for i in range(100):
                idx = int(np.floor((y[i] - lo) / (hi - lo) * n_bins))
                idx = min(max(idx, 0), n_bins - 1)
                if idx == b:
                    sel.append(i)
            assert report.count[b] == len(sel)
            if sel:
                assert report.mae[b] == pytest.approx(
                    np.mean([abs(y[i] - p[i]) for i in sel]), rel=1e-12
                )

    def test_permutation_invariant_counts(self):
        rng = np.random.default_rng(3)
        y = rng.normal(9, 2, 128)
        p = rng.normal(9, 2, 128)
        perm = rng.permutation(128)
        a = binned_errors(y, p, 9)
        b = binned_errors(y[perm], p[perm], 9)
        assert np.array_equal(a.count, b.count)
        assert np.allclose(a.mae, b.mae)


class TestTailReduction:
    def test_identical_predictions(self):
        rng = np.random.default_rng(4)
        y = rng.normal(10, 1, 500)
        p = rng.normal(10, 1, 500)
        report = tail_reduction(y, p, p)
        assert np.allclose(report.reduction, 0.0)

    def test_perfect_candidate(self):
        rng = np.random.default_rng(5)
        y = rng.normal(10, 1, 500)
        base = y + rng.normal(0, 0.5, 500)
        report = tail_reduction(y, base, y)
        assert np.allclose(report.reduction, 1.0)

    def test_loop_oracle(self):
        rng = np.random.default_rng(6)
        y = rng.normal(10, 1, 400)
        base = y + rng.normal(0, 0.4, 400)
        cand = y + rng.normal(0, 0.3, 400)
        report = tail_reduction(y, base, cand, percentiles=(80.0, 95.0))
        for j, p in enumerate((80.0, 95.0)):
            thr = percentile_linear(y, p)
            sel = y > thr
            b = np.mean(np.abs(y[sel] - base[sel]))
            c = np.mean(np.abs(y[sel] - cand[sel]))
            assert report.base_mae[j] == pytest.approx(b, rel=1e-12)
            assert report.reduction[j] == pytest.approx((b - c) / b, rel=1e-12)

    def test_swap_antisymmetry_of_sign(self):
        rng = np.random.default_rng(7)
        y = rng.normal(10, 1, 300)
        base = y + rng.normal(0, 0.5, 300)
        cand = y + rng.normal(0, 0.2, 300)
        fwd = tail_reduction(y, base, cand)
        rev = tail_reduction(y, cand, base)
        assert np.all(np.sign(fwd.reduction) == -np.sign(rev.reduction))

    def test_threshold_matches_cleaning_percentile(self):
        rng = np.random.default_rng(8)
        y = rng.normal(10, 1, 777)
        report = tail_reduction(y, y, y, percentiles=(90.0,))
        assert report.thresholds[0] == percentile_linear(y, 90.0)

    def test_empty_subset(self):
        y = np.full(10, 5.0)
        with pytest.raises(DataError):
            tail_reduction(y, y, y, percentiles=(99.0,))


class TestHistogramCompare:
    def test_identical(self):
        rng = np.random.default_rng(9)
        y = rng.normal(10, 1, 256)
        edges, tc, pc = histogram_compare(y, y, n_bins=12)
        assert np.array_equal(tc, pc)
        assert tc.sum() == 256

    def test_normalized(self):
        rng = np.random.default_rng(10)
        y = rng.normal(10, 1, 100)
        p = rng.normal(11, 1, 100)
        _, tc, pc = histogram_compare(y, p, n_bins=10, normalized=True)
        assert tc.sum() == pytest.approx(1.0)
        assert pc.sum() == pytest.approx(1.0)

    def test_loop_oracle(self):
        rng = np.random.default_rng(11)
        y = rng.normal(10, 1, 90)
        p = rng.normal(10, 1.2, 90)
        n_bins = 6
        edges, tc, pc = histogram_compare(y, p, n_bins=n_bins)
        lo, hi = edges[0], edges[-1]
        counts = np.zeros(n_bins)
        for v in y:
            idx = int(np.floor((v - lo) / (hi - lo) * n_bins))
            counts[min(max(idx, 0), n_bins - 1)] += 1
        assert np.array_equal(tc, counts)


class TestClassification:
    def test_perfect(self):
        t = np.array([0, 1, 2, 1, 0])
        report = classification_report(t, t)
        assert report.accuracy == 1.0
        assert np.array_equal(np.diag(report.confusion), [2, 2, 1])
        assert np.all(report.precision == 1.0)

    def test_single_class_prediction(self):
        t = np.array([0, 0, 1, 2, 0])
        p = np.zeros(5, dtype=int)
        report = classification_report(t, p)
        assert report.accuracy == pytest.approx(3 / 5)
        assert report.recall[0] == 1.0
        assert report.precision[0] == pytest.approx(3 / 5)
        assert report.precision[1] == 0.0

    def test_loop_oracle(self):
        rng = np.random.default_rng(12)
        t = rng.integers(0, 3, 200)
        p = rng.integers(0, 3, 200)
        report = classification_report(t, p)
        acc = sum(int(a == b) for a, b in zip(t, p)) / 200
        assert report.accuracy == pytest.approx(acc, rel=1e-12)
        for i in range(3):
            for j in range(3):
                assert report.confusion[i, j] == sum(
                    1 for a, b in zip(t, p) if a == i and b == j
                )


class TestRegionMse:
    def test_identical(self):
        y = np.array([8.0, 9.0, 10.0])
        table = region_mse_table(y, y, np.array([0, 1, 2]))
        assert all(v == 0.0 for v, n in table.values())

    def test_error_only_in_polar(self):
        y = np.array([8.0, 9.0, 10.0, 10.0])
        p = np.array([8.0, 9.0, 11.0, 9.0])
        table = region_mse_table(y, p, np.array([0, 1, 2, 2]))
        assert table["SUB"][0] == 0.0
        assert table["AUR"][0] == 0.0
        assert table["POL"][0] == pytest.approx(1.0)

    def test_absent_region_reported_empty(self):
        y = np.array([8.0, 9.0])
        table = region_mse_table(y, y, np.array([0, 0]))
        assert table["POL"] == (None, 0)

    def test_loop_oracle(self):
        rng = np.random.default_rng(13)
        y = rng.normal(9, 1, 60)
        p = rng.normal(9, 1, 60)
        r = rng.integers(0, 3, 60)
        table = region_mse_table(y, p, r)
        for code, value in zip(("SUB", "AUR", "POL"), range(3)):
            sel = r == value
            if sel.any():
                assert table[code][0] == pytest.approx(
                    np.mean((y[sel] - p[sel]) ** 2), rel=1e-12
                )


class TestMaps:
    def _point_model(self, constant=None):
        schema = FeatureSchema()
        arch = M.BaselineArch(input_width=schema.width, hidden=(8,))
        model = M.build_model(arch, seed=0)
        if constant is not None:
            for name, t in model.params.items():
                t.data[:] = 0.0
            model.params["out.b"].data[:] = constant
        model.meta = {
            "schema": {
                "variables": list(schema.variables),
                "lag_minutes": list(schema.lag_minutes),
                "avg_minutes": list(schema.avg_minutes),
            },
            "normalization": {
                "mean": [0.0] * schema.width,
                "std": [1.0] * schema.width,
            },
        }
        return model

    def test_constant_model_uniform_image(self, tmp_path):
        model = self._point_model(constant=9.0)
        drivers = gen_drivers(WorldParams(seed=1), 86400)
        spec = GridSpec(n_lat=16, n_mlt=16)
        grid = render_map(model, drivers, 43200.0, spec, tmp_path / "map")
        assert np.allclose(grid, 9.0)
        raw = (tmp_path / "map.pgm").read_bytes()
        header_end = raw.index(b"255\n") + 4
        assert set(raw[header_end:]) == {0}

    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(14)
        grid = rng.normal(9, 1, (8, 8))
        write_grid_csv(grid, tmp_path / "g.csv")
        back = np.loadtxt(tmp_path / "g.csv", delimiter=",")
        assert np.array_equal(back, grid)

    def test_pgm_mapping(self, tmp_path):
        grid = np.array([[0.0, 1.0], [0.5, 0.25]])
        write_pgm(grid, tmp_path / "g.pgm")
        raw = (tmp_path / "g.pgm").read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        assert list(raw[-4:]) == [0, 255, 128, 64]

    def test_point_and_conv_shapes_match(self, tmp_path):
        drivers = gen_drivers(WorldParams(seed=2), 86400)
        point = self._point_model(constant=8.0)
        spec = GridSpec(n_lat=32, n_mlt=32)
        g1 = predict_grid(point, drivers, 43200.0, spec)

        schema = FeatureSchema()
        arch = M.ConvDecoderArch(
            input_width=len(schema.global_names), trunk=(16, 8), n_lat=32, n_mlt=32
        )
        conv = M.build_model(arch, seed=3)
        conv.meta = point.meta.copy()
        conv.meta["normalization"] = {
            "mean": [0.0] * len(schema.global_names),
            "std": [1.0] * len(schema.global_names),
        }
        g2 = predict_grid(conv, drivers, 43200.0, spec)
        assert g1.shape == g2.shape == (32, 32)

    def test_conv_map_seam_consistency(self, tmp_path):
        drivers = gen_drivers(WorldParams(seed=4), 86400)
        schema = FeatureSchema()
        arch = M.ConvDecoderArch(
            input_width=len(schema.global_names), trunk=(16, 8), n_lat=32, n_mlt=32
        )
        conv = M.build_model(arch, seed=5)
        conv.meta = {
            "schema": {
                "variables": list(schema.variables),
                "lag_minutes": list(schema.lag_minutes),
                "avg_minutes": list(schema.avg_minutes),
            },
            "normalization": {
                "mean": [0.0] * len(schema.global_names),
                "std": [1.0] * len(schema.global_names),
            },
        }
        grid = predict_grid(conv, drivers, 43200.0, GridSpec(32, 32))
        seam = np.abs(grid[:, 0] - grid[:, -1]).max()
        interior = np.abs(np.diff(grid, axis=1)).max()
        assert seam <= interior

    def test_timestamp_out_of_range(self, tmp_path):
        model = self._point_model(constant=8.0)
        drivers = gen_drivers(WorldParams(seed=6), 86400)
        with pytest.raises(DataError):
            predict_grid(model, drivers, 1e9, GridSpec(16, 16))

    def test_deterministic_render(self, tmp_path):
        model = self._point_model()
        drivers = gen_drivers(WorldParams(seed=7), 86400)
        spec = GridSpec(16, 16)
        render_map(model, drivers, 43200.0, spec, tmp_path / "a")
        render_map(model, drivers, 43200.0, spec, tmp_path / "b")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()
