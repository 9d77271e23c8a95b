"""CSV parsing, cleaning, feature engineering, splits, and the cache format."""

import dataclasses
import itertools
import json
import re

import numpy as np
import pytest

from auroracast import cli
from auroracast.errors import ConfigError, DataError
from auroracast.geomodel import (
    DRIVER_NAMES,
    DriverSeries,
    MagCoord,
    Observation,
    Region,
    WorldParams,
    gen_drivers,
    sample_traces,
)
from auroracast.ingest import (
    FeatureSchema,
    Holdout,
    Normalization,
    build_features,
    clean_targets,
    history_feature_rows,
    log_transform,
    read_drivers_csv,
    read_observations_csv,
    read_table_cache,
    split_by_holdout,
    write_table_cache,
)
from auroracast.models import BaselineArch, build_model, load_checkpoint
from auroracast.stats import percentile_linear
from auroracast.train import TrainConfig, train_model

from _memory import peak_bytes
from _reference import (
    cache_bytes_bytearray,
    cache_bytes_container,
    checkpoint_bytes_aurn,
    feature_rows_hstack,
    fit_normalization_whole,
    history_rows_one_by_one,
    obs_table,
    read_observations_rows,
)


def _drivers_csv(path, times, value_fn=lambda name, t: 1.0):
    lines = ["t," + ",".join(DRIVER_NAMES)]
    for t in times:
        lines.append(f"{t}," + ",".join(repr(value_fn(name, t)) for name in DRIVER_NAMES))
    path.write_text("\n".join(lines) + "\n")
    return path


def _constant_series(n=200, cadence=300.0, value=2.0):
    cols = {name: np.full(n, value) for name in DRIVER_NAMES}
    return DriverSeries(t0=0.0, cadence=cadence, columns=cols)


def _obs(t, mlat=60.0, mlt=6.0, eflux=1e10, sat=0, region=None):
    return Observation(t=t, sat_id=sat, coord=MagCoord(mlat, mlt), eflux=eflux, region=region)


class TestReadDrivers:
    def test_row_count(self, tmp_path):
        path = _drivers_csv(tmp_path / "d.csv", [i * 300 for i in range(13)])
        d = read_drivers_csv(path)
        assert d.n == 13
        assert d.cadence == 300.0

    def test_gap_interpolated(self, tmp_path):
        times = [0, 300, 900, 1200]  # 600 missing
        path = _drivers_csv(tmp_path / "d.csv", times, lambda n, t: float(t))
        d = read_drivers_csv(path)
        assert d.n == 5
        assert d.columns["AE"][2] == pytest.approx((300.0 + 900.0) / 2)

    def test_duplicate_time_is_error(self, tmp_path):
        path = _drivers_csv(tmp_path / "d.csv", [0, 300, 300, 600])
        with pytest.raises(DataError, match="non-monotonic"):
            read_drivers_csv(path)

    def test_oversized_gap_is_error(self, tmp_path):
        path = _drivers_csv(tmp_path / "d.csv", [0, 300, 1500])
        with pytest.raises(DataError, match="gap"):
            read_drivers_csv(path)

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "d.csv"
        names = [n for n in DRIVER_NAMES if n != "SymH"]
        path.write_text("t," + ",".join(names) + "\n0," + ",".join("1" for _ in names) + "\n")
        with pytest.raises(DataError, match="SymH"):
            read_drivers_csv(path)


class TestReadObservations:
    def test_basic_row(self, tmp_path):
        path = tmp_path / "o.csv"
        path.write_text("t,sat_id,mlat,mlt,eflux\n0,16,65,22,1e11\n")
        obs, dropped = read_observations_csv(path)
        assert dropped == 0
        assert obs[0].sat_id == 16
        assert obs[0].coord == MagCoord(65.0, 22.0)
        assert obs[0].eflux == 1e11

    def test_nonpositive_dropped_and_counted(self, tmp_path):
        path = tmp_path / "o.csv"
        path.write_text("t,sat_id,mlat,mlt,eflux\n0,1,65,22,0\n60,1,66,22,1e9\n")
        obs, dropped = read_observations_csv(path)
        assert dropped == 1
        assert len(obs) == 1

    def test_mlat_domain_error(self, tmp_path):
        path = tmp_path / "o.csv"
        path.write_text("t,sat_id,mlat,mlt,eflux\n0,1,30,22,1e9\n")
        with pytest.raises(DataError, match="mlat"):
            read_observations_csv(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "o.csv"
        path.write_text("t,sat_id,mlat,mlt,eflux\n0,1,65,22,1e9\nx,1,65,22,1e9\n")
        with pytest.raises(DataError, match=":3"):
            read_observations_csv(path)

    def test_region_parsed(self, tmp_path):
        path = tmp_path / "o.csv"
        path.write_text("t,sat_id,mlat,mlt,eflux,region\n0,1,65,22,1e9,AUR\n")
        obs, _ = read_observations_csv(path)
        assert obs[0].region is Region.AURORAL


OBS_HEADER = "t,sat_id,mlat,mlt,eflux,region"
GOOD_ROW = "60,1,65,22,1e9,AUR"
# One row per fault kind, in the order the row-wise rules check them.
FAULT_ROWS = {
    "field_count": "60,1,65,22,1e9",
    "float": "60,1,65,x,1e9,AUR",
    "mlat_range": "60,1,30,22,1e9,AUR",
    "region_code": "60,1,65,22,1e9,XYZ",
}


def _reference_error(path) -> str:
    with pytest.raises(DataError) as info:
        read_observations_rows(path)
    return str(info.value)


def _same_columns(table, ref):
    assert len(table) == len(ref)
    for name in ("t", "sat_id", "mlat", "mlt", "eflux"):
        assert np.array_equal(getattr(table, name), getattr(ref, name)), name
    if ref.region is None:
        assert table.region is None
    else:
        assert np.array_equal(table.region, ref.region)


class TestReadObservationsOracle:
    def test_matches_row_reader(self, tmp_path):
        path = tmp_path / "o.csv"
        path.write_text(
            "\n".join(
                [
                    " t , sat_id,mlat,mlt,eflux,region",
                    "0,1,65,22,1e9,AUR",
                    "",
                    "60,2.0,45,24.5,3.25e10,pol",
                    "   ",
                    "120,1,90,0, 7e8 , sub ",
                    "180,1,70,-1.5,0,XYZ",
                    "240,3,55.5,12,-4,",
                    "300,1,60,6,1e11,",
                    "360,16,66.25,23.999,2.5e12,Aur",
                    "",
                ]
            )
        )
        rows, dropped_ref = read_observations_rows(path)
        table, dropped = read_observations_csv(path)
        assert dropped == dropped_ref == 2
        _same_columns(table, obs_table(rows))
        assert table.region.tolist() == [1, 2, 0, -1, 1]

    def test_no_region_column(self, tmp_path):
        path = tmp_path / "o.csv"
        path.write_text("t,sat_id,mlat,mlt,eflux\r\n0,1,65,22,1e9\r\n60,1,66,22,2e9\r\n")
        rows, _ = read_observations_rows(path)
        table, _ = read_observations_csv(path)
        _same_columns(table, obs_table(rows))
        assert table.region is None

    @pytest.mark.parametrize("first,second", list(itertools.permutations(sorted(FAULT_ROWS), 2)))
    def test_earlier_fault_line_is_reported(self, tmp_path, first, second):
        path = tmp_path / "o.csv"
        lines = [OBS_HEADER, GOOD_ROW, FAULT_ROWS[first], GOOD_ROW, FAULT_ROWS[second], GOOD_ROW]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError) as info:
            read_observations_csv(path)
        assert str(info.value) == _reference_error(path)
        assert str(info.value).startswith(f"{path}:3: ")

    def test_fault_after_nonpositive_region_is_ignored(self, tmp_path):
        path = tmp_path / "o.csv"
        path.write_text(f"{OBS_HEADER}\n0,1,65,22,0,XYZ\n60,1,65,22,1e9,BAD\n")
        with pytest.raises(DataError, match=":3: unknown region code: 'BAD'"):
            read_observations_csv(path)
        assert _reference_error(path).endswith(":3: unknown region code: 'BAD'")

    def test_sat_id_parse_error_message(self, tmp_path):
        path = tmp_path / "o.csv"
        path.write_text(f"{OBS_HEADER}\n{GOOD_ROW}\n60,nan,65,22,1e9,AUR\n")
        with pytest.raises(DataError) as info:
            read_observations_csv(path)
        assert str(info.value) == _reference_error(path)

    def test_quoted_field_names_line(self, tmp_path):
        path = tmp_path / "o.csv"
        path.write_text(f'{OBS_HEADER}\n{GOOD_ROW}\n"60",1,65,22,1e9,AUR\n')
        with pytest.raises(DataError, match=":3: quoted fields are not supported"):
            read_observations_csv(path)

    def test_nan_eflux_names_line(self, tmp_path):
        path = tmp_path / "o.csv"
        path.write_text(f"{OBS_HEADER}\n{GOOD_ROW}\n60,1,65,22,nan,AUR\n")
        with pytest.raises(DataError, match=":3: eflux must be positive, got nan"):
            read_observations_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "o.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty file"):
            read_observations_csv(path)


class TestCleaning:
    def test_fixed_threshold(self):
        obs = [_obs(0, eflux=8e13), _obs(60, eflux=1e10)]
        kept, report = clean_targets(obs_table(obs), fixed_threshold=7.37e13)
        assert len(kept) == 1
        assert report.n_dropped_outlier == 1
        assert report.threshold == 7.37e13

    def test_all_equal_nothing_dropped(self):
        obs = [_obs(t, eflux=5e9) for t in range(10)]
        kept, report = clean_targets(obs_table(obs), percentile=99.995)
        assert len(kept) == 10
        assert report.n_dropped_outlier == 0

    def test_uniform_drop_count_matches_order_statistic(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(1.0, 2.0, size=100_000)
        obs = [_obs(i, eflux=v) for i, v in enumerate(values)]
        kept, report = clean_targets(obs_table(obs), percentile=99.995)
        thr = percentile_linear(values, 99.995)
        assert report.n_dropped_outlier == int((values > thr).sum())
        assert 1 <= report.n_dropped_outlier <= 6

    def test_drop_bound(self):
        rng = np.random.default_rng(3)
        for n in (10, 1000, 4321):
            values = rng.exponential(1.0, size=n) + 0.1
            obs = [_obs(i, eflux=v) for i, v in enumerate(values)]
            p = 99.0
            _, report = clean_targets(obs_table(obs), percentile=p)
            assert report.n_dropped_outlier <= int(np.ceil((1 - p / 100) * n)) + 1

    def test_empty_error(self):
        with pytest.raises(DataError):
            clean_targets(obs_table([]))


class TestLogTransform:
    def test_values(self):
        assert log_transform(1e12) == 12.0
        assert log_transform(1.0) == 0.0
        assert log_transform(7.37e13) == pytest.approx(np.log10(7.37e13), rel=0)

    def test_nonpositive(self):
        with pytest.raises(ValueError):
            log_transform(0.0)


class TestBuildFeatures:
    def test_constant_driver_features_all_equal(self):
        d = _constant_series(value=3.25)
        obs = [_obs(30000.0)]
        table = build_features(d, obs_table(obs))
        schema = table.schema
        row = table.rows[0]
        names = schema.names
        for i, name in enumerate(names):
            if name.startswith("AE_"):
                assert row[i] == 3.25

    def test_spatial_quarter_period(self):
        d = _constant_series()
        table = build_features(d, obs_table([_obs(30000.0, mlt=6.0)]))
        row = table.rows[0]
        assert row[0] == pytest.approx(1.0, abs=1e-12)   # sin
        assert row[1] == pytest.approx(0.0, abs=1e-12)   # cos
        table2 = build_features(d, obs_table([_obs(30000.0, mlat=67.5)]))
        assert table2.rows[0][2] == pytest.approx(0.5, rel=1e-12)

    def test_linear_ramp_trailing_mean(self):
        n = 200
        cols = {name: np.arange(n) * 300.0 for name in DRIVER_NAMES}
        d = DriverSeries(t0=0.0, cadence=300.0, columns=cols)
        t = 30000.0
        table = build_features(d, obs_table([_obs(t)]))
        idx = list(table.schema.names).index("AE_avg30m")
        assert table.rows[0][idx] == pytest.approx(t - 750.0, rel=1e-12)

    def test_insufficient_history_dropped(self):
        d = _constant_series(n=101)
        obs = [_obs(10.0), _obs(30000.0)]
        table = build_features(d, obs_table(obs))
        assert table.n == 1
        assert table.n_dropped_history == 1

    def test_order_independence(self):
        d = _constant_series(n=120)
        rng = np.random.default_rng(0)
        obs = [
            _obs(22000.0 + 60 * i, mlat=50 + i, mlt=float(i), eflux=10 ** (8 + 0.01 * i))
            for i in range(10)
        ]
        table = build_features(d, obs_table(obs))
        perm = rng.permutation(10)
        table_p = build_features(d, obs_table([obs[i] for i in perm]))
        assert np.array_equal(table_p.rows, table.rows[perm])
        assert np.array_equal(table_p.target, table.target[perm])

    def test_normalized_stats(self):
        p = WorldParams(seed=4)
        d = gen_drivers(p, 86400)
        obs = sample_traces(p, d, 120.0)
        table = build_features(d, obs)
        norm = Normalization.fit(table.rows)
        mean, std = norm.mean, norm.std
        z = (table.rows - mean) / std
        live = table.rows.std(axis=0) > 1e-12
        assert np.all(np.abs(z.mean(axis=0)[live]) < 1e-9)
        assert np.all(np.abs(z.std(axis=0)[live] - 1.0) < 1e-9)

    def test_trailing_means_match_bruteforce(self):
        p = WorldParams(seed=8)
        d = gen_drivers(p, 86400)
        rng = np.random.default_rng(1)
        times = rng.uniform(22000.0, 86000.0, size=40)
        schema = FeatureSchema()
        rows, ok = history_feature_rows(d, times, schema)
        assert ok.all()
        names = [f"{v}_{k}" for v in schema.variables
                 for k in [f"lag{m:g}m" for m in schema.lag_minutes]
                 + [f"avg{m:g}m" for m in schema.avg_minutes]]
        dt = d.times
        for r, t in enumerate(times):
            for var in ("AE", "Bz", "NewellCF"):
                col = d.columns[var]
                for m in schema.avg_minutes:
                    tau = 60.0 * m
                    sel = (dt > t - tau) & (dt <= t)
                    expect = col[sel].mean()
                    got = rows[r][names.index(f"{var}_avg{m:g}m")]
                    assert got == pytest.approx(expect, rel=1e-11)
                for m in schema.lag_minutes:
                    i = int(np.rint((t - 60.0 * m) / d.cadence))
                    got = rows[r][names.index(f"{var}_lag{m:g}m")]
                    assert got == col[i]

    def test_duplicated_unsorted_times_match_one_by_one(self):
        p = WorldParams(seed=8)
        d = gen_drivers(p, 86400)
        rng = np.random.default_rng(2)
        times = rng.uniform(0.0, 90000.0, size=60)
        times = np.concatenate([times, times[::3], d.times[100:110], [21600.0, 21600.0]])
        rng.shuffle(times)
        schema = FeatureSchema()
        rows, ok = history_feature_rows(d, times, schema)
        ref_rows, ref_ok = history_rows_one_by_one(d, times, schema)
        assert not ok.all() and ok.any()
        assert np.array_equal(ok, ref_ok)
        assert np.array_equal(rows, ref_rows)

    def test_mlt_seam_feature_continuity(self):
        d = _constant_series()
        eps = 1e-6
        t1 = build_features(d, obs_table([_obs(30000.0, mlt=24.0 - eps)]))
        t2 = build_features(d, obs_table([_obs(30000.0, mlt=eps)]))
        assert np.all(np.abs(t1.rows[0][:3] - t2.rows[0][:3]) < 1e-5)


class TestSplitAndFilter:
    def _table(self):
        p = WorldParams(seed=6, n_sats=2)
        d = gen_drivers(p, 86400 * 2)
        obs = sample_traces(p, d, 120.0)
        return build_features(d, obs)

    def test_partition(self):
        table = self._table()
        train, val = split_by_holdout(table, Holdout(1, 86400.0, 2 * 86400.0 + 1))
        assert train.n + val.n == table.n
        assert np.all(val.sat_id == 1)
        assert np.all((val.t >= 86400.0) & (val.t < 2 * 86400.0 + 1))
        # no overlap: every (t, sat) pair is on exactly one side
        train_keys = set(zip(train.t.tolist(), train.sat_id.tolist()))
        val_keys = set(zip(val.t.tolist(), val.sat_id.tolist()))
        assert not (train_keys & val_keys)

    def test_empty_holdout_is_error(self):
        table = self._table()
        with pytest.raises(DataError):
            split_by_holdout(table, Holdout(7, 0.0, 86400.0))

    def test_norm_refit_on_train(self):
        """Training fits the z-scoring on the training rows alone and
        stores it in the model's metadata."""
        table = self._table()
        train, val = split_by_holdout(table, Holdout(0, 86400.0, 2 * 86400.0 + 1))
        model = build_model(BaselineArch(table.schema.width, hidden=(4,)), seed=0)
        model, _ = train_model(model, (train, val), TrainConfig(max_epochs=1))
        norm = Normalization.fit(train.rows)
        mean, std = norm.mean, norm.std
        assert model.meta["normalization"] == {"mean": mean.tolist(), "std": std.tolist()}
        z = (train.rows - mean) / std
        live = train.rows.std(axis=0) > 1e-12
        assert np.all(np.abs(z.mean(axis=0)[live]) < 1e-9)


class TestHoldout:
    T = np.array([0.0, 100.0, 300.0, 400.0])

    def test_defaults_are_satellite_0_and_the_last_quarter(self):
        assert Holdout.from_config({}, self.T) == Holdout(0, 300.0, 401.0)
        assert Holdout.from_config({}, self.T, by_satellite=False) == Holdout(None, 300.0, 401.0)

    def test_config_keys_override(self):
        cfg = {"holdout.sat_id": 2, "holdout.t_start": 50.0, "holdout.t_end": 150.0}
        assert Holdout.from_config(cfg, self.T) == Holdout(2, 50.0, 150.0)
        del cfg["holdout.sat_id"]
        assert Holdout.from_config(cfg, self.T, by_satellite=False) == Holdout(None, 50.0, 150.0)

    def test_sat_id_without_satellites_is_config_error(self):
        cfg = {"holdout.sat_id": 2}
        with pytest.raises(ConfigError, match="holdout.sat_id"):
            Holdout.from_config(cfg, self.T, by_satellite=False)

    @pytest.mark.parametrize("key", ["holdout.t_start", "holdout.t_end"])
    def test_half_a_time_range_is_config_error(self, key):
        with pytest.raises(ConfigError, match="must be given together"):
            Holdout.from_config({key: 100.0}, self.T)

    def test_mask_is_half_open_and_per_satellite(self):
        sat = np.array([0, 1, 0, 0])
        assert Holdout(0, 100.0, 400.0).mask(self.T, sat).tolist() == [False, False, True, False]
        assert Holdout(None, 100.0, 400.0).mask(self.T).tolist() == [False, True, True, False]
        with pytest.raises(DataError, match="selects no rows"):
            Holdout(1, 200.0, 500.0).mask(self.T, sat)

    @pytest.mark.parametrize("holdout", [Holdout(3, 1.5, 9.0), Holdout(None, -2.0, 7.25)])
    def test_meta_round_trip(self, holdout):
        meta = json.loads(json.dumps(holdout.to_meta()))
        assert meta == {"sat_id": holdout.sat_id, "t_start": holdout.t_start, "t_end": holdout.t_end}
        assert Holdout.from_meta(meta) == holdout


class TestCache:
    def _table(self):
        p = WorldParams(seed=12)
        d = gen_drivers(p, 86400)
        obs = sample_traces(p, d, 300.0)
        return build_features(d, obs)

    def test_roundtrip(self, tmp_path):
        table = self._table()
        path = tmp_path / "t.aft"
        write_table_cache(table, path)
        back = read_table_cache(path)
        assert back.schema == table.schema
        assert np.array_equal(back.rows, table.rows.astype(np.float32).astype(np.float64))
        assert np.array_equal(back.target, table.target)
        assert np.array_equal(back.t, table.t)
        assert np.array_equal(back.sat_id, table.sat_id)
        assert np.array_equal(back.region, table.region)
        assert np.array_equal(back.mlat, table.mlat) and np.array_equal(back.mlt, table.mlt)

    def test_rewrite_identical_bytes(self, tmp_path):
        table = self._table()
        p1, p2 = tmp_path / "a.aft", tmp_path / "b.aft"
        write_table_cache(table, p1)
        write_table_cache(table, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.aft"
        write_table_cache(self._table(), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="magic"):
            read_table_cache(path)

    @pytest.mark.parametrize("bad_id", [-1, 70000])
    def test_sat_id_outside_u16_is_error(self, tmp_path, bad_id):
        table = self._table()
        table.sat_id[3] = bad_id
        with pytest.raises(DataError, match=f"sat_id {bad_id} outside 0..65535"):
            write_table_cache(table, tmp_path / "t.aft")
        assert not (tmp_path / "t.aft").exists()

    def test_truncation(self, tmp_path):
        path = tmp_path / "t.aft"
        write_table_cache(self._table(), path)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(DataError):
            read_table_cache(path)

    def test_flipped_row_byte_fails_checksum(self, tmp_path):
        table = self._table()
        path = tmp_path / "t.aft"
        write_table_cache(table, path)
        raw = bytearray(path.read_bytes())
        rows_start = raw.find(table.rows[:1].astype("<f4").tobytes())
        raw[rows_start + table.n * table.schema.width * 2] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="checksum"):
            read_table_cache(path)

    def test_legacy_aft1_file_asks_for_rebuild(self, tmp_path, capsys):
        """Caches and checkpoints in the formats before the container fail
        the magic check, read directly or through the CLI, and the message
        names the command that rebuilds the file."""
        table = self._table()
        path = tmp_path / "old.aft"
        path.write_bytes(cache_bytes_bytearray(table, legacy=True))
        aft2 = tmp_path / "aft2.aft"
        aft2.write_bytes(cache_bytes_bytearray(table))
        aurn = tmp_path / "old.aur"
        aurn.write_bytes(checkpoint_bytes_aurn(build_model(BaselineArch(table.schema.width), seed=1)))
        cases = [
            (path, read_table_cache, b"AFT1", "auroracast features"),
            (aft2, read_table_cache, b"AFT2", "auroracast features"),
            (aurn, load_checkpoint, b"AURN", "auroracast train"),
        ]
        for old, reader, magic, command in cases:
            expected = f"bad magic {magic!r}.*re-run `{command}`"
            with pytest.raises(DataError, match=expected):
                reader(old)
            if reader is read_table_cache:
                argv = ["train", "--features", str(old), "--out-dir", str(tmp_path / "out")]
            else:
                argv = ["eval", "--checkpoint", str(old), "--features", str(aft2),
                        "--out-dir", str(tmp_path / "out")]
            assert cli.main(argv) == 3
            assert re.search(expected, capsys.readouterr().err)
            assert not (tmp_path / "out").exists()

    def test_read_rows_are_a_float32_view(self, tmp_path):
        table = self._table()
        path = tmp_path / "t.aft"
        write_table_cache(table, path)
        back = read_table_cache(path)
        assert back.rows.dtype == np.float32 and not back.rows.flags.writeable
        assert np.array_equal(back.rows, table.rows.astype(np.float32))


def _world(seed, n_sats=3):
    """Drivers and observations of a 1-day world."""
    p = WorldParams(seed=seed, n_sats=n_sats)
    d = gen_drivers(p, 86400)
    return d, sample_traces(p, d)


class TestChunkedPathsMatchReference:
    """The row-chunked build, the streamed writer and the column-blocked
    std against the whole-array versions they replaced, bit for bit."""

    @pytest.mark.parametrize("n_sats,shuffle", [(1, False), (3, False), (3, True)])
    def test_built_rows_equal_hstack(self, n_sats, shuffle):
        d, obs = _world(21, n_sats)
        if shuffle:
            obs = obs[np.random.default_rng(0).permutation(len(obs))]
        table = build_features(d, obs)
        assert table.rows.dtype == np.float64
        assert np.array_equal(table.rows, feature_rows_hstack(d, obs, table.schema))

    def test_cache_bytes_equal_bytearray_writer(self, tmp_path):
        d, obs = _world(22)
        table = build_features(d, obs)
        no_region = dataclasses.replace(table, region=None)
        rows = table.rows.copy()
        rows[:, 5] = 2.5
        flat = dataclasses.replace(table, rows=rows)
        for i, case in enumerate((table, no_region, flat)):
            path = tmp_path / f"{i}.aft"
            write_table_cache(case, path)
            assert path.read_bytes() == cache_bytes_container(case)
            back = read_table_cache(path)
            rewritten = tmp_path / f"{i}b.aft"
            write_table_cache(back, rewritten)
            assert rewritten.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("width", [1, 2, 16, 17, 33, 143])
    def test_fit_normalization_equals_whole_matrix(self, width):
        rng = np.random.default_rng(width)
        rows = rng.normal(1e3, 1.0, (4000, width)) * rng.uniform(0.1, 1e4, width)
        rows[:, 0] = 7.0
        for x in (rows, rows.astype(np.float32)):
            norm = Normalization.fit(x)
            mean, std = norm.mean, norm.std
            ref_mean, ref_std = fit_normalization_whole(x)
            assert mean.dtype == std.dtype == np.float64
            assert np.array_equal(mean, ref_mean) and np.array_equal(std, ref_std)


class TestMemory:
    """Peak heap use of each step of the point-model data path, on a
    1-day, 3-satellite world."""

    @pytest.fixture(scope="class")
    def world(self):
        return _world(23)

    def test_build_holds_one_matrix(self, world):
        peak, table = peak_bytes(build_features, *world)
        assert peak < 2 * table.rows.nbytes, f"peak {peak / table.rows.nbytes:.2f}x the rows"

    def test_write_streams_the_rows(self, world, tmp_path):
        table = build_features(*world)
        block = table.n * table.schema.width * 4
        peak, _ = peak_bytes(write_table_cache, table, tmp_path / "t.aft")
        assert peak < block / 2, f"peak {peak / block:.2f}x the row block"

    def test_read_holds_the_file_once(self, world, tmp_path):
        path = tmp_path / "t.aft"
        write_table_cache(build_features(*world), path)
        size = path.stat().st_size
        peak, back = peak_bytes(read_table_cache, path)
        assert back.rows.dtype == np.float32
        assert peak < 1.2 * size, f"peak {peak / size:.2f}x the file"
