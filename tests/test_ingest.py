"""CSV parsing, cleaning, feature engineering, splits, and the cache format."""

import dataclasses
import itertools
import json
import re

import numpy as np
import pytest

from auroracast import cli
from auroracast import train as T
from auroracast.container import _CHUNK_BYTES
from auroracast.errors import ConfigError, DataError
from auroracast.geomodel import (
    DRIVER_NAMES,
    DriverSeries,
    ObsTable,
    Region,
    WorldParams,
    gen_drivers,
    sample_traces,
)
from auroracast.ingest import (
    FeatureSchema,
    FeatureTable,
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
    write_csv,
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
    read_drivers_rows,
    read_observations_rows,
    write_cleaning_rows,
    write_drivers_rows,
    write_history_rows,
    write_observations_rows,
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
    return (t, sat, mlat, mlt, eflux, region)


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


DRIVERS_HEADER = "t," + ",".join(DRIVER_NAMES)


def _driver_line(t, value=1.0):
    return f"{t}," + ",".join(repr(value + k) for k in range(len(DRIVER_NAMES)))


def _write_lines(path, lines, end="\n"):
    path.write_text(end.join(lines) + end, newline="")
    return path


def _drivers_lines(*times):
    return [DRIVERS_HEADER] + [_driver_line(t) for t in times]


class TestReadDriversOracle:
    """The columnar reader against the row-wise ``read_drivers_rows``."""

    VALID = {
        "one_row_gaps": [DRIVERS_HEADER]
        + [_driver_line(t, 0.5 * t) for t in (0, 300, 900, 1200, 1800, 2100)],
        "blank_lines": [
            DRIVERS_HEADER, _driver_line(0), "", _driver_line(300, 2.5), "   ", _driver_line(600, -1.25), "",
        ],
        "extra_columns": [DRIVERS_HEADER + ",note,AE2", _driver_line(0) + ",x,", _driver_line(300, 7.0) + ",y,z"],
        "padded_fields": [
            " t , " + " , ".join(DRIVER_NAMES),
            " 0 , " + " , ".join(f" {k}e-1 " for k in range(len(DRIVER_NAMES))),
            "300," + ",".join(f"{k}.5  " for k in range(len(DRIVER_NAMES))),
        ],
        "reordered_columns": ["t," + ",".join(reversed(DRIVER_NAMES))]
        + [_driver_line(t, 3.0 + t) for t in (0, 600, 900)],
    }

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("case", sorted(VALID))
    def test_same_columns(self, tmp_path, case, end):
        path = _write_lines(tmp_path / "d.csv", self.VALID[case], end)
        got, ref = read_drivers_csv(path), read_drivers_rows(path)
        assert (got.t0, got.cadence, got.n) == (ref.t0, ref.cadence, ref.n)
        assert list(got.columns) == list(ref.columns) == list(DRIVER_NAMES)
        for name in DRIVER_NAMES:
            assert np.array_equal(got.columns[name], ref.columns[name]), name
            assert got.columns[name].flags.c_contiguous

    FAULTS = {
        "gap_too_large": (_drivers_lines(0, 300, 600, 1500, 1800), "gap of 900s"),
        "gap_not_whole": (_drivers_lines(0, 300, 900, 1290), "gap of 390s"),
        "irregular_cadence": (_drivers_lines(0, 300, 700), "irregular cadence"),
        "non_monotonic": (_drivers_lines(0, 600, 300), "non-monotonic time"),
        "missing_column": (
            [DRIVERS_HEADER.replace(",PC", "")] + _drivers_lines(0, 300)[1:], "missing required column PC"
        ),
        "first_column_not_t": (
            ["AE,t" + DRIVERS_HEADER[4:]] + _drivers_lines(0, 300)[1:], "first column must be 't'"
        ),
        "field_count": (_drivers_lines(0) + [_driver_line(300) + ",1"], ":3: expected 14 fields"),
        "unparsable_t": (
            _drivers_lines(0) + ["x" + _driver_line(300)], ":3: could not convert string to float: 'x300'"
        ),
        "unparsable_driver": (
            _drivers_lines(0) + [_driver_line(300).replace(",3.0,", ",3..0,")],
            ":3: could not convert string to float: '3..0'",
        ),
        "one_row": (_drivers_lines(0), "need at least two rows"),
        "repeated_column": (
            [DRIVERS_HEADER + ",AE"] + [_driver_line(t) + ",999" for t in (0, 300)],
            "column AE appears twice in the header",
        ),
        "repeated_unread_column": (
            [DRIVERS_HEADER + ",note,note"] + [_driver_line(t) + ",x,y" for t in (0, 300)],
            "column note appears twice in the header",
        ),
        "inf_driver": (_drivers_lines(0) + [_driver_line(300, float("inf"))], ":3: AE must be finite, got inf"),
        "nan_t": (_drivers_lines(0, "nan", 600), ":3: t must be finite, got nan"),
        "neg_inf_last_column": (
            _drivers_lines(0) + [_driver_line(300).replace(",13.0", ",-inf")],
            ":3: NewellCF must be finite, got -inf",
        ),
        "nonfinite_before_bad_count": (
            _drivers_lines(0) + [_driver_line(300, float("nan")), "1,2"], ":3: AE must be finite, got nan"
        ),
    }

    @pytest.mark.parametrize("case", sorted(FAULTS))
    def test_same_error(self, tmp_path, case):
        lines, message = self.FAULTS[case]
        path = _write_lines(tmp_path / "d.csv", lines)
        with pytest.raises(DataError) as info:
            read_drivers_csv(path)
        with pytest.raises(DataError) as ref:
            read_drivers_rows(path)
        assert str(info.value) == str(ref.value)
        assert str(info.value).startswith(f"{path}")
        assert message in str(info.value)

    @pytest.mark.parametrize(
        "bad,message",
        [('"1.0"', "quoted fields are not supported"), ("1\0", "line contains NUL")],
        ids=["quoted", "nul"],
    )
    def test_quoted_or_nul_field_names_line(self, tmp_path, bad, message):
        line = _driver_line(300).replace(",3.0,", f",{bad},")
        path = _write_lines(tmp_path / "d.csv", _drivers_lines(0) + [line, _driver_line(600)])
        with pytest.raises(DataError, match=f":3: {message}"):
            read_drivers_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty file"):
            read_drivers_csv(path)


class TestReadObservations:
    def test_basic_row(self, tmp_path):
        path = tmp_path / "o.csv"
        path.write_text("t,sat_id,mlat,mlt,eflux\n0,16,65,22,1e11\n")
        obs, dropped = read_observations_csv(path)
        assert dropped == 0
        assert obs.sat_id.tolist() == [16]
        assert (obs.mlat.tolist(), obs.mlt.tolist()) == ([65.0], [22.0])
        assert obs.eflux.tolist() == [1e11]

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
        assert obs.region.tolist() == [Region.AURORAL.value]


OBS_HEADER = "t,sat_id,mlat,mlt,eflux,region"
GOOD_ROW = "60,1,65,22,1e9,AUR"
# One row per fault kind, in the order the row-wise rules check them.
FAULT_ROWS = {
    "field_count": "60,1,65,22,1e9",
    "float": "60,1,65,x,1e9,AUR",
    "sat_id": "60,1.7,65,22,1e9,AUR",
    "mlat_range": "60,1,30,22,1e9,AUR",
    "region_code": "60,1,65,22,1e9,XYZ",
    "not_finite": "60,1,65,inf,1e9,AUR",
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

    @pytest.mark.parametrize(
        "sat_id,message",
        [("1.7", "got 1.7"), ("-3", "got -3.0"), ("-0.5", "got -0.5"), ("1e-300", "got 1e-300")],
    )
    def test_sat_id_must_be_non_negative_integer(self, tmp_path, sat_id, message):
        path = tmp_path / "o.csv"
        path.write_text(f"{OBS_HEADER}\n{GOOD_ROW}\n60,{sat_id},65,22,0,AUR\n")
        with pytest.raises(DataError) as info:
            read_observations_csv(path)
        expect = f"{path}:3: sat_id must be a non-negative integer, {message}"
        assert str(info.value) == expect == _reference_error(path)

    def test_whole_sat_ids_are_read(self, tmp_path):
        path = tmp_path / "o.csv"
        path.write_text(f"{OBS_HEADER}\n60,-0,65,22,1e9,AUR\n60,2.0,65,22,1e9,AUR\n60,3e0,65,22,1e9,AUR\n")
        table, _ = read_observations_csv(path)
        rows, _ = read_observations_rows(path)
        _same_columns(table, obs_table(rows))
        assert table.sat_id.tolist() == [0, 2, 3]

    @pytest.mark.parametrize("header", [OBS_HEADER + ",mlat", "t,t,sat_id,mlat,mlt,eflux"])
    def test_repeated_header_column(self, tmp_path, header):
        name = header.split(",")[-1] if header.endswith("mlat") else "t"
        path = tmp_path / "o.csv"
        path.write_text(f"{header}\n{GOOD_ROW},66\n")
        with pytest.raises(DataError) as info:
            read_observations_csv(path)
        assert str(info.value) == f"{path}: column {name} appears twice in the header"
        assert _reference_error(path) == str(info.value)

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

    @pytest.mark.parametrize(
        "row,message",
        [
            ("nan,1,65,22,1e9,AUR", "t must be finite, got nan"),
            ("60,1,65,inf,1e9,AUR", "mlt must be finite, got inf"),
            ("60,1,65,22,inf,AUR", "eflux must be finite, got inf"),
            ("60,1,65,22,-inf,XYZ", "eflux must be finite, got -inf"),
        ],
        ids=["nan_t", "inf_mlt", "inf_eflux", "neg_inf_eflux"],
    )
    def test_nonfinite_names_line_and_column(self, tmp_path, row, message):
        path = tmp_path / "o.csv"
        path.write_text(f"{OBS_HEADER}\n{GOOD_ROW}\n{row}\n{GOOD_ROW}\n")
        with pytest.raises(DataError) as info:
            read_observations_csv(path)
        assert str(info.value) == f"{path}:3: {message}" == _reference_error(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "o.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty file"):
            read_observations_csv(path)


def _rows_past_one_chunk(n_columns: int) -> int:
    """More rows of ``n_columns`` columns than two ``row_chunks`` chunks
    hold even at 8 bytes a field, so ``write_csv`` crosses chunk boundaries."""
    return 2 * (_CHUNK_BYTES // (8 * n_columns)) + 3


def _edge_world():
    """Drivers at t0 = 0.5 and cadence 0.5 and observations, each with
    more rows than one ``write_csv`` chunk, holding -0.0, 5e-324, 1e16 and
    integral and fractional times."""
    rng = np.random.default_rng(40)
    n = _rows_past_one_chunk(1 + len(DRIVER_NAMES))
    columns = {name: rng.standard_normal(n) * 10.0 ** rng.integers(-5, 6, n) for name in DRIVER_NAMES}
    columns["AE"][:6] = [-0.0, 5e-324, 1e16, -1e16, 1e15, 123456789.0]
    drivers = DriverSeries(t0=0.5, cadence=0.5, columns=columns)
    m = _rows_past_one_chunk(6)
    t = 0.5 * np.arange(m)
    t[:6] = [-0.0, 1e16, 1e15, 999999999999999.0, -2.5, 5e-324]
    mlat = rng.uniform(45.0, 90.0, m)
    mlat[:2] = [45.0, 90.0]
    mlt = rng.uniform(0.0, 24.0, m)
    mlt[:2] = [0.0, 5e-324]
    eflux = 10.0 ** rng.uniform(6.0, 13.0, m)
    eflux[:3] = [5e-324, 1e16, 1.0]
    obs = ObsTable(t=t, sat_id=rng.integers(0, 70000, m), mlat=mlat, mlt=mlt,
                   eflux=eflux, region=rng.integers(0, 3, m))
    return drivers, obs


class TestWriteCsv:
    """``write_csv`` against the per-row writers it replaced, and back
    through the readers."""

    @pytest.fixture
    def synth_out(self, tmp_path, monkeypatch):
        drivers, obs = _edge_world()
        monkeypatch.setattr(cli.G, "gen_drivers", lambda params, duration: drivers)
        monkeypatch.setattr(cli.G, "sample_traces", lambda params, drivers: obs)
        assert cli.main(["synth", "--out-dir", str(tmp_path / "world"), "--days", "1"]) == 0
        return tmp_path / "world", drivers, obs

    def test_synth_files_equal_row_writers(self, tmp_path, synth_out):
        out, drivers, obs = synth_out
        write_drivers_rows(drivers, tmp_path / "drivers.csv")
        write_observations_rows(obs, tmp_path / "observations.csv")
        for name in ("drivers.csv", "observations.csv"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name
        lines = (out / "observations.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:8]] == [
            "0", "1e+16", "1000000000000000.0", "999999999999999", "-2.5", "5e-324", "3",
        ]

    def test_read_back_bit_identical(self, synth_out):
        out, drivers, obs = synth_out
        back = read_drivers_csv(out / "drivers.csv")
        assert (back.t0, back.cadence, back.n) == (0.5, 0.5, drivers.n)
        for name in DRIVER_NAMES:
            assert np.array_equal(back.columns[name].view(np.int64), drivers.columns[name].view(np.int64))
        table, dropped = read_observations_csv(out / "observations.csv")
        assert dropped == 0
        assert np.array_equal(table.t, obs.t)  # the time rule writes -0.0 as 0
        for name in ("sat_id", "mlat", "mlt", "eflux", "region"):
            assert np.array_equal(getattr(table, name).view(np.int8), getattr(obs, name).view(np.int8)), name

    def test_history_equals_row_writer(self, tmp_path):
        history = T.History()
        for epoch, (a, b) in enumerate([(-0.0, 5e-324), (1e16, 0.1), (2.5, 1e-300)]):
            history.record(epoch, a, b)
        T.write_history_csv(history, tmp_path / "a.csv")
        write_history_rows(history, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("config", ["", "features.threshold = 1e16\n"])
    def test_cleaning_equals_row_writer(self, tmp_path, config):
        world, cfg = tmp_path / "world", tmp_path / "c.cfg"
        cfg.write_text("world.n_sats = 1\n" + config)
        assert cli.main(["synth", "--config", str(cfg), "--out-dir", str(world), "--days", "1"]) == 0
        argv = ["--drivers", str(world / "drivers.csv"), "--obs", str(world / "observations.csv")]
        assert cli.main(["features", *argv, "--config", str(cfg), "--out", str(tmp_path / "t.aft")]) == 0
        obs, report = cli._clean_observations(world / "observations.csv", cli.load_config(str(cfg))[1])
        table = build_features(read_drivers_csv(world / "drivers.csv"), obs)
        write_cleaning_rows(report, table.n_dropped_history, tmp_path / "ref.csv")
        assert (tmp_path / "t.aft.cleaning.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_unequal_columns_raise_and_write_nothing(self, tmp_path):
        path = tmp_path / "x.csv"
        with pytest.raises(ValueError, match="lengths \\[3, 2\\]"):
            write_csv(path, ("a", "b"), [np.zeros(3), [1, 2]])
        with pytest.raises(ValueError, match="under header"):
            write_csv(path, ("a",), [np.zeros(3), np.zeros(3)])
        assert not path.exists()

    def test_fields_are_str_of_python_values(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, ("f", "i", "o"), [np.array([0.1, -0.0]), np.array([7, -8]), ["", 2.5]])
        assert path.read_bytes() == b"f,i,o\n0.1,7,\n-0.0,-8,2.5\n"
        write_csv(path, None, [np.array([1.0]), np.array([2])])
        assert path.read_bytes() == b"1.0,2\n"
        write_csv(path, ("a",), [np.array([])])
        assert path.read_bytes() == b"a\n"

    def test_streams_a_chunk_at_a_time(self, tmp_path):
        n = 5 * _rows_past_one_chunk(6)
        columns = list(np.random.default_rng(41).standard_normal((6, n)))
        path = tmp_path / "x.csv"
        peak, _ = peak_bytes(write_csv, path, tuple("abcdef"), columns)
        size = path.stat().st_size
        assert peak < size / 4, f"peak {peak / size:.2f}x the file"


class TestFeatureTable:
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_nonfinite_row_rejected(self, value, dtype):
        schema = FeatureSchema(variables=("AE",))
        rows = np.ones((3, schema.width), dtype=dtype)
        cols = dict(
            target=np.ones(3), region=None, t=np.zeros(3), mlat=np.full(3, 60.0),
            mlt=np.zeros(3), sat_id=np.zeros(3, dtype=np.int64),
        )
        assert FeatureTable(schema, rows, **cols).n == 3
        rows[1, 4] = value
        with pytest.raises(ValueError, match="non-finite feature or target"):
            FeatureTable(schema, rows, **cols)


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
