"""CSV parsing, cleaning, feature engineering, splits, and the cache format."""

import dataclasses
import itertools
import json
import os
import re

import numpy as np
import pytest

from auroracast import cli, container
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
    DEFAULT_AVG_MINUTES,
    DEFAULT_LAG_MINUTES,
    FeatureSchema,
    FeatureTable,
    Holdout,
    Normalization,
    build_features,
    clean_targets,
    has_history,
    history_feature_rows,
    read_drivers_csv,
    read_observations_csv,
    read_table_cache,
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
    history_rows_per_variable,
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
    return DriverSeries(t0=0.0, cadence=cadence, values=np.full((len(DRIVER_NAMES), n), value))


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
        assert d.column("AE")[2] == pytest.approx((300.0 + 900.0) / 2)

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
        "gap_between_huge_values": [DRIVERS_HEADER]
        + [f"{t}," + ",".join(["1.7e308", "-1.7e308", "1e308", "-5e307"] + ["1"] * 9) for t in (0, 600, 900)],
    }

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("case", sorted(VALID))
    def test_same_columns(self, tmp_path, case, end):
        path = _write_lines(tmp_path / "d.csv", self.VALID[case], end)
        got, ref = read_drivers_csv(path), read_drivers_rows(path)
        assert (got.t0, got.cadence, got.n) == (ref.t0, ref.cadence, ref.n)
        assert got.values.shape == ref.values.shape == (len(DRIVER_NAMES), ref.n)
        for name in DRIVER_NAMES:
            assert np.array_equal(got.column(name), ref.column(name)), name
            assert got.column(name).flags.c_contiguous

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
    values = np.array([rng.standard_normal(n) * 10.0 ** rng.integers(-5, 6, n) for _ in DRIVER_NAMES])
    drivers = DriverSeries(t0=0.5, cadence=0.5, values=values)
    drivers.column("AE")[:6] = [-0.0, 5e-324, 1e16, -1e16, 1e15, 123456789.0]
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
            assert np.array_equal(back.column(name).view(np.int64), drivers.column(name).view(np.int64))
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


class TestFeatureSchema:
    @pytest.mark.parametrize(
        "variables,message",
        [(("AE", "Kp"), "unknown driver variable 'Kp'"), (("AE", "AE"), "duplicate variable names"),
         ((), "empty variable set")],
    )
    def test_bad_variables_rejected(self, variables, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            FeatureSchema(variables=variables)


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


class TestBuildFeatures:
    def test_target_is_log10_of_kept_eflux(self):
        d = _constant_series()
        eflux = [1e12, 1.0, 7.37e13, 3.3e9]
        kept = [_obs(30000.0 + 60 * i, eflux=v) for i, v in enumerate(eflux)]
        obs = obs_table([_obs(10.0, eflux=5e11)] + kept)
        table = build_features(d, obs)
        assert table.n_dropped_history == 1
        assert table.target.dtype == np.float64
        assert table.target.tobytes() == np.log10(obs.eflux[1:]).tobytes()
        assert table.target[0] == 12.0
        assert table.target[1] == 0.0

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
        d = DriverSeries(t0=0.0, cadence=300.0, values=np.tile(np.arange(n) * 300.0, (len(DRIVER_NAMES), 1)))
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
        assert has_history(d, times, schema).all()
        rows = history_feature_rows(d, times, schema)
        names = [f"{v}_{k}" for v in schema.variables
                 for k in [f"lag{m:g}m" for m in schema.lag_minutes]
                 + [f"avg{m:g}m" for m in schema.avg_minutes]]
        dt = d.times
        for r, t in enumerate(times):
            for var in ("AE", "Bz", "NewellCF"):
                col = d.column(var)
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
        ok = has_history(d, times, schema)
        rows = history_feature_rows(d, times[ok], schema)
        ref_rows, ref_ok = history_rows_one_by_one(d, times, schema)
        assert not ok.all() and ok.any()
        assert np.array_equal(ok, ref_ok)
        assert np.array_equal(rows, ref_rows[ok])

    @pytest.mark.parametrize(
        "variables,lags,avgs",
        [(DRIVER_NAMES, DEFAULT_LAG_MINUTES, DEFAULT_AVG_MINUTES),
         (("NewellCF", "AE", "Bz"), (7.5, 0.0), (5.0, 600.0, 2.5)),
         (("PC",), (0.0,), (360.0,))],
        ids=["default", "reordered", "one"],
    )
    def test_rows_equal_one_variable_at_a_time(self, variables, lags, avgs):
        """One pass over every variable and window gives the bits of one
        1-D reduceat per variable and window: times on and off the cadence
        grid, up to the series' last sample, sorted, shuffled and repeated,
        over many row chunks."""
        d = gen_drivers(WorldParams(seed=8), 86400)
        schema = FeatureSchema(variables, lags, avgs)
        rng = np.random.default_rng(3)
        on_grid = d.times[has_history(d, d.times, schema)]
        off_grid = rng.uniform(on_grid[0], on_grid[-1], 1500)
        for times in (on_grid, off_grid, rng.permutation(np.concatenate([on_grid, off_grid[:200], on_grid]))):
            rows = history_feature_rows(d, times, schema)
            assert rows.shape == (len(times), len(schema.global_names))
            assert rows.tobytes() == history_rows_per_variable(d, times, schema).tobytes()

    def test_time_without_history_is_error(self):
        d = _constant_series()
        schema = FeatureSchema()
        for late in (10.0, d.t_end + 1.0):
            assert not has_history(d, np.array([late]), schema)[0]
            with pytest.raises(ValueError, match="lacks the full driver history"):
                history_feature_rows(d, np.array([30000.0, late]), schema)
        assert history_feature_rows(d, np.array([]), schema).shape == (0, len(schema.global_names))

    def test_mlt_seam_feature_continuity(self):
        d = _constant_series()
        eps = 1e-6
        t1 = build_features(d, obs_table([_obs(30000.0, mlt=24.0 - eps)]))
        t2 = build_features(d, obs_table([_obs(30000.0, mlt=eps)]))
        assert np.all(np.abs(t1.rows[0][:3] - t2.rows[0][:3]) < 1e-5)


def _split(table, holdout):
    """(training rows, validation rows), selected as ``cli`` selects them."""
    in_val = holdout.mask(table.t, table.sat_id)
    return table[~in_val], table[in_val]


class TestSplitAndFilter:
    def _table(self):
        p = WorldParams(seed=6, n_sats=2)
        d = gen_drivers(p, 86400 * 2)
        obs = sample_traces(p, d, 120.0)
        return build_features(d, obs)

    def test_partition(self):
        table = self._table()
        train, val = _split(table, Holdout(1, 86400.0, 2 * 86400.0 + 1))
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
            _split(table, Holdout(7, 0.0, 86400.0))

    def test_norm_refit_on_train(self):
        """Training fits the z-scoring on the training rows alone and
        stores it in the model's metadata."""
        table = self._table()
        train, val = _split(table, Holdout(0, 86400.0, 2 * 86400.0 + 1))
        model = build_model(BaselineArch(table.schema.width, hidden=(4,)), seed=0)
        model, _ = train_model(model, (train, val), TrainConfig(max_epochs=1))
        norm = Normalization.fit(train.rows)
        mean, std = norm.mean, norm.std
        assert model.meta["normalization"] == {"mean": mean.tolist(), "std": std.tolist()}
        z = (train.rows - mean) / std
        live = train.rows.std(axis=0) > 1e-12
        assert np.all(np.abs(z.mean(axis=0)[live]) < 1e-9)


class TestFeatureTableIndex:
    COLUMNS = ("rows", "target", "region", "t", "mlat", "mlt", "sat_id")

    @pytest.fixture(scope="class")
    def table(self):
        p = WorldParams(seed=6, n_sats=2)
        d = gen_drivers(p, 86400)
        table = build_features(d, sample_traces(p, d, 300.0))
        assert table.n_dropped_history > 0 and table.region is not None
        return table

    @pytest.mark.parametrize("kind", ["slice", "mask", "index"])
    def test_selects_every_column_in_order(self, table, kind):
        rng = np.random.default_rng(9)
        key = {
            "slice": slice(5, 200, 3),
            "mask": table.sat_id == 1,
            "index": rng.permutation(table.n)[:50],
        }[kind]
        picked = np.arange(table.n)[key]
        sub = table[key]
        assert sub.schema == table.schema
        assert sub.n == picked.size
        assert sub.n_dropped_history == 0
        for name in self.COLUMNS:
            got, full = getattr(sub, name), getattr(table, name)
            assert got.dtype == full.dtype
            assert got.tobytes() == full[picked].tobytes(), name

    def test_no_region_stays_none(self, table):
        unlabelled = dataclasses.replace(table, region=None)
        assert unlabelled[table.sat_id == 0].region is None

    def test_sub_table_of_cache_view_is_writable(self, table, tmp_path):
        write_table_cache(table, tmp_path / "t.aft")
        view = read_table_cache(tmp_path / "t.aft")
        assert not view.rows.flags.writeable
        in_val = Holdout(0, 50000.0, 86401.0).mask(view.t, view.sat_id)
        for key in (in_val, ~in_val):
            sub = view[key]
            for name in self.COLUMNS:
                got = getattr(sub, name)
                assert got.flags.writeable, name
                assert got.tobytes() == getattr(view, name)[key].tobytes(), name
            assert sub.rows.tobytes() == table.rows[key].tobytes()


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

    @pytest.mark.parametrize("by_satellite", [True, False])
    @pytest.mark.parametrize("t_end", [50.0, 100.0])
    def test_empty_time_range_is_config_error(self, t_end, by_satellite):
        cfg = {"holdout.t_start": 100.0, "holdout.t_end": t_end}
        with pytest.raises(ConfigError, match="holdout.t_end must exceed holdout.t_start"):
            Holdout.from_config(cfg, self.T, by_satellite=by_satellite)

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

    def test_unknown_variable_asks_for_rebuild(self, tmp_path):
        path = tmp_path / "t.aft"
        write_table_cache(self._table(), path)
        meta, arrays = container.read(path, "feature cache", "auroracast features")
        meta["schema"]["variables"][4] = "Kp"
        container.write(path, "feature cache", meta, {name: (a, a.dtype.str) for name, a in arrays.items()})
        with pytest.raises(DataError, match="unknown driver variable 'Kp'.*re-run `auroracast features`"):
            read_table_cache(path)

    def test_read_rows_are_a_float32_view(self, tmp_path):
        table = self._table()
        path = tmp_path / "t.aft"
        write_table_cache(table, path)
        back = read_table_cache(path)
        assert back.rows.dtype == np.float32 and not back.rows.flags.writeable
        assert np.array_equal(back.rows, table.rows.astype(np.float32))


def _world(seed, n_sats=3, days=1):
    """Drivers and observations of a ``days``-day world."""
    p = WorldParams(seed=seed, n_sats=n_sats)
    d = gen_drivers(p, days * 86400)
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
        assert table.rows.dtype == np.float32
        assert np.array_equal(table.rows, feature_rows_hstack(d, obs, table.schema).astype(np.float32))

    def test_cache_bytes_equal_float64_rows(self, tmp_path):
        # the float32 build writes the bytes of the float64 rows it replaced
        d, obs = _world(24)
        table = build_features(d, obs)
        path = tmp_path / "t.aft"
        write_table_cache(table, path)
        wide = dataclasses.replace(table, rows=feature_rows_hstack(d, obs, table.schema))
        assert path.read_bytes() == cache_bytes_container(wide)

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

    def test_batch_normalizes_like_the_whole_matrix(self):
        # a training batch is normalized as it is drawn; row chunks of the
        # whole matrix and the batch's own chunks give the same bits
        rng = np.random.default_rng(5)
        rows = (rng.normal(1e3, 1.0, (40_000, 17)) * rng.uniform(0.1, 1e4, 17)).astype(np.float32)
        norm = Normalization.fit(rows)
        whole = norm.apply(rows)
        for idx in (rng.permutation(len(rows))[:4096], np.arange(len(rows))[::-3]):
            assert np.array_equal(norm.apply(rows[idx]), whole[idx])


class TestMemory:
    """Peak heap use of each step of the point-model data path, on a
    1-day, 3-satellite world (the build also on a 5-day one)."""

    @pytest.fixture(scope="class")
    def world(self):
        return _world(23)

    def test_build_holds_one_matrix(self, world):
        peak, table = peak_bytes(build_features, *world)
        assert peak < 2 * table.rows.nbytes, f"peak {peak / table.rows.nbytes:.2f}x the rows"

    def test_build_holds_little_beside_the_float32_rows(self):
        world = _world(25, days=5)
        peak, table = peak_bytes(build_features, *world)
        block = table.n * table.schema.width * 4
        assert peak < 1.5 * block, f"peak {peak / block:.2f}x the float32 row block"

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


def _bits_equal(a, b) -> bool:
    """Equal dtype, shape and bytes, so -0.0 differs from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_drivers(got, ref):
    assert (got.t0, got.cadence, got.n) == (ref.t0, ref.cadence, ref.n)
    for name in DRIVER_NAMES:
        assert _bits_equal(got.column(name), ref.column(name)), name


def _same_observations(path):
    (table, dropped), (rows, dropped_ref) = read_observations_csv(path), read_observations_rows(path)
    ref = obs_table(rows)
    assert dropped == dropped_ref
    for name in ("t", "sat_id", "mlat", "mlt", "eflux"):
        assert _bits_equal(getattr(table, name), getattr(ref, name)), name
    return table


def _same_error(reader, oracle, path) -> str:
    with pytest.raises(DataError) as info:
        reader(path)
    with pytest.raises(DataError) as ref:
        oracle(path)
    assert str(info.value) == str(ref.value)
    return str(info.value)


class TestReaderParity:
    """Fields that numpy's parser and Python's ``float`` treat apart, read
    by the columnar readers as the row oracles read them: bit-equal values
    and identical messages."""

    # float reads these; np.loadtxt rejects them
    FLOAT_ONLY = ["1_0", "0_0.5", "\u0663", " \u0663.\u0665 ", "\u00a07", "2\u2003"]

    def test_drivers_tokens_float_alone_reads(self, tmp_path):
        lines = [DRIVERS_HEADER, _driver_line(0)]
        for k, tok in enumerate(self.FLOAT_ONLY):
            fields = _driver_line(300 * (k + 1)).split(",")
            fields[1 + k] = tok
            lines.append(",".join(fields))
        lines.append("2_100," + _driver_line(0).split(",", 1)[1])
        path = _write_lines(tmp_path / "d.csv", lines)
        got = read_drivers_csv(path)
        _same_drivers(got, read_drivers_rows(path))
        assert got.column("AE")[1] == 10.0 and got.column("AU")[3] == 3.0
        assert got.n == len(lines) - 1

    def test_observations_tokens_float_alone_reads(self, tmp_path):
        rows = [f"{60 * k},1_0,6_5,{tok},1e9,AUR" for k, tok in enumerate(self.FLOAT_ONLY)]
        digits = "\u0663\u0660\u0660,\u0662,\u0667\u0660,\u0661,\u0663e\u0669,pol"  # 300,2,70,1,3e9
        path = _write_lines(tmp_path / "o.csv", [OBS_HEADER, *rows, digits])
        table = _same_observations(path)
        assert table.sat_id.tolist() == [10] * len(rows) + [2]
        assert table.t[-1] == 300.0 and table.eflux[-1] == 3e9

    def test_hash_inside_a_field(self, tmp_path):
        # loadtxt would read everything after '#' as a comment
        bad = _driver_line(300).replace(",3.0,", ",3#0,")
        path = _write_lines(tmp_path / "d.csv", _drivers_lines(0) + [bad])
        assert _same_error(read_drivers_csv, read_drivers_rows, path).endswith(
            ":3: could not convert string to float: '3#0'"
        )
        path = _write_lines(
            tmp_path / "n.csv",
            [DRIVERS_HEADER + ",note"] + [_driver_line(t) + ",#x" for t in (0, 300)],
        )
        _same_drivers(read_drivers_csv(path), read_drivers_rows(path))
        path = _write_lines(tmp_path / "o.csv", [OBS_HEADER, GOOD_ROW, "60,1,65,22,1e9#5,AUR"])
        assert _same_error(read_observations_csv, read_observations_rows, path).endswith(
            ":3: could not convert string to float: '1e9#5'"
        )

    def test_whitespace_only_lines_are_skipped(self, tmp_path):
        # loadtxt does not skip a line of spaces
        lines = [DRIVERS_HEADER, " ", _driver_line(0), "\t \t", _driver_line(300), "\x0c", _driver_line(600)]
        path = _write_lines(tmp_path / "d.csv", lines)
        _same_drivers(read_drivers_csv(path), read_drivers_rows(path))
        path = _write_lines(tmp_path / "o.csv", [OBS_HEADER, "   ", GOOD_ROW, "\t", GOOD_ROW, " "])
        assert len(_same_observations(path)) == 2

    def test_negative_zero_keeps_its_sign(self, tmp_path):
        path = _write_lines(tmp_path / "d.csv", _drivers_lines(0, 300))
        path.write_text(path.read_text().replace(",1.0,", ",-0,").replace(",2.0,", ",-0.0,"))
        got = read_drivers_csv(path)
        _same_drivers(got, read_drivers_rows(path))
        assert np.signbit(got.column("AE")).all() and np.signbit(got.column("AL")).all()
        path = _write_lines(tmp_path / "o.csv", [OBS_HEADER, "-0,-0,65,22,1e9,AUR"])
        assert np.signbit(_same_observations(path).t).all()

    def test_underflow_reads_as_zero(self, tmp_path):
        path = _write_lines(tmp_path / "d.csv", _drivers_lines(0, 300))
        path.write_text(path.read_text().replace(",1.0,", ",1e-400,").replace(",2.0,", ",-1e-400,"))
        got = read_drivers_csv(path)
        _same_drivers(got, read_drivers_rows(path))
        assert got.column("AE").tolist() == [0.0, 0.0] and np.signbit(got.column("AL")).all()
        path = _write_lines(tmp_path / "o.csv", [OBS_HEADER, GOOD_ROW, "60,1,65,1e-400,1e-400,AUR"])
        assert len(_same_observations(path)) == 1  # eflux 0 is dropped

    def test_overflow_is_not_finite(self, tmp_path):
        line = _driver_line(300).replace(",1.0,", ",1e400,")
        path = _write_lines(tmp_path / "d.csv", _drivers_lines(0) + [line])
        message = _same_error(read_drivers_csv, read_drivers_rows, path)
        assert message.endswith(":3: AE must be finite, got inf")
        path = _write_lines(tmp_path / "o.csv", [OBS_HEADER, GOOD_ROW, "60,1,65,22,-1e400,AUR"])
        assert _same_error(read_observations_csv, read_observations_rows, path).endswith(
            ":3: eflux must be finite, got -inf"
        )

    def test_invalid_utf8_is_a_data_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(_write_lines(tmp_path / "x.csv", _drivers_lines(0, 300)).read_bytes() + b"\xff\n")
        with pytest.raises(DataError, match=r"d\.csv: not UTF-8 text"):
            read_drivers_csv(path)


class TestByteOrderMark:
    """A UTF-8 byte-order mark at the start of an input file is skipped."""

    def test_drivers(self, tmp_path):
        plain = _write_lines(tmp_path / "plain.csv", _drivers_lines(0, 300, 900))
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        _same_drivers(read_drivers_csv(marked), read_drivers_rows(plain))

    def test_observations(self, tmp_path):
        plain = _write_lines(tmp_path / "plain.csv", [OBS_HEADER, GOOD_ROW, "120,2,70,3,5e9,"], "\r\n")
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        got, dropped = read_observations_csv(marked)
        want, _ = read_observations_csv(plain)
        assert dropped == 0 and len(got) == 2
        for name in ("t", "sat_id", "mlat", "mlt", "eflux", "region"):
            assert _bits_equal(getattr(got, name), getattr(want, name)), name

    def test_fault_lines_keep_their_numbers(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + f"{OBS_HEADER}\n{GOOD_ROW}\n60,1,30,22,1e9,AUR\n".encode())
        with pytest.raises(DataError, match=r"bom\.csv:3: mlat 30 outside \[45, 90\]"):
            read_observations_csv(path)


class TestAtomicWrite:
    """A container write that fails part-way leaves what was at the path."""

    def _old_file(self, tmp_path):
        path = tmp_path / "t.aft"
        path.write_bytes(b"the previous file")
        return path

    def test_failed_chunk_leaves_the_old_file(self, tmp_path):
        path = self._old_file(tmp_path)
        values = np.ones(3 * (_CHUNK_BYTES // 8), dtype=object)
        values[_CHUNK_BYTES // 8 + 5] = "x"  # in the second row chunk
        with pytest.raises(ValueError):
            container.write(path, "test", {}, {"values": (values, "<f8")})
        assert path.read_bytes() == b"the previous file"
        assert os.listdir(tmp_path) == ["t.aft"]

    def test_short_blocks_are_an_error(self, tmp_path):
        blocks = container.Blocks((10, 2), lambda: iter([np.zeros((4, 2)), np.zeros((4, 2))]))
        with pytest.raises(ValueError, match="do not make its shape"):
            container.write(tmp_path / "t.aft", "test", {}, {"a": (blocks, "<f4")})
        assert os.listdir(tmp_path) == []

    def test_blocks_are_written_like_the_array(self, tmp_path):
        a = np.arange(30.0).reshape(10, 3)
        blocks = container.Blocks(a.shape, lambda: (a[i : i + 4] for i in range(0, 10, 4)))
        container.write(tmp_path / "a.bin", "test", {"k": 1}, {"a": (a, "<f4")})
        container.write(tmp_path / "b.bin", "test", {"k": 1}, {"a": (blocks, "<f4")})
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_missing_directory_names_the_path(self, tmp_path):
        path = tmp_path / "no" / "t.aft"
        with pytest.raises(FileNotFoundError) as info:
            container.write(path, "test", {}, {})
        assert info.value.filename == str(path)

    def test_float32_overflow_leaves_the_old_cache(self, tmp_path):
        d, obs = _world(26)
        d.column("AE")[200] = 1e39
        path = self._old_file(tmp_path)
        with pytest.raises(DataError, match="AE_lag0m is 1e\\+39"):
            write_table_cache(build_features(d, obs), path)
        assert path.read_bytes() == b"the previous file"
        assert os.listdir(tmp_path) == ["t.aft"]


class TestStreamedFeatures:
    """``build_features`` gives its rows as blocks, which the cache writer
    streams and a read of ``rows`` fills."""

    def test_written_then_read_rows_equal_the_cache(self, tmp_path):
        d, obs = _world(27)
        table = build_features(d, obs)
        write_table_cache(table, tmp_path / "t.aft")
        assert np.array_equal(table.rows, read_table_cache(tmp_path / "t.aft").rows)
        assert np.array_equal(table.rows, feature_rows_hstack(d, obs[has_history(d, obs.t, table.schema)],
                                                              table.schema).astype(np.float32))

    def test_unsorted_overflow_names_the_earliest_time(self):
        d, obs = _world(28, days=2)
        d.column("By")[300] = 1e39  # earlier, but later in the schema than AE
        d.column("AE")[400] = -2e39
        obs = obs[np.random.default_rng(1).permutation(len(obs))]
        obs = obs[np.argsort(-obs.t, kind="stable")]  # latest times in the first block
        schema = FeatureSchema()
        t = np.unique(obs.t[has_history(d, obs.t, schema)])
        with np.errstate(over="ignore"):
            bad = ~np.isfinite(history_feature_rows(d, t, schema).astype(np.float32))
        r, c = np.argwhere(bad)[0]
        assert schema.global_names[c].startswith("By_")
        with pytest.raises(DataError) as info:
            build_features(d, obs).rows
        assert str(info.value) == (
            f"build_features: feature {schema.global_names[c]} is 1e+39 at t={float(t[r])!r}, "
            "beyond the float32 range of the feature cache"
        )


class TestStreamingMemory:
    """Peak heap use of the readers and of the ``features`` command's path."""

    @pytest.fixture(scope="class")
    def world(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("world10")
        cfg = out / "synth.cfg"
        cfg.write_text("world.n_sats = 3\n")
        argv = ["synth", "--config", str(cfg), "--out-dir", str(out), "--days", "10", "--seed", "1"]
        assert cli.main(argv) == 0
        return out

    @pytest.mark.parametrize("name", ["drivers.csv", "observations.csv"])
    def test_reader_holds_under_three_files(self, world, name):
        reader = read_drivers_csv if name == "drivers.csv" else read_observations_csv
        size = (world / name).stat().st_size
        peak, _ = peak_bytes(reader, world / name)
        assert peak < 3 * size, f"peak {peak / size:.2f}x the file"

    def test_features_command_path_holds_under_half_the_rows(self, tmp_path):
        d, obs = _world(25, days=5)
        path = tmp_path / "t.aft"
        peak, table = peak_bytes(lambda: _built_and_cached(d, obs, path))
        block = table.n * table.schema.width * 4
        assert peak < block / 2, f"peak {peak / block:.2f}x the float32 row block"

    def test_filled_rows_hold_little_beside_the_matrix(self):
        d, obs = _world(25, days=5)
        table = build_features(d, obs)
        peak, rows = peak_bytes(lambda: table.rows)
        assert peak < 1.5 * rows.nbytes, f"peak {peak / rows.nbytes:.2f}x the float32 row block"


def _built_and_cached(drivers, obs, path):
    """``cmd_features``'s calls: the table is built, then cached."""
    table = build_features(drivers, obs)
    write_table_cache(table, path)
    return table
