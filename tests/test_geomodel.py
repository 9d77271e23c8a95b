"""Grid registration, coupling, ground-truth fields, and trace sampling."""

import numpy as np
import pytest

from auroracast.geomodel import (
    DRIVER_NAMES,
    DriverProcess,
    DriverSeries,
    GridSpec,
    ObsTable,
    Region,
    WorldParams,
    activity_level,
    cells_of,
    default_driver_processes,
    flux_field,
    gen_drivers,
    newell_cf,
    oval_center,
    oval_width,
    region_field,
    sample_traces,
)

from _reference import (
    cell_of,
    driver_row_at,
    gen_drivers_per_variable,
    sample_traces_per_satellite,
    true_flux,
    true_region,
)


GRID = GridSpec()


class TestCellOf:
    def test_lower_boundary(self):
        assert cell_of(45.0, 0.0, GRID) == (0, 0)

    def test_clamp_and_wrap(self):
        assert cell_of(90.0, 24.0, GRID) == (127, 0)

    def test_interior(self):
        # floor((67.5-45)/45*128) = 64, floor(12/24*128) = 64
        assert cell_of(67.5, 12.0, GRID) == (64, 64)

    def test_cell_center_roundtrip(self):
        rows = np.repeat(np.arange(GRID.n_lat), GRID.n_mlt)
        cols = np.tile(np.arange(GRID.n_mlt), GRID.n_lat)
        mlat = GRID.lat_min + (rows + 0.5) * GRID.dlat
        mlt = (cols + 0.5) * GRID.dmlt
        r, c = cells_of(mlat, mlt, GRID)
        assert np.array_equal(r, rows)
        assert np.array_equal(c, cols)

    def test_surjective_on_fine_lattice(self):
        mlat = np.linspace(45.0, 90.0, 1501)
        mlt = np.linspace(0.0, 24.0, 1501, endpoint=False)
        mg_lat, mg_mlt = np.meshgrid(mlat, mlt[:515], indexing="ij")
        r, c = cells_of(mg_lat.ravel(), mg_mlt.ravel(), GRID)
        assert set(np.unique(r)) == set(range(GRID.n_lat))
        # full MLT sweep for columns
        r2, c2 = cells_of(np.full_like(mlt, 60.0), mlt, GRID)
        assert set(np.unique(c2)) == set(range(GRID.n_mlt))

    def test_mlt_seam_periodicity(self):
        for eps in (1e-9, 1e-4, GRID.dmlt * 0.5):
            _, c_hi = cells_of(60.0, 24.0 - eps, GRID)
            _, c_lo = cells_of(60.0, 0.0, GRID)
            circ = min((int(c_hi) - int(c_lo)) % GRID.n_mlt, (int(c_lo) - int(c_hi)) % GRID.n_mlt)
            assert circ <= 1


class TestNewellCoupling:
    def test_purely_northward_is_zero(self):
        assert newell_cf(0.0, 5.0, 400.0) == 0.0

    def test_purely_southward(self):
        expected = 400.0 ** (4.0 / 3.0) * 5.0 ** (2.0 / 3.0)
        assert newell_cf(0.0, -5.0, 400.0) == pytest.approx(expected, rel=1e-12)

    def test_dawnward_field(self):
        expected = (
            400.0 ** (4.0 / 3.0) * 5.0 ** (2.0 / 3.0) * np.sin(np.pi / 4.0) ** (8.0 / 3.0)
        )
        assert newell_cf(5.0, 0.0, 400.0) == pytest.approx(expected, rel=1e-12)

    def test_vsw_must_be_positive(self):
        with pytest.raises(ValueError):
            newell_cf(0.0, -5.0, 0.0)


class TestDrivers:
    def test_deterministic(self):
        p = WorldParams(seed=42)
        a = gen_drivers(p, 7200)
        b = gen_drivers(p, 7200)
        for name in DRIVER_NAMES:
            assert np.array_equal(a.column(name), b.column(name))

    def test_zero_volatility_constant(self):
        procs = {
            name: DriverProcess(proc.mean, proc.tau_s, 0.0)
            for name, proc in default_driver_processes().items()
        }
        p = WorldParams(seed=1, processes=procs)
        d = gen_drivers(p, 3600)
        for name in DRIVER_NAMES:
            assert np.all(d.column(name) == procs[name].mean)

    def test_length(self):
        d = gen_drivers(WorldParams(seed=0), 3600)
        assert d.n == 13  # floor(3600/300) + 1

    def test_too_short(self):
        with pytest.raises(ValueError):
            gen_drivers(WorldParams(seed=0), 100)

    @pytest.mark.parametrize("seed", [0, 7, 123])
    @pytest.mark.parametrize(
        "cadence,duration", [(300.0, 300.0), (300.0, 86400.0), (60.0, 7259.5), (1.5, 1000.0)]
    )
    def test_bitwise_equal_to_one_variable_at_a_time(self, seed, cadence, duration):
        """Stepping every variable at once gives each variable's own path."""
        p = WorldParams(seed=seed, cadence_s=cadence, t0=-600.0)
        got, ref = gen_drivers(p, duration), gen_drivers_per_variable(p, duration)
        assert (got.t0, got.cadence, got.n) == (ref.t0, ref.cadence, ref.n)
        assert got.values.dtype == ref.values.dtype and got.values.tobytes() == ref.values.tobytes()

    def test_column_is_a_row_view(self):
        d = gen_drivers(WorldParams(seed=0), 3600)
        for i, name in enumerate(DRIVER_NAMES):
            assert d.column(name).base is d.values and np.array_equal(d.column(name), d.values[i])

    @pytest.mark.parametrize("shape", [(12, 4), (13,), (13, 0)])
    def test_values_of_another_shape_rejected(self, shape):
        with pytest.raises(ValueError):
            DriverSeries(t0=0.0, cadence=300.0, values=np.ones(shape))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_nonfinite_value_rejected(self, value):
        values = np.ones((len(DRIVER_NAMES), 4))
        values[DRIVER_NAMES.index("Bz"), 2] = value
        with pytest.raises(ValueError, match="non-finite value in driver column Bz"):
            DriverSeries(t0=0.0, cadence=300.0, values=values)


class TestFluxField:
    PARAMS = WorldParams(seed=0)

    def test_far_below_oval_is_background_exactly(self):
        row = {"NewellCF": 0.0}
        assert activity_level(0.0, self.PARAMS) == 0.0
        v = true_flux(45.0, 0.0, row, self.PARAMS)
        assert v == self.PARAMS.subauroral_background

    def test_seam_continuity(self):
        row = {"NewellCF": 5000.0}
        for mlat in (55.0, 67.0, 80.0):
            assert true_flux(mlat, 0.0, row, self.PARAMS) == true_flux(mlat, 24.0, row, self.PARAMS)
        # approaching the seam from below
        a = activity_level(5000.0, self.PARAMS)
        f_hi = flux_field(68.0, 24.0 - 1e-9, a, self.PARAMS)
        f_lo = flux_field(68.0, 0.0, a, self.PARAMS)
        assert abs(f_hi - f_lo) < 1e-6

    def test_peak_at_oval_center(self):
        a = 0.6
        mlats = np.linspace(45.0, 90.0, 9001)
        for mlt in (0.0, 6.0, 13.7):
            f = flux_field(mlats, mlt, a, self.PARAMS)
            lc = oval_center(mlt, a, self.PARAMS)
            assert abs(mlats[np.argmax(f)] - lc) <= (mlats[1] - mlats[0])

    def test_activity_raises_peak(self):
        mlats = np.linspace(45.0, 90.0, 2001)
        lo = flux_field(mlats, 3.0, 0.2, self.PARAMS).max()
        hi = flux_field(mlats, 3.0, 0.7, self.PARAMS).max()
        assert hi > lo

    def test_region_flux_ordering(self):
        # mean flux must order auroral > polar > sub-auroral at high activity
        a = 0.6
        mlats = np.linspace(45.0, 90.0, 901)
        mlts = np.linspace(0.0, 24.0, 97, endpoint=False)
        mg_lat, mg_mlt = np.meshgrid(mlats, mlts, indexing="ij")
        f = flux_field(mg_lat, mg_mlt, a, self.PARAMS)
        r = region_field(mg_lat, mg_mlt, a, self.PARAMS)
        means = {code: f[r == code].mean() for code in (0, 1, 2)}
        assert means[Region.AURORAL.value] > means[Region.POLAR.value]
        assert means[Region.POLAR.value] > means[Region.SUBAURORAL.value]


class TestRegions:
    PARAMS = WorldParams(seed=0)

    def test_center_is_auroral(self):
        row = {"NewellCF": 3000.0}
        a = activity_level(3000.0, self.PARAMS)
        lc = float(oval_center(6.0, a, self.PARAMS))
        assert true_region(lc, 6.0, row, self.PARAMS) is Region.AURORAL

    def test_pole_is_polar(self):
        row = {"NewellCF": 3000.0}
        a = activity_level(3000.0, self.PARAMS)
        assert float(oval_center(12.0, a, self.PARAMS)) + self.PARAMS.region_kappa * float(
            oval_width(a, self.PARAMS)
        ) < 90.0
        assert true_region(90.0, 12.0, row, self.PARAMS) is Region.POLAR

    def test_monotone_sweep_order(self):
        mlats = np.linspace(45.0, 90.0, 4001)
        for a in (0.0, 0.3, 0.8):
            for mlt in (0.0, 5.5, 12.0, 18.25):
                codes = region_field(mlats, mlt, a, self.PARAMS)
                assert np.all(np.diff(codes.astype(int)) >= 0)

    def test_region_codes(self):
        assert Region.from_code("AUR") is Region.AURORAL
        assert Region.AURORAL.code == "AUR"
        with pytest.raises(ValueError):
            Region.from_code("XYZ")


class TestTraces:
    def test_count_and_range(self):
        p = WorldParams(seed=3)
        d = gen_drivers(p, 86400)
        obs = sample_traces(p, d, 60.0)
        assert len(obs) == 1441
        ends = np.r_[0:50, len(obs) - 50 : len(obs)]
        assert np.all((obs.mlat[ends] >= 45.0) & (obs.mlat[ends] <= 90.0))
        assert np.all((obs.mlt[ends] >= 0.0) & (obs.mlt[ends] < 24.0))

    def test_noiseless_matches_field(self):
        p = WorldParams(seed=5, noise_sigma=0.0)
        d = gen_drivers(p, 7200)
        obs = sample_traces(p, d, 300.0)
        for t, mlat, mlt, eflux in zip(obs.t, obs.mlat, obs.mlt, obs.eflux):
            expect = true_flux(mlat, mlt, driver_row_at(d, t), p)
            assert np.log10(eflux) == pytest.approx(expect, abs=1e-12)

    def test_two_sats_distinct_coords(self):
        p = WorldParams(seed=9, n_sats=2)
        d = gen_drivers(p, 3600)
        obs = sample_traces(p, d, 300.0)
        by_t = {}
        for t, mlat, mlt in zip(obs.t.tolist(), obs.mlat.tolist(), obs.mlt.tolist()):
            by_t.setdefault(t, []).append((mlat, mlt))
        for t, group in by_t.items():
            assert len(group) == 2
            assert group[0] != group[1]

    def test_bit_reproducible(self):
        p = WorldParams(seed=11, n_sats=2)
        d = gen_drivers(p, 7200)
        a = sample_traces(p, d, 60.0)
        b = sample_traces(p, d, 60.0)
        assert len(a) == len(b)
        for name in ("t", "sat_id", "mlat", "mlt", "eflux", "region"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    @pytest.mark.parametrize("n_sats", [1, 2, 3])
    @pytest.mark.parametrize("seed", [1, 5, 7])
    def test_bitwise_equal_to_one_satellite_at_a_time(self, seed, n_sats):
        """Drawing every satellite at once gives the columns, dtypes and row
        order of drawing each on its own and sorting by time, satellite."""
        p = WorldParams(seed=seed, n_sats=n_sats)
        d = gen_drivers(p, 86400)
        for cadence in (None, 60.0):
            obs, ref = sample_traces(p, d, cadence), sample_traces_per_satellite(p, d, cadence)
            for name in ("t", "sat_id", "mlat", "mlt", "eflux", "region"):
                a, b = getattr(obs, name), getattr(ref, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_regions_attached(self):
        p = WorldParams(seed=2)
        d = gen_drivers(p, 3600)
        obs = sample_traces(p, d, 300.0)
        assert obs.region is not None and np.all(obs.region >= 0)


class TestObsTable:
    def _table(self, **over):
        cols = dict(
            t=[0.0, 60.0, 120.0],
            sat_id=[0, 1, 2],
            mlat=[45.0, 67.5, 90.0],
            mlt=[23.5, 24.0, -1.0],
            eflux=[1e9, 2e10, 3e11],
            region=[0, -1, 2],
        )
        cols.update(over)
        return ObsTable(**cols)

    def test_mlt_wrapped(self):
        assert self._table().mlt.tolist() == [23.5, 0.0, 23.0]

    def test_subset(self):
        sub = self._table()[np.array([True, False, True])]
        assert sub.sat_id.tolist() == [0, 2]
        assert sub.region.tolist() == [0, 2]
        assert self._table()[1:2].region is None  # no labelled row left

    def test_checks_once_per_table(self):
        with pytest.raises(ValueError, match="mlat"):
            self._table(mlat=[45.0, 44.9, 90.0])
        with pytest.raises(ValueError, match="eflux"):
            self._table(eflux=[1e9, 0.0, 1.0])
        with pytest.raises(ValueError, match="eflux"):
            self._table(eflux=[1e9, np.nan, 1.0])
        with pytest.raises(ValueError, match="equal length"):
            self._table(t=[0.0, 60.0])
        with pytest.raises(ValueError, match="region"):
            self._table(region=[0, 3, 1])
