"""Synthetic polar world: coordinates, grid, drivers, flux field, traces.

Coordinates are magnetic latitude (MLAT, 45-90 degrees) and magnetic
local time (MLT, 0-24 hours, periodic). The ground truth is a parametric
auroral oval whose center latitude, width, and peak brightness respond
to a scalar activity level derived from a solar-wind coupling value.
Driver variables evolve as seeded mean-reverting (Ornstein-Uhlenbeck)
processes, and satellites sweep MLAT as a triangular wave with the MLT
sector fixed per ascending/descending leg, which reproduces the
1-D-trace-on-2-D-domain sparsity of real polar-orbit sampling.

The drivers are one float64 matrix, a row per variable of
``DRIVER_NAMES``, so ``gen_drivers`` steps every variable at once.
Observations are held column-wise in an ``ObsTable``: one array per
field, validated once at construction. Selecting rows gives another
table; no object stands for a single row.

Everything here is a pure function of (params, seed): repeated calls are
bit-identical and safe to run concurrently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import astuple, dataclass, field
from typing import Mapping

import numpy as np

from .errors import ConfigError, bind


class Region(enum.Enum):
    """The three flux regimes along a pole-ward sweep."""

    SUBAURORAL = 0
    AURORAL = 1
    POLAR = 2

    @property
    def code(self) -> str:
        return {"SUBAURORAL": "SUB", "AURORAL": "AUR", "POLAR": "POL"}[self.name]

    @classmethod
    def from_code(cls, code: str) -> "Region":
        table = {"SUB": cls.SUBAURORAL, "AUR": cls.AURORAL, "POL": cls.POLAR}
        try:
            return table[code.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown region code: {code!r}") from None


MLAT_MIN = 45.0
MLAT_MAX = 90.0

DRIVER_NAMES = (
    "AE", "AL", "AU", "F107", "SymH",
    "Bx", "By", "Bz", "Vsw", "Psw", "Vx", "PC", "NewellCF",
)


@dataclass(frozen=True)
class GridSpec:
    """Regular MLAT x MLT grid; the MLT axis is periodic.

    Cell (i, j) covers the half-open box
    [lat_min + i*dlat, lat_min + (i+1)*dlat) x [j*dmlt, (j+1)*dmlt),
    with the top latitude edge clamped into the last row.
    """

    n_lat: int = 128
    n_mlt: int = 128
    lat_min: float = MLAT_MIN
    lat_max: float = MLAT_MAX

    def __post_init__(self):
        if self.n_lat < 4 or self.n_mlt < 4:
            raise ValueError("grid must be at least 4x4")
        if not self.lat_max > self.lat_min:
            raise ValueError("lat_max must exceed lat_min")

    @property
    def dlat(self) -> float:
        return (self.lat_max - self.lat_min) / self.n_lat

    @property
    def dmlt(self) -> float:
        return 24.0 / self.n_mlt


@dataclass
class GridMap:
    """A scalar field (log10 flux) plus an observed-cell mask on a GridSpec."""

    spec: GridSpec
    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        shape = (self.spec.n_lat, self.spec.n_mlt)
        self.values = np.asarray(self.values, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.values.shape != shape or self.mask.shape != shape:
            raise ValueError(f"grid shape mismatch, expected {shape}")
        if not np.all(np.isfinite(self.values[self.mask])):
            raise ValueError("non-finite value under mask")


@dataclass(frozen=True)
class DriverProcess:
    """Mean-reverting process parameters for one driver variable.

    mean: stationary mean; tau_s: reversion time constant in seconds;
    volatility: diffusion amplitude per sqrt(second). Stationary standard
    deviation is volatility * sqrt(tau_s / 2).
    """

    mean: float
    tau_s: float
    volatility: float

    def __post_init__(self):
        if self.tau_s <= 0:
            raise ValueError("tau_s must be positive")
        if self.volatility < 0:
            raise ValueError("volatility must be non-negative")


def default_driver_processes() -> dict[str, DriverProcess]:
    """Plausible magnitudes per variable; none are claimed as physical truth."""
    return {
        "AE": DriverProcess(150.0, 7200.0, 2.0),
        "AL": DriverProcess(-100.0, 7200.0, 1.5),
        "AU": DriverProcess(60.0, 7200.0, 0.7),
        "F107": DriverProcess(120.0, 432000.0, 0.03),
        "SymH": DriverProcess(-12.0, 21600.0, 0.15),
        "Bx": DriverProcess(0.0, 10800.0, 0.035),
        "By": DriverProcess(0.0, 10800.0, 0.04),
        "Bz": DriverProcess(-0.5, 10800.0, 0.04),
        "Vsw": DriverProcess(420.0, 43200.0, 0.4),
        "Psw": DriverProcess(2.1, 21600.0, 0.008),
        "Vx": DriverProcess(-420.0, 43200.0, 0.4),
        "PC": DriverProcess(1.5, 10800.0, 0.016),
        "NewellCF": DriverProcess(2000.0, 21600.0, 31.0),
    }


@dataclass
class DriverSeries:
    """The drivers on a fixed cadence starting at epoch t0, as one float64
    matrix: row ``i`` of ``values`` [len(DRIVER_NAMES), n] is the series
    of ``DRIVER_NAMES[i]``, and ``column(name)`` is a view of that row."""

    t0: float
    cadence: float
    values: np.ndarray

    def __post_init__(self):
        if self.cadence <= 0:
            raise ValueError("cadence must be positive")
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or len(self.values) != len(DRIVER_NAMES) or not self.values.size:
            raise ValueError(f"driver values must be [{len(DRIVER_NAMES)}, n >= 1], got {self.values.shape}")
        bad = ~np.isfinite(self.values).all(axis=1)
        if bad.any():
            raise ValueError(f"non-finite value in driver column {DRIVER_NAMES[int(np.argmax(bad))]}")

    def column(self, name: str) -> np.ndarray:
        return self.values[DRIVER_NAMES.index(name)]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.cadence * np.arange(self.n)

    @property
    def t_end(self) -> float:
        return self.t0 + self.cadence * (self.n - 1)

    def index_at(self, t) -> np.ndarray:
        """Nearest sample index, clipped to the series."""
        idx = np.rint((np.asarray(t, dtype=np.float64) - self.t0) / self.cadence)
        return np.clip(idx, 0, self.n - 1).astype(np.int64)


@dataclass(eq=False)
class ObsTable:
    """Observations as parallel columns, one row per measurement.

    ``region`` holds int8 Region values with -1 for an unlabelled row, or
    is None when no row carries a label. MLT is wrapped modulo 24. The
    mlat range, positive eflux and equal lengths are checked once, for
    the whole table. A slice, boolean mask or index array selects a
    sub-table.
    """

    t: np.ndarray
    sat_id: np.ndarray
    mlat: np.ndarray
    mlt: np.ndarray
    eflux: np.ndarray
    region: np.ndarray | None = None

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=np.float64)
        self.sat_id = np.asarray(self.sat_id, dtype=np.int64)
        self.mlat = np.asarray(self.mlat, dtype=np.float64)
        self.mlt = np.asarray(self.mlt, dtype=np.float64) % 24.0
        self.eflux = np.asarray(self.eflux, dtype=np.float64)
        cols = [self.t, self.sat_id, self.mlat, self.mlt, self.eflux]
        if self.region is not None:
            self.region = np.asarray(self.region, dtype=np.int8)
            cols.append(self.region)
        if any(c.ndim != 1 or c.size != self.t.size for c in cols):
            raise ValueError("observation columns must be 1-D and of equal length")
        bad = ~((self.mlat >= MLAT_MIN) & (self.mlat <= MLAT_MAX))
        if bad.any():
            raise ValueError(f"mlat out of range [45, 90]: {self.mlat[bad][0]}")
        bad = ~(self.eflux > 0)
        if bad.any():
            raise ValueError(f"eflux must be positive, got {self.eflux[bad][0]}")
        if self.region is not None:
            if np.any((self.region < -1) | (self.region > Region.POLAR.value)):
                raise ValueError("region values must be -1 or a Region value")
            if not (self.region >= 0).any():
                self.region = None

    def __len__(self) -> int:
        return self.t.size

    def __getitem__(self, key) -> ObsTable:
        return ObsTable(
            t=self.t[key],
            sat_id=self.sat_id[key],
            mlat=self.mlat[key],
            mlt=self.mlt[key],
            eflux=self.eflux[key],
            region=None if self.region is None else self.region[key],
        )


@dataclass(frozen=True)
class WorldParams:
    """Everything that defines one synthetic world.

    Oval geometry: center latitude drops and widens with activity and is
    modulated in MLT; the peak brightness rises with activity while the
    two backgrounds stay fixed. All values are overridable; none are
    claimed as measured truth.
    """

    seed: int = 0
    n_sats: int = 1
    cadence_s: float = 300.0
    obs_cadence_s: float = 60.0
    t0: float = 0.0
    oval_center_base: float = 70.0
    oval_center_activity_drop: float = 8.0
    oval_center_mlt_amplitude: float = 3.0
    oval_width_base: float = 2.0
    oval_width_activity_gain: float = 2.0
    peak_log_flux_base: float = 10.0
    peak_log_flux_activity_gain: float = 2.5
    polar_background: float = 8.5
    subauroral_background: float = 7.5
    noise_sigma: float = 0.3
    region_kappa: float = 1.5
    activity_scale: float = 8000.0
    orbit_period_s: float = 6060.0
    orbit_precession_h_per_day: float = 0.8
    processes: Mapping[str, DriverProcess] = field(default_factory=default_driver_processes)

    def __post_init__(self):
        # config.KEYS bounds the other fields; --seed does not pass through it
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


# ── Grid registration ─────────────────────────────────────────────────

def cells_of(mlat, mlt, spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized cell lookup: half-open cells, top-edge clamp, MLT wrap."""
    mlat = np.asarray(mlat, dtype=np.float64)
    mlt = np.asarray(mlt, dtype=np.float64) % 24.0
    row = np.floor((mlat - spec.lat_min) / (spec.lat_max - spec.lat_min) * spec.n_lat)
    row = np.clip(row, 0, spec.n_lat - 1).astype(np.int64)
    col = np.floor(mlt / 24.0 * spec.n_mlt).astype(np.int64) % spec.n_mlt
    return row, col


# ── Coupling and activity ─────────────────────────────────────────────

def newell_cf(by: float, bz: float, vsw: float):
    """Solar wind-magnetosphere coupling value v^(4/3) Bt^(2/3) sin^(8/3)(theta/2).

    by, bz in nT, vsw in km/s; theta is the IMF clock angle measured from
    due north. Purely northward field couples nothing.
    """
    by = np.asarray(by, dtype=np.float64)
    bz = np.asarray(bz, dtype=np.float64)
    vsw = np.asarray(vsw, dtype=np.float64)
    if np.any(vsw <= 0):
        raise ValueError("vsw must be positive")
    bt = np.hypot(by, bz)
    theta = np.arctan2(np.abs(by), bz)
    out = vsw ** (4.0 / 3.0) * bt ** (2.0 / 3.0) * np.sin(theta / 2.0) ** (8.0 / 3.0)
    return float(out) if out.ndim == 0 else out


def activity_level(coupling, params: WorldParams):
    """Squash a coupling value into [0, 1); negative coupling maps to 0."""
    cf = np.maximum(np.asarray(coupling, dtype=np.float64), 0.0)
    a = 1.0 - np.exp(-cf / params.activity_scale)
    return float(a) if a.ndim == 0 else a


def oval_center(mlt, activity, params: WorldParams):
    """Center latitude of the oval: drops with activity, modulated over MLT."""
    mlt = np.asarray(mlt, dtype=np.float64)
    return (
        params.oval_center_base
        - params.oval_center_activity_drop * np.asarray(activity, dtype=np.float64)
        - params.oval_center_mlt_amplitude * np.cos(2.0 * np.pi * mlt / 24.0)
    )


def oval_width(activity, params: WorldParams):
    return params.oval_width_base + params.oval_width_activity_gain * np.asarray(
        activity, dtype=np.float64
    )


# ── Ground-truth fields ───────────────────────────────────────────────

def flux_field(mlat, mlt, activity, params: WorldParams) -> np.ndarray:
    """log10 flux at (mlat, mlt) for a given activity level.

    Sub-auroral background below the oval center, polar background above,
    with a Gaussian enhancement peaking at the center. The two branches
    agree at the center (both equal the peak), so the field is continuous;
    far from the oval the enhancement underflows and the plateaus are
    reached exactly in float64.
    """
    mlat = np.asarray(mlat, dtype=np.float64)
    lc = oval_center(mlt, activity, params)
    w = oval_width(activity, params)
    peak = params.peak_log_flux_base + params.peak_log_flux_activity_gain * np.asarray(
        activity, dtype=np.float64
    )
    background = np.where(mlat <= lc, params.subauroral_background, params.polar_background)
    bump = np.exp(-0.5 * ((mlat - lc) / w) ** 2)
    return background + (peak - background) * bump


def region_field(mlat, mlt, activity, params: WorldParams) -> np.ndarray:
    """Region codes (Region values) for arrays of coordinates."""
    mlat = np.asarray(mlat, dtype=np.float64)
    lc = oval_center(mlt, activity, params)
    half = params.region_kappa * oval_width(activity, params)
    # both comparisons use the same delta so the three labels partition
    # every latitude sweep without float gaps at the band edges
    delta = mlat - lc
    out = np.full(np.broadcast(mlat, lc).shape, Region.SUBAURORAL.value, dtype=np.int8)
    out[np.abs(delta) <= half] = Region.AURORAL.value
    out[delta > half] = Region.POLAR.value
    return out


# ── Generators ────────────────────────────────────────────────────────

def gen_drivers(params: WorldParams, duration_s: float) -> DriverSeries:
    """Seeded OU sample paths for every driver variable.

    Each variable starts at its mean and follows
    x' = x + (mean - x) * dt/tau + volatility * sqrt(dt) * xi,
    with its own noise stream; one step advances every variable at once.
    Length is floor(duration / cadence) + 1.
    """
    if duration_s < params.cadence_s:
        raise ValueError("duration shorter than one cadence step")
    n = _series_length(duration_s, params.cadence_s, "driver")
    dt = params.cadence_s
    mean, tau, volatility = np.array([astuple(params.processes[name]) for name in DRIVER_NAMES]).T
    k = dt / tau
    children = np.random.SeedSequence([params.seed, 0]).spawn(len(DRIVER_NAMES))
    noise = np.array([np.random.default_rng(c).standard_normal(n - 1) for c in children])
    kicks = (volatility[:, None] * math.sqrt(dt) * noise).T.copy()  # a step's row is contiguous
    x = np.full((n, len(DRIVER_NAMES)), mean)
    for i in range(1, n):
        x[i] = x[i - 1] + (mean - x[i - 1]) * k + kicks[i - 1]
    return DriverSeries(t0=params.t0, cadence=params.cadence_s, values=x.T.copy())


def _series_length(span_s: float, cadence_s: float, what: str) -> int:
    """floor(span / cadence) + 1 samples; a MemoryError (exit 5) when no
    float64 array could hold that many."""
    steps = span_s / cadence_s
    if not steps < np.iinfo(np.intp).max // 8:
        raise MemoryError(f"{steps:.3g} {what} samples do not fit in any array")
    return int(math.floor(steps)) + 1


def _orbit_track(times: np.ndarray, sat_index: int, params: WorldParams):
    """Triangular MLAT sweep; MLT fixed per leg (ascending vs descending)."""
    phase0 = 0.17 + 0.31 * sat_index
    mlt_anchor = (22.0 + 7.3 * sat_index) % 24.0
    phase = (times / params.orbit_period_s + phase0) % 1.0
    tri = 1.0 - np.abs(2.0 * phase - 1.0)
    mlat = MLAT_MIN + (MLAT_MAX - MLAT_MIN) * tri
    precession = params.orbit_precession_h_per_day * times / 86400.0
    mlt_asc = (mlt_anchor + precession) % 24.0
    mlt = np.where(phase < 0.5, mlt_asc, (mlt_asc + 12.0) % 24.0)
    return mlat, mlt


def sample_traces(
    params: WorldParams,
    drivers: DriverSeries,
    obs_cadence_s: float | None = None,
) -> ObsTable:
    """Sample each satellite's track against the ground-truth field.

    Observation times run from t0 to the end of the driver series at the
    observation cadence; log-flux noise is Gaussian per sample with a
    seeded stream per satellite. Every satellite is drawn at once, as
    ``[n_sats, n_obs]`` arrays; rows are ordered by time, then satellite.
    A world whose log10 flux ``x`` gives no positive finite float64
    ``10**x`` is a ConfigError.
    """
    cad = params.obs_cadence_s if obs_cadence_s is None else float(obs_cadence_s)
    if cad <= 0:
        raise ValueError("obs cadence must be positive")
    n_obs = _series_length(drivers.t_end - drivers.t0, cad, "observation")
    times = drivers.t0 + cad * np.arange(n_obs)

    cf = drivers.column("NewellCF")[drivers.index_at(times)]
    a = activity_level(cf, params)

    sats = np.arange(params.n_sats)
    mlat, mlt = _orbit_track(times, sats[:, None], params)
    children = np.random.SeedSequence([params.seed, 1]).spawn(params.n_sats)
    noise = np.array([np.random.default_rng(c).standard_normal(n_obs) for c in children])
    logf = flux_field(mlat, mlt, a, params) + params.noise_sigma * noise
    # Python's scalar power, not np.power: the vectorised kernel rounds the
    # last bit differently on some inputs, and eflux is written to CSV. It
    # raises past float64's largest value and gives 0.0 below its smallest.
    try:
        eflux = np.array([10.0 ** x for x in logf.T.ravel().tolist()])
    except OverflowError:
        eflux = None
    if eflux is None or not np.all(eflux > 0):
        raise ConfigError(
            f"world.* values give log10 eflux in [{logf.min():g}, {logf.max():g}], "
            "where 10**x is not a positive finite float64"
        )
    return ObsTable(
        t=np.repeat(times, params.n_sats),
        sat_id=np.tile(sats, n_obs),
        mlat=mlat.T.ravel(),
        mlt=mlt.T.ravel(),
        eflux=eflux,
        region=region_field(mlat, mlt, a, params).T.ravel(),
    )


# ── Config binding ────────────────────────────────────────────────────

def world_params_from_config(cfg: Mapping[str, object], seed: int) -> WorldParams:
    """WorldParams from parsed config values (``config.load_config``) and a
    seed: ``world.<field>`` sets that field, the rest keep their defaults."""
    fields = {key.removeprefix("world."): v for key, v in cfg.items() if key.startswith("world.")}
    return bind(WorldParams, seed=seed, **fields)
