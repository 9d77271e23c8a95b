"""Mini-batch training: one loop for every model, and sparse-grid compositing.

``train_model`` runs one loop for all three architectures: shuffling,
Adam, one validation pass per epoch, and early stopping that keeps the
best validation epoch's parameters. ``losses.ARCH_LOSSES`` says which
loss trains which architecture. A per-architecture setup supplies the
training-row count, ``step_loss`` and ``validate`` closures, and the
mean training target, which the output bias starts at (not at 0), so
training starts at the scale of the data. Each setup fits an
``ingest.Normalization`` on its training inputs only and stores it as
``model.meta["normalization"]``. It keeps no normalized copy of those
inputs: ``step_loss`` normalizes its batch of raw rows as
``models.predict`` normalizes a prediction chunk, and validation
predicts through ``models.predict``, in the chunks ``eval`` and ``map``
use. Per-row loss inputs (dist weights, region indices) are fitted or
read once per training row, and a step passes its batch's entries. The
closures look up ops and forward passes by module attribute at call
time, so wrappers installed after import see every call.

Validation is ``losses.mse`` whatever the training loss, so runs with
different losses stay comparable: of the flux for point models (for
multitask, the selected region's), and of the conv decoder's observed
cells. glibc's ``malloc_trim`` returns the freed training heap first.

Conv-decoder targets live in one CSR table, ``SparseSamples``: per sample
the driver features, and the observed cells of its composite window as
ascending flat cell indices with their mean log10 flux. Training and
validation both read the table directly: a batch is a sub-table. Both run
the decoder at observed-cell ``positions`` only (``models.forward_convdecoder``
with ``cells``), which returns their values. A training step puts its
batch's values into NaN grids for ``losses.sparse_masked_loss_op``
(``autodiff.place_cells``), as ``perfbench/tracer.py`` counts a step's
samples as the loss input's first axis. Validation scores the values
``models.predict`` returns at ``positions`` with ``losses.mse``, with no
[n, n_lat, n_mlt] array. ``eval`` and ``map`` predict whole grids.

``train_config_from_config`` binds the ``train.*`` and loss keys of a run
config (``config`` lists them). History is emitted as
``epoch,train_loss,val_loss`` CSV.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import losses as L
from . import models as M
from .autodiff import Tape, Tensor, zero_grads
from .errors import ConfigError, DataError, TrainingDiverged, bind
from .geomodel import DriverSeries, GridMap, GridSpec, ObsTable, cells_of
from .ingest import FeatureSchema, FeatureTable, Normalization, has_history, write_csv
from .ingest import history_feature_rows
from .losses import LossSpec

COMPOSITE_HALF_WIDTH_S = 150.0


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int | None = None  # resolved per model: 4096 point, 16 conv
    max_epochs: int = 200
    patience: int = 10
    seed: int = 0
    loss: LossSpec = field(default_factory=LossSpec)

    def __post_init__(self):
        # config.KEYS bounds the other fields; --seed does not pass through it
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def resolved_batch_size(self, variant: str) -> int:
        if self.batch_size is not None:
            return self.batch_size
        return 16 if variant == "conv" else 4096


@dataclass
class SparseSample:
    """One conv-decoder training sample: global features + masked grid target."""

    t_center: float
    features: np.ndarray
    target: GridMap


@dataclass(eq=False)
class SparseSamples:
    """Conv-decoder samples as one CSR table on a GridSpec.

    Sample i has driver features ``features[i]`` and observes the flat
    cells (row * n_mlt + col) ``cells[offsets[i]:offsets[i + 1]]``, in
    ascending order, with mean log10 flux ``values`` at the same
    positions. ``positions`` gives each observed cell's flat position in
    the stacked ``[len, n_lat, n_mlt]`` grids, in the same CSR order,
    which is the order a boolean mask over those grids reads. A slice,
    boolean mask or index array selects a sub-table. ``len``, iteration
    and ``table[i]`` give ``SparseSample`` views with a dense ``GridMap``
    target; they exist for tests and ``perfbench/tracer.py``.
    """

    spec: GridSpec
    t_center: np.ndarray
    features: np.ndarray
    cells: np.ndarray
    values: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        n = self.t_center.size
        counts = np.diff(self.offsets)
        if self.offsets.shape != (n + 1,) or self.offsets[0] != 0 or len(self.features) != n:
            raise ValueError("sparse sample table has inconsistent lengths")
        if self.cells.size != self.offsets[-1] or self.values.size != self.cells.size:
            raise ValueError("sparse sample table has inconsistent lengths")
        if np.any(counts < 1):
            raise ValueError("sparse sample must have at least one observed cell")
        n_cells = self.spec.n_lat * self.spec.n_mlt
        if np.any((self.cells < 0) | (self.cells >= n_cells)):
            raise ValueError("cell index outside the grid")
        if np.any(np.diff(self.positions) <= 0):
            raise ValueError("cells must ascend within each sample")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite sample value")

    def __len__(self) -> int:
        return self.t_center.size

    @property
    def positions(self) -> np.ndarray:
        n_cells = self.spec.n_lat * self.spec.n_mlt
        return np.repeat(np.arange(len(self)), np.diff(self.offsets)) * n_cells + self.cells

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            i = range(len(self))[key]
            run = slice(self.offsets[i], self.offsets[i + 1])
            shape = (self.spec.n_lat, self.spec.n_mlt)
            values, mask = np.zeros(shape), np.zeros(shape, dtype=bool)
            values.flat[self.cells[run]] = self.values[run]
            mask.flat[self.cells[run]] = True
            target = GridMap(spec=self.spec, values=values, mask=mask)
            return SparseSample(float(self.t_center[i]), self.features[i], target)
        idx = np.arange(len(self))[key]
        starts, counts = self.offsets[idx], np.diff(self.offsets)[idx]
        _, pos = _runs(starts, counts)
        return SparseSamples(
            spec=self.spec,
            t_center=self.t_center[idx],
            features=self.features[idx],
            cells=self.cells[pos],
            values=self.values[pos],
            offsets=np.concatenate([[0], np.cumsum(counts)]),
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def _runs(starts: np.ndarray, lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions of the runs [starts[i], starts[i] + lens[i]), run
    after run, and the run each position belongs to."""
    run_of = np.repeat(np.arange(lens.size), lens)
    first = np.cumsum(lens) - lens
    return run_of, np.arange(lens.sum()) + np.repeat(starts - first, lens)


# ── Adam ──────────────────────────────────────────────────────────────

@dataclass
class AdamState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState,
    config: TrainConfig,
) -> AdamState:
    """Standard bias-corrected Adam update, applied in place."""
    state.step += 1
    t = state.step
    for name in sorted(params):
        p = params[name]
        g = grads[name]
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        state.m[name] = config.beta1 * state.m[name] + (1 - config.beta1) * g
        state.v[name] = config.beta2 * state.v[name] + (1 - config.beta2) * g * g
        m_hat = state.m[name] / (1 - config.beta1**t)
        v_hat = state.v[name] / (1 - config.beta2**t)
        p.data = p.data - (config.lr * m_hat / (np.sqrt(v_hat) + config.eps)).astype(p.data.dtype)
    return state


# ── Sparse compositing ────────────────────────────────────────────────

def _composite(obs: ObsTable, t_centers: np.ndarray, spec: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Composite the closed window of ``COMPOSITE_HALF_WIDTH_S`` around
    every center in one pass.

    Returns (cells, values, n_cells_per_window) in CSR order. Each
    (window, cell) key collects its observations in time order, and
    ``bincount`` adds them in that order, as ``np.add.at`` would.
    """
    order = np.argsort(obs.t, kind="stable")
    t = obs.t[order]
    rows, cols = cells_of(obs.mlat[order], obs.mlt[order], spec)
    logf = np.log10(obs.eflux[order])
    lo = np.searchsorted(t, t_centers - COMPOSITE_HALF_WIDTH_S, side="left")
    hi = np.searchsorted(t, t_centers + COMPOSITE_HALF_WIDTH_S, side="right")
    window_of, pos = _runs(lo, np.maximum(hi - lo, 0))
    n_cells = spec.n_lat * spec.n_mlt
    keys, inverse = np.unique(
        window_of * n_cells + (rows * spec.n_mlt + cols)[pos], return_inverse=True
    )
    values = np.bincount(inverse, weights=logf[pos]) / np.bincount(inverse)
    per_window = np.bincount(keys // n_cells, minlength=t_centers.size)
    return keys % n_cells, values, per_window


def build_sparse_samples(
    drivers: DriverSeries, obs: ObsTable, schema: FeatureSchema, spec: GridSpec
) -> tuple[SparseSamples, int]:
    """One sample per driver time step that ``has_history`` accepts and
    whose window is non-empty; returns (samples, n_skipped_empty). Features
    are computed for those samples' centers only."""
    t_centers = drivers.times[has_history(drivers, drivers.times, schema)]
    cells, values, per_window = _composite(obs, t_centers, spec)
    keep = per_window > 0
    samples = SparseSamples(
        spec=spec,
        t_center=t_centers[keep],
        features=history_feature_rows(drivers, t_centers[keep], schema),
        cells=cells,
        values=values,
        offsets=np.concatenate([[0], np.cumsum(per_window[keep])]),
    )
    return samples, int((~keep).sum())


# ── Training loop ─────────────────────────────────────────────────────

# Freed training-step heap that glibc keeps below a live chunk stays resident,
# and validation allocates on top of it; a trim keeps peak RSS off that layout.
try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):  # a C library without it
    def _malloc_trim(pad: int) -> int:
        return 0


@dataclass
class History:
    epochs: list[tuple[int, float, float]] = field(default_factory=list)
    best_epoch: int = -1
    best_val: float = math.inf

    def record(self, epoch: int, train_loss: float, val_loss: float) -> bool:
        self.epochs.append((epoch, train_loss, val_loss))
        if val_loss < self.best_val:
            self.best_val = val_loss
            self.best_epoch = epoch
            return True
        return False


def _check_finite(value: float, epoch: int, batch: int, history: History):
    if not math.isfinite(value):
        raise TrainingDiverged(
            f"non-finite loss {value} at epoch {epoch}, batch {batch}",
            epoch=epoch,
            batch=batch,
            history=history.epochs,
        )


def _point_setup(
    model: M.Model, train_table: FeatureTable, val_table: FeatureTable, spec: LossSpec
):
    """(n_train, step_loss, validate, base level) for a baseline or multitask model."""
    if spec.variant == "multitask" and train_table.region is None:
        raise ConfigError("multitask loss requires region labels")
    if train_table.n == 0 or val_table.n == 0:
        raise DataError("empty train or validation set")

    norm = Normalization.fit(train_table.rows)
    model.meta["normalization"] = norm.to_meta()
    y_train = train_table.target
    try:
        dist_w = L.dist_weights(y_train, spec.dist_bins) if spec.variant == "dist" else None
    except ValueError as exc:
        raise DataError(f"loss = dist needs two distinct training targets: {exc}") from None

    def step_loss(tape: Tape, idx: np.ndarray, dropout_rng) -> Tensor:
        x, y = norm.apply(train_table.rows[idx]), y_train[idx]
        if spec.variant == "multitask":
            logits, flux, _ = M.forward_multitask(model.arch, model.params, x, tape, True, dropout_rng)
            return L.multitask_loss_op(tape, flux, logits, y, train_table.region[idx], spec.lambda_cce)
        pred = M.forward_baseline(model.arch, model.params, x, tape, True, dropout_rng)
        if spec.variant == "tail":
            return L.tail_loss_op(tape, pred, y, spec.tail_terms)
        if spec.variant == "dist":
            return L.dist_loss_op(tape, pred, y, dist_w[idx])
        return L.mse_op(tape, pred, y)

    def validate() -> float:
        return L.mse(val_table.target, M.predict(model, val_table.rows)[0])

    return train_table.n, step_loss, validate, float(np.mean(y_train))


def _conv_setup(
    model: M.Model, train_samples: SparseSamples, val_samples: SparseSamples, spec: LossSpec
):
    """(n_train, step_loss, validate, base level) for the conv decoder."""
    if not len(train_samples) or not len(val_samples):
        raise DataError("empty train or validation sample list")

    norm = Normalization.fit(train_samples.features)
    model.meta["normalization"] = norm.to_meta()

    def step_loss(tape: Tape, idx: np.ndarray, dropout_rng) -> Tensor:
        batch = train_samples[idx]
        positions = batch.positions
        x = norm.apply(batch.features)
        pred = M.forward_convdecoder(model.arch, model.params, x, tape, True, dropout_rng, cells=positions)
        grids = ad.place_cells(pred, positions, (len(batch), model.arch.n_lat, model.arch.n_mlt), tape)
        return L.sparse_masked_loss_op(tape, grids, positions, batch.values, spec.masked_normalize)

    def validate() -> float:
        return L.mse(val_samples.values, M.predict(model, val_samples.features, val_samples.positions)[0])

    return len(train_samples), step_loss, validate, float(np.mean(train_samples.values))


def train_model(model: M.Model, data, config: TrainConfig) -> tuple[M.Model, History]:
    """Train ``model`` on ``data = (train, validation)`` and return it with
    the parameters of its best validation epoch.

    Point models take two ``FeatureTable``s, the conv decoder two
    ``SparseSamples`` tables; ``config.loss`` must pair with the model's
    architecture (``losses.ARCH_LOSSES``).
    """
    L.check_pairing(model.variant, config.loss.variant)
    setup = _conv_setup if model.variant == "conv" else _point_setup
    n, step_loss, validate, base = setup(model, *data, config.loss)

    ss = np.random.SeedSequence([config.seed, 3])
    shuffle_rng, dropout_rng = (np.random.default_rng(c) for c in ss.spawn(2))
    M.warm_start_output(model, base)
    state = AdamState()
    history = History()
    best_blob = model.clone_param_data()
    batch_size = config.resolved_batch_size(model.variant)
    stale = 0

    for epoch in range(config.max_epochs):
        order = shuffle_rng.permutation(n)
        batch_losses = []
        for b0 in range(0, n, batch_size):
            tape = Tape()
            loss = step_loss(tape, order[b0 : b0 + batch_size], dropout_rng)
            _check_finite(float(loss.data), epoch, b0 // batch_size, history)
            tape.backward(loss)
            grads = {k: v.grad for k, v in model.params.items()}
            adam_step(model.params, grads, state, config)
            zero_grads(model.params.values())
            batch_losses.append(float(loss.data))

        _malloc_trim(0)
        val_loss = validate()
        _check_finite(val_loss, epoch, -1, history)
        if history.record(epoch, float(np.mean(batch_losses)), val_loss):
            best_blob = model.clone_param_data()
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    model.load_param_data(best_blob)
    return model, history


# ── Run config ────────────────────────────────────────────────────────

def train_config_from_config(cfg, seed_override: int | None = None) -> TrainConfig:
    """TrainConfig from parsed config values: ``train.<field>`` sets that
    field, and ``seed_override`` (``train --seed``) wins over ``train.seed``."""
    fields = {key.removeprefix("train."): v for key, v in cfg.items() if key.startswith("train.")}
    if seed_override is not None:
        fields["seed"] = seed_override
    return bind(TrainConfig, loss=LossSpec.from_config(cfg), **fields)


def write_history_csv(history: History, path):
    columns = [[epoch[k] for epoch in history.epochs] for k in range(3)]
    write_csv(path, ("epoch", "train_loss", "val_loss"), columns)
