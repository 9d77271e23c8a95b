"""The three architectures as parameter containers with forward semantics.

Every model takes its input one way: raw feature rows, z-scored by the
model's stored ``Normalization``, enter one dense ReLU trunk (widths
``arch.trunk``, 50% dropout after the first layer), and a head follows.

  baseline   trunk input -> 2*input -> 64 -> 32 -> 256 -> 1024 -> 256 -> 64
             (the ``hidden`` field), linear scalar output.
  multitask  the same trunk with two heads: a 3-way region classifier
             (its logits; the loss applies the softmax) and a 3-wide
             regression head (one flux output per region); the reported
             flux is the head selected by the predicted class.
  conv       trunk input -> 256 -> 64 -> 32, a dense layer reshaped to a
             coarse square grid, two strided transposed convolutions (x2
             then x4), dropout, a periodic pad of the MLT axis (plus zero
             pad in latitude), and a final valid convolution that restores
             the exact grid size. Takes no spatial inputs; predicts the
             whole grid, or the values at listed cells of it only
             (``forward_convdecoder``).

A checkpoint is a ``container`` file of kind ``checkpoint`` (the layout
is described there): the variant, the architecture fields and the
metadata in its header, and one float32 array per parameter.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from . import container
from .autodiff import Tape, Tensor
from .errors import ConfigError, DataError, bind
from .geomodel import GridSpec
from .ingest import SPATIAL_NAMES, Normalization


def _check_trunk(arch):
    """The rules every architecture's dense trunk shares."""
    if arch.input_width < 1:
        raise ValueError("input_width must be >= 1")
    if any(w < 1 for w in arch.trunk):
        raise ValueError("all layer widths must be >= 1")
    if not 0.0 <= arch.dropout_rate < 1.0:
        raise ValueError("dropout_rate must be in [0, 1)")


@dataclass(frozen=True)
class BaselineArch:
    input_width: int
    hidden: tuple[int, ...] = ()
    dropout_rate: float = 0.5

    def __post_init__(self):
        if not self.hidden:
            object.__setattr__(self, "hidden", default_hidden(self.input_width))
        _check_trunk(self)

    @property
    def trunk(self) -> tuple[int, ...]:
        return self.hidden


def default_hidden(input_width: int) -> tuple[int, ...]:
    return (2 * input_width, 64, 32, 256, 1024, 256, 64)


@dataclass(frozen=True)
class MultiTaskArch:
    input_width: int
    trunk: tuple[int, ...] = ()
    n_regions: int = 3
    dropout_rate: float = 0.5

    def __post_init__(self):
        if not self.trunk:
            object.__setattr__(self, "trunk", default_hidden(self.input_width))
        _check_trunk(self)
        if self.n_regions < 2:
            raise ValueError("need at least two regions")


@dataclass(frozen=True)
class ConvDecoderArch:
    """Dense trunk to a coarse grid, upsampled by two transposed convs.

    The reshape side is n_mlt / (stride1 * stride2); the final valid
    convolution needs kernel = 2 * overlap + 1 so the padded width comes
    back to exactly n_mlt (and likewise for the zero-padded latitude axis).
    The periodic pad wraps ``overlap`` columns, so it must be below n_mlt.
    """

    input_width: int
    trunk: tuple[int, ...] = (256, 64, 32)
    n_lat: int = 128
    n_mlt: int = 128
    filters: tuple[int, int] = (4, 4)
    kernels: tuple[int, int] = (9, 5)
    strides: tuple[int, int] = (2, 4)
    final_kernel: int = 7
    overlap: int = 3
    dropout_rate: float = 0.5

    def __post_init__(self):
        _check_trunk(self)
        if self.n_lat != self.n_mlt:
            raise ValueError("decoder currently requires a square grid")
        self.spec  # GridSpec's rules hold for the grid: at least 4x4
        s = self.strides[0] * self.strides[1]
        if self.n_mlt % s != 0:
            raise ValueError(f"grid size {self.n_mlt} not divisible by stride product {s}")
        if self.kernels[0] < self.strides[0] or self.kernels[1] < self.strides[1]:
            raise ValueError("kernel must be at least as large as its stride")
        if self.final_kernel != 2 * self.overlap + 1:
            raise ValueError("final kernel must equal 2*overlap + 1 to restore grid size")
        if self.overlap >= self.n_mlt:
            raise ValueError(f"overlap {self.overlap} must be smaller than the grid size {self.n_mlt}")

    @property
    def side(self) -> int:
        return self.n_mlt // (self.strides[0] * self.strides[1])

    @property
    def spec(self) -> GridSpec:
        return GridSpec(n_lat=self.n_lat, n_mlt=self.n_mlt)


Arch = BaselineArch | MultiTaskArch | ConvDecoderArch

_VARIANT_OF = {BaselineArch: "baseline", MultiTaskArch: "multitask", ConvDecoderArch: "conv"}
_ARCH_OF = {variant: cls for cls, variant in _VARIANT_OF.items()}


@dataclass
class Model:
    """Architecture + parameter tensors + training metadata."""

    arch: Arch
    params: dict[str, Tensor]
    meta: dict = field(default_factory=dict)

    @property
    def variant(self) -> str:
        return _VARIANT_OF[type(self.arch)]

    def clone_param_data(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self.params.items()}

    def load_param_data(self, blobs: dict[str, np.ndarray]):
        for k, v in blobs.items():
            self.params[k].data = v.copy()


# ── Initialization ────────────────────────────────────────────────────

def param_shapes(arch: Arch) -> dict[str, tuple[int, ...]]:
    """Parameter shapes in init order: the dense trunk, then the head."""
    widths = (arch.input_width, *arch.trunk)
    shapes: dict[str, tuple[int, ...]] = {}
    for i in range(len(widths) - 1):
        shapes[f"dense{i}.w"] = (widths[i], widths[i + 1])
        shapes[f"dense{i}.b"] = (widths[i + 1],)
    top = widths[-1]
    if isinstance(arch, BaselineArch):
        shapes["out.w"] = (top, 1)
        shapes["out.b"] = (1,)
    elif isinstance(arch, MultiTaskArch):
        for head in ("head_class", "head_flux"):
            shapes[f"{head}.w"] = (top, arch.n_regions)
            shapes[f"{head}.b"] = (arch.n_regions,)
    else:
        shapes["to_grid.w"] = (top, arch.side * arch.side)
        shapes["to_grid.b"] = (arch.side * arch.side,)
        f1, f2 = arch.filters
        k1, k2 = arch.kernels
        shapes["deconv1.k"] = (1, f1, k1, k1)
        shapes["deconv1.b"] = (f1,)
        shapes["deconv2.k"] = (f1, f2, k2, k2)
        shapes["deconv2.b"] = (f2,)
        shapes["final.k"] = (1, f2, arch.final_kernel, arch.final_kernel)
        shapes["final.b"] = (1,)
    return shapes


def init_params(arch: Arch, seed: int = 0, dtype=np.float32) -> dict[str, Tensor]:
    """He-style init for ReLU-fed weights, smaller scale for linear outputs."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 2]))
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(arch).items():
        if name.endswith(".b"):
            data = np.zeros(shape)
        elif name.endswith(".k"):
            # transposed-conv kernels store c_in first, the plain conv kernel c_out
            c_in = shape[0] if name.startswith("deconv") else shape[1]
            fan_in = c_in * shape[2] * shape[3]
            data = rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)
        else:
            fan_in = shape[0]
            gain = 1.0 if name.startswith(("out", "head", "to_grid")) else 2.0
            data = rng.standard_normal(shape) * np.sqrt(gain / fan_in)
        params[name] = Tensor(data.astype(dtype))
    return params


def build_model(arch: Arch, seed: int = 0, dtype=np.float32, meta: dict | None = None) -> Model:
    return Model(arch=arch, params=init_params(arch, seed, dtype), meta=meta or {})


def warm_start_output(model: Model, base_level: float):
    """Set the regression output bias to a base level (typically the mean
    training target) so optimization starts at the right scale."""
    name = {
        "baseline": "out.b",
        "multitask": "head_flux.b",
        "conv": "final.b",
    }[model.variant]
    tensor = model.params[name]
    tensor.data[:] = np.asarray(base_level, dtype=tensor.data.dtype)


# ── Forward passes ────────────────────────────────────────────────────

def _trunk(arch: Arch, params: dict[str, Tensor], x, tape, training, dropout_rng) -> Tensor:
    """The shared entry of every forward pass: ``x`` [n, input_width] in
    the parameters' dtype, through the dense ReLU layers of ``arch.trunk``,
    with dropout after the first."""
    dtype = next(iter(params.values())).data.dtype
    if isinstance(x, Tensor):
        h = x if x.data.dtype == dtype else Tensor(x.data.astype(dtype))
    else:
        h = Tensor(np.asarray(x, dtype=dtype))
    if h.data.ndim != 2 or h.shape[1] != arch.input_width:
        raise ValueError(f"expected input [n, {arch.input_width}], got {h.shape}")
    for i in range(len(arch.trunk)):
        h = ad.dense(h, params[f"dense{i}.w"], params[f"dense{i}.b"], tape)
        h = ad.relu(h, tape)
        if i == 0 and arch.dropout_rate > 0:
            h = ad.dropout(h, arch.dropout_rate, training, dropout_rng, tape)
    return h


def forward_baseline(
    arch: BaselineArch,
    params: dict[str, Tensor],
    x,
    tape: Tape | None = None,
    training: bool = False,
    dropout_rng=None,
) -> Tensor:
    """Point-wise flux regression: returns a [n] tensor of log10 flux."""
    h = _trunk(arch, params, x, tape, training, dropout_rng)
    y = ad.dense(h, params["out.w"], params["out.b"], tape)
    return ad.reshape(y, (h.shape[0],), tape)


def forward_multitask(
    arch: MultiTaskArch,
    params: dict[str, Tensor],
    x,
    tape: Tape | None = None,
    training: bool = False,
    dropout_rng=None,
) -> tuple[Tensor, Tensor, np.ndarray]:
    """Returns (class_logits [n,3], region_flux [n,3], selected_flux [n]).

    selected_flux picks, per row, the regression head at the argmax class
    logit, the most probable class; ties break to the lowest class index.
    """
    h = _trunk(arch, params, x, tape, training, dropout_rng)
    logits = ad.dense(h, params["head_class.w"], params["head_class.b"], tape)
    flux = ad.dense(h, params["head_flux.w"], params["head_flux.b"], tape)
    selected = flux.data[np.arange(flux.shape[0]), np.argmax(logits.data, axis=1)]
    return logits, flux, selected


def forward_convdecoder(
    arch: ConvDecoderArch,
    params: dict[str, Tensor],
    x,
    tape: Tape | None = None,
    training: bool = False,
    dropout_rng=None,
    cells=None,
) -> Tensor:
    """One [n_lat, n_mlt] grid per input row of global features, or, with
    ``cells``, only the grids' values there.

    ``cells`` lists flat positions in the stacked [n, n_lat, n_mlt] grids
    (a batch's observed cells); the result is [cells], the values at the
    unique cells in ascending order. The trunk, ``to_grid`` and deconv1
    still run dense. From deconv2 on, the decoder runs only at the deconv2
    output sites that the final convolution reads at the cells, their
    ``final_kernel`` square windows (``_receptive_field``): deconv2, its
    bias, ReLU and dropout on a compact [sites, channels] array, then the
    periodic and zero pads as each cell's window of those sites, and the
    final convolution at the cells. The values are the bits of the dense
    forward at the cells; dropout draws the dense grid's mask.
    """
    h = _trunk(arch, params, x, tape, training, dropout_rng)
    n = h.shape[0]
    h = ad.dense(h, params["to_grid.w"], params["to_grid.b"], tape)
    h = ad.reshape(h, (n, 1, arch.side, arch.side), tape)
    h = ad.conv2d_transpose(h, params["deconv1.k"], arch.strides[0], tape)
    h = ad.add_channel_bias(h, params["deconv1.b"], tape)
    h = ad.relu(h, tape)
    grid = (n, arch.n_lat, arch.n_mlt)
    if cells is None:
        h = ad.conv2d_transpose(h, params["deconv2.k"], arch.strides[1], tape)
        h = ad.add_channel_bias(h, params["deconv2.b"], tape)
        h = ad.relu(h, tape)
        h = ad.dropout(h, arch.dropout_rate, training, dropout_rng, tape)
        h = ad.pad_periodic_mlt(h, arch.overlap, tape)
        h = ad.pad_zero_lat(h, arch.overlap, tape)
        h = ad.conv2d(h, params["final.k"], tape)
        h = ad.add_channel_bias(h, params["final.b"], tape)
        return ad.reshape(h, grid, tape)
    cells, sites, windows = _receptive_field(arch, grid, cells)
    h = ad.conv2d_transpose(h, params["deconv2.k"], arch.strides[1], tape, sites)
    h = ad.add_channel_bias(h, params["deconv2.b"], tape)
    h = ad.relu(h, tape)
    h = ad.dropout(h, arch.dropout_rate, training, dropout_rng, tape, sites, grid)
    h = ad.window_sites(h, windows, tape)
    h = ad.conv2d(h, params["final.k"], tape)
    h = ad.add_channel_bias(h, params["final.b"], tape)
    return ad.reshape(h, (cells.size,), tape)


def _receptive_field(arch: ConvDecoderArch, grid, cells):
    """(cells, sites, windows) for the final convolution at ``cells``.

    ``cells`` comes back sorted and unique. ``sites`` are the ascending
    flat positions in ``grid`` of the deconv2 outputs that the final
    convolution reads there: each cell's window of ``final_kernel`` rows
    and columns around it, the columns (MLT) wrapping around the grid and
    the rows (latitude) beyond its edges left out. ``windows`` [cells,
    final_kernel, final_kernel] indexes ``sites`` per window tap, with -1
    at the zero-padded rows (``autodiff.window_sites``).
    """
    ad.unravel_cells(cells, grid, "cells")
    cells = np.sort(cells)
    cells = cells[np.diff(cells, prepend=-1) != 0]
    sample, row, col = np.unravel_index(cells, grid)
    reach = np.arange(-arch.overlap, arch.overlap + 1)
    rows = row[:, None, None] + reach[:, None]
    cols = (col[:, None, None] + reach) % arch.n_mlt
    flat = (sample[:, None, None] * arch.n_lat + rows) * arch.n_mlt + cols
    inside = np.broadcast_to((rows >= 0) & (rows < arch.n_lat), flat.shape)
    sites, at = np.unique(flat[inside], return_inverse=True)
    windows = np.full(flat.shape, -1)
    windows[inside] = at
    return cells, sites, windows


def assert_global_only(feature_names):
    """The conv decoder must not see spatial inputs; reject schemas that do."""
    bad = [n for n in feature_names if n in SPATIAL_NAMES]
    if bad:
        raise ConfigError(
            f"conv decoder takes no spatial inputs, found {', '.join(bad)} in schema"
        )


def predict_point(model: Model, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """(flux [n], region [n]) for normalized feature rows; the region, the
    argmax of the class logits, is None for the baseline."""
    if isinstance(model.arch, BaselineArch):
        return forward_baseline(model.arch, model.params, rows).data.astype(np.float64), None
    logits, _, selected = forward_multitask(model.arch, model.params, rows)
    return selected.astype(np.float64), np.argmax(logits.data, axis=1)


# Bytes that the widest activation of one prediction chunk may take.
PREDICT_BYTES = 64 << 20


def predict_chunks(model: Model, raw_rows: np.ndarray, positions=None):
    """Yield ``(rows, pred, region)`` for consecutive slices ``rows`` of
    ``raw_rows``, as ``predict`` describes; conv grids stay float32.

    ``positions`` (conv decoder only) lists strictly ascending flat
    positions in the stacked [n, n_lat, n_mlt] grids of all the rows.
    Each chunk's ``pred`` is then the float32 values at its own positions
    only, in their order (``forward_convdecoder``'s ``cells``), so the
    chunks' values concatenate to one value per position.
    """
    arch, width = model.arch, model.arch.input_width
    norm = Normalization.from_meta(model.meta.get("normalization", {}), width)
    if raw_rows.shape[1] != width:
        raise DataError(f"checkpoint normalizes {width} features, each input row has {raw_rows.shape[1]}")
    widest = max((width, *arch.trunk))
    if isinstance(arch, ConvDecoderArch):
        mid = arch.side * arch.strides[0]
        padded = (arch.n_lat + 2 * arch.overlap) * (arch.n_mlt + 2 * arch.overlap)
        widest = max(widest, arch.filters[0] * mid * mid, arch.filters[1] * padded)
    # The fewest chunks within the budget, of near-equal size: a one-row
    # chunk would take numpy's matrix-vector path, which rounds differently.
    n = len(raw_rows)
    k = -(-n // max(1, PREDICT_BYTES // (4 * widest)))
    for i in range(k):
        rows = slice(i * n // k, (i + 1) * n // k)
        x = norm.apply(raw_rows[rows])
        if not isinstance(arch, ConvDecoderArch):
            yield rows, *predict_point(model, x)
        elif positions is None:
            yield rows, forward_convdecoder(arch, model.params, x).data, None
        else:
            n_cells = arch.n_lat * arch.n_mlt
            first, stop = np.searchsorted(positions, (rows.start * n_cells, rows.stop * n_cells))
            cells = positions[first:stop] - rows.start * n_cells
            yield rows, forward_convdecoder(arch, model.params, x, None, False, None, cells).data, None


def predict(model: Model, raw_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """(pred, region) for unnormalized feature rows: float64 log10 flux,
    [n] for a point model and [n, n_lat, n_mlt] for the conv decoder, and
    the multitask model's predicted region [n] (None for the others).

    The rows are z-scored with the model's stored ``Normalization`` and run
    through ``predict_point`` or ``forward_convdecoder`` in chunks of at
    most ``PREDICT_BYTES`` divided by the float32 bytes of one row's widest
    activation rows: 16,384 for the default point trunk's 1,024-wide layer,
    233 for the 128x128 conv decoder's 4x134x134 padded grid. Statistics
    or rows of another width are a DataError.
    """
    arch, n = model.arch, len(raw_rows)
    pred = np.empty((n, arch.n_lat, arch.n_mlt) if isinstance(arch, ConvDecoderArch) else n)
    region = np.empty(n, dtype=np.int64) if isinstance(arch, MultiTaskArch) else None
    for rows, chunk_pred, chunk_region in predict_chunks(model, raw_rows):
        pred[rows] = chunk_pred
        if region is not None:
            region[rows] = chunk_region
    return pred, region


# ── Checkpoints ───────────────────────────────────────────────────────

_CHECKPOINT_KIND = "checkpoint"


def save_checkpoint(model: Model, path):
    """Write ``model`` as a ``checkpoint`` container: the variant, the
    arch fields and ``model.meta`` in the header, float32 parameters."""
    meta = {
        "variant": model.variant,
        "arch": asdict(model.arch),
        "meta": model.meta,
    }
    arrays = {name: (tensor.data, "<f4") for name, tensor in sorted(model.params.items())}
    container.write(path, _CHECKPOINT_KIND, meta, arrays)


def load_checkpoint(path) -> Model:
    """Load a checkpoint written by ``save_checkpoint``; the parameters
    must have exactly the names and shapes the architecture declares."""
    meta, arrays = container.read(path, _CHECKPOINT_KIND, "auroracast train")
    try:
        fields = {k: tuple(v) if isinstance(v, list) else v for k, v in meta["arch"].items()}
        arch = _ARCH_OF[meta["variant"]](**fields)
        model_meta = meta["meta"]
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DataError(f"{path}: corrupt checkpoint architecture ({exc!r})") from None
    expected = param_shapes(arch)
    if set(expected) != set(arrays):
        raise DataError(f"{path}: parameter names do not match declared architecture")
    for name, shape in expected.items():
        if arrays[name].shape != shape:
            raise DataError(
                f"{path}: declared-shape mismatch for {name}: "
                f"{arrays[name].shape} vs {shape}"
            )
    params = {name: Tensor(data.astype(np.float32)) for name, data in arrays.items()}
    return Model(arch=arch, params=params, meta=model_meta)


def arch_kind(cfg) -> str:
    """The configured architecture: ``arch``, or ``baseline`` when unset."""
    return cfg.get("arch", "baseline")


def arch_from_config(cfg, input_width: int) -> Arch:
    """Construct the configured architecture for a given feature width from
    parsed config values (``config.load_config``); an unset key keeps the
    arch class's default."""
    kind = arch_kind(cfg)
    fields: dict = {"input_width": input_width}
    if "arch.dropout" in cfg:
        fields["dropout_rate"] = cfg["arch.dropout"]
    if "arch.hidden" in cfg:
        fields["hidden" if kind == "baseline" else "trunk"] = cfg["arch.hidden"]
    if kind == "conv":
        for key in ("arch.filters", "arch.kernels", "arch.strides", "arch.overlap"):
            if key in cfg:
                fields[key.removeprefix("arch.")] = cfg[key]
        if "arch.grid" in cfg:
            fields["n_lat"] = fields["n_mlt"] = cfg["arch.grid"]
        if "overlap" in fields:
            fields["final_kernel"] = 2 * fields["overlap"] + 1
    return bind(_ARCH_OF[kind], **fields)
