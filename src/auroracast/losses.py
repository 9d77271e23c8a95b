"""The five training losses, each one fused autodiff operation.

All losses act in log10 target space. An operation returns the loss as a
0-d Tensor and, given a Tape, records one backward closure with the
hand-derived gradient; with ``tape=None`` it only computes the value.
mse, tail and dist are one kernel, the mean of w * (y_pred - y_true)**2:

  mse            w = 1
  tail           w = 1 + sum of active penalty terms; a term (a, y_r) is
                 active when y_true > y_r and y_pred < y_r, so only
                 under-predicted high values pay. The indicator is held
                 constant in the gradient.
  dist           w = the row's ``dist_weights`` entry: the inverse
                 (count+1) weight of the training-histogram bin holding
                 its target, fitted once on the training rows
  multitask      squared error of the region head that the logits' argmax
                 selects, plus a fused log-softmax cross-entropy of the
                 logits against each row's true region index
  sparse_masked  squared error summed over the observed grid cells only,
                 given as flat positions with their target values;
                 unobserved cells contribute zero loss and zero gradient

``mse`` is also the numpy metric that validation and evaluation report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Tensor, _accumulate
from .errors import ConfigError, bind
from .stats import as_1d_pair, uniform_bin_index


@dataclass(frozen=True)
class TailTerm:
    """One penalty term: multiplier ``a`` active at threshold ``y_r``."""

    a: float
    y_r: float

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError(f"tail multiplier must be positive, got {self.a}")


DEFAULT_TAIL_TERMS = (
    TailTerm(2.5, 12.0),
    TailTerm(5.0, 12.5),
    TailTerm(10.0, 13.0),
    TailTerm(10.0, 13.25),
    TailTerm(10.0, 13.5),
)


def dist_weights(y_train: np.ndarray, n_bins: int = 50) -> np.ndarray:
    """One float64 weight per target, ``1 / ((count + 1) * n)``: ``count``
    of the ``n`` targets share its bin, of ``n_bins`` equal-width bins over
    [min, max]. The dist loss weights each training row by its entry."""
    y = np.asarray(y_train, dtype=np.float64)
    if y.size < 2:
        raise ValueError("need at least two training targets")
    lo, hi = float(y.min()), float(y.max())
    if not hi > lo:
        raise ValueError("degenerate target range (min == max)")
    idx = uniform_bin_index(y, lo, hi, n_bins)
    return (1.0 / ((np.bincount(idx, minlength=n_bins) + 1.0) * y.size))[idx]


# ── Metric and fused autodiff operations ──────────────────────────────

def mse(y_true, y_pred) -> float:
    t, p = as_1d_pair(y_true, y_pred)
    return float(np.mean((t - p) ** 2))


def tail_factors(y_true, y_pred, terms) -> np.ndarray:
    """Per-sample multiplier 1 + sum of active term amplitudes."""
    t = np.asarray(y_true, dtype=np.float64)
    p = np.asarray(y_pred, dtype=np.float64)
    factors = np.ones_like(t)
    for term in terms:
        factors += term.a * ((t > term.y_r) & (p < term.y_r))
    return factors


def _flat_target(name: str, y_pred: Tensor, y_true, dtype) -> np.ndarray:
    t = np.asarray(y_true, dtype=dtype).ravel()
    if t.size != y_pred.data.size or t.size == 0:
        raise ValueError(f"{name}: bad lengths")
    return t


def _weighted_se(tape: Tape | None, y_pred: Tensor, t: np.ndarray, w) -> Tensor:
    """Mean of ``(pred - t)**2 * w`` over the flattened prediction; ``t`` and
    the per-sample weights ``w`` (1.0 for mse) are in the prediction dtype."""
    diff = y_pred.data.ravel() - t
    out = Tensor(np.array(np.mean(diff**2 * w), dtype=y_pred.data.dtype))

    if tape is not None:
        def backward():
            _accumulate(y_pred, (out.grad * 2.0 * diff * w / t.size).reshape(y_pred.shape))

        tape.record(out, backward)
    return out


def mse_op(tape: Tape | None, y_pred: Tensor, y_true: np.ndarray) -> Tensor:
    t = _flat_target("mse_op", y_pred, y_true, y_pred.data.dtype)
    return _weighted_se(tape, y_pred, t, 1.0)


def tail_loss_op(
    tape: Tape | None, y_pred: Tensor, y_true: np.ndarray, terms=DEFAULT_TAIL_TERMS
) -> Tensor:
    """Mean of squared error times the per-sample tail factor.

    The active-term indicator is treated as a constant: the gradient on an
    active sample is exactly (1 + sum of active a) times the MSE gradient.
    """
    if not terms:
        raise ValueError("tail_loss_op requires at least one term")
    t = _flat_target("tail_loss_op", y_pred, y_true, y_pred.data.dtype)
    factors = tail_factors(t, y_pred.data.ravel(), terms).astype(y_pred.data.dtype)
    return _weighted_se(tape, y_pred, t, factors)


def dist_loss_op(tape: Tape | None, y_pred: Tensor, y_true: np.ndarray, weights: np.ndarray) -> Tensor:
    """Squared error weighted per row by ``weights``, the batch's entries
    of ``dist_weights``, cast to the prediction dtype."""
    t = _flat_target("dist_loss_op", y_pred, y_true, y_pred.data.dtype)
    w = _flat_target("dist_loss_op", y_pred, weights, y_pred.data.dtype)
    return _weighted_se(tape, y_pred, t, w)


def multitask_loss_op(
    tape: Tape | None,
    region_flux: Tensor,
    logits: Tensor,
    y_flux_true: np.ndarray,
    region_true: np.ndarray,
    lambda_cce: float = 1.0,
) -> Tensor:
    """Selected-head MSE plus ``lambda_cce`` times categorical cross-entropy.

    region_flux and logits are [n, 3]; the squared error uses, per row,
    only the flux head at the argmax of the logits (ties go to the lowest
    class index). With ``z = logits - max(logits)`` per row, the
    cross-entropy is the mean of ``log sum exp z - z[region_true]``, finite
    for any finite logits. The gradient reaches the selected flux head and,
    as ``softmax(z) - onehot``, every logit. The argmax selection itself is
    piecewise constant and carries none."""
    t = np.asarray(y_flux_true, dtype=np.float64).ravel()
    flux = region_flux.data
    n = t.size
    if flux.ndim != 2 or logits.shape != flux.shape or np.shape(region_true) != (n,) or flux.shape[0] != n:
        raise ValueError("multitask_loss_op: shape mismatch")
    sel = np.argmax(logits.data, axis=1)
    rows = np.arange(n)
    diff = flux[rows, sel] - t
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1)
    cce_term = np.mean((np.log(total) - z[rows, region_true]).astype(np.float64))
    out = Tensor(np.array(np.mean(diff**2) + lambda_cce * cce_term, dtype=flux.dtype))

    if tape is not None:
        def backward():
            g = float(out.grad)
            dflux = np.zeros_like(flux)
            dflux[rows, sel] = g * 2.0 * diff / n
            _accumulate(region_flux, dflux)
            dlogits = e / total[:, None]
            dlogits[rows, region_true] -= 1.0
            _accumulate(logits, dlogits * (g * lambda_cce / n))

        tape.record(out, backward)
    return out


def sparse_masked_loss_op(
    tape: Tape | None,
    pred: Tensor,
    positions: np.ndarray,
    values: np.ndarray,
    normalize: bool = True,
) -> Tensor:
    """Masked squared error over one grid or a batch of grids.

    The observed cells are the flat positions ``positions`` in ``pred``
    (C order, as ``SparseSamples.positions`` gives them), with target
    ``values``. With ``normalize`` the sum of squared errors over them is
    divided by their count; otherwise the raw sum is returned. The
    gradient is bitwise zero at every other cell, and nothing there, not
    even a NaN prediction, reaches the loss or the gradient.
    """
    if positions.shape != values.shape or positions.ndim != 1:
        raise ValueError("positions and values must be 1-D arrays of one length")
    if positions.size == 0:
        raise ValueError("no observed cells in batch")
    v = np.asarray(values, dtype=np.float64).astype(pred.data.dtype)
    diff = pred.data.reshape(-1)[positions] - v
    denom = positions.size if normalize else 1
    out = Tensor(np.array(np.sum(diff**2) / denom, dtype=pred.data.dtype))

    if tape is not None:
        def backward():
            dpred = np.zeros(pred.shape, dtype=pred.data.dtype)
            dpred.reshape(-1)[positions] = out.grad * 2.0 * diff / denom
            _accumulate(pred, dpred)

        tape.record(out, backward)
    return out


# ── Declarative loss description ──────────────────────────────────────

LOSS_VARIANTS = ("mse", "tail", "dist", "multitask", "sparse_masked")

# Which losses each architecture trains with; every other pairing is a
# config error.
ARCH_LOSSES = {
    "baseline": ("mse", "tail", "dist"),
    "multitask": ("multitask",),
    "conv": ("sparse_masked",),
}


def check_pairing(arch: str, loss: str):
    """Raise ``ConfigError`` unless architecture ``arch`` trains with ``loss``."""
    if arch not in ARCH_LOSSES:
        raise ConfigError(f"unknown arch {arch!r}")
    allowed = ARCH_LOSSES[arch]
    if loss not in allowed:
        raise ConfigError(
            f"arch {arch!r} cannot train with loss {loss!r}; it trains with {', '.join(allowed)}"
        )


@dataclass(frozen=True)
class LossSpec:
    """Which loss to train with, plus its parameters; ``config.KEYS``
    checks their values."""

    variant: str = "mse"
    tail_terms: tuple[TailTerm, ...] = DEFAULT_TAIL_TERMS
    dist_bins: int = 50
    lambda_cce: float = 1.0
    masked_normalize: bool = True

    def to_config(self) -> dict[str, str]:
        out = {"loss": self.variant}
        if self.variant == "tail":
            out["tail.terms"] = ",".join(f"{_num(t.a)}:{_num(t.y_r)}" for t in self.tail_terms)
        elif self.variant == "dist":
            out["dist.bins"] = str(self.dist_bins)
        elif self.variant == "multitask":
            out["multitask.lambda_cce"] = _num(self.lambda_cce)
        elif self.variant == "sparse_masked":
            out["sparse.normalize"] = "true" if self.masked_normalize else "false"
        return out

    @classmethod
    def from_config(cls, cfg) -> "LossSpec":
        """Build from parsed config values (``config.load_config``); an unset
        key keeps the field's default."""
        fields = {field: cfg[key] for key, field in _CONFIG_FIELDS.items() if key in cfg}
        return bind(cls, **fields)


def _num(value: float) -> str:
    """``:g`` text of ``value`` where it parses back to the same float, so
    the texts already stored in checkpoints stay as they are; otherwise
    the shortest text that does."""
    text = f"{value:g}"
    return text if float(text) == value else repr(float(value))


# Config key -> LossSpec field.
_CONFIG_FIELDS = {
    "loss": "variant",
    "tail.terms": "tail_terms",
    "dist.bins": "dist_bins",
    "multitask.lambda_cce": "lambda_cce",
    "sparse.normalize": "masked_normalize",
}
