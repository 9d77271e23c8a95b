"""The five training losses, each with exact value and gradient semantics.

All losses act in log10 target space. Every loss exists in two forms: a
pure value function on numpy arrays (used for evaluation and as the
reference in tests) and a fused autodiff operation that records one
backward closure with the hand-derived gradient:

  mse            plain mean squared error
  tail           squared error times (1 + sum of active penalty terms);
                 a term (a, y_r) is active when y_true > y_r and
                 y_pred < y_r, so only under-predicted high values pay.
                 The indicator is held constant in the gradient.
  dist           squared error weighted by the inverse (count+1) of the
                 training-histogram bin containing y_true
  multitask      selected-region squared error plus categorical
                 cross-entropy over the three region classes
  sparse_masked  squared error summed over observed grid cells only;
                 unobserved cells contribute zero loss and zero gradient
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


@dataclass(frozen=True)
class DistWeights:
    """Per-bin inverse-frequency weights fitted on training targets.

    weight_i = 1 / ((count_i + 1) * n_total) over equal-width bins
    spanning [min, max] of the fitted targets. Out-of-range values clamp
    to the edge bins; the top edge falls in the last bin.
    """

    edges: np.ndarray
    weights: np.ndarray
    n_bins: int
    n_total: int

    def __post_init__(self):
        object.__setattr__(self, "edges", np.asarray(self.edges, dtype=np.float64))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))
        if len(self.edges) != self.n_bins + 1 or len(self.weights) != self.n_bins:
            raise ValueError("inconsistent bin arrays")
        if np.any(np.diff(self.edges) <= 0):
            raise ValueError("bin edges must be strictly increasing")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")

    def bin_index(self, y) -> np.ndarray:
        return uniform_bin_index(y, float(self.edges[0]), float(self.edges[-1]), self.n_bins)

    def weight_of(self, y) -> np.ndarray:
        return self.weights[self.bin_index(y)]


def fit_dist_weights(y_train: np.ndarray, n_bins: int = 50) -> DistWeights:
    y = np.asarray(y_train, dtype=np.float64)
    if y.size < 2:
        raise ValueError("need at least two training targets")
    lo, hi = float(y.min()), float(y.max())
    if not hi > lo:
        raise ValueError("degenerate target range (min == max)")
    idx = uniform_bin_index(y, lo, hi, n_bins)
    counts = np.bincount(idx, minlength=n_bins)
    weights = 1.0 / ((counts + 1.0) * y.size)
    return DistWeights(
        edges=np.linspace(lo, hi, n_bins + 1),
        weights=weights,
        n_bins=n_bins,
        n_total=int(y.size),
    )


# ── Value functions ───────────────────────────────────────────────────

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


def tail_loss(y_true, y_pred, terms=DEFAULT_TAIL_TERMS) -> float:
    if not terms:
        raise ValueError("tail_loss requires at least one term")
    t, p = as_1d_pair(y_true, y_pred)
    return float(np.mean((t - p) ** 2 * tail_factors(t, p, terms)))


def dist_loss(y_true, y_pred, weights: DistWeights) -> float:
    t, p = as_1d_pair(y_true, y_pred)
    return float(np.mean(weights.weight_of(t) * (t - p) ** 2))


def multitask_loss(
    y_flux_true,
    y_flux_pred,
    class_true,
    class_prob_pred,
    lambda_cce: float = 1.0,
) -> float:
    """Selected-head MSE plus categorical cross-entropy.

    y_flux_pred is [n, 3] (one regression output per region); the squared
    error uses, per sample, only the head selected by the argmax of the
    predicted class probabilities (ties go to the lowest class index).
    """
    t = np.asarray(y_flux_true, dtype=np.float64).ravel()
    flux = np.asarray(y_flux_pred, dtype=np.float64)
    onehot = np.asarray(class_true, dtype=np.float64)
    probs = np.asarray(class_prob_pred, dtype=np.float64)
    _validate_prob_rows(probs)
    sel = np.argmax(probs, axis=1)
    picked = flux[np.arange(t.size), sel]
    mse_term = float(np.mean((t - picked) ** 2))
    cce_term = float(np.mean(-np.sum(onehot * np.log(probs), axis=1)))
    return mse_term + lambda_cce * cce_term


def _validate_prob_rows(probs: np.ndarray):
    if probs.ndim != 2:
        raise ValueError("class probabilities must be [n, k]")
    if np.any(probs < 0) or np.any(np.abs(probs.sum(axis=1) - 1.0) > 1e-6):
        raise ValueError("invalid probability rows")


def sparse_masked_loss(pred, target_values, mask, normalize: bool = True) -> float:
    """Masked squared error over one grid or a batch of grids.

    With ``normalize`` the sum of squared errors over observed cells is
    divided by the total observed-cell count of the batch; otherwise the
    raw double sum is returned. All-false masks contribute nothing.
    """
    p = np.asarray(pred, dtype=np.float64)
    v = np.asarray(target_values, dtype=np.float64)
    m = np.asarray(mask, dtype=bool)
    if p.shape != v.shape or p.shape != m.shape:
        raise ValueError("pred/target/mask shapes differ")
    count = int(m.sum())
    if count == 0:
        raise ValueError("empty mask: no observed cells in batch")
    total = float(np.sum((p[m] - v[m]) ** 2))
    return total / count if normalize else total


# ── Fused autodiff operations ─────────────────────────────────────────

def mse_op(tape: Tape, y_pred: Tensor, y_true: np.ndarray) -> Tensor:
    t = np.asarray(y_true, dtype=y_pred.data.dtype).ravel()
    p = y_pred.data.ravel()
    if t.size != p.size or t.size == 0:
        raise ValueError("mse_op: bad lengths")
    diff = p - t
    out = Tensor(np.array(np.mean(diff**2), dtype=y_pred.data.dtype))

    def backward():
        if out.grad is None:
            return
        _accumulate(y_pred, (out.grad * 2.0 * diff / t.size).reshape(y_pred.shape))

    tape.record(out, backward)
    return out


def tail_loss_op(
    tape: Tape, y_pred: Tensor, y_true: np.ndarray, terms=DEFAULT_TAIL_TERMS
) -> Tensor:
    """Mean of squared error times the per-sample tail factor.

    The active-term indicator is treated as a constant: the gradient on an
    active sample is exactly (1 + sum of active a) times the MSE gradient.
    """
    if not terms:
        raise ValueError("tail_loss_op requires at least one term")
    t = np.asarray(y_true, dtype=y_pred.data.dtype).ravel()
    p = y_pred.data.ravel()
    if t.size != p.size or t.size == 0:
        raise ValueError("tail_loss_op: bad lengths")
    factors = tail_factors(t, p, terms).astype(y_pred.data.dtype)
    diff = p - t
    out = Tensor(np.array(np.mean(diff**2 * factors), dtype=y_pred.data.dtype))

    def backward():
        if out.grad is None:
            return
        g = out.grad * 2.0 * diff * factors / t.size
        _accumulate(y_pred, g.reshape(y_pred.shape))

    tape.record(out, backward)
    return out


def dist_loss_op(tape: Tape, y_pred: Tensor, y_true: np.ndarray, weights: DistWeights) -> Tensor:
    if weights is None:
        raise ValueError("dist weights are unfitted")
    t = np.asarray(y_true, dtype=np.float64).ravel()
    p = y_pred.data.ravel()
    if t.size != p.size or t.size == 0:
        raise ValueError("dist_loss_op: bad lengths")
    w = weights.weight_of(t).astype(y_pred.data.dtype)
    diff = p - t.astype(y_pred.data.dtype)
    out = Tensor(np.array(np.mean(w * diff**2), dtype=y_pred.data.dtype))

    def backward():
        if out.grad is None:
            return
        g = out.grad * 2.0 * w * diff / t.size
        _accumulate(y_pred, g.reshape(y_pred.shape))

    tape.record(out, backward)
    return out


def multitask_loss_op(
    tape: Tape,
    region_flux: Tensor,
    class_probs: Tensor,
    y_flux_true: np.ndarray,
    class_true_onehot: np.ndarray,
    lambda_cce: float = 1.0,
) -> Tensor:
    """Joint loss; gradient reaches the selected flux head and all class
    probabilities (through which softmax backpropagates to every logit).
    The argmax selection itself is piecewise constant and carries none."""
    t = np.asarray(y_flux_true, dtype=np.float64).ravel()
    onehot = np.asarray(class_true_onehot, dtype=np.float64)
    probs = class_probs.data
    flux = region_flux.data
    _validate_prob_rows(probs)
    n = t.size
    if flux.shape != probs.shape or onehot.shape != probs.shape or flux.shape[0] != n:
        raise ValueError("multitask_loss_op: shape mismatch")
    sel = np.argmax(probs, axis=1)
    rows = np.arange(n)
    diff = flux[rows, sel] - t
    mse_term = np.mean(diff**2)
    cce_term = np.mean(-np.sum(onehot * np.log(probs), axis=1))
    out = Tensor(np.array(mse_term + lambda_cce * cce_term, dtype=flux.dtype))

    def backward():
        if out.grad is None:
            return
        g = float(out.grad)
        dflux = np.zeros_like(flux)
        dflux[rows, sel] = g * 2.0 * diff / n
        _accumulate(region_flux, dflux)
        dprobs = g * lambda_cce * (-onehot / probs) / n
        _accumulate(class_probs, dprobs.astype(probs.dtype))

    tape.record(out, backward)
    return out


def sparse_masked_loss_op(
    tape: Tape, pred: Tensor, target_values: np.ndarray, mask: np.ndarray, normalize: bool = True
) -> Tensor:
    """Masked squared error; gradient is bitwise zero at unobserved cells.

    Target values are only ever read under the mask, so poisoned (NaN)
    unobserved cells cannot reach the loss or the gradient.
    """
    m = np.asarray(mask, dtype=bool)
    if pred.shape != m.shape:
        raise ValueError("pred/mask shapes differ")
    count = int(m.sum())
    if count == 0:
        raise ValueError("empty mask: no observed cells in batch")
    v = np.asarray(target_values, dtype=np.float64)[m].astype(pred.data.dtype)
    diff = pred.data[m] - v
    denom = count if normalize else 1
    out = Tensor(np.array(np.sum(diff**2) / denom, dtype=pred.data.dtype))

    def backward():
        if out.grad is None:
            return
        dp = np.zeros_like(pred.data)
        dp[m] = out.grad * 2.0 * diff / denom
        _accumulate(pred, dp)

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
    """Which loss to train with, plus its parameters."""

    variant: str = "mse"
    tail_terms: tuple[TailTerm, ...] = DEFAULT_TAIL_TERMS
    dist_bins: int = 50
    lambda_cce: float = 1.0
    masked_normalize: bool = True

    def __post_init__(self):
        if self.variant not in LOSS_VARIANTS:
            raise ValueError(f"unknown loss variant {self.variant!r}")
        if self.variant == "tail" and not self.tail_terms:
            raise ValueError("tail loss requires at least one (a, y_r) term")
        if self.variant == "dist" and self.dist_bins < 2:
            raise ValueError("dist loss requires at least two bins")

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
