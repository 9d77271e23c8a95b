"""Small shared numeric helpers.

percentile_linear is the single order-statistic implementation used both
for target cleaning and for tail-percentile thresholds, so the two stay
consistent by construction. as_1d_pair is the one input check shared by
the mse metric and the evaluation metrics that compare two series.
"""

from __future__ import annotations

import numpy as np


def as_1d_pair(y_true, y_pred) -> tuple[np.ndarray, np.ndarray]:
    """Both inputs as flat float64 arrays; a ValueError if they are empty
    or of different sizes."""
    t = np.asarray(y_true, dtype=np.float64).ravel()
    p = np.asarray(y_pred, dtype=np.float64).ravel()
    if t.size != p.size:
        raise ValueError(f"length mismatch: {t.size} vs {p.size}")
    if t.size == 0:
        raise ValueError("empty input")
    return t, p


def percentile_linear(values: np.ndarray, p: float) -> float:
    """Linear-interpolation order statistic, p in [0, 100]."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("percentile of empty array")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile out of range: {p}")
    return float(np.percentile(v, p, method="linear"))


def uniform_bin_index(values: np.ndarray, lo: float, hi: float, n_bins: int) -> np.ndarray:
    """Bin index over n_bins equal-width bins spanning [lo, hi].

    Values at the top edge fall in the last bin; out-of-range values are
    clamped to the edge bins.
    """
    if not hi > lo:
        raise ValueError("degenerate bin range")
    v = np.asarray(values, dtype=np.float64)
    idx = np.floor((v - lo) / (hi - lo) * n_bins).astype(np.int64)
    return np.clip(idx, 0, n_bins - 1)
