"""Run config files: ``KEYS`` declares every key once, with its parser.

A file holds ``key = value`` lines; blank lines and ``#`` comments are
ignored. ``load_config`` parses every value, whichever command reads its
key: an unknown or duplicate key, or a malformed, non-finite or
out-of-range value, is a ``ConfigError`` (exit 2) that names the key.
Binders build from the parsed values; an unset key keeps the default of
the class or function it feeds. The keys, by what they set:

  world.*, train.*     the ``geomodel.WorldParams`` or ``train.TrainConfig``
                       field of that name (``train --seed`` wins)
  features.*           ``percentile`` or fixed ``threshold`` of the eflux
                       cut (``ingest.clean_targets``), driver ``variables``
  arch, arch.*         baseline, multitask or conv, and its ``hidden``
                       widths (at least one) and ``dropout``; conv also
                       takes ``grid``, ``filters``, ``kernels``,
                       ``strides``, ``overlap`` (smaller than ``grid``)
  holdout.*            the ``ingest.Holdout`` that training validates on
                       and ``eval`` scores: ``sat_id`` (point models only,
                       default 0) and ``t_start``/``t_end``, set together
                       (default the last quarter of the data's span)
  loss, tail.terms, dist.bins, multitask.lambda_cce, sparse.normalize
                       the ``losses.LossSpec``: variant and its parameter
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

from .errors import ConfigError
from .geomodel import DRIVER_NAMES
from .losses import ARCH_LOSSES, LOSS_VARIANTS, TailTerm

Parser = Callable[[str], object]


def _number(cast, interval: str = "[-inf, inf]") -> Parser:
    """A finite ``cast`` value in ``interval``: ``[lo, hi]``, ``(``/``)`` if open."""
    lo, hi = (float(v) for v in interval[1:-1].split(","))

    def parse(text):
        value = cast(text)
        above = lo < value if interval[0] == "(" else lo <= value
        below = value < hi if interval[-1] == ")" else value <= hi
        if not (math.isfinite(value) and above and below):
            raise ValueError(f"must be finite and in {interval}")
        return value

    return parse


def _choice(options) -> Parser:
    """One of ``options``: a sequence, or a mapping of text to value."""
    table = options if isinstance(options, dict) else dict(zip(options, options))

    def parse(text):
        if text not in table:
            raise ValueError(f"expected one of {', '.join(table)}")
        return table[text]

    return parse


def _list(item: Parser, count: int | None = None, nonempty=False, distinct=False) -> Parser:
    """A tuple of comma-separated ``item`` values."""

    def parse(text):
        values = tuple(item(v.strip()) for v in text.split(",") if v.strip())
        if count is not None and len(values) != count:
            raise ValueError(f"expected {count} values")
        if nonempty and not values:
            raise ValueError("expected at least one value")
        if distinct and len(set(values)) != len(values):
            raise ValueError("a value is repeated")
        return values

    return parse


def _tail_term(text: str) -> TailTerm:
    a, y_r = (_number(float)(v) for v in text.split(":"))
    return TailTerm(a, y_r)


_BOOLEAN = _choice({"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False})
_WIDTH = _number(int, "[1, inf]")

KEYS: dict[str, Parser] = {
    **dict.fromkeys(
        ["world.t0", "world.oval_center_base", "world.oval_center_activity_drop",
         "world.oval_center_mlt_amplitude", "world.oval_width_activity_gain",
         "world.peak_log_flux_base", "world.peak_log_flux_activity_gain",
         "world.polar_background", "world.subauroral_background", "world.region_kappa",
         "world.orbit_precession_h_per_day", "holdout.t_start", "holdout.t_end"],
        _number(float),
    ),
    **dict.fromkeys(
        ["world.cadence_s", "world.obs_cadence_s", "world.oval_width_base",
         "world.activity_scale", "world.orbit_period_s", "features.threshold", "train.eps"],
        _number(float, "(0, inf]"),
    ),
    **dict.fromkeys(
        ["world.noise_sigma", "train.lr", "multitask.lambda_cce"], _number(float, "[0, inf]")
    ),
    **dict.fromkeys(["arch.dropout", "train.beta1", "train.beta2"], _number(float, "[0, 1)")),
    **dict.fromkeys(["arch.grid", "train.batch_size", "train.max_epochs", "train.patience"], _WIDTH),
    **dict.fromkeys(["arch.overlap", "train.seed", "holdout.sat_id"], _number(int, "[0, inf]")),
    **dict.fromkeys(["arch.filters", "arch.kernels", "arch.strides"], _list(_WIDTH, count=2)),
    "world.n_sats": _number(int, "[1, 3]"),
    "features.percentile": _number(float, "[0, 100]"),
    "features.variables": _list(_choice(DRIVER_NAMES), nonempty=True, distinct=True),
    "arch": _choice(tuple(ARCH_LOSSES)),
    "arch.hidden": _list(_WIDTH, nonempty=True),
    "loss": _choice(LOSS_VARIANTS),
    "tail.terms": _list(_tail_term, nonempty=True),
    "dist.bins": _number(int, "[2, inf]"),
    "sparse.normalize": lambda text: _BOOLEAN(text.lower()),
}


def parse_config_text(text: str) -> dict[str, str]:
    """key=value lines; blank lines and ``#`` comments ignored."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in out:
            raise ConfigError(f"config line {lineno}: duplicate key {key}")
        out[key] = value
    return out


def parse_values(pairs: Mapping[str, str]) -> dict[str, object]:
    """Each value of ``pairs`` parsed by its key's parser in ``KEYS``."""
    unknown = sorted(set(pairs) - set(KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    values = {}
    for key, text in pairs.items():
        try:
            values[key] = KEYS[key](text)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {text!r} ({exc})") from None
    return values


def load_config(path) -> tuple[dict[str, str], dict[str, object]]:
    """A config file's key=value text and its parsed values; ``path`` None
    is an empty config."""
    if path is None:
        return {}, {}
    with open(path) as fh:
        pairs = parse_config_text(fh.read())
    return pairs, parse_values(pairs)
