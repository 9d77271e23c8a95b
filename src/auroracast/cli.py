"""Batch command-line interface.

Commands: synth, features, train, eval, map. Every command is
deterministic given identical inputs and seeds; outputs are byte-stable
(no wall-clock content). Exit codes: 0 success, 2 config error, 3 data
error, 4 numeric failure, 5 resource error (out of memory).

``--config`` takes a ``key = value`` file; the ``config`` module's
docstring lists every key, and every command parses and checks all of a
file's values, including keys that the command does not read.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys

import numpy as np

from . import evaluate as E
from . import geomodel as G
from . import ingest as I
from . import losses as L
from . import models as M
from . import train as T
from .config import load_config
from .errors import ConfigError, DataError, TrainingDiverged


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _config_hash(pairs: dict[str, str]) -> str:
    canonical = "\n".join(f"{k}={pairs[k]}" for k in sorted(pairs))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _write_manifest(
    out_dir, command, config_path, config_text, inputs, output_names, seed, time_range
):
    manifest = {
        "command": command,
        "config": os.path.basename(config_path) if config_path else None,
        "config_sha256": _config_hash(config_text),
        "inputs": {os.path.basename(p): _sha256_file(p) for p in inputs},
        "outputs": {name: _sha256_file(os.path.join(out_dir, name)) for name in output_names},
        "seed": seed,
        "data_time_range": list(time_range) if time_range else None,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ── synth ─────────────────────────────────────────────────────────────

def cmd_synth(args) -> int:
    config_text, cfg = load_config(args.config)
    params = G.world_params_from_config(cfg, seed=args.seed)
    duration = args.days * 86400.0
    if not (np.isfinite(duration) and duration >= params.cadence_s):
        raise ConfigError(
            f"--days must be finite and span one {params.cadence_s:g} s cadence step, got {args.days:g}"
        )
    drivers = G.gen_drivers(params, duration)
    obs = G.sample_traces(params, drivers)

    os.makedirs(args.out_dir, exist_ok=True)
    I.write_csv(
        os.path.join(args.out_dir, "drivers.csv"),
        ("t",) + G.DRIVER_NAMES,
        [I.whole_as_int(drivers.times), *drivers.values],
    )
    codes = np.array([region.code for region in G.Region], dtype=object)
    I.write_csv(
        os.path.join(args.out_dir, "observations.csv"),
        ("t", "sat_id", "mlat", "mlt", "eflux", "region"),
        [I.whole_as_int(obs.t), obs.sat_id, obs.mlat, obs.mlt, obs.eflux, codes[obs.region]],
    )

    _write_manifest(
        args.out_dir,
        "synth",
        args.config,
        config_text,
        inputs=[args.config] if args.config else [],
        output_names=["drivers.csv", "observations.csv"],
        seed=args.seed,
        time_range=(drivers.t0, drivers.t_end),
    )
    return 0


# ── features ──────────────────────────────────────────────────────────

def _clean_observations(obs_path, cfg):
    """Read observations and drop the outliers of the configured cut: the
    ``clean_targets`` default percentile unless the config sets one, or a
    fixed threshold."""
    obs, n_nonpositive = I.read_observations_csv(obs_path)
    names = {"features.percentile": "percentile", "features.threshold": "fixed_threshold"}
    cut = {arg: cfg[key] for key, arg in names.items() if key in cfg}
    return I.clean_targets(obs, n_dropped_nonpositive=n_nonpositive, **cut)


def cmd_features(args) -> int:
    _, cfg = load_config(args.config)
    drivers = I.read_drivers_csv(args.drivers)
    obs, report = _clean_observations(args.obs, cfg)
    schema = I.schema_from_config(cfg)
    table = I.build_features(drivers, obs, schema)
    I.write_table_cache(table, args.out)
    names = [f.name for f in dataclasses.fields(report)] + ["n_dropped_history"]
    values = dataclasses.astuple(report) + (table.n_dropped_history,)
    I.write_csv(f"{args.out}.cleaning.csv", names, [[v] for v in values])
    return 0


# ── train ─────────────────────────────────────────────────────────────

def cmd_train(args) -> int:
    if (args.features is None) == (args.sparse is None):
        raise ConfigError("exactly one of --features or --sparse is required")
    config_text, cfg = load_config(args.config)
    config = T.train_config_from_config(cfg, seed_override=args.seed)
    arch_kind = M.arch_kind(cfg)
    L.check_pairing(arch_kind, config.loss.variant)

    if args.sparse is not None:
        if arch_kind != "conv":
            raise ConfigError("--sparse training requires arch=conv")
        arch, schema, holdout, data, inputs, time_range = _sparse_data(args, cfg)
    else:
        if arch_kind == "conv":
            raise ConfigError("arch=conv trains from --sparse, not --features")
        arch, schema, holdout, data, inputs, time_range = _point_data(args, cfg)
    model, history = T.train_model(M.build_model(arch, seed=config.seed), data, config)
    # train_model has stored the normalization it fit
    model.meta.update(
        schema=schema.to_meta(),
        holdout=holdout.to_meta(),
        loss=config.loss.to_config(),
        seed=config.seed,
        best_val_loss=history.best_val,
        best_epoch=history.best_epoch,
    )

    # Created only now, so a run that fails leaves no out-dir behind.
    os.makedirs(args.out_dir, exist_ok=True)
    ckpt_path = os.path.join(args.out_dir, "checkpoint.aur")
    M.save_checkpoint(model, ckpt_path)
    T.write_history_csv(history, os.path.join(args.out_dir, "history.csv"))
    _write_manifest(
        args.out_dir,
        "train",
        args.config,
        config_text,
        inputs=inputs + ([args.config] if args.config else []),
        output_names=["checkpoint.aur", "history.csv"],
        seed=config.seed,
        time_range=time_range,
    )
    return 0


def _point_data(args, cfg):
    """(arch, schema, holdout, (train, validation) tables, inputs, time range)
    for a point model trained from ``--features``."""
    table = I.read_table_cache(args.features)
    holdout = I.Holdout.from_config(cfg, table.t)
    in_val = holdout.mask(table.t, table.sat_id)
    data = (table[~in_val], table[in_val])
    arch = M.arch_from_config(cfg, input_width=table.schema.width)
    time_range = (float(table.t.min()), float(table.t.max()))
    return arch, table.schema, holdout, data, [args.features], time_range


def _sparse_data(args, cfg):
    """(arch, schema, holdout, (train, validation) samples, inputs, time
    range) for the conv decoder trained from ``--sparse``."""
    drivers_path = os.path.join(args.sparse, "drivers.csv")
    obs_path = os.path.join(args.sparse, "observations.csv")
    for p in (drivers_path, obs_path):
        if not os.path.exists(p):
            raise DataError(f"--sparse directory lacks {os.path.basename(p)}")
    drivers = I.read_drivers_csv(drivers_path)
    obs, _ = _clean_observations(obs_path, cfg)
    schema = I.schema_from_config(cfg)
    M.assert_global_only(schema.global_names)

    arch = M.arch_from_config(cfg, input_width=len(schema.global_names))
    spec = G.GridSpec(n_lat=arch.n_lat, n_mlt=arch.n_mlt)
    samples, _ = T.build_sparse_samples(drivers, obs, schema, spec)
    if not len(samples):
        raise DataError("no sparse samples could be composited")
    t_centers = samples.t_center
    holdout = I.Holdout.from_config(cfg, t_centers, by_satellite=False)
    in_val = holdout.mask(t_centers)
    time_range = (float(t_centers.min()), float(t_centers.max()))
    data = (samples[~in_val], samples[in_val])
    return arch, schema, holdout, data, [drivers_path, obs_path], time_range


# ── eval ──────────────────────────────────────────────────────────────

def _holdout_predictions(checkpoint, features, table=None, y_expected=None):
    """(model, table, holdout rows, pred, pred regions) of point checkpoint
    ``checkpoint`` on the cache ``features``, read after the checkpoint
    unless ``table`` is given. A conv checkpoint is a ConfigError; an
    incomplete holdout, a checkpoint trained on another layout of the
    cache's width, or holdout targets other than ``y_expected`` is a
    DataError."""
    model = M.load_checkpoint(checkpoint)
    if model.variant == "conv":
        raise ConfigError(f"{checkpoint}: eval scores point models; use map for the conv decoder")
    table = I.read_table_cache(features) if table is None else table
    try:
        holdout = I.Holdout.from_meta(model.meta["holdout"])
    except KeyError as exc:
        raise DataError(f"checkpoint metadata lacks a complete holdout (missing key {exc})") from None
    if model.arch.input_width == table.schema.width and E._schema_from_meta(model.meta) != table.schema:
        raise DataError(f"{features}: feature layout is not the one {checkpoint} was trained on")
    val = table[holdout.mask(table.t, table.sat_id)]
    if y_expected is not None and not np.array_equal(val.target, y_expected):
        raise DataError("baseline checkpoint holdout differs from candidate's")
    return model, table, val, *M.predict(model, val.rows)


def cmd_eval(args) -> int:
    model, table, val, y_pred, pred_regions = _holdout_predictions(args.checkpoint, args.features)
    y_true, regions = val.target, val.region
    if args.baseline_checkpoint:
        *_, base_pred, _ = _holdout_predictions(args.baseline_checkpoint, args.features, table, y_true)

    # Created only now, so a run that fails leaves no out-dir behind.
    os.makedirs(args.out_dir, exist_ok=True)
    outputs = []

    report = E.binned_errors(y_true, y_pred, n_bins=20)
    E.write_binned_errors_csv(report, os.path.join(args.out_dir, "binned_errors.csv"))
    outputs.append("binned_errors.csv")

    edges, tc, pc = E.histogram_compare(y_true, y_pred, n_bins=50)
    E.write_histogram_csv(edges, tc, pc, os.path.join(args.out_dir, "histograms.csv"))
    outputs.append("histograms.csv")

    summary_lines = [
        f"checkpoint: {os.path.basename(args.checkpoint)}",
        f"loss: {model.meta.get('loss', {}).get('loss', 'unknown')}",
        f"seed: {model.meta.get('seed')}",
        f"n_validation: {y_true.size}",
        f"val_mse_log10: {L.mse(y_true, y_pred)!r}",
    ]

    if regions is not None:
        table_mse = E.region_mse_table(y_true, y_pred, regions)
        E.write_region_mse_csv(table_mse, os.path.join(args.out_dir, "region_mse.csv"))
        outputs.append("region_mse.csv")

    if pred_regions is not None and regions is not None:
        creport = E.classification_report(regions, pred_regions)
        E.write_classification_csv(creport, os.path.join(args.out_dir, "classification.csv"))
        outputs.append("classification.csv")
        summary_lines.append(f"region_accuracy: {creport.accuracy!r}")

    inputs = [args.checkpoint, args.features]
    if args.baseline_checkpoint:
        treport = E.tail_reduction(y_true, base_pred, y_pred)
        E.write_tail_reduction_csv(treport, os.path.join(args.out_dir, "tail_reduction.csv"))
        outputs.append("tail_reduction.csv")
        summary_lines.append(
            "tail_reduction_pct_90_95_99: "
            + ",".join(repr(float(100.0 * r)) for r in treport.reduction)
        )
        inputs.append(args.baseline_checkpoint)

    loss_spec = model.meta.get("loss", {})
    summary_lines.append(f"loss_sha256: {_config_hash({k: str(v) for k, v in loss_spec.items()})}")
    with open(os.path.join(args.out_dir, "summary.txt"), "w") as fh:
        fh.write("\n".join(summary_lines) + "\n")
    outputs.append("summary.txt")

    _write_manifest(
        args.out_dir,
        "eval",
        None,
        {},
        inputs=inputs,
        output_names=outputs,
        seed=model.meta.get("seed"),
        time_range=(float(table.t.min()), float(table.t.max())),
    )
    return 0


# ── map ───────────────────────────────────────────────────────────────

def cmd_map(args) -> int:
    model = M.load_checkpoint(args.checkpoint)
    drivers = I.read_drivers_csv(args.drivers)
    if isinstance(model.arch, M.ConvDecoderArch):
        spec = G.GridSpec(n_lat=model.arch.n_lat, n_mlt=model.arch.n_mlt)
    else:
        spec = G.GridSpec()
    E.render_map(model, drivers, args.at, spec, args.out)
    return 0


# ── entry point ───────────────────────────────────────────────────────

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="auroracast",
        description="Synthetic auroral-flux nowcasting: data synthesis, "
        "feature building, loss-engineered training, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic drivers and observations")
    p.add_argument("--config", default=None)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--days", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("features", help="build the feature table cache")
    p.add_argument("--drivers", required=True)
    p.add_argument("--obs", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--features", default=None, help="feature cache for point models")
    p.add_argument("--sparse", default=None, help="synth out-dir for the conv decoder")
    p.add_argument("--config", default=None)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None, help="overrides train.seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the holdout")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--baseline-checkpoint", default=None)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("map", help="render a full-hemisphere prediction")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--drivers", required=True)
    p.add_argument("--at", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_map)

    return parser


def _join_at_value(argv: list[str]) -> list[str]:
    """Pass ``--at VALUE`` as ``--at=VALUE``. argparse reads a word that
    starts with '-' and is not a plain negative number, such as -inf or
    -1e400, as an option rather than as the time, so it would never reach
    the range check."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--at":
            out[-1] = f"--at={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_at_value(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        for epoch, train_loss, val_loss in exc.history:
            print(f"  epoch {epoch}: train={train_loss:g} val={val_loss:g}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        request = str(exc) or "allocation failed"
        print(f"resource error: {args.command} ran out of memory: {request}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
