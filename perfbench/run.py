"""Benchmark of the auroracast command line over three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a sequence of real ``auroracast`` processes, run one at a
time from this checkout's ``src`` (see perfbench/README.md for why each
workload exists and which layer each metric watches):

  data_prep    synth -> features -> composite (the sparse-target build)
  point_train  train mse, train tail, eval, map series on a point model
  conv_sparse  train --sparse on the conv decoder, map series

Set-up runs several times and reports the median. The timed part repeats
until ``--seconds`` have passed and reports medians over repetitions.
Every repetition is checked: exit codes, manifest hashes, finite quality
figures, 128x128 finite maps, the composite sample count, and identical
outputs across repetitions. With ``--trace 1`` untraced repetitions
alternate with repetitions run under perfbench/tracer.py, and the result
holds per-layer metrics instead of end-to-end ones.

A record of the run goes to stdout; the last stdout line is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import signal
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from operator import attrgetter

from tracer import AUTODIFF_OPS, CLI_COMMANDS, LOSS_OPS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

RUN_DEADLINE_S = 170.0  # the whole run must end within 180 s
# One BLAS thread: on a 2-vCPU host shared with other jobs, two threads were
# no faster on point_train and slower and less steady on conv_sparse.
BLAS_THREADS = 1
SETUP_REPEATS = {"data_prep": 7, "point_train": 3, "conv_sparse": 7}
# Untraced repetitions a run makes at least, so medians resist one slow one;
# a traced run makes one untraced and one traced repetition at least.
MIN_REPS = 3
# Driver steps without the default schema's 6 h history (5-min cadence);
# the composite must build one sample for every other step.
HISTORY_STEPS = 72
CADENCE_S = 300.0


@dataclass(frozen=True)
class Size:
    days: float
    epochs: int = 0
    maps: int = 0
    grid: int = 128


SIZES = {
    "data_prep": Size(days=20),
    "point_train": Size(days=10, epochs=1, maps=4),
    "conv_sparse": Size(days=2, epochs=1, maps=4),
}
# Smoke sizes for the self-test: every stage and check runs in seconds.
SMOKE_SIZES = {
    "data_prep": Size(days=1),
    "point_train": Size(days=1, epochs=1, maps=1),
    "conv_sparse": Size(days=1, epochs=1, maps=1, grid=32),
}


class CheckFailed(Exception):
    """An output of the program is wrong or missing."""


@dataclass
class Step:
    stage: str
    entry: str  # "cli" (auroracast.cli) or "composite" (perfbench/composite.py)
    args: list[str]
    outputs: list[str] = field(default_factory=list)  # files or directories it writes
    manifest_dir: str | None = None  # where it writes manifest.json


@dataclass
class Proc:
    step: Step
    wall_s: float
    rss_mb: float
    stdout: str
    spans: dict | None = None


class Runner:
    """Starts one process at a time, timing it and counting failures."""

    def __init__(self, work: str, deadline: float):
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[dict] = []
        self.n = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, self.env.get("PYTHONPATH")) if p)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)

    def run(self, step: Step, traced: bool) -> Proc:
        self.n += 1
        log = os.path.join(self.work, f"proc{self.n:04d}")
        spans_path = log + ".spans.json"
        if traced:
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), spans_path, step.entry, *step.args]
        elif step.entry == "cli":
            argv = [sys.executable, "-m", "auroracast.cli", *step.args]
        else:
            argv = [sys.executable, os.path.join(HERE, "composite.py"), *step.args]
        self.attempted += 1
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(log + ".out", "wb") as out, open(log + ".err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            timed_out = True
            try:
                fd = os.pidfd_open(proc.pid)
                try:
                    timed_out = not select.select([fd], [], [], timeout)[0]
                finally:
                    os.close(fd)
            finally:
                if timed_out:  # past the deadline, or interrupted while waiting
                    proc.kill()
                # wait4, not Popen.wait, for the child's own peak RSS
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            wall = time.perf_counter() - t0
        with open(log + ".out") as fh:
            stdout = fh.read()
        code = proc.returncode
        if code != 0 or timed_out:
            with open(log + ".err", errors="replace") as fh:
                tail = fh.read()[-2000:]
            self.failures.append(
                {"stage": step.stage, "code": code, "timed_out": timed_out, "stderr_tail": tail}
            )
            raise CheckFailed(f"{step.stage} exited with {code}")
        spans = None
        if traced:
            with open(spans_path) as fh:
                spans = json.load(fh)
        return Proc(step, wall, usage.ru_maxrss / 1024.0, stdout, spans)


# ── Workload plans ────────────────────────────────────────────────────

def _write(path: str, lines: list[str]) -> str:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _map_times(size: Size) -> list[float]:
    """Times inside the default holdout (the last quarter of the span)."""
    t_end = size.days * 86400.0
    gap = max(CADENCE_S, round(0.2 * t_end / max(size.maps, 1) / CADENCE_S) * CADENCE_S)
    return [t_end - k * gap for k in range(size.maps)]


def synth_step(work: str, out: str, size: Size, seed: int) -> Step:
    cfg = _write(os.path.join(work, "synth.cfg"), ["world.n_sats = 3"])
    args = ["synth", "--config", cfg, "--out-dir", out, "--days", repr(size.days), "--seed", str(seed)]
    files = [os.path.join(out, f) for f in ("drivers.csv", "observations.csv", "manifest.json")]
    return Step("synth", "cli", args, files, out)


def features_step(world: str) -> Step:
    feat = os.path.join(world, "features.aft")
    drivers, obs = os.path.join(world, "drivers.csv"), os.path.join(world, "observations.csv")
    args = ["features", "--drivers", drivers, "--obs", obs, "--out", feat]
    return Step("features", "cli", args, [feat, feat + ".cleaning.csv"])


def train_step(work: str, out: str, data: list[str], config: list[str], size: Size, seed: int) -> Step:
    budget = [f"train.max_epochs = {size.epochs}", f"train.patience = {size.epochs}"]
    cfg = _write(os.path.join(work, os.path.basename(out) + ".cfg"), config + budget)
    args = ["train", *data, "--config", cfg, "--out-dir", out, "--seed", str(seed)]
    return Step("train", "cli", args, [out], out)


def map_steps(ckpt: str, world: str, rep: str, size: Size) -> list[Step]:
    steps = []
    for k, t in enumerate(_map_times(size)):
        base = os.path.join(rep, f"map{k}")
        drivers = os.path.join(world, "drivers.csv")
        args = ["map", "--checkpoint", ckpt, "--drivers", drivers, "--at", repr(t), "--out", base]
        steps.append(Step("map", "cli", args, [base + ".csv", base + ".pgm"]))
    return steps


def setup_steps(workload: str, work: str, size: Size, seed: int) -> tuple[list[Step], str]:
    """Steps that build a workload's inputs, and the directory they fill."""
    world = os.path.join(work, "world")
    if workload == "data_prep":
        return [Step("help", "cli", ["--help"])], world
    steps = [synth_step(work, world, size, seed)]
    if workload == "point_train":
        steps.append(features_step(world))
    return steps, world


def rep_steps(workload: str, work: str, world: str, rep: str, size: Size, seed: int) -> list[Step]:
    """The timed steps of one repetition, writing under ``rep``."""
    if workload == "data_prep":
        rep_world = os.path.join(rep, "world")
        return [
            synth_step(work, rep_world, size, seed),
            features_step(rep_world),
            Step("composite", "composite", [rep_world]),
        ]
    if workload == "point_train":
        feat = os.path.join(world, "features.aft")
        mse, tail, ev = (os.path.join(rep, d) for d in ("mse", "tail", "eval"))
        mse_ckpt, tail_ckpt = os.path.join(mse, "checkpoint.aur"), os.path.join(tail, "checkpoint.aur")
        eval_args = ["eval", "--checkpoint", tail_ckpt, "--features", feat]
        eval_args += ["--baseline-checkpoint", mse_ckpt, "--out-dir", ev]
        return [
            train_step(work, mse, ["--features", feat], ["arch = baseline", "loss = mse"], size, seed),
            train_step(work, tail, ["--features", feat], ["arch = baseline", "loss = tail"], size, seed),
            Step("eval", "cli", eval_args, [ev], ev),
            *map_steps(tail_ckpt, world, rep, size),
        ]
    conv = os.path.join(rep, "conv")
    config = ["arch = conv", "loss = sparse_masked", f"arch.grid = {size.grid}"]
    return [
        train_step(work, conv, ["--sparse", world], config, size, seed),
        *map_steps(os.path.join(conv, "checkpoint.aur"), world, rep, size),
    ]


# ── Output checks ─────────────────────────────────────────────────────

def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _finite(name: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckFailed(f"{name} is not a number: {text!r}") from None
    if not math.isfinite(value):
        raise CheckFailed(f"{name} is not finite: {value}")
    return value


def _files(path: str) -> list[str]:
    if os.path.isfile(path):
        return [path]
    return sorted(os.path.join(d, f) for d, _, names in os.walk(path) for f in names)


def check_manifest(out_dir: str) -> dict[str, str]:
    path = os.path.join(out_dir, "manifest.json")
    if not os.path.exists(path):
        raise CheckFailed(f"missing {path}")
    with open(path) as fh:
        outputs = json.load(fh)["outputs"]
    for name, digest in outputs.items():
        if _sha256(os.path.join(out_dir, name)) != digest:
            raise CheckFailed(f"{out_dir}/{name} does not match its manifest hash")
    return outputs


def check_map(base: str, grid: int):
    import numpy as np

    values = np.loadtxt(base + ".csv", delimiter=",", ndmin=2)
    if values.shape != (grid, grid) or not np.isfinite(values).all():
        raise CheckFailed(f"{base}.csv is not a finite {grid}x{grid} grid (shape {values.shape})")
    if not os.path.getsize(base + ".pgm"):
        raise CheckFailed(f"{base}.pgm is empty")


def check_outputs(workload: str, procs: list[Proc], size: Size) -> tuple[list, dict]:
    """Check one repetition; return its output fingerprint and quality figures."""
    try:
        return _check_outputs(workload, procs, size)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        raise CheckFailed(f"missing or malformed output: {exc!r}") from exc


def _check_outputs(workload: str, procs: list[Proc], size: Size) -> tuple[list, dict]:
    fingerprint: list = []
    quality: dict[str, float] = {}
    for p in procs:
        step = p.step
        if step.manifest_dir:
            fingerprint.append(check_manifest(step.manifest_dir))
        if step.stage == "features":
            fingerprint.append(_sha256(step.outputs[0]))
        elif step.stage == "map":
            base = step.outputs[0][: -len(".csv")]
            check_map(base, size.grid)
            fingerprint.append(_sha256(base + ".csv"))
        elif step.stage == "composite":
            report = json.loads(p.stdout.strip().splitlines()[-1])
            with open(os.path.join(step.args[0], "drivers.csv")) as fh:
                n_steps = sum(1 for line in fh if line.strip()) - 1
            expected = n_steps - HISTORY_STEPS
            if report["samples"] != expected:
                raise CheckFailed(f"composite built {report['samples']} samples, expected {expected}")
            fingerprint.append(report)
            quality["composite_samples"] = report["samples"]
        if step.stage == "train":
            with open(os.path.join(step.manifest_dir, "history.csv")) as fh:
                rows = [line.split(",") for line in fh.read().splitlines()[1:] if line]
            if len(rows) != size.epochs:
                raise CheckFailed(f"{step.manifest_dir} ran {len(rows)} epochs, expected {size.epochs}")
            if workload == "conv_sparse":
                quality["val_mse"] = min(_finite("masked val MSE", r[2]) for r in rows)
        if step.stage == "eval":
            ev = step.manifest_dir
            with open(os.path.join(ev, "summary.txt")) as fh:
                summary = dict(line.split(": ", 1) for line in fh.read().splitlines() if ": " in line)
            quality["val_mse"] = _finite("val_mse_log10", summary.get("val_mse_log10", ""))
            with open(os.path.join(ev, "tail_reduction.csv")) as fh:
                rows = [line.split(",") for line in fh.read().splitlines()[1:] if line]
            p99 = [r for r in rows if float(r[0]) == 99.0]
            if not p99:
                raise CheckFailed("tail_reduction.csv lacks the 99th percentile row")
            quality["tail_mae_p99"] = _finite("candidate MAE above p99", p99[0][4])
    return fingerprint, quality


# ── Span aggregation ──────────────────────────────────────────────────

def aggregate(span_sets: list[dict]) -> tuple[dict, dict, dict, dict]:
    """Busy time, self time and calls per span name, plus summed counters.

    Busy time counts a span only when no enclosing span has its name; self
    time is a span's duration minus its direct children's.
    """
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    for data in span_sets:
        spans = data["spans"]
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                busy[name] = busy.get(name, 0.0) + (t1 - t0)
        for key, value in data["counts"].items():
            counts[key] = counts.get(key, 0.0) + value
    return busy, self_s, calls, counts


STAGES = ("synth", "features", "composite", "train", "eval", "map")

# Spans each workload must fire at least once in a traced run.
EXPECTED_SPANS = {
    "data_prep": [
        "geomodel.gen_drivers", "geomodel.sample_traces", "cli.synth", "cli.features",
        "ingest.read_drivers_csv", "ingest.read_observations_csv", "ingest.clean_targets",
        "ingest.build_features", "ingest.history_feature_rows", "ingest.write_table_cache",
        "train.build_sparse_samples", "composite",
    ],
    "point_train": [
        "geomodel.gen_drivers", "geomodel.sample_traces", "cli.synth", "cli.features", "cli.train",
        "cli.eval", "cli.map", "ingest.read_table_cache", "ingest.write_table_cache",
        "ingest.read_drivers_csv", "ingest.history_feature_rows", "autodiff.dense", "autodiff.dense#bwd",
        "autodiff.relu", "autodiff.relu#bwd", "autodiff.dropout", "autodiff.dropout#bwd",
        "autodiff.reshape", "autodiff.Tape.backward", "losses.mse_op", "losses.mse_op#bwd",
        "losses.tail_loss_op", "losses.tail_loss_op#bwd", "models.forward_baseline",
        "models.predict_point", "models.save_checkpoint", "models.load_checkpoint",
        "train.train_model", "train.adam_step", "evaluate.predict_grid", "evaluate.render_map",
        "evaluate.binned_errors", "evaluate.tail_reduction", "evaluate.histogram_compare",
    ],
    "conv_sparse": [
        "geomodel.gen_drivers", "geomodel.sample_traces", "cli.synth", "cli.train", "cli.map",
        "ingest.read_drivers_csv", "ingest.read_observations_csv", "ingest.clean_targets",
        "ingest.history_feature_rows", "train.build_sparse_samples", "autodiff.dense",
        "autodiff.relu", "autodiff.dropout", "autodiff.reshape", "autodiff.conv2d",
        "autodiff.conv2d#bwd", "autodiff.conv2d_transpose", "autodiff.conv2d_transpose#bwd",
        "autodiff.add_channel_bias", "autodiff.pad_periodic_mlt", "autodiff.pad_zero_lat",
        "autodiff.Tape.backward", "losses.sparse_masked_loss_op", "losses.sparse_masked_loss_op#bwd",
        "models.forward_convdecoder.train", "models.forward_convdecoder.infer",
        "models.save_checkpoint", "models.load_checkpoint", "train.train_model", "train.adam_step",
        "evaluate.predict_grid", "evaluate.render_map",
    ],
}


def layer_metrics(procs: list[Proc]) -> tuple[dict, dict, dict, dict]:
    """Per-layer metrics from the traced processes of one repetition plus
    set-up, with the busy times, calls and counters they came from."""
    busy, self_s, calls, counts = aggregate([p.spans for p in procs])

    def b(name):
        return busy.get(name, 0.0)

    m: dict[str, float] = {
        "geomodel.gen_drivers.s": b("geomodel.gen_drivers"),
        "geomodel.sample_traces.s": b("geomodel.sample_traces"),
        "geomodel.sample_traces.rows": counts.get("geomodel.sample_traces.rows", 0.0),
    }
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.self_s"] = self_s.get(f"cli.{cmd}", 0.0)
    written = [f for p in procs if p.step.entry == "cli" for o in p.step.outputs for f in _files(o)]
    m["cli.bytes_written"] = float(sum(os.path.getsize(f) for f in written))
    for fn in ("read_drivers_csv", "read_observations_csv", "clean_targets", "build_features",
               "history_feature_rows", "write_table_cache", "read_table_cache"):
        m[f"ingest.{fn}.s"] = b(f"ingest.{fn}")
    m["ingest.read_observations_csv.rows"] = counts.get("ingest.read_observations_csv.rows", 0.0)
    m["ingest.cache_bytes"] = counts.get("ingest.cache_bytes", 0.0)
    for op in AUTODIFF_OPS:
        m[f"autodiff.{op}.fwd_s"] = b(f"autodiff.{op}")
        m[f"autodiff.{op}.bwd_s"] = b(f"autodiff.{op}#bwd")
        m[f"autodiff.{op}.calls"] = float(calls.get(f"autodiff.{op}", 0))
    m["autodiff.Tape.backward.s"] = b("autodiff.Tape.backward")
    for op in ("dense", "conv2d", "conv2d_transpose"):
        m[f"autodiff.{op}.gflop"] = counts.get(f"autodiff.{op}.flop", 0.0) / 1e9
    for op in LOSS_OPS:
        m[f"losses.{op}.fwd_s"] = b(f"losses.{op}")
        m[f"losses.{op}.bwd_s"] = b(f"losses.{op}#bwd")
    m["models.forward_baseline.s"] = b("models.forward_baseline")
    m["models.predict_point.s"] = b("models.predict_point")
    m["models.forward_convdecoder.train_s"] = b("models.forward_convdecoder.train")
    m["models.forward_convdecoder.infer_s"] = b("models.forward_convdecoder.infer")
    m["models.save_checkpoint.s"] = b("models.save_checkpoint")
    m["models.load_checkpoint.s"] = b("models.load_checkpoint")
    m["train.train_model.s"] = b("train.train_model")
    m["train.loop.self_s"] = self_s.get("train.train_model", 0.0)
    m["train.adam_step.s"] = b("train.adam_step")
    m["train.steps"] = float(calls.get("train.adam_step", 0))
    m["train.epochs"] = counts.get("train.epochs", 0.0)
    m["train.build_sparse_samples.s"] = b("train.build_sparse_samples")
    m["train.sparse_samples"] = counts.get("train.sparse_samples", 0.0)
    m["train.sparse_target_mb"] = counts.get("train.sparse_target_bytes", 0.0) / 2**20
    allocated = counts.get("train.sparse_allocated_cells", 0.0)
    observed = counts.get("train.sparse_observed_cells", 0.0)
    m["train.sparse_observed_frac"] = observed / allocated if allocated else 0.0
    for fn in ("predict_grid", "render_map", "binned_errors", "tail_reduction", "histogram_compare"):
        m[f"evaluate.{fn}.s"] = b(f"evaluate.{fn}")
    for stage in STAGES:
        m[f"trace.{stage}.uncovered_s"] = sum(
            p.wall_s - sum(t1 - t0 for _, t0, t1, parent in p.spans["spans"] if parent < 0)
            for p in procs
            if p.step.stage == stage
        )
    return m, busy, calls, counts


def check_coverage(workload: str, size: Size, busy: dict, calls: dict, counts: dict):
    """The trace saw every step, every conv call and every expected span."""
    steps = calls.get("train.adam_step", 0)
    backward = calls.get("autodiff.Tape.backward", 0)
    expected_steps = counts.get("train.expected_steps", 0.0)
    if not (steps == backward == expected_steps):
        raise CheckFailed(
            f"Tape.backward calls {backward}, adam_step calls {steps}, expected steps {expected_steps:g}"
        )
    conv_expected = 0
    if workload == "conv_sparse":
        conv_expected = steps + counts.get("train.epochs", 0.0) + size.maps
    conv_calls = calls.get("autodiff.conv2d", 0)
    if conv_calls != conv_expected:
        raise CheckFailed(f"conv2d forward calls {conv_calls}, expected {conv_expected:g}")
    missing = [name for name in EXPECTED_SPANS[workload] if name not in busy]
    if missing:
        raise CheckFailed(f"spans never fired: {', '.join(missing)}")


UNITS_BY_NAME = {
    "train_samples_per_s": "1/s",
    "val_mse": "log10sq",
    "tail_mae_p99": "log10",
    "failed_frac": "ratio",
    "train.sparse_observed_frac": "ratio",
    "cli.bytes_written": "B",
    "ingest.cache_bytes": "B",
}


def unit_of(name: str) -> str:
    if name in UNITS_BY_NAME:
        return UNITS_BY_NAME[name]
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".gflop"):
        return "GFLOP"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


# ── Run ───────────────────────────────────────────────────────────────

def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def stage_metrics(reps: list[list[Proc]], quality: dict, samples: float, failed_frac: float) -> dict:
    """Stage-level figures of the untraced repetitions: median over
    repetitions of each stage's summed wall time and peak RSS."""

    def per_rep(stage, key, agg):
        return _median([agg([key(p) for p in ps if p.step.stage == stage] or [0.0]) for ps in reps])

    wall, rss = attrgetter("wall_s"), attrgetter("rss_mb")
    train_s = per_rep("train", wall, sum)
    return {
        "synth_s": per_rep("synth", wall, sum),
        "features_s": per_rep("features", wall, sum),
        "composite_s": per_rep("composite", wall, sum),
        "train_s": train_s,
        "train_samples_per_s": samples / train_s if train_s else 0.0,
        "map_p50_s": _median([p.wall_s for ps in reps for p in ps if p.step.stage == "map"]),
        "synth_rss_mb": per_rep("synth", rss, max),
        "features_rss_mb": per_rep("features", rss, max),
        "composite_rss_mb": per_rep("composite", rss, max),
        "train_rss_mb": per_rep("train", rss, max),
        "val_mse": quality.get("val_mse", 0.0),
        "tail_mae_p99": quality.get("tail_mae_p99", 0.0),
        "failed_frac": failed_frac,
    }


def run_record(args, size: Size) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):  # numpy without a dict-valued show_config
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = git.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "size": {
            "days": size.days,
            "n_sats": 3,
            "epochs": size.epochs,
            "patience": size.epochs,
            "maps": size.maps,
            "grid": size.grid,
        },
        "setup_repeats": 1 if args.trace else SETUP_REPEATS[args.workload],
        "nproc": len(os.sched_getaffinity(0)),
        "ram_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
    }


def run(args, deadline: float) -> tuple[bool, int, int, dict, dict]:
    size = (SMOKE_SIZES if args.smoke else SIZES)[args.workload]
    record = run_record(args, size)
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    runner = Runner(work, deadline)
    traced_setup = bool(args.trace)
    metrics: dict = {}
    correct = True
    try:
        setup_times, setup_procs, setup_fp = [], [], None
        for k in range(record["setup_repeats"]):
            sdir = os.path.join(work, f"setup{k}")
            os.makedirs(sdir)
            steps, world = setup_steps(args.workload, sdir, size, args.seed)
            setup_procs = [runner.run(s, traced_setup) for s in steps]
            setup_times.append(sum(p.wall_s for p in setup_procs))
            fp, _ = check_outputs(args.workload, setup_procs, size)
            if setup_fp is not None and fp != setup_fp:
                raise CheckFailed("set-up outputs differ between repeats")
            setup_fp = fp
            if k:
                shutil.rmtree(os.path.join(work, f"setup{k - 1}"))

        untraced: list[list[Proc]] = []
        traced_layers: list[dict] = []
        traced_walls: list[float] = []
        quality: dict = {}
        rep_fp = None
        t0 = time.monotonic()
        min_reps = 2 if args.trace else MIN_REPS
        while True:
            n = len(untraced) + len(traced_walls)
            traced = bool(args.trace) and n % 2 == 1
            rep = os.path.join(work, f"rep{n}")
            os.makedirs(rep)
            steps = rep_steps(args.workload, work, world, rep, size, args.seed)
            procs = [runner.run(s, traced) for s in steps]
            fp, quality = check_outputs(args.workload, procs, size)
            if rep_fp is not None and fp != rep_fp:
                raise CheckFailed("outputs differ between repetitions of the same seed")
            rep_fp = fp
            wall = sum(p.wall_s for p in procs)
            if traced:
                layers, busy, calls, counts = layer_metrics(setup_procs + procs)
                check_coverage(args.workload, size, busy, calls, counts)
                layers["train.samples"] = counts.get("train.samples", 0.0)
                traced_layers.append(layers)
                traced_walls.append(wall)
            else:
                untraced.append(procs)
            shutil.rmtree(rep)
            if n + 1 >= min_reps and (
                time.monotonic() - t0 >= args.seconds or time.monotonic() + 1.5 * wall > deadline
            ):
                break

        pipeline = [sum(p.wall_s for p in procs) for procs in untraced]
        record["setup_s_each"] = setup_times
        record["pipeline_s_each"] = pipeline
        record["stages_each"] = [
            [(p.step.stage, round(p.wall_s, 4), round(p.rss_mb, 1)) for p in procs] for procs in untraced
        ]
        record["quality"] = quality
        if args.trace:
            metrics = {k: _median([lm[k] for lm in traced_layers]) for k in traced_layers[0]}
            samples = metrics.pop("train.samples")
            metrics.update(stage_metrics(untraced, quality, samples, len(runner.failures) / runner.attempted))
            metrics["trace.overhead_s"] = _median(traced_walls) - _median(pipeline)
            record["traced_pipeline_s_each"] = traced_walls
        else:
            # Sum, and max, over the steps of each step's median over
            # repetitions: one slow process in one repetition does not move it.
            by_step = list(zip(*untraced))
            metrics = {
                "setup_s": _median(setup_times),
                "pipeline_s": sum(_median([p.wall_s for p in ps]) for ps in by_step),
                "peak_rss_mb": max(_median([p.rss_mb for p in ps]) for ps in by_step),
            }
    except CheckFailed as exc:
        correct = False
        metrics = {}
        record["error"] = str(exc)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    record["failures"] = runner.failures
    record["attempted"] = runner.attempted
    return correct, runner.attempted, len(runner.failures), metrics, record


def main(argv=None) -> int:
    deadline = time.monotonic() + RUN_DEADLINE_S
    # SIGTERM unwinds like an interrupt: the running child is killed and
    # reaped, and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "auroracast", "cli.py")):
        print(f"run.py: no auroracast sources under {SRC}", file=sys.stderr)
        return 2

    correct, attempted, failed, metrics, record = run(args, deadline)
    print(json.dumps({"record": record}, default=str))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
