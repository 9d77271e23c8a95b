"""Run one auroracast CLI command, or the composite driver, with spans
recorded around the public functions of every package module.

    python perfbench/tracer.py SPANS_JSON cli ARGS...
    python perfbench/tracer.py SPANS_JSON composite ARGS...

Wrappers are installed where each caller looks a function up: module
attributes for calls written ``M.fn`` or made inside the defining module,
and the extra names that ``train`` and ``evaluate`` bind with ``from ...
import``. Backward time per op comes from wrapping ``Tape.record`` on the
class, so each closure is timed under the op whose forward span was open
when it was recorded. Spans stay in memory and are written as JSON when
the command ends: ``{"spans": [[name, start, end, parent], ...],
"counts": {name: value}}``, with ``parent`` the index of the enclosing
span or -1. Nothing here changes what the command computes.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))

AUTODIFF_OPS = (
    "dense",
    "relu",
    "dropout",
    "softmax",
    "reshape",
    "add_channel_bias",
    "pad_periodic_mlt",
    "pad_zero_lat",
    "conv2d",
    "conv2d_transpose",
)
LOSS_OPS = ("mse_op", "tail_loss_op", "sparse_masked_loss_op")
CLI_COMMANDS = ("synth", "features", "train", "eval", "map")


class Recorder:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.bwd_flops: dict[int, float] = {}

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, before=None, after=None):
        """Span ``name`` around fn; ``before(idx, args, kwargs)`` runs inside
        the span before the call, ``after(args, kwargs, result)`` after it."""

        def wrapper(*args, **kwargs):
            idx = self.open(name if not callable(name) else name(args, kwargs))
            try:
                if before is not None:
                    before(idx, args, kwargs)
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


# ── FLOP counts from argument shapes ─────────────────────────────────

def _dense_flops(x, w):
    n, di = x.shape
    do = w.shape[1]
    fwd = 2.0 * n * di * do
    return fwd, 2.0 * fwd  # backward: x^T dy and dy w^T


def _conv2d_flops(x, k):
    n, ci, h, w = x.shape
    co, _, kh, kw = k.shape
    ho, wo = h - kh + 1, w - kw + 1
    fwd = 2.0 * n * co * ci * kh * kw * ho * wo
    # backward: kernel grad over the same windows, input grad as a full
    # correlation of the padded output grad (an h x w output)
    return fwd, fwd + 2.0 * n * ci * co * kh * kw * h * w


def _conv2d_transpose_flops(x, k):
    n, ci, h, w = x.shape
    _, co, kh, kw = k.shape
    fwd = 2.0 * n * ci * co * kh * kw * h * w
    return fwd, 2.0 * fwd  # backward: input grad and kernel grad


FLOPS = {
    "dense": _dense_flops,
    "conv2d": _conv2d_flops,
    "conv2d_transpose": _conv2d_transpose_flops,
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def install(rec: Recorder):
    """Wrap the public functions of each auroracast module in place."""
    from auroracast import autodiff as ad
    from auroracast import cli
    from auroracast import evaluate as E
    from auroracast import geomodel as G
    from auroracast import ingest as I
    from auroracast import losses as L
    from auroracast import models as M
    from auroracast import train as T

    def add(key, value):
        rec.counts[key] += value

    def patch(module, attr, name, before=None, after=None):
        setattr(module, attr, rec.wrap(name, getattr(module, attr), before, after))

    # geomodel
    patch(G, "gen_drivers", "geomodel.gen_drivers")
    patch(
        G,
        "sample_traces",
        "geomodel.sample_traces",
        after=lambda a, k, out: add("geomodel.sample_traces.rows", len(out)),
    )

    # ingest
    patch(I, "read_drivers_csv", "ingest.read_drivers_csv")
    patch(
        I,
        "read_observations_csv",
        "ingest.read_observations_csv",
        after=lambda a, k, out: add("ingest.read_observations_csv.rows", len(out[0])),
    )
    patch(I, "clean_targets", "ingest.clean_targets")
    patch(I, "build_features", "ingest.build_features")
    patch(
        I,
        "write_table_cache",
        "ingest.write_table_cache",
        after=lambda a, k, out: add("ingest.cache_bytes", os.path.getsize(_arg(a, k, 1, "path"))),
    )
    patch(
        I,
        "read_table_cache",
        "ingest.read_table_cache",
        after=lambda a, k, out: add("ingest.cache_bytes", os.path.getsize(_arg(a, k, 0, "path"))),
    )
    hist = rec.wrap("ingest.history_feature_rows", I.history_feature_rows)
    I.history_feature_rows = hist  # build_features and evaluate.predict_grid
    T.history_feature_rows = hist  # bound by name in train

    # autodiff: models calls ad.<op>; backward closures go through Tape.record
    for op in AUTODIFF_OPS:
        before = None
        if op in FLOPS:
            def before(idx, a, k, _op=op):
                fwd, bwd = FLOPS[_op](a[0].data, a[1].data)
                add(f"autodiff.{_op}.flop", fwd)
                rec.bwd_flops[idx] = bwd
        patch(ad, op, f"autodiff.{op}", before=before)

    orig_record = ad.Tape.record

    def record(tape, out, backward_fn):
        idx = rec.stack[-1] if rec.stack else -1
        owner = rec.spans[idx][0] if idx >= 0 else "autodiff.unattributed"
        flops = rec.bwd_flops.get(idx, 0.0)
        op = owner.split(".", 1)[1]

        def timed():
            j = rec.open(f"{owner}#bwd")
            try:
                backward_fn()
            finally:
                rec.close(j)
            if flops:
                add(f"autodiff.{op}.flop", flops)

        return orig_record(tape, out, timed)

    ad.Tape.record = record
    ad.Tape.backward = rec.wrap("autodiff.Tape.backward", ad.Tape.backward)

    # losses: train calls L.<op>(tape, pred, ...); a step's batch is pred's rows
    def count_samples(a, k, out):
        if _arg(a, k, 0, "tape") is not None:
            add("train.samples", a[1].shape[0])

    for op in LOSS_OPS:
        patch(L, op, f"losses.{op}", after=count_samples)

    # models
    patch(M, "forward_baseline", "models.forward_baseline")
    conv_name = (
        lambda a, k: "models.forward_convdecoder.train"
        if _arg(a, k, 3, "tape") is not None
        else "models.forward_convdecoder.infer"
    )
    fwd_conv = rec.wrap(conv_name, M.forward_convdecoder)
    M.forward_convdecoder = fwd_conv
    E.forward_convdecoder = fwd_conv  # bound by name in evaluate
    predict = rec.wrap("models.predict_point", M.predict_point)
    M.predict_point = predict
    E.predict_point = predict  # bound by name in evaluate
    patch(M, "save_checkpoint", "models.save_checkpoint")
    patch(M, "load_checkpoint", "models.load_checkpoint")

    # train: the steps a call must take follow from its epochs, rows and batch
    def train_model_after(a, k, out):
        model, data, config = a[0], a[1], a[2]
        n_train = data[0].n if hasattr(data[0], "n") else len(data[0])
        batch = config.resolved_batch_size(model.variant)
        epochs = len(out[1].epochs)
        add("train.epochs", epochs)
        add("train.expected_steps", epochs * -(-n_train // batch))

    patch(T, "train_model", "train.train_model", after=train_model_after)
    patch(T, "adam_step", "train.adam_step")

    def sparse_after(a, k, out):
        samples = out[0]
        add("train.sparse_samples", len(samples))
        observed = allocated = nbytes = 0
        for s in samples:
            observed += int(s.target.mask.sum())
            allocated += s.target.mask.size
            nbytes += s.target.values.nbytes + s.target.mask.nbytes
        add("train.sparse_target_bytes", nbytes)
        add("train.sparse_observed_cells", observed)
        add("train.sparse_allocated_cells", allocated)

    patch(T, "build_sparse_samples", "train.build_sparse_samples", after=sparse_after)

    # evaluate
    for fn in ("predict_grid", "render_map", "binned_errors", "tail_reduction", "histogram_compare"):
        patch(E, fn, f"evaluate.{fn}")

    # cli: build_parser binds cmd_* when main() runs, after this patch
    for cmd in CLI_COMMANDS:
        patch(cli, f"cmd_{cmd}", f"cli.{cmd}")


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] not in ("cli", "composite"):
        print("usage: tracer.py SPANS_JSON {cli|composite} ARGS...", file=sys.stderr)
        return 2
    spans_path, entry, rest = argv[0], argv[1], argv[2:]
    rec = Recorder()
    install(rec)
    if entry == "cli":
        from auroracast.cli import main as target
    else:
        sys.path.insert(0, HERE)
        from composite import main as target

        target = rec.wrap("composite", target)
    try:
        return target(rest)
    finally:
        rec.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
