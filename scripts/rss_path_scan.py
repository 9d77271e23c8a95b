"""Peak RSS of the stage that sets a benchmark workload's peak, against the
length of the directory its sources are imported from.

    python scripts/rss_path_scan.py CHECKOUT [CHECKOUT ...] [--lengths A-B]
        [--workload conv_sparse|point_train]

The conv_sparse benchmark's ``train --sparse`` stage once had two peak-RSS
modes about 16 MB apart for the same code, and which one a run landed in
followed the byte length of the paths and modules it imported: freed
training-step heap stayed resident under the whole-grid validation pass.
Since ``train`` trims the heap before validating, and validation predicts
at the observed cells only, a scan at lengths 1-8 reads within about
0.4 MB (48.9-49.3 MB, against 56.2-56.9 MB before ``conv2d_transpose``
planned its site taps per axis). point_train's peak stage, the first
``map``, read 207.1-207.3 MB at every length of the same scan, although
that workload's ``peak_rss_mb`` once moved 10 MB with no change on its
path. One reading per side cannot tell a change in memory use from a
change of mode, so this scan shows each side's readings next to each
other, and shows whether a change brings a mode back.

For each checkout, the script first runs the workload's set-up steps
(synthesis, and for point_train the feature cache) and then the steps of
one repetition that come before the scanned stage (point_train's two
``train`` runs and ``eval``), once, with that checkout's sources. Then,
for each length L in A..B (default 1-32), it copies the checkout's
``src/`` into a temporary directory whose name is L ``x`` characters and
runs the scanned stage from the copy (conv_sparse: ``train --sparse``;
point_train: the first ``map``), with ``PYTHONPATH`` at the copy and one
BLAS thread, and records the child's ``ru_maxrss`` from ``os.wait4``. The
copy is byte-compiled first, as a benchmark checkout is by the stages
that run before the scanned one. Where ``PYTHONDONTWRITEBYTECODE`` is
set, the benchmark's own stages write no bytecode and compile every
module they import, and read above the scan: conv_sparse's ``train``
stage by about 0.4 MB, point_train's ``map`` by about 1 MB. Every copy
lives under one parent directory, so only L changes between the runs of
a scan.

The steps are built by ``perfbench/run.py`` (``SIZES``, ``setup_steps``
and ``rep_steps``) at the reference seed 1, so the stage is the one the
benchmark runs. It prints one JSON line per checkout:

    {"checkout": "...", "workload": "conv_sparse", "stage": "train",
     "seed": 1, "peak_rss_mb": {"1": 49.0, "2": 49.0, ...}}

A stage that exits non-zero stops the scan with exit status 1.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run as bench  # noqa: E402

# The stage whose first run a scan repeats: the one that sets each
# workload's peak RSS.
STAGES = {"conv_sparse": "train", "point_train": "map"}
SEED = 1


class StageFailed(Exception):
    """A synth or train stage exited non-zero."""


def _run(argv: list[str], src: str, cwd: str) -> float:
    """Run ``argv`` with ``src`` as its only ``PYTHONPATH`` entry; returns
    the child's peak RSS in MB."""
    env = dict(os.environ, PYTHONPATH=src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(bench.BLAS_THREADS)
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    err = proc.stderr.read()
    proc.stderr.close()
    # wait4, not Popen.wait, for the child's own peak RSS
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = err.decode(errors="replace")[-2000:]
        raise StageFailed(f"`{' '.join(argv[3:])}` exited with {proc.returncode}:\n{tail}")
    return usage.ru_maxrss / 1024.0


def _cli(step: bench.Step) -> list[str]:
    return [sys.executable, "-m", "auroracast.cli", *step.args]


def _remove(paths: list[str]):
    for path in paths:
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.exists(path):
            os.remove(path)


def scan(checkout: str, workload: str, lengths: range, base: str) -> dict[str, float]:
    """Peak RSS of the workload's scanned stage per directory-name length,
    for one checkout."""
    src = os.path.join(os.path.abspath(checkout), "src")
    if not os.path.isfile(os.path.join(src, "auroracast", "cli.py")):
        raise StageFailed(f"no auroracast sources under {src}")
    size = bench.SIZES[workload]
    work = tempfile.mkdtemp(prefix="work", dir=base)
    try:
        steps, world = bench.setup_steps(workload, work, size, SEED)
        rep = os.path.join(work, "rep")
        os.makedirs(rep)
        reps = bench.rep_steps(workload, work, world, rep, size, SEED)
        stage = STAGES[workload]
        at = next((i for i, step in enumerate(reps) if step.stage == stage), None)
        if at is None:
            raise StageFailed(f"perfbench's {workload} steps have no {stage} stage")
        # the steps before the scanned one run once, from the checkout
        for step in steps + reps[:at]:
            _run(_cli(step), src, work)
        peaks = {}
        for n in lengths:
            copy = os.path.join(base, "x" * n)
            shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
            try:
                compileall.compile_dir(copy, quiet=1)
                peaks[str(n)] = round(_run(_cli(reps[at]), copy, work), 1)
            finally:
                shutil.rmtree(copy)
                _remove(reps[at].outputs)
        return peaks
    finally:
        shutil.rmtree(work)


def _lengths(text: str) -> range:
    try:
        lo, hi = (int(v) for v in text.split("-"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B, got {text!r}") from None
    if not 1 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"need 1 <= A <= B, got {text!r}")
    return range(lo, hi + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="+", help="repository checkouts whose src/ to scan")
    parser.add_argument("--lengths", type=_lengths, default=_lengths("1-32"),
                        help="directory-name lengths A-B to copy src/ to (default 1-32)")
    parser.add_argument("--workload", choices=sorted(STAGES), default="conv_sparse",
                        help="benchmark workload whose peak stage to scan (default conv_sparse)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="rss_scan") as base:
        for checkout in args.checkouts:
            try:
                peaks = scan(checkout, args.workload, args.lengths, base)
            except StageFailed as exc:
                print(f"rss_path_scan: {checkout}: {exc}", file=sys.stderr)
                return 1
            line = {"checkout": checkout, "workload": args.workload, "stage": STAGES[args.workload],
                    "seed": SEED, "peak_rss_mb": peaks}
            print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
