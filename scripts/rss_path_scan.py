"""Peak RSS of the conv decoder's training stage against the length of the
directory its sources are imported from.

    python scripts/rss_path_scan.py CHECKOUT [CHECKOUT ...] [--lengths A-B]

The conv_sparse benchmark's ``train --sparse`` stage has two peak-RSS modes
about 16 MB apart for the same code, and which one a run lands in follows
the byte length of the paths and modules it imports (ROADMAP, direction 5).
One reading per side cannot tell a change in memory use from a change of
mode; this scan shows each side's modes next to each other.

For each checkout, the script first synthesizes the conv_sparse world with
that checkout's sources. Then, for each length L in A..B (default 1-32), it
copies the checkout's ``src/`` into a temporary directory whose name is L
``x`` characters and runs the conv_sparse ``train --sparse`` stage from the
copy, with ``PYTHONPATH`` at the copy and one BLAS thread, and records the
child's ``ru_maxrss`` from ``os.wait4``. The copy is byte-compiled first,
as a benchmark checkout is by the stages that run before training. Every
copy lives under one parent directory, so only L changes between the runs
of a scan.

The synth and train steps are built by ``perfbench/run.py`` (``SIZES``,
``setup_steps`` and ``rep_steps``, which call ``synth_step`` and
``train_step``) at the reference seed 1, so the stage is the one the
benchmark runs. It prints one JSON line per checkout:

    {"checkout": "...", "seed": 1, "peak_rss_mb": {"1": 120.6, "2": 136.8, ...}}

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

WORKLOAD = "conv_sparse"
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


def scan(checkout: str, lengths: range, base: str) -> dict[str, float]:
    """Peak RSS of the train stage per directory-name length, for one checkout."""
    src = os.path.join(os.path.abspath(checkout), "src")
    if not os.path.isfile(os.path.join(src, "auroracast", "cli.py")):
        raise StageFailed(f"no auroracast sources under {src}")
    size = bench.SIZES[WORKLOAD]
    work = tempfile.mkdtemp(prefix="work", dir=base)
    try:
        steps, world = bench.setup_steps(WORKLOAD, work, size, SEED)
        for step in steps:
            _run(_cli(step), src, work)
        peaks = {}
        for n in lengths:
            copy = os.path.join(base, "x" * n)
            rep = os.path.join(work, f"rep{n}")
            os.makedirs(rep)
            shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
            try:
                compileall.compile_dir(copy, quiet=1)
                train = bench.rep_steps(WORKLOAD, work, world, rep, size, SEED)[0]
                if train.stage != "train":
                    raise StageFailed(f"perfbench's first {WORKLOAD} step is {train.stage}, not train")
                peaks[str(n)] = round(_run(_cli(train), copy, work), 1)
            finally:
                shutil.rmtree(copy)
                shutil.rmtree(rep)
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
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="rss_scan") as base:
        for checkout in args.checkouts:
            try:
                peaks = scan(checkout, args.lengths, base)
            except StageFailed as exc:
                print(f"rss_path_scan: {checkout}: {exc}", file=sys.stderr)
                return 1
            print(json.dumps({"checkout": checkout, "seed": SEED, "peak_rss_mb": peaks}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
