"""Run a fixed small chain of commands and print the sha256 of every output.

    python scripts/output_hashes.py OUT_DIR

The chain goes through ``auroracast.cli.main`` in one process, against the
sources in this checkout's ``src/``:

  synth     3 days, 3 satellites, ``--seed 5``; then ``features``
  train     baseline with mse, tail and dist, and multitask, 3 epochs
            each with ``--seed 1``; the conv decoder with ``--sparse`` on
            a 32x32 grid for 2 epochs
  eval      tail against mse, multitask against dist, and dist with no
            baseline
  map       the mse model and the conv model at t = 100000

Prints ``sha256  relpath`` for every file under OUT_DIR, in path order.
The outputs are byte-stable, so two runs print the same lines, and a
change that keeps the CLI's behaviour prints the same lines as its parent.
A command that exits non-zero stops the chain with exit status 1.
"""

from __future__ import annotations

import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from auroracast.cli import main as cli_main  # noqa: E402

TRAIN_EPOCHS = "train.max_epochs = 3"
POINT_RUNS = {
    "mse": ["loss = mse", TRAIN_EPOCHS],
    "tail": ["loss = tail", TRAIN_EPOCHS],
    "dist": ["loss = dist", TRAIN_EPOCHS],
    "multitask": ["arch = multitask", "loss = multitask", TRAIN_EPOCHS],
}
CONV_RUN = ["arch = conv", "arch.grid = 32", "loss = sparse_masked", "train.max_epochs = 2"]
MAP_AT = "100000"


def _config(out: str, name: str, lines: list[str]) -> str:
    path = os.path.join(out, "configs", f"{name}.cfg")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def run_chain(out: str):
    def cli(*argv):
        if cli_main(list(argv)) != 0:
            raise SystemExit(f"output_hashes: `auroracast {' '.join(argv)}` failed")

    world = os.path.join(out, "world")
    drivers = os.path.join(world, "drivers.csv")
    table = os.path.join(out, "table.aft")
    cli("synth", "--config", _config(out, "synth", ["world.n_sats = 3"]),
        "--out-dir", world, "--days", "3", "--seed", "5")
    cli("features", "--drivers", drivers, "--obs", os.path.join(world, "observations.csv"),
        "--out", table)

    ckpt = {}
    for name, lines in POINT_RUNS.items():
        run_dir = os.path.join(out, "train", name)
        cli("train", "--features", table, "--config", _config(out, name, lines),
            "--out-dir", run_dir, "--seed", "1")
        ckpt[name] = os.path.join(run_dir, "checkpoint.aur")
    conv_dir = os.path.join(out, "train", "conv")
    cli("train", "--sparse", world, "--config", _config(out, "conv", CONV_RUN),
        "--out-dir", conv_dir, "--seed", "1")
    ckpt["conv"] = os.path.join(conv_dir, "checkpoint.aur")

    for cand, base in (("tail", "mse"), ("multitask", "dist"), ("dist", None)):
        baseline = ["--baseline-checkpoint", ckpt[base]] if base else []
        cli("eval", "--checkpoint", ckpt[cand], "--features", table, *baseline,
            "--out-dir", os.path.join(out, "eval", cand))
    os.makedirs(os.path.join(out, "map"))
    for name in ("mse", "conv"):
        cli("map", "--checkpoint", ckpt[name], "--drivers", drivers, "--at", MAP_AT,
            "--out", os.path.join(out, "map", name))


def file_hashes(out: str) -> list[tuple[str, str]]:
    found = []
    for root, _, files in os.walk(out):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            found.append((os.path.relpath(path, out).replace(os.sep, "/"), digest))
    return sorted(found)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: output_hashes.py OUT_DIR", file=sys.stderr)
        return 2
    out = argv[0]
    if os.path.exists(out) and os.listdir(out):
        print(f"output_hashes: {out} is not empty", file=sys.stderr)
        return 2
    run_chain(out)
    for rel, digest in file_hashes(out):
        print(f"{digest}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
