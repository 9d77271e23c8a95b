"""Composite sparse grid targets the way ``auroracast train --sparse`` does
before its first step, and report what was built.

    python perfbench/composite.py SYNTH_DIR

The calls are the public API in the order ``cli._train_sparse`` makes
them: read both CSVs, clean the targets at the default percentile, then
``build_sparse_samples`` on the conv decoder's default grid. Prints one
JSON line with the sample count and the number of empty windows.
"""

from __future__ import annotations

import json
import os
import sys

from auroracast import geomodel as G
from auroracast import ingest as I
from auroracast import models as M
from auroracast import train as T


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: composite.py SYNTH_DIR", file=sys.stderr)
        return 2
    synth_dir = argv[0]
    drivers = I.read_drivers_csv(os.path.join(synth_dir, "drivers.csv"))
    obs, n_nonpositive = I.read_observations_csv(os.path.join(synth_dir, "observations.csv"))
    obs, _ = I.clean_targets(obs, 99.995, None, n_nonpositive)
    schema = I.schema_from_config({})
    M.assert_global_only(schema.global_names)
    arch = M.arch_from_config({"arch": "conv"}, input_width=len(schema.global_names))
    spec = G.GridSpec(n_lat=arch.n_lat, n_mlt=arch.n_mlt)
    samples, n_empty = T.build_sparse_samples(drivers, obs, schema, spec)
    print(json.dumps({"samples": len(samples), "empty_windows": n_empty}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
