"""Print how far apart the CSV outputs of two output trees are.

    python scripts/csv_max_diff.py BASE_DIR HEAD_DIR

Both directories hold the outputs of ``scripts/output_hashes.py``. For
every ``.csv`` file whose bytes differ between them, or that only one of
them has, the script prints one line: how many fields differ, and the
largest absolute and relative difference between numeric fields, each
with the row and column where it occurs. The relative difference of two
numbers a and b is |a - b| / max(|a|, |b|). Fields that are not numbers on
both sides, NaN included, count as differing when their text does. A
file whose first row is all numbers has no header, and its columns are
named by number. So a change that moves outputs by rounding reads as one
small number per file:

    train/conv/history.csv: 4 of 9 fields differ; max abs 6.3e-09 (row 2, train_loss); max rel 6.5e-09 (row 2, train_loss)

Files with equal bytes print nothing. The script only reports: it exits 0
whatever it finds, and 2 on a usage error.
"""

from __future__ import annotations

import csv
import math
import os
import sys


def csv_files(top: str) -> set[str]:
    found = set()
    for root, _, files in os.walk(top):
        for name in files:
            if name.endswith(".csv"):
                found.add(os.path.relpath(os.path.join(root, name), top).replace(os.sep, "/"))
    return found


def _number(field: str) -> float | None:
    try:
        value = float(field)
    except ValueError:
        return None
    return None if math.isnan(value) else value


def compare(base_rows: list[list[str]], head_rows: list[list[str]]) -> str:
    """One line on how ``head_rows`` differ from ``base_rows``. A first
    row with a field that is not a number names the columns."""
    if len(base_rows) != len(head_rows):
        return f"{len(base_rows)} rows vs {len(head_rows)}"
    if any(len(b) != len(h) for b, h in zip(base_rows, head_rows)):
        return "row widths differ"
    header = base_rows[0] if base_rows and None in map(_number, base_rows[0]) else []
    fields = differ = 0
    worst_abs = worst_rel = (0.0, "")
    for i, (b_row, h_row) in enumerate(zip(base_rows, head_rows)):
        for j, (b, h) in enumerate(zip(b_row, h_row)):
            fields += 1
            if b == h:
                continue
            differ += 1
            x, y = _number(b), _number(h)
            if x is None or y is None:
                continue
            where = f"row {i}, {header[j] if header else f'column {j}'}"
            gap = abs(x - y)
            rel = gap / max(abs(x), abs(y)) if gap else 0.0
            worst_abs = max(worst_abs, (gap, where))
            worst_rel = max(worst_rel, (rel, where))
    return (
        f"{differ} of {fields} fields differ; "
        f"max abs {worst_abs[0]:.2g} ({worst_abs[1] or '-'}); "
        f"max rel {worst_rel[0]:.2g} ({worst_rel[1] or '-'})"
    )


def _read(path: str) -> tuple[bytes, list[list[str]]]:
    with open(path, "rb") as fh:
        raw = fh.read()
    return raw, list(csv.reader(raw.decode().splitlines()))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: csv_max_diff.py BASE_DIR HEAD_DIR", file=sys.stderr)
        return 2
    base, head = argv
    base_files, head_files = csv_files(base), csv_files(head)
    for rel in sorted(base_files | head_files):
        if rel not in head_files or rel not in base_files:
            print(f"{rel}: only in {base if rel in base_files else head}")
            continue
        base_raw, base_rows = _read(os.path.join(base, rel))
        head_raw, head_rows = _read(os.path.join(head, rel))
        if base_raw != head_raw:
            print(f"{rel}: {compare(base_rows, head_rows)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
