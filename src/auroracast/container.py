"""The one binary file format: a checksummed container of named arrays.

The feature cache (``ingest.write_table_cache``) and the checkpoints
(``models.save_checkpoint``) are both containers. Layout, every integer
little-endian:

  magic       4 bytes, ``AURC``
  header_len  u32, the byte length of the header
  header      canonical JSON (sorted keys, no spaces), UTF-8:
              {"arrays": [{"dtype": "<f4", "name": ..., "shape": [...]}, ...],
               "kind": ..., "meta": {...}, "version": 1}
  arrays      in header order, each starting at the next multiple of 8
              bytes from the start of the file; zero bytes fill the gaps
  crc         u32 CRC32 of every byte before it

``write`` converts and writes each array a row chunk at a time, so no
whole-file buffer is built. An array may also be given as ``Blocks``, its
shape and the row blocks that make it up, which are written as they are
made, so the whole array is never held. The file is written under a
temporary name in the same directory and renamed over ``path`` only when
complete: a write that fails, whether on a block or on the disk, removes
the temporary file and leaves whatever was at ``path`` as it was.
``read`` checks the magic first, then the
CRC over the raw bytes, then the kind and version, and last that the
arrays end exactly at the CRC. It returns the metadata and read-only
views of the file's bytes; no array is copied. Older formats (``AFT1``
and ``AFT2`` caches, ``AURN`` checkpoints) fail the magic check with the
command that rebuilds them; there is no migration reader.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from .errors import DataError

MAGIC = b"AURC"
VERSION = 1
_ALIGN = 8
_CHUNK_BYTES = 1 << 18


def row_chunks(n: int, row_bytes: int):
    """Slices of about ``_CHUNK_BYTES`` covering rows 0..n in order."""
    step = max(1, _CHUNK_BYTES // max(1, row_bytes))
    return (slice(r0, min(r0 + step, n)) for r0 in range(0, n, step))


@dataclass(frozen=True)
class Blocks:
    """An array given as its ``shape`` and ``blocks``, a function whose
    every call yields, in order, the row blocks that make up the array."""

    shape: tuple[int, ...]
    blocks: Callable[[], Iterable[np.ndarray]]

    def __iter__(self):
        return iter(self.blocks())


def write(path, kind: str, meta: dict, arrays: dict):
    """Write a container of ``kind`` holding ``meta`` (JSON-serializable)
    and ``arrays``, a mapping of name to ``(array, dtype)``, where an
    array may be ``Blocks``; each array is stored with its shape as the
    little-endian form of ``dtype``. Blocks that do not make up their
    declared shape are a ValueError. The file appears at ``path`` only
    once it is whole."""
    specs = [(name, arr, np.dtype(dtype).newbyteorder("<")) for name, (arr, dtype) in arrays.items()]
    header = {
        "kind": kind,
        "version": VERSION,
        "meta": meta,
        "arrays": [{"name": name, "dtype": dt.str, "shape": list(arr.shape)} for name, arr, dt in specs],
    }
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    crc = 0
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "wb")
    except OSError as exc:  # named by the path asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with fh:

            def put(block):
                nonlocal crc
                fh.write(block)
                crc = zlib.crc32(block, crc)

            put(MAGIC + struct.pack("<I", len(raw)) + raw)
            offset = 8 + len(raw)
            for name, arr, dt in specs:
                pad = -offset % _ALIGN
                put(bytes(pad))
                n, row_shape = arr.shape[0], tuple(arr.shape[1:])
                blocks = arr
                if not isinstance(arr, Blocks):
                    blocks = (arr[sl] for sl in row_chunks(n, dt.itemsize * math.prod(row_shape)))
                rows = 0
                for block in blocks:
                    block = np.ascontiguousarray(block, dtype=dt)
                    rows += len(block)
                    if block.shape[1:] != row_shape:
                        raise ValueError(f"container.write: blocks of {name} do not make its shape")
                    put(block)
                    del block  # before the next block is made
                if rows != n:
                    raise ValueError(f"container.write: blocks of {name} do not make its shape")
                offset += pad + dt.itemsize * n * math.prod(row_shape)
            fh.write(struct.pack("<I", crc))
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def read(path, kind: str, rebuild_hint: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Load a container written by ``write`` as ``(meta, arrays)``.

    Every fault is a DataError naming ``path``; a foreign magic or an
    unknown version also names ``rebuild_hint``, the command that writes
    the file anew.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    rebuild = f"re-run `{rebuild_hint}` to rebuild it"
    if raw[:4] != MAGIC:
        raise DataError(f"{path}: bad magic {raw[:4]!r}, expected {MAGIC!r}; {rebuild}")
    body = memoryview(raw)[:-4]
    if len(raw) < 12 or zlib.crc32(body) != struct.unpack("<I", raw[-4:])[0]:
        raise DataError(f"{path}: CRC32 checksum mismatch, the file is truncated or corrupt")
    try:
        (header_len,) = struct.unpack_from("<I", body, 4)
        header = json.loads(bytes(body[8 : 8 + header_len]))
        found, version, meta = header["kind"], header["version"], header["meta"]
    except (struct.error, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{path}: corrupt container header ({exc!r})") from None
    if found != kind:
        raise DataError(f"{path}: holds a {found}, expected a {kind}")
    if version != VERSION:
        raise DataError(f"{path}: unsupported {kind} version {version!r}, expected {VERSION}; {rebuild}")
    arrays = {}
    offset = 8 + header_len
    try:
        for spec in header["arrays"]:
            offset += -offset % _ALIGN
            dt, shape = np.dtype(spec["dtype"]), tuple(spec["shape"])
            count = math.prod(shape)
            arrays[spec["name"]] = np.frombuffer(body, dt, count, offset).reshape(shape)
            offset += dt.itemsize * count
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: corrupt container header ({exc!r})") from None
    if offset != len(body):
        raise DataError(f"{path}: trailing bytes after the last array")
    return meta, arrays
