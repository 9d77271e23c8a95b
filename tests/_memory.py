"""Heap use of one call, as ``tracemalloc`` sees it (numpy buffers included)."""

from __future__ import annotations

import tracemalloc


def traced_bytes(fn, *args):
    """Run ``fn(*args)``; return (peak bytes allocated during the call,
    bytes still allocated at its end, result). What the result holds
    counts in the second."""
    tracemalloc.start()
    try:
        result = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, held, result


def peak_bytes(fn, *args):
    """Run ``fn(*args)``; return (peak bytes allocated during the call, result)."""
    peak, _, result = traced_bytes(fn, *args)
    return peak, result
