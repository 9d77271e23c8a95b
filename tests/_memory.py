"""Peak heap use of one call, as ``tracemalloc`` sees it (numpy buffers included)."""

from __future__ import annotations

import tracemalloc


def peak_bytes(fn, *args):
    """Run ``fn(*args)``; return (peak bytes allocated during the call, result)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result
