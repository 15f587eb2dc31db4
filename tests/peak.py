"""The peak memory a block allocates, for tests that bound it.

tracemalloc sees numpy's buffers, so the peak counts every array the block
holds at once. It is taken above the memory traced when the block starts:
what the test built before does not count.
"""
import tracemalloc
from contextlib import contextmanager


class Peak:
    bytes = 0


@contextmanager
def traced_peak():
    """Yields a Peak whose bytes, on exit, is the block's traced peak above
    its start."""
    peak, started = Peak(), not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        yield peak
    finally:
        peak.bytes = tracemalloc.get_traced_memory()[1] - base
        if started:
            tracemalloc.stop()
