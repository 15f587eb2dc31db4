"""The peak memory a block allocates, for tests that bound it.

tracemalloc sees numpy's buffers, so the peak counts every array the block
holds at once. It is taken above the memory traced when the block starts:
what the test built before does not count.

stage_peaks does the same per function: it wraps named module functions and
records, for every call, the traced memory at entry, the call's peak and the
memory at exit. A nested call's peak counts towards its caller's.

line_peaks goes one level finer: it runs one call under sys.settrace and
gives, per line of the called function, the highest traced memory reached
while that line ran, calls it makes included.
"""
import importlib
import sys
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps


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


@dataclass
class Call:
    """Traced bytes of one call: at entry, the highest while it ran, at exit."""

    entry: int
    peak: int
    exit: int = 0


@contextmanager
def stage_peaks(*names):
    """Wraps each "package.module.function" in its module's namespace (where
    its callers look it up) and yields {name: [Call, ...]}, one Call per call
    in call order. Bytes are absolute, counted from where tracing starts."""
    calls = {name: [] for name in names}
    stack = []  # the open calls, innermost last

    def wrap(name, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            now, peak = tracemalloc.get_traced_memory()
            if stack:
                stack[-1].peak = max(stack[-1].peak, peak)
            tracemalloc.reset_peak()
            call = Call(now, now)
            calls[name].append(call)
            stack.append(call)
            try:
                return fn(*args, **kwargs)
            finally:
                call.exit, peak = tracemalloc.get_traced_memory()
                call.peak = max(call.peak, peak)
                stack.pop()
                if stack:
                    stack[-1].peak = max(stack[-1].peak, call.peak)
                tracemalloc.reset_peak()

        return traced

    hooks = []
    for name in names:
        mod_name, attr = name.rsplit(".", 1)
        module = importlib.import_module(mod_name)
        hooks.append((module, attr, getattr(module, attr)))
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        for (module, attr, fn), name in zip(hooks, names):
            setattr(module, attr, wrap(name, fn))
        yield calls
    finally:
        for module, attr, fn in hooks:
            setattr(module, attr, fn)
        if started:
            tracemalloc.stop()


def line_peaks(fn, *args, **kwargs) -> dict[int, int]:
    """Runs fn(*args, **kwargs) once and returns {line number: bytes}, for
    each line of fn's own body that ran, the highest traced memory while it
    ran (the functions it calls included), above the memory traced at the
    call. A line that runs more than once keeps its highest peak."""
    code, peaks = fn.__code__, {}
    current = []  # the fn frame's line running now

    def close(line):
        peak = tracemalloc.get_traced_memory()[1] - base
        peaks[line] = max(peaks.get(line, peak), peak)
        tracemalloc.reset_peak()

    def local(frame, event, arg):
        if event in ("line", "return"):
            if current:
                close(current.pop())
            if event == "line":
                current.append(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code is code else None

    started, previous = not tracemalloc.is_tracing(), sys.gettrace()
    if started:
        tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    sys.settrace(calls)
    try:
        fn(*args, **kwargs)
    finally:
        sys.settrace(previous)
        if started:
            tracemalloc.stop()
    return peaks
