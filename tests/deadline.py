"""A time limit for calls that must return.

pytest-timeout is not a dependency, so a loop that never ends would hang the
whole suite; under deadline it fails the one test with TimeoutError instead.
SIGALRM exists on POSIX only, and the alarm must be set from the main thread.
"""
import signal
from contextlib import contextmanager


@contextmanager
def deadline(seconds: int):
    def expire(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
