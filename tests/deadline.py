"""Run an elimination under a SIGALRM deadline, so that code which loops
for ever (a broken pivot search, say) fails its test instead of hanging the
suite; pytest-timeout is not a dependency.  POSIX only, main thread only."""

import signal

import pytest


def within(seconds: int, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, or a test failure once it has run for
    ``seconds`` whole seconds.  Any earlier alarm is cancelled, and the
    previous SIGALRM handler is restored on the way out."""

    def expire(signum, frame):
        pytest.fail(f"{getattr(fn, '__name__', fn)} ran past its {seconds} s deadline", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return fn(*args, **kwargs)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
