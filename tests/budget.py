"""A wall-time budget for calls that must not hang.

``with hang_budget(seconds, what):`` runs its block under
``signal.setitimer(signal.ITIMER_REAL, seconds)``; when the timer fires,
the test fails with a message naming *what* (the input), instead of
stalling the suite.  The old SIGALRM handler is restored on the way out.
It also decorates a test, budgeting the whole test.  pytest runs tests in
the main thread, where the signal is delivered.
"""

import contextlib
import signal

import pytest


@contextlib.contextmanager
def hang_budget(seconds: float, what):
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s: {what}", pytrace=False)

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
