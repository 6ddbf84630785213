"""Fixtures shared by the test modules."""

import signal
import sys
import threading

import pytest

# Far above the slowest test (about 7 s), so only a hang runs into it.
BUDGET_S = 120


@pytest.fixture(autouse=True)
def time_budget():
    """Fail a test that runs past ``BUDGET_S`` seconds of wall time, so
    a hang fails its test instead of stalling the run.  It needs POSIX
    interval timers, and it is armed only in the main thread, which is
    where signals arrive.  A test that arms an alarm of its own stops
    the budget until the test ends."""
    in_main = threading.current_thread() is threading.main_thread()
    if not hasattr(signal, "setitimer") or not in_main:
        yield
        return

    def over_budget(signum, frame):
        pytest.fail(f"ran past its time budget of {BUDGET_S} s")

    previous = signal.signal(signal.SIGALRM, over_budget)
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def low_recursion_limit():
    """Run a test with the recursion limit far below the formula depths
    it uses, so a walker that takes a frame per level fails fast."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    yield
    sys.setrecursionlimit(saved)
