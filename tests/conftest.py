"""A time budget per test: a test that runs past ``BUDGET_S`` fails.

A pruning bug can let the search's levels explode, and a test would then
run for hours instead of failing.  The budget is well above the slowest
test, so a slow host does not trip it.  It needs ``signal.setitimer``; where
the platform has none, tests run without a budget.
"""

import signal

import pytest

BUDGET_S = 120


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "setitimer"):
        yield
        return

    def overrun(signum, frame):
        raise TimeoutError(f"{item.nodeid} ran past its {BUDGET_S} s budget")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
